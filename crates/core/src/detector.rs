//! The Hölder-dimension aging detector — the target paper's primary
//! contribution.
//!
//! Pipeline (Shereshevsky et al., DSN 2003):
//!
//! 1. a memory-resource counter (available bytes, used swap) is sampled at
//!    a fixed period;
//! 2. the **local Hölder exponent trace** `h(t)` of the counter is
//!    computed over a sliding history;
//! 3. the **fractal (box-counting) dimension** of the graph of `h(t)` is
//!    computed over a sliding window — the *Hölder dimension trace*
//!    `D_h(t)` — together with the windowed mean of `h(t)`;
//! 4. a window is *anomalous* when `D_h` jumps above its baseline (the
//!    paper's rule) and/or when the mean Hölder exponent collapses below
//!    its baseline (regularity collapse — the dominant pre-crash signal on
//!    the simulated substrate; see DESIGN.md). The first anomalous window
//!    raises a warning; `confirm_windows` consecutive anomalous windows
//!    raise the crash **alarm** (the paper's "two-jump" rule).
//!
//! The jump threshold adapts to the baseline's own variability
//! (`median + max(jump_delta, mad_multiplier · MAD)`), and the first
//! `skip_windows` windows are discarded so boot-time warmup does not
//! contaminate the baseline.
//!
//! The detector is streaming and bounded-memory: feed one counter sample
//! at a time with [`HolderDimensionDetector::push`]; offline callers turn
//! on the trace recorder ([`HolderDimensionDetector::recording`],
//! [`analyze`]) to keep the full traces. Because the Hölder estimator is
//! centred, the emitted traces trail the newest sample by the estimator's
//! neighbourhood radius — alarms are attributed to the *push* (wall-clock)
//! instant, so evaluation lead times are honest.
//!
//! The warmup → baseline → confirm → latch sequence lives in one place,
//! [`DecisionCore`]; the Hölder detector here and the spectrum-width
//! detector in `aging-stream` supply only their features, band clamps,
//! anomaly rule and alert payload.

use aging_fractal::holder::{HolderEstimator, IncrementConfig};
use aging_fractal::streaming::{StreamingDimension, StreamingHolder, WindowDimension};
use aging_timeseries::persist::{self, Reader};
use aging_timeseries::{stats, Error, Result};

/// Which graph-dimension estimator the detector applies to the Hölder
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum DimensionMethod {
    /// Grid box-counting (the paper's choice).
    #[default]
    BoxCounting,
    /// Variation/oscillation method (smoother on short windows).
    Variation,
}

impl DimensionMethod {
    /// The equivalent streaming-kernel estimator
    /// ([`aging_fractal::streaming::WindowDimension`]).
    pub fn window_dimension(&self) -> WindowDimension {
        match self {
            DimensionMethod::BoxCounting => WindowDimension::BoxCounting,
            DimensionMethod::Variation => WindowDimension::Variation,
        }
    }
}

/// Which anomaly rule(s) drive warnings and alarms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum JumpRule {
    /// Only the paper's dimension-jump rule.
    DimensionJump,
    /// Only the Hölder-collapse rule.
    HolderCollapse,
    /// Either rule (default — most sensitive, still calm on stationary
    /// signals thanks to the adaptive threshold).
    #[default]
    Either,
}

/// Detector configuration. Defaults follow the calibration on the
/// simulated NT4 workload (see DESIGN.md, E3/E8).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Neighbourhood radius (in samples) of the Hölder estimator.
    pub holder_radius: usize,
    /// Largest lag of the local-increment Hölder estimator.
    pub holder_max_lag: usize,
    /// Hölder cap for degenerate neighbourhoods.
    pub max_h: f64,
    /// Window (in Hölder-trace samples) of the dimension estimator.
    pub dimension_window: usize,
    /// Stride between dimension windows.
    pub dimension_stride: usize,
    /// Dimension method.
    pub dimension_method: DimensionMethod,
    /// Initial dimension windows discarded (boot warmup).
    pub skip_windows: usize,
    /// Number of subsequent dimension values that form the baseline.
    pub baseline_windows: usize,
    /// Minimum jump threshold above the baseline median.
    pub jump_delta: f64,
    /// The jump threshold is `max(jump_delta, mad_multiplier · MAD)` of
    /// the baseline windows — it adapts to how noisy the signal's
    /// dimension naturally is. Adaptation is capped at 3 × `jump_delta`
    /// (dimension) and 2 × `holder_drop` (collapse) so a turbulent warmup
    /// cannot disable a rule outright.
    pub mad_multiplier: f64,
    /// Minimum Hölder-collapse threshold: anomalous when the windowed mean
    /// exponent falls below its baseline median by more than
    /// `max(holder_drop, mad_multiplier · MAD)` of the baseline windows.
    pub holder_drop: f64,
    /// Relative collapse floor: a window is also anomalous when its mean
    /// exponent falls below this fraction of the baseline median — the
    /// robust detector of total regularity collapse (`h → 0`) even when a
    /// turbulent warmup inflated the MAD-based threshold.
    pub holder_floor_fraction: f64,
    /// Which rule(s) to apply.
    pub rule: JumpRule,
    /// Consecutive anomalous windows required for a full alarm (2 = the
    /// paper's two-jump rule).
    pub confirm_windows: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            holder_radius: 32,
            holder_max_lag: 8,
            max_h: 2.0,
            dimension_window: 128,
            dimension_stride: 16,
            dimension_method: DimensionMethod::BoxCounting,
            skip_windows: 2,
            baseline_windows: 12,
            jump_delta: 0.2,
            mad_multiplier: 5.0,
            holder_drop: 0.3,
            holder_floor_fraction: 0.25,
            rule: JumpRule::Either,
            confirm_windows: 3,
        }
    }
}

impl DetectorConfig {
    /// Starts a fluent builder seeded with the defaults; finish with
    /// [`DetectorConfigBuilder::build`], which validates the result — the
    /// preferred way to construct a customised configuration (invalid
    /// combinations are rejected at build time instead of surfacing later
    /// from [`HolderDimensionDetector::new`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_core::detector::DetectorConfig;
    ///
    /// # fn main() -> Result<(), aging_timeseries::Error> {
    /// let config = DetectorConfig::builder()
    ///     .dimension_window(96)
    ///     .confirm_windows(2)
    ///     .build()?;
    /// assert_eq!(config.dimension_window, 96);
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> DetectorConfigBuilder {
        DetectorConfigBuilder {
            config: DetectorConfig::default(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if self.holder_max_lag < 4 {
            return Err(Error::invalid("holder_max_lag", "must be at least 4"));
        }
        if self.holder_radius < 2 * self.holder_max_lag {
            return Err(Error::invalid(
                "holder_radius",
                "must be at least twice holder_max_lag",
            ));
        }
        if !(self.max_h > 0.0) {
            return Err(Error::invalid("max_h", "must be positive"));
        }
        if self.dimension_window < 16 {
            return Err(Error::invalid("dimension_window", "must be at least 16"));
        }
        if self.dimension_stride == 0 {
            return Err(Error::invalid("dimension_stride", "must be positive"));
        }
        if self.dimension_stride > self.dimension_window {
            return Err(Error::invalid(
                "dimension_stride",
                "must not exceed dimension_window",
            ));
        }
        if self.baseline_windows < 2 {
            return Err(Error::invalid("baseline_windows", "must be at least 2"));
        }
        if !(self.jump_delta > 0.0) {
            return Err(Error::invalid("jump_delta", "must be positive"));
        }
        if !(self.mad_multiplier >= 0.0 && self.mad_multiplier.is_finite()) {
            return Err(Error::invalid(
                "mad_multiplier",
                "must be finite and non-negative",
            ));
        }
        if !(self.holder_drop > 0.0) {
            return Err(Error::invalid("holder_drop", "must be positive"));
        }
        if !(0.0..1.0).contains(&self.holder_floor_fraction) {
            return Err(Error::invalid(
                "holder_floor_fraction",
                "must lie in [0, 1)",
            ));
        }
        if self.confirm_windows == 0 {
            return Err(Error::invalid("confirm_windows", "must be positive"));
        }
        Ok(())
    }

    /// Number of raw samples needed before the first alarm can possibly
    /// fire (holder delay + skipped/baseline windows + confirmation).
    pub fn warmup_samples(&self) -> usize {
        let windows = self.skip_windows + self.baseline_windows + self.confirm_windows;
        let first_dim = self.dimension_window + (windows - 1) * self.dimension_stride;
        2 * self.holder_radius + first_dim
    }

    /// The equivalent offline Hölder estimator.
    pub fn holder_estimator(&self) -> HolderEstimator {
        HolderEstimator::LocalIncrement(IncrementConfig {
            window_radius: self.holder_radius,
            max_lag: self.holder_max_lag,
            max_h: self.max_h,
        })
    }
}

/// Fluent builder for [`DetectorConfig`]; see [`DetectorConfig::builder`].
#[derive(Debug, Clone)]
pub struct DetectorConfigBuilder {
    config: DetectorConfig,
}

impl DetectorConfigBuilder {
    /// Sets the Hölder-estimator neighbourhood radius.
    #[must_use]
    pub fn holder_radius(mut self, holder_radius: usize) -> Self {
        self.config.holder_radius = holder_radius;
        self
    }

    /// Sets the largest lag of the local-increment Hölder estimator.
    #[must_use]
    pub fn holder_max_lag(mut self, holder_max_lag: usize) -> Self {
        self.config.holder_max_lag = holder_max_lag;
        self
    }

    /// Sets the Hölder cap for degenerate neighbourhoods.
    #[must_use]
    pub fn max_h(mut self, max_h: f64) -> Self {
        self.config.max_h = max_h;
        self
    }

    /// Sets the dimension-estimator window length.
    #[must_use]
    pub fn dimension_window(mut self, dimension_window: usize) -> Self {
        self.config.dimension_window = dimension_window;
        self
    }

    /// Sets the stride between dimension windows.
    #[must_use]
    pub fn dimension_stride(mut self, dimension_stride: usize) -> Self {
        self.config.dimension_stride = dimension_stride;
        self
    }

    /// Sets the dimension method.
    #[must_use]
    pub fn dimension_method(mut self, dimension_method: DimensionMethod) -> Self {
        self.config.dimension_method = dimension_method;
        self
    }

    /// Sets the number of initial windows discarded as boot warmup.
    #[must_use]
    pub fn skip_windows(mut self, skip_windows: usize) -> Self {
        self.config.skip_windows = skip_windows;
        self
    }

    /// Sets the number of windows that form the baseline.
    #[must_use]
    pub fn baseline_windows(mut self, baseline_windows: usize) -> Self {
        self.config.baseline_windows = baseline_windows;
        self
    }

    /// Sets the minimum dimension-jump threshold.
    #[must_use]
    pub fn jump_delta(mut self, jump_delta: f64) -> Self {
        self.config.jump_delta = jump_delta;
        self
    }

    /// Sets the MAD multiplier of the adaptive thresholds.
    #[must_use]
    pub fn mad_multiplier(mut self, mad_multiplier: f64) -> Self {
        self.config.mad_multiplier = mad_multiplier;
        self
    }

    /// Sets the minimum Hölder-collapse threshold.
    #[must_use]
    pub fn holder_drop(mut self, holder_drop: f64) -> Self {
        self.config.holder_drop = holder_drop;
        self
    }

    /// Sets the relative collapse floor.
    #[must_use]
    pub fn holder_floor_fraction(mut self, holder_floor_fraction: f64) -> Self {
        self.config.holder_floor_fraction = holder_floor_fraction;
        self
    }

    /// Sets which anomaly rule(s) to apply.
    #[must_use]
    pub fn rule(mut self, rule: JumpRule) -> Self {
        self.config.rule = rule;
        self
    }

    /// Sets the number of consecutive anomalous windows required for a
    /// full alarm.
    #[must_use]
    pub fn confirm_windows(mut self, confirm_windows: usize) -> Self {
        self.config.confirm_windows = confirm_windows;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] describing the first violated
    /// constraint, exactly like [`DetectorConfig::validate`].
    pub fn build(self) -> Result<DetectorConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Severity of an emitted alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertLevel {
    /// First anomalous window above baseline.
    Warning,
    /// Confirmed anomaly (the paper's crash predictor firing).
    Alarm,
}

impl AlertLevel {
    /// Stable byte code used by every persisted and journaled alert.
    pub fn code(self) -> u8 {
        match self {
            AlertLevel::Warning => 0,
            AlertLevel::Alarm => 1,
        }
    }

    /// Inverse of [`AlertLevel::code`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an unknown code.
    pub fn from_code(code: u8) -> Result<Self> {
        match code {
            0 => Ok(AlertLevel::Warning),
            1 => Ok(AlertLevel::Alarm),
            c => Err(Error::invalid("persist", format!("bad alert level {c}"))),
        }
    }
}

impl std::fmt::Display for AlertLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlertLevel::Warning => f.write_str("warning"),
            AlertLevel::Alarm => f.write_str("alarm"),
        }
    }
}

/// Which rule(s) a window violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Dimension jumped above baseline.
    DimensionJump,
    /// Mean Hölder exponent collapsed below baseline.
    HolderCollapse,
    /// Both at once.
    Both,
}

impl Trigger {
    /// Stable byte code used by every persisted and journaled alert.
    pub fn code(self) -> u8 {
        match self {
            Trigger::DimensionJump => 0,
            Trigger::HolderCollapse => 1,
            Trigger::Both => 2,
        }
    }

    /// Inverse of [`Trigger::code`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an unknown code.
    pub fn from_code(code: u8) -> Result<Self> {
        match code {
            0 => Ok(Trigger::DimensionJump),
            1 => Ok(Trigger::HolderCollapse),
            2 => Ok(Trigger::Both),
            c => Err(Error::invalid("persist", format!("bad trigger {c}"))),
        }
    }
}

/// An alert emitted by the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Index of the raw sample whose push produced the alert.
    pub sample_index: usize,
    /// Severity.
    pub level: AlertLevel,
    /// Which rule fired.
    pub trigger: Trigger,
    /// Dimension value of the anomalous window.
    pub dimension: f64,
    /// Windowed mean Hölder exponent of the anomalous window.
    pub mean_holder: f64,
    /// Baseline dimension median.
    pub dimension_baseline: f64,
    /// Baseline mean-Hölder median.
    pub holder_baseline: f64,
}

impl Alert {
    /// Appends the alert's persisted form via [`aging_timeseries::persist`].
    pub fn encode(&self, out: &mut Vec<u8>) {
        persist::put_usize(out, self.sample_index);
        persist::put_u8(out, self.level.code());
        persist::put_u8(out, self.trigger.code());
        persist::put_f64(out, self.dimension);
        persist::put_f64(out, self.mean_holder);
        persist::put_f64(out, self.dimension_baseline);
        persist::put_f64(out, self.holder_baseline);
    }

    /// Reads an alert written by [`Alert::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation or corrupt codes.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Alert {
            sample_index: r.usize_()?,
            level: AlertLevel::from_code(r.u8()?)?,
            trigger: Trigger::from_code(r.u8()?)?,
            dimension: r.f64()?,
            mean_holder: r.f64()?,
            dimension_baseline: r.f64()?,
            holder_baseline: r.f64()?,
        })
    }
}

/// Baseline levels established after warmup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Median dimension of the baseline windows.
    pub dimension: f64,
    /// Effective jump threshold actually applied (`max(jump_delta,
    /// mad_multiplier · MAD)`).
    pub dimension_delta: f64,
    /// Median windowed mean Hölder exponent of the baseline windows.
    pub mean_holder: f64,
    /// Effective collapse threshold actually applied (`max(holder_drop,
    /// mad_multiplier · MAD)`).
    pub holder_delta: f64,
}

/// The frozen baseline of one feature: the median over the baseline
/// windows and the clamped `mad_multiplier · MAD` band around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureBand {
    /// Median of the feature over the baseline windows.
    pub median: f64,
    /// Band width: `mad_multiplier · MAD`, clamped to the family's range.
    pub delta: f64,
}

/// The decision state machine every windowed detector family runs on its
/// per-window features: skip the first `skip_windows` windows (boot
/// warmup), freeze each feature's median/MAD band over the next
/// `baseline_windows`, then judge every later window with the family's
/// anomaly rule — a Warning on the first anomalous window, a latched Alarm
/// once `confirm_windows` consecutive windows are anomalous.
///
/// `N` is the number of features per window and `A` the family's alert
/// payload. The core also keeps the emission counters and the last alert,
/// and owns their persisted layout.
#[derive(Debug, Clone)]
pub struct DecisionCore<const N: usize, A> {
    skip_windows: usize,
    baseline_windows: usize,
    confirm_windows: usize,
    mad_multiplier: f64,
    clamps: [(f64, f64); N],
    windows_seen: usize,
    formation: [Vec<f64>; N],
    baseline: Option<[FeatureBand; N]>,
    consecutive_anomalies: usize,
    alarmed: bool,
    warnings_emitted: u64,
    alarms_emitted: u64,
    last_alert: Option<A>,
}

impl<const N: usize, A: Copy> DecisionCore<N, A> {
    /// Creates the core. `clamps[i]` bounds feature `i`'s band
    /// `mad_multiplier · MAD` to `[min, max]`.
    pub fn new(
        skip_windows: usize,
        baseline_windows: usize,
        confirm_windows: usize,
        mad_multiplier: f64,
        clamps: [(f64, f64); N],
    ) -> Self {
        DecisionCore {
            skip_windows,
            baseline_windows,
            confirm_windows,
            mad_multiplier,
            clamps,
            windows_seen: 0,
            formation: std::array::from_fn(|_| Vec::new()),
            baseline: None,
            consecutive_anomalies: 0,
            alarmed: false,
            warnings_emitted: 0,
            alarms_emitted: 0,
            last_alert: None,
        }
    }

    /// Feeds one window's features. Once the baseline is frozen, `rule`
    /// judges the window against it (`Some` = anomalous, carrying what the
    /// alert needs) and `alert` builds the payload for an emitted level.
    ///
    /// # Errors
    ///
    /// Propagates baseline statistics failures.
    pub fn step<R>(
        &mut self,
        features: [f64; N],
        rule: impl FnOnce(&[FeatureBand; N]) -> Option<R>,
        alert: impl FnOnce(AlertLevel, R, &[FeatureBand; N]) -> A,
    ) -> Result<Option<A>> {
        self.windows_seen += 1;
        if self.windows_seen <= self.skip_windows {
            return Ok(None);
        }
        let Some(baseline) = self.baseline else {
            for (column, x) in self.formation.iter_mut().zip(features) {
                column.push(x);
            }
            if self.formation[0].len() >= self.baseline_windows {
                let mut bands = [FeatureBand {
                    median: 0.0,
                    delta: 0.0,
                }; N];
                for ((band, column), (lo, hi)) in
                    bands.iter_mut().zip(&self.formation).zip(self.clamps)
                {
                    band.median = stats::median(column)?;
                    band.delta = (self.mad_multiplier * stats::mad(column)?).clamp(lo, hi);
                }
                self.baseline = Some(bands);
                // The formation columns are dead state once the baseline
                // freezes; drop them so long-lived detectors stay lean.
                self.formation = std::array::from_fn(|_| Vec::new());
            }
            return Ok(None);
        };
        let Some(verdict) = rule(&baseline) else {
            self.consecutive_anomalies = 0;
            return Ok(None);
        };
        self.consecutive_anomalies += 1;
        if self.alarmed {
            return Ok(None);
        }
        let level = if self.consecutive_anomalies >= self.confirm_windows {
            self.alarmed = true;
            self.alarms_emitted += 1;
            AlertLevel::Alarm
        } else if self.consecutive_anomalies == 1 {
            self.warnings_emitted += 1;
            AlertLevel::Warning
        } else {
            return Ok(None);
        };
        let emitted = alert(level, verdict, &baseline);
        self.last_alert = Some(emitted);
        Ok(Some(emitted))
    }

    /// Whether the confirmed alarm has fired.
    pub fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    /// The frozen per-feature baseline, once formed.
    pub fn baseline(&self) -> Option<[FeatureBand; N]> {
        self.baseline
    }

    /// The most recent alert, if any.
    pub fn last_alert(&self) -> Option<A> {
        self.last_alert
    }

    /// Clears all decision state; the emission counters are lifetime
    /// totals and survive.
    pub fn reset(&mut self) {
        self.windows_seen = 0;
        for column in &mut self.formation {
            column.clear();
        }
        self.baseline = None;
        self.consecutive_anomalies = 0;
        self.alarmed = false;
        self.last_alert = None;
    }

    /// Serializes the decision state via [`aging_timeseries::persist`];
    /// `put_alert` writes the family's alert payload.
    pub fn encode_state(&self, out: &mut Vec<u8>, put_alert: impl FnOnce(&A, &mut Vec<u8>)) {
        persist::put_usize(out, self.windows_seen);
        for column in &self.formation {
            persist::put_usize(out, column.len());
            for &x in column {
                persist::put_f64(out, x);
            }
        }
        persist::put_bool(out, self.baseline.is_some());
        for band in self.baseline.iter().flatten() {
            persist::put_f64(out, band.median);
            persist::put_f64(out, band.delta);
        }
        persist::put_usize(out, self.consecutive_anomalies);
        persist::put_bool(out, self.alarmed);
        persist::put_u64(out, self.warnings_emitted);
        persist::put_u64(out, self.alarms_emitted);
        persist::put_bool(out, self.last_alert.is_some());
        if let Some(a) = &self.last_alert {
            put_alert(a, out);
        }
    }

    /// Restores state written by [`DecisionCore::encode_state`] into a
    /// core constructed with the same parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation, an oversized
    /// formation column or a corrupt alert.
    pub fn restore_state(
        &mut self,
        r: &mut Reader<'_>,
        read_alert: impl FnOnce(&mut Reader<'_>) -> Result<A>,
    ) -> Result<()> {
        self.windows_seen = r.usize_()?;
        for column in &mut self.formation {
            let n = r.usize_()?;
            if n > self.baseline_windows {
                return Err(Error::invalid(
                    "persist",
                    format!("vector length {n} exceeds bound {}", self.baseline_windows),
                ));
            }
            *column = (0..n).map(|_| r.f64()).collect::<Result<_>>()?;
        }
        self.baseline = if r.bool()? {
            let mut bands = [FeatureBand {
                median: 0.0,
                delta: 0.0,
            }; N];
            for band in &mut bands {
                band.median = r.f64()?;
                band.delta = r.f64()?;
            }
            Some(bands)
        } else {
            None
        };
        self.consecutive_anomalies = r.usize_()?;
        self.alarmed = r.bool()?;
        self.warnings_emitted = r.u64()?;
        self.alarms_emitted = r.u64()?;
        self.last_alert = if r.bool()? {
            Some(read_alert(r)?)
        } else {
            None
        };
        Ok(())
    }
}

/// Everything a recording detector emitted — the offline traces behind
/// [`analyze`], the examples and the evaluation experiments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectorTrace {
    /// The Hölder trace (index `i` corresponds to raw sample
    /// `i + holder_radius`).
    pub holder_trace: Vec<f64>,
    /// `(raw-sample index, dimension)` pairs.
    pub dimension_trace: Vec<(usize, f64)>,
    /// `(raw-sample index, windowed mean Hölder)` pairs.
    pub mean_holder_trace: Vec<(usize, f64)>,
    /// All alerts, in order.
    pub alerts: Vec<Alert>,
}

/// The Hölder-dimension detector: ring-buffered Hölder and dimension
/// kernels ([`StreamingHolder`], [`StreamingDimension`]) feeding the
/// shared [`DecisionCore`]. Memory is O(window) regardless of stream
/// length; a detector built with [`HolderDimensionDetector::recording`]
/// additionally keeps the full [`DetectorTrace`] for offline analysis.
///
/// # Examples
///
/// ```
/// use aging_core::detector::{DetectorConfig, HolderDimensionDetector, AlertLevel};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let mut det = HolderDimensionDetector::recording(DetectorConfig::default())?;
/// for i in 0..800 {
///     let value = (i as f64 * 0.37).sin() * 10.0 + 100.0;
///     det.push(value)?;
/// }
/// // A clean periodic signal never alarms.
/// let trace = det.trace().expect("recording detector");
/// assert!(trace.alerts.iter().all(|a| a.level != AlertLevel::Alarm));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HolderDimensionDetector {
    config: DetectorConfig,
    holder: StreamingHolder,
    dimension: StreamingDimension,
    samples_seen: u64,
    core: DecisionCore<2, Alert>,
    trace: Option<Box<DetectorTrace>>,
}

impl HolderDimensionDetector {
    /// Creates a bounded-memory detector that records no trace.
    ///
    /// # Errors
    ///
    /// Propagates [`DetectorConfig::validate`] failures.
    pub fn new(config: DetectorConfig) -> Result<Self> {
        config.validate()?;
        let holder =
            StreamingHolder::new(config.holder_radius, config.holder_max_lag, config.max_h)?;
        let dimension = StreamingDimension::new(
            config.dimension_method.window_dimension(),
            config.dimension_window,
            config.dimension_stride,
        )?;
        let core = DecisionCore::new(
            config.skip_windows,
            config.baseline_windows,
            config.confirm_windows,
            config.mad_multiplier,
            [
                (config.jump_delta, 3.0 * config.jump_delta),
                (config.holder_drop, 2.0 * config.holder_drop),
            ],
        );
        Ok(HolderDimensionDetector {
            config,
            holder,
            dimension,
            samples_seen: 0,
            core,
            trace: None,
        })
    }

    /// Creates a detector that also records its full [`DetectorTrace`]
    /// (grows with the stream — for offline analysis).
    ///
    /// # Errors
    ///
    /// Propagates [`DetectorConfig::validate`] failures.
    pub fn recording(config: DetectorConfig) -> Result<Self> {
        let mut det = Self::new(config)?;
        det.trace = Some(Box::default());
        Ok(det)
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Feeds one counter sample; returns an alert if this sample produced
    /// (or confirmed) an anomalous window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for NaN/infinite samples (repair gaps
    /// with [`aging_timeseries::interp`] before feeding; the sample is not
    /// absorbed) and propagates internal estimator failures.
    pub fn push(&mut self, value: f64) -> Result<Option<Alert>> {
        if !value.is_finite() {
            return Err(Error::NonFinite {
                index: self.samples_seen as usize,
            });
        }
        self.samples_seen += 1;
        // Hölder point for the centre of the trailing neighbourhood.
        let Some(h) = self.holder.push(value)? else {
            return Ok(None);
        };
        if let Some(trace) = &mut self.trace {
            trace.holder_trace.push(h);
        }
        // Dimension window due?
        let Some(point) = self.dimension.push(h)? else {
            return Ok(None);
        };
        let (d, mean_h) = (point.dimension, point.mean);
        let raw_index = (self.samples_seen - 1) as usize;
        if let Some(trace) = &mut self.trace {
            trace.dimension_trace.push((raw_index, d));
            trace.mean_holder_trace.push((raw_index, mean_h));
        }
        let cfg = &self.config;
        let alert = self.core.step(
            [d, mean_h],
            |&[dim, holder]| {
                let dim_jump = d > dim.median + dim.delta;
                let mut collapse_level = holder.median - holder.delta;
                if holder.median > cfg.holder_drop {
                    // Only meaningful when there is regularity to collapse
                    // from; a noise-like baseline (h ≈ 0) has no lower floor.
                    collapse_level = collapse_level.max(cfg.holder_floor_fraction * holder.median);
                }
                let collapse = mean_h < collapse_level;
                let anomalous = match cfg.rule {
                    JumpRule::DimensionJump => dim_jump,
                    JumpRule::HolderCollapse => collapse,
                    JumpRule::Either => dim_jump || collapse,
                };
                anomalous.then_some(match (dim_jump, collapse) {
                    (true, true) => Trigger::Both,
                    (true, false) => Trigger::DimensionJump,
                    _ => Trigger::HolderCollapse,
                })
            },
            |level, trigger, &[dim, holder]| Alert {
                sample_index: raw_index,
                level,
                trigger,
                dimension: d,
                mean_holder: mean_h,
                dimension_baseline: dim.median,
                holder_baseline: holder.median,
            },
        )?;
        if let (Some(alert), Some(trace)) = (alert, &mut self.trace) {
            trace.alerts.push(alert);
        }
        Ok(alert)
    }

    /// The recorded trace, when built with
    /// [`HolderDimensionDetector::recording`].
    pub fn trace(&self) -> Option<&DetectorTrace> {
        self.trace.as_deref()
    }

    /// Whether the full alarm has fired.
    pub fn is_alarmed(&self) -> bool {
        self.core.is_alarmed()
    }

    /// The established baseline, once enough windows exist.
    pub fn baseline(&self) -> Option<Baseline> {
        self.core.baseline().map(|[dim, holder]| Baseline {
            dimension: dim.median,
            dimension_delta: dim.delta,
            mean_holder: holder.median,
            holder_delta: holder.delta,
        })
    }

    /// The most recent alert, if any.
    pub fn last_alert(&self) -> Option<Alert> {
        self.core.last_alert()
    }

    /// Raw samples consumed since construction or the last reset.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Upper bound on retained samples across all internal windows — the
    /// detector's memory is O(this), independent of stream length (the
    /// optional trace recorder aside).
    pub fn memory_bound_samples(&self) -> usize {
        2 * self.config.holder_radius
            + 1
            + self.config.dimension_window
            + self.config.baseline_windows
    }

    /// Resets all state (e.g. after a rejuvenation or reboot). The
    /// configuration, the lifetime emission counters and whether a trace
    /// is recorded are retained; a recorded trace restarts empty.
    pub fn reset(&mut self) {
        self.holder.reset();
        self.dimension.reset();
        self.samples_seen = 0;
        self.core.reset();
        if let Some(trace) = &mut self.trace {
            **trace = DetectorTrace::default();
        }
    }

    /// Serializes all dynamic state (kernels, warmup/baseline progress,
    /// confirmation run, latch and emission counters) via
    /// [`aging_timeseries::persist`]; the config is re-supplied at
    /// construction and the trace recorder is not persisted.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.holder.encode_state(out);
        self.dimension.encode_state(out);
        persist::put_u64(out, self.samples_seen);
        self.core.encode_state(out, Alert::encode);
    }

    /// Restores state written by [`HolderDimensionDetector::encode_state`]
    /// into a detector constructed with the same config.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation, a window
    /// mismatch or corrupt enum codes.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.holder.restore_state(r)?;
        self.dimension.restore_state(r)?;
        self.samples_seen = r.u64()?;
        self.core.restore_state(r, Alert::decode)
    }
}

/// Result of an offline end-to-end analysis of a full counter series.
#[derive(Debug, Clone)]
pub struct OfflineAnalysis {
    /// The Hölder trace (index `i` corresponds to raw sample
    /// `i + holder_radius`).
    pub holder_trace: Vec<f64>,
    /// `(raw-sample index, dimension)` pairs.
    pub dimension_trace: Vec<(usize, f64)>,
    /// `(raw-sample index, windowed mean Hölder)` pairs.
    pub mean_holder_trace: Vec<(usize, f64)>,
    /// All alerts.
    pub alerts: Vec<Alert>,
    /// The baseline, if it formed.
    pub baseline: Option<Baseline>,
}

impl OfflineAnalysis {
    /// The first full alarm, if any.
    pub fn first_alarm(&self) -> Option<Alert> {
        self.alerts
            .iter()
            .copied()
            .find(|a| a.level == AlertLevel::Alarm)
    }
}

/// Runs a recording detector over a complete series in one call.
///
/// # Errors
///
/// Propagates configuration and estimator failures; NaN samples are
/// rejected.
pub fn analyze(values: &[f64], config: &DetectorConfig) -> Result<OfflineAnalysis> {
    let mut det = HolderDimensionDetector::recording(config.clone())?;
    for &v in values {
        det.push(v)?;
    }
    let baseline = det.baseline();
    let trace = *det.trace.expect("recording detector keeps a trace");
    Ok(OfflineAnalysis {
        holder_trace: trace.holder_trace,
        dimension_trace: trace.dimension_trace,
        mean_holder_trace: trace.mean_holder_trace,
        alerts: trace.alerts,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aging_fractal::generate;

    /// Smooth persistent first half, rough noise second half: the
    /// archetypal regularity collapse.
    fn collapse_signal(n: usize, seed: u64) -> Vec<f64> {
        let mut x = generate::fbm(n / 2, 0.9, seed).unwrap();
        let last = *x.last().unwrap();
        let noise = generate::white_noise(n / 2, seed + 1000).unwrap();
        x.extend(noise.iter().map(|v| last + v));
        x
    }

    #[test]
    fn config_validation() {
        assert!(DetectorConfig::default().validate().is_ok());
        let bad = |f: fn(&mut DetectorConfig)| {
            let mut c = DetectorConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.holder_max_lag = 2));
        assert!(bad(|c| c.holder_radius = 8));
        assert!(bad(|c| c.max_h = 0.0));
        assert!(bad(|c| c.dimension_window = 4));
        assert!(bad(|c| c.dimension_stride = 0));
        assert!(bad(|c| c.dimension_stride = c.dimension_window + 1));
        assert!(bad(|c| c.baseline_windows = 1));
        assert!(bad(|c| c.jump_delta = 0.0));
        assert!(bad(|c| c.mad_multiplier = f64::NAN));
        assert!(bad(|c| c.holder_drop = 0.0));
        assert!(bad(|c| c.holder_floor_fraction = 1.0));
        assert!(bad(|c| c.holder_floor_fraction = -0.1));
        assert!(bad(|c| c.confirm_windows = 0));
    }

    #[test]
    fn builder_round_trips_and_validates() {
        let built = DetectorConfig::builder().build().unwrap();
        assert_eq!(built, DetectorConfig::default());

        let custom = DetectorConfig::builder()
            .holder_radius(48)
            .holder_max_lag(16)
            .max_h(1.5)
            .dimension_window(96)
            .dimension_stride(8)
            .dimension_method(DimensionMethod::Variation)
            .skip_windows(1)
            .baseline_windows(6)
            .jump_delta(0.15)
            .mad_multiplier(4.0)
            .holder_drop(0.25)
            .holder_floor_fraction(0.3)
            .rule(JumpRule::HolderCollapse)
            .confirm_windows(2)
            .build()
            .unwrap();
        assert_eq!(custom.holder_radius, 48);
        assert_eq!(custom.holder_max_lag, 16);
        assert_eq!(custom.max_h, 1.5);
        assert_eq!(custom.dimension_window, 96);
        assert_eq!(custom.dimension_stride, 8);
        assert_eq!(custom.dimension_method, DimensionMethod::Variation);
        assert_eq!(custom.skip_windows, 1);
        assert_eq!(custom.baseline_windows, 6);
        assert_eq!(custom.jump_delta, 0.15);
        assert_eq!(custom.mad_multiplier, 4.0);
        assert_eq!(custom.holder_drop, 0.25);
        assert_eq!(custom.holder_floor_fraction, 0.3);
        assert_eq!(custom.rule, JumpRule::HolderCollapse);
        assert_eq!(custom.confirm_windows, 2);

        // Invalid combinations fail at build time.
        assert!(DetectorConfig::builder().holder_max_lag(2).build().is_err());
        assert!(DetectorConfig::builder().holder_radius(8).build().is_err());
        assert!(DetectorConfig::builder()
            .confirm_windows(0)
            .build()
            .is_err());
    }

    #[test]
    fn warmup_sample_count() {
        let c = DetectorConfig::default();
        // 64 + 128 + (2+12+3−1)·16 = 448.
        assert_eq!(c.warmup_samples(), 448);
    }

    #[test]
    fn stationary_signal_never_alarms() {
        // Stationary fGn at several roughness levels: regularity never
        // changes, so the alarm must stay silent.
        for &(h, seed) in &[(0.3, 1u64), (0.5, 2), (0.7, 3)] {
            let x = generate::fgn(4000, h, seed).unwrap();
            let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
            assert!(analysis.baseline.is_some());
            assert!(
                analysis.first_alarm().is_none(),
                "H={h}: {:?}",
                analysis.alerts
            );
        }
    }

    #[test]
    fn regularity_collapse_triggers_alarm() {
        let n = 4000;
        let x = collapse_signal(n, 2);
        let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
        let alarm = analysis.first_alarm().expect("alarm must fire");
        // Alarm must land after the regime change began.
        assert!(alarm.sample_index > n / 2, "index {}", alarm.sample_index);
        // And reasonably soon after it (within the detector's natural
        // latency: holder radius + dimension window + confirmation).
        assert!(
            alarm.sample_index < n / 2 + 500,
            "index {}",
            alarm.sample_index
        );
    }

    #[test]
    fn collapse_rule_reports_holder_trigger() {
        let config = DetectorConfig {
            rule: JumpRule::HolderCollapse,
            ..DetectorConfig::default()
        };
        let x = collapse_signal(4000, 4);
        let analysis = analyze(&x, &config).unwrap();
        let alarm = analysis.first_alarm().expect("collapse rule must fire");
        assert_eq!(alarm.trigger, Trigger::HolderCollapse);
        assert!(alarm.mean_holder < alarm.holder_baseline - 0.3);
    }

    #[test]
    fn dimension_rule_alone_is_silent_on_stationary() {
        let config = DetectorConfig {
            rule: JumpRule::DimensionJump,
            ..DetectorConfig::default()
        };
        let x = generate::fgn(4000, 0.5, 5).unwrap();
        let analysis = analyze(&x, &config).unwrap();
        assert!(analysis.first_alarm().is_none());
    }

    #[test]
    fn warning_precedes_alarm() {
        let x = collapse_signal(4000, 6);
        let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
        let warning_idx = analysis
            .alerts
            .iter()
            .position(|a| a.level == AlertLevel::Warning);
        let alarm_idx = analysis
            .alerts
            .iter()
            .position(|a| a.level == AlertLevel::Alarm);
        let (w, a) = (warning_idx.unwrap(), alarm_idx.unwrap());
        assert!(w < a);
        assert!(analysis.alerts[w].sample_index < analysis.alerts[a].sample_index);
    }

    #[test]
    fn recorder_does_not_change_decisions() {
        let x = collapse_signal(4000, 7);
        let config = DetectorConfig::default();
        let offline = analyze(&x, &config).unwrap();
        let mut det = HolderDimensionDetector::new(config).unwrap();
        let mut alerts = Vec::new();
        for &v in &x {
            alerts.extend(det.push(v).unwrap());
        }
        assert!(det.trace().is_none());
        assert!(offline.first_alarm().is_some());
        assert_eq!(alerts, offline.alerts);
        assert_eq!(det.baseline(), offline.baseline);
        assert_eq!(det.last_alert(), offline.alerts.last().copied());
    }

    #[test]
    fn alarm_latches_until_reset() {
        let x = collapse_signal(4000, 8);
        let mut det = HolderDimensionDetector::recording(DetectorConfig::default()).unwrap();
        for &v in &x {
            det.push(v).unwrap();
        }
        assert!(det.is_alarmed());
        let alarm_count = det
            .trace()
            .unwrap()
            .alerts
            .iter()
            .filter(|a| a.level == AlertLevel::Alarm)
            .count();
        assert_eq!(alarm_count, 1, "alarm must fire exactly once");

        det.reset();
        assert!(!det.is_alarmed());
        assert_eq!(det.samples_seen(), 0);
        assert_eq!(det.trace(), Some(&DetectorTrace::default()));
        assert_eq!(det.baseline(), None);
        assert_eq!(det.last_alert(), None);
    }

    #[test]
    fn decision_core_runs_warmup_baseline_confirm_latch() {
        let mut core = DecisionCore::<1, (AlertLevel, usize)>::new(1, 3, 2, 1.0, [(0.5, 1.0)]);
        let mut emitted = Vec::new();
        for (i, x) in [9.0, 1.0, 1.0, 1.0, 5.0, 1.0, 5.0, 5.0, 5.0]
            .into_iter()
            .enumerate()
        {
            let rule = |&[band]: &[FeatureBand; 1]| (x > band.median + band.delta).then_some(());
            emitted.extend(core.step([x], rule, |level, (), _| (level, i)).unwrap());
        }
        // The skipped 9.0 never enters the baseline; a zero MAD is clamped
        // up to the band floor.
        let band = FeatureBand {
            median: 1.0,
            delta: 0.5,
        };
        assert_eq!(core.baseline(), Some([band]));
        // Warning on each fresh anomaly run, Alarm at the confirmation,
        // nothing once latched.
        let expected = [
            (AlertLevel::Warning, 4),
            (AlertLevel::Warning, 6),
            (AlertLevel::Alarm, 7),
        ];
        assert_eq!(emitted, expected);
        assert!(core.is_alarmed());
        assert_eq!(core.last_alert(), Some((AlertLevel::Alarm, 7)));

        core.reset();
        assert!(!core.is_alarmed());
        assert_eq!(core.baseline(), None);
        assert_eq!(core.last_alert(), None);
    }

    #[test]
    fn rejects_nan_samples() {
        let mut det = HolderDimensionDetector::new(DetectorConfig::default()).unwrap();
        det.push(1.0).unwrap();
        assert!(det.push(f64::NAN).is_err());
        assert_eq!(det.samples_seen(), 1, "a rejected sample is not absorbed");
    }

    #[test]
    fn traces_are_delayed_consistently() {
        let x = generate::fgn(500, 0.5, 9).unwrap();
        let config = DetectorConfig::default();
        let analysis = analyze(&x, &config).unwrap();
        // Hölder trace length = n − 2·radius.
        assert_eq!(analysis.holder_trace.len(), 500 - 64);
        // Dimension indices are valid raw-sample indices; mean-h trace is
        // parallel to the dimension trace.
        assert_eq!(
            analysis.dimension_trace.len(),
            analysis.mean_holder_trace.len()
        );
        for (&(idx, d), &(idx2, h)) in analysis
            .dimension_trace
            .iter()
            .zip(&analysis.mean_holder_trace)
        {
            assert_eq!(idx, idx2);
            assert!(idx < 500);
            assert!((1.0..=2.0).contains(&d));
            assert!((-1.0..=2.0).contains(&h));
        }
    }

    #[test]
    fn dimension_methods_both_work() {
        let x = generate::fgn(2000, 0.5, 10).unwrap();
        for method in [DimensionMethod::BoxCounting, DimensionMethod::Variation] {
            let config = DetectorConfig {
                dimension_method: method,
                ..DetectorConfig::default()
            };
            let analysis = analyze(&x, &config).unwrap();
            assert!(!analysis.dimension_trace.is_empty(), "{method:?}");
        }
    }

    #[test]
    fn constant_input_is_smooth_not_error() {
        let x = vec![5.0; 1200];
        let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
        // Hölder trace is capped at max_h, dimension of a constant trace
        // is 1, and nothing alarms.
        assert!(analysis.first_alarm().is_none());
        for &(_, d) in &analysis.dimension_trace {
            assert_eq!(d, 1.0);
        }
    }

    #[test]
    fn baseline_reports_adaptive_delta() {
        let x = generate::fgn(2000, 0.5, 11).unwrap();
        let analysis = analyze(&x, &DetectorConfig::default()).unwrap();
        let b = analysis.baseline.unwrap();
        assert!(b.dimension_delta >= 0.2); // at least jump_delta
        assert!((1.0..=2.0).contains(&b.dimension));
        assert!((-1.0..=2.0).contains(&b.mean_holder));
    }
}
