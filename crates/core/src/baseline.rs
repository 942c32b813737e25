//! Baseline aging predictors from the measurement-based literature the
//! target paper compares against.
//!
//! - [`SenSlopePredictor`] — Mann–Kendall trend test plus Sen's slope
//!   extrapolation to exhaustion (Garg et al. 1998; Vaidyanathan & Trivedi
//!   1998): the classical "estimate time to resource exhaustion" method.
//! - [`OlsPredictor`] — ordinary least-squares extrapolation.
//! - [`ThresholdPredictor`] — naive level crossing.
//!
//! All predictors and the Hölder-dimension detector implement
//! [`AgingPredictor`], so the evaluation harness can score them uniformly.

use crate::detector::{DetectorConfig, HolderDimensionDetector};
use aging_timeseries::regression::ols;
use aging_timeseries::trend::{MannKendall, SenSlope, TrendDirection};
use aging_timeseries::{Error, Result};

/// Whether the monitored resource depletes toward exhaustion (available
/// memory) or fills toward a capacity (used swap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceDirection {
    /// Exhaustion is the series *falling* to the level (e.g. free memory).
    Depleting,
    /// Exhaustion is the series *rising* to the level (e.g. used swap).
    Filling,
}

/// A unified streaming interface for aging predictors.
pub trait AgingPredictor {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Feeds one counter sample; returns `true` if the predictor's alarm
    /// fired **on this sample** (first firing only — predictors latch).
    ///
    /// # Errors
    ///
    /// Implementations reject NaN samples and propagate estimator errors.
    fn push(&mut self, value: f64) -> Result<bool>;

    /// Whether the alarm has fired.
    fn is_alarmed(&self) -> bool;

    /// Latest estimated time to exhaustion in seconds, when the method
    /// produces one (`None` for jump-style detectors).
    fn eta_secs(&self) -> Option<f64>;

    /// Clears all state (after rejuvenation/reboot).
    fn reset(&mut self);
}

/// Configuration shared by the trend-extrapolation predictors.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPredictorConfig {
    /// Sampling period of the fed series, seconds.
    pub sample_period_secs: f64,
    /// Number of trailing samples in the regression window.
    pub window: usize,
    /// Recompute the fit every this many samples.
    pub refit_every: usize,
    /// Mann–Kendall significance level (ignored by the OLS variant).
    pub alpha: f64,
    /// The exhaustion level the series is extrapolated to.
    pub exhaustion_level: f64,
    /// Direction of exhaustion.
    pub direction: ResourceDirection,
    /// Alarm when the estimated time to exhaustion falls below this many
    /// seconds.
    pub alarm_horizon_secs: f64,
}

impl TrendPredictorConfig {
    /// A default for a depleting resource sampled every `dt` seconds:
    /// 240-sample window, refit every 8 samples, 2-hour alarm horizon,
    /// exhaustion at level 0.
    pub fn depleting(dt: f64) -> Self {
        TrendPredictorConfig {
            sample_period_secs: dt,
            window: 240,
            refit_every: 8,
            alpha: 0.05,
            exhaustion_level: 0.0,
            direction: ResourceDirection::Depleting,
            alarm_horizon_secs: 7200.0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if !(self.sample_period_secs > 0.0 && self.sample_period_secs.is_finite()) {
            return Err(Error::invalid(
                "sample_period_secs",
                "must be finite and positive",
            ));
        }
        if self.window < 16 {
            return Err(Error::invalid("window", "must be at least 16"));
        }
        if self.refit_every == 0 {
            return Err(Error::invalid("refit_every", "must be positive"));
        }
        if !(0.0 < self.alpha && self.alpha < 1.0) {
            return Err(Error::invalid("alpha", "must lie in (0, 1)"));
        }
        if !self.exhaustion_level.is_finite() {
            return Err(Error::invalid("exhaustion_level", "must be finite"));
        }
        if !(self.alarm_horizon_secs > 0.0) {
            return Err(Error::invalid("alarm_horizon_secs", "must be positive"));
        }
        Ok(())
    }
}

/// Shared state of the windowed trend predictors.
#[derive(Debug, Clone)]
struct TrendState {
    config: TrendPredictorConfig,
    buffer: Vec<f64>,
    count: usize,
    eta: Option<f64>,
    alarmed: bool,
}

impl TrendState {
    fn new(config: TrendPredictorConfig) -> Result<Self> {
        config.validate()?;
        Ok(TrendState {
            config,
            buffer: Vec::new(),
            count: 0,
            eta: None,
            alarmed: false,
        })
    }

    fn push_value(&mut self, value: f64) -> Result<bool> {
        if !value.is_finite() {
            return Err(Error::NonFinite { index: self.count });
        }
        self.count += 1;
        self.buffer.push(value);
        let w = self.config.window;
        if self.buffer.len() > w {
            let excess = self.buffer.len() - w;
            self.buffer.drain(..excess);
        }
        Ok(self.buffer.len() == w && self.count.is_multiple_of(self.config.refit_every))
    }

    fn trend_is_toward_exhaustion(&self, slope: f64) -> bool {
        match self.config.direction {
            ResourceDirection::Depleting => slope < 0.0,
            ResourceDirection::Filling => slope > 0.0,
        }
    }

    /// Converts a predicted crossing time (seconds from the window start)
    /// into an ETA from *now* (the window end) and updates alarm state.
    fn update_eta(&mut self, crossing_from_window_start: Option<f64>) -> bool {
        let window_span = (self.buffer.len() - 1) as f64 * self.config.sample_period_secs;
        self.eta = crossing_from_window_start
            .map(|t| (t - window_span).max(0.0))
            .filter(|t| t.is_finite());
        let fire = match self.eta {
            Some(eta) => eta <= self.config.alarm_horizon_secs,
            None => false,
        };
        if fire && !self.alarmed {
            self.alarmed = true;
            return true;
        }
        false
    }

    fn reset(&mut self) {
        self.buffer.clear();
        self.count = 0;
        self.eta = None;
        self.alarmed = false;
    }
}

/// Mann–Kendall + Sen-slope exhaustion predictor (the classical baseline).
#[derive(Debug, Clone)]
pub struct SenSlopePredictor {
    state: TrendState,
}

impl SenSlopePredictor {
    /// Creates the predictor.
    ///
    /// # Errors
    ///
    /// Propagates [`TrendPredictorConfig::validate`] failures.
    pub fn new(config: TrendPredictorConfig) -> Result<Self> {
        Ok(SenSlopePredictor {
            state: TrendState::new(config)?,
        })
    }
}

impl AgingPredictor for SenSlopePredictor {
    fn name(&self) -> &str {
        "mann-kendall-sen"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        if !self.state.push_value(value)? {
            return Ok(false);
        }
        let cfg = &self.state.config;
        let mk = match MannKendall::test(&self.state.buffer) {
            Ok(mk) => mk,
            Err(_) => return Ok(false), // degenerate window (constant)
        };
        let significant = match cfg.direction {
            ResourceDirection::Depleting => mk.direction(cfg.alpha) == TrendDirection::Decreasing,
            ResourceDirection::Filling => mk.direction(cfg.alpha) == TrendDirection::Increasing,
        };
        if !significant {
            self.state.eta = None;
            return Ok(false);
        }
        let sen = match SenSlope::line_with(
            &self.state.buffer,
            cfg.sample_period_secs,
            &mut Vec::new(),
        ) {
            Ok(s) => s,
            Err(_) => return Ok(false),
        };
        if !self.state.trend_is_toward_exhaustion(sen.slope) {
            self.state.eta = None;
            return Ok(false);
        }
        let level = cfg.exhaustion_level;
        let crossing = sen.time_to_level(level);
        Ok(self.state.update_eta(crossing))
    }

    fn is_alarmed(&self) -> bool {
        self.state.alarmed
    }

    fn eta_secs(&self) -> Option<f64> {
        self.state.eta
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

/// Ordinary least-squares exhaustion predictor.
#[derive(Debug, Clone)]
pub struct OlsPredictor {
    state: TrendState,
}

impl OlsPredictor {
    /// Creates the predictor.
    ///
    /// # Errors
    ///
    /// Propagates [`TrendPredictorConfig::validate`] failures.
    pub fn new(config: TrendPredictorConfig) -> Result<Self> {
        Ok(OlsPredictor {
            state: TrendState::new(config)?,
        })
    }
}

impl AgingPredictor for OlsPredictor {
    fn name(&self) -> &str {
        "ols-extrapolation"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        if !self.state.push_value(value)? {
            return Ok(false);
        }
        let cfg = &self.state.config;
        let times: Vec<f64> = (0..self.state.buffer.len())
            .map(|i| i as f64 * cfg.sample_period_secs)
            .collect();
        let fit = match ols(&times, &self.state.buffer) {
            Ok(f) => f,
            Err(_) => return Ok(false),
        };
        if !self.state.trend_is_toward_exhaustion(fit.slope) {
            self.state.eta = None;
            return Ok(false);
        }
        let crossing = fit.solve_for(cfg.exhaustion_level).filter(|&t| t >= 0.0);
        Ok(self.state.update_eta(crossing))
    }

    fn is_alarmed(&self) -> bool {
        self.state.alarmed
    }

    fn eta_secs(&self) -> Option<f64> {
        self.state.eta
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

/// Naive level-crossing predictor: alarms the first time the series
/// crosses the configured level in the exhaustion direction.
#[derive(Debug, Clone)]
pub struct ThresholdPredictor {
    level: f64,
    direction: ResourceDirection,
    count: usize,
    alarmed: bool,
}

impl ThresholdPredictor {
    /// Creates the predictor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-finite level.
    pub fn new(level: f64, direction: ResourceDirection) -> Result<Self> {
        if !level.is_finite() {
            return Err(Error::invalid("level", "must be finite"));
        }
        Ok(ThresholdPredictor {
            level,
            direction,
            count: 0,
            alarmed: false,
        })
    }
}

impl AgingPredictor for ThresholdPredictor {
    fn name(&self) -> &str {
        "threshold"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        if !value.is_finite() {
            return Err(Error::NonFinite { index: self.count });
        }
        self.count += 1;
        if self.alarmed {
            return Ok(false);
        }
        let crossed = match self.direction {
            ResourceDirection::Depleting => value <= self.level,
            ResourceDirection::Filling => value >= self.level,
        };
        if crossed {
            self.alarmed = true;
            return Ok(true);
        }
        Ok(false)
    }

    fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    fn eta_secs(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self) {
        self.count = 0;
        self.alarmed = false;
    }
}

/// CUSUM change-point predictor: alarms on the first mean shift in the
/// exhaustion direction (a classical statistical-process-control baseline,
/// sensitive to level shifts rather than trends).
#[derive(Debug, Clone)]
pub struct CusumPredictor {
    inner: aging_timeseries::changepoint::Cusum,
    direction: ResourceDirection,
    alarmed: bool,
}

impl CusumPredictor {
    /// Creates the predictor.
    ///
    /// # Errors
    ///
    /// Propagates CUSUM configuration failures.
    pub fn new(
        config: aging_timeseries::changepoint::CusumConfig,
        direction: ResourceDirection,
    ) -> Result<Self> {
        Ok(CusumPredictor {
            inner: aging_timeseries::changepoint::Cusum::new(config)?,
            direction,
            alarmed: false,
        })
    }
}

impl AgingPredictor for CusumPredictor {
    fn name(&self) -> &str {
        "cusum"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        // A constant reference window (e.g. swap pinned at zero) is not an
        // input error at this level — it just means no shift baseline yet.
        let cp = match self.inner.push(value) {
            Ok(cp) => cp,
            Err(Error::Numerical(_)) => None,
            Err(e) => return Err(e),
        };
        if self.alarmed {
            return Ok(false);
        }
        use aging_timeseries::changepoint::ShiftDirection;
        let fire = matches!(
            (cp, self.direction),
            (
                Some(aging_timeseries::changepoint::ChangePoint {
                    direction: ShiftDirection::Down,
                    ..
                }),
                ResourceDirection::Depleting
            ) | (
                Some(aging_timeseries::changepoint::ChangePoint {
                    direction: ShiftDirection::Up,
                    ..
                }),
                ResourceDirection::Filling
            )
        );
        if fire {
            self.alarmed = true;
            return Ok(true);
        }
        Ok(false)
    }

    fn is_alarmed(&self) -> bool {
        self.alarmed
    }

    fn eta_secs(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.alarmed = false;
    }
}

impl AgingPredictor for HolderDimensionDetector {
    fn name(&self) -> &str {
        "holder-dimension"
    }

    fn push(&mut self, value: f64) -> Result<bool> {
        let alert = HolderDimensionDetector::push(self, value)?;
        Ok(matches!(
            alert,
            Some(a) if a.level == crate::detector::AlertLevel::Alarm
        ))
    }

    fn is_alarmed(&self) -> bool {
        HolderDimensionDetector::is_alarmed(self)
    }

    fn eta_secs(&self) -> Option<f64> {
        None
    }

    fn reset(&mut self) {
        HolderDimensionDetector::reset(self);
    }
}

/// Builds the standard predictor set used by the comparison experiments
/// (E4): Hölder-dimension detector, Mann–Kendall/Sen, OLS, threshold.
///
/// `dt` is the sampling period; `capacity` the resource's full level
/// (e.g. RAM bytes for available-memory monitoring).
///
/// # Errors
///
/// Propagates individual constructor failures.
pub fn standard_predictors(
    dt: f64,
    capacity: f64,
    detector: DetectorConfig,
) -> Result<Vec<Box<dyn AgingPredictor>>> {
    let trend = TrendPredictorConfig {
        sample_period_secs: dt,
        exhaustion_level: 0.02 * capacity,
        ..TrendPredictorConfig::depleting(dt)
    };
    Ok(vec![
        Box::new(HolderDimensionDetector::new(detector)?),
        Box::new(SenSlopePredictor::new(trend.clone())?),
        Box::new(OlsPredictor::new(trend)?),
        Box::new(ThresholdPredictor::new(
            0.05 * capacity,
            ResourceDirection::Depleting,
        )?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depleting_config() -> TrendPredictorConfig {
        TrendPredictorConfig {
            sample_period_secs: 30.0,
            window: 60,
            refit_every: 4,
            alpha: 0.05,
            exhaustion_level: 0.0,
            direction: ResourceDirection::Depleting,
            alarm_horizon_secs: 3600.0,
        }
    }

    /// Free-memory-like ramp: from `start` falling `rate` per sample with
    /// deterministic wiggle.
    fn falling_ramp(n: usize, start: f64, rate: f64) -> Vec<f64> {
        (0..n)
            .map(|i| start - rate * i as f64 + 50.0 * ((i as f64 * 0.7).sin()))
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(depleting_config().validate().is_ok());
        let bad = |f: fn(&mut TrendPredictorConfig)| {
            let mut c = depleting_config();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.sample_period_secs = 0.0));
        assert!(bad(|c| c.window = 4));
        assert!(bad(|c| c.refit_every = 0));
        assert!(bad(|c| c.alpha = 1.5));
        assert!(bad(|c| c.exhaustion_level = f64::NAN));
        assert!(bad(|c| c.alarm_horizon_secs = 0.0));
    }

    #[test]
    fn sen_predictor_alarms_on_clean_depletion() {
        // 10 000 units, −10/sample at 30 s ⇒ exhaustion after 1000 samples
        // = 30 000 s. Horizon 3600 s: alarm ≈ sample 880.
        let series = falling_ramp(1000, 10_000.0, 10.0);
        let mut p = SenSlopePredictor::new(depleting_config()).unwrap();
        let mut fired_at = None;
        for (i, &v) in series.iter().enumerate() {
            if p.push(v).unwrap() {
                fired_at = Some(i);
                break;
            }
        }
        let fired = fired_at.expect("must alarm");
        assert!((850..=930).contains(&fired), "fired at {fired}");
        assert!(p.is_alarmed());
        let eta = p.eta_secs().expect("eta available");
        assert!(eta <= 3600.0);
    }

    #[test]
    fn ols_predictor_alarms_on_clean_depletion() {
        let series = falling_ramp(1000, 10_000.0, 10.0);
        let mut p = OlsPredictor::new(depleting_config()).unwrap();
        let mut fired_at = None;
        for (i, &v) in series.iter().enumerate() {
            if p.push(v).unwrap() {
                fired_at = Some(i);
                break;
            }
        }
        let fired = fired_at.expect("must alarm");
        assert!((850..=930).contains(&fired), "fired at {fired}");
    }

    #[test]
    fn trend_predictors_silent_on_stationary_series() {
        let series: Vec<f64> = (0..2000)
            .map(|i| 5000.0 + 100.0 * ((i as f64) * 0.37).sin())
            .collect();
        let mut sen = SenSlopePredictor::new(depleting_config()).unwrap();
        let mut lsq = OlsPredictor::new(depleting_config()).unwrap();
        for &v in &series {
            assert!(!sen.push(v).unwrap());
            assert!(!lsq.push(v).unwrap());
        }
        assert!(!sen.is_alarmed());
        assert!(!lsq.is_alarmed());
    }

    #[test]
    fn sen_is_robust_to_spikes_where_ols_is_not() {
        // A strong downward trend with huge upward spikes: Sen's slope
        // still sees depletion; OLS slope is dragged around. We only
        // assert Sen still alarms.
        let mut series = falling_ramp(1000, 10_000.0, 10.0);
        for i in (0..series.len()).step_by(37) {
            series[i] += 20_000.0;
        }
        let mut sen = SenSlopePredictor::new(depleting_config()).unwrap();
        let mut fired = false;
        for &v in &series {
            if sen.push(v).unwrap() {
                fired = true;
            }
        }
        assert!(fired, "Sen must alarm despite spikes");
    }

    #[test]
    fn filling_direction_works() {
        let config = TrendPredictorConfig {
            direction: ResourceDirection::Filling,
            exhaustion_level: 10_000.0,
            ..depleting_config()
        };
        let series: Vec<f64> = (0..1000)
            .map(|i| 10.0 * i as f64 + 30.0 * ((i as f64).cos()))
            .collect();
        let mut p = SenSlopePredictor::new(config).unwrap();
        let mut fired = false;
        for &v in &series {
            if p.push(v).unwrap() {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn threshold_predictor_crossings() {
        let mut p = ThresholdPredictor::new(100.0, ResourceDirection::Depleting).unwrap();
        assert!(!p.push(500.0).unwrap());
        assert!(p.push(99.0).unwrap());
        assert!(p.is_alarmed());
        // Latched: no second firing.
        assert!(!p.push(5.0).unwrap());
        p.reset();
        assert!(!p.is_alarmed());

        let mut f = ThresholdPredictor::new(100.0, ResourceDirection::Filling).unwrap();
        assert!(!f.push(50.0).unwrap());
        assert!(f.push(150.0).unwrap());
        assert!(ThresholdPredictor::new(f64::NAN, ResourceDirection::Filling).is_err());
    }

    #[test]
    fn predictors_reject_nan() {
        let mut sen = SenSlopePredictor::new(depleting_config()).unwrap();
        assert!(sen.push(f64::NAN).is_err());
        let mut thr = ThresholdPredictor::new(0.0, ResourceDirection::Depleting).unwrap();
        assert!(thr.push(f64::INFINITY).is_err());
    }

    #[test]
    fn reset_clears_state() {
        let series = falling_ramp(1000, 10_000.0, 10.0);
        let mut p = SenSlopePredictor::new(depleting_config()).unwrap();
        for &v in &series {
            let _ = p.push(v).unwrap();
        }
        assert!(p.is_alarmed());
        p.reset();
        assert!(!p.is_alarmed());
        assert_eq!(p.eta_secs(), None);
        // Works again after reset.
        for &v in &series[..100] {
            let _ = p.push(v).unwrap();
        }
    }

    #[test]
    fn cusum_predictor_fires_on_level_shift() {
        let mut p = CusumPredictor::new(
            aging_timeseries::changepoint::CusumConfig::default(),
            ResourceDirection::Depleting,
        )
        .unwrap();
        let mut fired = false;
        for i in 0..400 {
            let level = if i < 250 { 100.0 } else { 80.0 };
            let v = level + ((i * 37 + 11) % 13) as f64 / 13.0;
            fired |= p.push(v).unwrap();
        }
        assert!(fired);
        assert!(p.is_alarmed());
        p.reset();
        assert!(!p.is_alarmed());
    }

    #[test]
    fn cusum_predictor_ignores_wrong_direction_shift() {
        let mut p = CusumPredictor::new(
            aging_timeseries::changepoint::CusumConfig::default(),
            ResourceDirection::Depleting,
        )
        .unwrap();
        for i in 0..400 {
            let level = if i < 250 { 100.0 } else { 130.0 }; // upward
            let v = level + ((i * 37 + 11) % 13) as f64 / 13.0;
            assert!(!p.push(v).unwrap());
        }
        assert!(!p.is_alarmed());
    }

    #[test]
    fn cusum_predictor_tolerates_constant_reference() {
        let mut p = CusumPredictor::new(
            aging_timeseries::changepoint::CusumConfig::default(),
            ResourceDirection::Filling,
        )
        .unwrap();
        // Swap pinned at zero: constant reference must not be an error.
        for _ in 0..300 {
            assert!(!p.push(0.0).unwrap());
        }
    }

    #[test]
    fn standard_predictor_set_builds() {
        let set = standard_predictors(30.0, 2.68e8, DetectorConfig::default()).unwrap();
        assert_eq!(set.len(), 4);
        let names: Vec<&str> = set.iter().map(|p| p.name()).collect();
        assert!(names.contains(&"holder-dimension"));
        assert!(names.contains(&"mann-kendall-sen"));
        assert!(names.contains(&"ols-extrapolation"));
        assert!(names.contains(&"threshold"));
    }

    #[test]
    fn detector_adapts_to_predictor_trait() {
        let mut det = HolderDimensionDetector::new(DetectorConfig::default()).unwrap();
        let p: &mut dyn AgingPredictor = &mut det;
        assert_eq!(p.name(), "holder-dimension");
        assert!(!p.push(1.0).unwrap());
        assert_eq!(p.eta_secs(), None);
        p.reset();
    }
}
