//! Non-parametric monotone-trend inference: the Mann–Kendall test and Sen's
//! slope estimator.
//!
//! These are the classical tools of measurement-based software-aging
//! analysis (Garg et al. 1998; Vaidyanathan & Trivedi 1998): detect whether a
//! resource series trends monotonically, estimate the depletion rate
//! robustly, and extrapolate a time to exhaustion. They serve as the
//! baseline the multifractal detector of the target paper is compared
//! against.

use crate::error::{Error, Result};
use crate::ring::RingBuffer;

/// Direction of a detected monotone trend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrendDirection {
    /// Statistically significant increasing trend.
    Increasing,
    /// Statistically significant decreasing trend.
    Decreasing,
    /// No significant monotone trend at the requested level.
    None,
}

impl std::fmt::Display for TrendDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrendDirection::Increasing => "increasing",
            TrendDirection::Decreasing => "decreasing",
            TrendDirection::None => "none",
        };
        f.write_str(s)
    }
}

/// Result of a Mann–Kendall trend test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannKendall {
    /// The Mann–Kendall S statistic: the number of concordant minus
    /// discordant pairs.
    pub s: i64,
    /// Variance of S under the null hypothesis (tie-corrected).
    pub var_s: f64,
    /// Standardised statistic (continuity-corrected).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
    /// Kendall's tau: `S` normalised by the number of pairs.
    pub tau: f64,
}

impl MannKendall {
    /// Performs the Mann–Kendall test on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] with fewer than four samples (the normal
    /// approximation is meaningless below that) and [`Error::NonFinite`]
    /// for NaN/infinite input.
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_timeseries::trend::MannKendall;
    ///
    /// # fn main() -> Result<(), aging_timeseries::Error> {
    /// let rising: Vec<f64> = (0..40).map(|i| i as f64).collect();
    /// let mk = MannKendall::test(&rising)?;
    /// assert!(mk.p_value < 0.001);
    /// assert!(mk.s > 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn test(data: &[f64]) -> Result<Self> {
        Error::require_len(data, 4)?;
        Error::require_finite(data)?;
        let n = data.len();

        let mut s: i64 = 0;
        for i in 0..n - 1 {
            for j in i + 1..n {
                let d = data[j] - data[i];
                if d > 0.0 {
                    s += 1;
                } else if d < 0.0 {
                    s -= 1;
                }
            }
        }

        // Tie correction: group sizes of equal values.
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let mut tie_term = 0.0;
        let mut run = 1usize;
        for i in 1..=n {
            if i < n && sorted[i] == sorted[i - 1] {
                run += 1;
            } else {
                if run > 1 {
                    let t = run as f64;
                    tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
                }
                run = 1;
            }
        }
        let nf = n as f64;
        let var_s = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;

        let z = if var_s <= 0.0 {
            0.0
        } else if s > 0 {
            (s as f64 - 1.0) / var_s.sqrt()
        } else if s < 0 {
            (s as f64 + 1.0) / var_s.sqrt()
        } else {
            0.0
        };
        let p_value = 2.0 * normal_sf(z.abs());
        let pairs = (n * (n - 1) / 2) as f64;
        Ok(MannKendall {
            s,
            var_s,
            z,
            p_value,
            tau: s as f64 / pairs,
        })
    }

    /// Classifies the trend at significance level `alpha` (e.g. `0.05`).
    pub fn direction(&self, alpha: f64) -> TrendDirection {
        if self.p_value < alpha {
            if self.s > 0 {
                TrendDirection::Increasing
            } else {
                TrendDirection::Decreasing
            }
        } else {
            TrendDirection::None
        }
    }
}

/// Seasonal Mann–Kendall test (Hirsch & Slack): the series is split into
/// `period` interleaved sub-series (e.g. hour-of-day buckets for diurnal
/// data) and the per-season S statistics and variances are summed, so a
/// periodic cycle does not masquerade as a monotone trend.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `period < 2`, and
/// [`Error::TooShort`] unless every season holds at least four samples.
///
/// # Examples
///
/// ```
/// use aging_timeseries::trend::{seasonal_mann_kendall, TrendDirection};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// // A pure daily cycle sampled 24×: no trend once deseasonalised.
/// let data: Vec<f64> = (0..240)
///     .map(|i| (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin())
///     .collect();
/// let mk = seasonal_mann_kendall(&data, 24)?;
/// assert_eq!(mk.direction(0.05), TrendDirection::None);
/// # Ok(())
/// # }
/// ```
pub fn seasonal_mann_kendall(data: &[f64], period: usize) -> Result<MannKendall> {
    if period < 2 {
        return Err(Error::invalid("period", "must be at least 2"));
    }
    Error::require_len(data, 4 * period)?;
    Error::require_finite(data)?;

    let mut s_total: i64 = 0;
    let mut var_total = 0.0;
    let mut pairs_total = 0.0;
    for season in 0..period {
        let sub: Vec<f64> = data.iter().skip(season).step_by(period).copied().collect();
        if sub.len() < 4 {
            return Err(Error::TooShort {
                required: 4 * period,
                actual: data.len(),
            });
        }
        let mk = MannKendall::test(&sub)?;
        s_total += mk.s;
        var_total += mk.var_s;
        pairs_total += (sub.len() * (sub.len() - 1) / 2) as f64;
    }
    let z = if var_total <= 0.0 {
        0.0
    } else if s_total > 0 {
        (s_total as f64 - 1.0) / var_total.sqrt()
    } else if s_total < 0 {
        (s_total as f64 + 1.0) / var_total.sqrt()
    } else {
        0.0
    };
    Ok(MannKendall {
        s: s_total,
        var_s: var_total,
        z,
        p_value: 2.0 * normal_sf(z.abs()),
        tau: s_total as f64 / pairs_total,
    })
}

/// Sen's slope estimate (median of pairwise slopes) for a uniformly sampled
/// series, expressed **per unit time** given the sampling period `dt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenSlope {
    /// Median pairwise slope, per unit time.
    pub slope: f64,
    /// Intercept `median(x) - slope * median(t)` anchored at the first
    /// sample's time 0.
    pub intercept: f64,
    /// Lower bound of an approximate 95 % confidence interval on the slope.
    pub lower_95: f64,
    /// Upper bound of an approximate 95 % confidence interval on the slope.
    pub upper_95: f64,
}

/// The fitted Sen line alone — slope and intercept, no confidence
/// interval. This is all an exhaustion extrapolation reads, and it skips
/// the two selections the interval bounds cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenLine {
    /// Median pairwise slope, per unit time.
    pub slope: f64,
    /// Intercept `median(x) - slope * median(t)` anchored at the first
    /// sample's time 0.
    pub intercept: f64,
}

impl SenLine {
    /// Predicted level at time `t` (measured from the first sample).
    pub fn predict(&self, t: f64) -> f64 {
        self.intercept + self.slope * t
    }

    /// Time (from the first sample) at which the fitted line crosses
    /// `level`, or `None` when the slope is zero or the crossing lies in the
    /// past.
    pub fn time_to_level(&self, level: f64) -> Option<f64> {
        if self.slope.abs() <= f64::EPSILON {
            return None;
        }
        let t = (level - self.intercept) / self.slope;
        if t.is_finite() && t >= 0.0 {
            Some(t)
        } else {
            None
        }
    }
}

/// Pair count from which the Sen selections bracket their ranks with a
/// pilot sample first; below it a plain selection is cheaper.
const BRACKET_MIN_PAIRS: usize = 4096;

/// Slopes in the deterministic strided pilot sample that places the
/// bracket.
const PILOT: usize = 256;

/// Pilot positions the bracket extends beyond the wanted ranks' pilot
/// quantiles on each side. Near the median, a pilot order statistic's
/// rank in the whole population spreads by about `m / (2·√PILOT)`, which
/// is `√PILOT / 2` = 8 pilot positions; 20 is two and a half of those. On
/// 120-sample windows with a significant decline this keeps about a sixth
/// of the slopes for a line fit; it missed 1 of 3758 such windows drawn
/// from simulated counters and noisy synthetic trends (none of the 870
/// simulated ones).
const PILOT_MARGIN: usize = 20;

impl SenSlope {
    /// Estimates Sen's slope of `data` sampled every `dt` time units.
    ///
    /// Uses all `O(n²)` pairs up to 1500 samples, a deterministic strided
    /// subsample beyond.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] with fewer than two samples,
    /// [`Error::InvalidParameter`] for non-positive `dt`, and
    /// [`Error::NonFinite`] for NaN/infinite input.
    pub fn estimate(data: &[f64], dt: f64) -> Result<Self> {
        SenSlope::estimate_with(data, dt, &mut Vec::new())
    }

    /// [`SenSlope::estimate`] with a caller-owned scratch buffer for the
    /// pairwise slopes — the allocation-free form refit loops call.
    ///
    /// Only order statistics are needed, so nothing is sorted: the median
    /// slope, both confidence bounds and the data median are *selected*
    /// (an order statistic is a property of the multiset, so the values
    /// equal a full sort's). Above a few thousand pairs a strided pilot
    /// sample first brackets the wanted ranks and one pass keeps only the
    /// slopes inside the bracket for the selections; when the pilot
    /// misjudges, the slopes are regenerated and selected unbracketed.
    /// Results are bit-identical to [`SenSlope::estimate`]. Callers that
    /// need only the line use the cheaper [`SenSlope::line_with`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SenSlope::estimate`].
    pub fn estimate_with(data: &[f64], dt: f64, slopes: &mut Vec<f64>) -> Result<Self> {
        let (stride, m) = sen_pairs(data, dt)?;
        // Normal-approximation confidence interval on the rank of the slope
        // (Gilbert 1987). With subsampling this is approximate.
        let nf = data.len() as f64;
        let var_s = nf * (nf - 1.0) * (2.0 * nf + 5.0) / 18.0;
        let c = 1.96 * var_s.sqrt();
        let lo_rank = (((m as f64 - c) / 2.0).floor().max(0.0)) as usize;
        let hi_rank = ((((m as f64 + c) / 2.0).ceil()) as usize).min(m - 1);

        let mut picked = [0.0f64; 4];
        let ranks = [lo_rank, (m - 1) / 2, m / 2, hi_rank];
        select_slopes(data, dt, stride, slopes, &ranks, &mut picked);
        let line = sen_line(data, dt, m, [picked[1], picked[2]], slopes);
        Ok(SenSlope {
            slope: line.slope,
            intercept: line.intercept,
            lower_95: picked[0],
            upper_95: picked[3],
        })
    }

    /// Sen's line (slope and intercept, no confidence interval) of `data`
    /// sampled every `dt` time units, with a caller-owned scratch buffer.
    ///
    /// Selects only the median rank(s), so it is cheaper than
    /// [`SenSlope::estimate_with`]; its slope and intercept are
    /// bit-identical to that method's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SenSlope::estimate`].
    pub fn line_with(data: &[f64], dt: f64, slopes: &mut Vec<f64>) -> Result<SenLine> {
        let (stride, m) = sen_pairs(data, dt)?;
        let mut picked = [0.0f64; 2];
        select_slopes(data, dt, stride, slopes, &[(m - 1) / 2, m / 2], &mut picked);
        Ok(sen_line(data, dt, m, picked, slopes))
    }

    fn line(&self) -> SenLine {
        SenLine {
            slope: self.slope,
            intercept: self.intercept,
        }
    }

    /// Predicted level at time `t` (measured from the first sample).
    pub fn predict(&self, t: f64) -> f64 {
        self.line().predict(t)
    }

    /// Time (from the first sample) at which the fitted line crosses
    /// `level`, or `None` when the slope is zero or the crossing lies in the
    /// past.
    pub fn time_to_level(&self, level: f64) -> Option<f64> {
        self.line().time_to_level(level)
    }
}

/// Validates Sen input and returns the sample stride (1 up to
/// [`crate::regression::THEIL_SEN_EXACT_LIMIT`] samples) and the number
/// of slopes that stride yields.
fn sen_pairs(data: &[f64], dt: f64) -> Result<(usize, usize)> {
    Error::require_len(data, 2)?;
    Error::require_finite(data)?;
    if !dt.is_finite() || dt <= 0.0 {
        return Err(Error::invalid("dt", "must be finite and positive"));
    }
    let n = data.len();
    let stride = if n > crate::regression::THEIL_SEN_EXACT_LIMIT {
        n / crate::regression::THEIL_SEN_EXACT_LIMIT + 1
    } else {
        1
    };
    let points = n.div_ceil(stride);
    Ok((stride, points * (points - 1) / 2))
}

/// The Sen line from the median-rank slopes `mid` (ranks `(m-1)/2` and
/// `m/2` of `m`); `scratch` is clobbered by the data-median selection.
///
/// The time axis 0·dt, 1·dt, … is already sorted, so its type-7 median is
/// closed-form; the data median is two selections. Both replicate
/// [`crate::stats::quantile`]'s arithmetic exactly, keeping the intercept
/// bit-identical to a sort-based fit.
fn sen_line(data: &[f64], dt: f64, m: usize, mid: [f64; 2], scratch: &mut Vec<f64>) -> SenLine {
    let slope = if m % 2 == 1 {
        mid[1]
    } else {
        0.5 * (mid[0] + mid[1])
    };
    let n = data.len();
    let pos = 0.5 * (n - 1) as f64;
    let t_lo = pos.floor() as usize;
    let t_hi = pos.ceil() as usize;
    let frac = pos - t_lo as f64;
    let time_median = (t_lo as f64 * dt) * (1.0 - frac) + (t_hi as f64 * dt) * frac;
    scratch.clear();
    scratch.extend_from_slice(data);
    let mut med = [0.0f64; 2];
    select_ranks(scratch, &[t_lo, t_hi], 0, &mut med);
    let data_median = med[0] * (1.0 - frac) + med[1] * frac;
    SenLine {
        slope,
        intercept: data_median - slope * time_median,
    }
}

/// Writes the pairwise slopes of every `stride`-th sample of `data` to
/// `slopes` (cleared first), row-major: each sample against every later
/// one. Each slope is `(x_j - x_i) / ((j - i)·dt)` with the lag's divisor
/// in exactly that form, so every slope has the bits of the textbook
/// double loop.
fn pairwise_slopes(data: &[f64], dt: f64, stride: usize, slopes: &mut Vec<f64>) {
    slopes.clear();
    for (i, &xi) in data.iter().enumerate().step_by(stride) {
        if stride == 1 {
            // Contiguous rows: an exact-length extend, about 3× faster
            // than the strided walk below on 120-sample windows.
            let row = data[i + 1..].iter().enumerate();
            slopes.extend(row.map(|(k, &xj)| (xj - xi) / ((k + 1) as f64 * dt)));
        } else {
            let row = data[i..].iter().step_by(stride).enumerate().skip(1);
            slopes.extend(row.map(|(k, &xj)| (xj - xi) / ((k * stride) as f64 * dt)));
        }
    }
}

/// Selects the ascending `ranks` of the pairwise slopes of `data` into
/// `out` — the one slope selection both Sen fits share.
///
/// Small populations are selected directly. From [`BRACKET_MIN_PAIRS`] on,
/// [`bracket`] first narrows `slopes` to the ones around the wanted ranks;
/// on a miss the slopes are generated again and selected unbracketed.
/// Either way each `out` value is the slope population's order statistic.
fn select_slopes(
    data: &[f64],
    dt: f64,
    stride: usize,
    slopes: &mut Vec<f64>,
    ranks: &[usize],
    out: &mut [f64],
) {
    pairwise_slopes(data, dt, stride, slopes);
    let (first, last) = (ranks[0], ranks[ranks.len() - 1]);
    if slopes.len() >= BRACKET_MIN_PAIRS {
        if let Some(below) = bracket(slopes, first, last) {
            select_ranks(slopes, ranks, below, out);
            return;
        }
        pairwise_slopes(data, dt, stride, slopes);
    }
    select_ranks(slopes, ranks, 0, out);
}

/// Narrows `values` to a value range holding its order statistics of
/// ranks `first..=last`, using a strided pilot sample to place the range.
///
/// One branchless pass counts the values below the range and compacts
/// the ones inside it to the front, then truncates `values` to them.
/// Returns the count below — the rank offset of the kept values — or
/// `None` when the range misses `first` or `last` (`values` is then
/// clobbered and must be regenerated).
///
/// The range is closed, so the kept values are one contiguous run of a
/// [`f64::total_cmp`] sort of `values` (`-0.0` and `0.0` fall on the same
/// side of every bound) and a selection inside them at rank `r - below`
/// is the whole population's rank `r`.
fn bracket(values: &mut Vec<f64>, first: usize, last: usize) -> Option<usize> {
    let m = values.len();
    let mut pilot = [0.0f64; PILOT];
    for (p, x) in pilot.iter_mut().enumerate() {
        *x = values[p * m / PILOT];
    }
    let p_first = (first * PILOT / m).saturating_sub(PILOT_MARGIN);
    let p_last = (last * PILOT / m + PILOT_MARGIN).min(PILOT - 1);
    let mut edges = [0.0f64; 2];
    select_ranks(&mut pilot, &[p_first, p_last], 0, &mut edges);
    let [lo, hi] = edges;

    let mut below = 0usize;
    let mut kept = 0usize;
    for r in 0..m {
        let x = values[r];
        below += usize::from(x < lo);
        values[kept] = x;
        kept += usize::from((x >= lo) & (x <= hi));
    }
    values.truncate(kept);
    (below <= first && last < below + kept).then_some(below)
}

/// Selects the ascending `ranks`, each offset by `offset`, of `values`
/// into `out` (`out[i]` is the value of rank `ranks[i] - offset`) under
/// [`f64::total_cmp`], which compares integer total-order keys. On finite
/// values that order agrees with `partial_cmp` except that it puts `-0.0`
/// below `0.0` (a tie `partial_cmp` leaves to chance), so each value equals
/// a sort's. Each selection partitions only the part above the previous
/// rank; a repeated rank is copied, not selected again.
fn select_ranks(values: &mut [f64], ranks: &[usize], offset: usize, out: &mut [f64]) {
    let mut base = 0;
    for (slot, &rank) in ranks.iter().enumerate() {
        if slot > 0 && rank == ranks[slot - 1] {
            out[slot] = out[slot - 1];
            continue;
        }
        let rank = rank - offset;
        let (_, &mut v, _) = values[base..].select_nth_unstable_by(rank - base, f64::total_cmp);
        out[slot] = v;
        base = rank + 1;
    }
}

/// Windowed-incremental Mann–Kendall test over the trailing `window`
/// samples of a stream.
///
/// The batch [`MannKendall::test`] costs O(n²) sign comparisons. This
/// kernel keeps the trailing window in a [`RingBuffer`] and maintains the
/// S statistic under sliding: evicting the oldest sample removes its
/// comparisons against the surviving window (O(window)), and the incoming
/// sample adds its own (O(window)) — so a stream of length N costs
/// O(N·window) instead of O(N·window²) for a recompute-per-sample loop.
///
/// [`StreamingMannKendall::statistic`] reproduces [`MannKendall::test`] on
/// the current window exactly (same S, ties, variance, z and p).
///
/// # Examples
///
/// ```
/// use aging_timeseries::trend::{MannKendall, StreamingMannKendall};
///
/// # fn main() -> Result<(), aging_timeseries::Error> {
/// let mut mk = StreamingMannKendall::new(32)?;
/// for i in 0..100 {
///     mk.push(i as f64 * 0.5)?;
/// }
/// let streaming = mk.statistic()?;
/// let batch = MannKendall::test(&mk.window())?;
/// assert_eq!(streaming.s, batch.s);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingMannKendall {
    ring: RingBuffer,
    s: i64,
    // Number of tied pairs in the window, maintained by the same scans as
    // `s`; `None` after `restore_state` until a statistic recounts it.
    // Transient: not part of `encode_state`.
    ties: Option<u64>,
}

impl StreamingMannKendall {
    /// Creates a kernel over a trailing window of `window` samples.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `window < 4` (the normal
    /// approximation needs at least four samples).
    pub fn new(window: usize) -> Result<Self> {
        if window < 4 {
            return Err(Error::invalid("window", "must be at least 4"));
        }
        Ok(StreamingMannKendall {
            ring: RingBuffer::new(window)?,
            s: 0,
            ties: Some(0),
        })
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether the window has filled (the statistic now covers exactly
    /// `window` samples).
    pub fn is_full(&self) -> bool {
        self.ring.is_full()
    }

    /// The current window, oldest first.
    pub fn window(&self) -> Vec<f64> {
        self.ring.to_vec()
    }

    /// Feeds one sample, sliding the window if full.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] for NaN/infinite input.
    pub fn push(&mut self, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(Error::NonFinite {
                index: self.ring.pushed() as usize,
            });
        }
        let mut ties = 0;
        if self.ring.is_full() {
            // The evictee is the oldest element: every pair it belongs to
            // has it on the earlier side. For finite values `x - oldest > 0`
            // iff `x > oldest` (IEEE-754 subtraction with gradual underflow
            // preserves sign and is zero only on exact equality), so the
            // scan counts with comparisons directly — a branch-free kernel
            // the compiler can vectorize over both ring slices.
            let oldest = self.ring.get(0).expect("full ring");
            let (front, tail) = self.ring.as_slices();
            let (s_front, t_front) = sign_count(oldest, &front[1..]);
            let (s_tail, t_tail) = sign_count(oldest, tail);
            self.s -= s_front + s_tail;
            ties -= t_front + t_tail;
        }
        // The incoming sample compares against every survivor. `front`
        // holds the oldest element, so the eviction skip stays in-bounds.
        let skip = usize::from(self.ring.is_full());
        let (front, tail) = self.ring.as_slices();
        let (s_front, t_front) = sign_count(value, &front[skip..]);
        let (s_tail, t_tail) = sign_count(value, tail);
        self.s -= s_front + s_tail;
        ties += t_front + t_tail;
        if let Some(t) = &mut self.ties {
            *t = t.wrapping_add_signed(ties);
        }
        self.ring.push(value);
        Ok(())
    }

    /// Feeds a column of samples, sliding the window as needed; results are
    /// bit-identical to calling [`StreamingMannKendall::push`] per element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFinite`] at the first NaN/infinite input;
    /// samples before the offending one remain pushed, exactly as a
    /// caller-side loop would leave them.
    pub fn push_slice(&mut self, values: &[f64]) -> Result<()> {
        for &value in values {
            self.push(value)?;
        }
        Ok(())
    }

    /// The maintained S statistic (sum of pairwise signs in the window).
    pub fn s(&self) -> i64 {
        self.s
    }

    /// Serializes the dynamic state (window ring + maintained S) with
    /// [`crate::persist`]; see [`crate::ring::RingBuffer::encode_state`]
    /// for the bit-identity contract.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.ring.encode_state(out);
        crate::persist::put_i64(out, self.s);
    }

    /// Restores state written by [`StreamingMannKendall::encode_state`]
    /// into a kernel constructed with the same window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on truncation or a window
    /// mismatch.
    ///
    /// The tied-pair count is not part of the state; the next
    /// [`StreamingMannKendall::statistic_with`] recounts it.
    pub fn restore_state(&mut self, r: &mut crate::persist::Reader<'_>) -> Result<()> {
        self.ring.restore_state(r)?;
        self.s = r.i64()?;
        self.ties = None;
        Ok(())
    }

    /// The full Mann–Kendall statistic of the current window, identical to
    /// running [`MannKendall::test`] on [`StreamingMannKendall::window`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooShort`] while the window holds fewer than four
    /// samples.
    pub fn statistic(&self) -> Result<MannKendall> {
        self.mann_kendall(&mut Vec::new()).map(|(mk, _)| mk)
    }

    /// [`StreamingMannKendall::statistic`] with a caller-owned scratch
    /// buffer for the tie bookkeeping — the allocation-free form for refit
    /// loops. Results are bit-identical to `statistic`.
    ///
    /// The sliding scans count tied pairs alongside S, so a window without
    /// ties (the common case for raw memory counters) takes the closed-form
    /// variance with no copy or sort. A window with ties, or one whose tie
    /// count is unknown after [`StreamingMannKendall::restore_state`],
    /// pays one O(window log window) sort, which also (re)learns the
    /// count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMannKendall::statistic`].
    pub fn statistic_with(&mut self, scratch: &mut Vec<f64>) -> Result<MannKendall> {
        let (mk, ties) = self.mann_kendall(scratch)?;
        debug_assert!(self.ties.is_none_or(|t| t == ties), "tie count drifted");
        self.ties = Some(ties);
        Ok(mk)
    }

    /// The statistic and the window's tied-pair count.
    fn mann_kendall(&self, scratch: &mut Vec<f64>) -> Result<(MannKendall, u64)> {
        let n = self.ring.len();
        if n < 4 {
            return Err(Error::TooShort {
                required: 4,
                actual: n,
            });
        }
        let mut tie_term = 0.0;
        let mut ties = 0u64;
        if self.ties != Some(0) {
            self.ring.copy_to(scratch);
            let sorted = scratch;
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            let mut run = 1usize;
            for i in 1..=n {
                if i < n && sorted[i] == sorted[i - 1] {
                    run += 1;
                } else {
                    if run > 1 {
                        let t = run as f64;
                        tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
                        ties += (run * (run - 1) / 2) as u64;
                    }
                    run = 1;
                }
            }
        }
        let nf = n as f64;
        let var_s = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;
        let s = self.s;
        let z = if var_s <= 0.0 {
            0.0
        } else if s > 0 {
            (s as f64 - 1.0) / var_s.sqrt()
        } else if s < 0 {
            (s as f64 + 1.0) / var_s.sqrt()
        } else {
            0.0
        };
        let pairs = (n * (n - 1) / 2) as f64;
        let mk = MannKendall {
            s,
            var_s,
            z,
            p_value: 2.0 * normal_sf(z.abs()),
            tau: s as f64 / pairs,
        };
        Ok((mk, ties))
    }

    /// Sen's slope of the current window (O(window²), computed on demand —
    /// call at the detection stride, not per sample).
    ///
    /// # Errors
    ///
    /// Propagates [`SenSlope::estimate`] failures (window too short).
    pub fn sen_slope(&self, dt: f64) -> Result<SenSlope> {
        self.sen_slope_with(dt, &mut Vec::new(), &mut Vec::new())
    }

    /// [`StreamingMannKendall::sen_slope`] with caller-owned scratch
    /// buffers (window copy + pairwise slopes) — the allocation-free form
    /// for refit loops. Results are bit-identical to `sen_slope`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMannKendall::sen_slope`].
    pub fn sen_slope_with(
        &self,
        dt: f64,
        window: &mut Vec<f64>,
        slopes: &mut Vec<f64>,
    ) -> Result<SenSlope> {
        self.ring.copy_to(window);
        SenSlope::estimate_with(window, dt, slopes)
    }

    /// Sen's line of the current window via [`SenSlope::line_with`] — the
    /// refit form for callers that extrapolate and need no confidence
    /// interval. Slope and intercept are bit-identical to
    /// [`StreamingMannKendall::sen_slope_with`]'s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMannKendall::sen_slope`].
    pub fn sen_line_with(
        &self,
        dt: f64,
        window: &mut Vec<f64>,
        slopes: &mut Vec<f64>,
    ) -> Result<SenLine> {
        self.ring.copy_to(window);
        SenSlope::line_with(window, dt, slopes)
    }

    /// Clears the window (e.g. after a reboot); the configured width is
    /// retained.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.s = 0;
        self.ties = Some(0);
    }
}

/// Sum of `sign(x - base)` over `xs`, and the number of `xs` equal to
/// `base`, counted with direct comparisons.
///
/// For finite operands this matches the subtract-then-test form exactly:
/// IEEE-754 subtraction with gradual underflow yields zero only on exact
/// equality and otherwise preserves the sign of the true difference. The
/// branch-free body autovectorizes, which is what makes the streaming
/// Mann–Kendall scans slice-speed.
#[inline]
fn sign_count(base: f64, xs: &[f64]) -> (i64, i64) {
    let mut pos: i64 = 0;
    let mut neg: i64 = 0;
    for &x in xs {
        pos += i64::from(x > base);
        neg += i64::from(x < base);
    }
    (pos - neg, xs.len() as i64 - pos - neg)
}

/// Survival function `P(Z > z)` of the standard normal distribution, via an
/// Abramowitz–Stegun style erfc approximation (max abs error ≈ 1.2e-7).
pub fn normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Complementary error function (numerical approximation, 7-digit accuracy).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(5.0) < 2e-12);
    }

    #[test]
    fn normal_sf_symmetry() {
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_sf(1.96) - 0.025).abs() < 1e-4);
        assert!((normal_sf(-1.96) - 0.975).abs() < 1e-4);
    }

    #[test]
    fn mk_detects_monotone_trends() {
        let up: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mk = MannKendall::test(&up).unwrap();
        assert_eq!(mk.s, (30 * 29 / 2) as i64);
        assert!((mk.tau - 1.0).abs() < 1e-12);
        assert!(mk.p_value < 1e-6);
        assert_eq!(mk.direction(0.05), TrendDirection::Increasing);

        let down: Vec<f64> = (0..30).map(|i| -(i as f64)).collect();
        let mk = MannKendall::test(&down).unwrap();
        assert_eq!(mk.direction(0.05), TrendDirection::Decreasing);
    }

    #[test]
    fn mk_antisymmetric_under_negation() {
        let d = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let neg: Vec<f64> = d.iter().map(|v| -v).collect();
        let a = MannKendall::test(&d).unwrap();
        let b = MannKendall::test(&neg).unwrap();
        assert_eq!(a.s, -b.s);
        assert!((a.p_value - b.p_value).abs() < 1e-12);
    }

    #[test]
    fn mk_no_trend_on_alternating() {
        let d: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mk = MannKendall::test(&d).unwrap();
        assert_eq!(mk.direction(0.05), TrendDirection::None);
    }

    #[test]
    fn mk_tie_correction_reduces_variance() {
        let no_ties: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let with_ties: Vec<f64> = (0..20).map(|i| (i / 4) as f64).collect();
        let a = MannKendall::test(&no_ties).unwrap();
        let b = MannKendall::test(&with_ties).unwrap();
        assert!(b.var_s < a.var_s);
    }

    #[test]
    fn mk_guards() {
        assert!(MannKendall::test(&[1.0, 2.0, 3.0]).is_err());
        assert!(MannKendall::test(&[1.0, f64::NAN, 2.0, 3.0]).is_err());
    }

    #[test]
    fn seasonal_mk_ignores_pure_cycle() {
        // A strong daily cycle fools the plain test but not the seasonal
        // one.
        let data: Vec<f64> = (0..24 * 12)
            .map(|i| {
                (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin() * 100.0
                    + ((i * 7) % 5) as f64 * 0.01
            })
            .collect();
        let seasonal = seasonal_mann_kendall(&data, 24).unwrap();
        assert_eq!(seasonal.direction(0.05), TrendDirection::None);
    }

    #[test]
    fn seasonal_mk_finds_trend_under_cycle() {
        let data: Vec<f64> = (0..24 * 12)
            .map(|i| {
                (2.0 * std::f64::consts::PI * (i % 24) as f64 / 24.0).sin() * 100.0 - 0.5 * i as f64
            })
            .collect();
        let seasonal = seasonal_mann_kendall(&data, 24).unwrap();
        assert_eq!(seasonal.direction(0.05), TrendDirection::Decreasing);
        assert!(seasonal.s < 0);
    }

    #[test]
    fn seasonal_mk_guards() {
        let d: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(seasonal_mann_kendall(&d, 1).is_err());
        assert!(seasonal_mann_kendall(&d[..10], 24).is_err());
        let mut bad = d.clone();
        bad[5] = f64::NAN;
        assert!(seasonal_mann_kendall(&bad, 4).is_err());
    }

    #[test]
    fn seasonal_mk_period_one_season_matches_plain() {
        // With period = 2 and a monotone series both sub-series trend the
        // same way, so the combined verdict matches the plain test.
        let d: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let plain = MannKendall::test(&d).unwrap();
        let seasonal = seasonal_mann_kendall(&d, 2).unwrap();
        assert_eq!(plain.direction(0.01), seasonal.direction(0.01));
    }

    #[test]
    fn sen_slope_exact_on_line() {
        let d: Vec<f64> = (0..25).map(|i| 100.0 - 2.0 * i as f64).collect();
        let sen = SenSlope::estimate(&d, 0.5).unwrap();
        // slope per unit time: -2 per sample / 0.5 s per sample = -4 /s.
        assert!((sen.slope + 4.0).abs() < 1e-12);
        assert!((sen.predict(0.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn sen_slope_robust_to_outliers() {
        let mut d: Vec<f64> = (0..50).map(|i| 10.0 + 0.5 * i as f64).collect();
        d[7] = 1e6;
        d[23] = -1e6;
        let sen = SenSlope::estimate(&d, 1.0).unwrap();
        assert!((sen.slope - 0.5).abs() < 0.05);
    }

    #[test]
    fn sen_confidence_brackets_slope() {
        let d: Vec<f64> = (0..60)
            .map(|i| 5.0 + 0.3 * i as f64 + if i % 3 == 0 { 0.4 } else { -0.2 })
            .collect();
        let sen = SenSlope::estimate(&d, 1.0).unwrap();
        assert!(sen.lower_95 <= sen.slope);
        assert!(sen.slope <= sen.upper_95);
    }

    #[test]
    fn time_to_level_extrapolates() {
        // Free memory falling from 100 at 2 units/s hits 0 at t = 50.
        let d: Vec<f64> = (0..10).map(|i| 100.0 - 2.0 * i as f64).collect();
        let sen = SenSlope::estimate(&d, 1.0).unwrap();
        let t = sen.time_to_level(0.0).unwrap();
        assert!((t - 50.0).abs() < 1e-9);
        // Rising series never reaches a level below its start.
        let up: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let sen_up = SenSlope::estimate(&up, 1.0).unwrap();
        assert_eq!(sen_up.time_to_level(-5.0), None);
    }

    #[test]
    fn sen_guards() {
        assert!(SenSlope::estimate(&[1.0], 1.0).is_err());
        assert!(SenSlope::estimate(&[1.0, 2.0], 0.0).is_err());
        assert!(SenSlope::estimate(&[1.0, f64::NAN], 1.0).is_err());
    }

    #[test]
    fn trend_direction_display() {
        assert_eq!(TrendDirection::Increasing.to_string(), "increasing");
        assert_eq!(TrendDirection::None.to_string(), "none");
    }

    #[test]
    fn streaming_mk_matches_batch_on_sliding_windows() {
        // Deterministic wiggly signal with ties.
        let data: Vec<f64> = (0..200)
            .map(|i| ((i * 13) % 29) as f64 + if i % 7 == 0 { 0.0 } else { 0.5 })
            .collect();
        let mut mk = StreamingMannKendall::new(32).unwrap();
        for (i, &v) in data.iter().enumerate() {
            mk.push(v).unwrap();
            if i + 1 >= 4 {
                let start = (i + 1).saturating_sub(32);
                let batch = MannKendall::test(&data[start..=i]).unwrap();
                let streaming = mk.statistic().unwrap();
                assert_eq!(streaming.s, batch.s, "at sample {i}");
                assert!((streaming.var_s - batch.var_s).abs() < 1e-9);
                assert!((streaming.p_value - batch.p_value).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn streaming_mk_rejects_bad_input() {
        assert!(StreamingMannKendall::new(3).is_err());
        let mut mk = StreamingMannKendall::new(8).unwrap();
        assert!(mk.push(f64::NAN).is_err());
        mk.push(1.0).unwrap();
        assert!(mk.statistic().is_err()); // too short
    }

    /// Reference Sen estimate via a full sort of the slope population —
    /// the pre-selection implementation, kept as the parity oracle.
    fn sen_reference(data: &[f64], dt: f64) -> SenSlope {
        let n = data.len();
        let stride = if n > crate::regression::THEIL_SEN_EXACT_LIMIT {
            n / crate::regression::THEIL_SEN_EXACT_LIMIT + 1
        } else {
            1
        };
        let mut slopes = Vec::new();
        for i in (0..n).step_by(stride) {
            for j in (i + stride..n).step_by(stride) {
                slopes.push((data[j] - data[i]) / ((j - i) as f64 * dt));
            }
        }
        slopes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let m = slopes.len();
        let slope = if m % 2 == 1 {
            slopes[m / 2]
        } else {
            0.5 * (slopes[m / 2 - 1] + slopes[m / 2])
        };
        let nf = n as f64;
        let var_s = nf * (nf - 1.0) * (2.0 * nf + 5.0) / 18.0;
        let c = 1.96 * var_s.sqrt();
        let lo_rank = (((m as f64 - c) / 2.0).floor().max(0.0)) as usize;
        let hi_rank = ((((m as f64 + c) / 2.0).ceil()) as usize).min(m - 1);
        let times: Vec<f64> = (0..n).map(|i| i as f64 * dt).collect();
        SenSlope {
            slope,
            intercept: crate::stats::median(data).unwrap()
                - slope * crate::stats::median(&times).unwrap(),
            lower_95: slopes[lo_rank],
            upper_95: slopes[hi_rank],
        }
    }

    /// Asserts that both Sen fits reproduce the sort-based oracle: bit for
    /// bit, or by `==` when the data holds `-0.0` — which of two equal
    /// `±0.0` order statistics a selection returns was never fixed.
    fn assert_sen_matches_oracle(data: &[f64], dt: f64, label: &str) {
        let want = sen_reference(data, dt);
        let got = SenSlope::estimate(data, dt).unwrap();
        let line = SenSlope::line_with(data, dt, &mut Vec::new()).unwrap();
        let signed_zero = data.iter().any(|v| v.to_bits() == (-0.0f64).to_bits());
        for (name, g, w) in [
            ("slope", got.slope, want.slope),
            ("intercept", got.intercept, want.intercept),
            ("lower_95", got.lower_95, want.lower_95),
            ("upper_95", got.upper_95, want.upper_95),
            ("line slope", line.slope, want.slope),
            ("line intercept", line.intercept, want.intercept),
        ] {
            if signed_zero {
                assert!(g == w, "{label}: {name} {g} != {w}");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{label}: {name} {g} vs {w}");
            }
        }
    }

    #[test]
    fn sen_selection_matches_full_sort_bitwise() {
        // Sizes straddle odd/even pair counts, the bracket threshold
        // (65 samples → 2080 pairs, 121 → 7260) and the strided subsample
        // beyond THEIL_SEN_EXACT_LIMIT (1501 and 2000 samples).
        for n in [2usize, 3, 5, 8, 17, 40, 65, 120, 121, 240, 1501, 2000] {
            let data: Vec<f64> = (0..n as u64)
                .map(|i| ((i.wrapping_mul(48271) % 23) as f64) * 0.5 - (i as f64) * 0.01)
                .collect();
            assert_sen_matches_oracle(&data, 5.0, &format!("wiggle n={n}"));
        }
        for n in [30usize, 121, 240] {
            // Constant data: every slope is zero (maximal ties).
            assert_sen_matches_oracle(&vec![7.25; n], 1.0, &format!("flat n={n}"));
            // A five-value alphabet: heavy ties in the data and the slopes.
            let alphabet: Vec<f64> = (0..n).map(|i| ((i * 7919) % 5) as f64).collect();
            assert_sen_matches_oracle(&alphabet, 2.0, &format!("alphabet n={n}"));
            // Signed zeros among the ties.
            let zeros: Vec<f64> = (0..n)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => (i / 4) as f64,
                    _ => -((i / 8) as f64),
                })
                .collect();
            assert_sen_matches_oracle(&zeros, 1.0, &format!("signed zeros n={n}"));
        }
        // A 27-sample sawtooth over 200 samples is in step with the pilot's
        // stride through the row-major slopes: the pilot misjudges where
        // the median lies, the bracket misses the median ranks, and the
        // line fit takes the regenerate-and-select fallback.
        let data: Vec<f64> = (0..200).map(|i| (i % 27) as f64).collect();
        let mut slopes = Vec::new();
        pairwise_slopes(&data, 5.0, 1, &mut slopes);
        let m = slopes.len();
        assert!(m >= BRACKET_MIN_PAIRS);
        assert_eq!(
            bracket(&mut slopes, (m - 1) / 2, m / 2),
            None,
            "the sawtooth no longer makes the pilot miss; pick a new input"
        );
        assert_sen_matches_oracle(&data, 5.0, "sawtooth");
    }

    #[test]
    fn bracket_accepts_exactly_the_ranks_it_holds() {
        // 4096 values; the pilot reads every 16th. Pilot value p sits at
        // pilot rank p, so the median ranks 2047/2048 put the bracket at
        // [107, 148] (42 pilot values). `below_extra` other values go below
        // it, the rest above, which moves the kept run's population ranks
        // one at a time across both wanted ranks.
        let m = 4096;
        let (first, last) = ((m - 1) / 2, m / 2);
        let build = |below_extra: usize| -> Vec<f64> {
            let mut others = 0usize;
            (0..m)
                .map(|q| {
                    if q % (m / PILOT) == 0 {
                        (q / (m / PILOT)) as f64
                    } else {
                        others += 1;
                        if others <= below_extra {
                            -(others as f64)
                        } else {
                            1000.0 + others as f64
                        }
                    }
                })
                .collect()
        };
        // 107 pilot values lie below the bracket and 42 inside it.
        for (below_extra, holds) in [(1899, false), (1900, true), (1940, true), (1941, false)] {
            let mut values = build(below_extra);
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let got = bracket(&mut values, first, last);
            assert_eq!(got.is_some(), holds, "below_extra={below_extra}");
            if let Some(below) = got {
                assert_eq!(below, 107 + below_extra);
                let mut out = [0.0; 2];
                select_ranks(&mut values, &[first, last], below, &mut out);
                assert_eq!(
                    out,
                    [sorted[first], sorted[last]],
                    "below_extra={below_extra}"
                );
            }
        }
    }

    #[test]
    fn streaming_mk_push_slice_matches_push_bitwise() {
        let data: Vec<f64> = (0..97u64)
            .map(|i| ((i.wrapping_mul(2654435761) % 53) as f64) * 0.25 + (i as f64) * 0.1)
            .collect();
        for chunk in [1usize, 2, 7] {
            let mut looped = StreamingMannKendall::new(12).unwrap();
            let mut sliced = StreamingMannKendall::new(12).unwrap();
            for block in data.chunks(chunk) {
                for &v in block {
                    looped.push(v).unwrap();
                }
                sliced.push_slice(block).unwrap();
                let mut a = Vec::new();
                let mut b = Vec::new();
                looped.encode_state(&mut a);
                sliced.encode_state(&mut b);
                assert_eq!(a, b, "chunk={chunk}");
            }
            let a = looped.statistic().unwrap();
            let b = sliced.statistic_with(&mut Vec::with_capacity(4)).unwrap();
            assert_eq!(a.s, b.s);
            assert_eq!(a.z.to_bits(), b.z.to_bits());
            let sa = looped.sen_slope(5.0).unwrap();
            let sb = sliced
                .sen_slope_with(5.0, &mut Vec::new(), &mut Vec::new())
                .unwrap();
            assert_eq!(sa.slope.to_bits(), sb.slope.to_bits());
            assert_eq!(sa.lower_95.to_bits(), sb.lower_95.to_bits());
        }
    }

    #[test]
    fn streaming_mk_reset_restarts_window() {
        let mut mk = StreamingMannKendall::new(8).unwrap();
        for i in 0..20 {
            mk.push(i as f64).unwrap();
        }
        assert!(mk.s() > 0);
        mk.reset();
        assert_eq!(mk.s(), 0);
        assert!(mk.is_empty());
        for i in 0..8 {
            mk.push(-(i as f64)).unwrap();
        }
        assert!(mk.statistic().unwrap().s < 0);
    }
}
