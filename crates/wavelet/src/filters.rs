//! Orthogonal wavelet filter banks (Haar and the Daubechies family).
//!
//! Filters are stored as the scaling (low-pass) coefficients `h`; the
//! wavelet (high-pass) coefficients `g` follow from the quadrature-mirror
//! relation `g[k] = (-1)^k h[L-1-k]`. All filters are L²-normalised:
//! `Σ h[k] = √2` and `Σ h[k]² = 1`.

use aging_timeseries::{Error, Result};

/// An orthogonal wavelet family usable by the DWT and leader
/// machinery.
///
/// `DaubechiesN` denotes the filter with `N` taps (i.e. `N/2` vanishing
/// moments); `Haar` equals `Daubechies2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Wavelet {
    /// The Haar wavelet (2 taps, 1 vanishing moment).
    Haar,
    /// Daubechies 4-tap filter (2 vanishing moments).
    #[default]
    Daubechies4,
    /// Daubechies 6-tap filter (3 vanishing moments).
    Daubechies6,
    /// Daubechies 8-tap filter (4 vanishing moments).
    Daubechies8,
    /// Daubechies 10-tap filter (5 vanishing moments).
    Daubechies10,
    /// Daubechies 12-tap filter (6 vanishing moments).
    Daubechies12,
}

/// Daubechies 4-tap scaling coefficients, `(1±√3)/(4√2)` pattern.
fn db2() -> [f64; 4] {
    let s3 = 3.0_f64.sqrt();
    let d = 4.0 * 2.0_f64.sqrt();
    [
        (1.0 + s3) / d,
        (3.0 + s3) / d,
        (3.0 - s3) / d,
        (1.0 - s3) / d,
    ]
}

const DB3: [f64; 6] = [
    0.332_670_552_950_082_5,
    0.806_891_509_311_092_4,
    0.459_877_502_118_491_4,
    -0.135_011_020_010_254_6,
    -0.085_441_273_882_026_7,
    0.035_226_291_885_709_5,
];

const DB4: [f64; 8] = [
    0.230_377_813_308_896_4,
    0.714_846_570_552_915_4,
    0.630_880_767_929_858_7,
    -0.027_983_769_416_859_9,
    -0.187_034_811_719_093_1,
    0.030_841_381_835_560_7,
    0.032_883_011_666_885_2,
    -0.010_597_401_785_069_0,
];

const DB5: [f64; 10] = [
    0.160_102_397_974_192_9,
    0.603_829_269_797_189_5,
    0.724_308_528_437_772_6,
    0.138_428_145_901_320_3,
    -0.242_294_887_066_382_3,
    -0.032_244_869_584_638_1,
    0.077_571_493_840_045_9,
    -0.006_241_490_212_798_3,
    -0.012_580_751_999_082_0,
    0.003_335_725_285_473_8,
];

const DB6: [f64; 12] = [
    0.111_540_743_350_109_5,
    0.494_623_890_398_453_3,
    0.751_133_908_021_095_9,
    0.315_250_351_709_198_2,
    -0.226_264_693_965_44,
    -0.129_766_867_567_262_5,
    0.097_501_605_587_322_5,
    0.027_522_865_530_305_3,
    -0.031_582_039_317_486_2,
    0.000_553_842_201_161_4,
    0.004_777_257_510_945_5,
    -0.001_077_301_085_308_5,
];

impl Wavelet {
    /// All supported wavelets, shortest filter first.
    pub const ALL: [Wavelet; 6] = [
        Wavelet::Haar,
        Wavelet::Daubechies4,
        Wavelet::Daubechies6,
        Wavelet::Daubechies8,
        Wavelet::Daubechies10,
        Wavelet::Daubechies12,
    ];

    /// The scaling (low-pass) filter coefficients.
    pub fn scaling_filter(&self) -> Vec<f64> {
        match self {
            Wavelet::Haar => {
                let c = std::f64::consts::FRAC_1_SQRT_2;
                vec![c, c]
            }
            Wavelet::Daubechies4 => db2().to_vec(),
            Wavelet::Daubechies6 => DB3.to_vec(),
            Wavelet::Daubechies8 => DB4.to_vec(),
            Wavelet::Daubechies10 => DB5.to_vec(),
            Wavelet::Daubechies12 => DB6.to_vec(),
        }
    }

    /// The wavelet (high-pass) filter via the quadrature-mirror relation
    /// `g[k] = (-1)^k h[L-1-k]`.
    pub fn wavelet_filter(&self) -> Vec<f64> {
        let h = self.scaling_filter();
        let l = h.len();
        (0..l)
            .map(|k| {
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                sign * h[l - 1 - k]
            })
            .collect()
    }

    /// Number of filter taps.
    pub fn filter_len(&self) -> usize {
        match self {
            Wavelet::Haar => 2,
            Wavelet::Daubechies4 => 4,
            Wavelet::Daubechies6 => 6,
            Wavelet::Daubechies8 => 8,
            Wavelet::Daubechies10 => 10,
            Wavelet::Daubechies12 => 12,
        }
    }

    /// Number of vanishing moments of the wavelet function.
    pub fn vanishing_moments(&self) -> usize {
        self.filter_len() / 2
    }

    /// Parses a wavelet name (`"haar"`, `"db2"`, `"db3"`, … or
    /// `"daubechies4"`, …).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for unknown names.
    pub fn from_name(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "haar" | "db1" | "daubechies2" => Ok(Wavelet::Haar),
            "db2" | "daubechies4" => Ok(Wavelet::Daubechies4),
            "db3" | "daubechies6" => Ok(Wavelet::Daubechies6),
            "db4" | "daubechies8" => Ok(Wavelet::Daubechies8),
            "db5" | "daubechies10" => Ok(Wavelet::Daubechies10),
            "db6" | "daubechies12" => Ok(Wavelet::Daubechies12),
            other => Err(Error::invalid("name", format!("unknown wavelet `{other}`"))),
        }
    }
}

impl std::fmt::Display for Wavelet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Wavelet::Haar => "haar",
            Wavelet::Daubechies4 => "db2",
            Wavelet::Daubechies6 => "db3",
            Wavelet::Daubechies8 => "db4",
            Wavelet::Daubechies10 => "db5",
            Wavelet::Daubechies12 => "db6",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    #[test]
    fn scaling_filters_sum_to_sqrt2() {
        for w in Wavelet::ALL {
            let sum: f64 = w.scaling_filter().iter().sum();
            assert!(
                (sum - std::f64::consts::SQRT_2).abs() < 1e-9,
                "{w}: sum {sum}"
            );
        }
    }

    #[test]
    fn scaling_filters_unit_energy() {
        for w in Wavelet::ALL {
            let e: f64 = w.scaling_filter().iter().map(|v| v * v).sum();
            assert!((e - 1.0).abs() < 1e-9, "{w}: energy {e}");
        }
    }

    #[test]
    fn scaling_filters_orthogonal_to_even_shifts() {
        for w in Wavelet::ALL {
            let h = w.scaling_filter();
            let l = h.len();
            for m in 1..l / 2 {
                let dot: f64 = (0..l - 2 * m).map(|k| h[k] * h[k + 2 * m]).sum();
                assert!(dot.abs() < 1e-9, "{w}: shift {m} dot {dot}");
            }
        }
    }

    #[test]
    fn wavelet_filter_sums_to_zero() {
        for w in Wavelet::ALL {
            let sum: f64 = w.wavelet_filter().iter().sum();
            assert!(sum.abs() < TOL, "{w}: sum {sum}");
        }
    }

    #[test]
    fn wavelet_filter_orthogonal_to_scaling() {
        for w in Wavelet::ALL {
            let h = w.scaling_filter();
            let g = w.wavelet_filter();
            let dot: f64 = h.iter().zip(&g).map(|(a, b)| a * b).sum();
            assert!(dot.abs() < TOL, "{w}: dot {dot}");
        }
    }

    #[test]
    fn vanishing_moments_annihilate_polynomials() {
        // Σ g[k] k^p = 0 for p < vanishing moments.
        for w in Wavelet::ALL {
            let g = w.wavelet_filter();
            for p in 0..w.vanishing_moments() {
                let s: f64 = g
                    .iter()
                    .enumerate()
                    .map(|(k, &gv)| gv * (k as f64).powi(p as i32))
                    .sum();
                assert!(s.abs() < 1e-7, "{w}: moment {p} = {s}");
            }
        }
    }

    #[test]
    fn haar_matches_known_values() {
        let h = Wavelet::Haar.scaling_filter();
        assert!((h[0] - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        let g = Wavelet::Haar.wavelet_filter();
        assert!((g[0] - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        assert!((g[1] + std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
    }

    #[test]
    fn filter_len_matches_table() {
        for w in Wavelet::ALL {
            assert_eq!(w.scaling_filter().len(), w.filter_len());
            assert_eq!(w.wavelet_filter().len(), w.filter_len());
        }
    }

    #[test]
    fn from_name_round_trip() {
        for w in Wavelet::ALL {
            assert_eq!(Wavelet::from_name(&w.to_string()).unwrap(), w);
        }
        assert_eq!(Wavelet::from_name("HAAR").unwrap(), Wavelet::Haar);
        assert!(Wavelet::from_name("db42").is_err());
    }

    #[test]
    fn default_is_db2() {
        assert_eq!(Wavelet::default(), Wavelet::Daubechies4);
    }
}
