//! Pins the detector snapshot format: the exact
//! [`StreamingDetector::encode_state`] bytes of a Hölder and a spectrum
//! detector at three points of their life — mid-warmup, mid-baseline and
//! after the alarm latched — and of a Mann–Kendall + Sen trend detector
//! mid-fill, on a significant trend and after the alarm latched, are
//! committed in `tests/fixtures/detector_snapshots.txt`. Snapshots and journals already
//! on disk embed these bytes, so a layout change must fail here instead
//! of surfacing as an unrestorable store.
//!
//! Each fixture blob must (1) equal what the current build encodes after
//! feeding the same prefix, and (2) restore into a fresh detector that
//! then resumes bit-identically to the uninterrupted one.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! cargo test -p aging-stream --test detector_snapshot -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use aging_core::baseline::TrendPredictorConfig;
use aging_core::detector::DetectorConfig;
use aging_fractal::spectrum::SpectrumConfig;
use aging_stream::detector::{
    DetectorSpec, SpectrumDetectorConfig, StreamingDetector, StreamingTrend,
};
use aging_timeseries::persist::Reader;

const FIXTURE: &str = "detector_snapshots.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

fn holder_spec() -> DetectorSpec {
    DetectorSpec::Holder(DetectorConfig {
        holder_radius: 16,
        holder_max_lag: 4,
        dimension_window: 64,
        dimension_stride: 16,
        baseline_windows: 8,
        ..DetectorConfig::default()
    })
}

fn spectrum_spec() -> DetectorSpec {
    DetectorSpec::Spectrum(SpectrumDetectorConfig {
        spectrum: SpectrumConfig {
            window: 128,
            stride: 32,
            ..SpectrumConfig::default()
        },
        skip_windows: 2,
        baseline_windows: 4,
        width_delta: 0.2,
        mad_multiplier: 4.0,
        confirm_windows: 2,
    })
}

/// The served trend configuration: 120-sample window, refit every 8.
fn trend_spec() -> DetectorSpec {
    DetectorSpec::Trend(TrendPredictorConfig {
        window: 120,
        refit_every: 8,
        alarm_horizon_secs: 900.0,
        ..TrendPredictorConfig::depleting(5.0)
    })
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A regular depleting counter whose noise roughens sharply at sample 600:
/// the Hölder-collapse signature.
fn holder_signal() -> Vec<f64> {
    let mut rand = xorshift(0x9e37_79b9_7f4a_7c15);
    (0..1200)
        .map(|i| {
            let t = i as f64;
            let base = 1e6 - 30.0 * t + (t * 0.45).sin() * 2048.0;
            let noise = (rand() - 0.5) * if i > 600 { 6000.0 } else { 120.0 };
            base + noise
        })
        .collect()
}

/// A random walk whose steps turn intermittent at sample 500: the
/// spectrum-widening signature.
fn spectrum_signal() -> Vec<f64> {
    let mut rand = xorshift(0x51ce_b00c_5eed_f00d);
    let mut acc = 0.0;
    (0..1024)
        .map(|i| {
            let u = rand() - 0.5;
            acc += if i > 500 && rand() < 0.08 {
                u * 400.0
            } else {
                u * 8.0
            };
            acc
        })
        .collect()
}

/// Free memory draining toward zero at sample ~900, noisy and quantised to
/// 1 KiB pages so windows carry tied values.
fn trend_signal() -> Vec<f64> {
    let mut rand = xorshift(0x2545_f491_4f6c_dd1d);
    (0..1200)
        .map(|i| {
            let level = 9e5 - 1000.0 * i as f64 + (rand() - 0.5) * 8000.0;
            (level / 1024.0).round() * 1024.0
        })
        .collect()
}

fn family(name: &str) -> (DetectorSpec, Vec<f64>) {
    match name {
        "holder" => (holder_spec(), holder_signal()),
        "spectrum" => (spectrum_spec(), spectrum_signal()),
        "trend" => (trend_spec(), trend_signal()),
        other => panic!("unknown detector family {other:?} in fixture"),
    }
}

fn encode(det: &StreamingDetector) -> Vec<u8> {
    let mut blob = Vec::new();
    det.encode_state(&mut blob);
    blob
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

fn from_hex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2), "odd-length hex blob");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// One fixture row: family, life stage, samples fed, encoded state.
struct Row {
    family: String,
    stage: String,
    fed: usize,
    blob: Vec<u8>,
}

fn read_rows() -> Vec<Row> {
    let text = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing fixture {FIXTURE} ({e}); run \
             `cargo test -p aging-stream --test detector_snapshot -- --ignored regenerate`"
        )
    });
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 4, "malformed fixture row {l:?}");
            Row {
                family: f[0].to_string(),
                stage: f[1].to_string(),
                fed: f[2].parse().expect("sample count"),
                blob: from_hex(f[3]),
            }
        })
        .collect()
}

#[test]
fn encode_state_bytes_match_the_committed_snapshots() {
    let rows = read_rows();
    assert_eq!(rows.len(), 9, "three families × three life stages");
    for row in &rows {
        let (spec, signal) = family(&row.family);
        let mut det = StreamingDetector::new(&spec).unwrap();
        for &v in &signal[..row.fed] {
            det.push(v).unwrap();
        }
        assert_eq!(
            to_hex(&encode(&det)),
            to_hex(&row.blob),
            "{} {} snapshot bytes changed",
            row.family,
            row.stage
        );
        assert_eq!(det.is_alarmed(), row.stage == "alarmed");
    }
}

#[test]
fn committed_snapshots_restore_and_resume_bit_identically() {
    for row in read_rows() {
        let (spec, signal) = family(&row.family);
        let mut restored = StreamingDetector::new(&spec).unwrap();
        let mut r = Reader::new(&row.blob);
        restored.restore_state(&mut r).unwrap();
        assert_eq!(
            r.remaining(),
            0,
            "{} {}: trailing bytes",
            row.family,
            row.stage
        );
        assert_eq!(encode(&restored), row.blob);

        let mut live = StreamingDetector::new(&spec).unwrap();
        for &v in &signal[..row.fed] {
            live.push(v).unwrap();
        }
        for (k, &v) in signal[row.fed..].iter().enumerate() {
            assert_eq!(
                live.push(v).unwrap(),
                restored.push(v).unwrap(),
                "{} {}: divergence {k} samples after restore",
                row.family,
                row.stage
            );
        }
        assert_eq!(encode(&live), encode(&restored));
        assert!(
            restored.is_alarmed(),
            "{} must alarm on its signal",
            row.family
        );
    }
}

/// Feeds `signal` and returns the number of samples after which the
/// detector first reports the alarm latched.
fn alarm_latch_point(spec: &DetectorSpec, signal: &[f64]) -> usize {
    let mut det = StreamingDetector::new(spec).unwrap();
    for (i, &v) in signal.iter().enumerate() {
        det.push(v).unwrap();
        if det.is_alarmed() {
            return i + 1;
        }
    }
    panic!("{} never alarmed on its fixture signal", spec.name());
}

#[test]
#[ignore = "rewrites the committed snapshot fixture; run after an intentional format change"]
fn regenerate() {
    let mut text = String::from(
        "# family stage samples_fed StreamingDetector::encode_state hex\n\
         # regenerate: cargo test -p aging-stream --test detector_snapshot -- --ignored regenerate\n",
    );
    // Hölder (radius 16, window 64, stride 16, skip 2, baseline 8): windows
    // complete at samples 96, 112, 128, …; 100 sits in the skip phase and
    // 180 holds four of the eight baseline windows.
    // Spectrum (window 128, stride 32, skip 2, baseline 4): emissions at
    // 128, 160, 192, …; 140 sits in the skip phase, 240 holds two of four.
    // Trend (window 120, refit 8): 60 is mid-fill; at 400 the last refit
    // found a significant decline with an ETA beyond the 900 s horizon.
    for (name, early, middle) in [
        ("holder", ("warmup", 100), ("baseline", 180)),
        ("spectrum", ("warmup", 140), ("baseline", 240)),
        ("trend", ("filling", 60), ("trending", 400)),
    ] {
        let (spec, signal) = family(name);
        let alarmed = alarm_latch_point(&spec, &signal) + 40;
        assert!(alarmed < signal.len(), "alarm too late to resume after");
        if let DetectorSpec::Trend(cfg) = &spec {
            let mut trend = StreamingTrend::new(cfg.clone()).unwrap();
            for &v in &signal[..middle.1] {
                trend.push(v).unwrap();
            }
            assert!(trend.eta_secs().is_some() && !trend.is_alarmed());
        }
        for (stage, fed) in [early, middle, ("alarmed", alarmed)] {
            let mut det = StreamingDetector::new(&spec).unwrap();
            for &v in &signal[..fed] {
                det.push(v).unwrap();
            }
            writeln!(text, "{name} {stage} {fed} {}", to_hex(&encode(&det))).unwrap();
        }
    }
    std::fs::write(fixture_path(), text).unwrap();
}
