//! Metric reports: the human-readable lines and the final JSON line.

use crate::fleet::Workload;
use crate::round::Round;
use crate::stats::{self, Quantile};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Evidence shown beside the value (sample counts, percentile used).
    pub note: String,
}

/// A run's result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Records attempted over every round.
    pub attempted: u64,
    /// Records counted as failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the JSON.
    pub notes: Vec<String>,
}

impl Report {
    /// The report of a run that could not finish.
    pub fn failed_run(reason: String) -> Report {
        Report {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            notes: vec![format!("run failed: {reason}")],
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Adds a latency percentile in ms: read in each round from that
    /// round's raw samples under the ten-beyond rule, then the median
    /// over rounds, so one stalled round cannot set it. A round with too
    /// few samples for any percentile fails the run.
    pub fn quantile(&mut self, name: &'static str, rounds: &[Vec<f64>], wanted: f64) {
        match per_round_quantile(rounds, wanted) {
            Ok((value, note)) => self.metric(name, value, "ms", note),
            Err(e) => {
                self.correct = false;
                self.notes.push(format!("{name}: {e}"));
                self.metric(name, 0.0, "ms", "no samples".to_string());
            }
        }
    }

    /// Prints the human-readable lines, then the JSON line last.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{:<36} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        for note in &self.notes {
            println!("# {note}");
        }
        println!("{}", self.to_json());
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    value,
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median over `rounds` of each round's `wanted` percentile, with a
/// note on the percentiles and sample counts it was read from.
fn per_round_quantile(rounds: &[Vec<f64>], wanted: f64) -> Result<(f64, String), String> {
    let mut quantiles = Vec::with_capacity(rounds.len());
    for (i, samples) in rounds.iter().enumerate() {
        let q = stats::quantile(&mut samples.clone(), wanted).ok_or_else(|| {
            format!(
                "round {i} has only {} samples, too few for any percentile",
                samples.len()
            )
        })?;
        quantiles.push(q);
    }
    let values: Vec<f64> = quantiles.iter().map(|q| q.value).collect();
    let median = stats::median(&values).ok_or("no rounds")?;
    let lowest = |f: fn(&Quantile) -> f64| quantiles.iter().map(f).fold(f64::INFINITY, f64::min);
    let lowest_p = lowest(|q| q.p);
    let fallback = if lowest_p < wanted {
        format!(
            " (p{} where a round had too few samples)",
            trim_float(lowest_p * 100.0)
        )
    } else {
        String::new()
    };
    let note = format!(
        "median over {} rounds of p{}{fallback}, {}..{} samples and >= {} beyond per round",
        quantiles.len(),
        trim_float(wanted * 100.0),
        lowest(|q| q.samples as f64),
        quantiles.iter().map(|q| q.samples).max().unwrap_or(0),
        lowest(|q| q.beyond as f64),
    );
    Ok((median, note))
}

/// Describes which percentile was read and from how many samples.
pub fn quantile_note(q: &Quantile) -> String {
    format!(
        "p{} of {} samples, {} beyond",
        trim_float(q.p * 100.0),
        q.samples,
        q.beyond
    )
}

fn trim_float(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Folds correctness and record counts of `rounds` into `report`.
pub fn tally<'a>(report: &mut Report, rounds: impl IntoIterator<Item = &'a Round>) {
    for (i, r) in rounds.into_iter().enumerate() {
        report.attempted += r.attempted;
        report.failed += r.failed();
        for problem in &r.problems {
            report.correct = false;
            report.notes.push(format!("round {i}: {problem}"));
        }
    }
}

/// Every end-to-end metric over the untraced `rounds`.
pub fn end_to_end(w: &Workload, rounds: &[Round]) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    tally(&mut report, rounds);
    let per_round = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let samples = |f: fn(&Round) -> &Vec<f64>| -> Vec<Vec<f64>> {
        rounds.iter().map(|r| f(r).clone()).collect()
    };
    let median_note = |values: &[f64]| {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("median of {} rounds, range {lo:.4}..{hi:.4}", values.len())
    };
    let rps = per_round(Round::ingest_rps);
    report.metric(
        "ingest_rps",
        stats::median(&rps).unwrap_or(0.0),
        "1/s",
        median_note(&rps),
    );
    let ack = samples(|r| &r.ack_ms);
    report.quantile("ack_p50_ms", &ack, 0.50);
    // Printed but not gated metrics: on a 2-vCPU virtual machine about
    // one batch in ten of the open-loop workload waits a millisecond or
    // more on a thread wake-up, in the generator or in the server, so
    // these tails move from run to run with the host by more than any
    // usable bound.
    for (name, wanted) in [("ack_p90_ms", 0.90), ("ack_p99_ms", 0.99)] {
        if let Ok((value, note)) = per_round_quantile(&ack, wanted) {
            report.notes.push(format!("{name} {value} ({note})"));
        }
    }
    let vis = samples(|r| &r.visibility_ms);
    report.quantile("visibility_p50_ms", &vis, 0.50);
    // Printed but not a gated metric: on `multifractal-detect` it read
    // 76-130 ms from seed to seed (26-33% spread over ten seeds), above
    // any usable bound, while steady on the other workloads.
    if let Ok((value, note)) = per_round_quantile(&vis, 0.90) {
        report
            .notes
            .push(format!("visibility_p90_ms {value} ({note})"));
    }
    let recover = per_round(|r| r.recover_ms);
    report.metric(
        "recover_ms",
        stats::median(&recover).unwrap_or(0.0),
        "ms",
        median_note(&recover),
    );
    let drain = per_round(|r| r.drain_ms);
    report.metric(
        "drain_ms",
        stats::median(&drain).unwrap_or(0.0),
        "ms",
        median_note(&drain),
    );
    let setup: Vec<f64> = rounds.iter().filter_map(|r| r.setup_s).collect();
    report.metric(
        "setup_s",
        stats::median(&setup).unwrap_or(0.0),
        "s",
        median_note(&setup),
    );
    report.metric(
        "rss_peak_mib",
        rss_peak_mib(),
        "MiB",
        "VmHWM of the benchmark process".to_string(),
    );

    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.notes.push(format!(
        "failed_frac {failed_frac} ({} of {} records)",
        report.failed, report.attempted
    ));
    let clamped: u64 = rounds.iter().map(|r| r.visibility_clamped).sum();
    report.notes.push(format!(
        "visibility: {clamped} of {} samples read back before the send instant was stamped (clamped to 0)",
        vis.iter().map(Vec::len).sum::<usize>()
    ));
    if !w.closed_loop() {
        if let Ok((value, note)) = per_round_quantile(&samples(|r| &r.late_ms), 0.99) {
            report.notes.push(format!(
                "open-loop generator lateness {value:.4} ms ({note})"
            ));
        }
    }
    let gen: Vec<f64> = rounds.iter().filter_map(|r| r.gen_s).collect();
    report.notes.push(format!(
        "feed simulation inside setup_s: median {:.4} s",
        stats::median(&gen).unwrap_or(0.0)
    ));
    report
}
