//! `perfbench`: the end-to-end and per-layer benchmark of the served
//! path — memsim feeds → wire client → TCP → codec/protocol → serve
//! engine → gate → pipeline/detectors → store journal → alarm release →
//! cluster aggregator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is the separate traced run that
//! reports per-layer metrics. Every round's alarm history is checked
//! byte for byte against an offline reference over the same feeds. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero when any check fails.

mod context;
mod fleet;
mod layers;
mod load;
mod report;
mod round;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fleet::{Workload, WORKLOADS};
use report::Report;

/// Rounds every run measures at least, whatever `--seconds` says.
/// Every round simulates its feeds inside its timed set-up, so
/// `setup_s` is a median over at least this many set-ups.
const MIN_ROUNDS: usize = 5;
/// Where spans, per-layer tables and store directories go, relative to
/// the working directory.
const OUT_DIR: &str = ".perfbench-out";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{}", usage())),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let ctx = context::Context::collect(args.workload.name, args.seed, args.seconds, args.trace);
    println!("# context {}", ctx.to_json());
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let ticks = context::cpu_ticks();
    let result = if args.trace {
        layers::run(&args.workload, args.seed, &out_dir, &ctx)
    } else {
        run_end_to_end(&args.workload, args.seed, args.seconds, &out_dir)
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            Report::failed_run(format!("{e}"))
        }
    };
    // A validity check, like the open-loop generator's lateness: a run
    // the hypervisor took much CPU time from measured the host.
    if let (Some(from), Some(to)) = (ticks, context::cpu_ticks()) {
        report.notes.push(format!(
            "host steal: {:.2}% of CPU time during the run",
            context::steal_pct(from, to)
        ));
    }
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The untraced run: rounds until `seconds` have passed (at least
/// [`MIN_ROUNDS`]), then every end-to-end metric.
fn run_end_to_end(
    w: &Workload,
    seed: u64,
    seconds: u64,
    out_dir: &std::path::Path,
) -> aging_stream::Result<Report> {
    let scenarios = w.scenarios(seed);
    let t = Instant::now();
    let reference = fleet::reference(w, &fleet::simulate(w, &scenarios)?)?;
    println!(
        "# reference: {} events, simulated and checked offline in {:.3} s",
        reference.len(),
        t.elapsed().as_secs_f64()
    );
    let scratch = round::Scratch {
        dir: out_dir.to_path_buf(),
        keep_store: false,
    };
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        let mut r = round::run(
            w,
            round::Input::Simulate(&scenarios),
            &reference,
            &scratch,
            rounds.len(),
        )?;
        println!(
            "# round {}: {} records, {:.0} rec/s, setup {}, drain {:.3} ms, recover {:.3} ms{}",
            rounds.len(),
            r.attempted,
            r.ingest_rps(),
            r.setup_s
                .map_or("reused".to_string(), |s| format!("{s:.3} s")),
            r.drain_ms,
            r.recover_ms,
            if r.problems.is_empty() {
                String::new()
            } else {
                format!(", FAILED: {}", r.problems.join("; "))
            }
        );
        // Only the traced run looks at a round's feeds and plan again.
        r.feeds = Vec::new();
        r.plan = fleet::Plan::default();
        rounds.push(r);
    }
    Ok(report::end_to_end(w, &rounds))
}
