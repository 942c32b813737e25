//! The run's context stamp: host parallelism, build profile, compiler,
//! source revision, seed and run length.

use std::path::Path;

use crate::report::json_string;

/// What every result is stamped with.
#[derive(Debug, Clone)]
pub struct Context {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Cargo build profile the binary was built with.
    pub profile: &'static str,
    /// `rustc -V` of the compiler that built the binary.
    pub rustc: &'static str,
    /// `HEAD` of the git checkout, when the working directory is one.
    pub git_rev: String,
    /// FNV-1a digest of the workspace sources the binary was built from,
    /// so results from checkouts without git history stay attributable.
    pub source_digest: String,
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: u64,
    /// Traced run or not.
    pub trace: bool,
}

impl Context {
    /// Collects the stamp for this process.
    pub fn collect(workload: &'static str, seed: u64, seconds: u64, trace: bool) -> Context {
        Context {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "unavailable".to_string()),
            source_digest: source_digest(Path::new(".")),
            workload,
            seed,
            seconds,
            trace,
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"profile\": {}, \"debug_assertions\": {}, \"rustc\": {}, \
             \"git_rev\": {}, \"source_digest\": {}, \"workload\": {}, \"seed\": {}, \
             \"seconds\": {}, \"trace\": {}}}",
            self.nproc,
            json_string(self.profile),
            cfg!(debug_assertions),
            json_string(self.rustc),
            json_string(&self.git_rev),
            json_string(&self.source_digest),
            json_string(self.workload),
            self.seed,
            self.seconds,
            self.trace
        )
    }
}

/// Resolves `.git/HEAD` under `root` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => {
            if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
                return Some(rev.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|line| {
                let (rev, r) = line.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        }
    }
}

/// FNV-1a over the paths and bytes of every `.rs`/`.toml` file under
/// `crates/` and `perfbench/`, plus the root manifest, in sorted order.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            eat(file.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    format!("{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_sources(&path, out);
            }
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            out.push(path);
        }
    }
}

/// Host CPU time so far from `/proc/stat`: `(steal, total)` in clock
/// ticks, summed over CPUs; `None` where the file is unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user time.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of host CPU time a hypervisor stole between two
/// [`cpu_ticks`] readings, percent.
pub fn steal_pct(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1).max(1);
    100.0 * to.0.saturating_sub(from.0) as f64 / total as f64
}
