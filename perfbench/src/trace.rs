//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public API, made from the
//! benchmark's own code: name, start, end, the span that caused it (the
//! innermost span open on the same thread), and the units of work it
//! covered. Spans stay in memory while the run measures and are written
//! out once it ends. A layer's self time is the sum of its spans'
//! durations minus the parts covered by their child spans.
//!
//! Tracing is off unless [`enable`] was called: a disabled
//! [`span`] reads no clock and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, `0` for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `codec.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Units of work (records, samples, entries...) the span covered.
    pub work: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::SeqCst);
}

/// `true` once [`enable`] was called.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, Instant, u64)>,
}

impl Guard {
    /// Sets the units of work the span covers (overrides the opening
    /// value, for calls whose work is only known afterwards).
    pub fn set_work(&mut self, work: u64) {
        if let Some(open) = self.open.as_mut() {
            open.4 = work;
        }
    }
}

/// Opens a span named `name` covering `work` units; a no-op unless
/// tracing is enabled.
pub fn span(name: &'static str, work: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, Instant::now(), work)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, started, work)) = self.open.take() else {
            return;
        };
        let ended = Instant::now();
        let rec = recorder();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.truncate(pos);
            }
        });
        let ns = |at: Instant| at.saturating_duration_since(rec.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            start_ns: ns(started),
            end_ns: ns(ended),
            work,
        };
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    match RECORDER.get() {
        Some(rec) => std::mem::take(&mut *rec.spans.lock().expect("span store poisoned")),
        None => Vec::new(),
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Summed wall duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child-span coverage), ns.
    pub self_ns: u64,
    /// Summed units of work.
    pub work: u64,
}

impl LayerTotals {
    /// Self nanoseconds per unit of work; `0` when no work was recorded.
    pub fn self_ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.work as f64
        }
    }
}

/// Aggregates spans by name, computing each span's self time from the
/// union of its children's intervals (clipped to the parent).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.spans += 1;
        entry.total_ns += total;
        entry.self_ns += total.saturating_sub(covered);
        entry.work += s.work;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Writes every span as one tab-separated line
/// (`id parent name start_ns end_ns work`).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\twork")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.work
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            work: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "round", 0, 100),
            span(2, 1, "send", 10, 30),
            span(3, 1, "send", 20, 40),
            span(4, 1, "flush", 90, 120),
        ];
        let t = totals(&spans);
        // Children cover [10, 40) and [90, 100) of the parent.
        assert_eq!(t["round"].self_ns, 100 - 30 - 10);
        assert_eq!(t["send"].total_ns, 40);
        assert_eq!(t["send"].self_ns, 40);
        assert_eq!(t["flush"].self_ns, 30);
    }
}
