//! Workload definitions, feed simulation, the offline reference history
//! and the send plans the load generator replays.
//!
//! Everything here is derived from the workload and the run's `--seed`:
//! the same seed gives the same scenarios, feeds, plans and reference.

use std::collections::HashMap;

use aging_core::baseline::TrendPredictorConfig;
use aging_core::detector::DetectorConfig;
use aging_memsim::{Counter, Scenario};
use aging_serve::protocol::{counter_code, Record, ServeEvent};
use aging_serve::ScenarioFeeder;
use aging_stream::supervisor::AlarmEvent;
use aging_stream::{CounterDetector, DetectorSpec, FleetConfig, FleetSink, IngestSink};
use aging_stream::{Result, SpectrumDetectorConfig};

use crate::trace;

/// Sampling period of the tiny test machine every workload runs on.
pub const SAMPLE_PERIOD_SECS: f64 = 5.0;
/// Consistent-hash ring parameters of the cluster workload.
pub const RING_VNODES: u32 = 64;
/// Ring seed of the cluster workload (fixed: the partition is part of
/// the workload, not of the run's input seed).
pub const RING_SEED: u64 = 0x00be_7c40;

/// How feeders frame records on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Protocol v1 `Batch` frames, one tick per machine per batch slot.
    Records,
    /// Protocol v2 `BatchColumnar` frames, chunk-interleaved per counter.
    Columns,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Hölder-dimension and spectrum-width detectors beside the trend
    /// detector; trend alone otherwise.
    pub all_families: bool,
    /// Name as given on the command line.
    pub name: &'static str,
    /// Machines in the fleet.
    pub machines: usize,
    /// Simulated horizon per machine, seconds.
    pub horizon_secs: f64,
    /// Range of the aging machines' leak rates, MiB/h; every tenth
    /// machine is a healthy control.
    pub leak_mib_per_hour: (f64, f64),
    /// Leak onsets spread over this fraction of the horizon.
    pub leak_onset_spread: f64,
    /// The one counter shipped per tick.
    pub counter: Counter,
    /// Wire framing.
    pub mode: WireMode,
    /// Feeder connections (one per shard on the cluster workload).
    pub connections: usize,
    /// Records per batch frame (columnar chunks carry about as many).
    pub batch_records: usize,
    /// Open-loop send rate, records per second; `None` = closed loop.
    pub rate_records_per_sec: Option<f64>,
    /// Alarm poll interval of the visibility reader, ms.
    pub poll_ms: u64,
    /// A journal behind the server.
    pub store: bool,
    /// Journal entries between snapshots of the store; `0` = none, so
    /// recovery replays the whole journal.
    pub snapshot_every_entries: u64,
    /// Cluster shards; `0` = a single standalone server.
    pub shards: u64,
}

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 4] = [
    "fleet-ingest",
    "multifractal-detect",
    "durable-paced",
    "cluster-merge",
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        let fleet_ingest = Workload {
            all_families: false,
            name: "fleet-ingest",
            machines: 200,
            horizon_secs: 1.5 * 3600.0,
            leak_mib_per_hour: (150.0, 450.0),
            leak_onset_spread: 0.6,
            counter: Counter::AvailableBytes,
            mode: WireMode::Records,
            connections: 2,
            batch_records: 64,
            rate_records_per_sec: None,
            poll_ms: 10,
            store: false,
            snapshot_every_entries: 0,
            shards: 0,
        };
        match name {
            "fleet-ingest" => Some(fleet_ingest),
            "multifractal-detect" => Some(Workload {
                all_families: true,
                name: "multifractal-detect",
                machines: 48,
                horizon_secs: 6.0 * 3600.0,
                leak_mib_per_hour: (16.0, 48.0),
                leak_onset_spread: 0.0,
                mode: WireMode::Columns,
                ..fleet_ingest
            }),
            "durable-paced" => Some(Workload {
                name: "durable-paced",
                machines: 100,
                connections: 1,
                // Half-size batches: more acks to read the p99 from.
                batch_records: 32,
                rate_records_per_sec: Some(20_000.0),
                poll_ms: 5,
                store: true,
                // A snapshot of the whole engine holds it for about a
                // millisecond, so they are spaced to stall few batches.
                snapshot_every_entries: 256,
                ..fleet_ingest
            }),
            "cluster-merge" => Some(Workload {
                name: "cluster-merge",
                shards: 2,
                ..fleet_ingest
            }),
            _ => None,
        }
    }

    /// `true` for the closed-loop workloads.
    pub fn closed_loop(&self) -> bool {
        self.rate_records_per_sec.is_none()
    }

    /// The fleet: aging `tiny_aging` machines, every tenth one a healthy
    /// control. Leak rates and leak onsets are spread evenly over their
    /// ranges (golden-ratio sequences, so neighbouring machines differ),
    /// which spreads crashes, and with them alarms, over the horizon:
    /// with simultaneous onsets every trend alarm would fire within one
    /// window fill of the start and visibility would measure one burst.
    /// Scenario seeds derive from the run seed.
    pub fn scenarios(&self, seed: u64) -> Vec<Scenario> {
        let (lo, hi) = self.leak_mib_per_hour;
        (0..self.machines)
            .map(|i| {
                let rate = if i % 10 == 9 {
                    0.0
                } else {
                    lo + (hi - lo) * golden(i, 1)
                };
                let scenario_seed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64);
                let mut scenario = Scenario::tiny_aging(scenario_seed, rate);
                let onset = golden(i, 2) * self.leak_onset_spread * self.horizon_secs;
                for leak in &mut scenario.faults.leaks {
                    leak.start_secs = onset;
                }
                scenario
            })
            .collect()
    }

    /// The detection pipeline every server (and the reference) runs.
    pub fn fleet_config(&self) -> FleetConfig {
        let counter = self.counter;
        let mut detectors = Vec::new();
        if self.all_families {
            detectors.push(CounterDetector {
                counter,
                spec: DetectorSpec::Holder(DetectorConfig::default()),
            });
            detectors.push(CounterDetector {
                counter,
                spec: DetectorSpec::Spectrum(SpectrumDetectorConfig::default()),
            });
        }
        detectors.push(CounterDetector {
            counter,
            spec: DetectorSpec::Trend(trend_depleting()),
        });
        let mut cfg = FleetConfig::new(detectors, self.horizon_secs);
        cfg.gate.nominal_period_secs = SAMPLE_PERIOD_SECS;
        cfg
    }
}

/// Fractional part of `i` times the `k`-th power of the golden ratio's
/// inverse: an evenly spread, deterministic sequence in `[0, 1)`.
fn golden(i: usize, k: i32) -> f64 {
    (i as f64 * 0.618_033_988_749_895_f64.powi(k)).fract()
}

/// The e14 trend predictor: depleting resource, 120-sample window.
fn trend_depleting() -> TrendPredictorConfig {
    TrendPredictorConfig {
        window: 120,
        refit_every: 8,
        alarm_horizon_secs: 900.0,
        ..TrendPredictorConfig::depleting(SAMPLE_PERIOD_SECS)
    }
}

/// One machine's simulated feed.
#[derive(Debug, Clone)]
pub struct Feed {
    /// Wire machine id (the scenario index).
    pub id: u64,
    /// Tick times.
    pub times: Vec<f64>,
    /// The workload's counter at each tick.
    pub values: Vec<f64>,
}

/// Simulates every machine's feed up front (each machine is one
/// `memsim.gen` span).
///
/// # Errors
///
/// Propagates scenario boot failures.
pub fn simulate(w: &Workload, scenarios: &[Scenario]) -> Result<Vec<Feed>> {
    let mut feeds = Vec::with_capacity(scenarios.len());
    let mut tick: Vec<Record> = Vec::with_capacity(1);
    for (idx, scenario) in scenarios.iter().enumerate() {
        let mut span = trace::span("memsim.gen", 0);
        let mut feeder = ScenarioFeeder::new(idx as u64, scenario, w.horizon_secs)?;
        let mut feed = Feed {
            id: idx as u64,
            times: Vec::new(),
            values: Vec::new(),
        };
        while feeder.next_tick(std::slice::from_ref(&w.counter), &mut tick) {
            feed.times.push(tick[0].time_secs);
            feed.values.push(tick[0].value);
            tick.clear();
        }
        span.set_work(feed.times.len() as u64);
        feeds.push(feed);
    }
    Ok(feeds)
}

fn to_serve_event(e: &AlarmEvent) -> ServeEvent {
    ServeEvent {
        machine_id: e.machine_index as u64,
        time_secs: e.time_secs,
        level: e.level,
        kind: e.kind,
    }
}

/// The offline reference history: every machine's feed through one
/// in-process [`FleetSink`] in columnar chunks (one `pipeline.ingest`
/// span per machine), machine after machine.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn reference(w: &Workload, feeds: &[Feed]) -> Result<Vec<ServeEvent>> {
    let mut sink = FleetSink::new(&w.fleet_config())?;
    for feed in feeds {
        let _span = trace::span("pipeline.ingest", feed.times.len() as u64);
        let mut start = 0;
        while start < feed.times.len() {
            let end = (start + w.batch_records).min(feed.times.len());
            sink.ingest_column(
                feed.id,
                w.counter,
                &feed.times[start..end],
                &feed.values[start..end],
            )?;
            start = end;
        }
        sink.machine_done(feed.id)?;
    }
    Ok(sink.into_events().iter().map(to_serve_event).collect())
}

/// One step of a connection's send plan.
#[derive(Debug, Clone)]
pub enum Item {
    /// A v1 record batch.
    Records(Vec<Record>),
    /// One columnar chunk: ticks `start..end` of feed `feed`.
    Column {
        /// Index into the feeds.
        feed: usize,
        /// First tick.
        start: usize,
        /// One past the last tick.
        end: usize,
    },
    /// The machine's feed is complete.
    Done(u64),
}

impl Item {
    /// Records the item carries.
    pub fn records(&self) -> u64 {
        match self {
            Item::Records(recs) => recs.len() as u64,
            Item::Column { start, end, .. } => (end - start) as u64,
            Item::Done(_) => 0,
        }
    }
}

/// Per-connection send plans plus, for every reference event, the plan
/// step whose send made it decidable.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// `conns[c]`: connection `c`'s items in send order.
    pub conns: Vec<Vec<Item>>,
    /// `decidable[k]`: `(connection, item)` that first carried a sample
    /// of event `k`'s machine strictly after the event's time — or the
    /// machine's done marker when no later sample exists.
    pub decidable: Vec<(usize, usize)>,
    /// Connection that carries each machine id.
    pub conn_of_machine: HashMap<u64, usize>,
    /// `starts[c][i]`: earliest tick time item `i` of connection `c`
    /// carries (a done marker repeats its predecessor's).
    pub starts: Vec<Vec<f64>>,
    /// How far ahead in simulated time, seconds, a closed-loop feeder may
    /// run of the slowest other: wider than any single item's step, so
    /// feeders can always make progress.
    pub lockstep_secs: f64,
}

/// Per-machine index of `(item, newest tick time)` while building plans.
#[derive(Default)]
struct MachineSteps {
    conn: usize,
    steps: Vec<(usize, f64)>,
    done_item: usize,
}

/// Deals machines to connections (`assignment[c]` = feed indices) and
/// lays out each connection's items: v1 batches interleave one tick per
/// machine round-robin, flushing before a machine's done marker; v2
/// chunks interleave `batch_records` ticks per machine.
pub fn plan(
    w: &Workload,
    feeds: &[Feed],
    assignment: &[Vec<usize>],
    reference: &[ServeEvent],
) -> Plan {
    let mut steps: HashMap<u64, MachineSteps> = HashMap::new();
    let mut conns = Vec::with_capacity(assignment.len());
    for (conn, owned) in assignment.iter().enumerate() {
        let mut items: Vec<Item> = Vec::new();
        match w.mode {
            WireMode::Records => plan_records(w, feeds, owned, conn, &mut items, &mut steps),
            WireMode::Columns => plan_columns(w, feeds, owned, conn, &mut items, &mut steps),
        }
        conns.push(items);
    }
    let decidable = reference
        .iter()
        .map(|event| {
            let m = &steps[&event.machine_id];
            let first_later = m.steps.partition_point(|&(_, t)| t <= event.time_secs);
            let item = m
                .steps
                .get(first_later)
                .map_or(m.done_item, |&(item, _)| item);
            (m.conn, item)
        })
        .collect();
    let conn_of_machine = steps.iter().map(|(&id, m)| (id, m.conn)).collect();
    let mut widest_step = 0.0f64;
    let starts: Vec<Vec<f64>> = conns
        .iter()
        .map(|items| {
            let mut prev = f64::NEG_INFINITY;
            items
                .iter()
                .map(|item| {
                    let start = match item {
                        Item::Records(recs) => recs[0].time_secs,
                        &Item::Column { feed, start, .. } => feeds[feed].times[start],
                        Item::Done(_) => prev,
                    };
                    if prev.is_finite() {
                        widest_step = widest_step.max(start - prev);
                    }
                    prev = start;
                    start
                })
                .collect()
        })
        .collect();
    Plan {
        conns,
        decidable,
        conn_of_machine,
        starts,
        lockstep_secs: 2.0 * widest_step + SAMPLE_PERIOD_SECS,
    }
}

fn note_step(steps: &mut HashMap<u64, MachineSteps>, id: u64, conn: usize, item: usize, t: f64) {
    let m = steps.entry(id).or_default();
    m.conn = conn;
    if m.steps.last().is_none_or(|&(i, _)| i != item) {
        m.steps.push((item, t));
    } else if let Some(last) = m.steps.last_mut() {
        last.1 = t;
    }
}

fn plan_records(
    w: &Workload,
    feeds: &[Feed],
    owned: &[usize],
    conn: usize,
    items: &mut Vec<Item>,
    steps: &mut HashMap<u64, MachineSteps>,
) {
    let mut batch: Vec<Record> = Vec::with_capacity(w.batch_records);
    // cursor == ticks: the done marker is still owed; ticks + 1: done.
    let mut cursors = vec![0usize; owned.len()];
    loop {
        let mut progressed = false;
        for (slot, &idx) in owned.iter().enumerate() {
            let feed = &feeds[idx];
            let cursor = cursors[slot];
            if cursor > feed.times.len() {
                continue;
            }
            if cursor < feed.times.len() {
                let t = feed.times[cursor];
                batch.push(Record {
                    machine_id: feed.id,
                    counter: counter_code(w.counter),
                    time_secs: t,
                    value: feed.values[cursor],
                });
                note_step(steps, feed.id, conn, items.len(), t);
                cursors[slot] = cursor + 1;
                progressed = true;
            } else {
                // The server must see every record of a machine before its
                // done marker.
                if !batch.is_empty() {
                    items.push(Item::Records(std::mem::take(&mut batch)));
                }
                steps.entry(feed.id).or_default().done_item = items.len();
                steps.entry(feed.id).or_default().conn = conn;
                items.push(Item::Done(feed.id));
                cursors[slot] = feed.times.len() + 1;
            }
            if batch.len() >= w.batch_records {
                items.push(Item::Records(std::mem::take(&mut batch)));
            }
        }
        if !progressed {
            break;
        }
    }
    if !batch.is_empty() {
        items.push(Item::Records(batch));
    }
}

fn plan_columns(
    w: &Workload,
    feeds: &[Feed],
    owned: &[usize],
    conn: usize,
    items: &mut Vec<Item>,
    steps: &mut HashMap<u64, MachineSteps>,
) {
    let mut cursors = vec![0usize; owned.len()];
    let mut remaining = owned.len();
    while remaining > 0 {
        for (slot, &idx) in owned.iter().enumerate() {
            let feed = &feeds[idx];
            let cursor = cursors[slot];
            if cursor > feed.times.len() {
                continue;
            }
            if cursor == feed.times.len() {
                steps.entry(feed.id).or_default().done_item = items.len();
                steps.entry(feed.id).or_default().conn = conn;
                items.push(Item::Done(feed.id));
                cursors[slot] = feed.times.len() + 1;
                remaining -= 1;
                continue;
            }
            let end = (cursor + w.batch_records).min(feed.times.len());
            note_step(steps, feed.id, conn, items.len(), feed.times[end - 1]);
            items.push(Item::Column {
                feed: idx,
                start: cursor,
                end,
            });
            cursors[slot] = end;
        }
    }
}
