//! One measured round of a workload: set-up (feed simulation, plan,
//! server or cluster bind), the timed drive, the drain, the correctness
//! checks and the timed recovery.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use aging_cluster::{Aggregator, AggregatorConfig, HashRing, LocalCluster};
use aging_memsim::Scenario;
use aging_serve::protocol::{encode_events, ServeEvent};
use aging_serve::{PersistStats, ServeClient, ServeConfig, Server, WireCounters};
use aging_store::StoreConfig;
use aging_stream::{Error, IngestSink, Result};

use crate::fleet::{self, Feed, Plan, Workload, RING_SEED, RING_VNODES};
use crate::load::{self, ms_between, FeedOutcome};
use crate::trace;

/// Restarts (recoveries, on a store-backed server) timed per round;
/// `recover_ms` is their median.
const RESTARTS_PER_ROUND: usize = 9;
/// No further restart of a round is timed once this much time has gone
/// on them, so a whole-journal replay is timed once.
const RESTART_BUDGET: Duration = Duration::from_millis(100);
/// Frames a feeder may have unacked (the server's default is 32). A
/// closed-loop batch's ack latency is about the window times a batch's
/// service time, so a deep window mostly measures queueing in the load
/// generator's own window, and it magnified host speed changes: with 32,
/// `cluster-merge`'s `ack_p50_ms` spread 19-23% over ten seeds; with 8 it
/// spread 11% over five, and throughput held.
const CREDIT_WINDOW: u16 = 8;
/// Aggregator pulls per round on the cluster workload; `drain_ms` is
/// their median.
const AGGREGATOR_PULLS: usize = 5;
/// Poll interval of the drain reader once feeding has finished: none,
/// it queries back to back, so the drain never includes a sleep.
const DRAIN_POLL: Duration = Duration::ZERO;
/// Done markers journaled after the last snapshot before the crash on a
/// snapshotting store: recovery restores that snapshot and replays
/// exactly this many journal entries on every seed (fewer than a
/// snapshot cadence, so no snapshot cuts them).
const REPLAY_ENTRIES: usize = 64;

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    /// Feed simulation seconds; `None` when the round reused feeds.
    pub gen_s: Option<f64>,
    /// Feed simulation plus plan plus server/cluster bind, seconds;
    /// `None` when the round reused feeds.
    pub setup_s: Option<f64>,
    /// Records the feeders attempted.
    pub attempted: u64,
    /// Records acked as accepted.
    pub accepted: u64,
    /// Timed wall: drive start to the last feeder ack, seconds.
    pub wall_s: f64,
    /// Per batch frame: due to ack, ms.
    pub ack_ms: Vec<f64>,
    /// Per released alarm: decidable send to first read-back, ms.
    pub visibility_ms: Vec<f64>,
    /// Visibility samples whose read-back preceded the recorded send
    /// instant (clamped to zero).
    pub visibility_clamped: u64,
    /// Open loop: generator lateness per batch, ms.
    pub late_ms: Vec<f64>,
    /// Open loop: post-send flush wait per batch, ms.
    pub flush_ms: Vec<f64>,
    /// Last feeder ack to the complete history read back, ms.
    pub drain_ms: f64,
    /// Median restart (recovery on the store-backed workload) bind, ms.
    pub recover_ms: f64,
    /// Advisory `Busy` frames the feeders received.
    pub busy_frames: u64,
    /// Summed server wire counters.
    pub wire: WireCounters,
    /// Durability counters of the store-backed server.
    pub persist: Option<PersistStats>,
    /// Aggregator `QueryAlarms` round trips.
    pub aggregator_polls: u64,
    /// Aggregator reconnects.
    pub aggregator_reconnects: u64,
    /// Max machines per shard over the mean (1 for a single server).
    pub shard_skew: f64,
    /// Correctness failures; empty when the round is correct.
    pub problems: Vec<String>,
    /// The round's feeds and plan, for the traced layer timings.
    pub feeds: Vec<Feed>,
    /// See [`Round::feeds`].
    pub plan: Plan,
    /// Copy of the store directory as the run left it, kept for the
    /// store layer timings.
    pub kept_store: Option<PathBuf>,
}

impl Round {
    /// Records acked per second of timed wall.
    pub fn ingest_rps(&self) -> f64 {
        self.accepted as f64 / self.wall_s.max(1e-9)
    }

    /// Records counted as failed: unacked, or every record of a round
    /// whose history diverged.
    pub fn failed(&self) -> u64 {
        if self.problems.is_empty() {
            self.attempted - self.accepted.min(self.attempted)
        } else {
            self.attempted
        }
    }
}

/// Where a round may write (store directories).
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Directory under the benchmark's output directory.
    pub dir: PathBuf,
    /// Keep a copy of the run's store for the layer timings.
    pub keep_store: bool,
}

/// A round's feeds: simulated inside the round's timed set-up, or reused
/// from an earlier round.
pub enum Input<'a> {
    /// Simulate the scenarios as part of set-up.
    Simulate(&'a [Scenario]),
    /// Reuse feeds simulated earlier; set-up is then just plan and bind.
    Reuse(Vec<Feed>),
}

/// Runs one round of `w`, checking against `reference`.
///
/// # Errors
///
/// Propagates set-up, connection and protocol failures; divergences are
/// reported in [`Round::problems`] instead.
pub fn run(
    w: &Workload,
    input: Input<'_>,
    reference: &[ServeEvent],
    scratch: &Scratch,
    round: usize,
) -> Result<Round> {
    let setup_started = Instant::now();
    let (feeds, gen_s) = match input {
        Input::Simulate(scenarios) => {
            let feeds = fleet::simulate(w, scenarios)?;
            (feeds, Some(setup_started.elapsed().as_secs_f64()))
        }
        Input::Reuse(feeds) => (feeds, None),
    };
    if w.shards > 0 {
        run_cluster(w, feeds, reference, setup_started, gen_s)
    } else {
        run_single(w, feeds, reference, scratch, round, setup_started, gen_s)
    }
}

fn serve_config(w: &Workload) -> ServeConfig {
    let mut cfg = ServeConfig::from_fleet(&w.fleet_config());
    cfg.window = CREDIT_WINDOW;
    // Pin the release order: concurrent feeders cannot permute it.
    cfg.expected_machines = Some(w.machines as u64);
    cfg
}

/// The store of a store-backed workload.
pub fn store_config(w: &Workload, dir: &Path) -> StoreConfig {
    StoreConfig {
        snapshot_every_entries: w.snapshot_every_entries,
        fsync: false,
        ..StoreConfig::new(dir)
    }
}

fn empty_round(gen_s: Option<f64>, setup_s: Option<f64>) -> Round {
    Round {
        gen_s,
        setup_s,
        attempted: 0,
        accepted: 0,
        wall_s: 0.0,
        ack_ms: Vec::new(),
        visibility_ms: Vec::new(),
        visibility_clamped: 0,
        late_ms: Vec::new(),
        flush_ms: Vec::new(),
        drain_ms: 0.0,
        recover_ms: 0.0,
        busy_frames: 0,
        wire: WireCounters::default(),
        persist: None,
        aggregator_polls: 0,
        aggregator_reconnects: 0,
        shard_skew: 1.0,
        problems: Vec::new(),
        feeds: Vec::new(),
        plan: Plan::default(),
        kept_store: None,
    }
}

fn join<T>(handle: std::thread::ScopedJoinHandle<'_, Result<T>>, what: &str) -> Result<T> {
    handle
        .join()
        .unwrap_or_else(|_| Err(Error::Io(format!("{what} thread panicked"))))
}

fn run_single(
    w: &Workload,
    feeds: Vec<Feed>,
    reference: &[ServeEvent],
    scratch: &Scratch,
    round: usize,
    setup_started: Instant,
    gen_s: Option<f64>,
) -> Result<Round> {
    let conns = w.connections;
    let assignment: Vec<Vec<usize>> = (0..conns)
        .map(|c| (c..feeds.len()).step_by(conns).collect())
        .collect();
    let plan = fleet::plan(w, &feeds, &assignment, reference);
    let mut cfg = serve_config(w);
    let store_dir = scratch
        .dir
        .join(format!("store-{}-r{round}", std::process::id()));
    if w.store {
        let _ = std::fs::remove_dir_all(&store_dir);
        cfg.store = Some(store_config(w, &store_dir));
    }
    let mut server = {
        let _span = trace::span("server.bind", 0);
        Server::bind("127.0.0.1:0", cfg.clone())?
    };
    let addr = server.local_addr();
    let setup_s = gen_s.map(|_| setup_started.elapsed().as_secs_f64());

    // Connected before the drive so the drain measures release and read
    // back, not connection accept.
    let drain_reader = ServeClient::connect(addr, "perfbench-drain")?;
    let poll_reader = match w.rate_records_per_sec {
        Some(_) => Some(ServeClient::connect(addr, "perfbench-reader")?),
        None => None,
    };
    let poll = Duration::from_millis(w.poll_ms);
    let lockstep = load::Lockstep::new(&plan.starts, plan.lockstep_secs);
    let start = Instant::now();
    let (feeds_ref, items) = (&feeds, &plan.conns);
    let (outcomes, reader) = std::thread::scope(|s| -> Result<_> {
        if let Some(rate) = w.rate_records_per_sec {
            // One paced feeder plus one reader polling at a fixed interval.
            let client = poll_reader.expect("open loop has a reader");
            let reader = s.spawn(move || load::read_alarms(client, poll, reference.len()));
            let feeder =
                s.spawn(move || load::feed_open(addr, w, feeds_ref, &items[0], rate, start));
            let feeder = join(feeder, "feeder");
            let seen = join(reader, "reader")?;
            Ok((vec![feeder?], seen))
        } else {
            let lockstep = &lockstep;
            let handles: Vec<_> = items
                .iter()
                .enumerate()
                .map(|(c, items)| {
                    // Connection 0 doubles as the visibility reader.
                    let poll = (c == 0).then_some(poll);
                    s.spawn(move || load::feed_closed(addr, w, feeds_ref, items, lockstep, c, poll))
                })
                .collect();
            let outcomes = handles
                .into_iter()
                .map(|h| join(h, "feeder"))
                .collect::<Result<Vec<_>>>()?;
            Ok((outcomes, Vec::new()))
        }
    })?;
    let mut r = empty_round(gen_s, setup_s);
    let last_ack = absorb_feeders(&mut r, &outcomes, start);
    let drained = load::read_alarms(drain_reader, DRAIN_POLL, reference.len())?;
    let complete_at = drained.iter().map(|&(_, at)| at).max().unwrap_or(last_ack);
    r.drain_ms = ms_between(last_ack, complete_at);
    let history: Vec<ServeEvent> = drained.iter().map(|(e, _)| e.clone()).collect();
    check_history(&mut r, "read-back", &history, reference);
    let polled = if w.closed_loop() {
        &outcomes[0].seen
    } else {
        &reader
    };
    let mut firsts = vec![None; reference.len()];
    sighted(
        &mut firsts,
        polled.iter().enumerate().map(|(k, &(_, at))| (k, at)),
    );
    sighted(
        &mut firsts,
        drained.iter().enumerate().map(|(k, &(_, at))| (k, at)),
    );
    visibility(&mut r, &plan, &outcomes, &firsts, complete_at);

    if w.store {
        if scratch.keep_store {
            // The store layer timings open the store as the run left it,
            // journal suffix included, and replay its entries.
            let copy = kept_copy(&store_dir);
            copy_dir(&store_dir, &copy)?;
            r.kept_store = Some(copy);
        }
        if w.snapshot_every_entries > 0 {
            // Give every seed the same recovery work: a snapshot restore
            // plus the replay of REPLAY_ENTRIES journal entries. Without
            // this, the replay would be however long a seed's run happened
            // to end past its last snapshot. Repeating a done marker is
            // idempotent but journaled, so it first advances the snapshot
            // cadence to the next snapshot and then lays down the suffix.
            let committed = |s: &Server| s.persist_stats().map_or(0, |p| p.snapshots_committed);
            let before = committed(&server);
            let padding_id = plan.conn_of_machine.keys().copied().min().unwrap_or(0);
            while committed(&server) == before {
                server.machine_done(padding_id)?;
            }
            for _ in 0..REPLAY_ENTRIES {
                server.machine_done(padding_id)?;
            }
        }
        r.wire = server.status().wire;
        r.persist = server.persist_stats();
        server.abort();
        // Aborting a recovered server writes nothing, so every bind
        // recovers the same journal and snapshot.
        r.recover_ms = median_restart_ms(|| {
            let t = Instant::now();
            let server = Server::bind("127.0.0.1:0", cfg.clone())?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            server.abort();
            Ok(ms)
        })?;
        let report = Server::bind("127.0.0.1:0", cfg)?.shutdown();
        check_history(&mut r, "recovered", &report.events, reference);
        let _ = std::fs::remove_dir_all(&store_dir);
    } else {
        let report = server.shutdown();
        r.wire = report.wire;
        check_history(&mut r, "server", &report.events, reference);
        r.recover_ms = median_restart_ms(|| {
            let t = Instant::now();
            let server = Server::bind("127.0.0.1:0", cfg.clone())?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            server.shutdown();
            Ok(ms)
        })?;
    }
    check_wire(&mut r);
    r.feeds = feeds;
    r.plan = plan;
    Ok(r)
}

fn run_cluster(
    w: &Workload,
    feeds: Vec<Feed>,
    reference: &[ServeEvent],
    setup_started: Instant,
    gen_s: Option<f64>,
) -> Result<Round> {
    let ring = HashRing::new(w.shards, RING_VNODES, RING_SEED)?;
    let ids: Vec<u64> = feeds.iter().map(|f| f.id).collect();
    let assignment = ring.partition_indices(&ids);
    let plan = fleet::plan(w, &feeds, &assignment, reference);
    let mut template = ServeConfig::from_fleet(&w.fleet_config());
    template.window = CREDIT_WINDOW;
    let cluster = {
        let _span = trace::span("cluster.launch", 0);
        LocalCluster::launch(&ring, &template, &ids, None)?
    };
    let setup_s = gen_s.map(|_| setup_started.elapsed().as_secs_f64());

    let aggregator = Aggregator::new(AggregatorConfig::default())?;
    let poll = Duration::from_millis(w.poll_ms);
    let lockstep = load::Lockstep::new(&plan.starts, plan.lockstep_secs);
    let start = Instant::now();
    // One feeder per shard, each also reading its own shard's history.
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .conns
            .iter()
            .enumerate()
            .map(|(shard, items)| {
                let addr = cluster.directory().addr(shard);
                let (feeds, lockstep) = (&feeds, &lockstep);
                s.spawn(move || {
                    load::feed_closed(addr, w, feeds, items, lockstep, shard, Some(poll))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| join(h, "feeder"))
            .collect::<Result<Vec<_>>>()
    })?;
    // The aggregator starts once every feeder is done: the drain is the
    // whole pull-and-merge of the shards' histories. Its first pull
    // connects to each shard, and a shard's accept loop polls, so the
    // same pull is repeated and the median taken.
    let merged = aggregator.run(cluster.directory())?;
    let complete_at = Instant::now();
    let mut r = empty_round(gen_s, setup_s);
    let last_ack = absorb_feeders(&mut r, &outcomes, start);
    let mut pulls = vec![ms_between(last_ack, complete_at)];
    for _ in 1..AGGREGATOR_PULLS {
        let t = Instant::now();
        let again = aggregator.run(cluster.directory())?;
        pulls.push(t.elapsed().as_secs_f64() * 1e3);
        check_history(&mut r, "re-pulled", &again.events, reference);
    }
    r.drain_ms = crate::stats::median(&pulls).unwrap_or(0.0);
    r.aggregator_polls = merged.polls;
    r.aggregator_reconnects = merged.reconnects;
    check_history(&mut r, "merged", &merged.events, reference);

    // Shard-local history position -> global reference index.
    let mut shard_events: Vec<Vec<usize>> = vec![Vec::new(); plan.conns.len()];
    for (k, event) in reference.iter().enumerate() {
        shard_events[plan.conn_of_machine[&event.machine_id]].push(k);
    }
    let mut firsts = vec![None; reference.len()];
    for (shard, outcome) in outcomes.iter().enumerate() {
        let map = &shard_events[shard];
        sighted(
            &mut firsts,
            outcome
                .seen
                .iter()
                .enumerate()
                .filter_map(|(j, &(_, at))| map.get(j).map(|&k| (k, at))),
        );
    }
    visibility(&mut r, &plan, &outcomes, &firsts, complete_at);

    let sizes: Vec<usize> = assignment.iter().map(Vec::len).collect();
    let mean = feeds.len() as f64 / sizes.len() as f64;
    r.shard_skew = sizes.iter().copied().max().unwrap_or(0) as f64 / mean;
    for shard in 0..cluster.shards() {
        let mut client = ServeClient::connect(cluster.addr(shard), "perfbench-status")?;
        let wire = client.query_status()?.wire;
        client.bye()?;
        add_wire(&mut r.wire, &wire);
    }
    r.recover_ms = median_restart_ms(|| {
        cluster.abort_shard(0)?;
        let t = Instant::now();
        cluster.rebind_shard(0)?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    })?;
    cluster.shutdown();
    check_wire(&mut r);
    r.feeds = feeds;
    r.plan = plan;
    Ok(r)
}

/// Folds the feeders' counters and raw samples into `r`; returns the
/// last ack instant and sets the timed wall from `start` to it.
fn absorb_feeders(r: &mut Round, outcomes: &[FeedOutcome], start: Instant) -> Instant {
    let mut last_ack = start;
    for o in outcomes {
        r.attempted += o.records_sent;
        r.accepted += o.records_accepted;
        r.busy_frames += o.busy_frames;
        r.ack_ms.extend_from_slice(&o.ack_ms);
        r.late_ms.extend_from_slice(&o.late_ms);
        r.flush_ms.extend_from_slice(&o.flush_ms);
        last_ack = last_ack.max(o.last_ack);
        if o.records_accepted != o.records_sent {
            r.problems.push(format!(
                "{} of {} records not acked as accepted",
                o.records_sent - o.records_accepted.min(o.records_sent),
                o.records_sent
            ));
        }
    }
    r.wall_s = last_ack.duration_since(start).as_secs_f64();
    last_ack
}

/// Keeps the earliest sighting per global event index.
fn sighted(firsts: &mut [Option<Instant>], sightings: impl Iterator<Item = (usize, Instant)>) {
    for (k, at) in sightings {
        if let Some(slot) = firsts.get_mut(k) {
            if slot.is_none_or(|prev| at < prev) {
                *slot = Some(at);
            }
        }
    }
}

/// One visibility sample per reference event: first sighting (or
/// `fallback`, the instant the complete history was read back) minus
/// the send instant of the plan step that made it decidable.
fn visibility(
    r: &mut Round,
    plan: &Plan,
    outcomes: &[FeedOutcome],
    firsts: &[Option<Instant>],
    fallback: Instant,
) {
    for (k, &(conn, item)) in plan.decidable.iter().enumerate() {
        let Some(sent) = outcomes.get(conn).and_then(|o| o.sent_at[item]) else {
            continue;
        };
        let seen = firsts[k].unwrap_or(fallback);
        if seen < sent {
            r.visibility_clamped += 1;
        }
        r.visibility_ms.push(ms_between(sent, seen));
    }
}

fn check_history(r: &mut Round, what: &str, got: &[ServeEvent], reference: &[ServeEvent]) {
    if encode_events(got) != encode_events(reference) {
        r.problems.push(format!(
            "{what} history diverged from the offline reference ({} vs {} events)",
            got.len(),
            reference.len()
        ));
    }
}

fn check_wire(r: &mut Round) {
    if r.wire.session_panics != 0 || r.wire.quarantined != 0 {
        r.problems.push(format!(
            "server misbehaved: {} session panics, {} quarantined sessions",
            r.wire.session_panics, r.wire.quarantined
        ));
    }
}

fn add_wire(sum: &mut WireCounters, w: &WireCounters) {
    sum.records += w.records;
    sum.records_rejected += w.records_rejected;
    sum.busy_sent += w.busy_sent;
    sum.quarantined += w.quarantined;
    sum.session_panics += w.session_panics;
    sum.malformed_frames += w.malformed_frames;
}

fn median_restart_ms(mut restart: impl FnMut() -> Result<f64>) -> Result<f64> {
    let mut samples = Vec::with_capacity(RESTARTS_PER_ROUND);
    let started = Instant::now();
    while samples.len() < RESTARTS_PER_ROUND
        && (samples.is_empty() || started.elapsed() < RESTART_BUDGET)
    {
        samples.push(restart()?);
    }
    Ok(crate::stats::median(&samples).unwrap_or(0.0))
}

/// Where the traced run keeps a copy of the run's store.
fn kept_copy(dir: &Path) -> PathBuf {
    let mut name = dir.as_os_str().to_owned();
    name.push("-kept");
    PathBuf::from(name)
}

fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    let io = |e: std::io::Error| Error::Io(format!("copying {}: {e}", from.display()));
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}
