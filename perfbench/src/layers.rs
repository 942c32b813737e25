//! The traced run: per-layer metrics from spans recorded around calls
//! into each layer's public API, on the workload's own feeds.
//!
//! Order: one untraced served round (the tracing-overhead baseline),
//! three untraced closed-loop rounds over a single connection into a
//! journaled server, each followed by a whole-journal replay (the session
//! cost), one traced served round (memsim, bind, client spans; wire and
//! store counters), then each layer on its own over the traced round's feeds
//! and plan: codec encode/decode, the serve engine without a socket,
//! gate, pipeline, each detector family, and — where the workload runs
//! them — the watermark merger and the store. On `cluster-merge` the
//! same feeds also go through a single server (the `fleet-ingest`
//! topology) so the two topologies can be compared layer by layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use aging_serve::protocol::{
    columnar_spans, counter_code, counter_from_code, encode_batch_frame_into,
    encode_columnar_frame_into, encode_events, Frame, ServeEvent, COLUMN_HEADER_BYTES,
    COLUMN_RECORD_BYTES,
};
use aging_serve::{FrameDecoder, ServeConfig, Server};
use aging_store::Store;
use aging_stream::{
    DetectorSpec, Error, IngestSink, MergeKey, Result, SampleGate, StreamSample, StreamingDetector,
    WatermarkMerger,
};

use crate::context::Context;
use crate::fleet::{self, Feed, Item, Plan, WireMode, Workload};
use crate::report::{json_string, quantile_note, Report};
use crate::round::{self, Input, Round, Scratch};
use crate::stats;
use crate::trace::{self, LayerTotals};

/// Socket read size the decode timing feeds the frame decoder with.
const DECODE_CHUNK: usize = 16 * 1024;
/// Events per merger push burst, as one aggregator poll would deliver.
const MERGE_CHUNK: usize = 64;
/// Minimum journal appends timed, cycling through the recovered entries.
const MIN_APPENDS: usize = 4096;
/// Snapshot commits timed.
const SNAPSHOT_COMMITS: usize = 9;
/// Minimum events pushed through the merger.
const MIN_MERGE_EVENTS: usize = 200_000;
/// Session rounds; `server.session_ns_per_record` is the median of their
/// figures.
const SESSION_ROUNDS: usize = 3;

/// Runs the traced measurement of `w` and reports every per-layer
/// metric (zero where the layer is not on the workload's path).
///
/// # Errors
///
/// Propagates round and layer failures.
pub fn run(w: &Workload, seed: u64, out_dir: &Path, ctx: &Context) -> Result<Report> {
    let scenarios = w.scenarios(seed);
    let feeds = fleet::simulate(w, &scenarios)?;
    let reference = fleet::reference(w, &feeds)?;
    let scratch = Scratch {
        dir: out_dir.to_path_buf(),
        keep_store: false,
    };
    let mut untraced = round::run(w, Input::Reuse(feeds), &reference, &scratch, 0)?;
    // The session round: one closed-loop connection into one server whose
    // journal keeps every batch (no snapshots). No connection waits for
    // another's records, so the drive wall is one session's; recovery
    // then replays every batch through the engine exactly as the live
    // session applied it, with no socket.
    let session_w = Workload {
        shards: 0,
        connections: 1,
        rate_records_per_sec: None,
        store: true,
        snapshot_every_entries: 0,
        ..w.clone()
    };
    let mut feeds = std::mem::take(&mut untraced.feeds);
    let mut sessions = Vec::with_capacity(SESSION_ROUNDS);
    for i in 0..SESSION_ROUNDS {
        let mut r = round::run(&session_w, Input::Reuse(feeds), &reference, &scratch, 3 + i)?;
        feeds = std::mem::take(&mut r.feeds);
        sessions.push(r);
    }

    trace::enable();
    let keep = Scratch {
        keep_store: true,
        ..scratch.clone()
    };
    let traced = round::run(w, Input::Simulate(&scenarios), &reference, &keep, 1)?;
    let served = trace::take();
    let single = if w.shards > 0 {
        let single_w = Workload {
            shards: 0,
            ..w.clone()
        };
        let r = round::run(
            &single_w,
            Input::Simulate(&scenarios),
            &reference,
            &scratch,
            2,
        )?;
        Some((r, trace::take()))
    } else {
        None
    };

    let mut problems = Vec::new();
    let feeds = &traced.feeds;
    let plan = &traced.plan;
    let (wire_bytes, encoded) = codec(w, feeds, plan)?;
    engine(w, plan, feeds, &reference, &mut problems)?;
    let gate_dropped = gate(w, feeds)?;
    pipeline(w, feeds, &reference, &mut problems)?;
    detectors(w, feeds)?;
    if w.shards > 0 {
        merge(plan, &reference, &mut problems);
    }
    let store = match &traced.kept_store {
        Some(dir) => Some(store_layer(w, dir, out_dir)?),
        None => None,
    };
    let layer_spans = trace::take();

    let served_t = trace::totals(&served);
    let layer_t = trace::totals(&layer_spans);
    let get = |t: &BTreeMap<&'static str, LayerTotals>, name: &str| {
        t.get(name).copied().unwrap_or_default()
    };
    let per = |t: &BTreeMap<&'static str, LayerTotals>, name: &str| get(t, name).self_ns_per_work();

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    crate::report::tally(&mut report, [&untraced, &traced]);
    crate::report::tally(&mut report, &sessions);
    if let Some((r, _)) = &single {
        crate::report::tally(&mut report, [r]);
    }
    for p in &problems {
        report.correct = false;
        report.failed += 1;
        report.notes.push(format!("layer check: {p}"));
    }
    let records = traced.accepted.max(1) as f64;
    let n = |v: u64| v as f64;
    let zero = || "not on this workload's path".to_string();

    let ingest = per(&layer_t, "server.ingest");
    report.metric(
        "memsim.gen_ns_per_record",
        per(&served_t, "memsim.gen"),
        "ns",
        "ScenarioFeeder::next_tick, self time".to_string(),
    );
    report.metric(
        "codec.encode_ns_per_record",
        per(&layer_t, "codec.encode"),
        "ns",
        wire_mode_name(w.mode).to_string(),
    );
    report.metric(
        "codec.decode_ns_per_record",
        per(&layer_t, "codec.decode"),
        "ns",
        "FrameDecoder::feed + next_payload_ref + decode_payload".to_string(),
    );
    report.metric(
        "codec.wire_bytes_per_record",
        n(wire_bytes) / n(encoded.max(1)),
        "B",
        format!("{wire_bytes} bytes for {encoded} records"),
    );
    report.metric(
        "client.send_ns_per_record",
        per(&served_t, "client.send"),
        "ns",
        "send_batch/send_column incl. credit waits".to_string(),
    );
    report.metric(
        "client.busy_frames",
        n(traced.busy_frames),
        "count",
        String::new(),
    );
    let flush_ms = if w.closed_loop() {
        let f = get(&served_t, "client.flush");
        f.total_ns as f64 / f.spans.max(1) as f64 / 1e6
    } else {
        stats::median(&traced.flush_ms).unwrap_or(0.0)
    };
    report.metric(
        "client.flush_wait_ms",
        flush_ms,
        "ms",
        if w.closed_loop() {
            "mean final flush per connection".to_string()
        } else {
            format!("median of {} per-batch flushes", traced.flush_ms.len())
        },
    );
    report.metric(
        "server.ingest_ns_per_record",
        ingest,
        "ns",
        "Server as IngestSink, no socket, no store".to_string(),
    );
    // Each session round's TCP wall per record minus its own engine work
    // per record, timed as its full-journal replay. The socket-less
    // `ingest_record` path above is not subtracted: it applies and
    // releases one record per call, where a session applies a whole
    // batch, so on v1 batches it costs more than the live engine.
    let per_record_ns = |r: &Round, ms: f64| ms * 1e6 / r.accepted.max(1) as f64;
    let median_of = |f: &dyn Fn(&Round) -> f64| {
        stats::median(&sessions.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let wall_ns = median_of(&|r| per_record_ns(r, r.wall_s * 1e3));
    let replay_ns = median_of(&|r| per_record_ns(r, r.recover_ms));
    report.metric(
        "server.session_ns_per_record",
        median_of(&|r| per_record_ns(r, r.wall_s * 1e3 - r.recover_ms)),
        "ns",
        format!(
            "median of {SESSION_ROUNDS} one-connection rounds: wall {wall_ns:.1} ns/record \
             minus its journal replay {replay_ns:.1} (medians)"
        ),
    );
    report.metric(
        "server.records_rejected",
        n(traced.wire.records_rejected),
        "count",
        String::new(),
    );
    report.metric(
        "server.quarantined",
        n(traced.wire.quarantined),
        "count",
        String::new(),
    );
    report.metric(
        "gate.push_ns_per_sample",
        per(&layer_t, "gate.push"),
        "ns",
        String::new(),
    );
    report.metric("gate.dropped", n(gate_dropped), "count", String::new());
    report.metric(
        "pipeline.ingest_ns_per_record",
        per(&layer_t, "pipeline.ingest"),
        "ns",
        "FleetSink::ingest_column, one thread".to_string(),
    );
    for (name, span) in [
        ("detector.trend_ns_per_sample", "detector.trend"),
        ("detector.holder_ns_per_sample", "detector.holder"),
        ("detector.spectrum_ns_per_sample", "detector.spectrum"),
    ] {
        let t = get(&layer_t, span);
        let note = if t.work == 0 {
            zero()
        } else {
            "StreamingDetector::push".to_string()
        };
        report.metric(name, t.self_ns_per_work(), "ns", note);
    }
    let has_store = store.is_some();
    let s = store.unwrap_or_default();
    let store_note = |text: &str| if has_store { text.to_string() } else { zero() };
    report.metric(
        "store.append_us_per_entry",
        per(&layer_t, "store.append") / 1e3,
        "us",
        store_note("Store::append of the run's own journal entries"),
    );
    let journal_bytes = traced.persist.map_or(0, |p| p.journal_appended_bytes);
    report.metric(
        "store.journal_bytes_per_record",
        n(journal_bytes) / records,
        "B",
        store_note(&format!("{journal_bytes} journal bytes")),
    );
    report.metric(
        "store.snapshot_ms",
        s.snapshot_ms,
        "ms",
        store_note(&format!(
            "median of {SNAPSHOT_COMMITS} Store::commit_snapshot"
        )),
    );
    report.metric(
        "store.snapshot_bytes",
        n(s.snapshot_bytes),
        "B",
        store_note("the run's last snapshot"),
    );
    report.metric(
        "store.open_ms",
        s.open_ms,
        "ms",
        store_note("Store::open over the run's journal and snapshot"),
    );
    let merge_t = get(&layer_t, "merge.push_pop");
    report.metric(
        "merge.ns_per_event",
        merge_t.self_ns_per_work(),
        "ns",
        if merge_t.work == 0 {
            zero()
        } else {
            "WatermarkMerger::push + advance + pop_ready".to_string()
        },
    );
    report.metric(
        "aggregator.polls",
        n(traced.aggregator_polls),
        "count",
        String::new(),
    );
    report.metric(
        "aggregator.reconnects",
        n(traced.aggregator_reconnects),
        "count",
        String::new(),
    );
    report.metric(
        "ring.shard_skew",
        traced.shard_skew,
        "ratio",
        "max machines per shard over the mean".to_string(),
    );
    let mut late = traced.late_ms.clone();
    let late_q = stats::quantile(&mut late, 0.99);
    report.metric(
        "loadgen.late_p99_ms",
        late_q.map_or(0.0, |q| q.value),
        "ms",
        late_q.map_or_else(zero, |q| quantile_note(&q)),
    );
    report.metric(
        "trace.ingest_rps",
        traced.ingest_rps(),
        "1/s",
        "traced served round".to_string(),
    );
    report.metric(
        "trace.untraced_ingest_rps",
        untraced.ingest_rps(),
        "1/s",
        "untraced round in the same process".to_string(),
    );
    report.metric(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.ingest_rps() / untraced.ingest_rps().max(1e-9)),
        "%",
        "ingest_rps lost to tracing".to_string(),
    );
    match &single {
        Some((single_round, single_spans)) => {
            let (excl, incl) = topology_gap(
                &traced,
                &served_t,
                single_round,
                &trace::totals(single_spans),
                &mut report.notes,
            );
            report.metric(
                "topology.single_ingest_rps",
                single_round.ingest_rps(),
                "1/s",
                "the same feeds through one server, two connections".to_string(),
            );
            report.metric(
                "topology.rps_ratio_excl_memsim",
                excl,
                "ratio",
                "cluster over single server, feed simulation outside the wall".to_string(),
            );
            report.metric(
                "topology.rps_ratio_incl_memsim",
                incl,
                "ratio",
                "cluster over single server, feed simulation inside the wall".to_string(),
            );
        }
        None => {
            for (name, unit) in [
                ("topology.single_ingest_rps", "1/s"),
                ("topology.rps_ratio_excl_memsim", "ratio"),
                ("topology.rps_ratio_incl_memsim", "ratio"),
            ] {
                report.metric(name, 0.0, unit, zero());
            }
        }
    }

    let stem = format!("{}-seed{}", w.name, seed);
    let io = |e: std::io::Error| Error::Io(format!("writing trace output: {e}"));
    trace::write_spans(&out_dir.join(format!("spans-served-{stem}.tsv")), &served).map_err(io)?;
    trace::write_spans(
        &out_dir.join(format!("spans-layers-{stem}.tsv")),
        &layer_spans,
    )
    .map_err(io)?;
    write_layer_table(&out_dir.join(format!("layers-{stem}.json")), ctx, &report).map_err(io)?;
    report.notes.push(format!(
        "spans and the per-layer table are in {}/*-{stem}.*",
        out_dir.display()
    ));
    Ok(report)
}

/// Encodes every plan item as the client would, then decodes the wire
/// stream in socket-sized chunks as the server would. Returns the wire
/// bytes and records.
fn codec(w: &Workload, feeds: &[Feed], plan: &Plan) -> Result<(u64, u64)> {
    let max_frame = ServeConfig::from_fleet(&w.fleet_config()).max_frame_bytes;
    let max_span =
        ((max_frame as usize).saturating_sub(COLUMN_HEADER_BYTES) / COLUMN_RECORD_BYTES).max(1);
    let mut wire: Vec<u8> = Vec::new();
    let mut enc: Vec<u8> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut seq = 0u64;
    let mut records = 0u64;
    for item in plan.conns.iter().flatten() {
        match item {
            Item::Records(recs) => {
                seq += 1;
                {
                    let _span = trace::span("codec.encode", recs.len() as u64);
                    encode_batch_frame_into(seq, recs, &mut enc);
                }
                wire.extend_from_slice(&enc);
                records += recs.len() as u64;
            }
            &Item::Column { feed, start, end } => {
                let f = &feeds[feed];
                let times = &f.times[start..end];
                let values = &f.values[start..end];
                let code = counter_code(w.counter);
                columnar_spans(times, max_span, &mut spans);
                for &(s, len) in &spans {
                    seq += 1;
                    {
                        let _span = trace::span("codec.encode", len as u64);
                        encode_columnar_frame_into(
                            seq,
                            f.id,
                            code,
                            &times[s..s + len],
                            &values[s..s + len],
                            &mut enc,
                        )
                        .map_err(Error::Io)?;
                    }
                    wire.extend_from_slice(&enc);
                }
                records += times.len() as u64;
            }
            Item::Done(_) => {}
        }
    }
    let mut dec = FrameDecoder::new(max_frame);
    let mut decoded = 0u64;
    for chunk in wire.chunks(DECODE_CHUNK) {
        let mut span = trace::span("codec.decode", 0);
        dec.feed(chunk);
        let mut n = 0u64;
        while let Some(payload) = dec
            .next_payload_ref()
            .map_err(|c| Error::Io(format!("decode: {}", c.reason)))?
        {
            match Frame::decode_payload(payload).map_err(Error::Io)? {
                Frame::Batch { records, .. } => n += records.len() as u64,
                Frame::BatchColumnar { values, .. } => n += values.len() as u64,
                _ => {}
            }
        }
        span.set_work(n);
        decoded += n;
    }
    if decoded != records {
        return Err(Error::Io(format!(
            "codec round trip lost records: {decoded} decoded of {records} encoded"
        )));
    }
    Ok((wire.len() as u64, records))
}

/// Items of every connection, interleaved one item per connection in
/// turn — the order a server sees two concurrent feeders in.
fn interleaved(plan: &Plan) -> impl Iterator<Item = &Item> {
    let longest = plan.conns.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(move |i| plan.conns.iter().filter_map(move |items| items.get(i)))
}

/// The serve engine with no socket: a memory-only [`Server`] used as an
/// [`IngestSink`], fed the plan's records and columns.
fn engine(
    w: &Workload,
    plan: &Plan,
    feeds: &[Feed],
    reference: &[ServeEvent],
    problems: &mut Vec<String>,
) -> Result<()> {
    let mut cfg = ServeConfig::from_fleet(&w.fleet_config());
    cfg.expected_machines = Some(w.machines as u64);
    let mut server = Server::bind("127.0.0.1:0", cfg)?;
    for item in interleaved(plan) {
        let _span = trace::span("server.ingest", item.records());
        match item {
            Item::Records(recs) => {
                for rec in recs {
                    let counter = counter_from_code(rec.counter)
                        .ok_or_else(|| Error::Io(format!("bad counter code {}", rec.counter)))?;
                    server.ingest_record(rec.machine_id, counter, rec.time_secs, rec.value)?;
                }
            }
            &Item::Column { feed, start, end } => {
                let f = &feeds[feed];
                server.ingest_column(
                    f.id,
                    w.counter,
                    &f.times[start..end],
                    &f.values[start..end],
                )?;
            }
            &Item::Done(id) => server.machine_done(id)?,
        }
    }
    let report = server.shutdown();
    if encode_events(&report.events) != encode_events(reference) {
        problems.push(format!(
            "socket-less engine history diverged from the reference ({} vs {} events)",
            report.events.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// One fresh [`SampleGate`] per stream; returns samples dropped.
fn gate(w: &Workload, feeds: &[Feed]) -> Result<u64> {
    let cfg = w.fleet_config().gate;
    let mut dropped = 0u64;
    for feed in feeds {
        let mut gate = SampleGate::new(cfg)?;
        {
            let _span = trace::span("gate.push", feed.values.len() as u64);
            for (&time_secs, &value) in feed.times.iter().zip(&feed.values) {
                black_box(gate.push(StreamSample { time_secs, value }));
            }
        }
        let c = gate.counters();
        dropped += c.dropped_non_finite + c.dropped_out_of_order;
    }
    Ok(dropped)
}

/// The whole per-machine pipeline on one thread, fed in the columnar
/// chunk pattern.
fn pipeline(
    w: &Workload,
    feeds: &[Feed],
    reference: &[ServeEvent],
    problems: &mut Vec<String>,
) -> Result<()> {
    let events = fleet::reference(w, feeds)?;
    if encode_events(&events) != encode_events(reference) {
        problems.push(format!(
            "single-threaded pipeline history diverged from the reference ({} vs {} events)",
            events.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// Every configured detector, fresh per stream, pushed sample by sample.
fn detectors(w: &Workload, feeds: &[Feed]) -> Result<()> {
    for det in &w.fleet_config().detectors {
        let name = match det.spec {
            DetectorSpec::Trend(_) => "detector.trend",
            DetectorSpec::Holder(_) => "detector.holder",
            DetectorSpec::Spectrum(_) => "detector.spectrum",
            _ => continue,
        };
        for feed in feeds {
            let mut detector = StreamingDetector::new(&det.spec)?;
            let _span = trace::span(name, feed.values.len() as u64);
            for &v in &feed.values {
                black_box(detector.push(v)?);
            }
        }
    }
    Ok(())
}

/// The aggregator's k-way merge over the reference split into per-shard
/// streams, repeated until [`MIN_MERGE_EVENTS`] events were merged.
fn merge(plan: &Plan, reference: &[ServeEvent], problems: &mut Vec<String>) {
    let shards = plan.conns.len();
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (k, e) in reference.iter().enumerate() {
        streams[plan.conn_of_machine[&e.machine_id]].push(k);
    }
    let reps = MIN_MERGE_EVENTS.div_ceil(reference.len().max(1));
    for _ in 0..reps {
        let mut merger: WatermarkMerger<usize> = WatermarkMerger::new(shards);
        let mut cursors = vec![0usize; shards];
        let mut popped: Vec<usize> = Vec::with_capacity(reference.len());
        while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len()) {
            for shard in 0..shards {
                let stream = &streams[shard];
                let from = cursors[shard];
                if from >= stream.len() {
                    continue;
                }
                let to = (from + MERGE_CHUNK).min(stream.len());
                let _span = trace::span("merge.push_pop", (to - from) as u64);
                for (pos, &k) in stream.iter().enumerate().take(to).skip(from) {
                    let e = &reference[k];
                    merger.push(
                        MergeKey {
                            time_secs: e.time_secs,
                            lane: e.machine_id,
                            seq: pos as u64,
                        },
                        k,
                    );
                }
                cursors[shard] = to;
                // Promise only what the shard cannot undercut: everything
                // strictly before its next unsent event.
                let last = reference[stream[to - 1]].time_secs;
                match stream.get(to) {
                    None => {
                        merger.finish(shard);
                    }
                    Some(&next) if reference[next].time_secs > last => {
                        merger.advance(shard, last);
                    }
                    Some(_) => {}
                }
                while let Some(k) = merger.pop_ready() {
                    popped.push(k);
                }
            }
        }
        for shard in 0..shards {
            merger.finish(shard);
        }
        while let Some(k) = merger.pop_ready() {
            popped.push(k);
        }
        if !popped.iter().copied().eq(0..reference.len()) {
            problems.push("watermark merge reordered the reference history".to_string());
            return;
        }
    }
}

/// Store layer figures from the run's store.
#[derive(Debug, Clone, Copy, Default)]
struct StoreFigures {
    open_ms: f64,
    snapshot_ms: f64,
    snapshot_bytes: u64,
}

/// Opens the run's store as the drive left it, then replays its journal
/// entries and snapshot blob into a fresh store, timing appends and
/// commits.
fn store_layer(w: &Workload, kept: &Path, out_dir: &Path) -> Result<StoreFigures> {
    let serr = |e: aging_store::StoreError| Error::Io(format!("store: {e}"));
    let t = Instant::now();
    let (store, recovery) = Store::open(round::store_config(w, kept)).map_err(serr)?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(store);
    let _ = std::fs::remove_dir_all(kept);

    let fresh = out_dir.join(format!("store-layer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fresh);
    let (mut store, _) = Store::open(round::store_config(w, &fresh)).map_err(serr)?;
    let entries = &recovery.entries;
    let mut appended = 0usize;
    while !entries.is_empty() && appended < MIN_APPENDS {
        for entry in entries {
            let _span = trace::span("store.append", 1);
            store.append(&entry.payload).map_err(serr)?;
        }
        appended += entries.len();
    }
    let blob = recovery.snapshot.clone().unwrap_or_default();
    let mut commits = Vec::with_capacity(SNAPSHOT_COMMITS);
    if !blob.is_empty() {
        for _ in 0..SNAPSHOT_COMMITS {
            let t = Instant::now();
            store.commit_snapshot(&blob).map_err(serr)?;
            commits.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&fresh);
    Ok(StoreFigures {
        open_ms,
        snapshot_ms: stats::median(&commits).unwrap_or(0.0),
        snapshot_bytes: blob.len() as u64,
    })
}

/// Prints the cluster-vs-single comparison per layer and returns the
/// cluster/single `ingest_rps` ratio without and with feed simulation
/// inside the wall.
fn topology_gap(
    cluster: &Round,
    cluster_t: &BTreeMap<&'static str, LayerTotals>,
    single: &Round,
    single_t: &BTreeMap<&'static str, LayerTotals>,
    notes: &mut Vec<String>,
) -> (f64, f64) {
    let per_record = |t: &BTreeMap<&'static str, LayerTotals>, name: &str, records: u64| {
        t.get(name)
            .map_or(0.0, |l| l.self_ns as f64 / records.max(1) as f64)
    };
    notes.push(format!(
        "{:<28} {:>14} {:>14} {:>12}",
        "layer (ns/record)", "single server", "2-shard", "difference"
    ));
    let mut row = |name: &str, s: f64, c: f64| {
        notes.push(format!("{name:<28} {s:>14.1} {c:>14.1} {:>12.1}", c - s));
    };
    for name in ["memsim.gen", "client.send", "client.flush", "client.query"] {
        row(
            name,
            per_record(single_t, name, single.accepted),
            per_record(cluster_t, name, cluster.accepted),
        );
    }
    let bind = |t: &BTreeMap<&'static str, LayerTotals>, records: u64| {
        per_record(t, "server.bind", records) + per_record(t, "cluster.launch", records)
    };
    row(
        "bind/launch",
        bind(single_t, single.accepted),
        bind(cluster_t, cluster.accepted),
    );
    let wall = |r: &Round| r.wall_s * 1e9 / r.accepted.max(1) as f64;
    row("timed wall", wall(single), wall(cluster));
    let gen = |r: &Round| r.gen_s.unwrap_or(0.0);
    let with_gen = |r: &Round| (r.wall_s + gen(r)) * 1e9 / r.accepted.max(1) as f64;
    row(
        "timed wall + memsim.gen",
        with_gen(single),
        with_gen(cluster),
    );
    let excl = cluster.ingest_rps() / single.ingest_rps().max(1e-9);
    let rps_incl = |r: &Round| r.accepted as f64 / (r.wall_s + gen(r)).max(1e-9);
    let incl = rps_incl(cluster) / rps_incl(single).max(1e-9);
    notes.push(format!(
        "ingest_rps gap: 2-shard / single = {excl:.3} with feed simulation outside the wall, \
         {incl:.3} with it inside (as the old fleet drive timed it)"
    ));
    (excl, incl)
}

/// Writes the context and every per-layer metric as one JSON object, so
/// traced runs of different workloads can be set side by side.
fn write_layer_table(path: &Path, ctx: &Context, report: &Report) -> std::io::Result<()> {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                json_string(m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_string(m.unit),
                json_string(&m.note)
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"context\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        ctx.to_json(),
        metrics.join(",\n")
    );
    std::fs::write(path, body)
}

fn wire_mode_name(mode: WireMode) -> &'static str {
    match mode {
        WireMode::Records => "v1 record batches",
        WireMode::Columns => "v2 columnar frames",
    }
}
