//! The benchmark's own load generator: replays a connection's send plan
//! through a [`ServeClient`], recording raw per-batch ack latencies,
//! per-item send instants and alarm first-sighting instants.
//!
//! Closed loop: the next item goes out as soon as the client's credit
//! window allows, and a batch is *due* when the feeder is ready to send
//! it. Open loop: every record batch has a due instant on a fixed-rate
//! schedule, the feeder sleeps until it, sends, and waits for the ack,
//! so a stall delays later batches and shows in their latency.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use aging_serve::protocol::{counter_code, ServeEvent};
use aging_serve::ServeClient;
use aging_stream::{Error, Result};

use crate::fleet::{Feed, Item, Workload};
use crate::trace;

/// How long a closed-loop feeder that ran ahead yields before blocking.
const LOCKSTEP_SPIN: Duration = Duration::from_millis(2);

/// Keeps closed-loop feeders within a window of each other in simulated
/// time, as a real fleet's machines report in step: without it two
/// unthrottled feeders drift apart at random, and every alarm waits for
/// the lagging one to pass its time before release.
///
/// A feeder that runs ahead yields its CPU for up to [`LOCKSTEP_SPIN`],
/// then blocks on a condition variable. Most waits end within the spin.
/// Blocking at once made every wait pay a thread wake-up: on a 2-vCPU
/// virtual machine, `cluster-merge` then read 239k against 270k records/s
/// (medians of four seeds).
#[derive(Debug)]
pub struct Lockstep<'a> {
    window_secs: f64,
    /// `starts[c][i]`: start time of feeder `c`'s item `i`.
    starts: &'a [Vec<f64>],
    /// Per feeder: start time of the item it is about to send, `+inf`
    /// once it is done.
    at: Mutex<Vec<f64>>,
    /// Signalled whenever a feeder's position moves.
    moved: Condvar,
}

impl<'a> Lockstep<'a> {
    /// Feeders start at their first items' times.
    pub fn new(starts: &'a [Vec<f64>], window_secs: f64) -> Lockstep<'a> {
        Lockstep {
            window_secs,
            starts,
            at: Mutex::new(
                starts
                    .iter()
                    .map(|s| s.first().copied().unwrap_or(f64::INFINITY))
                    .collect(),
            ),
            moved: Condvar::new(),
        }
    }

    fn positions(&self) -> MutexGuard<'_, Vec<f64>> {
        self.at.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `start` as feeder `me`'s position and wakes the others.
    fn set(&self, me: usize, start: f64) -> MutexGuard<'_, Vec<f64>> {
        let mut at = self.positions();
        at[me] = start;
        self.moved.notify_all();
        at
    }

    /// Records the start of feeder `me`'s item `item` as its position,
    /// then waits until no other feeder is more than the window behind.
    fn advance(&self, me: usize, item: usize) {
        let start = self.starts[me][item];
        let mut at = self.set(me, start);
        let spin_until = Instant::now() + LOCKSTEP_SPIN;
        loop {
            let slowest = at
                .iter()
                .enumerate()
                .filter(|&(c, _)| c != me)
                .map(|(_, &t)| t)
                .fold(f64::INFINITY, f64::min);
            if start <= slowest + self.window_secs {
                return;
            }
            if Instant::now() < spin_until {
                drop(at);
                std::thread::yield_now();
                at = self.positions();
                continue;
            }
            at = self.moved.wait(at).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Marks a feeder done when dropped, even on an error path, so the
/// others never wait on it.
struct Finished<'a, 'b>(&'a Lockstep<'b>, usize);

impl Drop for Finished<'_, '_> {
    fn drop(&mut self) {
        drop(self.0.set(self.1, f64::INFINITY));
    }
}

/// Gives up on an alarm reader that never sees the full history.
const READ_DEADLINE: Duration = Duration::from_secs(30);

/// What one feeder connection observed.
#[derive(Debug)]
pub struct FeedOutcome {
    /// Instant each plan item finished sending (`None`: never sent).
    pub sent_at: Vec<Option<Instant>>,
    /// Records sent.
    pub records_sent: u64,
    /// Records the server acked as accepted.
    pub records_accepted: u64,
    /// Advisory `Busy` frames received.
    pub busy_frames: u64,
    /// Per batch frame: ms from due to ack.
    pub ack_ms: Vec<f64>,
    /// Open loop: ms the generator woke after each batch's due instant.
    pub late_ms: Vec<f64>,
    /// Open loop: ms spent in each post-send flush.
    pub flush_ms: Vec<f64>,
    /// When the server answered the session's closing `Bye`.
    pub last_ack: Instant,
    /// Alarm events first seen by this connection's polls, in history
    /// order starting at index 0 of its server's history.
    pub seen: Vec<(ServeEvent, Instant)>,
}

/// Frames sent but not yet known to be acked: `(seq, due)`.
struct Inflight {
    frames: u64,
    pending: VecDeque<(u64, Instant)>,
}

impl Inflight {
    fn sent(&mut self, frames: u64, due: Instant) {
        for _ in 0..frames {
            self.frames += 1;
            self.pending.push_back((self.frames, due));
        }
    }

    /// Moves every frame the client no longer holds unacked into
    /// `ack_ms`, stamping it with `now`.
    fn reap(&mut self, client: &ServeClient, ack_ms: &mut Vec<f64>) {
        if self.pending.is_empty() {
            return;
        }
        let oldest_unacked = client.unacked_seqs().first().copied().unwrap_or(u64::MAX);
        let now = Instant::now();
        while let Some(&(seq, due)) = self.pending.front() {
            if seq >= oldest_unacked {
                break;
            }
            ack_ms.push(ms_between(due, now));
            self.pending.pop_front();
        }
    }
}

/// Milliseconds from `from` to `to`, clamped at zero.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Sends one plan item; returns the frames it produced.
fn send_item(client: &mut ServeClient, w: &Workload, feeds: &[Feed], item: &Item) -> Result<u64> {
    match item {
        Item::Records(recs) => {
            let _span = trace::span("client.send", recs.len() as u64);
            client.send_batch(recs)?;
            Ok(1)
        }
        &Item::Column { feed, start, end } => {
            let _span = trace::span("client.send", (end - start) as u64);
            let f = &feeds[feed];
            client.send_column(
                f.id,
                counter_code(w.counter),
                &f.times[start..end],
                &f.values[start..end],
            )
        }
        &Item::Done(id) => {
            client.machine_done(id)?;
            Ok(0)
        }
    }
}

/// Replays connection `me`'s `items` closed loop, in step with the other
/// feeders through `lockstep`. When `poll` is set, the connection also
/// reads its server's alarm history at that interval between sends.
///
/// # Errors
///
/// Propagates connection and protocol failures.
pub fn feed_closed(
    addr: SocketAddr,
    w: &Workload,
    feeds: &[Feed],
    items: &[Item],
    lockstep: &Lockstep<'_>,
    me: usize,
    poll: Option<Duration>,
) -> Result<FeedOutcome> {
    let _finished = Finished(lockstep, me);
    let mut client = ServeClient::connect(addr, "perfbench-feeder")?;
    let mut out = FeedOutcome::new(items.len());
    let mut inflight = Inflight {
        frames: 0,
        pending: VecDeque::new(),
    };
    let mut next_poll = Instant::now();
    for (i, item) in items.iter().enumerate() {
        if let Some(interval) = poll {
            if Instant::now() >= next_poll {
                poll_once(&mut client, &mut out.seen)?;
                next_poll = Instant::now() + interval;
            }
        }
        lockstep.advance(me, i);
        let due = Instant::now();
        let frames = send_item(&mut client, w, feeds, item)?;
        out.sent_at[i] = Some(Instant::now());
        out.records_sent += item.records();
        inflight.sent(frames, due);
        inflight.reap(&client, &mut out.ack_ms);
    }
    {
        let _span = trace::span("client.flush", 0);
        client.flush()?;
    }
    inflight.reap(&client, &mut out.ack_ms);
    out.finish(client)
}

/// Replays `items` open loop at `rate` records per second from `start`,
/// waiting for each batch's ack before the next is due.
///
/// # Errors
///
/// Propagates connection and protocol failures.
pub fn feed_open(
    addr: SocketAddr,
    w: &Workload,
    feeds: &[Feed],
    items: &[Item],
    rate: f64,
    start: Instant,
) -> Result<FeedOutcome> {
    let mut client = ServeClient::connect(addr, "perfbench-paced")?;
    let mut out = FeedOutcome::new(items.len());
    let mut scheduled = 0u64;
    for (i, item) in items.iter().enumerate() {
        let records = item.records();
        if records == 0 {
            send_item(&mut client, w, feeds, item)?;
            out.sent_at[i] = Some(Instant::now());
            continue;
        }
        let due = start + Duration::from_secs_f64(scheduled as f64 / rate);
        scheduled += records;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.late_ms.push(ms_between(due, Instant::now()));
        send_item(&mut client, w, feeds, item)?;
        out.sent_at[i] = Some(Instant::now());
        out.records_sent += records;
        let flush_started = Instant::now();
        {
            let _span = trace::span("client.flush", records);
            client.flush()?;
        }
        let acked = Instant::now();
        out.flush_ms.push(ms_between(flush_started, acked));
        out.ack_ms.push(ms_between(due, acked));
    }
    out.finish(client)
}

impl FeedOutcome {
    fn new(items: usize) -> FeedOutcome {
        FeedOutcome {
            sent_at: vec![None; items],
            records_sent: 0,
            records_accepted: 0,
            busy_frames: 0,
            ack_ms: Vec::new(),
            late_ms: Vec::new(),
            flush_ms: Vec::new(),
            last_ack: Instant::now(),
            seen: Vec::new(),
        }
    }

    /// Closes the session. `Bye` is answered only once the server has
    /// processed every frame before it, done markers included, so its
    /// answer is the feeder's last ack.
    fn finish(mut self, client: ServeClient) -> Result<FeedOutcome> {
        self.records_accepted = client.records_accepted();
        self.busy_frames = client.busy_frames();
        client.bye()?;
        self.last_ack = Instant::now();
        Ok(self)
    }
}

/// One `QueryAlarms` round trip from the caller's cursor; new events are
/// stamped with the reply's arrival instant.
fn poll_once(client: &mut ServeClient, seen: &mut Vec<(ServeEvent, Instant)>) -> Result<()> {
    let _span = trace::span("client.query", 0);
    let (_total, chunk) = client.query_alarms(seen.len() as u64)?;
    let now = Instant::now();
    seen.extend(chunk.into_iter().map(|e| (e, now)));
    Ok(())
}

/// Reads the alarm history over `client` at `interval` until it holds
/// `expected` events, stamping each event's first sighting. Run beside
/// the feeders it measures visibility; run after them on a connection
/// opened before the drive it is the drain reader, and returns as soon
/// as the history is complete.
///
/// # Errors
///
/// Propagates connection failures, and fails when the history is still
/// short of `expected` after [`READ_DEADLINE`].
pub fn read_alarms(
    mut client: ServeClient,
    interval: Duration,
    expected: usize,
) -> Result<Vec<(ServeEvent, Instant)>> {
    let mut seen = Vec::with_capacity(expected);
    let started = Instant::now();
    loop {
        poll_once(&mut client, &mut seen)?;
        if seen.len() >= expected {
            break;
        }
        if started.elapsed() > READ_DEADLINE {
            return Err(Error::Io(format!(
                "alarm reader saw {} of {expected} events before its deadline",
                seen.len()
            )));
        }
        std::thread::sleep(interval);
    }
    client.bye()?;
    Ok(seen)
}
