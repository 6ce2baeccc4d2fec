//! The race-detection service: TCP ingest with backpressure, deadlines,
//! overload shedding, quarantine, and graceful drain — on a
//! readiness-based reactor.
//!
//! ## Thread model
//!
//! One **event loop** thread owns the listener, every connection socket
//! (nonblocking), the [`crate::reactor::Selector`], and a
//! [`crate::reactor::TimerWheel`] for progress deadlines, write stalls
//! and close-linger timers. It accepts, reads, frames, enforces the
//! session protocol, and writes responses; it never blocks on a socket
//! and never decodes an event. N **shard workers** (N ≈ cores) own the
//! `ScordDetector` instances; each connection is pinned to one shard, so
//! the hot detection path takes no locks. Thread count is `1 + shards`,
//! independent of connection count — ten thousand idle sessions cost fds
//! and a few hundred bytes each, not stacks and context switches.
//!
//! Loop → shard is a condvar-blocking mailbox (idle shards *block*, they
//! do not poll); shard → loop is a mutex inbox plus a
//! [`crate::reactor::Waker`]. Both directions are push-nonblocking, so
//! the two sides can never deadlock; boundedness comes from the
//! per-connection in-flight cap, not from queue capacity.
//!
//! ## Backpressure
//!
//! Each connection may have at most [`ServeConfig::queue_capacity`]
//! event batches in flight to its shard. At the cap the loop stops
//! decoding frames *and* drops read interest: the socket stops being
//! read, the kernel buffer fills, and TCP flow control stalls the
//! client. Shard acks decrement the count and resume ingest. Responses
//! queue in a per-connection outbox flushed under `EPOLLOUT` interest; a
//! client that stops draining responses for
//! [`ServeConfig::write_timeout`] is dropped.
//!
//! ## Sessions
//!
//! Every connection is a *session*: stream-scoped frames carrying any
//! number of traces — see [`crate::proto`] for the rules. A one-shot trace
//! is simply stream 0 followed by `Finish`. Only connections with an
//! unfinished trace are subject to the progress deadline: an idle session
//! (or a connection that has sent nothing but its header) parks for free,
//! which is what makes a mostly-idle swarm cheap, while a half-sent frame
//! is still reaped on schedule.
//!
//! ## Robustness contract (unchanged from the thread-per-connection
//! server; the adversarial suite is the spec)
//!
//! - **Deadlines**: a connection with an unfinished trace that completes
//!   no frame within [`ServeConfig::progress_deadline`] is reaped with a
//!   typed `deadline-exceeded` error, found via the timer wheel in
//!   O(expired), not O(connections).
//! - **Shedding**: past [`ServeConfig::max_connections`] live streams
//!   new clients get a typed `Busy` frame and a clean close.
//! - **Quarantine**: any wire violation or detector rejection draws a
//!   typed `Error` and closes *that* connection (with a short lingering
//!   half-close so the error outruns the RST); other streams share
//!   nothing with it and are unaffected.
//! - **Drain**: [`Server::shutdown`] (or SIGTERM via [`crate::signal`])
//!   stops accepting, stops reading, flushes a partial `StreamDone` for
//!   every open stream, closes connections that never sent work without a
//!   frame, and joins every thread before returning.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scord_core::wire::{self, Frame, FrameAssembler, FrameType};
use scord_core::{Detector, DetectorConfig, DetectorError, ScordDetector, TraceEvent};

use crate::proto::{self, Done, ErrorCode, Report};
use crate::reactor::{listener_fd, stream_fd, Interest, RawFd, Selector, TimerWheel, Waker};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Detector shard workers. Defaults to available parallelism, capped
    /// at 8 — detection is memory-bound well before that.
    pub shards: usize,
    /// Per-connection in-flight cap, in event batches: how many decoded
    /// batches may sit between the loop and the shard before the
    /// connection's socket stops being read.
    pub queue_capacity: usize,
    /// Upper bound on the event loop's sleep — how often it re-checks
    /// the shutdown flag even with no I/O and no armed timers.
    pub read_slice: Duration,
    /// A connection with an unfinished trace that completes no frame for
    /// this long is reaped. Idle sessions are exempt.
    pub progress_deadline: Duration,
    /// Ceiling on response-write stalls; a client that stops draining
    /// its responses for this long is dropped (the detector never blocks
    /// on a slow consumer).
    pub write_timeout: Duration,
    /// Overload watermark: live connections beyond this are shed with a
    /// typed `Busy` response.
    pub max_connections: usize,
    /// Per-frame payload ceiling passed to the wire decoder.
    pub max_frame: u32,
    /// Global-memory size handed to [`DetectorConfig::paper_default`]
    /// for each per-stream detector.
    pub detector_mem_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            queue_capacity: 32,
            read_slice: Duration::from_millis(50),
            progress_deadline: Duration::from_secs(5),
            write_timeout: Duration::from_secs(2),
            max_connections: 64,
            max_frame: wire::DEFAULT_MAX_FRAME,
            detector_mem_bytes: 1 << 20,
        }
    }
}

/// Monotonic counters describing everything the server has done — the
/// adversarial suite asserts on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections accepted into service.
    pub accepted: u64,
    /// Connections shed with `Busy` at the overload watermark.
    pub shed_busy: u64,
    /// Connections reaped by the progress deadline.
    pub reaped_deadline: u64,
    /// Connections quarantined for protocol violations or bad events.
    pub quarantined: u64,
    /// Connections that disconnected mid-stream (EOF before `Finish`).
    pub disconnected: u64,
    /// Streams completed normally (full `StreamDone` sent).
    pub completed: u64,
    /// Streams flushed with a partial `StreamDone` during drain.
    pub drained_partial: u64,
}

#[derive(Debug, Default)]
struct ServerStats {
    accepted: AtomicU64,
    shed_busy: AtomicU64,
    reaped_deadline: AtomicU64,
    quarantined: AtomicU64,
    disconnected: AtomicU64,
    completed: AtomicU64,
    drained_partial: AtomicU64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
            reaped_deadline: self.reaped_deadline.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            disconnected: self.disconnected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            drained_partial: self.drained_partial.load(Ordering::Relaxed),
        }
    }
}

// ---- loop ↔ shard plumbing -----------------------------------------------

/// Condvar-blocking unbounded mailbox (loop → shard). Unbounded is safe
/// because the loop enforces the per-connection in-flight cap before
/// pushing; blocking pop is the satellite fix for the old 500µs sleep
/// poll — an idle shard costs zero CPU.
struct Mailbox<T> {
    inner: Mutex<(VecDeque<T>, bool)>,
    cv: Condvar,
}

impl<T> Mailbox<T> {
    fn new() -> Mailbox<T> {
        Mailbox {
            inner: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, item: T) {
        let mut g = self.inner.lock().expect("mailbox poisoned");
        if g.1 {
            return; // closed: drop
        }
        g.0.push_back(item);
        drop(g);
        self.cv.notify_one();
    }

    /// Blocks for the next item; `None` once closed *and* empty (the
    /// backlog is always drained first, so queued `Drain` markers are
    /// honored).
    fn pop_blocking(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("mailbox poisoned");
        loop {
            if let Some(item) = g.0.pop_front() {
                return Some(item);
            }
            if g.1 {
                return None;
            }
            g = self.cv.wait(g).expect("mailbox poisoned");
        }
    }

    /// Non-blocking drain of up to `max` more items (ack batching).
    fn drain_into(&self, out: &mut Vec<T>, max: usize) {
        let mut g = self.inner.lock().expect("mailbox poisoned");
        for _ in 0..max {
            match g.0.pop_front() {
                Some(item) => out.push(item),
                None => break,
            }
        }
    }

    fn close(&self) {
        let mut g = self.inner.lock().expect("mailbox poisoned");
        g.1 = true;
        drop(g);
        self.cv.notify_all();
    }
}

/// Work handed from the event loop to a detector shard. Event payloads
/// travel undecoded — the loop never spends its cycles in
/// `decode_events`.
enum ShardItem {
    /// A `StreamEvents` frame payload, moved from the assembler: the
    /// `u32` stream id (checked and parsed into `stream`), then the packed
    /// events.
    StreamEvents { stream: u32, payload: Vec<u8> },
    /// `StreamFinish`: emit this stream's full report; session persists.
    StreamFinish { stream: u32 },
    /// Session-level `Finish` ("bye"): finalize remaining open streams,
    /// then close.
    Bye,
    /// Server drain: flush a partial report for every open stream, then
    /// close.
    Drain,
    /// The loop closed the socket; forget all state, emit nothing.
    Close,
}

struct ShardMsg {
    conn: u64,
    item: ShardItem,
}

/// Message from a shard back to the event loop.
enum LoopMsg {
    /// Append response bytes to the connection's outbox.
    Append { conn: u64, bytes: Vec<u8> },
    /// Final response bytes: flush, then close (optionally via a
    /// lingering half-close so the bytes outrun any RST).
    FinishConn {
        conn: u64,
        bytes: Vec<u8>,
        linger: bool,
    },
    /// In-flight batch acknowledgements `(conn, batches)`.
    Acks(Vec<(u64, u32)>),
}

/// Shard → loop inbox: a mutex'd vector plus the loop's waker. Pushes
/// never block, so a shard can never deadlock against a busy loop.
struct LoopInbox {
    msgs: Mutex<Vec<LoopMsg>>,
    waker: Waker,
}

impl LoopInbox {
    fn send(&self, batch: Vec<LoopMsg>) {
        if batch.is_empty() {
            return;
        }
        self.msgs.lock().expect("inbox poisoned").extend(batch);
        self.waker.wake();
    }

    fn take(&self) -> Vec<LoopMsg> {
        std::mem::take(&mut *self.msgs.lock().expect("inbox poisoned"))
    }
}

// ---- detection shards ----------------------------------------------------

fn apply_event(det: &mut ScordDetector, ev: &TraceEvent) -> Result<(), DetectorError> {
    match *ev {
        TraceEvent::Access(ref a) => det.on_access(a).map(|_| ()),
        TraceEvent::Fence {
            sm,
            warp_slot,
            scope,
        } => det.on_fence(sm, warp_slot, scope),
        TraceEvent::Barrier { sm, block_slot } => det.on_barrier(sm, block_slot),
        TraceEvent::WarpAssigned { sm, warp_slot } => det.on_warp_assigned(sm, warp_slot),
        TraceEvent::KernelBoundary => {
            det.on_kernel_boundary();
            Ok(())
        }
    }
}

fn frame_bytes(ftype: FrameType, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + wire::FRAME_OVERHEAD);
    wire::encode_frame(ftype, payload, &mut bytes);
    bytes
}

fn error_frame(code: ErrorCode, message: &str) -> Vec<u8> {
    frame_bytes(FrameType::Error, &proto::encode_error(code, message))
}

/// Classifies a wire error into the protocol error code sent back.
fn quarantine_code(err: &wire::WireError) -> ErrorCode {
    match err {
        wire::WireError::BadEvent { .. } => ErrorCode::BadEvent,
        wire::WireError::Truncated { .. } => ErrorCode::Truncated,
        _ => ErrorCode::Malformed,
    }
}

/// One detector plus its incremental-report watermark.
struct StreamDet {
    det: ScordDetector,
    reported_unique: usize,
}

impl StreamDet {
    fn new(mem_bytes: u64) -> StreamDet {
        StreamDet {
            det: ScordDetector::new(DetectorConfig::paper_default(mem_bytes)),
            reported_unique: 0,
        }
    }

    fn apply_all(&mut self, events: &[TraceEvent]) -> Result<(), DetectorError> {
        for ev in events {
            apply_event(&mut self.det, ev)?;
        }
        Ok(())
    }

    /// A [`Report`] whenever the unique-race count moved since the last.
    fn report_if_grown(&mut self) -> Option<Report> {
        let log = self.det.races();
        let unique = log.unique_count();
        if unique > self.reported_unique {
            self.reported_unique = unique;
            return Some(Report {
                unique: unique as u32,
                total: log.total_count(),
            });
        }
        None
    }

    fn done(&self, partial: bool) -> Done {
        let log = self.det.races();
        Done {
            partial,
            total: log.total_count(),
            races: log.unique_races().collect(),
        }
    }
}

/// Shard-side per-connection state: the open streams, or `Killed`, a
/// tombstone for a quarantined connection so work already in the mailbox
/// is discarded instead of resurrecting it; the loop's final `Close`
/// removes the tombstone.
enum ShardConn {
    Open(Vec<(u32, StreamDet)>),
    Killed,
}

struct ShardCtx<'a> {
    stats: &'a ServerStats,
    mem_bytes: u64,
    out: Vec<LoopMsg>,
    acks: Vec<(u64, u32)>,
}

impl ShardCtx<'_> {
    fn kill(&mut self, conns: &mut HashMap<u64, ShardConn>, conn: u64, code: ErrorCode, msg: &str) {
        conns.insert(conn, ShardConn::Killed);
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
        self.out.push(LoopMsg::FinishConn {
            conn,
            bytes: error_frame(code, msg),
            linger: true,
        });
    }

    /// Closes the connection after one `StreamDone` per stream, in id
    /// order, each counted as completed (or as drained when `partial`).
    fn finish_all(&mut self, conn: u64, mut streams: Vec<(u32, StreamDet)>, partial: bool) {
        let counter = if partial {
            &self.stats.drained_partial
        } else {
            &self.stats.completed
        };
        streams.sort_by_key(|(id, _)| *id);
        let mut bytes = Vec::new();
        for (stream, sd) in &streams {
            counter.fetch_add(1, Ordering::Relaxed);
            bytes.extend_from_slice(&frame_bytes(
                FrameType::StreamDone,
                &proto::encode_stream_done(*stream, &sd.done(partial)),
            ));
        }
        self.out.push(LoopMsg::FinishConn {
            conn,
            bytes,
            linger: false,
        });
    }
}

fn shard_loop(
    mailbox: &Mailbox<ShardMsg>,
    inbox: &LoopInbox,
    stats: &ServerStats,
    cfg: &ServeConfig,
) {
    let mut conns: HashMap<u64, ShardConn> = HashMap::new();
    let mut batch: Vec<ShardMsg> = Vec::new();
    loop {
        let Some(first) = mailbox.pop_blocking() else {
            return;
        };
        batch.push(first);
        mailbox.drain_into(&mut batch, 255);
        let mut ctx = ShardCtx {
            stats,
            mem_bytes: cfg.detector_mem_bytes,
            out: Vec::new(),
            acks: Vec::new(),
        };
        for msg in batch.drain(..) {
            shard_handle(&mut conns, msg, &mut ctx);
        }
        if !ctx.acks.is_empty() {
            let acks = std::mem::take(&mut ctx.acks);
            ctx.out.push(LoopMsg::Acks(acks));
        }
        inbox.send(ctx.out);
    }
}

fn shard_handle(conns: &mut HashMap<u64, ShardConn>, msg: ShardMsg, ctx: &mut ShardCtx<'_>) {
    let ShardMsg { conn, item } = msg;
    if let ShardItem::Close = item {
        conns.remove(&conn);
        return;
    }
    if matches!(conns.get(&conn), Some(ShardConn::Killed)) {
        return; // quarantined: discard queued work until the loop closes
    }
    match item {
        ShardItem::StreamEvents { stream, payload } => {
            ctx.acks.push((conn, 1));
            let ShardConn::Open(streams) = conns
                .entry(conn)
                .or_insert_with(|| ShardConn::Open(Vec::new()))
            else {
                return;
            };
            let sd = match streams.iter_mut().position(|(id, _)| *id == stream) {
                Some(at) => &mut streams[at].1,
                None => {
                    streams.push((stream, StreamDet::new(ctx.mem_bytes)));
                    &mut streams.last_mut().expect("just pushed").1
                }
            };
            match wire::decode_events(&payload[4..]) {
                Ok(events) => {
                    if let Err(err) = sd.apply_all(&events) {
                        ctx.kill(
                            conns,
                            conn,
                            ErrorCode::BadEvent,
                            &format!("detector rejected event: {err}"),
                        );
                        return;
                    }
                    if let Some(report) = sd.report_if_grown() {
                        ctx.out.push(LoopMsg::Append {
                            conn,
                            bytes: frame_bytes(
                                FrameType::StreamReport,
                                &proto::encode_stream_report(stream, &report),
                            ),
                        });
                    }
                }
                Err(err) => ctx.kill(conns, conn, quarantine_code(&err), &err.to_string()),
            }
        }
        ShardItem::StreamFinish { stream } => {
            let sd = match conns.get_mut(&conn) {
                Some(ShardConn::Open(streams)) => streams
                    .iter()
                    .position(|(id, _)| *id == stream)
                    .map(|at| streams.swap_remove(at).1),
                _ => None,
            }
            // Opened and finished with no events: an empty stream.
            .unwrap_or_else(|| StreamDet::new(ctx.mem_bytes));
            ctx.stats.completed.fetch_add(1, Ordering::Relaxed);
            ctx.out.push(LoopMsg::Append {
                conn,
                bytes: frame_bytes(
                    FrameType::StreamDone,
                    &proto::encode_stream_done(stream, &sd.done(false)),
                ),
            });
        }
        ShardItem::Bye | ShardItem::Drain => {
            let streams = match conns.remove(&conn) {
                Some(ShardConn::Open(streams)) => streams,
                _ => Vec::new(),
            };
            ctx.finish_all(conn, streams, matches!(item, ShardItem::Drain));
        }
        ShardItem::Close => unreachable!("handled above"),
    }
}

// ---- event loop ----------------------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;
/// How long a quarantined/shed connection lingers half-closed so its
/// final frame outruns the RST a hard close would send.
const LINGER: Duration = Duration::from_millis(500);
/// How long the loop stops accepting after a non-`WouldBlock` accept
/// error (e.g. transient `EMFILE`) instead of spinning on a
/// level-triggered listener.
const ACCEPT_PAUSE: Duration = Duration::from_millis(5);
const READ_CHUNK: usize = 64 * 1024;

fn token_of(slot: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | slot as u64
}

/// Connection lifecycle at the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Reading and forwarding frames.
    Streaming,
    /// Client's part is done (`Finish` seen) or the server is draining;
    /// reads stop, the shard's final bytes are on their way.
    AwaitFinal,
    /// Final bytes queued: close (or linger) once the outbox flushes.
    Flush { linger: bool },
    /// Write side shut; discard reads until EOF or the timer fires.
    Linger { until: Instant },
}

struct Conn {
    stream: TcpStream,
    fd: RawFd,
    gen: u32,
    asm: FrameAssembler,
    outbox: Vec<u8>,
    outbox_pos: usize,
    interest: Interest,
    registered: bool,
    inflight: usize,
    shard: usize,
    shard_known: bool,
    phase: Phase,
    open_ids: Vec<u32>,
    /// Lowest id a new stream may open with; `u64` so that finishing
    /// `u32::MAX` still moves it past every valid id.
    next_stream_min: u64,
    last_progress: Instant,
    write_blocked_since: Option<Instant>,
    armed: bool,
    counts_active: bool,
    read_open: bool,
}

impl Conn {
    fn token(&self, slot: usize) -> u64 {
        token_of(slot, self.gen)
    }

    /// Subject to the progress deadline? Only connections the client has
    /// left mid-trace: a half-received frame or open streams. Idle
    /// sessions and header-only connections park for free — that
    /// exemption is what lets a 10k idle swarm coexist with a sub-second
    /// deadline.
    fn reapable(&self) -> bool {
        self.phase == Phase::Streaming
            && (self.asm.pending_bytes() > 0 || !self.open_ids.is_empty())
    }

    /// Applies the strictly-increasing id rule to a stream named by a
    /// frame: `Ok(true)` if it is already open, `Ok(false)` if this frame
    /// opens it, and a quarantine if the id was used before.
    fn admit_stream(&mut self, stream: u32) -> Result<bool, Action> {
        if self.open_ids.contains(&stream) {
            return Ok(true);
        }
        if u64::from(stream) < self.next_stream_min {
            return Err(Action::Quarantine(
                ErrorCode::Malformed,
                format!("stream id {stream} reused (ids must be strictly increasing)"),
            ));
        }
        self.next_stream_min = u64::from(stream) + 1;
        Ok(false)
    }

    fn has_unflushed(&self) -> bool {
        self.outbox_pos < self.outbox.len()
    }

    /// The interest set this connection's state wants right now.
    fn desired_interest(&self, queue_capacity: usize) -> Interest {
        let readable = self.read_open
            && match self.phase {
                // Backpressure edge: at the in-flight cap the socket
                // stops being read entirely.
                Phase::Streaming => self.inflight < queue_capacity,
                Phase::AwaitFinal | Phase::Flush { .. } => false,
                Phase::Linger { .. } => true,
            };
        Interest {
            readable,
            writable: self.has_unflushed(),
        }
    }

    /// Earliest pending deadline, for the timer wheel.
    fn next_deadline(&self, cfg: &ServeConfig) -> Option<Instant> {
        let mut dl: Option<Instant> = None;
        let mut consider = |t: Instant| match dl {
            Some(cur) if cur <= t => {}
            _ => dl = Some(t),
        };
        if let Phase::Linger { until } = self.phase {
            consider(until);
        }
        if let Some(t) = self.write_blocked_since {
            consider(t + cfg.write_timeout);
        }
        if self.reapable() {
            consider(self.last_progress + cfg.progress_deadline);
        }
        dl
    }
}

/// What `decide` wants done with one client frame.
enum Action {
    /// Hand the item to the shard; `true` counts against the in-flight
    /// cap.
    Forward(ShardItem, bool),
    /// Hand the item to the shard and stop reading — the shard's reply
    /// ends the connection.
    Final(ShardItem),
    /// Protocol violation: quarantine with this code and message.
    Quarantine(ErrorCode, String),
}

/// Enforces the session state machine for one frame, updating the
/// connection's stream bookkeeping. Pure with respect to the loop — all
/// I/O consequences are in the returned [`Action`].
fn decide(conn: &mut Conn, frame: Frame) -> Action {
    let Frame { ftype, payload } = frame;
    match ftype {
        FrameType::Finish => {
            conn.open_ids.clear();
            Action::Final(ShardItem::Bye)
        }
        FrameType::StreamEvents => {
            let stream = match proto::split_stream_payload(&payload) {
                Ok((stream, _)) => stream,
                Err(err) => return Action::Quarantine(quarantine_code(&err), err.to_string()),
            };
            match conn.admit_stream(stream) {
                Ok(open) => {
                    if !open {
                        conn.open_ids.push(stream);
                    }
                    Action::Forward(ShardItem::StreamEvents { stream, payload }, true)
                }
                Err(action) => action,
            }
        }
        FrameType::StreamFinish => {
            let stream = match proto::decode_stream_finish(&payload) {
                Ok(stream) => stream,
                Err(err) => return Action::Quarantine(quarantine_code(&err), err.to_string()),
            };
            match conn.admit_stream(stream) {
                // Open-and-finish with no events is an empty stream.
                Ok(open) => {
                    if open {
                        conn.open_ids.retain(|id| *id != stream);
                    }
                    Action::Forward(ShardItem::StreamFinish { stream }, false)
                }
                Err(action) => action,
            }
        }
        other => Action::Quarantine(
            ErrorCode::Malformed,
            format!("{other:?} is not a session frame the server accepts"),
        ),
    }
}

struct EventLoop {
    cfg: ServeConfig,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    listener: Option<TcpListener>,
    lfd: RawFd,
    listener_registered: bool,
    listener_pause_until: Option<Instant>,
    selector: Selector,
    wheel: TimerWheel,
    inbox: Arc<LoopInbox>,
    mailboxes: Vec<Arc<Mailbox<ShardMsg>>>,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    active: usize,
    next_shard: usize,
    draining: bool,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn queue_cap(&self) -> usize {
        self.cfg.queue_capacity.max(1)
    }

    fn lookup(&self, token: u64) -> Option<usize> {
        let slot = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        match self.conns.get(slot) {
            Some(Some(conn)) if conn.gen == gen => Some(slot),
            _ => None,
        }
    }

    fn run(&mut self) {
        let mut events = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        loop {
            let now = Instant::now();
            if let Some(until) = self.listener_pause_until {
                if now >= until {
                    self.listener_pause_until = None;
                    self.register_listener();
                }
            }
            let mut timeout = self.cfg.read_slice;
            if let Some(tick) = self.wheel.next_tick(now) {
                timeout = timeout.min(tick.max(Duration::from_millis(1)));
            }
            if let Some(until) = self.listener_pause_until {
                timeout = timeout.min(until.saturating_duration_since(now));
            }
            self.selector
                .wait(&mut events, timeout)
                .expect("selector wait failed");
            let now = Instant::now();

            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_WAKER => {} // drained in process_inbox
                    TOKEN_LISTENER => {
                        if ev.readable {
                            self.accept_ready(now);
                        }
                    }
                    token => {
                        if let Some(slot) = self.lookup(token) {
                            if ev.writable {
                                self.flush_outbox(slot, now);
                            }
                        }
                        if let Some(slot) = self.lookup(token) {
                            if ev.readable || ev.error {
                                self.on_readable(slot, now);
                            }
                        }
                    }
                }
            }
            events = batch;

            self.process_inbox(now);

            self.wheel.advance(now, &mut fired);
            if !fired.is_empty() {
                let batch = std::mem::take(&mut fired);
                for token in &batch {
                    self.on_timer(*token, now);
                }
                fired = batch;
                fired.clear();
            }

            if !self.draining && self.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.live == 0 {
                return;
            }
        }
    }

    fn register_listener(&mut self) {
        if self.listener.is_some()
            && !self.listener_registered
            && self
                .selector
                .register(self.lfd, TOKEN_LISTENER, Interest::READABLE)
                .is_ok()
        {
            self.listener_registered = true;
        }
    }

    fn deregister_listener(&mut self) {
        if self.listener_registered {
            let _ = self.selector.deregister(self.lfd);
            self.listener_registered = false;
        }
    }

    // -- accept path -------------------------------------------------------

    fn accept_ready(&mut self, now: Instant) {
        loop {
            if self.draining {
                return;
            }
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.admit(stream, now),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. EMFILE). The listener
                    // is level-triggered, so back off explicitly instead
                    // of spinning.
                    self.deregister_listener();
                    self.listener_pause_until = Some(now + ACCEPT_PAUSE);
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Responses go out as separate small writes (a `StreamReport`,
        // then the `StreamDone`). With Nagle on, the second waits for the
        // ACK of the first, which a client blocked in `read` delays by
        // about 40 ms. A socket left with Nagle still works, only slower.
        let _ = stream.set_nodelay(true);
        let fd = stream_fd(&stream);
        let shed = self.active >= self.cfg.max_connections;
        let (outbox, phase, counts_active) = if shed {
            self.stats.shed_busy.fetch_add(1, Ordering::Relaxed);
            (
                frame_bytes(FrameType::Busy, &[]),
                Phase::Flush { linger: true },
                false,
            )
        } else {
            (Vec::new(), Phase::Streaming, true)
        };

        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let gen = self.gens[slot];
        let shard = self.next_shard;
        self.next_shard = (self.next_shard + 1) % self.mailboxes.len();
        let conn = Conn {
            stream,
            fd,
            gen,
            asm: FrameAssembler::new().with_max_frame(self.cfg.max_frame),
            outbox,
            outbox_pos: 0,
            interest: Interest::READABLE,
            registered: false,
            inflight: 0,
            shard,
            shard_known: false,
            phase,
            open_ids: Vec::new(),
            next_stream_min: 0,
            last_progress: now,
            write_blocked_since: None,
            armed: false,
            counts_active,
            read_open: true,
        };
        let interest = conn.desired_interest(self.queue_cap());
        let token = conn.token(slot);
        self.conns[slot] = Some(conn);
        if self.selector.register(fd, token, interest).is_err() {
            // Registration failed: give the slot back and drop the socket.
            self.conns[slot] = None;
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot);
            return;
        }
        {
            let conn = self.conns[slot].as_mut().expect("just inserted");
            conn.registered = true;
            conn.interest = interest;
        }
        self.live += 1;
        if counts_active {
            self.active += 1;
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        }
        if shed {
            // Try to get the Busy frame out immediately.
            self.flush_outbox(slot, now);
        }
    }

    // -- read path ---------------------------------------------------------

    fn on_readable(&mut self, slot: usize, now: Instant) {
        loop {
            let cap = self.queue_cap();
            let conn = self.conns[slot].as_mut().expect("live slot");
            let phase = conn.phase;
            match phase {
                Phase::Streaming => {
                    if conn.inflight >= cap || !conn.read_open {
                        break;
                    }
                    match conn.stream.read(&mut self.scratch) {
                        Ok(0) => {
                            self.disconnect(slot, now);
                            return;
                        }
                        Ok(n) => {
                            conn.asm.push(&self.scratch[..n]);
                            self.pump(slot, now);
                            if self.conns[slot].is_none() {
                                return;
                            }
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.stats.disconnected.fetch_add(1, Ordering::Relaxed);
                            self.close_conn(slot);
                            return;
                        }
                    }
                }
                Phase::AwaitFinal | Phase::Flush { .. } => {
                    // Reads are ignored but EOF is still tracked so a
                    // lingering close knows the peer is gone.
                    match conn.stream.read(&mut self.scratch) {
                        Ok(0) => {
                            conn.read_open = false;
                            self.set_interest(slot);
                            return;
                        }
                        Ok(_) => {}
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.read_open = false;
                            self.set_interest(slot);
                            return;
                        }
                    }
                }
                Phase::Linger { .. } => match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        self.close_conn(slot);
                        return;
                    }
                    Ok(_) => {}
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close_conn(slot);
                        return;
                    }
                },
            }
        }
        self.set_interest(slot);
        self.arm(slot);
    }

    /// Decodes and dispatches every complete frame the assembler holds,
    /// stopping at the in-flight cap (backpressure) or a phase change.
    fn pump(&mut self, slot: usize, now: Instant) {
        loop {
            let cap = self.queue_cap();
            let conn = self.conns[slot].as_mut().expect("live slot");
            if conn.phase != Phase::Streaming || conn.inflight >= cap {
                break;
            }
            match conn.asm.next_frame() {
                Ok(Some(frame)) => {
                    conn.last_progress = now;
                    match decide(conn, frame) {
                        Action::Forward(item, counted) => {
                            if counted {
                                conn.inflight += 1;
                            }
                            self.forward(slot, item);
                        }
                        Action::Final(item) => {
                            conn.phase = Phase::AwaitFinal;
                            self.forward(slot, item);
                        }
                        Action::Quarantine(code, msg) => {
                            self.quarantine(slot, code, &msg, now);
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    let code = quarantine_code(&err);
                    let msg = err.to_string();
                    self.quarantine(slot, code, &msg, now);
                    return;
                }
            }
        }
        self.set_interest(slot);
        self.arm(slot);
    }

    fn forward(&mut self, slot: usize, item: ShardItem) {
        let conn = self.conns[slot].as_mut().expect("live slot");
        conn.shard_known = true;
        let msg = ShardMsg {
            conn: conn.token(slot),
            item,
        };
        self.mailboxes[conn.shard].push(msg);
    }

    fn quarantine(&mut self, slot: usize, code: ErrorCode, msg: &str, now: Instant) {
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
        self.begin_close_frame(slot, error_frame(code, msg), true, now);
    }

    /// Mid-stream EOF or read error: typed `Truncated` best-effort, then
    /// close.
    fn disconnect(&mut self, slot: usize, now: Instant) {
        self.stats.disconnected.fetch_add(1, Ordering::Relaxed);
        {
            let conn = self.conns[slot].as_mut().expect("live slot");
            conn.read_open = false;
        }
        self.begin_close_frame(
            slot,
            error_frame(ErrorCode::Truncated, "connection closed before Finish"),
            false,
            now,
        );
    }

    /// Queues final bytes and moves the connection to `Flush`.
    fn begin_close_frame(&mut self, slot: usize, bytes: Vec<u8>, linger: bool, now: Instant) {
        {
            let conn = self.conns[slot].as_mut().expect("live slot");
            conn.outbox.extend_from_slice(&bytes);
            conn.phase = Phase::Flush { linger };
        }
        self.flush_outbox(slot, now);
    }

    // -- write path --------------------------------------------------------

    fn flush_outbox(&mut self, slot: usize, now: Instant) {
        loop {
            let conn = self.conns[slot].as_mut().expect("live slot");
            if !conn.has_unflushed() {
                break;
            }
            match conn.stream.write(&conn.outbox[conn.outbox_pos..]) {
                Ok(0) => {
                    self.on_write_failure(slot);
                    return;
                }
                Ok(n) => {
                    conn.outbox_pos += n;
                    conn.write_blocked_since = None;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conn.write_blocked_since.get_or_insert(now);
                    break;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.on_write_failure(slot);
                    return;
                }
            }
        }
        let conn = self.conns[slot].as_mut().expect("live slot");
        if !conn.has_unflushed() {
            conn.outbox.clear();
            conn.outbox_pos = 0;
            conn.write_blocked_since = None;
            if let Phase::Flush { linger } = conn.phase {
                if linger && conn.read_open {
                    // Half-close so the final frame is delivered, then
                    // discard whatever the client still had in flight.
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    conn.phase = Phase::Linger {
                        until: now + LINGER,
                    };
                } else {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        self.set_interest(slot);
        self.arm(slot);
    }

    fn on_write_failure(&mut self, slot: usize) {
        let streaming = {
            let conn = self.conns[slot].as_ref().expect("live slot");
            matches!(conn.phase, Phase::Streaming | Phase::AwaitFinal)
        };
        if streaming {
            // The client stopped taking responses mid-stream: that is a
            // disconnect, same as the reader-side EOF.
            self.stats.disconnected.fetch_add(1, Ordering::Relaxed);
        }
        self.close_conn(slot);
    }

    // -- inbox / timers ----------------------------------------------------

    fn process_inbox(&mut self, now: Instant) {
        self.inbox.waker.drain();
        let msgs = self.inbox.take();
        if msgs.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = Vec::new();
        let mut resumed: Vec<usize> = Vec::new();
        for msg in msgs {
            match msg {
                LoopMsg::Append { conn, bytes } => {
                    if let Some(slot) = self.lookup(conn) {
                        let c = self.conns[slot].as_mut().expect("live slot");
                        if matches!(c.phase, Phase::Streaming | Phase::AwaitFinal) {
                            c.outbox.extend_from_slice(&bytes);
                            touched.push(slot);
                        }
                    }
                }
                LoopMsg::FinishConn {
                    conn,
                    bytes,
                    linger,
                } => {
                    if let Some(slot) = self.lookup(conn) {
                        let c = self.conns[slot].as_mut().expect("live slot");
                        if matches!(c.phase, Phase::Streaming | Phase::AwaitFinal) {
                            c.outbox.extend_from_slice(&bytes);
                            c.phase = Phase::Flush { linger };
                            touched.push(slot);
                        }
                    }
                }
                LoopMsg::Acks(acks) => {
                    for (conn, n) in acks {
                        if let Some(slot) = self.lookup(conn) {
                            let c = self.conns[slot].as_mut().expect("live slot");
                            let was_paused = c.inflight >= self.cfg.queue_capacity.max(1);
                            c.inflight = c.inflight.saturating_sub(n as usize);
                            if was_paused && c.phase == Phase::Streaming {
                                resumed.push(slot);
                            }
                        }
                    }
                }
            }
        }
        for slot in resumed {
            if self.conns[slot].is_some() {
                // Frames may be waiting in the assembler: decode them
                // before (and regardless of) any new socket readiness.
                self.pump(slot, now);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            if self.conns[slot].is_some() {
                self.flush_outbox(slot, now);
            }
        }
    }

    fn on_timer(&mut self, token: u64, now: Instant) {
        let Some(slot) = self.lookup(token) else {
            return;
        };
        {
            let conn = self.conns[slot].as_mut().expect("live slot");
            conn.armed = false;
        }
        let conn = self.conns[slot].as_ref().expect("live slot");
        if let Phase::Linger { until } = conn.phase {
            if now >= until {
                self.close_conn(slot);
                return;
            }
        }
        if let Some(t) = conn.write_blocked_since {
            if now >= t + self.cfg.write_timeout {
                self.on_write_failure(slot);
                return;
            }
        }
        if conn.reapable()
            && now.saturating_duration_since(conn.last_progress) > self.cfg.progress_deadline
        {
            self.stats.reaped_deadline.fetch_add(1, Ordering::Relaxed);
            let msg = format!("no complete frame within {:?}", self.cfg.progress_deadline);
            self.quarantine_reap(slot, &msg, now);
            return;
        }
        self.arm(slot);
    }

    /// Deadline reap: typed error, lingering close. (Not counted as a
    /// quarantine — it has its own counter.)
    fn quarantine_reap(&mut self, slot: usize, msg: &str, now: Instant) {
        self.begin_close_frame(
            slot,
            error_frame(ErrorCode::DeadlineExceeded, msg),
            true,
            now,
        );
    }

    fn set_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if !conn.registered {
            return;
        }
        let want = conn.desired_interest(self.cfg.queue_capacity.max(1));
        if want != conn.interest {
            let token = conn.token(slot);
            let fd = conn.fd;
            conn.interest = want;
            let _ = self.selector.reregister(fd, token, want);
        }
    }

    fn arm(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.armed {
            return;
        }
        if let Some(deadline) = conn.next_deadline(&self.cfg) {
            let token = conn.token(slot);
            conn.armed = true;
            self.wheel.insert(token, deadline);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        if conn.registered {
            let _ = self.selector.deregister(conn.fd);
        }
        if conn.counts_active {
            self.active -= 1;
        }
        if conn.shard_known {
            self.mailboxes[conn.shard].push(ShardMsg {
                conn: token_of(slot, conn.gen),
                item: ShardItem::Close,
            });
        }
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        // `conn.stream` drops here, closing the fd.
    }

    // -- drain -------------------------------------------------------------

    fn begin_drain(&mut self) {
        self.draining = true;
        self.deregister_listener();
        self.listener = None;
        let slots: Vec<usize> = (0..self.conns.len())
            .filter(|&s| self.conns[s].is_some())
            .collect();
        for slot in slots {
            let conn = self.conns[slot].as_mut().expect("live slot");
            if conn.phase != Phase::Streaming {
                continue;
            }
            if !conn.shard_known {
                // Never forwarded work: nothing is in flight, so it closes
                // with no frame — no shard round-trip for an idle swarm.
                self.close_conn(slot);
            } else {
                conn.phase = Phase::AwaitFinal;
                self.forward(slot, ShardItem::Drain);
                self.set_interest(slot);
            }
        }
    }
}

// ---- server handle -------------------------------------------------------

/// A running race-detection server. Dropping it performs a graceful
/// drain, so tests cannot leak threads.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    inbox: Arc<LoopInbox>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    mailboxes: Vec<Arc<Mailbox<ShardMsg>>>,
}

impl Server {
    /// Binds, builds the reactor, and starts the event loop and shard
    /// workers.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from binding the listener or creating the
    /// selector/waker (`Unsupported` off Linux).
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut selector = Selector::new()?;
        let waker = Waker::new()?;
        let inbox = Arc::new(LoopInbox {
            msgs: Mutex::new(Vec::new()),
            waker,
        });
        let lfd = listener_fd(&listener);
        selector.register(lfd, TOKEN_LISTENER, Interest::READABLE)?;
        selector.register(inbox.waker.fd(), TOKEN_WAKER, Interest::READABLE)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let shards = cfg.shards.max(1);
        let mailboxes: Vec<Arc<Mailbox<ShardMsg>>> =
            (0..shards).map(|_| Arc::new(Mailbox::new())).collect();

        let workers = mailboxes
            .iter()
            .map(|mailbox| {
                let mailbox = Arc::clone(mailbox);
                let inbox = Arc::clone(&inbox);
                let stats = Arc::clone(&stats);
                let cfg = cfg.clone();
                std::thread::spawn(move || shard_loop(&mailbox, &inbox, &stats, &cfg))
            })
            .collect();

        let loop_thread = {
            let wheel = TimerWheel::for_deadline(cfg.progress_deadline, Instant::now());
            let mut event_loop = EventLoop {
                cfg,
                stats: Arc::clone(&stats),
                shutdown: Arc::clone(&shutdown),
                listener: Some(listener),
                lfd,
                listener_registered: true,
                listener_pause_until: None,
                selector,
                wheel,
                inbox: Arc::clone(&inbox),
                mailboxes: mailboxes.clone(),
                conns: Vec::new(),
                gens: Vec::new(),
                free: Vec::new(),
                live: 0,
                active: 0,
                next_shard: 0,
                draining: false,
                scratch: vec![0u8; READ_CHUNK],
            };
            std::thread::spawn(move || event_loop.run())
        };

        Ok(Server {
            addr,
            shutdown,
            stats,
            inbox,
            loop_thread: Some(loop_thread),
            workers,
            mailboxes,
        })
    }

    /// The bound address (with the OS-assigned port when `addr` used 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The drain flag; store `true` (e.g. from a signal watcher) to start
    /// a graceful shutdown without holding the server. The loop also
    /// polls it every [`ServeConfig::read_slice`], so a bare store (no
    /// waker) is still honored promptly.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Graceful drain: stop accepting, stop reading, flush a partial
    /// `StreamDone` for every open stream, join every thread. Returns the
    /// final counters.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked (the adversarial suite's
    /// "zero panics" assertion rides on this propagating).
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.drain();
        self.stats.snapshot()
    }

    fn drain(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.inbox.waker.wake();
        if let Some(h) = self.loop_thread.take() {
            h.join().expect("event loop panicked");
        }
        // The loop exits only after every connection resolved; closing
        // the mailboxes now lets workers finish their backlog and exit.
        for mailbox in &self.mailboxes {
            mailbox.close();
        }
        for h in self.workers.drain(..) {
            h.join().expect("shard worker panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.loop_thread.is_some() || !self.workers.is_empty() {
            self.drain();
        }
    }
}
