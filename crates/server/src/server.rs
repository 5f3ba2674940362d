//! The event-driven compression server.
//!
//! One nonblocking I/O thread multiplexes every connection through a
//! readiness [`Poller`] (epoll on Linux, poll(2) elsewhere — see the
//! `polling` shim): per-connection state machines reassemble frames
//! incrementally and drain write buffers as sockets allow, so thousands of
//! idle connections cost no threads. Validated requests pass admission
//! control — a **global in-flight budget** plus a per-connection cap, both
//! answered with typed `busy` — and enter a work-stealing scheduler
//! ([`WorkStealing`]): one deque per codec worker, owner LIFO at the bottom,
//! idle workers stealing FIFO from the top. Every request takes one path: it
//! is parsed once into a plan of independent parts (tiles or bricks) plus
//! an assembly step, and its parts go on its worker's own deque, so one
//! large image fans across every idle worker while the assembled bytes stay
//! identical to the sequential engine's. Completed responses ride a completion queue
//! back to the I/O thread, which wakes via [`Poller::notify`]. An optional
//! content-hash LRU cache answers repeated compress/decompress payloads
//! without touching the engine at all.

use crate::cache::ResponseCache;
use crate::conn::{ConnPhase, Connection, ReadResult};
use crate::error::ServerError;
use crate::frame::{into_frame, FrameEvent};
use crate::protocol::{
    ErrorCode, Frame, FrameHeader, Op, DEFAULT_MAX_PAYLOAD_BYTES, FRAME_HEADER_BYTES,
};
use crate::rawvol::{raw_volume_len, read_raw_volume, write_raw_volume};
use crate::sched::WorkStealing;
use crate::stats::{Metrics, SchedSnapshot, ServerStats};
use lwc_coder::{is_volume, LosslessCodec};
use lwc_image::pgm;
use lwc_image::{BrickRect, Image, TileRect};
use lwc_pipeline::{
    DecodePlan, EncodePlan, StreamEngine, TiledCompressor, VolumeCompressor, DEFAULT_BRICK_DEPTH,
    DEFAULT_TILE_SIZE,
};
use polling::{Event, Poller, NOTIFY_KEY};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Codec worker threads; `0` selects the machine's available parallelism.
    pub workers: usize,
    /// Global in-flight request budget: requests admitted and not yet
    /// answered, across all connections. `0` selects `4 x workers` (a few
    /// requests of lookahead per worker, like the paper's FIFOs hold a few
    /// rows per pipeline stage). The field keeps its historical name from
    /// the bounded-queue era so callers survive the switch.
    pub queue_depth: usize,
    /// Per-connection cap on admitted-but-unanswered requests; `0` selects
    /// 64 (twice the client library's pipeline window), so one connection
    /// cannot monopolize the global budget.
    pub conn_inflight: usize,
    /// Hot-response cache capacity in entries; `0` disables the cache.
    pub cache_entries: usize,
    /// Hot-response cache budget in bytes (request + response per entry);
    /// `0` selects 256 MiB when the cache is enabled.
    pub cache_bytes: usize,
    /// Decomposition depth used for `compress` requests.
    pub scales: u32,
    /// Square tile size used for `compress` requests (images larger than one
    /// tile produce `LWCT` containers).
    pub tile_size: usize,
    /// z-axis decomposition depth used for `compress-volume` requests
    /// (`0` codes every slice independently).
    pub z_scales: u32,
    /// Near-lossless per-pixel error bound δ applied to `compress` and
    /// `compress-volume` requests; `0` (the default) keeps the service
    /// lossless and byte-identical to earlier releases. Decompression always
    /// honors the quantizer recorded in the incoming stream, whatever this
    /// is set to.
    pub delta: u8,
    /// Brick depth in slices used for `compress-volume` requests.
    pub brick_depth: usize,
    /// Per-frame payload ceiling, validated before allocation.
    pub max_payload_bytes: usize,
    /// Event-loop tick and mid-frame patience quantum: a peer that stalls
    /// mid-frame is dropped after 100 of these.
    pub read_timeout: Duration,
    /// How long a response may sit unflushed against a stalled peer before
    /// the connection is dropped.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 0,
            conn_inflight: 0,
            cache_entries: 0,
            cache_bytes: 0,
            scales: 4,
            tile_size: DEFAULT_TILE_SIZE,
            z_scales: 2,
            delta: 0,
            brick_depth: DEFAULT_BRICK_DEPTH,
            max_payload_bytes: DEFAULT_MAX_PAYLOAD_BYTES,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// How many event-loop ticks (of `read_timeout` each) a peer gets *inside*
/// a started frame before the connection is dropped (the slow-loris budget:
/// 100 ticks x 100 ms = 10 s to finish a started frame).
const MID_FRAME_PATIENCE_POLLS: u32 = 100;

/// Poller key of the listening socket; connections use keys from 1 up.
const LISTENER_KEY: usize = 0;

/// A request admitted into the scheduler.
struct Job {
    op: Op,
    request_id: u64,
    token: usize,
    payload: Vec<u8>,
}

/// The typed error reply a request earns.
type Failure = (ErrorCode, String);

/// One request, parsed and validated once: `parts` independent pieces of
/// work (tiles or bricks) plus the assembly step that turns their outputs
/// into the response payload. Part outputs land in slots the two closures
/// share, so a part may run on any worker.
struct Plan {
    parts: usize,
    /// Runs part `slot` and stores its output.
    run: Box<dyn Fn(usize) -> Result<(), Failure> + Send + Sync>,
    /// Builds the response from every part's output; called once, after
    /// every part succeeded.
    assemble: Box<dyn Fn() -> Result<Vec<u8>, Failure> + Send + Sync>,
}

impl Plan {
    /// A plan whose part `slot` produces one `T`; the assembly receives
    /// every part's `T` in slot order.
    fn new<T: Send + 'static>(
        parts: usize,
        part: impl Fn(usize) -> Result<T, Failure> + Send + Sync + 'static,
        assemble: impl Fn(Vec<T>) -> Result<Vec<u8>, Failure> + Send + Sync + 'static,
    ) -> Self {
        let slots: Arc<Vec<Mutex<Option<T>>>> =
            Arc::new((0..parts).map(|_| Mutex::new(None)).collect());
        let filled = Arc::clone(&slots);
        Self {
            parts,
            run: Box::new(move |slot| {
                let output = part(slot)?;
                *filled[slot].lock().expect("poisoned") = Some(output);
                Ok(())
            }),
            assemble: Box::new(move || {
                let outputs = slots
                    .iter()
                    .map(|slot| slot.lock().expect("poisoned").take().expect("every part ran"))
                    .collect();
                assemble(outputs)
            }),
        }
    }
}

/// A request in execution: its plan, who gets the reply, and the fan-in
/// state. The last part to finish assembles and responds.
struct Fan {
    token: usize,
    request_id: u64,
    respond_op: Op,
    /// The request op and payload, kept for the response cache
    /// (compress/decompress only).
    cache_key: Option<(Op, Arc<Vec<u8>>)>,
    plan: Plan,
    remaining: AtomicUsize,
    failed: Mutex<Option<Failure>>,
}

/// What worker deques carry: whole requests, or one part of a planned one.
enum Task {
    Request(Job),
    Part { fan: Arc<Fan>, slot: usize },
}

/// A finished response traveling from a worker back to the I/O thread.
struct Completion {
    token: usize,
    frame: Frame,
}

struct Shared {
    config: ServerConfig,
    engine: TiledCompressor,
    volume_engine: VolumeCompressor,
    sched: WorkStealing<Task>,
    metrics: Metrics,
    cache: Option<Mutex<ResponseCache>>,
    completions: Mutex<VecDeque<Completion>>,
    poller: Poller,
    shutdown: AtomicBool,
    loop_exit: AtomicBool,
}

impl Shared {
    /// The service state for a resolved configuration (workers, budgets and
    /// cache filled in).
    fn new(config: ServerConfig) -> Result<Self, ServerError> {
        // The shared engines run single-threaded per tile or brick: the
        // pool's parallelism lives across tasks, not inside one.
        let codec =
            LosslessCodec::near_lossless(config.scales, config.delta).map_err(ServerError::from)?;
        let engine = TiledCompressor::with_codec(codec, config.tile_size, config.tile_size, 1)?;
        let volume_engine = VolumeCompressor::with_codec(
            codec,
            config.z_scales,
            config.tile_size,
            config.tile_size,
            config.brick_depth,
            1,
        )?;
        Ok(Self {
            config,
            engine,
            volume_engine,
            sched: WorkStealing::new(config.workers),
            metrics: Metrics::default(),
            cache: (config.cache_entries > 0)
                .then(|| Mutex::new(ResponseCache::new(config.cache_entries, config.cache_bytes))),
            completions: Mutex::new(VecDeque::new()),
            poller: Poller::new()?,
            shutdown: AtomicBool::new(false),
            loop_exit: AtomicBool::new(false),
        })
    }

    fn stats(&self) -> ServerStats {
        ServerStats::snapshot(
            &self.metrics,
            self.config.workers,
            self.config.queue_depth,
            SchedSnapshot {
                queue_len: self.sched.queued(),
                steals: self.sched.steals(),
                active_workers: self.sched.active_workers(),
            },
        )
    }
}

/// A running compression service bound to a TCP address.
///
/// Dropping the server shuts it down gracefully: admission stops, in-flight
/// requests drain through the workers, responses flush, threads join.
///
/// ```
/// use lwc_image::synth;
/// use lwc_server::{Client, Server, ServerConfig};
///
/// # fn main() -> Result<(), lwc_server::ServerError> {
/// let config = ServerConfig { workers: 2, scales: 3, tile_size: 64, ..ServerConfig::default() };
/// let server = Server::bind("127.0.0.1:0", config)?;
/// let mut client = Client::connect(server.local_addr())?;
/// let image = synth::ct_phantom(96, 80, 12, 1);
/// let stream = client.compress_image(&image)?;
/// let back = client.decompress(&stream)?;
/// assert_eq!(image.samples(), back.samples());
/// # Ok(())
/// # }
/// ```
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    io: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the event loop and the worker pool.
    ///
    /// Bind to port 0 for an OS-assigned loopback port
    /// ([`Server::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound, the platform has no
    /// readiness backend, or the configuration is invalid (zero scales,
    /// out-of-range tile size).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> Result<Self, ServerError> {
        let mut config = config;
        if config.workers == 0 {
            config.workers = thread::available_parallelism().map(usize::from).unwrap_or(1);
        }
        if config.queue_depth == 0 {
            config.queue_depth = 4 * config.workers;
        }
        if config.conn_inflight == 0 {
            config.conn_inflight = 64;
        }
        if config.cache_entries > 0 && config.cache_bytes == 0 {
            config.cache_bytes = 256 << 20;
        }
        if config.max_payload_bytes < FRAME_HEADER_BYTES {
            return Err(ServerError::Config(format!(
                "max payload of {} bytes cannot carry any request",
                config.max_payload_bytes
            )));
        }
        let shared = Arc::new(Shared::new(config)?);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        shared.poller.add(&listener, LISTENER_KEY, true, false)?;

        let workers = (0..config.workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    shared.sched.run(worker, |w, task| run_task(&shared, w, task));
                })
            })
            .collect();
        let io = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || event_loop(&shared, listener))
        };
        Ok(Self { shared, addr, io: Some(io), workers })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The resolved configuration (workers, budgets and cache filled in).
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// A snapshot of the server's counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Gracefully shuts the server down: stop admitting, drain in-flight
    /// requests through the workers, flush their responses, close
    /// connections, join every thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            self.shared.sched.close();
        }
        let _ = self.shared.poller.notify();
        // Workers first: once they are done, every completion is queued and
        // the still-running event loop has delivered or is delivering it.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.loop_exit.store(true, Ordering::SeqCst);
        let _ = self.shared.poller.notify();
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The I/O thread: accepts, reads, admits, flushes, delivers completions.
fn event_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut conns: HashMap<usize, Connection> = HashMap::new();
    let mut next_token: usize = LISTENER_KEY + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut accepting = true;
    let mut exit_deadline: Option<Instant> = None;

    loop {
        let _ = shared.poller.wait(&mut events, Some(shared.config.read_timeout));
        if accepting && shared.shutdown.load(Ordering::SeqCst) {
            // Stop taking new connections; existing ones get ShuttingDown
            // replies from admission until the drain finishes.
            let _ = shared.poller.delete(&listener);
            accepting = false;
        }
        let mut dead: Vec<usize> = Vec::new();
        for &event in &events {
            match event.key {
                NOTIFY_KEY => {} // completions are drained below either way
                LISTENER_KEY => {
                    if accepting {
                        accept_ready(shared, &listener, &mut conns, &mut next_token);
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    if event.readable && conn.read_ready(&mut scratch) == ReadResult::Dead {
                        dead.push(token);
                        continue;
                    }
                    if pump_frames(shared, conn, token) {
                        dead.push(token);
                    }
                }
            }
        }
        deliver_completions(shared, &mut conns);
        flush_and_sweep(shared, &mut conns, &mut dead);
        for token in dead {
            close_conn(shared, &mut conns, token);
        }
        if shared.loop_exit.load(Ordering::SeqCst) {
            // Workers have joined: no further completions can appear. Keep
            // ticking until pending responses flush, with a bounded grace.
            let deadline =
                *exit_deadline.get_or_insert_with(|| Instant::now() + shared.config.write_timeout);
            let outstanding = !shared.completions.lock().expect("poisoned").is_empty()
                || conns.values().any(|c| c.pending_write() > 0);
            if !outstanding || Instant::now() >= deadline {
                break;
            }
        }
    }
    for (_, conn) in conns.drain() {
        let _ = shared.poller.delete(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    if accepting {
        let _ = shared.poller.delete(&listener);
    }
}

/// Accepts until the listener would block.
fn accept_ready(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &mut HashMap<usize, Connection>,
    next_token: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    continue; // dropped: the listener is about to deregister
                }
                let Ok(conn) = Connection::new(stream, shared.config.max_payload_bytes) else {
                    continue;
                };
                let token = loop {
                    let candidate = *next_token;
                    *next_token = next_token.wrapping_add(1);
                    if candidate != LISTENER_KEY
                        && candidate != NOTIFY_KEY
                        && !conns.contains_key(&candidate)
                    {
                        break candidate;
                    }
                };
                if shared.poller.add(&conn.stream, token, true, false).is_ok() {
                    Metrics::bump(&shared.metrics.accepted_connections);
                    conns.insert(token, conn);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // WouldBlock, or transient failure (EMFILE): the next readiness
            // event retries either way.
            Err(_) => break,
        }
    }
}

/// Drains every complete frame the accumulator holds. Returns `true` if the
/// connection must be closed outright (never: violations drain instead).
fn pump_frames(shared: &Arc<Shared>, conn: &mut Connection, token: usize) -> bool {
    if matches!(conn.phase, ConnPhase::Draining { .. }) {
        return false;
    }
    loop {
        match conn.acc.next_event() {
            Ok(None) => return false,
            Ok(Some(FrameEvent::Frame(header, payload))) => {
                handle_frame(shared, conn, token, header, payload);
            }
            Ok(Some(FrameEvent::Oversized(header))) => {
                // The header parsed — the request id is known and the reply
                // addressable — but the payload was never read, so the frame
                // boundary is lost: reply, FIN after flush, drain, close.
                queue_error(
                    shared,
                    conn,
                    header.request_id,
                    ErrorCode::FrameTooLarge,
                    &format!(
                        "declared payload of {} bytes exceeds the {}-byte limit",
                        header.payload_len, shared.config.max_payload_bytes
                    ),
                );
                enter_drain(conn);
                return false;
            }
            Err(e) => {
                // Broken framing before a request id could be read (bad
                // magic or version): reply once with id 0, then drain —
                // a byte stream with a lost frame boundary cannot resync.
                let (code, message) = match e {
                    ServerError::Protocol { code, message } => (code, message),
                    other => (ErrorCode::MalformedFrame, other.to_string()),
                };
                queue_error(shared, conn, 0, code, &message);
                enter_drain(conn);
                return false;
            }
        }
    }
}

/// Switches a connection into the violation-drain phase.
fn enter_drain(conn: &mut Connection) {
    conn.phase = ConnPhase::Draining { fin_sent: false, drained: 0 };
    conn.last_read = Instant::now();
}

/// Queues an error reply and counts it.
fn queue_error(
    shared: &Arc<Shared>,
    conn: &mut Connection,
    request_id: u64,
    code: ErrorCode,
    message: &str,
) {
    Metrics::bump(&shared.metrics.error_replies);
    conn.queue_frame(&Frame::error(request_id, code, message));
}

/// One complete frame off the wire: validate the op, then admit.
fn handle_frame(
    shared: &Arc<Shared>,
    conn: &mut Connection,
    token: usize,
    header: FrameHeader,
    payload: Vec<u8>,
) {
    Metrics::bump(&shared.metrics.received_requests);
    Metrics::add(&shared.metrics.bytes_in, (FRAME_HEADER_BYTES + payload.len()) as u64);
    match into_frame(header, payload) {
        Ok(frame) if frame.op.is_request() => admit(shared, conn, token, frame),
        Ok(frame) => {
            // A known op, but not a request (a response op on the request
            // path). The frame boundary is intact: the connection stays
            // usable.
            queue_error(
                shared,
                conn,
                frame.request_id,
                ErrorCode::UnknownOp,
                &format!("op {:?} is not a request", frame.op),
            );
        }
        Err(e) => {
            // Unknown op byte: the payload was fully consumed, so this is
            // also recoverable.
            let (code, message) = match e {
                ServerError::Protocol { code, message } => (code, message),
                other => (ErrorCode::MalformedFrame, other.to_string()),
            };
            queue_error(shared, conn, header.request_id, code, &message);
        }
    }
}

/// Admission control: stats inline, then cache, then the global budget and
/// the per-connection cap, then the scheduler.
fn admit(shared: &Arc<Shared>, conn: &mut Connection, token: usize, frame: Frame) {
    if frame.op == Op::Stats {
        // Served inline on the I/O thread: stats must answer even (indeed,
        // especially) when every worker is saturated. Snapshot first so the
        // reply does not count itself.
        let stats = shared.stats();
        Metrics::bump(&shared.metrics.completed_requests);
        conn.queue_frame(&Frame {
            op: Op::OkStats,
            request_id: frame.request_id,
            payload: stats.to_json().into_bytes(),
        });
        return;
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        queue_error(
            shared,
            conn,
            frame.request_id,
            ErrorCode::ShuttingDown,
            "server is shutting down",
        );
        return;
    }
    let cacheable = matches!(frame.op, Op::Compress | Op::Decompress);
    if cacheable {
        if let Some(cache) = &shared.cache {
            if let Some(response) = cache.lock().expect("poisoned").get(frame.op, &frame.payload) {
                Metrics::bump(&shared.metrics.cache_hits);
                Metrics::bump(&shared.metrics.completed_requests);
                conn.queue_frame(&Frame {
                    op: frame.op.response(),
                    request_id: frame.request_id,
                    payload: response,
                });
                return;
            }
        }
    }
    // Only the I/O thread increments in_flight, so check-then-bump cannot
    // race past the budget.
    if shared.metrics.in_flight.load(Ordering::Relaxed) >= shared.config.queue_depth as u64 {
        Metrics::bump(&shared.metrics.rejected_busy);
        queue_error(
            shared,
            conn,
            frame.request_id,
            ErrorCode::Busy,
            &format!("in-flight budget exhausted ({} requests); retry", shared.config.queue_depth),
        );
        return;
    }
    if conn.in_flight >= shared.config.conn_inflight {
        Metrics::bump(&shared.metrics.rejected_busy);
        queue_error(
            shared,
            conn,
            frame.request_id,
            ErrorCode::Busy,
            &format!(
                "connection pipeline limit reached ({} in flight); retry",
                shared.config.conn_inflight
            ),
        );
        return;
    }
    if cacheable && shared.cache.is_some() {
        Metrics::bump(&shared.metrics.cache_misses);
    }
    Metrics::bump(&shared.metrics.in_flight);
    conn.in_flight += 1;
    let request_id = frame.request_id;
    let job = Job { op: frame.op, request_id, token, payload: frame.payload };
    if shared.sched.inject(Task::Request(job)).is_err() {
        Metrics::settle(&shared.metrics.in_flight);
        conn.in_flight -= 1;
        queue_error(shared, conn, request_id, ErrorCode::ShuttingDown, "server is shutting down");
    }
}

/// Routes queued completions to their connections, settling in-flight
/// accounting (a vanished connection still settles the global budget).
fn deliver_completions(shared: &Arc<Shared>, conns: &mut HashMap<usize, Connection>) {
    loop {
        let completion = shared.completions.lock().expect("poisoned").pop_front();
        let Some(Completion { token, frame }) = completion else { return };
        Metrics::settle(&shared.metrics.in_flight);
        if let Some(conn) = conns.get_mut(&token) {
            conn.in_flight -= 1;
            conn.queue_frame(&frame);
        }
    }
}

/// Flushes pending writes, updates poller interest, applies timeouts, sends
/// the draining FIN, and collects finished/stalled connections.
fn flush_and_sweep(
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, Connection>,
    dead: &mut Vec<usize>,
) {
    let now = Instant::now();
    let patience = shared.config.read_timeout * MID_FRAME_PATIENCE_POLLS;
    for (&token, conn) in conns.iter_mut() {
        if dead.contains(&token) {
            continue;
        }
        if conn.pending_write() > 0 {
            match conn.flush() {
                Ok(written) => Metrics::add(&shared.metrics.bytes_out, written as u64),
                Err(_) => {
                    dead.push(token);
                    continue;
                }
            }
        }
        let reply_flushed = conn.pending_write() == 0;
        if let ConnPhase::Draining { fin_sent, .. } = &mut conn.phase {
            if !*fin_sent && reply_flushed {
                // Reply flushed: signal our end with FIN, then keep draining
                // so the close cannot become a reply-destroying reset.
                let _ = conn.stream.shutdown(Shutdown::Write);
                *fin_sent = true;
            }
        }
        let stalled = match conn.phase {
            ConnPhase::Open | ConnPhase::PeerClosed => {
                (conn.acc.mid_frame() && now.duration_since(conn.last_read) > patience)
                    || (conn.pending_write() > 0
                        && now.duration_since(conn.last_write) > shared.config.write_timeout)
            }
            ConnPhase::Draining { .. } => {
                now.duration_since(conn.last_read) > shared.config.write_timeout
            }
        };
        if stalled || conn.finished() {
            dead.push(token);
            continue;
        }
        let want_read = conn.phase != ConnPhase::PeerClosed;
        let want_write = conn.pending_write() > 0;
        if (want_read != conn.want_read || want_write != conn.want_write)
            && shared.poller.modify(&conn.stream, token, want_read, want_write).is_ok()
        {
            conn.want_read = want_read;
            conn.want_write = want_write;
        }
    }
}

/// Deregisters and drops a connection. Its outstanding jobs still settle
/// the global in-flight budget when their completions arrive.
fn close_conn(shared: &Arc<Shared>, conns: &mut HashMap<usize, Connection>, token: usize) {
    if let Some(conn) = conns.remove(&token) {
        let _ = shared.poller.delete(&conn.stream);
    }
}

/// Executes one scheduled task on a worker thread.
fn run_task(shared: &Shared, worker: usize, task: Task) {
    match task {
        Task::Request(job) => run_request(shared, worker, job),
        Task::Part { fan, slot } => run_part(shared, &fan, slot),
    }
}

/// Plans a request and runs its parts: inline when there is one part or one
/// worker, otherwise from this worker's own deque, where idle workers steal
/// them.
fn run_request(shared: &Shared, worker: usize, job: Job) {
    let payload = Arc::new(job.payload);
    let plan = match plan(shared, job.op, &payload) {
        Ok(plan) => plan,
        Err((code, message)) => {
            respond_error(shared, job.token, job.request_id, code, &message);
            return;
        }
    };
    let parts = plan.parts;
    let fan = Arc::new(Fan {
        token: job.token,
        request_id: job.request_id,
        respond_op: job.op.response(),
        cache_key: matches!(job.op, Op::Compress | Op::Decompress).then_some((job.op, payload)),
        plan,
        remaining: AtomicUsize::new(parts),
        failed: Mutex::new(None),
    });
    if parts == 1 || shared.sched.workers() < 2 {
        for slot in 0..parts {
            run_part(shared, &fan, slot);
        }
    } else {
        for slot in 0..parts {
            shared.sched.push_local(worker, Task::Part { fan: Arc::clone(&fan), slot });
        }
    }
}

/// Runs one part of a fan (skipped once another part has failed); the last
/// part to finish assembles and responds.
fn run_part(shared: &Shared, fan: &Fan, slot: usize) {
    if fan.failed.lock().expect("poisoned").is_none() {
        if let Err(failure) = (fan.plan.run)(slot) {
            fan.failed.lock().expect("poisoned").get_or_insert(failure);
        }
    }
    if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish(shared, fan);
    }
}

/// Replies with the fan's first failure, or assembles, caches and replies
/// with its response.
fn finish(shared: &Shared, fan: &Fan) {
    let failed = fan.failed.lock().expect("poisoned").take();
    let outcome = match failed {
        Some(failure) => Err(failure),
        None => (fan.plan.assemble)().and_then(|payload| ensure_frame_fits(shared, payload)),
    };
    match outcome {
        Ok(response) => {
            if let (Some((op, payload)), Some(cache)) = (&fan.cache_key, &shared.cache) {
                cache.lock().expect("poisoned").insert(*op, payload.to_vec(), response.clone());
            }
            respond_ok(shared, fan.token, fan.respond_op, fan.request_id, response);
        }
        Err((code, message)) => respond_error(shared, fan.token, fan.request_id, code, &message),
    }
}

/// Queues a success completion and wakes the I/O thread.
fn respond_ok(shared: &Shared, token: usize, op: Op, request_id: u64, payload: Vec<u8>) {
    Metrics::bump(&shared.metrics.completed_requests);
    push_completion(shared, token, Frame { op, request_id, payload });
}

/// Queues an error completion and wakes the I/O thread.
fn respond_error(shared: &Shared, token: usize, request_id: u64, code: ErrorCode, message: &str) {
    Metrics::bump(&shared.metrics.error_replies);
    push_completion(shared, token, Frame::error(request_id, code, message));
}

fn push_completion(shared: &Shared, token: usize, frame: Frame) {
    shared.completions.lock().expect("poisoned").push_back(Completion { token, frame });
    let _ = shared.poller.notify();
}

/// Refuses a response that would exceed the frame limit — the server never
/// emits a frame it would itself refuse to read.
fn ensure_frame_fits(shared: &Shared, payload: Vec<u8>) -> Result<Vec<u8>, Failure> {
    if payload.len() > shared.config.max_payload_bytes {
        return Err((
            ErrorCode::FrameTooLarge,
            format!(
                "response of {} bytes exceeds the {}-byte frame limit (raise --max-frame-mb)",
                payload.len(),
                shared.config.max_payload_bytes
            ),
        ));
    }
    Ok(payload)
}

/// Parses and validates a request once into its plan. Every check that can
/// refuse the request runs here, before any part exists, so a bad request
/// gets the same typed error whatever the worker count.
fn plan(shared: &Shared, op: Op, payload: &Arc<Vec<u8>>) -> Result<Plan, Failure> {
    match op {
        Op::Compress => {
            let image = pgm::read_pgm(payload.as_slice())
                .map_err(|e| (ErrorCode::BadPayload, format!("invalid PGM payload: {e}")))?;
            Ok(encode(shared.engine.encode_plan(&image).map_err(compress_failed)?, image))
        }
        Op::CompressVolume => {
            let stack = read_raw_volume(payload)
                .map_err(|e| (ErrorCode::BadPayload, format!("invalid raw volume payload: {e}")))?;
            Ok(encode(shared.volume_engine.encode_plan(&stack).map_err(compress_failed)?, stack))
        }
        Op::Decompress => {
            refuse_volume(payload, "decompress-volume")?;
            decode(shared, payload, 0, DecodePlan::sniff(payload).map_err(bad_stream)?)
        }
        Op::DecompressTile => {
            let ([index], bytes) = split_words(payload, "a tile index")?;
            refuse_volume(bytes, "decompress-region")?;
            let mut plan = DecodePlan::sniff(bytes).map_err(bad_stream)?;
            let tiles = plan.grid().brick_count();
            if index >= tiles {
                return Err((
                    ErrorCode::TileIndexOutOfRange,
                    format!("tile index {index} out of range: the stream has {tiles} tile(s)"),
                ));
            }
            plan.select(plan.grid().rect(index)).map_err(bad_stream)?;
            decode(shared, payload, payload.len() - bytes.len(), plan)
        }
        Op::DecompressVolume => {
            if !is_volume(payload) {
                return Err(bad_stream("not an LWCV container"));
            }
            decode(shared, payload, 0, DecodePlan::sniff(payload).map_err(bad_stream)?)
        }
        Op::DecompressRegion => {
            let ([x, y, z, width, height, depth], bytes) =
                split_words(payload, "a box x, y, z, width, height, depth")?;
            let rect = BrickRect { plane: TileRect { x, y, width, height }, z, depth };
            if !is_volume(bytes) && (rect.z != 0 || rect.depth != 1) {
                return Err((
                    ErrorCode::BadPayload,
                    format!(
                        "a 2-D stream holds a single slice: the region must have z = 0 and \
                         depth = 1, got z = {} depth = {}",
                        rect.z, rect.depth
                    ),
                ));
            }
            let mut plan = DecodePlan::sniff(bytes).map_err(bad_stream)?;
            plan.select(rect).map_err(bad_stream)?;
            decode(shared, payload, payload.len() - bytes.len(), plan)
        }
        other => Err((ErrorCode::UnknownOp, format!("{other:?} is not a request op"))),
    }
}

fn compress_failed(e: impl std::fmt::Display) -> Failure {
    (ErrorCode::Internal, format!("compression failed: {e}"))
}

fn bad_stream(e: impl std::fmt::Display) -> Failure {
    (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"))
}

/// Refuses an `LWCV` stream sent to a 2-D op, naming the op that reads it.
fn refuse_volume(bytes: &[u8], use_op: &str) -> Result<(), Failure> {
    if is_volume(bytes) {
        return Err((
            ErrorCode::BadPayload,
            format!("stream is a volumetric LWCV container: use {use_op}"),
        ));
    }
    Ok(())
}

/// Serves an engine's encode plan of `source`: its parts, then its
/// container assembly.
fn encode<S: Send + Sync + 'static>(plan: EncodePlan<S>, source: S) -> Plan {
    let plan = Arc::new(plan);
    let assembly = Arc::clone(&plan);
    Plan::new(
        plan.parts(),
        move |slot| plan.encode_part(&source, slot).map_err(compress_failed),
        move |payloads| assembly.assemble(payloads).map_err(compress_failed),
    )
}

/// Serves a decode plan of the stream at `offset` in `payload`: its parts,
/// then its assembly, serialized as a raw volume for `LWCV` streams and as a
/// PGM otherwise. A response that could not fit one frame under the
/// payload limit is refused from the plan's box before any decode work, so
/// a client cannot make the server decode terabytes it could never send
/// back.
fn decode(
    shared: &Shared,
    payload: &Arc<Vec<u8>>,
    offset: usize,
    plan: DecodePlan,
) -> Result<Plan, Failure> {
    let volume = matches!(plan.engine(), StreamEngine::Volume(_));
    let (want, bit_depth) = (plan.want(), plan.bit_depth());
    let (width, height, depth) = (want.plane.width, want.plane.height, want.depth);
    let need = if volume {
        raw_volume_len(width, height, depth, bit_depth)
    } else {
        width as u128 * height as u128 * if bit_depth > 8 { 2 } else { 1 } + 64
    };
    if need > shared.config.max_payload_bytes as u128 {
        return Err((
            ErrorCode::FrameTooLarge,
            format!(
                "a {width}x{height}x{depth} {bit_depth}-bit box decompresses to ~{need} response \
                 bytes, beyond the {}-byte frame limit (raise --max-frame-mb, request a region, \
                 or decode locally)",
                shared.config.max_payload_bytes
            ),
        ));
    }
    let (plan, payload) = (Arc::new(plan), Arc::clone(payload));
    let assembly = Arc::clone(&plan);
    Ok(Plan::new(
        plan.parts(),
        move |slot| plan.decode_part(&payload[offset..], slot).map_err(bad_stream),
        move |parts| {
            let mut region = Vec::new();
            for (slot, samples) in parts.into_iter().enumerate() {
                assembly.place(&mut region, slot, samples);
            }
            if volume {
                Ok(write_raw_volume(&assembly.stack(region).map_err(bad_stream)?))
            } else {
                encode_pgm(&assembly.image(region).map_err(bad_stream)?)
            }
        },
    ))
}

fn encode_pgm(image: &Image) -> Result<Vec<u8>, Failure> {
    let mut bytes = Vec::with_capacity(image.pixel_count() * 2 + 64);
    pgm::write_pgm(image, &mut bytes)
        .map_err(|e| (ErrorCode::Internal, format!("PGM serialization failed: {e}")))?;
    Ok(bytes)
}

/// Splits a request payload into its prefix of `N` big-endian `u32` words
/// (`what` names them for the error) and the stream after it.
fn split_words<'a, const N: usize>(
    payload: &'a [u8],
    what: &str,
) -> Result<([usize; N], &'a [u8]), Failure> {
    if payload.len() < 4 * N {
        let message = format!("payload must start with {} bytes: {what}", 4 * N);
        return Err((ErrorCode::BadPayload, message));
    }
    let (prefix, stream) = payload.split_at(4 * N);
    let word = |i: usize| {
        u32::from_be_bytes(prefix[4 * i..4 * i + 4].try_into().expect("4 bytes")) as usize
    };
    Ok((std::array::from_fn(word), stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_coder::fixedtiled::is_fixed;
    use lwc_coder::tiled::is_tiled;
    use lwc_coder::FixedHeader;
    use lwc_image::synth;
    use lwc_pipeline::TiledFixedCompressor;

    fn fixed_stream(image: &Image) -> Vec<u8> {
        // The server crate has no lwc-filters dependency by design; a
        // header-driven engine (the same path the sniff uses) builds the
        // stream.
        let header = FixedHeader {
            width: image.width(),
            height: image.height(),
            bit_depth: image.bit_depth(),
            scales: 3,
            filter: 0,
            tile_width: 32,
            tile_height: 32,
        };
        TiledFixedCompressor::for_stream(&header, 1).unwrap().compress(image).unwrap()
    }

    /// Serves one `decompress` request without sockets: plan it, run every
    /// part in order, assemble.
    fn decompress(shared: &Shared, stream: &[u8]) -> Result<Image, Failure> {
        let plan = plan(shared, Op::Decompress, &Arc::new(stream.to_vec()))?;
        for slot in 0..plan.parts {
            (plan.run)(slot)?;
        }
        Ok(pgm::read_pgm((plan.assemble)()?.as_slice()).unwrap())
    }

    #[test]
    fn decompress_auto_sniffs_all_three_formats_and_rejects_short_buffers() {
        let shared = Shared::new(ServerConfig { workers: 1, ..ServerConfig::default() }).unwrap();
        let image = synth::ct_phantom(70, 50, 12, 3);
        let legacy = LosslessCodec::new(3).unwrap().compress(&image).unwrap();
        let tiled = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
        let fixed = fixed_stream(&synth::ct_phantom(64, 48, 12, 3));
        assert!(is_tiled(&tiled) && !is_tiled(&legacy) && is_fixed(&fixed));
        for stream in [&legacy, &tiled] {
            let back = decompress(&shared, stream).unwrap();
            assert_eq!(back.samples(), image.samples());
            // Every short prefix — including the empty buffer — must come
            // back as a typed error, never a panic or slice failure.
            for len in 0..8.min(stream.len()) {
                let err = decompress(&shared, &stream[..len]).unwrap_err();
                assert_eq!(err.0, ErrorCode::BadPayload, "prefix of {len} bytes");
            }
        }
        let back = decompress(&shared, &fixed).unwrap();
        assert_eq!(back.samples(), synth::ct_phantom(64, 48, 12, 3).samples());
        for len in 0..8 {
            let err = decompress(&shared, &fixed[..len]).unwrap_err();
            assert_eq!(err.0, ErrorCode::BadPayload, "fixed prefix of {len} bytes");
        }
    }

    #[test]
    fn engine_sniffing_matches_the_stream_parameters() {
        let image = synth::ct_phantom(70, 50, 12, 3);
        let legacy = LosslessCodec::new(3).unwrap().compress(&image).unwrap();
        let tiled = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
        let fixed = fixed_stream(&synth::ct_phantom(64, 48, 12, 5));
        let sniffed = DecodePlan::sniff(&legacy).unwrap();
        assert!(matches!(sniffed.engine(), StreamEngine::Tiled(_)));
        assert_eq!((sniffed.grid().brick_count(), sniffed.grid().plane().image_width()), (1, 70));
        let sniffed = DecodePlan::sniff(&tiled).unwrap();
        assert!(matches!(sniffed.engine(), StreamEngine::Tiled(e) if e.codec().scales() == 3));
        assert_eq!((sniffed.grid().brick_count(), sniffed.grid().plane().image_height()), (6, 50));
        let sniffed = DecodePlan::sniff(&fixed).unwrap();
        assert!(matches!(sniffed.engine(), StreamEngine::Fixed(_)));
        assert_eq!((sniffed.grid().brick_count(), sniffed.bit_depth()), (4, 12));
        assert!(DecodePlan::sniff(&[]).is_err());
        assert!(DecodePlan::sniff(&[0x4C, 0x57]).is_err());
    }
}
