//! The server engine: poll(2)-driven acceptor, reactor I/O workers,
//! bounded per-shard submission lanes, and group-commit committers.
//!
//! # Threading model
//!
//! ```text
//! acceptor ──poll──▶ hands socket to worker (round-robin)
//!
//! I/O worker (×N) ──poll over owned conns + wake pipe──┐
//!   │ reads → frame reassembly → decode                │
//!   │ GET/STATS/MODE/TRACE served inline               │
//!   │ PUT/DELETE/SYNC ──try_send──▶ lane queue ──▶ committer
//!   │                                                  │
//!   └── flush bounded per-conn outq ◀── encoded acks ──┘
//!                        (committer posts to the owning worker's
//!                         inbox + wake pipe, after the fence)
//!
//! sampler ── condvar, one tick per telemetry_interval ──▶ ring
//! http sidecar ── poll([listener, wake]) ──▶ /metrics, /snapshot.json
//! ```
//!
//! * The **acceptor** blocks in `poll` on the listener plus a wake pipe —
//!   no sleep loop. Each accepted socket is made nonblocking and handed
//!   to one of the `IO_WORKERS` reactor threads by round-robin.
//! * Each **I/O worker** owns its connections outright: per-connection
//!   read buffers with partial-frame state machines (see
//!   [`crate::conn::FrameBuf`]), inline dispatch of read-path requests
//!   through the lock-free epoch-pinned view, and a **bounded**
//!   per-connection response queue (`resp_queue_cap` bytes) drained on
//!   writability. A client that stops reading its replies overflows the
//!   bound and is disconnected (`slow_consumer_disconnects`); a client
//!   that goes silent past `idle_timeout` is swept (`idle_disconnects`).
//! * One **committer thread per lane** runs self-clocking group commit:
//!   it blocks for one submission, takes whatever else is already queued
//!   (at most `max_batch` ops), appends the whole batch via
//!   `ChameleonDb::apply_batch` — one persist fence at the tail — and
//!   only then releases the durable acks, encoded and posted back to the
//!   owning worker through its wake pipe. Writes arriving during that
//!   fence form the next batch, so batches grow with load and fence
//!   latency; a lone write never waits for company.
//! * The **sampler** waits on a condvar with `telemetry_interval`
//!   timeout (no sleep-polling) and ticks a [`DeltaTracker`] window into
//!   the [`WindowedSeries`] ring.
//!
//! # Request tracing
//!
//! `decode` → `lane_enqueue` → `batch_seal` →
//! `engine_append`/`engine_fence` → `fence_complete` → `ack_write`; the
//! final `ack_write` stamp lands when the response frame is fully written
//! to the socket, so a span seals exactly when the bytes hit the wire.
//!
//! # Durability contract
//!
//! A durable write's ack is sent strictly after `apply_batch` returns,
//! which is strictly after the fence covering its log entry. If the
//! device crashes at that fence, `apply_batch` never returns and the acks
//! are structurally unreachable — there is no code path that acks first.
//! SYNC is a barrier across *all* lanes: it is acked once every lane has
//! fenced everything submitted before it.

use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use chameleon_obs::trace::encode_trace_payload;
use chameleon_obs::{
    DeltaTracker, ObsSnapshot, ServerObs, ServerTickCounters, TraceConfig, TraceSpan, Tracer,
    WindowedSeries,
};
use chameleondb::{BatchOp, ChameleonDb, Mode};
use parking_lot::{Condvar, Mutex};
use pmem_sim::{CostModel, PmemDevice, ThreadCtx};

use crate::proto::{encode_response, ModeArg, Request, Response, StatsFormat};
use crate::reactor::{self, WakePipe, WorkerShared};
use crate::repl::{self, AckPolicy, ReplHub, ReplicaFloors};

/// Reactor I/O worker threads. The server runs `IO_WORKERS + lanes +
/// acceptor (+ sampler + sidecar)` threads regardless of connection
/// count.
const IO_WORKERS: usize = 4;

/// Tuning knobs for the service layer.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Commit lanes (committer threads); writes are routed by key shard.
    pub lanes: usize,
    /// Bounded capacity of each lane's submission queue; a full lane
    /// answers RETRY.
    pub queue_cap: usize,
    /// Most write ops committed under one fence. A committer never waits
    /// to fill a batch: it commits whatever queued while it was busy.
    pub max_batch: usize,
    /// Cost model for the per-thread simulation contexts.
    pub cost: Arc<CostModel>,
    /// Request-trace sampling (off by default; the wire trace flag still
    /// forces individual requests).
    pub trace: TraceConfig,
    /// Length of one telemetry window.
    pub telemetry_interval: Duration,
    /// Windows retained in the live ring; `0` disables the sampler.
    pub window_cap: usize,
    /// Bind address for the plain-HTTP metrics sidecar (`/metrics`,
    /// `/snapshot.json`); `None` runs no sidecar.
    pub http_addr: Option<String>,
    /// Most unsent response bytes a single connection may queue before
    /// it is shed as a slow consumer.
    pub resp_queue_cap: usize,
    /// A connection silent (no bytes read) this long is disconnected —
    /// a dead or half-open peer must not pin a slot forever. `None`
    /// disables the sweep. A connection with queued response bytes still
    /// draining is live regardless of read silence.
    pub idle_timeout: Option<Duration>,
    /// When durable write acks are released: at the local fence, or only
    /// once a quorum of subscribed replicas confirm it (see
    /// [`crate::repl`]).
    pub ack_policy: AckPolicy,
    /// Published replication chunks retained for late subscribers; on
    /// overrun the oldest is dropped and subscribes below the new base
    /// are refused.
    pub repl_retain: usize,
    /// Serve reads only: PUT/DELETE/SYNC answer ERR. A replica applies
    /// shipped batches out-of-band and must not take divergent writes.
    pub read_only: bool,
    /// Replica-side shipped/applied/acked floors, filled by the replica's
    /// apply loop and served via REPL_FLOOR and the obs snapshot.
    pub replica_floors: Option<Arc<ReplicaFloors>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            lanes: 4,
            queue_cap: 1024,
            max_batch: 64,
            cost: Arc::new(CostModel::default()),
            trace: TraceConfig::off(),
            telemetry_interval: Duration::from_secs(1),
            window_cap: 120,
            http_addr: None,
            resp_queue_cap: 4 << 20,
            idle_timeout: Some(Duration::from_secs(300)),
            ack_policy: AckPolicy::LocalFence,
            repl_retain: 4096,
            read_only: false,
            replica_floors: None,
        }
    }
}

impl ServerConfig {
    /// Fence-per-op configuration: every write commits alone. The
    /// baseline group commit is measured against.
    pub fn batch_of_one() -> Self {
        Self {
            max_batch: 1,
            ..Self::default()
        }
    }
}

/// Encodes a response as a complete wire frame (length prefix included),
/// ready for a reactor connection queue.
pub(crate) fn frame_of(resp: &Response) -> Vec<u8> {
    let payload = encode_response(resp);
    debug_assert!(payload.len() <= crate::proto::MAX_FRAME);
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Where a response goes: the reactor worker owning the connection.
/// Responses are encoded at the send site; the worker applies the
/// connection's byte bound when it queues them.
#[derive(Clone)]
pub(crate) struct ReplyTx {
    pub(crate) worker: Arc<WorkerShared>,
    pub(crate) conn_id: u64,
}

impl ReplyTx {
    /// Sends one response toward the wire. Never blocks. If the
    /// connection's bounded response queue would overflow, the owning
    /// worker drops the reply and sheds the connection as a slow consumer.
    pub(crate) fn send(&self, resp: &Response, span: Option<Arc<TraceSpan>>) {
        self.worker
            .post_completion(self.conn_id, frame_of(resp), span);
    }
}

/// Countdown released once every lane has fenced past the barrier.
struct SyncGate {
    remaining: AtomicUsize,
    req_id: u64,
    resp: Mutex<Option<ReplyTx>>,
}

impl SyncGate {
    /// Counts one lane down; the last lane sends the ack (or `err`).
    fn arrive(&self, err: Option<&str>) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(tx) = self.resp.lock().take() {
                let resp = match err {
                    None => Response::Ok {
                        req_id: self.req_id,
                    },
                    Some(m) => Response::Err {
                        req_id: self.req_id,
                        message: m.to_owned(),
                    },
                };
                tx.send(&resp, None);
            }
        }
    }
}

enum Submission {
    Write {
        op: BatchOp,
        req_id: u64,
        /// Ack after the fence (`true`) or already acked at enqueue.
        durable: bool,
        resp: ReplyTx,
        /// Sampled requests carry their span to the committer for the
        /// batch-seal / engine / fence-complete stamps.
        trace: Option<Arc<TraceSpan>>,
    },
    Barrier(Arc<SyncGate>),
}

struct Lane {
    /// Taken (dropped) at shutdown so the committer sees disconnect after
    /// draining the queue.
    tx: Mutex<Option<mpsc::SyncSender<Submission>>>,
    /// Approximate queued submissions (sampled into the queue-depth
    /// histogram at each batch drain).
    depth: AtomicUsize,
}

pub(crate) struct Shared {
    pub(crate) store: Arc<ChameleonDb>,
    dev: Arc<PmemDevice>,
    pub(crate) obs: Arc<ServerObs>,
    pub(crate) tracer: Arc<Tracer>,
    windows: Arc<WindowedSeries>,
    lanes: Vec<Lane>,
    pub(crate) cfg: ServerConfig,
    stop: AtomicBool,
    /// Set by [`KvServer::abort`]: committers drop queued work unapplied.
    pub(crate) discard: AtomicBool,
    /// Final shutdown phase: committers have drained, reactor workers
    /// flush what they hold and exit.
    pub(crate) drained: AtomicBool,
    /// Reactor I/O workers.
    pub(crate) workers: Vec<Arc<WorkerShared>>,
    /// Replication hub: committers publish fenced batches, subscribers
    /// and their acks register through [`handle_request`].
    pub(crate) repl: ReplHub,
    accept_wake: WakePipe,
    pub(crate) http_wake: WakePipe,
    /// Pairs with `stop_cv`: sleepers (the sampler) wait here instead of
    /// sleep-polling the stop flag.
    stop_mu: Mutex<()>,
    stop_cv: Condvar,
    conn_seq: AtomicUsize,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The HTTP sidecar's simulation context: committers own thread ids
    /// `0..lanes` and reactor workers the next `IO_WORKERS`, so the
    /// sidecar takes the id after them.
    pub(crate) fn sidecar_ctx(&self) -> ThreadCtx {
        ThreadCtx::for_thread(Arc::clone(&self.cfg.cost), self.cfg.lanes + IO_WORKERS)
    }

    /// The full observability snapshot served by STATS and the HTTP
    /// sidecar: store + server + reactor + trace counter sections, the
    /// windowed telemetry ring, and per-trace-stage aggregates.
    pub(crate) fn obs_snapshot(&self, ctx: &mut ThreadCtx) -> ObsSnapshot {
        let mut sections = vec![
            self.obs.section(),
            self.tracer.section(),
            reactor::section(&self.workers),
        ];
        if let Some(floors) = &self.cfg.replica_floors {
            sections.push(repl::replica_section(floors));
        } else if let Some(sec) = self.repl.section() {
            sections.push(sec);
        }
        let mut snap = self.store.obs_snapshot_with(ctx.clock.now(), sections);
        snap.windows = self.windows.windows();
        snap.trace_stages = self.tracer.stage_summaries();
        snap
    }
}

/// A running TCP front-end over one [`ChameleonDb`].
pub struct KvServer {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    committers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
    http_addr: Option<SocketAddr>,
    local_addr: SocketAddr,
}

impl KvServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor, the reactor I/O workers, one committer per lane, the
    /// telemetry sampler, and (if configured) the HTTP metrics sidecar.
    pub fn start(
        addr: &str,
        dev: Arc<PmemDevice>,
        store: Arc<ChameleonDb>,
        obs: Arc<ServerObs>,
        cfg: ServerConfig,
    ) -> io::Result<Self> {
        assert!(cfg.lanes >= 1, "need at least one commit lane");
        assert!(cfg.max_batch >= 1, "need at least batch-of-1");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // std listens with backlog 128; a reactor built for thousands of
        // concurrent clients must also survive thousands of concurrent
        // *connects*, so widen the accept backlog (re-listen is legal on
        // Linux and only updates the queue length).
        unsafe {
            use std::os::fd::AsRawFd;
            libc::listen(listener.as_raw_fd(), 4096);
        }

        let mut lanes = Vec::with_capacity(cfg.lanes);
        let mut receivers = Vec::with_capacity(cfg.lanes);
        for _ in 0..cfg.lanes {
            let (tx, rx) = mpsc::sync_channel(cfg.queue_cap);
            lanes.push(Lane {
                tx: Mutex::new(Some(tx)),
                depth: AtomicUsize::new(0),
            });
            receivers.push(rx);
        }
        let workers = (0..IO_WORKERS)
            .map(|i| WorkerShared::new(i).map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let tracer = Arc::new(Tracer::new(cfg.trace));
        let windows = Arc::new(WindowedSeries::new(cfg.window_cap));
        let repl_hub = ReplHub::new(cfg.ack_policy, cfg.repl_retain);
        let shared = Arc::new(Shared {
            store,
            dev,
            obs,
            tracer,
            windows,
            lanes,
            cfg,
            stop: AtomicBool::new(false),
            discard: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            workers,
            repl: repl_hub,
            accept_wake: WakePipe::new()?,
            http_wake: WakePipe::new()?,
            stop_mu: Mutex::new(()),
            stop_cv: Condvar::new(),
            conn_seq: AtomicUsize::new(0),
        });

        let committers = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("kvs-commit-{i}"))
                    .spawn(move || committer_loop(&sh, i, rx))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let worker_handles = shared
            .workers
            .iter()
            .map(|w| {
                let sh = Arc::clone(&shared);
                let w2 = Arc::clone(w);
                thread::Builder::new()
                    .name(format!("kvs-io-{}", w2.idx))
                    .spawn(move || reactor::worker_loop(&sh, &w2))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let sh = Arc::clone(&shared);
            thread::Builder::new()
                .name("kvs-accept".to_owned())
                .spawn(move || acceptor_loop(&sh, listener))?
        };

        let sampler = if shared.cfg.window_cap > 0 && shared.cfg.telemetry_interval > Duration::ZERO
        {
            let sh = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("kvs-sampler".to_owned())
                    .spawn(move || sampler_loop(&sh))?,
            )
        } else {
            None
        };

        let (http_addr, http) = match shared.cfg.http_addr.clone() {
            Some(bind) => {
                let (a, h) = crate::http::start(Arc::clone(&shared), &bind)?;
                (Some(a), Some(h))
            }
            None => (None, None),
        };

        Ok(Self {
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
            committers,
            sampler,
            http,
            http_addr,
            local_addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The HTTP sidecar's bound address, if one is running.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The request tracer (for in-process span inspection in tests and
    /// the bench harness).
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// The live windowed-telemetry ring.
    pub fn windows(&self) -> Arc<WindowedSeries> {
        Arc::clone(&self.shared.windows)
    }

    /// Total service threads this server runs (acceptor + I/O workers +
    /// committers + sampler + sidecar) — constant in the connection
    /// count.
    pub fn thread_count(&self) -> usize {
        1 + self.workers.len()
            + self.committers.len()
            + usize::from(self.sampler.is_some())
            + usize::from(self.http.is_some())
    }

    /// Graceful shutdown: stop accepting, drain every lane queue
    /// (committing what was accepted), flush the final acks to their
    /// connections, then take a final checkpoint. Returns an error
    /// listing any panicked threads.
    pub fn shutdown(mut self) -> Result<(), String> {
        let panics = self.stop_threads();
        let mut ctx = ThreadCtx::for_thread(Arc::clone(&self.shared.cfg.cost), 0);
        let ckpt = self.shared.store.checkpoint(&mut ctx);
        match (panics.is_empty(), ckpt) {
            (true, Ok(())) => Ok(()),
            (true, Err(e)) => Err(format!("final checkpoint failed: {e:?}")),
            (false, _) => Err(format!("server threads panicked: {panics:?}")),
        }
    }

    /// Hard stop for crash tests: queued-but-uncommitted work is dropped
    /// without touching the device, and no final checkpoint is taken.
    pub fn abort(mut self) {
        self.shared.discard.store(true, Ordering::SeqCst);
        self.stop_threads();
    }

    fn stop_threads(&mut self) -> Vec<String> {
        let sh = &self.shared;
        sh.stop.store(true, Ordering::SeqCst);
        // Wake every sleeper through its own mechanism — no thread in
        // the server sleep-polls the stop flag.
        {
            let _g = sh.stop_mu.lock();
        }
        sh.stop_cv.notify_all();
        sh.accept_wake.wake();
        sh.http_wake.wake();
        let mut panics = Vec::new();
        let join = |h: JoinHandle<()>, what: &str, panics: &mut Vec<String>| {
            if h.join().is_err() {
                panics.push(what.to_owned());
            }
        };
        if let Some(h) = self.acceptor.take() {
            join(h, "acceptor", &mut panics);
        }
        if let Some(h) = self.sampler.take() {
            join(h, "sampler", &mut panics);
        }
        if let Some(h) = self.http.take() {
            join(h, "http sidecar", &mut panics);
        }
        // Committers drain their queues (posting final acks to the
        // reactor workers, which are still running) and exit on channel
        // disconnect.
        for lane in &sh.lanes {
            drop(lane.tx.lock().take());
        }
        for (i, h) in self.committers.drain(..).enumerate() {
            join(h, &format!("committer {i}"), &mut panics);
        }
        // Only now may the workers go: every ack that will ever exist is
        // in an inbox. Workers flush best-effort and close their conns.
        sh.drained.store(true, Ordering::SeqCst);
        for w in &sh.workers {
            w.wake.wake();
        }
        for (i, h) in self.workers.drain(..).enumerate() {
            join(h, &format!("io worker {i}"), &mut panics);
        }
        panics
    }
}

/// Accepts connections with `poll` (listener + wake pipe — zero wakeups
/// while idle) and hands each socket to a reactor worker (round-robin).
fn acceptor_loop(sh: &Arc<Shared>, listener: TcpListener) {
    let lfd = listener.as_raw_fd();
    while !sh.stopping() {
        let mut pfds = [
            libc::pollfd {
                fd: lfd,
                events: libc::POLLIN,
                revents: 0,
            },
            libc::pollfd {
                fd: sh.accept_wake.read_fd(),
                events: libc::POLLIN,
                revents: 0,
            },
        ];
        let n = unsafe { libc::poll(pfds.as_mut_ptr(), 2, -1) };
        if n < 0 {
            continue; // EINTR
        }
        sh.accept_wake.drain();
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => accept_one(sh, stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
}

fn accept_one(sh: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    ServerObs::bump(&sh.obs.connections);
    if stream.set_nonblocking(true).is_err() {
        ServerObs::bump(&sh.obs.disconnects);
        return;
    }
    let conn_id = sh.conn_seq.fetch_add(1, Ordering::Relaxed);
    sh.workers[conn_id % IO_WORKERS].post_conn(conn_id as u64, stream);
}

/// Once per telemetry interval: subtract the previous tick's cumulative
/// op/stall histograms, device snapshot, and service counters to produce
/// one [`chameleon_obs::Window`] for the ring. Sleeps on a condvar, so
/// shutdown wakes it immediately and an idle server costs one wakeup per
/// interval, not one per 10 ms.
fn sampler_loop(sh: &Arc<Shared>) {
    let mut tracker = DeltaTracker::new();
    let mut last = Instant::now();
    loop {
        {
            let mut g = sh.stop_mu.lock();
            if sh.stopping() {
                return;
            }
            let _ = sh.stop_cv.wait_for(&mut g, sh.cfg.telemetry_interval);
        }
        if sh.stopping() {
            return;
        }
        let elapsed = last.elapsed();
        if elapsed < sh.cfg.telemetry_interval {
            continue; // spurious wakeup
        }
        last = Instant::now();
        let obs = sh.store.obs();
        let mut server = ServerTickCounters::capture(&sh.obs);
        // Replication floors: shipped is cumulative (delta'd into the
        // window), lag is a gauge sampled at the tick.
        let (repl_shipped, repl_lag) = match &sh.cfg.replica_floors {
            Some(floors) => floors.tick(),
            None => sh.repl.tick(),
        };
        server.repl_shipped = repl_shipped;
        server.repl_lag = repl_lag;
        let w = tracker.tick(
            elapsed.as_millis() as u64,
            &obs.op_rollup(),
            &obs.stall_rollup(),
            &obs.scan_keys_rollup(),
            sh.dev.stats().snapshot(),
            server,
        );
        sh.windows.push(w);
    }
}

/// Stamps `ack_write` and completes the span once its response frame has
/// been written (the final pipeline stage a span can observe).
pub(crate) fn seal_span(tracer: &Tracer, span: Arc<TraceSpan>) {
    span.stamp("ack_write");
    tracer.complete(&span);
}

/// Starts a span for one write: the wire trace flag forces a sample,
/// otherwise the tracer's rate decides. The `decode` stamp closes the
/// first stage (span creation to here — the sampling decision itself).
fn span_for_write(sh: &Shared, op: &'static str, key: u64, forced: bool) -> Option<Arc<TraceSpan>> {
    let span = if forced {
        Some(sh.tracer.force(op, key))
    } else {
        sh.tracer.sample(op, key)
    };
    if let Some(s) = &span {
        s.stamp("decode");
    }
    span
}

/// Dispatches one decoded request for a reactor worker: GET/STATS/MODE/TRACE
/// answer inline through
/// `reply`, PUT/DELETE/SYNC route to the commit lanes (their acks come
/// back through the same `reply` after the fence).
pub(crate) fn handle_request(
    sh: &Arc<Shared>,
    ctx: &mut ThreadCtx,
    req: Request,
    reply: &ReplyTx,
    valbuf: &mut Vec<u8>,
) {
    let obs = &sh.obs;
    if sh.cfg.read_only {
        if let Request::Put { req_id, .. }
        | Request::Delete { req_id, .. }
        | Request::Sync { req_id } = req
        {
            reply.send(
                &Response::Err {
                    req_id,
                    message: "read-only replica".to_owned(),
                },
                None,
            );
            return;
        }
    }
    match req {
        Request::Get { req_id, key } => {
            ServerObs::bump(&obs.gets);
            let span = sh.tracer.sample("get", key);
            if let Some(s) = &span {
                s.stamp("decode");
            }
            valbuf.clear();
            let resp = match sh.store.get_traced(ctx, key, valbuf, span.as_deref()) {
                Ok(true) => Response::Value {
                    req_id,
                    value: valbuf.clone(),
                },
                Ok(false) => Response::NotFound { req_id },
                Err(e) => Response::Err {
                    req_id,
                    message: format!("{e:?}"),
                },
            };
            reply.send(&resp, span);
        }
        Request::Put {
            req_id,
            key,
            value,
            durable,
            traced,
        } => {
            ServerObs::bump(&obs.puts);
            let span = span_for_write(sh, "put", key, traced);
            submit_write(
                sh,
                BatchOp::Put { key, value },
                key,
                req_id,
                durable,
                span,
                reply,
            );
        }
        Request::Delete {
            req_id,
            key,
            traced,
            ..
        } => {
            ServerObs::bump(&obs.deletes);
            let span = span_for_write(sh, "delete", key, traced);
            // Deletes are always acked post-commit: the outcome
            // (existed or not) is only known once the batch applies.
            submit_write(sh, BatchOp::Delete { key }, key, req_id, true, span, reply);
        }
        Request::Sync { req_id } => {
            ServerObs::bump(&obs.syncs);
            submit_barrier(sh, req_id, reply);
        }
        Request::Stats { req_id, format } => {
            ServerObs::bump(&obs.stats_reqs);
            let snap = sh.obs_snapshot(ctx);
            let text = match format {
                StatsFormat::Json => snap.to_pretty_json(),
                StatsFormat::Prometheus => snap.to_prometheus(),
            };
            reply.send(&Response::Stats { req_id, text }, None);
        }
        Request::Trace { req_id, max } => {
            ServerObs::bump(&obs.trace_reqs);
            let spans = sh.tracer.spans(max as usize);
            let events = sh.store.obs().journal().tail(64);
            let text = encode_trace_payload(&spans, &events);
            reply.send(&Response::Trace { req_id, text }, None);
        }
        Request::Scan {
            req_id,
            start_key,
            limit,
        } => {
            ServerObs::bump(&obs.scans);
            let span = sh.tracer.sample("scan", start_key);
            if let Some(s) = &span {
                s.stamp("decode");
            }
            // Served inline like GET: the store scans under its own epoch
            // pin (merge + per-candidate probe), no lane round-trip.
            let resp = match sh.store.scan(ctx, start_key, limit as usize) {
                Ok(keys) => Response::Keys { req_id, keys },
                Err(e) => Response::Err {
                    req_id,
                    message: format!("{e:?}"),
                },
            };
            reply.send(&resp, span);
        }
        Request::Mode { req_id, arg } => {
            ServerObs::bump(&obs.mode_reqs);
            match arg {
                ModeArg::Normal => sh.store.set_mode(Mode::Normal),
                ModeArg::WriteIntensive => sh.store.set_mode(Mode::WriteIntensive),
                ModeArg::Query => {}
            }
            reply.send(
                &Response::Mode {
                    req_id,
                    write_intensive: sh.store.mode() == Mode::WriteIntensive,
                },
                None,
            );
        }
        Request::ReplSubscribe { req_id, start_ship } => {
            if sh.cfg.replica_floors.is_some() {
                // Cascading replication is not supported: a replica's
                // stream comes from its primary, not from other replicas.
                reply.send(
                    &Response::Err {
                        req_id,
                        message: "replica does not serve subscriptions".to_owned(),
                    },
                    None,
                );
            } else if let Err(message) = sh.repl.subscribe(start_ship, req_id, reply.clone()) {
                reply.send(&Response::Err { req_id, message }, None);
            }
        }
        Request::ReplAck {
            req_id,
            sub_id,
            ship,
        } => {
            if sh.repl.ack(sub_id, ship) {
                reply.send(&Response::Ok { req_id }, None);
            } else {
                reply.send(
                    &Response::Err {
                        req_id,
                        message: "unknown replication subscriber".to_owned(),
                    },
                    None,
                );
            }
        }
        Request::ReplFloor { req_id } => {
            let resp = match &sh.cfg.replica_floors {
                Some(f) => Response::ReplFloor {
                    req_id,
                    sub_id: 0,
                    shipped: f.received.load(Ordering::Acquire),
                    acked: f.acked.load(Ordering::Acquire),
                    applied: f.applied.load(Ordering::Acquire),
                },
                None => Response::ReplFloor {
                    req_id,
                    sub_id: 0,
                    shipped: sh.repl.shipped(),
                    acked: sh.repl.acked_floor(),
                    applied: 0,
                },
            };
            reply.send(&resp, None);
        }
    }
}

/// Routes one write to its lane. Non-durable writes are acked here, at
/// enqueue; durable ones are acked by the committer after the fence.
fn submit_write(
    sh: &Arc<Shared>,
    op: BatchOp,
    key: u64,
    req_id: u64,
    durable: bool,
    span: Option<Arc<TraceSpan>>,
    reply: &ReplyTx,
) {
    let lane = &sh.lanes[sh.store.shard_of_key(key) % sh.cfg.lanes];
    // Stamp before the send: once the committer can see the submission
    // it may seal the batch at any moment, and stamps must stay in
    // pipeline order.
    if let Some(s) = &span {
        s.stamp("lane_enqueue");
    }
    let sub = Submission::Write {
        op,
        req_id,
        durable,
        resp: reply.clone(),
        trace: span.clone(),
    };
    // Count before sending so the committer's decrement (which follows
    // its recv, which follows this send) can never underflow.
    lane.depth.fetch_add(1, Ordering::Relaxed);
    let sent = match &*lane.tx.lock() {
        Some(tx) => tx.try_send(sub),
        None => Err(TrySendError::Disconnected(sub)),
    };
    match sent {
        Ok(()) => {
            if !durable {
                ServerObs::bump(&sh.obs.early_acks);
                // The span rides with the early ack; the committer's
                // later stamps land after completion and are dropped.
                reply.send(&Response::Ok { req_id }, span);
            }
        }
        Err(TrySendError::Full(_)) => {
            lane.depth.fetch_sub(1, Ordering::Relaxed);
            ServerObs::bump(&sh.obs.retries);
            if let Some(s) = &span {
                s.annotate("retry");
            }
            reply.send(&Response::Retry { req_id }, span);
        }
        Err(TrySendError::Disconnected(_)) => {
            lane.depth.fetch_sub(1, Ordering::Relaxed);
            if let Some(s) = &span {
                s.annotate("shutdown");
            }
            reply.send(
                &Response::Err {
                    req_id,
                    message: "server shutting down".to_owned(),
                },
                span,
            );
        }
    }
}

/// Posts a SYNC barrier to every lane; the last lane to fence past it
/// sends the ack.
fn submit_barrier(sh: &Arc<Shared>, req_id: u64, reply: &ReplyTx) {
    let gate = Arc::new(SyncGate {
        remaining: AtomicUsize::new(sh.cfg.lanes),
        req_id,
        resp: Mutex::new(Some(reply.clone())),
    });
    for lane in &sh.lanes {
        lane.depth.fetch_add(1, Ordering::Relaxed);
        // Blocking send: a barrier must not be dropped for backpressure,
        // and the committer is always draining, so this cannot wedge.
        let sent = match lane.tx.lock().as_ref() {
            Some(tx) => tx.send(Submission::Barrier(Arc::clone(&gate))).is_ok(),
            None => false,
        };
        if !sent {
            lane.depth.fetch_sub(1, Ordering::Relaxed);
            gate.arrive(Some("server shutting down"));
        }
    }
}

fn committer_loop(sh: &Arc<Shared>, lane_idx: usize, rx: Receiver<Submission>) {
    let mut ctx = ThreadCtx::for_thread(Arc::clone(&sh.cfg.cost), lane_idx);
    let lane = &sh.lanes[lane_idx];
    loop {
        // Self-clocking group commit: block for the first submission,
        // then take whatever queued up behind it (while the previous
        // batch was fencing) and commit at once. Batches grow with load
        // and fence time; nothing ever waits on a timer. Disconnect
        // after drain means shutdown.
        let first = match rx.recv() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut batch = vec![first];
        batch.extend(rx.try_iter().take(sh.cfg.max_batch.saturating_sub(1)));
        lane.depth.fetch_sub(batch.len(), Ordering::Relaxed);
        if sh.discard.load(Ordering::SeqCst) {
            // Aborting: drop the batch unapplied and unacked (the reply
            // handles just go away). Keep draining so senders never
            // block.
            continue;
        }
        commit_batch(sh, &mut ctx, lane, batch);
    }
}

fn commit_batch(sh: &Arc<Shared>, ctx: &mut ThreadCtx, lane: &Lane, batch: Vec<Submission>) {
    let queue_depth = lane.depth.load(Ordering::Relaxed) as u64;
    let mut ops = Vec::with_capacity(batch.len());
    let mut writes = Vec::with_capacity(batch.len());
    let mut barriers = Vec::new();
    for sub in batch {
        match sub {
            Submission::Write {
                op,
                req_id,
                durable,
                resp,
                trace,
            } => {
                // The batch is sealed: `batch_seal` closes the
                // queue-wait stage (behind the previous batch's fence) for
                // every traced op.
                if let Some(s) = &trace {
                    s.stamp("batch_seal");
                }
                ops.push(op);
                writes.push((req_id, durable, resp, trace));
            }
            Submission::Barrier(gate) => barriers.push(gate),
        }
    }

    if ops.is_empty() {
        // Barrier-only batch: everything previously committed on this
        // lane is already fenced, but flush the writer anyway so a
        // barrier is a fence even across future refactors.
        let err = sh.store.sync_writer(ctx).err().map(|e| format!("{e:?}"));
        for gate in barriers {
            gate.arrive(err.as_deref());
        }
        return;
    }

    let durable_acks = writes.iter().filter(|(_, durable, _, _)| *durable).count() as u64;
    let span = sh.obs.batch_start(ctx.clock.now(), sh.dev.stats());
    let applied = {
        let spans: Vec<Option<&TraceSpan>> =
            writes.iter().map(|(_, _, _, t)| t.as_deref()).collect();
        sh.store.apply_batch_traced(ctx, &ops, &spans)
    };
    match applied {
        Ok(outcomes) => {
            for (_, _, _, trace) in &writes {
                if let Some(s) = trace {
                    s.stamp("fence_complete");
                }
            }
            sh.obs.batch_end(
                span,
                ctx.clock.now(),
                sh.dev.stats(),
                ops.len() as u64,
                durable_acks,
                queue_depth,
            );
            // Acks strictly after the batch's fence (`apply_batch` has
            // returned): an injected crash at that fence unwinds above
            // and never reaches this loop. Under the replica-quorum
            // policy durable acks are handed to the hub instead, which
            // only ever delays them further — never earlier than the
            // fence.
            let mut acks = Vec::with_capacity(durable_acks as usize);
            for ((req_id, durable, resp, trace), (op, existed)) in
                writes.into_iter().zip(ops.iter().zip(outcomes))
            {
                if !durable {
                    continue;
                }
                let r = match op {
                    BatchOp::Put { .. } => Response::Ok { req_id },
                    BatchOp::Delete { .. } => {
                        if existed {
                            Response::Deleted { req_id }
                        } else {
                            Response::NotFound { req_id }
                        }
                    }
                };
                acks.push((resp, r, trace));
            }
            if sh.repl.withholds_acks() {
                sh.repl.publish(&ops, acks);
            } else {
                // Ship before acking, so the shipped floor a client reads
                // after an ack already covers the acked write.
                sh.repl.publish(&ops, Vec::new());
                for (resp, r, trace) in acks {
                    resp.send(&r, trace);
                }
            }
            // SYNC barriers stay local-fence under either policy: they
            // assert device durability, not replica propagation.
            for gate in barriers {
                gate.arrive(None);
            }
        }
        Err(e) => {
            let msg = format!("{e:?}");
            for (req_id, durable, resp, trace) in writes {
                if durable {
                    resp.send(
                        &Response::Err {
                            req_id,
                            message: msg.clone(),
                        },
                        trace,
                    );
                }
            }
            for gate in barriers {
                gate.arrive(Some(&msg));
            }
        }
    }
}
