//! The reactor: a fixed pool of nonblocking I/O workers multiplexing
//! readiness over all client sockets via `poll(2)`.
//!
//! Shape follows memcached's listener→worker model: the acceptor hands
//! each new connection to one worker (round-robin by connection id), and
//! from then on that worker owns the socket exclusively — reads, frame
//! reassembly, inline dispatch, and writes all happen on the worker
//! thread, so per-connection state needs no locking. Cross-thread
//! traffic arrives only through the worker's **inbox** (new connections
//! from the acceptor, completed durable acks from the committers), paired
//! with a [`WakePipe`] so a blocked `poll` learns about it immediately.
//!
//! GET/STATS/MODE/TRACE are served inline on the worker through the
//! lock-free epoch-pinned read path; PUT/DELETE/SYNC route to the
//! group-commit lanes, and the committer finishes the ack by posting the
//! encoded response frame back to the owning worker's inbox.
//!
//! A worker's loop never sleeps blind: it blocks in `poll` until a
//! socket is ready, a wakeup arrives, or the idle-sweep interval passes.
//! The `polls` counter (exported in the `"reactor"` snapshot section)
//! therefore measures actual wakeups — the idle-CPU regression test
//! asserts it stays near zero on an idle server, where the old model
//! burned a 2 ms sleep loop.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chameleon_obs::{CounterSection, ServerObs, TraceSpan};
use parking_lot::Mutex;
use pmem_sim::ThreadCtx;

use crate::conn::{Conn, ReadOutcome};
use crate::engine::{frame_of, handle_request, seal_span, ReplyTx, Shared};
use crate::proto::{decode_request, Request, Response};

/// A nonblocking self-pipe: one byte written to the write end makes the
/// read end `poll` readable, waking a worker blocked in `poll(2)`.
pub(crate) struct WakePipe {
    r: libc::c_int,
    w: libc::c_int,
}

impl WakePipe {
    pub fn new() -> io::Result<Self> {
        let mut fds = [-1 as libc::c_int; 2];
        if unsafe { libc::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            let flags = unsafe { libc::fcntl(fd, libc::F_GETFL, 0) };
            if flags < 0 || unsafe { libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK) } != 0
            {
                let err = io::Error::last_os_error();
                unsafe {
                    libc::close(fds[0]);
                    libc::close(fds[1]);
                }
                return Err(err);
            }
        }
        Ok(Self {
            r: fds[0],
            w: fds[1],
        })
    }

    pub fn read_fd(&self) -> libc::c_int {
        self.r
    }

    /// Posts one wakeup byte. A full pipe means a wakeup is already
    /// pending, so `EAGAIN` is deliberately ignored.
    pub fn wake(&self) {
        let byte = [1u8];
        let _ = unsafe { libc::write(self.w, byte.as_ptr(), 1) };
    }

    /// Consumes all pending wakeup bytes (nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { libc::read(self.r, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.r);
            libc::close(self.w);
        }
    }
}

/// A finished response on its way back to the worker that owns the
/// connection: the frame is already encoded (length prefix included).
pub(crate) struct Completion {
    pub conn_id: u64,
    pub frame: Vec<u8>,
    pub span: Option<Arc<TraceSpan>>,
}

/// Cross-thread mail for one worker.
#[derive(Default)]
pub(crate) struct Inbox {
    /// New connections from the acceptor (id, nonblocking stream).
    pub conns: Vec<(u64, TcpStream)>,
    /// Durable acks / barrier acks from the committers.
    pub completions: Vec<Completion>,
}

/// The externally visible half of one I/O worker: its inbox, wake pipe,
/// and counters. Connection state itself lives on the worker's stack.
pub(crate) struct WorkerShared {
    pub idx: usize,
    pub wake: WakePipe,
    pub inbox: Mutex<Inbox>,
    /// `poll(2)` calls made — the worker's true wakeup count. Near-zero
    /// on an idle server; the idle-CPU regression test pins this.
    pub polls: AtomicU64,
    /// Wakeup posts targeted at this worker (acceptor + committers +
    /// self-posts from inline dispatch).
    pub wakeups: AtomicU64,
    /// Connections currently owned by this worker.
    pub open_conns: AtomicU64,
    /// Total unsent response bytes across this worker's connections,
    /// republished after every dispatch pass (a gauge, not a counter).
    pub queued_bytes: AtomicU64,
    /// Leaked once per worker at startup: `CounterSection` names must be
    /// `&'static str`. Bounded by the worker count (single digits).
    name_conns: &'static str,
    name_polls: &'static str,
    name_wakeups: &'static str,
    name_queued: &'static str,
}

impl WorkerShared {
    pub fn new(idx: usize) -> io::Result<Self> {
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        Ok(Self {
            idx,
            wake: WakePipe::new()?,
            inbox: Mutex::new(Inbox::default()),
            polls: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            queued_bytes: AtomicU64::new(0),
            name_conns: leak(format!("worker{idx}_conns")),
            name_polls: leak(format!("worker{idx}_polls")),
            name_wakeups: leak(format!("worker{idx}_wakeups")),
            name_queued: leak(format!("worker{idx}_queued_bytes")),
        })
    }

    /// Hands a freshly accepted connection to this worker.
    pub fn post_conn(&self, conn_id: u64, stream: TcpStream) {
        self.inbox.lock().conns.push((conn_id, stream));
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        self.wake.wake();
    }

    /// Posts an encoded response frame for one of this worker's
    /// connections (from a committer, a sync gate, or the worker itself
    /// during inline dispatch).
    pub fn post_completion(&self, conn_id: u64, frame: Vec<u8>, span: Option<Arc<TraceSpan>>) {
        self.inbox.lock().completions.push(Completion {
            conn_id,
            frame,
            span,
        });
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        self.wake.wake();
    }
}

/// The `"reactor"` counter section: totals plus per-worker breakdown.
pub(crate) fn section(workers: &[Arc<WorkerShared>]) -> CounterSection {
    let mut counters: Vec<(&'static str, u64)> = vec![("workers", workers.len() as u64)];
    let (mut conns, mut polls, mut wakeups, mut queued) = (0u64, 0u64, 0u64, 0u64);
    for w in workers {
        conns += w.open_conns.load(Ordering::Relaxed);
        polls += w.polls.load(Ordering::Relaxed);
        wakeups += w.wakeups.load(Ordering::Relaxed);
        queued += w.queued_bytes.load(Ordering::Relaxed);
    }
    counters.push(("open_conns", conns));
    counters.push(("polls", polls));
    counters.push(("wakeups", wakeups));
    counters.push(("queued_bytes", queued));
    for w in workers {
        counters.push((w.name_conns, w.open_conns.load(Ordering::Relaxed)));
        counters.push((w.name_polls, w.polls.load(Ordering::Relaxed)));
        counters.push((w.name_wakeups, w.wakeups.load(Ordering::Relaxed)));
        counters.push((w.name_queued, w.queued_bytes.load(Ordering::Relaxed)));
    }
    CounterSection {
        name: "reactor",
        counters,
    }
}

/// How long one `poll` may block: long enough to be effectively idle,
/// short enough that idle sweeps stay timely.
fn poll_timeout_ms(idle_timeout: Option<Duration>) -> libc::c_int {
    match idle_timeout {
        None => -1,
        Some(d) => (d.as_millis() / 4).clamp(50, 1000) as libc::c_int,
    }
}

/// One I/O worker: owns a set of connections, multiplexes readiness over
/// them plus its wake pipe, dispatches complete frames, and flushes
/// responses. Runs until the server signals the drained phase of
/// shutdown (see `KvServer::stop_threads`).
pub(crate) fn worker_loop(sh: &Arc<Shared>, w: &Arc<WorkerShared>) {
    // Committers own simulated-thread ids 0..lanes; workers come next.
    let mut ctx = ThreadCtx::for_thread(Arc::clone(&sh.cfg.cost), sh.cfg.lanes + w.idx);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut valbuf = Vec::new();
    let mut pfds: Vec<libc::pollfd> = Vec::new();
    // Connection id owning pfds[i + 1] (pfds[0] is the wake pipe).
    let mut order: Vec<u64> = Vec::new();
    let mut last_sweep = Instant::now();
    let timeout = poll_timeout_ms(sh.cfg.idle_timeout);

    loop {
        // 1) Absorb pending wakeups *before* the inbox so a post that
        //    lands after the inbox drain still has its byte in the pipe
        //    and the next poll returns immediately (no lost wakeup).
        w.wake.drain();

        // 2) Drain the inbox: adopt new connections, route completions.
        {
            let mut inbox = w.inbox.lock();
            for (id, stream) in inbox.conns.drain(..) {
                conns.insert(id, Conn::new(stream, id));
            }
            for comp in inbox.completions.drain(..) {
                // A completion for a connection this worker already
                // closed is dropped: the client is gone, and its span
                // (if any) simply never completes.
                if let Some(c) = conns.get_mut(&comp.conn_id) {
                    // Saturating: a replication subscription streams many
                    // responses off one request.
                    c.inflight = c.inflight.saturating_sub(1);
                    if !c.enqueue(comp.frame, comp.span, sh.cfg.resp_queue_cap) {
                        ServerObs::bump(&sh.obs.slow_consumer_disconnects);
                    }
                }
            }
        }

        // 3) Flush whatever can be written right now; close the dead.
        let mut queued_total = 0u64;
        for c in conns.values_mut() {
            if !c.doomed && c.wants_write() && !c.flush(|span| seal_span(&sh.tracer, span)) {
                c.doomed = true;
            }
            // Half-closed peer with nothing left to send: done.
            if c.eof && !c.wants_write() {
                c.doomed = true;
            }
            queued_total += c.queued_bytes as u64;
        }
        conns.retain(|_, c| {
            if c.doomed {
                let _ = c.stream.shutdown(Shutdown::Both);
                ServerObs::bump(&sh.obs.disconnects);
            }
            !c.doomed
        });
        w.queued_bytes.store(queued_total, Ordering::Relaxed);
        w.open_conns.store(conns.len() as u64, Ordering::Relaxed);

        // Shutdown: keep serving until every committer has drained (their
        // final acks arrive through the inbox above), then exit. `abort`
        // skips the flush — queued replies are discarded with the conns.
        if sh.drained.load(Ordering::SeqCst) {
            if !sh.discard.load(Ordering::SeqCst) {
                drain_conns(sh, &mut ctx, &mut conns, w, &mut scratch, &mut valbuf);
            }
            for (_, c) in conns.drain() {
                let _ = c.stream.shutdown(Shutdown::Both);
                ServerObs::bump(&sh.obs.disconnects);
            }
            w.open_conns.store(0, Ordering::Relaxed);
            return;
        }

        // Periodic idle sweep: a silent (dead or half-open) peer must not
        // pin a connection slot forever. Idleness is *no activity and no
        // obligations*: a connection with queued response bytes still
        // draining, or a request in flight (an un-acked lane submission,
        // a pending quorum ack), is live regardless of how long the
        // socket has been read-silent, and must not be reaped.
        if let Some(idle) = sh.cfg.idle_timeout {
            if last_sweep.elapsed() >= idle / 4 {
                last_sweep = Instant::now();
                let now = Instant::now();
                conns.retain(|_, c| {
                    if c.pinned || c.wants_write() || c.inflight > 0 {
                        return true;
                    }
                    if now.duration_since(c.last_activity) > idle {
                        ServerObs::bump(&sh.obs.idle_disconnects);
                        ServerObs::bump(&sh.obs.disconnects);
                        let _ = c.stream.shutdown(Shutdown::Both);
                        false
                    } else {
                        true
                    }
                });
            }
        }

        // 4) Build the poll set and block until something happens.
        pfds.clear();
        order.clear();
        pfds.push(libc::pollfd {
            fd: w.wake.read_fd(),
            events: libc::POLLIN,
            revents: 0,
        });
        for (id, c) in &conns {
            // A half-closed socket stays readable forever; once EOF is
            // seen only writability matters.
            let mut events = if c.eof { 0 } else { libc::POLLIN };
            if c.wants_write() {
                events |= libc::POLLOUT;
            }
            pfds.push(libc::pollfd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            order.push(*id);
        }
        let n = unsafe { libc::poll(pfds.as_mut_ptr(), pfds.len() as libc::nfds_t, timeout) };
        w.polls.fetch_add(1, Ordering::Relaxed);
        if n < 0 {
            // EINTR: just go around; state is untouched.
            continue;
        }

        // 5) Service ready connections: read, reassemble, dispatch.
        for (i, id) in order.iter().enumerate() {
            let revents = pfds[i + 1].revents;
            if revents == 0 {
                continue;
            }
            let c = conns.get_mut(id).expect("order tracks conns");
            if revents & (libc::POLLERR | libc::POLLNVAL) != 0 {
                c.doomed = true;
                continue;
            }
            if revents & (libc::POLLIN | libc::POLLHUP) != 0 {
                let outcome = c.read_ready(&mut scratch);
                dispatch_frames(sh, &mut ctx, c, w, &mut valbuf);
                match outcome {
                    ReadOutcome::Open => {}
                    // EOF after dispatching what was buffered: replies
                    // already queued (including ones the dispatch just
                    // produced) still flush before the close — step 3
                    // only dooms an EOF connection once its write queue
                    // is empty.
                    ReadOutcome::Eof => c.eof = true,
                    ReadOutcome::Err => c.doomed = true,
                }
            }
            if revents & libc::POLLOUT != 0
                && !c.doomed
                && !c.flush(|span| seal_span(&sh.tracer, span))
            {
                c.doomed = true;
            }
        }
    }
}

/// Final pass of a graceful shutdown: requests the client flushed
/// before the stop may still sit unread in kernel socket buffers. Read
/// and dispatch them so every request *received* before the close gets
/// an explicit answer — the lanes are already gone, so writes come back
/// as `Err("server shutting down")` — rather than a silent EOF, then
/// flush each connection's queue under a bounded deadline.
fn drain_conns(
    sh: &Arc<Shared>,
    ctx: &mut ThreadCtx,
    conns: &mut HashMap<u64, Conn>,
    w: &Arc<WorkerShared>,
    scratch: &mut [u8],
    valbuf: &mut Vec<u8>,
) {
    for c in conns.values_mut() {
        if c.doomed {
            continue;
        }
        if !c.eof {
            match c.read_ready(scratch) {
                ReadOutcome::Open | ReadOutcome::Eof => {}
                ReadOutcome::Err => {
                    c.doomed = true;
                    continue;
                }
            }
        }
        dispatch_frames(sh, ctx, c, w, valbuf);
    }
    // The dispatches above answered inline (committers are already
    // joined, so nobody else posts), but every `ReplyTx` send
    // routes through this worker's own inbox — collect those replies
    // onto their connections before the final flush.
    {
        let mut inbox = w.inbox.lock();
        for comp in inbox.completions.drain(..) {
            if let Some(c) = conns.get_mut(&comp.conn_id) {
                c.inflight = c.inflight.saturating_sub(1);
                let _ = c.enqueue(comp.frame, comp.span, sh.cfg.resp_queue_cap);
            }
        }
        inbox.conns.clear();
    }
    // Nonblocking flush with a short writability wait per retry: a
    // healthy local client absorbs the queue immediately; a wedged one
    // cannot stall shutdown past the deadline.
    let deadline = Instant::now() + Duration::from_secs(2);
    for c in conns.values_mut() {
        while !c.doomed && c.wants_write() && Instant::now() < deadline {
            if !c.flush(|span| seal_span(&sh.tracer, span)) {
                break;
            }
            if c.wants_write() {
                let mut pfd = libc::pollfd {
                    fd: c.stream.as_raw_fd(),
                    events: libc::POLLOUT,
                    revents: 0,
                };
                unsafe { libc::poll(&mut pfd, 1, 20) };
            }
        }
    }
}

/// Pulls every complete frame out of `c`'s read buffer and dispatches
/// it. Responses come back through a [`ReplyTx`] — either
/// immediately (inline GET/STATS) or later from a committer — and are
/// routed to the connection on the next inbox drain.
fn dispatch_frames(
    sh: &Arc<Shared>,
    ctx: &mut ThreadCtx,
    c: &mut Conn,
    w: &Arc<WorkerShared>,
    valbuf: &mut Vec<u8>,
) {
    loop {
        if c.doomed {
            return;
        }
        let payload = match c.framebuf.next_frame() {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) => {
                protocol_error(sh, c, e);
                return;
            }
        };
        let req = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                protocol_error(sh, c, e);
                return;
            }
        };
        ServerObs::bump(&sh.obs.requests);
        // Counted before dispatch; the matching decrement happens when a
        // completion for this connection drains from the inbox.
        c.inflight += 1;
        // A subscription makes this connection live for its lifetime:
        // the replica only writes acks in response to shipped batches,
        // so read-silence is its normal state (see Conn::pinned).
        if matches!(req, Request::ReplSubscribe { .. }) {
            c.pinned = true;
        }
        let reply = ReplyTx {
            worker: Arc::clone(w),
            conn_id: c.id,
        };
        handle_request(sh, ctx, req, &reply, valbuf);
    }
}

/// A framing or decode error is fatal for the connection (the byte
/// stream can't be resynchronized), but the client still deserves to
/// hear *why*: queue the `Err` reply and push it toward the socket
/// immediately — the close that follows skips doomed connections'
/// flush, so without this attempt the ERR would be silently discarded.
fn protocol_error(sh: &Arc<Shared>, c: &mut Conn, e: crate::proto::ProtoError) {
    ServerObs::bump(&sh.obs.protocol_errors);
    let frame = frame_of(&Response::Err {
        req_id: 0,
        message: e.to_string(),
    });
    if c.enqueue(frame, None, sh.cfg.resp_queue_cap) {
        let _ = c.flush(|span| seal_span(&sh.tracer, span));
    }
    c.doomed = true;
}
