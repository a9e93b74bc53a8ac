//! The service workloads: an open-loop generator over loopback TCP
//! against a `KvServer` with the default `ServerConfig`, over the store
//! configuration `repro serve` ships (Table 1 geometry, 64 shards, engine
//! observability on).
//!
//! One generator thread drives two pipelined connections on a fixed
//! schedule: request `i` is due at `t0 + i / rate`, its latency counts
//! from that due time, and a request due on a connection that already
//! has [`MAX_OUTSTANDING`] unanswered requests is shed, never delayed.
//! A key always travels on the same connection, so the shadow can bound
//! what each GET may return.
//!
//! The generator is a fork of `kvclient::openloop::run` (same
//! nonblocking connections, poll loop, shedding and drain), extended with
//! scans, key choice per mix, a check of every answer and RETRY
//! resubmission. `openloop::run` has no per-request hook to add those
//! through, so it cannot be called here; its metrics are named `gen.*`.
//! The `kvclient` layer itself is measured after the load stops: blocking
//! `Client::put_retrying`, `Client::get` and `Client::scan` calls on an
//! idle server, checked like the generator's answers (`kvclient.*`).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chameleon_obs::trace::now_ns;
use chameleon_obs::{ObsConfig, OpHists, ServerObs, SpanRecord, TraceConfig};
use chameleondb::{ChameleonConfig, ChameleonDb};
use kvapi::KvStore;
use kvserver::conn::FrameBuf;
use kvserver::proto::{decode_response, encode_request, Request, Response};
use kvserver::{KvServer, ServerConfig};
use pmem_sim::{PmemDevice, ThreadCtx};
use ycsb::{Distribution, KeyChooser};

use crate::engine::crash_recover_verify;
use crate::layers::{self, Snap};
use crate::report::{median, ratio, Outcome, Pooled, Samples};
use crate::shadow::{check_read, check_scan, value_of, KeySet, Rng, Shadow, PRELOAD_VERSION};
use crate::spans::{ClientSpan, SpanLog};

/// One service traffic mix.
pub struct Mix {
    pub name: &'static str,
    /// Fraction of durable PUTs.
    pub put: f64,
    /// Fraction of GETs; the rest are SCANs.
    pub get: f64,
    /// Zipfian keys (and scan starts) instead of uniform ones.
    pub zipf: bool,
    /// Preloaded keys; every request targets one of them.
    pub keys: usize,
    /// Offered load, requests per second, below the knee.
    pub rate: u64,
}

/// `svc-write`: the group-commit path.
pub const WRITE: Mix = Mix {
    name: "svc-write",
    put: 0.95,
    get: 0.05,
    zipf: false,
    keys: 100_000,
    rate: 8_000,
};

/// `svc-read`: the inline read and scan path.
pub const READ: Mix = Mix {
    name: "svc-read",
    put: 0.05,
    get: 0.90,
    zipf: true,
    keys: 100_000,
    rate: 8_000,
};

/// Generator connections.
const CONNS: usize = 2;
/// Unanswered requests one connection may carry before it sheds (a
/// quarter second of its share of the load).
const MAX_OUTSTANDING: usize = 1024;
/// Submissions of one PUT, the first included, before RETRY fails it.
/// Resubmissions back off exponentially from 200 µs to at most 50 ms,
/// as `kvclient::RetryPolicy` does by default.
const MAX_ATTEMPTS: u32 = 16;
/// Longest scan, in keys (lengths are uniform in `1..=SCAN_MAX`).
const SCAN_MAX: u64 = 100;
/// Longest wait for the last answers after the schedule ends.
const DRAIN: Duration = Duration::from_secs(5);
/// Independent sessions, each on a fresh set-up, an untraced run is
/// split into; each must be long enough to see the engine's flushes.
const SESSIONS: usize = 3;
/// Simulated device size (as `repro serve`).
const DEVICE_BYTES: usize = 1 << 30;

fn store_config() -> ChameleonConfig {
    let mut cfg = ChameleonConfig::with_shards(64);
    cfg.obs = ObsConfig::on();
    cfg
}

struct Instance {
    store: Arc<ChameleonDb>,
    obs: Arc<ServerObs>,
    server: KvServer,
}

/// Creates the device and store, preloads every key durably and starts
/// the server. With `ring`, the server traces every request and keeps
/// that many spans.
fn setup(keys: &KeySet, ring: Option<usize>) -> Result<(Instance, f64), String> {
    let t0 = Instant::now();
    let dev = PmemDevice::optane(DEVICE_BYTES);
    let store = Arc::new(
        ChameleonDb::create(Arc::clone(&dev), store_config())
            .map_err(|e| format!("store create: {e:?}"))?,
    );
    let mut ctx = ThreadCtx::with_default_cost();
    for i in 0..keys.len() {
        let k = keys.key(i);
        store
            .put(&mut ctx, k, &value_of(k, PRELOAD_VERSION))
            .map_err(|e| format!("preload: {e:?}"))?;
    }
    store
        .sync(&mut ctx)
        .map_err(|e| format!("preload sync: {e:?}"))?;
    let mut cfg = ServerConfig::default();
    if let Some(ring_capacity) = ring {
        cfg.trace = TraceConfig {
            sample_every: 1,
            ring_capacity,
        };
    }
    let obs = Arc::new(ServerObs::new());
    let server = KvServer::start(
        "127.0.0.1:0",
        dev,
        Arc::clone(&store),
        Arc::clone(&obs),
        cfg,
    )
    .map_err(|e| format!("server start: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((Instance { store, obs, server }, secs))
}

/// Runs one service workload and returns every metric it measures.
///
/// Untraced, the run is [`SESSIONS`] independent sessions, each on a
/// fresh set-up, and every metric is the median over them. Traced, it is
/// one untraced and one traced session of half the time each; the
/// per-layer numbers come from the traced one.
pub fn run(mix: &Mix, seed: u64, secs: f64, trace: bool) -> Result<Outcome, String> {
    let keys = KeySet::new(seed, mix.keys);
    if !trace {
        let mut sessions = Vec::with_capacity(SESSIONS);
        let mut setups = Vec::with_capacity(SESSIONS);
        for _ in 0..SESSIONS {
            let (inst, s) = setup(&keys, None)?;
            setups.push(s);
            sessions.push(measure(
                inst,
                mix,
                &keys,
                seed,
                secs / SESSIONS as f64,
                None,
            )?);
        }
        let mut out = Outcome::combine(sessions);
        out.set("setup_s", median(setups));
        return Ok(out);
    }
    let half = secs / 2.0;
    let (inst, _) = setup(&keys, None)?;
    let base = measure(inst, mix, &keys, seed, half, None)?;
    let ring = (mix.rate as f64 * half * 1.5) as usize + 1024;
    let (inst, _) = setup(&keys, Some(ring))?;
    let mut log = SpanLog::default();
    let mut out = measure(inst, mix, &keys, seed, half, Some(&mut log))?;
    out.absorb_overhead(&base);
    log.write(&format!("{}-{seed}", mix.name))?;
    Ok(out)
}

/// Measures one set-up instance for `secs`, then crashes, recovers and
/// verifies it. With `log`, the server traced every request: its spans
/// and the generator's go into `log` and the per-stage metrics are set.
fn measure(
    inst: Instance,
    mix: &Mix,
    keys: &KeySet,
    seed: u64,
    secs: f64,
    log: Option<&mut SpanLog>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut shadow = Shadow::preloaded(keys.len());
    let srv = ServerCounters::take(&inst.obs);
    let snap_a = Snap::take(&inst.store);
    let hist_a = inst.store.obs().op_rollup();

    let traced = log.is_some();
    let mut g = generate(
        inst.server.local_addr(),
        mix,
        keys,
        &mut shadow,
        seed,
        Duration::from_secs_f64(secs),
        traced,
        &mut out,
    )?;

    let snap_b = Snap::take(&inst.store);
    let hist = delta(&inst.store.obs().op_rollup(), &hist_a);
    let srv = ServerCounters::take(&inst.obs).minus(&srv);
    let load_spans = inst.server.tracer().spans(usize::MAX);

    out.attempted = g.offered;
    let wrong = out.failed;
    out.failed += g.shed + g.exhausted + g.superseded + g.errors + g.unanswered;
    if out.failed > 0 {
        eprintln!(
            "perfbench: {}: {} of {} requests failed: {} shed, {} refused by RETRY, \
             {} superseded while refused, {} ERR, {} unanswered, {} wrong",
            mix.name,
            out.failed,
            g.offered,
            g.shed,
            g.exhausted,
            g.superseded,
            g.errors,
            g.unanswered,
            wrong
        );
    }
    out.set("ops_per_s", ratio(g.ok as f64, g.last_ok.as_secs_f64()));
    out.set("gen.put_p99_us", g.put_lat.quantile_us(0.99));
    out.set("gen.get_p50_us", g.get_lat.quantile_us(0.5));
    out.set("gen.get_p99_us", g.get_lat.quantile_us(0.99));
    out.set("gen.scan_p50_us", g.scan_lat.quantile_us(0.5));
    layers::end_to_end(
        &mut out,
        &inst.store,
        &snap_a,
        &snap_b,
        g.acked_puts,
        keys.len(),
    );
    let scan_sim_ns = hist.scan.mean() * hist.scan.count() as f64;
    layers::per_layer(
        &mut out,
        &inst.store,
        &snap_a,
        &snap_b,
        g.acked_puts,
        g.gets,
        scan_sim_ns,
    );

    out.set("gen.rtt_put_us", g.put_rtt.mean_us());
    out.set("gen.rtt_get_us", g.get_rtt.mean_us());
    out.set("gen.late_p99_us", g.late.quantile_us(0.99));
    out.set("gen.shed_frac", ratio(g.shed as f64, g.offered as f64));
    out.set("gen.retry_frac", ratio(g.retries as f64, g.offered as f64));
    out.set("kvserver.mean_batch", ratio(srv.batched_ops, srv.batches));
    out.set("kvserver.acks_per_fence", ratio(srv.acks, srv.fences));
    for name in [
        "chameleondb.get_us",
        "chameleondb.put_us",
        "chameleondb.get_p99_us",
        "chameleondb.put_p99_us",
    ] {
        out.set(name, 0.0);
    }
    let rtt_all = g.all_rtt.mean_us();
    out.op_mean_us = rtt_all;
    stage_metrics(&mut out, &load_spans, rtt_all);
    out.pooled = Pooled {
        put: std::mem::take(&mut g.put_lat),
        sim_mops: vec![sim_mops(&hist)],
        sim_put: hist.put,
        sim_get: hist.get,
    };
    out.set_pooled();

    let addr = inst.server.local_addr();
    let mut probe_spans = Vec::new();
    probe(
        addr,
        keys,
        &mut shadow,
        seed,
        traced.then_some(&mut probe_spans),
        &mut out,
    )?;
    if let Some(log) = log {
        log.client.append(&mut g.spans);
        log.client.append(&mut probe_spans);
        log.server = inst.server.tracer().spans(usize::MAX);
    }

    // Crash the device under the stopped server, recover, verify.
    let Instance { store, server, .. } = inst;
    server.abort();
    let db = Arc::try_unwrap(store).map_err(|_| "store still shared after server stop")?;
    crash_recover_verify(db, keys, &shadow, &mut out)?;
    Ok(out)
}

/// Rounds of blocking `kvclient` calls after the load stops.
const PROBE_ROUNDS: usize = 300;

/// Measures the `kvclient` layer: with the generator's connections
/// closed and the server idle, one `kvclient::Client` makes
/// [`PROBE_ROUNDS`] rounds of a durable `put_retrying` of a new version,
/// a `get` and a `scan` of 1 to [`SCAN_MAX`] keys, each on a seeded key,
/// and checks every answer against the shadow; a call that errs counts as
/// failed, a wrong answer as a violation. Keys with a write still
/// unanswered are skipped, so no two writes of one key can race. Sets
/// `kvclient.rtt_{put,get,scan}_us`, the mean time of each call.
fn probe(
    addr: SocketAddr,
    keys: &KeySet,
    shadow: &mut Shadow,
    seed: u64,
    mut spans: Option<&mut Vec<ClientSpan>>,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut client = kvclient::Client::connect(addr).map_err(|e| format!("kvclient: {e}"))?;
    let mut rng = Rng::new(seed ^ 0x4B56_434C_4945_4E54);
    let (mut put, mut get, mut scan) = (Samples::default(), Samples::default(), Samples::default());
    let base_ns = now_ns();
    let t0 = Instant::now();
    let mut record = |name: &'static str, key: u64, start: Instant, samples: &mut Samples| {
        let end = Instant::now();
        samples.push(end.duration_since(start).as_nanos() as u64);
        if let Some(spans) = spans.as_deref_mut() {
            let wall = |t: Instant| base_ns + t.duration_since(t0).as_nanos() as u64;
            spans.push(ClientSpan {
                name,
                key,
                start_ns: wall(start),
                end_ns: wall(end),
            });
        }
    };
    for _ in 0..PROBE_ROUNDS {
        let i = rng.below(keys.len() as u64) as usize;
        if shadow.acked[i] == shadow.issued[i] {
            out.attempted += 1;
            let key = keys.key(i);
            let v = shadow.issue(i);
            let start = Instant::now();
            match client.put_retrying(key, &value_of(key, v), true) {
                Ok(_) => {
                    record("kvclient.put", key, start, &mut put);
                    shadow.ack(i, v);
                }
                Err(e) => call_failed(out, format!("kvclient put {key:#x}: {e}")),
            }
        }

        out.attempted += 2;
        let i = rng.below(keys.len() as u64) as usize;
        let key = keys.key(i);
        let start = Instant::now();
        match client.get(key) {
            Ok(got) => {
                record("kvclient.get", key, start, &mut get);
                let (floor, ceil) = (shadow.acked[i], shadow.issued[i]);
                if let Err(e) = check_read(key, got.as_deref(), floor, ceil) {
                    out.violation(format!("kvclient get: {e}"));
                }
            }
            Err(e) => call_failed(out, format!("kvclient get {key:#x}: {e}")),
        }

        let from = keys.sorted()[rng.below(keys.len() as u64) as usize];
        let limit = 1 + rng.below(SCAN_MAX);
        let start = Instant::now();
        match client.scan(from, limit as u32) {
            Ok(got) => {
                record("kvclient.scan", from, start, &mut scan);
                let want = keys.expected_scan(from, limit as usize);
                if let Err(e) = check_scan(from, limit as usize, &got, want) {
                    out.violation(format!("kvclient scan: {e}"));
                }
            }
            Err(e) => call_failed(out, format!("kvclient scan from {from:#x}: {e}")),
        }
    }
    out.set("kvclient.rtt_put_us", put.mean_us());
    out.set("kvclient.rtt_get_us", get.mean_us());
    out.set("kvclient.rtt_scan_us", scan.mean_us());
    Ok(())
}

/// Counts a `kvclient` call that returned an error (RETRY exhausted, ERR,
/// a broken connection) as failed. It is not a wrong answer.
fn call_failed(out: &mut Outcome, what: String) {
    eprintln!("perfbench: {what}");
    out.failed += 1;
}

/// Operations per simulated microsecond of engine time (millions of
/// operations per simulated second).
fn sim_mops(h: &OpHists) -> f64 {
    let ns = h.put.mean() * h.put.count() as f64
        + h.get.mean() * h.get.count() as f64
        + h.scan.mean() * h.scan.count() as f64;
    1e3 * ratio((h.put.count() + h.get.count() + h.scan.count()) as f64, ns)
}

fn delta(now: &OpHists, before: &OpHists) -> OpHists {
    OpHists {
        put: now.put.delta(&before.put),
        get: now.get.delta(&before.get),
        delete: now.delete.delta(&before.delete),
        scan: now.scan.delta(&before.scan),
    }
}

/// Sets the server and engine stage means (µs per traced request) from
/// the server's spans, and the share of client-observed time no stage
/// accounts for. Stages are consecutive-stamp gaps, so a span's stages
/// sum to its total.
fn stage_metrics(out: &mut Outcome, spans: &[SpanRecord], client_mean_us: f64) {
    let mean = |op: Option<&str>, stage: &str| -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for s in spans.iter().filter(|s| op.is_none_or(|op| s.op == op)) {
            if let Some(ns) = s.stage_ns(stage) {
                sum += ns;
                n += 1;
            }
        }
        ratio(sum as f64, n as f64) / 1e3
    };
    out.set("kvserver.decode_us", mean(None, "decode"));
    out.set("kvserver.ack_write_us", mean(None, "ack_write"));
    out.set(
        "kvserver.lane_enqueue_us",
        mean(Some("put"), "lane_enqueue"),
    );
    out.set("kvserver.batch_seal_us", mean(Some("put"), "batch_seal"));
    out.set(
        "kvserver.fence_complete_us",
        mean(Some("put"), "fence_complete"),
    );
    out.set("chameleondb.append_us", mean(Some("put"), "engine_append"));
    out.set("chameleondb.fence_us", mean(Some("put"), "engine_fence"));
    out.set("chameleondb.probe_us", mean(Some("get"), "engine_probe"));
    out.set("chameleondb.read_us", mean(Some("get"), "engine_read"));
    let accounted = ratio(
        spans.iter().map(|s| s.stage_sum_ns() as f64).sum::<f64>(),
        spans.len() as f64,
    ) / 1e3;
    out.set(
        "kvserver.unaccounted_frac",
        if spans.is_empty() {
            0.0
        } else {
            1.0 - ratio(accounted, client_mean_us)
        },
    );
}

/// The server's batch counters at one instant (as floats for ratios).
struct ServerCounters {
    batches: f64,
    batched_ops: f64,
    acks: f64,
    fences: f64,
}

impl ServerCounters {
    fn take(obs: &ServerObs) -> Self {
        let r = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        Self {
            batches: r(&obs.batches),
            batched_ops: r(&obs.batched_ops),
            acks: r(&obs.acks),
            fences: r(&obs.commit_fences),
        }
    }

    fn minus(self, before: &Self) -> Self {
        Self {
            batches: self.batches - before.batches,
            batched_ops: self.batched_ops - before.batched_ops,
            acks: self.acks - before.acks,
            fences: self.fences - before.fences,
        }
    }
}

enum Kind {
    Get {
        i: usize,
        floor: u32,
    },
    Put {
        i: usize,
        version: u32,
        attempts: u32,
    },
    Scan {
        start: u64,
        limit: u64,
    },
}

impl Kind {
    /// The key the request names (a scan's start key).
    fn key(&self, keys: &KeySet) -> u64 {
        match *self {
            Kind::Get { i, .. } | Kind::Put { i, .. } => keys.key(i),
            Kind::Scan { start, .. } => start,
        }
    }
}

struct Pending {
    kind: Kind,
    due: Instant,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: HashMap<u64, Pending>,
    dead: bool,
}

impl Conn {
    fn queue(&mut self, req_id: u64, req: &Request, p: Pending) {
        let payload = encode_request(req);
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(&payload);
        self.pending.insert(req_id, p);
    }

    /// Writes what the socket accepts without blocking.
    fn pump(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }

    /// Reads what the socket holds without blocking.
    fn fill(&mut self, scratch: &mut [u8]) {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.frames.extend(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// What the generator observed.
#[derive(Default)]
struct Gen {
    offered: u64,
    shed: u64,
    retries: u64,
    /// PUTs still refused after [`MAX_ATTEMPTS`] submissions.
    exhausted: u64,
    /// PUTs refused and then dropped because a newer version of their
    /// key was issued (see [`Resubmit::Superseded`]).
    superseded: u64,
    /// ERR answers.
    errors: u64,
    /// Requests never answered.
    unanswered: u64,
    /// Requests answered correctly.
    ok: u64,
    acked_puts: u64,
    gets: u64,
    put_lat: Samples,
    get_lat: Samples,
    scan_lat: Samples,
    put_rtt: Samples,
    get_rtt: Samples,
    all_rtt: Samples,
    late: Samples,
    /// When the last correct answer arrived, from the schedule's start.
    last_ok: Duration,
    spans: Vec<ClientSpan>,
}

#[allow(clippy::too_many_arguments)]
fn generate(
    addr: SocketAddr,
    mix: &Mix,
    keys: &KeySet,
    shadow: &mut Shadow,
    seed: u64,
    duration: Duration,
    traced: bool,
    out: &mut Outcome,
) -> Result<Gen, String> {
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        conns.push(Conn {
            stream,
            frames: FrameBuf::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: HashMap::new(),
            dead: false,
        });
    }
    let n = keys.len();
    let mut rng = Rng::new(seed ^ 0x5356_4347_454E);
    let mut chooser = mix
        .zipf
        .then(|| KeyChooser::new(Distribution::Zipfian, n as u64, seed));
    let mut pick = |rng: &mut Rng| match &mut chooser {
        Some(c) => c.next_key() as usize,
        None => rng.below(n as u64) as usize,
    };
    let interval_ns = 1e9 / mix.rate as f64;
    let mut g = Gen::default();
    let mut scratch = vec![0u8; 64 << 10];
    let mut next_id: u64 = 1;
    let mut cursor: u64 = 0;
    let t0 = Instant::now();
    let base_ns = now_ns();
    let wall = |t: Instant| base_ns + t.duration_since(t0).as_nanos() as u64;
    let deadline = t0 + duration;
    // PUTs answered RETRY, waiting out their backoff: (resubmit at,
    // connection, request, due time).
    let mut backoff: Vec<(Instant, usize, Kind, Instant)> = Vec::new();

    loop {
        let now = Instant::now();
        let offering = now < deadline;
        let mut k = 0;
        while k < backoff.len() {
            if backoff[k].0 > now {
                k += 1;
                continue;
            }
            let (_, ci, kind, due) = backoff.swap_remove(k);
            if let Kind::Put { i, version, .. } = kind {
                if shadow.superseded(i, version) {
                    g.superseded += 1;
                    continue;
                }
            }
            let req = request(&kind, keys, next_id);
            conns[ci].queue(
                next_id,
                &req,
                Pending {
                    kind,
                    due,
                    sent: now,
                },
            );
            next_id += 1;
        }
        if offering {
            loop {
                let due = t0 + Duration::from_nanos((cursor as f64 * interval_ns) as u64);
                if due > now {
                    break;
                }
                cursor += 1;
                g.offered += 1;
                let u = rng.unit();
                let (kind, ci) = if u < mix.put {
                    let i = pick(&mut rng);
                    let version = shadow.issue(i);
                    (
                        Kind::Put {
                            i,
                            version,
                            attempts: 1,
                        },
                        i % CONNS,
                    )
                } else if u < mix.put + mix.get {
                    let i = pick(&mut rng);
                    (
                        Kind::Get {
                            i,
                            floor: shadow.acked[i],
                        },
                        i % CONNS,
                    )
                } else {
                    let start = keys.sorted()[pick(&mut rng)];
                    let limit = 1 + rng.below(SCAN_MAX);
                    (Kind::Scan { start, limit }, cursor as usize % CONNS)
                };
                let c = &mut conns[ci];
                if c.dead || c.pending.len() >= MAX_OUTSTANDING {
                    // Never sent: a PUT's version stays unacknowledged,
                    // which the shadow already allows for.
                    g.shed += 1;
                    continue;
                }
                let req = request(&kind, keys, next_id);
                g.late.push(now.duration_since(due).as_nanos() as u64);
                c.queue(
                    next_id,
                    &req,
                    Pending {
                        kind,
                        due,
                        sent: now,
                    },
                );
                next_id += 1;
            }
        }

        for c in conns.iter_mut().filter(|c| !c.dead) {
            c.pump();
        }
        let mut pfds: Vec<libc::pollfd> = Vec::with_capacity(CONNS);
        let mut order = Vec::with_capacity(CONNS);
        for (i, c) in conns.iter().enumerate().filter(|(_, c)| !c.dead) {
            let mut events = libc::POLLIN;
            if c.wpos < c.wbuf.len() {
                events |= libc::POLLOUT;
            }
            pfds.push(libc::pollfd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            order.push(i);
        }
        if pfds.is_empty() {
            break;
        }
        let next_due = t0 + Duration::from_nanos((cursor as f64 * interval_ns) as u64);
        let wake = backoff
            .iter()
            .map(|b| b.0)
            .chain(offering.then_some(next_due))
            .min();
        let timeout_ms = wake.map_or(20, |at| {
            (at.saturating_duration_since(Instant::now()).as_millis() as libc::c_int).min(10)
        });
        // SAFETY: `pfds` is a live, exclusively borrowed array of
        // `pfds.len()` initialized pollfd structs for the whole call.
        let ready =
            unsafe { libc::poll(pfds.as_mut_ptr(), pfds.len() as libc::nfds_t, timeout_ms) };
        if ready > 0 {
            for (pfd, &ci) in pfds.iter().zip(&order) {
                if pfd.revents == 0 {
                    continue;
                }
                let c = &mut conns[ci];
                if pfd.revents & (libc::POLLERR | libc::POLLNVAL) != 0 {
                    c.dead = true;
                    continue;
                }
                if pfd.revents & libc::POLLOUT != 0 {
                    c.pump();
                }
                if pfd.revents & (libc::POLLIN | libc::POLLHUP) == 0 {
                    continue;
                }
                c.fill(&mut scratch);
                let recv = Instant::now();
                loop {
                    let payload = match c.frames.next_frame() {
                        Ok(Some(p)) => p,
                        Ok(None) => break,
                        Err(_) => {
                            c.dead = true;
                            break;
                        }
                    };
                    let Ok(resp) = decode_response(&payload) else {
                        c.dead = true;
                        break;
                    };
                    let Some(p) = c.pending.remove(&resp.req_id()) else {
                        out.violation(format!("answer to unknown request {}", resp.req_id()));
                        continue;
                    };
                    let lat = recv.duration_since(p.due).as_nanos() as u64;
                    let rtt = recv.duration_since(p.sent).as_nanos() as u64;
                    let op = match (&p.kind, resp) {
                        (Kind::Put { i, version, .. }, Response::Ok { .. }) => {
                            shadow.ack(*i, *version);
                            g.acked_puts += 1;
                            g.put_lat.push(lat);
                            g.put_rtt.push(rtt);
                            "put"
                        }
                        (
                            Kind::Put {
                                i,
                                version,
                                attempts,
                            },
                            Response::Retry { .. },
                        ) => {
                            g.retries += 1;
                            match resubmit(shadow, *i, *version, *attempts) {
                                Resubmit::After(wait) => {
                                    let kind = Kind::Put {
                                        i: *i,
                                        version: *version,
                                        attempts: attempts + 1,
                                    };
                                    backoff.push((recv + wait, ci, kind, p.due));
                                }
                                Resubmit::Superseded => g.superseded += 1,
                                Resubmit::Exhausted => g.exhausted += 1,
                            }
                            continue;
                        }
                        (Kind::Get { i, floor }, resp) => {
                            let key = keys.key(*i);
                            let got = match &resp {
                                Response::Value { value, .. } => Some(value.as_slice()),
                                Response::NotFound { .. } => None,
                                _ => {
                                    g.errors += 1;
                                    continue;
                                }
                            };
                            if let Err(e) = check_read(key, got, *floor, shadow.issued[*i]) {
                                out.violation(e);
                                continue;
                            }
                            g.gets += 1;
                            g.get_lat.push(lat);
                            g.get_rtt.push(rtt);
                            "get"
                        }
                        (Kind::Scan { start, limit }, Response::Keys { keys: got, .. }) => {
                            let want = keys.expected_scan(*start, *limit as usize);
                            if let Err(e) = check_scan(*start, *limit as usize, &got, want) {
                                out.violation(e);
                                continue;
                            }
                            g.scan_lat.push(lat);
                            "scan"
                        }
                        (_, Response::Err { .. }) => {
                            g.errors += 1;
                            continue;
                        }
                        (_, other) => {
                            out.violation(format!("unexpected answer {other:?}"));
                            continue;
                        }
                    };
                    g.ok += 1;
                    g.all_rtt.push(rtt);
                    g.last_ok = recv.duration_since(t0);
                    if traced {
                        g.spans.push(ClientSpan {
                            name: op,
                            key: p.kind.key(keys),
                            start_ns: wall(p.sent),
                            end_ns: wall(recv),
                        });
                    }
                }
            }
        }

        if !offering {
            let outstanding: usize = conns.iter().map(|c| c.pending.len()).sum();
            if outstanding + backoff.len() == 0 || now.duration_since(deadline) > DRAIN {
                break;
            }
        }
    }
    g.unanswered = (conns.iter().map(|c| c.pending.len()).sum::<usize>() + backoff.len()) as u64;
    Ok(g)
}

/// What becomes of a PUT answered RETRY.
#[derive(Debug, PartialEq)]
enum Resubmit {
    /// Resend it after this backoff.
    After(Duration),
    /// A newer version of the key has been issued since. Resent, this
    /// one could be applied after the newer one and roll the key back,
    /// so it is dropped; the shadow never counted it as acknowledged.
    Superseded,
    /// Its [`MAX_ATTEMPTS`] submissions are spent.
    Exhausted,
}

/// Decides the fate of version `version` of key `i`, answered RETRY on
/// its `attempts`-th submission. Backoff doubles from 200 µs to at most
/// 50 ms. A PUT waiting out its backoff is checked for
/// [`Shadow::superseded`] again before it is resent.
fn resubmit(shadow: &Shadow, i: usize, version: u32, attempts: u32) -> Resubmit {
    if shadow.superseded(i, version) {
        Resubmit::Superseded
    } else if attempts >= MAX_ATTEMPTS {
        Resubmit::Exhausted
    } else {
        Resubmit::After(Duration::from_micros(200 << (attempts - 1)).min(Duration::from_millis(50)))
    }
}

/// The wire request for `kind`.
fn request(kind: &Kind, keys: &KeySet, req_id: u64) -> Request {
    match *kind {
        Kind::Get { i, .. } => Request::Get {
            req_id,
            key: keys.key(i),
        },
        Kind::Put { i, version, .. } => {
            let key = keys.key(i);
            Request::Put {
                req_id,
                key,
                value: value_of(key, version),
                durable: true,
                traced: false,
            }
        }
        Kind::Scan { start, limit } => Request::Scan {
            req_id,
            start_key: start,
            limit: limit as u32,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, END_TO_END, PER_LAYER};

    fn tiny(mix: &Mix) -> Mix {
        Mix {
            keys: 2_000,
            rate: 1_000,
            ..*mix
        }
    }

    #[test]
    fn a_refused_put_is_never_resent_over_a_newer_version() {
        let keys = KeySet::new(7, 1);
        let key = keys.key(0);
        let mut shadow = Shadow::preloaded(1);
        // Version v is answered RETRY while it is the newest: it backs off.
        let v = shadow.issue(0);
        let first = Duration::from_micros(200);
        assert_eq!(resubmit(&shadow, 0, v, 1), Resubmit::After(first));
        // v + 1 is sent and acknowledged while v waits.
        let w = shadow.issue(0);
        shadow.ack(0, w);
        // v is dropped when its backoff ends, and at once had its RETRY
        // come after v + 1 was issued.
        assert!(shadow.superseded(0, v));
        assert_eq!(resubmit(&shadow, 0, v, 2), Resubmit::Superseded);
        // Reads must return v + 1; a resent v applied last would be flagged.
        let (floor, ceil) = (shadow.acked[0], shadow.issued[0]);
        assert!(check_read(key, Some(&value_of(key, w)), floor, ceil).is_ok());
        assert!(check_read(key, Some(&value_of(key, v)), floor, ceil).is_err());
        // A lone refused PUT gives up after its last submission.
        let u = shadow.issue(0);
        assert_eq!(resubmit(&shadow, 0, u, MAX_ATTEMPTS), Resubmit::Exhausted);
    }

    #[test]
    fn tiny_runs_print_every_metric() {
        for mix in [tiny(&WRITE), tiny(&READ)] {
            let out = run(&mix, 1, 0.6, false).unwrap();
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                mix.name,
                out.violations
            );
            assert_eq!(out.failed, 0, "{}", mix.name);
            result_line(&out, END_TO_END).unwrap();
            let out = run(&mix, 2, 0.6, true).unwrap();
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                mix.name,
                out.violations
            );
            result_line(&out, PER_LAYER).unwrap();
        }
    }
}
