//! `serve` / `serve-bench` — the kvserver service layer.
//!
//! `serve` runs a kvserver over a fresh simulated device on
//! `127.0.0.1:<--port>` until SIGINT/SIGTERM, then shuts down gracefully
//! (drains the commit lanes, takes a final checkpoint) and prints the
//! observability snapshot.
//!
//! `serve-bench` measures what group commit buys: a closed-loop
//! multi-connection load (durable puts with interleaved gets) runs twice
//! over real TCP loopback — once with `max_batch = 1` (a persist fence
//! per put) and once with group commit — and reports throughput, client
//! wall-clock latency, and the media cost per put (256B media blocks,
//! fences, read-modify-write penalties). The batched run amortizes one
//! fence across the batch, so media blocks per put and RMW charges drop;
//! `--quick` additionally asserts the workload was clean (no protocol
//! errors, no lost reads, no thread panics) for the CI smoke job.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use chameleon_obs::{ServerObs, TraceConfig};
use chameleondb::{ChameleonConfig, ChameleonDb};
use kvclient::openloop::{self, OpenLoopConfig, OpenLoopReport};
use kvclient::Client;
use kvserver::{KvServer, ServerConfig};
use pmem_sim::{Histogram, PmemDevice};
use serde::Serialize;

use crate::util::{fmt_bytes, header, write_json, Opts};

/// Store geometry for the service-layer runs: enough MemTable capacity
/// that the short benchmark never flushes, so the media deltas isolate
/// the log write path the two commit policies differ on. Observability
/// is on so the windowed telemetry (and the server-side latency columns)
/// have per-op histograms to delta.
fn serve_store_config() -> ChameleonConfig {
    let mut cfg = ChameleonConfig::with_shards(64);
    cfg.obs = chameleon_obs::ObsConfig::on();
    cfg
}

fn new_store(dev: &Arc<PmemDevice>) -> Arc<ChameleonDb> {
    Arc::new(
        ChameleonDb::create(Arc::clone(dev), serve_store_config())
            .expect("serve: store create failed"),
    )
}

// Minimal signal hookup without a libc dependency: POSIX `signal` with a
// handler that sets a flag the serve loop polls.
pub(crate) static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

pub(crate) fn install_stop_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// `repro serve`: run a server until SIGINT/SIGTERM.
pub fn serve(opts: &Opts) {
    header("kvserver: TCP service layer with group-commit durability");
    let dev = PmemDevice::optane(1 << 30);
    let store = new_store(&dev);
    let obs = Arc::new(ServerObs::new());
    let cfg = ServerConfig {
        trace: if opts.trace > 0 {
            TraceConfig::sampled(opts.trace)
        } else {
            TraceConfig::off()
        },
        http_addr: opts.http_port.map(|p| format!("127.0.0.1:{p}")),
        ..ServerConfig::default()
    };
    let server = KvServer::start(
        &format!("127.0.0.1:{}", opts.port),
        Arc::clone(&dev),
        Arc::clone(&store),
        Arc::clone(&obs),
        cfg.clone(),
    )
    .expect("serve: bind failed");
    install_stop_handlers();
    println!(
        "  listening on {} ({} lanes, max batch {}) — ctrl-c to stop",
        server.local_addr(),
        cfg.lanes,
        cfg.max_batch
    );
    if opts.trace > 0 {
        println!(
            "  tracing 1/{} requests (ring of {} spans; fetch with `repro trace-dump`)",
            opts.trace, cfg.trace.ring_capacity
        );
    }
    if let Some(http) = server.http_addr() {
        println!("  metrics sidecar on http://{http}/metrics (and /snapshot.json; watch with `repro top`)");
    }

    while !STOP.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(50));
        if opts.progress {
            let reqs = obs.requests.load(Ordering::Relaxed);
            if reqs > 0 && reqs.is_multiple_of(1 << 16) {
                eprintln!("[serve] {reqs} requests served");
            }
        }
    }

    println!("\n  signal received: draining lanes and checkpointing...");
    let windows = server.windows();
    let tracer = server.tracer();
    match server.shutdown() {
        Ok(()) => println!("  clean shutdown"),
        Err(e) => eprintln!("  shutdown error: {e}"),
    }
    let ctx = pmem_sim::ThreadCtx::with_default_cost();
    let mut snap = store.obs_snapshot_with(ctx.clock.now(), vec![obs.section(), tracer.section()]);
    snap.windows = windows.windows();
    snap.trace_stages = tracer.stage_summaries();
    println!(
        "  served {} requests over {} connections ({} batches, {} acks/fence x1000)",
        obs.requests.load(Ordering::Relaxed),
        obs.connections.load(Ordering::Relaxed),
        obs.batches.load(Ordering::Relaxed),
        obs.acks_per_fence_milli(),
    );
    if let Some(path) = &opts.obs_json {
        std::fs::write(path, snap.to_pretty_json()).expect("write obs json");
        std::fs::write(path.with_extension("prom"), snap.to_prometheus()).expect("write obs prom");
        println!("  [artifact] {}", path.display());
    }
}

/// One measured serve-bench configuration.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchRow {
    pub policy: String,
    pub connections: usize,
    pub lanes: usize,
    pub max_batch: usize,
    pub puts: u64,
    pub gets: u64,
    pub retries: u64,
    pub wall_secs: f64,
    pub ops_per_sec: f64,
    /// Client-observed wall-clock put latency (includes the wait behind
    /// the lane's in-flight batch — the latency cost of batching), from
    /// the kvclient per-op histograms.
    pub put_p50_us: f64,
    pub put_p99_us: f64,
    /// Server-side put latency from the engine's histograms, in
    /// *simulated* device microseconds — the media cost of the put,
    /// excluding protocol, queueing, and batching waits. The gap between
    /// this and the client columns is the service-layer overhead.
    pub server_put_p50_us: f64,
    pub server_put_p99_us: f64,
    /// Media traffic attributed to the run, per put.
    pub media_blocks_per_put: f64,
    pub rmw_blocks_per_put: f64,
    pub fences_per_kput: f64,
    /// Durable acks per commit fence x1000 (from the server counters).
    pub acks_per_fence_milli: u64,
    /// Mean committed batch size (server side).
    pub mean_batch: f64,
}

struct ClientTally {
    latency: Histogram,
    puts: u64,
    gets: u64,
    retries: u64,
    lost_reads: u64,
}

/// Closed-loop worker: durable puts of unique keys with a read-back
/// every 16th op.
fn client_loop(addr: std::net::SocketAddr, conn_id: u64, ops: u64) -> ClientTally {
    let mut c = Client::connect(addr).expect("serve-bench: connect");
    let mut t = ClientTally {
        latency: Histogram::new(),
        puts: 0,
        gets: 0,
        retries: 0,
        lost_reads: 0,
    };
    let value = [0x5Au8; 64];
    for n in 0..ops {
        let key = (conn_id << 40) | n;
        t.retries += c
            .put_retrying(key, &value, true)
            .expect("serve-bench: put failed");
        t.puts += 1;
        if n.is_multiple_of(16) {
            t.gets += 1;
            match c.get(key) {
                Ok(Some(v)) if v == value => {}
                _ => t.lost_reads += 1,
            }
        }
    }
    // Client-observed latency comes from the kvclient instrumentation
    // (per blocking round-trip; backoff sleeps between retries excluded).
    t.latency = c.latencies().put.clone();
    t
}

fn run_policy(
    policy: &str,
    cfg: ServerConfig,
    connections: usize,
    ops_per_conn: u64,
) -> ServeBenchRow {
    let dev = PmemDevice::optane(1 << 30);
    let store = new_store(&dev);
    let obs = Arc::new(ServerObs::new());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&dev),
        Arc::clone(&store),
        Arc::clone(&obs),
        cfg.clone(),
    )
    .expect("serve-bench: bind failed");
    let addr = server.local_addr();

    let media_before = dev.stats().snapshot();
    let started = Instant::now();
    let tallies: Vec<ClientTally> = thread::scope(|s| {
        let handles: Vec<_> = (0..connections as u64)
            .map(|cid| s.spawn(move || client_loop(addr, cid, ops_per_conn)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    let media = dev.stats().snapshot().delta(&media_before);

    let mut latency = Histogram::new();
    let (mut puts, mut gets, mut retries, mut lost) = (0u64, 0u64, 0u64, 0u64);
    for t in &tallies {
        latency.merge(&t.latency);
        puts += t.puts;
        gets += t.gets;
        retries += t.retries;
        lost += t.lost_reads;
    }
    assert_eq!(lost, 0, "serve-bench: {lost} acked writes unreadable");

    let server_put = store.obs().op_rollup().put;
    server.shutdown().expect("serve-bench: dirty shutdown");
    assert_eq!(
        obs.protocol_errors.load(Ordering::Relaxed),
        0,
        "serve-bench: protocol errors on loopback"
    );

    let batches = obs.batches.load(Ordering::Relaxed).max(1);
    ServeBenchRow {
        policy: policy.into(),
        connections,
        lanes: cfg.lanes,
        max_batch: cfg.max_batch,
        puts,
        gets,
        retries,
        wall_secs: wall.as_secs_f64(),
        ops_per_sec: (puts + gets) as f64 / wall.as_secs_f64(),
        put_p50_us: latency.median() as f64 / 1e3,
        put_p99_us: latency.quantile(0.99) as f64 / 1e3,
        server_put_p50_us: server_put.median() as f64 / 1e3,
        server_put_p99_us: server_put.quantile(0.99) as f64 / 1e3,
        media_blocks_per_put: (media.media_bytes_written / 256) as f64 / puts as f64,
        rmw_blocks_per_put: media.rmw_blocks as f64 / puts as f64,
        fences_per_kput: media.fences as f64 * 1e3 / puts as f64,
        acks_per_fence_milli: obs.acks_per_fence_milli(),
        mean_batch: obs.batched_ops.load(Ordering::Relaxed) as f64 / batches as f64,
    }
}

/// `repro serve-bench`: batch-of-1 vs group commit over TCP loopback.
pub fn bench(opts: &Opts) {
    header("serve-bench: group commit vs fence-per-put over TCP loopback");
    let connections = opts.threads.max(8);
    // Closed-loop over real TCP: scale the op budget down from the
    // simulated-store default so the wall-clock stays reasonable.
    let ops_per_conn = (opts.ops / 10 / connections as u64).clamp(200, 20_000);
    let lanes = 2;
    println!("  {connections} connections x {ops_per_conn} durable puts, {lanes} commit lanes\n");

    let batch1 = run_policy(
        "batch-of-1",
        ServerConfig {
            lanes,
            ..ServerConfig::batch_of_one()
        },
        connections,
        ops_per_conn,
    );
    let group = run_policy(
        "group-commit",
        ServerConfig {
            lanes,
            max_batch: 64,
            ..ServerConfig::default()
        },
        connections,
        ops_per_conn,
    );
    // Same group-commit config with 1/64 request tracing: measures what
    // the sampling instrumentation costs on the hot path.
    let traced = run_policy(
        "group+trace64",
        ServerConfig {
            lanes,
            max_batch: 64,
            trace: TraceConfig::sampled(64),
            ..ServerConfig::default()
        },
        connections,
        ops_per_conn,
    );

    println!(
        "  policy          ops/s      p50       p99       blk/put  rmw/put  fence/kput  acks/fence"
    );
    for row in [&batch1, &group, &traced] {
        println!(
            "  {:<14}  {:>8.0}  {:>7.1}us {:>7.1}us  {:>7.3}  {:>7.3}  {:>9.1}  {:>9.3}",
            row.policy,
            row.ops_per_sec,
            row.put_p50_us,
            row.put_p99_us,
            row.media_blocks_per_put,
            row.rmw_blocks_per_put,
            row.fences_per_kput,
            row.acks_per_fence_milli as f64 / 1e3,
        );
    }
    println!("\n  client-observed (wall) vs server-side (simulated media) put latency:");
    for row in [&batch1, &group, &traced] {
        println!(
            "  {:<14}  client p50 {:>7.1}us / p99 {:>7.1}us   server p50 {:>6.2}us / p99 {:>6.2}us",
            row.policy,
            row.put_p50_us,
            row.put_p99_us,
            row.server_put_p50_us,
            row.server_put_p99_us,
        );
    }
    let overhead_pct = 100.0 * (1.0 - traced.ops_per_sec / group.ops_per_sec);
    println!(
        "\n  tracing overhead at 1/64 sampling: {overhead_pct:+.1}% throughput vs untraced (target < 5%; wall-clock, noisy on shared machines)"
    );
    if let Some(dir) = &opts.out_dir {
        let d = dir.join("pr6_tracing");
        std::fs::create_dir_all(&d).expect("create pr6_tracing dir");
        #[derive(Serialize)]
        struct TracingOverhead {
            sample_every: u64,
            overhead_pct: f64,
            untraced: ServeBenchRow,
            traced: ServeBenchRow,
        }
        let path = d.join("tracing_overhead.json");
        let payload = TracingOverhead {
            sample_every: 64,
            overhead_pct,
            untraced: group.clone(),
            traced: traced.clone(),
        };
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&payload).expect("serialize overhead"),
        )
        .expect("write overhead artifact");
        println!("  [artifact] {}", path.display());
    }
    println!(
        "\n  group commit: mean batch {:.1} ops, media per put {} -> {} ({}x), fences per put {:.2} -> {:.2}",
        group.mean_batch,
        fmt_bytes((batch1.media_blocks_per_put * 256.0) as u64),
        fmt_bytes((group.media_blocks_per_put * 256.0) as u64),
        (batch1.media_blocks_per_put / group.media_blocks_per_put.max(1e-9)).round(),
        batch1.fences_per_kput / 1e3,
        group.fences_per_kput / 1e3,
    );

    // The acceptance bar: with >= 8 connections, group commit must cut
    // the media blocks charged per put versus fence-per-put.
    assert!(
        group.media_blocks_per_put < batch1.media_blocks_per_put,
        "group commit failed to reduce media blocks per put ({} vs {})",
        group.media_blocks_per_put,
        batch1.media_blocks_per_put
    );
    if opts.quick {
        // CI smoke: the run must also have batched at all.
        assert!(
            group.mean_batch > 1.1,
            "group commit never formed a batch (mean {:.2})",
            group.mean_batch
        );
    }
    write_json(opts, "serve_bench", &vec![&batch1, &group]);

    if opts.conns > 0 {
        connection_scaling(opts);
    }
    if opts.open_loop {
        open_loop_sweep(opts);
    }
}

/// One measured configuration of the connection-scaling comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ConnScaleRow {
    pub conns: usize,
    /// Total service threads the server ran (acceptor + I/O + committers
    /// + sampler) — the number the reactor holds constant.
    pub server_threads: usize,
    pub offered_per_sec: u64,
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    pub retries: u64,
    pub errors: u64,
    pub unanswered: u64,
    /// Coordinated-omission-free latency (from each request's scheduled
    /// send time), microseconds.
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

impl ConnScaleRow {
    fn new(conns: usize, server_threads: usize, rate: u64, report: &OpenLoopReport) -> Self {
        Self {
            conns,
            server_threads,
            offered_per_sec: rate,
            offered: report.offered,
            completed: report.completed,
            shed: report.shed,
            retries: report.retries,
            errors: report.errors,
            unanswered: report.unanswered,
            p50_us: report.latency.median() as f64 / 1e3,
            p99_us: report.latency.quantile(0.99) as f64 / 1e3,
            max_us: report.latency.max() as f64 / 1e3,
        }
    }
}

/// Drives `conns` connections at `rate` req/s from a few generator
/// threads and merges what they saw.
fn drive_open_loop(
    addr: std::net::SocketAddr,
    conns: usize,
    rate: u64,
    duration: Duration,
    gen_threads: usize,
) -> OpenLoopReport {
    let gen_threads = gen_threads.clamp(1, conns);
    let reports: Vec<OpenLoopReport> = thread::scope(|s| {
        let handles: Vec<_> = (0..gen_threads)
            .map(|t| {
                // Distribute remainders so every connection is driven.
                let conns_here = conns / gen_threads + usize::from(t < conns % gen_threads);
                let rate_here = (rate / gen_threads as u64).max(1);
                let cfg = OpenLoopConfig {
                    conns: conns_here,
                    rate_per_sec: rate_here,
                    duration,
                    get_fraction: 0.5,
                    max_outstanding: 64,
                    seed: 0x9E3779B97F4A7C15 ^ ((t as u64 + 1) << 32),
                    ..OpenLoopConfig::default()
                };
                s.spawn(move || openloop::run(addr, &cfg).expect("open-loop run"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged = reports.into_iter();
    let mut total = merged.next().expect("at least one generator");
    for r in merged {
        total.merge(&r);
    }
    total
}

fn scale_row(conns: usize, rate: u64, duration: Duration, gen_threads: usize) -> ConnScaleRow {
    let dev = PmemDevice::optane(1 << 30);
    let store = new_store(&dev);
    let obs = Arc::new(ServerObs::new());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&dev),
        Arc::clone(&store),
        Arc::clone(&obs),
        ServerConfig::default(),
    )
    .expect("serve-bench: bind failed");
    let server_threads = server.thread_count();
    let report = drive_open_loop(server.local_addr(), conns, rate, duration, gen_threads);
    server.shutdown().expect("serve-bench: dirty shutdown");
    ConnScaleRow::new(conns, server_threads, rate, &report)
}

fn print_scale_rows(rows: &[&ConnScaleRow]) {
    println!("   conns  srv-thr  offered/s  completed      shed   p50        p99");
    for r in rows {
        println!(
            "  {:>6}  {:>7}  {:>9}  {:>9}  {:>8}  {:>8.1}us {:>8.1}us",
            r.conns, r.server_threads, r.offered_per_sec, r.completed, r.shed, r.p50_us, r.p99_us,
        );
    }
}

/// Open-loop generator threads driving each connection-scaling row.
/// Both rows get the same count, so the rows differ only in how many
/// connections the server multiplexes.
const SCALE_GEN_THREADS: usize = 2;

/// The reactor at `--conns` connections versus itself at 16, same
/// offered load and generator threads, latency measured open-loop (no
/// coordinated omission).
fn connection_scaling(opts: &Opts) {
    header("serve-bench: connection scaling (reactor at 16 vs --conns connections)");
    let conns = opts.conns;
    let (rate, duration) = if opts.quick {
        (2_000u64, Duration::from_secs(1))
    } else {
        (5_000u64, Duration::from_secs(2))
    };
    println!(
        "  offered load {rate} req/s (50% durable put / 50% get) for {duration:?}, open-loop, {SCALE_GEN_THREADS} generator threads\n"
    );

    let base = scale_row(16, rate, duration, SCALE_GEN_THREADS);
    let scaled = scale_row(conns, rate, duration, SCALE_GEN_THREADS);
    print_scale_rows(&[&base, &scaled]);

    // Acceptance: a fixed thread pool that does not grow with the
    // connection count, every request answered, and a tail no worse
    // than the 16-connection row at the same offered load. The latency
    // bound is deliberately loose — wall-clock on a shared machine — and
    // exists to catch catastrophic regressions, not to benchmark noise.
    assert!(
        scaled.server_threads <= 16,
        "reactor at {} conns used {} service threads (want <= 16)",
        conns,
        scaled.server_threads
    );
    assert_eq!(
        scaled.server_threads, base.server_threads,
        "service thread count changed with the connection count"
    );
    assert!(
        scaled.completed > 0,
        "reactor completed no requests at {conns} connections"
    );
    assert!(
        scaled.errors == 0 && scaled.unanswered == 0,
        "reactor at {conns} conns: {} errors, {} unanswered",
        scaled.errors,
        scaled.unanswered
    );
    assert!(
        scaled.p99_us <= base.p99_us * 10.0 + 10_000.0,
        "reactor p99 {}us at {} conns catastrophically worse than {}us at 16",
        scaled.p99_us,
        conns,
        base.p99_us
    );

    if let Some(dir) = &opts.out_dir {
        let d = dir.join("reactor_scaling");
        std::fs::create_dir_all(&d).expect("create reactor_scaling dir");
        let path = d.join("connection_scaling.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&vec![&base, &scaled]).expect("serialize scaling"),
        )
        .expect("write scaling artifact");
        println!("  [artifact] {}", path.display());
    }
}

/// Offered-load sweep: latency and shed rate as the schedule outruns the
/// store, the honest way (shed requests counted, never delayed).
fn open_loop_sweep(opts: &Opts) {
    header("serve-bench: open-loop latency vs offered load (reactor)");
    let conns = if opts.conns > 0 { opts.conns } else { 64 };
    let (rates, duration): (&[u64], Duration) = if opts.quick {
        (&[1_000, 4_000], Duration::from_secs(1))
    } else {
        (&[2_000, 5_000, 10_000, 20_000], Duration::from_secs(2))
    };
    println!("  {conns} connections, 50% durable put / 50% get, latency from scheduled send\n");

    let dev = PmemDevice::optane(1 << 30);
    let store = new_store(&dev);
    let obs = Arc::new(ServerObs::new());
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(&dev),
        Arc::clone(&store),
        Arc::clone(&obs),
        ServerConfig::default(),
    )
    .expect("serve-bench: bind failed");
    let server_threads = server.thread_count();

    let mut rows = Vec::new();
    for &rate in rates {
        let report = drive_open_loop(server.local_addr(), conns, rate, duration, 4);
        rows.push(ConnScaleRow::new(conns, server_threads, rate, &report));
    }
    server.shutdown().expect("serve-bench: dirty shutdown");
    print_scale_rows(&rows.iter().collect::<Vec<_>>());
    for r in &rows {
        assert!(
            r.completed > 0,
            "no completions at offered load {}",
            r.offered_per_sec
        );
    }

    if let Some(dir) = &opts.out_dir {
        let d = dir.join("reactor_scaling");
        std::fs::create_dir_all(&d).expect("create reactor_scaling dir");
        let path = d.join("open_loop_sweep.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&rows).expect("serialize sweep"),
        )
        .expect("write sweep artifact");
        println!("  [artifact] {}", path.display());
    }
}
