//! The in-process workload: YCSB-A from one foreground thread calling
//! `ChameleonDb` directly, with the engine defaults (Table 1 geometry,
//! background maintenance and value-log GC on, observability off) over
//! few enough shards that most of the key set lives in the Pmem last
//! level. Also the crash / recover / verify step every workload ends with.

use std::time::{Duration, Instant};

use chameleon_obs::{TraceConfig, Tracer};
use chameleondb::{ChameleonConfig, ChameleonDb};
use kvapi::{CrashRecover, KvStore};
use pmem_sim::{PmemDevice, ThreadCtx};
use ycsb::{Distribution, KeyChooser};

use crate::layers::{self, Snap};
use crate::report::{median, ratio, Outcome, Pooled, Samples};
use crate::shadow::{check_read, value_of, KeySet, Rng, Shadow, PRELOAD_VERSION};
use crate::spans::{ClientSpan, SpanLog};

/// The shape of an engine run.
pub struct Ycsb {
    /// Preloaded keys; every operation targets one of them.
    pub keys: usize,
    /// Shards of the store.
    pub shards: usize,
}

/// `engine-ycsb`: one shard holds 512 MemTable and 32,768 upper-level
/// (ABI) slots, so most of the 600k keys live only in the last level.
pub const YCSB: Ycsb = Ycsb {
    keys: 600_000,
    shards: 1,
};
/// Fraction of operations that are GETs (YCSB-A); the rest update.
const GET_FRACTION: f64 = 0.5;
const DEVICE_BYTES: usize = 1 << 30;
/// Independent sessions, each on a fresh set-up, an untraced run is
/// split into (set-up preloads the whole key set, so few).
const SESSIONS: usize = 3;
/// Stretches of a session that simulated throughput is taken over.
const STRETCHES: usize = 5;
/// A traced run keeps one span in this many operations.
const SPAN_EVERY: u64 = 16;

fn setup(keys: &KeySet, shards: usize) -> Result<(ChameleonDb, f64), String> {
    let t0 = Instant::now();
    let dev = PmemDevice::optane(DEVICE_BYTES);
    let db = ChameleonDb::create(dev, ChameleonConfig::with_shards(shards))
        .map_err(|e| format!("store create: {e:?}"))?;
    let mut ctx = ThreadCtx::with_default_cost();
    for i in 0..keys.len() {
        let k = keys.key(i);
        db.put(&mut ctx, k, &value_of(k, PRELOAD_VERSION))
            .map_err(|e| format!("preload: {e:?}"))?;
    }
    db.sync(&mut ctx)
        .map_err(|e| format!("preload sync: {e:?}"))?;
    Ok((db, t0.elapsed().as_secs_f64()))
}

/// Runs `engine-ycsb` and returns every metric it measures, in
/// sessions as the service workloads do.
pub fn run(cfg: &Ycsb, seed: u64, secs: f64, trace: bool) -> Result<Outcome, String> {
    let keys = KeySet::new(seed, cfg.keys);
    if !trace {
        let mut sessions = Vec::with_capacity(SESSIONS);
        let mut setups = Vec::with_capacity(SESSIONS);
        for _ in 0..SESSIONS {
            let (db, s) = setup(&keys, cfg.shards)?;
            setups.push(s);
            sessions.push(measure(db, &keys, seed, secs / SESSIONS as f64, None)?);
        }
        let mut out = Outcome::combine(sessions);
        out.set("setup_s", median(setups));
        return Ok(out);
    }
    let half = secs / 2.0;
    let base = measure(setup(&keys, cfg.shards)?.0, &keys, seed, half, None)?;
    let mut log = SpanLog::default();
    let mut out = measure(
        setup(&keys, cfg.shards)?.0,
        &keys,
        seed,
        half,
        Some(&mut log),
    )?;
    out.absorb_overhead(&base);
    log.write(&format!("engine-ycsb-{seed}"))?;
    Ok(out)
}

fn measure(
    db: ChameleonDb,
    keys: &KeySet,
    seed: u64,
    secs: f64,
    log: Option<&mut SpanLog>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = keys.len();
    let mut shadow = Shadow::preloaded(n);
    let mut chooser = KeyChooser::new(Distribution::Zipfian, n as u64, seed);
    let mut rng = Rng::new(seed ^ 0x454E_4749_4E45);
    let tracer = log.is_some().then(|| Tracer::new(TraceConfig::sampled(1)));
    let mut spans = Vec::new();
    let mut ctx = ThreadCtx::with_default_cost();
    let mut pooled = Pooled::default();
    let (mut get_wall, mut all_wall) = (Samples::default(), Samples::default());
    let mut buf = Vec::with_capacity(64);
    let snap_a = Snap::take(&db);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    // Simulated time and operations per fifth of the run: a write stall
    // is charged in wall time, and a long one must move one stretch's
    // simulated throughput, not the whole run's.
    let (mut sim_ns, mut sim_ops) = ([0u64; STRETCHES], [0u64; STRETCHES]);
    let mut ops: u64 = 0;
    loop {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        let w =
            (((start - t0).as_secs_f64() / secs * STRETCHES as f64) as usize).min(STRETCHES - 1);
        let i = chooser.next_key() as usize;
        let key = keys.key(i);
        let s0 = ctx.clock.now();
        let name = if rng.unit() < GET_FRACTION {
            let span = tracer.as_ref().and_then(|t| t.sample("get", key));
            let found = db
                .get_traced(&mut ctx, key, &mut buf, span.as_deref())
                .map_err(|e| format!("get: {e:?}"))?;
            let end = Instant::now();
            if let (Some(t), Some(s)) = (&tracer, &span) {
                t.complete(s);
            }
            let ns = end.duration_since(start).as_nanos() as u64;
            get_wall.push(ns);
            all_wall.push(ns);
            pooled.sim_get.record(ctx.clock.now() - s0);
            // One thread: a read must see exactly the last version written.
            let v = shadow.acked[i];
            if let Err(e) = check_read(key, found.then_some(buf.as_slice()), v, v) {
                out.violation(e);
            }
            "chameleondb.get"
        } else {
            let v = shadow.issue(i);
            db.put(&mut ctx, key, &value_of(key, v))
                .map_err(|e| format!("put: {e:?}"))?;
            let ns = Instant::now().duration_since(start).as_nanos() as u64;
            shadow.ack(i, v);
            pooled.put.push(ns);
            all_wall.push(ns);
            pooled.sim_put.record(ctx.clock.now() - s0);
            "chameleondb.put"
        };
        if tracer.is_some() && ops.is_multiple_of(SPAN_EVERY) {
            let base = chameleon_obs::trace::now_ns();
            let ago = Instant::now().duration_since(start).as_nanos() as u64;
            spans.push(ClientSpan {
                name,
                key,
                start_ns: base - ago,
                end_ns: base,
            });
        }
        sim_ns[w] += ctx.clock.now() - s0;
        sim_ops[w] += 1;
        ops += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let snap_b = Snap::take(&db);

    out.attempted = ops;
    let (puts, gets) = (pooled.put.len() as u64, get_wall.len() as u64);
    out.set("ops_per_s", ops as f64 / wall_s);
    out.set("chameleondb.get_us", get_wall.mean_us());
    out.set("chameleondb.get_p99_us", get_wall.quantile_us(0.99));
    out.set("chameleondb.put_us", pooled.put.mean_us());
    out.set("chameleondb.put_p99_us", pooled.put.quantile_us(0.99));
    out.op_mean_us = all_wall.mean_us();
    pooled.sim_mops = (0..STRETCHES)
        .map(|w| 1e3 * ratio(sim_ops[w] as f64, sim_ns[w] as f64))
        .collect();
    out.pooled = pooled;
    out.set_pooled();
    layers::end_to_end(&mut out, &db, &snap_a, &snap_b, puts, n);
    layers::per_layer(&mut out, &db, &snap_a, &snap_b, puts, gets, 0.0);
    let stage = |name: &str| {
        tracer
            .as_ref()
            .and_then(|t| t.stage_summaries().into_iter().find(|s| s.stage == name))
            .map_or(0.0, |s| s.mean_ns / 1e3)
    };
    out.set("chameleondb.probe_us", stage("engine_probe"));
    out.set("chameleondb.read_us", stage("engine_read"));
    // No client or server on this path.
    for name in [
        "kvclient.rtt_put_us",
        "kvclient.rtt_get_us",
        "kvclient.rtt_scan_us",
        "gen.rtt_put_us",
        "gen.rtt_get_us",
        "gen.put_p99_us",
        "gen.get_p50_us",
        "gen.get_p99_us",
        "gen.scan_p50_us",
        "gen.late_p99_us",
        "gen.shed_frac",
        "gen.retry_frac",
        "kvserver.decode_us",
        "kvserver.lane_enqueue_us",
        "kvserver.batch_seal_us",
        "kvserver.fence_complete_us",
        "kvserver.ack_write_us",
        "kvserver.mean_batch",
        "kvserver.acks_per_fence",
        "kvserver.unaccounted_frac",
        "chameleondb.append_us",
        "chameleondb.fence_us",
    ] {
        out.set(name, 0.0);
    }
    if let Some(log) = log {
        log.client = spans;
        log.server = tracer.map(|t| t.spans(usize::MAX)).unwrap_or_default();
    }

    // Every put above returned: make them durable, then crash.
    db.sync(&mut ctx).map_err(|e| format!("sync: {e:?}"))?;
    crash_recover_verify(db, keys, &shadow, &mut out)?;
    Ok(out)
}

/// Timed crash-and-recover cycles. The first cycle after a run also
/// abandons the running store's maintenance mid-work, waits for its
/// workers and frees it, which a real power cut does not; it is left
/// untimed. Nothing is written between cycles, so each later one recovers
/// the same image (the same simulated cost).
const RECOVERIES: usize = 11;

/// Crashes the device under `db` and recovers it, then [`RECOVERIES`]
/// more times, setting `recover_s` to the median wall time of those and
/// `chameleondb.sim_recover_ms` to the simulated time of one. Then checks
/// that every key reads a version the shadow allows and that a full scan
/// returns exactly the live key set.
pub fn crash_recover_verify(
    mut db: ChameleonDb,
    keys: &KeySet,
    shadow: &Shadow,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut ctx = ThreadCtx::with_default_cost();
    db.crash_and_recover(&mut ctx)
        .map_err(|e| format!("recover: {e:?}"))?;
    let mut times = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        ctx = ThreadCtx::with_default_cost();
        let t0 = Instant::now();
        db.crash_and_recover(&mut ctx)
            .map_err(|e| format!("recover: {e:?}"))?;
        times.push(t0.elapsed().as_secs_f64());
    }
    out.set("recover_s", median(times));
    out.set("chameleondb.sim_recover_ms", ctx.clock.now() as f64 / 1e6);

    let mut buf = Vec::new();
    for i in 0..keys.len() {
        let key = keys.key(i);
        let found = db
            .get(&mut ctx, key, &mut buf)
            .map_err(|e| format!("verify get: {e:?}"))?;
        let got = found.then_some(buf.as_slice());
        if let Err(e) = check_read(key, got, shadow.acked[i], shadow.issued[i]) {
            out.violation(format!("after recovery: {e}"));
        }
    }
    let mut all = Vec::with_capacity(keys.len());
    let mut start = 0u64;
    loop {
        let page = db
            .scan(&mut ctx, start, 4096)
            .map_err(|e| format!("verify scan: {e:?}"))?;
        let Some(&last) = page.last() else { break };
        all.extend_from_slice(&page);
        match last.checked_add(1) {
            Some(next) => start = next,
            None => break,
        }
    }
    if all != keys.sorted() {
        out.violation(format!(
            "after recovery: full scan returned {} keys, {} are live",
            all.len(),
            keys.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, END_TO_END, PER_LAYER};

    const TINY: Ycsb = Ycsb {
        keys: 5_000,
        shards: 1,
    };

    #[test]
    fn tiny_run_prints_every_end_to_end_metric() {
        let out = run(&TINY, 3, 0.6, false).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        result_line(&out, END_TO_END).unwrap();
    }

    #[test]
    fn tiny_traced_run_prints_every_per_layer_metric() {
        let out = run(&TINY, 4, 0.6, true).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        result_line(&out, PER_LAYER).unwrap();
    }

    #[test]
    fn recovery_check_flags_a_wrong_value() {
        let keys = KeySet::new(5, 2_000);
        let (db, _) = setup(&keys, 1).unwrap();
        let mut shadow = Shadow::preloaded(keys.len());
        // The shadow expects a write the store never saw.
        shadow.issue(17);
        shadow.ack(17, 2);
        let mut out = Outcome::default();
        crash_recover_verify(db, &keys, &shadow, &mut out).unwrap();
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert!(out.violations[0].contains("expected 2..=2"));
    }
}
