//! End-to-end tests of the kvserver service layer over real TCP
//! loopback: protocol round-trips, group-commit durability under an
//! injected device crash, ack-withholding until the batch fence, STATS
//! export, backpressure, and graceful shutdown.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use chameleon_obs::{ObsConfig, ServerObs};
use chameleondb::{BatchOp, ChameleonConfig, ChameleonDb};
use kvapi::KvStore;
use kvclient::{Client, ModeArg, RetryPolicy, StatsFormat, WriteOutcome};
use kvserver::{KvServer, ServerConfig};
use pmem_sim::{CrashPoint, PmemDevice, ThreadCtx};

fn test_store_config() -> ChameleonConfig {
    // Large MemTables so short tests trigger no flush/compaction: the
    // crash tests depend on the log being the only post-crash writer.
    ChameleonConfig {
        memtable_slots: 4096,
        obs: ObsConfig::on(),
        ..ChameleonConfig::tiny()
    }
}

fn start_server(
    dev: &Arc<PmemDevice>,
    store: &Arc<ChameleonDb>,
    cfg: ServerConfig,
) -> (KvServer, std::net::SocketAddr) {
    let server = KvServer::start(
        "127.0.0.1:0",
        Arc::clone(dev),
        Arc::clone(store),
        Arc::new(ServerObs::new()),
        cfg,
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

fn value_for(key: u64) -> Vec<u8> {
    format!("value-{key:016x}").into_bytes()
}

#[test]
fn wire_round_trip_put_get_delete_sync_mode() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    for key in 0..64u64 {
        assert_eq!(
            c.put(key, &value_for(key), key % 2 == 0).unwrap(),
            WriteOutcome::Done { existed: true }
        );
    }
    c.sync().unwrap();
    for key in 0..64u64 {
        assert_eq!(c.get(key).unwrap().as_deref(), Some(&value_for(key)[..]));
    }
    assert_eq!(c.get(1 << 40).unwrap(), None);
    assert_eq!(c.delete(7).unwrap(), WriteOutcome::Done { existed: true });
    assert_eq!(c.delete(7).unwrap(), WriteOutcome::Done { existed: false });
    assert_eq!(c.get(7).unwrap(), None);

    assert!(!c.mode(ModeArg::Query).unwrap());
    assert!(c.mode(ModeArg::WriteIntensive).unwrap());
    assert!(!c.mode(ModeArg::Normal).unwrap());

    server.shutdown().unwrap();
}

#[test]
fn pipelined_requests_on_one_connection_all_complete() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    let ids: Vec<u64> = (0..256u64)
        .map(|key| c.send_put(key, &value_for(key), true).unwrap())
        .collect();
    for id in ids {
        match c.recv_for(id).unwrap() {
            kvclient::Response::Ok { .. } | kvclient::Response::Retry { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.shutdown().unwrap();
}

/// Satellite: N concurrent clients issue durable puts; after an
/// arbitrary ack the device crashes. Every write acked before the crash
/// snapshot must survive recovery.
#[test]
fn every_acked_durable_write_survives_crash() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            lanes: 2,
            max_batch: 16,
            ..ServerConfig::default()
        },
    );

    // Keyed by client id so writers never collide.
    let acked: Arc<Mutex<HashMap<u64, Vec<u8>>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..8u64)
        .map(|cid| {
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut n = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let key = (cid << 32) | n;
                    let val = value_for(key);
                    match c.put(key, &val, true) {
                        Ok(WriteOutcome::Done { .. }) => {
                            // The ack is in hand; the crash snapshot
                            // below must include this key.
                            acked.lock().unwrap().insert(key, val);
                            n += 1;
                        }
                        Ok(WriteOutcome::Retry) => thread::yield_now(),
                        // Socket torn down by the crash/abort below.
                        Err(_) => break,
                    }
                }
            })
        })
        .collect();

    // Let traffic build, then crash while holding the ack map: anything
    // recorded is acked, hence fenced, hence must survive.
    thread::sleep(Duration::from_millis(300));
    let survivors: HashMap<u64, Vec<u8>> = {
        let guard = acked.lock().unwrap();
        dev.crash();
        guard.clone()
    };
    stop.store(true, Ordering::SeqCst);
    server.abort();
    for h in clients {
        h.join().unwrap();
    }
    assert!(
        survivors.len() >= 32,
        "want meaningful traffic before the crash, got {} acks",
        survivors.len()
    );

    drop(store);
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for (key, val) in &survivors {
        assert!(
            recovered.get(&mut ctx, *key, &mut out).unwrap(),
            "acked key {key:#x} lost by crash"
        );
        assert_eq!(&out, val, "acked key {key:#x} has wrong value");
    }
}

/// A 16-byte value naming its key and version, so a read-back value
/// identifies the write that produced it.
fn versioned(key: u64, version: u64) -> Vec<u8> {
    [key.to_le_bytes(), version.to_le_bytes()].concat()
}

/// Pipelined clients overwrite a small hot key set with increasing
/// versions across 4 lanes while the device crashes mid-stream. After
/// recovery every key must read a version no older than its newest
/// acked one: an ack promises that version, not just the key. The crash
/// lands while fences are in flight, so it can tear an unacked newer
/// entry; recovery must drop that entry, never replay it.
#[test]
fn acked_overwrites_never_roll_back_after_crash() {
    const CLIENTS: usize = 4;
    const LANES: usize = 4;
    const KEYS_PER_LANE: usize = 2;
    const WINDOW: usize = 16;
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    // Each client owns KEYS_PER_LANE keys on every lane, so its pipeline
    // spans all committers and no two clients race on one key.
    let mut per_lane: Vec<Vec<u64>> = vec![Vec::new(); LANES];
    for key in 1u64.. {
        let lane = &mut per_lane[store.shard_of_key(key) % LANES];
        if lane.len() < CLIENTS * KEYS_PER_LANE {
            lane.push(key);
        }
        if per_lane.iter().all(|l| l.len() == CLIENTS * KEYS_PER_LANE) {
            break;
        }
    }
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            lanes: LANES,
            ..ServerConfig::default()
        },
    );

    // Newest acked version per key.
    let acked: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|cid| {
            let keys: Vec<u64> = per_lane
                .iter()
                .flat_map(|l| l[cid * KEYS_PER_LANE..(cid + 1) * KEYS_PER_LANE].to_vec())
                .collect();
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut inflight: HashMap<u64, (u64, u64)> = HashMap::new();
                let mut version = 0u64;
                'run: while !stop.load(Ordering::SeqCst) {
                    while inflight.len() < WINDOW {
                        version += 1;
                        let key = keys[version as usize % keys.len()];
                        match c.send_put(key, &versioned(key, version), true) {
                            Ok(id) => inflight.insert(id, (key, version)),
                            Err(_) => break 'run,
                        };
                    }
                    // Socket torn down by the crash/abort below ends the run.
                    let Ok(resp) = c.recv_any() else { break };
                    let Some((key, version)) = inflight.remove(&resp.req_id()) else {
                        continue;
                    };
                    // RETRY is not resent: a newer version of the key may
                    // already be queued behind it.
                    if let kvclient::Response::Ok { .. } = resp {
                        let mut acked = acked.lock().unwrap();
                        let newest = acked.entry(key).or_insert(0);
                        *newest = (*newest).max(version);
                    }
                }
            })
        })
        .collect();

    // Crash while holding the ack map: every version recorded is acked,
    // hence fenced, hence must survive (or be overwritten by a newer one).
    thread::sleep(Duration::from_millis(300));
    let survivors: HashMap<u64, u64> = {
        let guard = acked.lock().unwrap();
        dev.crash();
        guard.clone()
    };
    stop.store(true, Ordering::SeqCst);
    server.abort();
    for h in clients {
        h.join().unwrap();
    }
    assert_eq!(
        survivors.len(),
        CLIENTS * LANES * KEYS_PER_LANE,
        "want every hot key acked before the crash"
    );

    drop(store);
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for (&key, &newest) in &survivors {
        assert!(
            recovered.get(&mut ctx, key, &mut out).unwrap(),
            "acked key {key} lost by crash"
        );
        assert_eq!(out.len(), 16, "key {key} recovered torn");
        assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), key);
        let got = u64::from_le_bytes(out[8..].try_into().unwrap());
        assert!(
            got >= newest,
            "key {key} rolled back to version {got}, older than acked {newest}"
        );
    }
}

/// Satellite regression: a batch's acks are withheld until its fence.
/// Wire-level half: the device crashes as the first batch's fence
/// completes, so that batch is durable but its committer unwinds before
/// the ack path. No pipelined durable put may be acked, and the fenced
/// batch must survive recovery.
#[test]
fn durable_acks_wait_for_the_batch_fence() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            lanes: 1,
            max_batch: 4,
            ..ServerConfig::default()
        },
    );

    let mut c = Client::connect(addr).unwrap();
    let fences_before = dev.fence_count();
    dev.arm_crash_at_fence(fences_before + 1);
    for k in 0..8u64 {
        c.send_put(k, &value_for(k), true).unwrap();
    }
    c.flush().unwrap();
    // Wait for the armed fence: the first batch is then on media and its
    // committer has unwound.
    let deadline = Instant::now() + Duration::from_secs(20);
    while dev.fence_count() == fences_before {
        assert!(
            Instant::now() < deadline,
            "the first batch never reached its fence"
        );
        thread::sleep(Duration::from_millis(5));
    }
    // Every response that will ever arrive is now in flight; none may be
    // an ack (puts queued behind the dead committer may answer ERR).
    c.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    loop {
        match c.recv_any() {
            Ok(kvclient::Response::Ok { req_id }) => {
                panic!("durable put {req_id} acked although its batch fence crashed")
            }
            Ok(_) => {}
            Err(e) => {
                assert!(
                    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "expected timeout, got {e:?}"
                );
                break;
            }
        }
    }
    server.abort();
    dev.crash();
    drop(store);

    // The crash fired once the fence had completed: key 0 (the head of
    // the first batch) is durable although it was never acked.
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    assert!(
        recovered.get(&mut ctx, 0, &mut out).unwrap(),
        "the fenced batch was lost"
    );
    assert_eq!(out, value_for(0));
}

/// In-process half of the regression: a crash injected at the commit
/// fence unwinds `apply_batch` before it returns, so the server's
/// post-return ack path is structurally unreachable, and recovery sees a
/// consistent prefix.
#[test]
fn crash_at_commit_fence_withholds_acks_and_recovers_prefix() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap();
    let mut ctx = ThreadCtx::with_default_cost();

    // A durably committed prefix the crash must not touch.
    let prefix: Vec<BatchOp> = (0..8u64)
        .map(|k| BatchOp::Put {
            key: k,
            value: value_for(k),
        })
        .collect();
    store.apply_batch(&mut ctx, &prefix).unwrap();

    // Crash at the very next fence: the doomed batch's tail fence.
    dev.arm_crash_at_fence(dev.fence_count() + 1);
    let doomed: Vec<BatchOp> = (100..108u64)
        .map(|k| BatchOp::Put {
            key: k,
            value: value_for(k),
        })
        .collect();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        store.apply_batch(&mut ctx, &doomed).unwrap();
    }));
    let crash = unwound.expect_err("apply_batch must unwind at the armed fence");
    assert!(
        crash.downcast_ref::<CrashPoint>().is_some(),
        "unwind payload must be the injected CrashPoint"
    );
    dev.disarm_crash();

    drop(store);
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for k in 0..8u64 {
        assert!(
            recovered.get(&mut ctx, k, &mut out).unwrap(),
            "fenced prefix key {k} lost"
        );
        assert_eq!(out, value_for(k));
    }
    // The armed crash fires after its fence completes, so the doomed
    // batch is durable-but-unacked — the legal recovery window (a store
    // may keep more than it acked, never less, and never garbage).
    for k in 100..108u64 {
        if recovered.get(&mut ctx, k, &mut out).unwrap() {
            assert_eq!(out, value_for(k), "doomed key {k} recovered torn");
        }
    }
}

/// Satellite: PR-3's degraded-read counters and the new server batch
/// stats are visible through the STATS command in both formats.
#[test]
fn stats_command_exports_store_and_server_sections() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    for key in 0..32u64 {
        c.put(key, &value_for(key), true).unwrap();
        assert!(c.get(key).unwrap().is_some());
    }

    let prom = c.stats(StatsFormat::Prometheus).unwrap();
    for metric in [
        "chameleon_store_degraded_gets",
        "chameleon_store_view_publishes",
        "chameleon_server_batches",
        "chameleon_server_acks",
        "chameleon_server_commit_fences",
        "chameleon_server_batch_size_p99",
        "chameleon_server_queue_depth_p99",
        "chameleon_server_acks_per_fence_milli",
    ] {
        assert!(prom.contains(metric), "prometheus text missing {metric}");
    }

    let json = c.stats(StatsFormat::Json).unwrap();
    for key in ["\"server\"", "\"batches\"", "\"degraded_gets\""] {
        assert!(json.contains(key), "json snapshot missing {key}");
    }
    // The 32 durable puts above were all acked, hence all batched.
    let batched: u64 = prom
        .lines()
        .find(|l| l.starts_with("chameleon_server_batched_ops "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("batched_ops gauge present");
    assert!(batched >= 32, "expected >= 32 batched ops, got {batched}");

    server.shutdown().unwrap();
}

/// A full lane answers RETRY instead of blocking or dropping, and every
/// accepted write is still acked exactly once.
#[test]
fn full_lane_backpressure_yields_retry_not_loss() {
    let dev = PmemDevice::optane(256 << 20);
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), test_store_config()).unwrap());
    let (server, addr) = start_server(
        &dev,
        &store,
        ServerConfig {
            lanes: 1,
            queue_cap: 1,
            max_batch: 1,
            ..ServerConfig::default()
        },
    );

    let mut c = Client::connect(addr).unwrap();
    let big = vec![0xA5u8; 16 << 10];
    let total = 300u64;
    let ids: Vec<u64> = (0..total)
        .map(|k| c.send_put(k, &big, true).unwrap())
        .collect();
    let (mut ok, mut retry) = (0u64, 0u64);
    let mut accepted = Vec::new();
    for (k, id) in ids.into_iter().enumerate() {
        match c.recv_for(id).unwrap() {
            kvclient::Response::Ok { .. } => {
                ok += 1;
                accepted.push(k as u64);
            }
            kvclient::Response::Retry { .. } => retry += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + retry, total);
    assert!(ok > 0, "some writes must get through");
    // Every accepted (acked) write is durable and readable.
    for k in accepted {
        assert!(c.get(k).unwrap().is_some(), "acked key {k} unreadable");
    }
    server.shutdown().unwrap();
}

/// Graceful shutdown drains accepted work and checkpoints: even
/// non-durable (early-acked) writes survive a clean restart.
#[test]
fn graceful_shutdown_drains_queues_and_checkpoints() {
    let dev = PmemDevice::optane(256 << 20);
    let cfg = test_store_config();
    let store = Arc::new(ChameleonDb::create(Arc::clone(&dev), cfg.clone()).unwrap());
    let (server, addr) = start_server(&dev, &store, ServerConfig::default());

    let mut c = Client::connect(addr).unwrap();
    for key in 0..128u64 {
        // Non-durable: acked at enqueue, still in a lane queue or an
        // open batch when shutdown starts.
        assert!(matches!(
            c.put(key, &value_for(key), false).unwrap(),
            WriteOutcome::Done { .. }
        ));
    }
    drop(c);
    server.shutdown().unwrap();
    drop(store);

    // A clean shutdown implies no work lost: recover and read it all.
    let mut ctx = ThreadCtx::with_default_cost();
    let recovered = ChameleonDb::recover(Arc::clone(&dev), cfg, &mut ctx).unwrap();
    let mut out = Vec::new();
    for key in 0..128u64 {
        assert!(
            recovered.get(&mut ctx, key, &mut out).unwrap(),
            "drained write {key} lost by graceful shutdown"
        );
        assert_eq!(out, value_for(key));
    }
}

/// A commit lane that never drains must not hang the client forever:
/// `put_retrying` is bounded and surfaces `TimedOut` once its attempt
/// budget is spent. The "server" here is a bare socket that answers
/// RETRY to the first seven puts and only then accepts, so the test
/// also pins the retry count the client reports on eventual success.
#[test]
fn put_retrying_times_out_against_a_wedged_lane() {
    use kvserver::proto::{
        decode_request, encode_response, read_frame, write_frame, Request, Response,
    };

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let wedged = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = std::io::BufWriter::new(stream);
        let mut puts_seen = 0u64;
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            let req_id = match decode_request(&payload).unwrap() {
                Request::Put { req_id, .. } => req_id,
                other => panic!("wedged lane got non-put request {other:?}"),
            };
            puts_seen += 1;
            let resp = if puts_seen <= 7 {
                Response::Retry { req_id }
            } else {
                Response::Ok { req_id }
            };
            write_frame(&mut writer, &encode_response(&resp)).unwrap();
            std::io::Write::flush(&mut writer).unwrap();
        }
        puts_seen
    });

    let mut c = Client::connect(addr).unwrap();
    let policy = RetryPolicy {
        max_attempts: 5,
        base_delay: Duration::from_micros(50),
        max_delay: Duration::from_millis(1),
    };

    // Puts 1..=5: all RETRY — the bounded policy must give up.
    let err = c
        .put_retrying_with(9, b"wedged", true, &policy)
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::TimedOut);

    // Puts 6..=8: RETRY, RETRY, OK — succeeds and reports two retries.
    let retries = c.put_retrying_with(9, b"wedged", true, &policy).unwrap();
    assert_eq!(retries, 2);

    drop(c);
    assert_eq!(wedged.join().unwrap(), 8, "client sent an unexpected put");
}
