//! Counters the engine, value log and device already expose, read before
//! and after a measured phase and turned into per-layer metrics.

use chameleondb::{ChameleonDb, StoreMetricsSnapshot};
use kvapi::KvStore;
use pmem_sim::StatsSnapshot;

use crate::report::{ratio, Outcome};
use crate::shadow::USER_BYTES_PER_PUT;

/// Store and device counters at one instant.
pub struct Snap {
    store: StoreMetricsSnapshot,
    media: StatsSnapshot,
}

impl Snap {
    pub fn take(db: &ChameleonDb) -> Self {
        Self {
            store: db.metrics(),
            media: db.device().stats().snapshot(),
        }
    }
}

/// Sets the end-to-end metrics that come from counters: media bytes
/// written per user byte over the phase, log footprint per live user
/// byte, and the engine's DRAM footprint at its end.
pub fn end_to_end(out: &mut Outcome, db: &ChameleonDb, a: &Snap, b: &Snap, puts: u64, keys: usize) {
    let media = b.media.delta(&a.media);
    out.set(
        "media_wamp",
        ratio(
            media.media_bytes_written as f64,
            (puts * USER_BYTES_PER_PUT) as f64,
        ),
    );
    out.set(
        "space_amp",
        ratio(
            db.space_stats().footprint_bytes as f64,
            (keys as u64 * USER_BYTES_PER_PUT) as f64,
        ),
    );
    out.set("dram_mb", db.dram_footprint() as f64 / (1 << 20) as f64);
}

/// Sets the per-layer metrics of the engine (`chameleondb`, `kvorder`),
/// the value log (`kvlog`) and the device (`pmem`) from the counter
/// deltas between `a` and `b`. `puts` and `gets` are the operations the
/// workload completed in the phase; `scan_sim_ns` is the simulated time
/// the engine spent in scans.
pub fn per_layer(
    out: &mut Outcome,
    db: &ChameleonDb,
    a: &Snap,
    b: &Snap,
    puts: u64,
    gets: u64,
    scan_sim_ns: f64,
) {
    let d = |f: fn(&StoreMetricsSnapshot) -> u64| (f(&b.store) - f(&a.store)) as f64;
    let engine_gets = d(|m| m.gets);
    for (name, hits) in [
        ("chameleondb.memtable_hit_frac", d(|m| m.memtable_hits)),
        ("chameleondb.abi_hit_frac", d(|m| m.abi_hits + m.upper_hits)),
        ("chameleondb.dumped_hit_frac", d(|m| m.dumped_hits)),
        ("chameleondb.last_hit_frac", d(|m| m.last_hits)),
        ("chameleondb.miss_frac", d(|m| m.misses)),
    ] {
        out.set(name, ratio(hits, engine_gets));
    }
    out.set(
        "chameleondb.write_stalls_per_kput",
        1e3 * ratio(d(|m| m.write_stalls), d(|m| m.puts)),
    );
    out.set("chameleondb.flushes", d(|m| m.flushes));
    out.set(
        "chameleondb.compactions",
        d(|m| m.mid_compactions + m.last_compactions),
    );
    out.set("chameleondb.wim_merges", d(|m| m.wim_merges));
    out.set("chameleondb.abi_dumps", d(|m| m.abi_dumps));
    out.set("chameleondb.gc_runs", d(|m| m.gc_runs));
    let user_bytes = (puts * USER_BYTES_PER_PUT) as f64;
    out.set(
        "chameleondb.gc_bytes_per_user_byte",
        ratio(d(|m| m.gc_relocated_bytes), user_bytes),
    );
    let scanned = d(|m| m.scanned_keys);
    out.set("kvorder.keys_per_scan", ratio(scanned, d(|m| m.scans)));
    out.set(
        "chameleondb.sim_scan_ns_per_key",
        ratio(scan_sim_ns, scanned),
    );

    let space = db.space_stats();
    out.set(
        "kvlog.space_amp",
        ratio(space.footprint_bytes as f64, space.live_bytes as f64),
    );
    out.set(
        "kvlog.live_ratio",
        ratio(space.live_bytes as f64, space.appended_bytes as f64),
    );

    let media = b.media.delta(&a.media);
    let puts = puts as f64;
    out.set(
        "pmem.media_write_bytes_per_put",
        ratio(media.media_bytes_written as f64, puts),
    );
    out.set(
        "pmem.rmw_blocks_per_put",
        ratio(media.rmw_blocks as f64, puts),
    );
    out.set(
        "pmem.fences_per_kput",
        1e3 * ratio(media.fences as f64, puts),
    );
    out.set(
        "pmem.media_read_bytes_per_get",
        ratio(media.media_bytes_read as f64, gets as f64),
    );
}
