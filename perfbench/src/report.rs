//! Metric names, units, sample statistics and the result line.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: a run prints exactly the metrics of one table, and
//! [`check_declared`] refuses a run whose table and the file disagree.
//! A name starting with `sim_` (or `<layer>.sim_`) is simulated device
//! time from the `pmem-sim` cost model; every other time is wall-clock.

use std::collections::BTreeMap;

use pmem_sim::Histogram;

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("put_p50_us", "us"),
    ("sim_mops", "Mop/s"),
    ("sim_get_p99_us", "us"),
    ("media_wamp", "B/B"),
    ("space_amp", "B/B"),
    ("dram_mb", "MiB"),
    ("recover_s", "s"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer a
/// workload never calls reads 0 (the engine workload has no server).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kvclient.rtt_put_us", "us"),
    ("kvclient.rtt_get_us", "us"),
    ("kvclient.rtt_scan_us", "us"),
    ("gen.rtt_put_us", "us"),
    ("gen.rtt_get_us", "us"),
    ("gen.put_p99_us", "us"),
    ("gen.get_p50_us", "us"),
    ("gen.get_p99_us", "us"),
    ("gen.scan_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.shed_frac", "frac"),
    ("gen.retry_frac", "frac"),
    ("kvserver.decode_us", "us"),
    ("kvserver.lane_enqueue_us", "us"),
    ("kvserver.batch_seal_us", "us"),
    ("kvserver.fence_complete_us", "us"),
    ("kvserver.ack_write_us", "us"),
    ("kvserver.mean_batch", "ops"),
    ("kvserver.acks_per_fence", "acks"),
    ("kvserver.unaccounted_frac", "frac"),
    ("chameleondb.append_us", "us"),
    ("chameleondb.fence_us", "us"),
    ("chameleondb.probe_us", "us"),
    ("chameleondb.read_us", "us"),
    ("chameleondb.get_us", "us"),
    ("chameleondb.put_us", "us"),
    ("chameleondb.put_p99_us", "us"),
    ("chameleondb.get_p99_us", "us"),
    ("chameleondb.memtable_hit_frac", "frac"),
    ("chameleondb.abi_hit_frac", "frac"),
    ("chameleondb.dumped_hit_frac", "frac"),
    ("chameleondb.last_hit_frac", "frac"),
    ("chameleondb.miss_frac", "frac"),
    ("chameleondb.write_stalls_per_kput", "1/kput"),
    ("chameleondb.flushes", "count"),
    ("chameleondb.compactions", "count"),
    ("chameleondb.wim_merges", "count"),
    ("chameleondb.abi_dumps", "count"),
    ("chameleondb.gc_runs", "count"),
    ("chameleondb.gc_bytes_per_user_byte", "B/B"),
    ("chameleondb.sim_put_p99_us", "us"),
    ("chameleondb.sim_scan_ns_per_key", "ns"),
    ("chameleondb.sim_recover_ms", "ms"),
    ("kvorder.keys_per_scan", "keys"),
    ("kvlog.space_amp", "B/B"),
    ("kvlog.live_ratio", "frac"),
    ("pmem.media_write_bytes_per_put", "B"),
    ("pmem.rmw_blocks_per_put", "blocks"),
    ("pmem.fences_per_kput", "1/kput"),
    ("pmem.media_read_bytes_per_get", "B"),
    ("obs.trace_overhead_frac", "frac"),
];

/// What one run observed: operation counts, correctness violations and
/// named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Mean wall time of one completed operation, as the caller saw it.
    pub op_mean_us: f64,
    pub pooled: Pooled,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets the latency and simulated-time metrics from the pooled
    /// observations.
    pub fn set_pooled(&mut self) {
        let p = &mut self.pooled;
        let values = [
            ("put_p50_us", p.put.quantile_us(0.5)),
            ("chameleondb.sim_put_p99_us", p99_us(&p.sim_put)),
            ("sim_get_p99_us", p99_us(&p.sim_get)),
            ("sim_mops", median(p.sim_mops.clone())),
        ];
        for (name, v) in values {
            self.set(name, v);
        }
    }

    /// Combines the sessions of one run: operations, failures and
    /// violations add up, latencies are taken over the pooled requests,
    /// and every other metric is the median over sessions.
    pub fn combine(sessions: Vec<Outcome>) -> Outcome {
        let mut out = Outcome::default();
        let mut ops_means = Vec::with_capacity(sessions.len());
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for mut s in sessions {
            out.attempted += s.attempted;
            out.failed += s.failed;
            out.violations.append(&mut s.violations);
            out.pooled.absorb(&mut s.pooled);
            ops_means.push(s.op_mean_us);
            for (name, v) in s.metrics {
                values.entry(name).or_default().push(v);
            }
        }
        for (name, v) in values {
            out.set(name, median(v));
        }
        out.op_mean_us = median(ops_means);
        out.set_pooled();
        out
    }

    /// Folds in the untraced twin of this traced run: its operations and
    /// violations count, and `obs.trace_overhead_frac` is the traced
    /// run's mean operation time over the untraced one's, minus one.
    pub fn absorb_overhead(&mut self, untraced: &Outcome) {
        self.attempted += untraced.attempted;
        self.failed += untraced.failed;
        self.violations.extend(untraced.violations.iter().cloned());
        let overhead = ratio(self.op_mean_us, untraced.op_mean_us) - 1.0;
        self.set("obs.trace_overhead_frac", overhead);
    }

    /// Records a correctness violation; it also counts as a failed op.
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }
}

/// Nanosecond samples of one kind of operation.
#[derive(Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn append(&mut self, other: &mut Samples) {
        self.0.append(&mut other.0);
    }

    /// Nearest-rank quantile in microseconds (0 when empty).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64 / 1e3
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let sum: f64 = self.0.iter().map(|&v| v as f64).sum();
        ratio(sum, self.0.len() as f64) / 1e3
    }
}

/// The 99th percentile of a log-bucketed histogram in microseconds,
/// interpolated linearly inside the bucket that holds it (the bucket
/// bound alone would move in ~3% steps).
pub fn p99_us(h: &Histogram) -> f64 {
    let cdf = h.cdf();
    let Some(at) = cdf.iter().position(|&(_, c)| c >= 0.99) else {
        return 0.0;
    };
    let (upper, c) = cdf[at];
    let below = if at == 0 { 0.0 } else { cdf[at - 1].1 };
    // Buckets are 1/32 of an octave wide: 2^(msb - 5) values above 63.
    let width = if upper < 64 {
        1
    } else {
        1u64 << (63 - upper.leading_zeros() - 5)
    };
    let lower = (upper + 1).saturating_sub(width) as f64;
    let share = (0.99 - below) / (c - below);
    (lower + share * (upper as f64 + 1.0 - lower)) / 1e3
}

/// The raw observations behind the latency and simulated-time metrics.
/// The sessions of a run pool them, so a quantile is taken over every
/// request of the run rather than over one short session.
#[derive(Debug, Default)]
pub struct Pooled {
    /// Wall time per completed PUT: from the scheduled send time
    /// (service) or around the call (engine).
    pub put: Samples,
    /// Simulated engine time per PUT / GET.
    pub sim_put: Histogram,
    pub sim_get: Histogram,
    /// Millions of operations per simulated second, one value per
    /// stretch of the run.
    pub sim_mops: Vec<f64>,
}

impl Pooled {
    fn absorb(&mut self, other: &mut Pooled) {
        self.put.append(&mut other.put);
        self.sim_put.merge(&other.sim_put);
        self.sim_get.merge(&other.sim_get);
        self.sim_mops.append(&mut other.sim_mops);
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a few repeated measurements (the middle one, or the mean of
/// the middle two).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares in `section`
/// (`"end_to_end"` or `"per_layer"`). Each section is a flat array of
/// flat objects, so its end is the first `]` after its key.
pub fn declared(spec: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let key = format!("\"{section}\"");
    let at = spec
        .find(&key)
        .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?;
    let body = &spec[at..];
    let body = &body[..body
        .find(']')
        .ok_or_else(|| format!("BENCHMARK.json: {key} is not closed"))?];
    let field = |obj: &str, name: &str| -> Result<String, String> {
        let pat = format!("\"{name}\"");
        let rest = &obj[obj
            .find(&pat)
            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {pat}"))?
            + pat.len()..];
        let open = rest.find('"').ok_or("unquoted value")? + 1;
        let len = rest[open..].find('"').ok_or("unterminated string")?;
        Ok(rest[open..open + len].to_owned())
    };
    body.split('{')
        .skip(1)
        .map(|obj| Ok((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

/// Checks that `table` is exactly what `BENCHMARK.json` declares for
/// `section`: the same names, in the same order, with the same units.
pub fn check_declared(spec: &str, section: &str, table: &[(&str, &str)]) -> Result<(), String> {
    let want = declared(spec, section)?;
    let have: Vec<(String, String)> = table
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    if want != have {
        return Err(format!(
            "metric table and BENCHMARK.json {section} differ:\n  declared {want:?}\n  printed  {have:?}"
        ));
    }
    Ok(())
}

/// The result line: every metric of `table`, which must all be present
/// and finite (metrics outside `table` are not printed).
pub fn result_line(out: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = *out
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn tables_match_benchmark_json() {
        check_declared(SPEC, "end_to_end", END_TO_END).unwrap();
        check_declared(SPEC, "per_layer", PER_LAYER).unwrap();
    }

    #[test]
    fn a_renamed_metric_is_refused() {
        let mut table = END_TO_END.to_vec();
        table[1] = ("ops_per_sec", "1/s");
        assert!(check_declared(SPEC, "end_to_end", &table).is_err());
    }

    #[test]
    fn nanoseconds_are_only_simulated() {
        // Wall-clock times are in s, ms or us; ns marks simulated time,
        // whose names carry `sim_`.
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if unit == "ns" || name.contains("sim_") {
                assert!(
                    name.rsplit('.').next().unwrap().starts_with("sim_"),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100u64 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_us(0.5), 50.0);
        assert_eq!(s.quantile_us(0.99), 99.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut out = Outcome::default();
        for &(n, _) in END_TO_END {
            out.set(n, 1.5);
        }
        let line = result_line(&out, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        out.metrics.remove("setup_s");
        assert!(result_line(&out, END_TO_END).is_err());
        out.set("setup_s", f64::NAN);
        assert!(result_line(&out, END_TO_END).is_err());
    }

    #[test]
    fn interpolated_p99_moves_inside_its_bucket() {
        let mut h = Histogram::default();
        for _ in 0..98 {
            h.record(100);
        }
        h.record(1000);
        h.record(1000);
        let a = p99_us(&h);
        h.record(1000);
        let b = p99_us(&h);
        // Both lie in the 1000 ns bucket (985..=1000), where the rank of
        // the 99th percentile sample decides the position.
        assert!(
            (0.985..=1.001).contains(&a) && (0.985..=1.001).contains(&b),
            "{a} {b}"
        );
        assert!(a < b, "{a} {b}");
    }
}
