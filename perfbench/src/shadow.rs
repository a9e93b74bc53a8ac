//! Generated inputs and the shadow model the outputs are checked against.
//!
//! Every input the program sees comes from here: a key set drawn from
//! the workload seed, and values that name their own key and version, so
//! any value read back can be traced to the exact write that produced
//! it. The checkers return a description of the first violation found.

use kvapi::mix64;

/// User value size in bytes ("small values", as in the paper's YCSB runs).
pub const VALUE_LEN: usize = 16;
/// User bytes one write carries: the 8-byte key plus its value.
pub const USER_BYTES_PER_PUT: u64 = 8 + VALUE_LEN as u64;
/// Version every key holds after the preload.
pub const PRELOAD_VERSION: u32 = 1;

/// A seeded set of distinct keys, addressable by index and in key order.
pub struct KeySet {
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

impl KeySet {
    /// `n` distinct keys drawn from `seed`. `mix64` is a bijection, so
    /// distinct indices give distinct keys.
    pub fn new(seed: u64, n: usize) -> Self {
        let base = mix64(seed ^ 0x5045_5246_4245_4E43);
        let keys: Vec<u64> = (0..n as u64).map(|i| mix64(base.wrapping_add(i))).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        Self { keys, sorted }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The key at index `i` (the index the shadow tracks it by).
    pub fn key(&self, i: usize) -> u64 {
        self.keys[i]
    }

    /// All keys in ascending order.
    pub fn sorted(&self) -> &[u64] {
        &self.sorted
    }

    /// What a scan of at most `limit` keys from `start` must return: the
    /// live keys `>= start`, in order (no workload deletes or inserts).
    pub fn expected_scan(&self, start: u64, limit: usize) -> &[u64] {
        let from = self.sorted.partition_point(|&k| k < start);
        &self.sorted[from..(from + limit).min(self.sorted.len())]
    }
}

/// The value written as `version` of `key`: the key, the version, and a
/// filler derived from both, so a torn or misplaced value fails to decode.
pub fn value_of(key: u64, version: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let fill = mix64(key ^ u64::from(version)).to_le_bytes();
    v.extend_from_slice(&fill[..VALUE_LEN - 12]);
    v
}

/// The version a value read for `key` holds, or why it is not a value
/// this generator wrote for `key`.
pub fn version_of(key: u64, value: &[u8]) -> Result<u32, String> {
    if value.len() != VALUE_LEN {
        return Err(format!("key {key:#x}: value of {} bytes", value.len()));
    }
    let version = u32::from_le_bytes(value[8..12].try_into().expect("4-byte slice"));
    if value != value_of(key, version).as_slice() {
        return Err(format!("key {key:#x}: value was not written for this key"));
    }
    Ok(version)
}

/// Checks a read of `key`: it must return a version no older than
/// `floor` (the last version acknowledged before the read was issued)
/// and no newer than `ceil` (the last version issued before its answer
/// arrived).
pub fn check_read(key: u64, value: Option<&[u8]>, floor: u32, ceil: u32) -> Result<(), String> {
    let value = value.ok_or_else(|| format!("key {key:#x}: not found"))?;
    let v = version_of(key, value)?;
    if v < floor || v > ceil {
        return Err(format!(
            "key {key:#x}: read version {v}, expected {floor}..={ceil}"
        ));
    }
    Ok(())
}

/// Checks a scan answer: strictly ascending, every key `>= start`, at most
/// `limit` keys, and exactly the live keys the shadow expects.
pub fn check_scan(start: u64, limit: usize, got: &[u64], expected: &[u64]) -> Result<(), String> {
    if got.len() > limit {
        return Err(format!(
            "scan from {start:#x}: {} keys for limit {limit}",
            got.len()
        ));
    }
    if let Some(w) = got.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!(
            "scan from {start:#x}: {:#x} before {:#x}",
            w[0], w[1]
        ));
    }
    if let Some(k) = got.iter().find(|&&k| k < start) {
        return Err(format!("scan from {start:#x}: key {k:#x} below start"));
    }
    if got != expected {
        return Err(format!(
            "scan from {start:#x}: {} keys differ from the {} live keys expected",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Per-key versions: the last one issued and the last one acknowledged.
pub struct Shadow {
    pub issued: Vec<u32>,
    pub acked: Vec<u32>,
}

impl Shadow {
    /// Every key at its preload version.
    pub fn preloaded(n: usize) -> Self {
        Self {
            issued: vec![PRELOAD_VERSION; n],
            acked: vec![PRELOAD_VERSION; n],
        }
    }

    /// Issues the next version of key `i`.
    pub fn issue(&mut self, i: usize) -> u32 {
        self.issued[i] += 1;
        self.issued[i]
    }

    /// Whether a newer version of key `i` than `v` has been issued.
    pub fn superseded(&self, i: usize, v: u32) -> bool {
        self.issued[i] > v
    }

    /// Records an acknowledgement of version `v` of key `i`. Acks of one
    /// key can arrive out of order only across connections, which the
    /// generators never use for the same key; `max` keeps it safe anyway.
    pub fn ack(&mut self, i: usize, v: u32) {
        self.acked[i] = self.acked[i].max(v);
    }
}

/// Deterministic generator for workload choices (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_name_their_key() {
        let v = value_of(42, 7);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(version_of(42, &v), Ok(7));
        assert!(version_of(43, &v).is_err());
    }

    #[test]
    fn read_checker_flags_a_wrong_value() {
        assert!(check_read(5, Some(&value_of(5, 3)), 2, 4).is_ok());
        // Stale: older than the last acknowledged version.
        assert!(check_read(5, Some(&value_of(5, 1)), 2, 4).is_err());
        // From the future: never issued.
        assert!(check_read(5, Some(&value_of(5, 5)), 2, 4).is_err());
        // Another key's value, a corrupted value, a lost key.
        assert!(check_read(5, Some(&value_of(6, 3)), 2, 4).is_err());
        let mut torn = value_of(5, 3);
        torn[VALUE_LEN - 1] ^= 1;
        assert!(check_read(5, Some(&torn), 2, 4).is_err());
        assert!(check_read(5, None, 2, 4).is_err());
    }

    #[test]
    fn scan_checker_flags_order_bounds_and_content() {
        let keys = KeySet::new(9, 1000);
        let start = keys.sorted()[100] - 1;
        let want = keys.expected_scan(start, 10).to_vec();
        assert_eq!(want.len(), 10);
        assert!(check_scan(start, 10, &want, &want).is_ok());
        let mut swapped = want.clone();
        swapped.swap(3, 4);
        assert!(check_scan(start, 10, &swapped, &want).is_err());
        assert!(check_scan(start, 9, &want, &want).is_err());
        let mut below = want.clone();
        below[0] = start - 1;
        assert!(check_scan(start, 10, &below, &want).is_err());
        assert!(check_scan(start, 10, &want[..9], &want).is_err());
    }

    #[test]
    fn key_sets_are_distinct_and_seeded() {
        let a = KeySet::new(1, 5000);
        let mut d = a.sorted().to_vec();
        d.dedup();
        assert_eq!(d.len(), 5000);
        assert_eq!(a.key(17), KeySet::new(1, 5000).key(17));
        assert_ne!(a.key(17), KeySet::new(2, 5000).key(17));
    }
}
