//! Primary-side replication: the hub that fans committed, fenced batches
//! out to subscribed replicas, tracks their ack floors, and (under the
//! quorum policy) withholds durable client acks until enough replicas
//! have confirmed the fence.
//!
//! # Ship indices
//!
//! Log sequence numbers interleave across commit lanes, but each
//! subscriber's frame delivery is FIFO, so the stream is ordered by a
//! dense 1-based **ship index** assigned per published chunk under the
//! hub lock. A committed batch that encodes larger than one frame is
//! split greedily into chunks, each with its own ship index; a replica
//! that has applied ship `s` has applied every op of every chunk `<= s`.
//!
//! # Ack policies
//!
//! * [`AckPolicy::LocalFence`] (default): durable acks release at the
//!   local group-commit fence, exactly as before replication existed;
//!   subscribers trail behind asynchronously.
//! * [`AckPolicy::ReplicaQuorum`]: the committer hands its durable acks
//!   to the hub at publish time; they release only once `quorum`
//!   subscribers have acked the batch's last ship index. This only ever
//!   *delays* an ack past the local fence — the durability contract
//!   (acks strictly after the fence) is preserved by construction. SYNC
//!   barriers remain local-fence under either policy.
//!
//! # Retention
//!
//! Published chunks are retained (bounded by `repl_retain`) so a
//! subscriber arriving after writes began can backfill from its
//! requested `start_ship`. On overrun the oldest chunk is dropped and
//! the retained base advances; a later subscribe below the base is
//! refused ("history trimmed") rather than silently served a gap. There
//! is no log-based mid-stream catch-up in this version: replicas
//! subscribe before accepting traffic.
//!
//! A subscriber that dies silently stops acking; under the quorum policy
//! with no slack (`quorum == subscribers`) that stalls durable acks —
//! the same stall a real synchronous-replication pair exhibits. Size the
//! quorum below the replica count to tolerate replica loss.
//!
//! A subscription pins its connection against the reactor's idle sweep
//! (the stream is push-based; read-silence is normal).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use chameleon_obs::{CounterSection, TraceSpan};
use chameleondb::BatchOp;

use parking_lot::Mutex;

use crate::engine::ReplyTx;
use crate::proto::{RepOp, Response, MAX_FRAME, MAX_SCAN_KEYS};

/// When a durable write's ack is released to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// At the local group-commit fence (the pre-replication contract).
    LocalFence,
    /// Once `quorum` subscribed replicas have acked the fence's chunks.
    ReplicaQuorum { quorum: usize },
}

/// Replica-side shipped/applied/acked floors, shared between the apply
/// loop (writer) and the replica's read-only server (REPL_FLOOR, obs).
#[derive(Debug, Default)]
pub struct ReplicaFloors {
    /// Highest ship index received from the primary.
    pub received: AtomicU64,
    /// Highest ship index applied through `apply_batch` (fenced locally).
    pub applied: AtomicU64,
    /// Highest ship index acked back to the primary.
    pub acked: AtomicU64,
}

impl ReplicaFloors {
    pub fn new() -> Self {
        Self::default()
    }

    /// `(cumulative shipped, current lag)` for one telemetry tick.
    pub fn tick(&self) -> (u64, u64) {
        let received = self.received.load(Ordering::Acquire);
        let applied = self.applied.load(Ordering::Acquire);
        (received, received.saturating_sub(applied))
    }
}

/// The obs counter section of a replica server, built from its floors.
pub(crate) fn replica_section(f: &ReplicaFloors) -> CounterSection {
    let (received, lag) = f.tick();
    CounterSection {
        name: "repl",
        counters: vec![
            ("received", received),
            ("applied", f.applied.load(Ordering::Acquire)),
            ("acked", f.acked.load(Ordering::Acquire)),
            ("lag", lag),
        ],
    }
}

/// One durable ack withheld for quorum confirmation.
struct PendingAck {
    ship: u64,
    resp: ReplyTx,
    r: Response,
    trace: Option<Arc<TraceSpan>>,
}

struct Subscriber {
    id: u64,
    /// The subscribe request's id, reused on every shipped batch so the
    /// replica can match the stream.
    req_id: u64,
    reply: ReplyTx,
    /// Highest ship index this subscriber has acked (cumulative).
    acked: u64,
}

struct HubInner {
    /// Next ship index to assign (ship indices start at 1).
    next_ship: u64,
    /// Oldest retained ship index (subscribes below this are refused).
    base_ship: u64,
    next_sub: u64,
    retained: VecDeque<(u64, Arc<Vec<RepOp>>)>,
    subs: Vec<Subscriber>,
    /// Withheld durable acks, in ship order (assigned under this lock).
    pending: VecDeque<PendingAck>,
    /// Monotone quorum-acked floor; pending acks `<= floor` are released.
    floor: u64,
}

/// The primary's replication hub. Owned by the server's `Shared` state;
/// committers publish into it after each fence, reactor/connection
/// threads subscribe and ack through it.
pub(crate) struct ReplHub {
    /// Set on first subscribe (or at construction under a quorum
    /// policy); until then `publish` is a no-op so an unreplicated
    /// server pays nothing.
    enabled: AtomicBool,
    /// 0 under [`AckPolicy::LocalFence`].
    quorum: usize,
    retain_cap: usize,
    inner: Mutex<HubInner>,
    // Lock-free mirrors for floors, telemetry, and the obs section.
    shipped: AtomicU64,
    quorum_floor: AtomicU64,
    min_acked: AtomicU64,
    subs_gauge: AtomicU64,
    published_ops: AtomicU64,
    pending_gauge: AtomicU64,
    retain_overruns: AtomicU64,
}

impl ReplHub {
    pub(crate) fn new(policy: AckPolicy, retain_cap: usize) -> Self {
        let quorum = match policy {
            AckPolicy::LocalFence => 0,
            AckPolicy::ReplicaQuorum { quorum } => quorum.max(1),
        };
        Self {
            enabled: AtomicBool::new(quorum > 0),
            quorum,
            retain_cap: retain_cap.max(1),
            inner: Mutex::new(HubInner {
                next_ship: 1,
                base_ship: 1,
                next_sub: 1,
                retained: VecDeque::new(),
                subs: Vec::new(),
                pending: VecDeque::new(),
                floor: 0,
            }),
            shipped: AtomicU64::new(0),
            quorum_floor: AtomicU64::new(0),
            min_acked: AtomicU64::new(0),
            subs_gauge: AtomicU64::new(0),
            published_ops: AtomicU64::new(0),
            pending_gauge: AtomicU64::new(0),
            retain_overruns: AtomicU64::new(0),
        }
    }

    /// Whether durable acks must be handed to [`publish`](Self::publish)
    /// instead of sent at the fence.
    pub(crate) fn withholds_acks(&self) -> bool {
        self.quorum > 0
    }

    /// Highest assigned ship index (the primary's shipped floor).
    pub(crate) fn shipped(&self) -> u64 {
        self.shipped.load(Ordering::Acquire)
    }

    /// The monotone quorum-acked floor (0 under local-fence with no
    /// acking subscribers).
    pub(crate) fn acked_floor(&self) -> u64 {
        self.quorum_floor.load(Ordering::Acquire)
    }

    /// `(cumulative shipped, current max subscriber lag)` for one
    /// telemetry tick.
    pub(crate) fn tick(&self) -> (u64, u64) {
        let shipped = self.shipped();
        let lag = if self.subs_gauge.load(Ordering::Acquire) > 0 {
            shipped.saturating_sub(self.min_acked.load(Ordering::Acquire))
        } else {
            0
        };
        (shipped, lag)
    }

    /// The `repl` obs counter section, present once replication is live.
    pub(crate) fn section(&self) -> Option<CounterSection> {
        if !self.enabled.load(Ordering::Acquire) {
            return None;
        }
        let (_, lag) = self.tick();
        Some(CounterSection {
            name: "repl",
            counters: vec![
                ("shipped", self.shipped()),
                ("acked", self.acked_floor()),
                ("min_acked", self.min_acked.load(Ordering::Acquire)),
                ("lag", lag),
                ("subscribers", self.subs_gauge.load(Ordering::Acquire)),
                ("published_ops", self.published_ops.load(Ordering::Acquire)),
                ("pending_acks", self.pending_gauge.load(Ordering::Acquire)),
                (
                    "retain_overruns",
                    self.retain_overruns.load(Ordering::Acquire),
                ),
            ],
        })
    }

    /// Publishes one committed, fenced batch: assigns ship indices, fans
    /// the chunks out to every subscriber, retains them for late
    /// subscribers, and (quorum policy) parks `withheld` durable acks on
    /// the batch's last ship index. Under local-fence the caller passes
    /// an empty vec and sends its acks after this returns.
    pub(crate) fn publish(
        &self,
        ops: &[BatchOp],
        withheld: Vec<(ReplyTx, Response, Option<Arc<TraceSpan>>)>,
    ) {
        if !self.enabled.load(Ordering::Acquire) {
            debug_assert!(withheld.is_empty());
            return;
        }
        let chunks = chunk_ops(ops);
        let mut g = self.inner.lock();
        let mut last_ship = g.next_ship - 1;
        for chunk in chunks {
            let ship = g.next_ship;
            g.next_ship += 1;
            last_ship = ship;
            self.published_ops
                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            let chunk = Arc::new(chunk);
            for sub in &g.subs {
                sub.reply.send(
                    &Response::ReplBatch {
                        req_id: sub.req_id,
                        ship,
                        ops: (*chunk).clone(),
                    },
                    None,
                );
            }
            g.retained.push_back((ship, chunk));
            while g.retained.len() > self.retain_cap {
                g.retained.pop_front();
                g.base_ship += 1;
                self.retain_overruns.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.shipped.store(g.next_ship - 1, Ordering::Release);
        if !withheld.is_empty() {
            for (resp, r, trace) in withheld {
                g.pending.push_back(PendingAck {
                    ship: last_ship,
                    resp,
                    r,
                    trace,
                });
            }
            self.pending_gauge
                .store(g.pending.len() as u64, Ordering::Relaxed);
        }
    }

    /// Registers a subscriber: replies with its assigned `sub_id` and the
    /// current floors, backfills retained chunks from `start_ship`, then
    /// joins it to live publishes — all under one lock acquisition, so
    /// the subscriber sees every chunk exactly once, in ship order.
    pub(crate) fn subscribe(
        &self,
        start_ship: u64,
        req_id: u64,
        reply: ReplyTx,
    ) -> Result<(), String> {
        self.enabled.store(true, Ordering::Release);
        let mut g = self.inner.lock();
        let start = start_ship.max(1);
        if start < g.base_ship {
            return Err(format!(
                "replication history trimmed: start_ship {start} below retained base {}",
                g.base_ship
            ));
        }
        let sub_id = g.next_sub;
        g.next_sub += 1;
        reply.send(
            &Response::ReplFloor {
                req_id,
                sub_id,
                shipped: g.next_ship - 1,
                acked: g.floor,
                applied: start - 1,
            },
            None,
        );
        for (ship, chunk) in g.retained.iter() {
            if *ship >= start {
                reply.send(
                    &Response::ReplBatch {
                        req_id,
                        ship: *ship,
                        ops: (**chunk).clone(),
                    },
                    None,
                );
            }
        }
        g.subs.push(Subscriber {
            id: sub_id,
            req_id,
            reply,
            acked: start - 1,
        });
        self.subs_gauge
            .store(g.subs.len() as u64, Ordering::Release);
        self.refresh_floors(&mut g);
        Ok(())
    }

    /// Records a subscriber's cumulative ack and releases any withheld
    /// durable acks the advanced quorum floor now covers. Returns false
    /// for an unknown subscriber id.
    pub(crate) fn ack(&self, sub_id: u64, ship: u64) -> bool {
        let mut g = self.inner.lock();
        let Some(sub) = g.subs.iter_mut().find(|s| s.id == sub_id) else {
            return false;
        };
        if ship > sub.acked {
            sub.acked = ship;
        }
        self.refresh_floors(&mut g);
        true
    }

    /// Recomputes the min-acked gauge and the quorum floor (monotone: a
    /// fresh subscriber with a low floor never claws back a release),
    /// then sends every pending ack the floor covers.
    fn refresh_floors(&self, g: &mut HubInner) {
        let mut acked: Vec<u64> = g.subs.iter().map(|s| s.acked).collect();
        acked.sort_unstable_by(|a, b| b.cmp(a));
        self.min_acked
            .store(acked.last().copied().unwrap_or(0), Ordering::Release);
        let q = self.quorum.max(1);
        let computed = if acked.len() >= q { acked[q - 1] } else { 0 };
        if computed > g.floor {
            g.floor = computed;
            self.quorum_floor.store(g.floor, Ordering::Release);
        }
        while g.pending.front().is_some_and(|p| p.ship <= g.floor) {
            let p = g.pending.pop_front().expect("front checked");
            p.resp.send(&p.r, p.trace);
        }
        self.pending_gauge
            .store(g.pending.len() as u64, Ordering::Relaxed);
    }
}

/// Splits a batch into wire chunks: each encodes within [`MAX_FRAME`]
/// and carries at most [`MAX_SCAN_KEYS`] ops. A maximal single value
/// fits one chunk (header + op overhead is inside `MAX_FRAME`'s slack
/// over `MAX_VALUE`).
fn chunk_ops(ops: &[BatchOp]) -> Vec<Vec<RepOp>> {
    // status + req_id + ship + count.
    const HEADER: usize = 1 + 8 + 8 + 4;
    let mut chunks = Vec::new();
    let mut cur: Vec<RepOp> = Vec::new();
    let mut bytes = HEADER;
    for op in ops {
        let (rep, sz) = match op {
            BatchOp::Put { key, value } => (
                RepOp {
                    key: *key,
                    value: Some(value.clone()),
                },
                8 + 1 + 4 + value.len(),
            ),
            BatchOp::Delete { key } => (
                RepOp {
                    key: *key,
                    value: None,
                },
                8 + 1,
            ),
        };
        if !cur.is_empty() && (bytes + sz > MAX_FRAME || cur.len() >= MAX_SCAN_KEYS) {
            chunks.push(std::mem::take(&mut cur));
            bytes = HEADER;
        }
        bytes += sz;
        cur.push(rep);
    }
    if !cur.is_empty() {
        chunks.push(cur);
    }
    chunks
}

/// Converts wire rep-ops back into engine batch ops (the replica apply
/// path).
pub fn batch_of_rep_ops(ops: Vec<RepOp>) -> Vec<BatchOp> {
    ops.into_iter()
        .map(|op| match op.value {
            Some(value) => BatchOp::Put { key: op.key, value },
            None => BatchOp::Delete { key: op.key },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_VALUE;

    #[test]
    fn chunks_respect_frame_and_count_bounds() {
        // A run of max-size values: one op per chunk.
        let big = vec![
            BatchOp::Put {
                key: 1,
                value: vec![0u8; MAX_VALUE],
            },
            BatchOp::Put {
                key: 2,
                value: vec![0u8; MAX_VALUE],
            },
        ];
        let chunks = chunk_ops(&big);
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len() == 1));

        // Many tombstones: count-capped, order preserved.
        let many: Vec<BatchOp> = (0..(MAX_SCAN_KEYS as u64 + 10))
            .map(|key| BatchOp::Delete { key })
            .collect();
        let chunks = chunk_ops(&many);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), MAX_SCAN_KEYS);
        assert_eq!(chunks[1].len(), 10);
        let flat: Vec<u64> = chunks.iter().flatten().map(|o| o.key).collect();
        assert_eq!(flat, (0..(MAX_SCAN_KEYS as u64 + 10)).collect::<Vec<_>>());

        assert!(chunk_ops(&[]).is_empty());
    }

    #[test]
    fn rep_ops_convert_back_to_batch_ops() {
        let ops = vec![
            RepOp {
                key: 1,
                value: Some(b"v".to_vec()),
            },
            RepOp {
                key: 2,
                value: None,
            },
        ];
        assert_eq!(
            batch_of_rep_ops(ops),
            vec![
                BatchOp::Put {
                    key: 1,
                    value: b"v".to_vec()
                },
                BatchOp::Delete { key: 2 },
            ]
        );
    }
}
