//! kvserver: an event-driven TCP service layer over [`chameleondb`]
//! with group-commit durability.
//!
//! The pieces (DESIGN.md §5):
//!
//! * [`proto`] — the length-prefixed binary wire protocol: pipelined
//!   requests matched to streamed responses by `req_id`.
//! * The **reactor** — an acceptor plus a small fixed pool of
//!   nonblocking I/O workers multiplexing all connections via `poll(2)`:
//!   per-connection partial-frame state machines ([`conn::FrameBuf`]),
//!   inline lock-free GETs, and bounded per-connection response queues
//!   with slow-consumer disconnect. Thread count is constant in the
//!   connection count.
//! * The **group-commit engine** — one committer per lane drains its
//!   queue into batches, appends each batch through
//!   `chameleondb::ChameleonDb::apply_batch` under a single persist
//!   fence, and releases durable acks only after that fence. On the
//!   simulated Optane device this amortizes both the fence and the
//!   256-byte-block read-modify-write cost across the batch. Acks are
//!   encoded and posted back to the owning I/O worker via its wake
//!   pipe.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use chameleon_obs::ServerObs;
//! use chameleondb::{ChameleonConfig, ChameleonDb};
//! use kvserver::{KvServer, ServerConfig};
//! use pmem_sim::PmemDevice;
//!
//! let dev = PmemDevice::optane(256 << 20);
//! let store = Arc::new(
//!     ChameleonDb::create(Arc::clone(&dev), ChameleonConfig::tiny()).unwrap(),
//! );
//! let server = KvServer::start(
//!     "127.0.0.1:0",
//!     dev,
//!     store,
//!     Arc::new(ServerObs::new()),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let addr = server.local_addr();
//! // ... connect clients to `addr` ...
//! server.shutdown().unwrap();
//! ```

pub mod conn;
mod engine;
mod http;
pub mod proto;
mod reactor;
pub mod repl;

pub use engine::{KvServer, ServerConfig};
pub use repl::{AckPolicy, ReplicaFloors};
