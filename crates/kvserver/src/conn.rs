//! Per-connection state for the reactor: incremental frame reassembly
//! and a bounded outgoing-frame queue.
//!
//! A reactor worker never blocks on a socket, so frames arrive in
//! arbitrary fragments — a single `read(2)` may return half a length
//! prefix, three complete frames plus a tail, or one byte. [`FrameBuf`]
//! turns that byte stream back into whole frame payloads without ever
//! blocking or copying more than once. `Conn` pairs a `FrameBuf` with
//! the write side: a queue of encoded response frames drained on
//! `POLLOUT`, bounded in bytes so a slow or wedged reader sheds the
//! connection instead of growing server memory (ISSUE 7 satellite 1).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use chameleon_obs::trace::TraceSpan;

use crate::proto::{ProtoError, MAX_FRAME};

/// Incremental length-prefixed frame reassembly.
///
/// Feed arbitrary byte fragments with [`FrameBuf::extend`]; pull zero or
/// more complete frame payloads with [`FrameBuf::next_frame`]. The split
/// points of the incoming reads never affect the reassembled frames
/// (property-tested in `tests/conn_props.rs`).
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`. Consumed prefixes
    /// are compacted away lazily, once they dominate the buffer, so
    /// steady-state parsing does no per-frame memmove.
    start: usize,
}

impl FrameBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly-read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact_if_worthwhile();
        self.buf.extend_from_slice(bytes);
    }

    /// Returns the next complete frame payload, `Ok(None)` if more bytes
    /// are needed, or a [`ProtoError`] if the declared length exceeds
    /// [`MAX_FRAME`] (fatal: framing can't be resynchronized).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > MAX_FRAME {
            return Err(ProtoError("frame length exceeds MAX_FRAME"));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact_if_worthwhile(&mut self) {
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// One encoded response frame queued for writing, with the trace span to
/// seal once its last byte reaches the socket.
struct OutFrame {
    /// Length prefix + payload, ready for `write(2)`.
    bytes: Vec<u8>,
    written: usize,
    span: Option<Arc<TraceSpan>>,
}

/// What [`Conn::read_ready`] observed on the socket.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Socket drained to `WouldBlock`; connection still open.
    Open,
    /// Peer closed its write side (clean EOF).
    Eof,
    /// Read error — connection is unusable.
    Err,
}

/// A reactor-owned connection: nonblocking stream plus read/write state.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub id: u64,
    pub framebuf: FrameBuf,
    outq: VecDeque<OutFrame>,
    /// Total unsent bytes across `outq`; compared against
    /// `resp_queue_cap` to detect slow consumers.
    pub queued_bytes: usize,
    pub last_activity: Instant,
    /// Requests dispatched whose response has not yet come back through
    /// the worker's inbox (e.g. a durable write waiting on its fence).
    /// A connection with work in flight is live no matter how long the
    /// socket has been read-silent — the idle sweep must not reap it.
    pub inflight: usize,
    /// A replication subscription was dispatched on this connection.
    /// The stream is push-based — after the subscribe the peer may
    /// legitimately send nothing for arbitrarily long (acks only follow
    /// shipped batches) — so a pinned connection is exempt from the
    /// idle sweep for its lifetime.
    pub pinned: bool,
    /// Peer closed its write side: no more requests will arrive, but
    /// already-queued replies still flush before the close.
    pub eof: bool,
    /// Set when the connection must be torn down (protocol error, slow
    /// consumer, idle timeout); the worker closes it at the end of the
    /// dispatch pass.
    pub doomed: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, id: u64) -> Self {
        Self {
            stream,
            id,
            framebuf: FrameBuf::new(),
            outq: VecDeque::new(),
            queued_bytes: 0,
            last_activity: Instant::now(),
            inflight: 0,
            pinned: false,
            eof: false,
            doomed: false,
        }
    }

    /// Drains the socket into `framebuf` until `WouldBlock`/EOF/error.
    pub fn read_ready(&mut self, scratch: &mut [u8]) -> ReadOutcome {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => {
                    self.last_activity = Instant::now();
                    self.framebuf.extend(&scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Err,
            }
        }
    }

    /// Queues an encoded response frame (length prefix already included).
    /// Returns `false` — dooming the connection — if the queue would
    /// exceed `cap` unsent bytes: the client isn't reading its replies.
    pub fn enqueue(&mut self, frame: Vec<u8>, span: Option<Arc<TraceSpan>>, cap: usize) -> bool {
        if self.queued_bytes + frame.len() > cap {
            self.doomed = true;
            return false;
        }
        self.queued_bytes += frame.len();
        self.outq.push_back(OutFrame {
            bytes: frame,
            written: 0,
            span,
        });
        true
    }

    /// True if there are queued bytes still to write.
    pub fn wants_write(&self) -> bool {
        !self.outq.is_empty()
    }

    /// Writes queued frames until `WouldBlock` or the queue empties.
    /// Fully-written frames have their trace spans sealed via `seal`.
    /// Returns `false` on a write error (connection unusable).
    pub fn flush(&mut self, mut seal: impl FnMut(Arc<TraceSpan>)) -> bool {
        while let Some(front) = self.outq.front_mut() {
            match self.stream.write(&front.bytes[front.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    // Write progress is activity: a peer slowly draining
                    // a large response is alive, even if it has sent no
                    // request bytes for longer than the idle timeout.
                    self.last_activity = Instant::now();
                    front.written += n;
                    self.queued_bytes -= n;
                    if front.written == front.bytes.len() {
                        let done = self.outq.pop_front().expect("front exists");
                        if let Some(span) = done.span {
                            seal(span);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn whole_frame_in_one_extend() {
        let mut fb = FrameBuf::new();
        fb.extend(&frame(b"hello"));
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(fb.next_frame().unwrap(), None);
        assert_eq!(fb.pending_len(), 0);
    }

    #[test]
    fn frame_split_byte_by_byte() {
        let mut fb = FrameBuf::new();
        let wire = frame(b"split me");
        for b in &wire[..wire.len() - 1] {
            fb.extend(std::slice::from_ref(b));
            assert_eq!(fb.next_frame().unwrap(), None);
        }
        fb.extend(&wire[wire.len() - 1..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"split me");
    }

    #[test]
    fn several_frames_in_one_read() {
        let mut fb = FrameBuf::new();
        let mut wire = frame(b"a");
        wire.extend_from_slice(&frame(b""));
        wire.extend_from_slice(&frame(b"ccc"));
        fb.extend(&wire);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"a");
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"");
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"ccc");
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_is_fatal() {
        let mut fb = FrameBuf::new();
        fb.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn compaction_preserves_partial_tail() {
        let mut fb = FrameBuf::new();
        // Consume a large frame, leaving a partial prefix of the next one
        // buffered, then extend (triggering compaction) and finish it.
        let big = frame(&vec![0x42u8; 4096]);
        let next = frame(b"tail");
        fb.extend(&big);
        fb.extend(&next[..3]);
        assert_eq!(fb.next_frame().unwrap().unwrap().len(), 4096);
        fb.extend(&next[3..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"tail");
    }
}
