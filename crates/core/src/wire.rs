//! Compact binary trace encoding for streaming ingest.
//!
//! The text format of [`crate::Trace`] is convenient for diffs and
//! minimized reproducers but is the bottleneck at service scale: parsing
//! dominates replay once traces stream over a socket. This module defines
//! the wire form the `scord-serve` server speaks — a versioned stream
//! header followed by length-prefixed, CRC-checksummed frames whose
//! payloads are packed-word event encodings:
//!
//! ```text
//! stream  := header frame*
//! header  := magic "SCRD" | version u16 LE | reserved u16 LE
//! frame   := payload_len u32 LE | frame_type u8 | payload | crc32 u32 LE
//! ```
//!
//! The CRC covers the frame-type byte and the payload, so a flipped bit
//! anywhere in a frame body is caught before any payload is interpreted;
//! a corrupted length prefix surfaces as [`WireError::FrameTooLarge`] or a
//! CRC mismatch on the misframed bytes. Every decode failure is a typed
//! [`WireError`] — malformed input can quarantine a connection but never
//! panic a process.
//!
//! Events pack into little-endian 64-bit words (the packed-word idiom):
//! loads, stores and atomics take two words (descriptor + address), all
//! other events one. Reserved bits must decode as zero, which both keeps
//! the encoding canonical (binary ↔ struct ↔ text round-trips are exact)
//! and catches corruption that slips past framing in tests that bypass
//! the CRC.

use std::fmt;

use scord_isa::Scope;

use crate::fault::{FaultInjector, FaultKind};
use crate::{AccessKind, Accessor, AtomKind, MemAccess, Trace, TraceEvent};

/// Stream magic: the first four bytes of every trace stream.
pub const MAGIC: [u8; 4] = *b"SCRD";
/// Wire-format version this build encodes and accepts.
pub const VERSION: u16 = 1;
/// Bytes in the stream header (magic + version + reserved).
pub const HEADER_BYTES: usize = 8;
/// Bytes of frame overhead (length prefix + type byte + CRC).
pub const FRAME_OVERHEAD: usize = 9;
/// Default ceiling on a single frame's payload, enforced before any
/// allocation so a corrupted (or hostile) length prefix cannot balloon
/// memory.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Frame types carried over the wire. Client-to-server types sit below
/// 0x80, server-to-client types at or above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// A batch of packed trace events: the transport framing of
    /// [`trace_to_frames`] and the fault audit. The service does not take
    /// it; its clients send `StreamEvents`.
    Events,
    /// Client → server: end of stream. Ends a service session (finalizing
    /// its open streams) and terminates a [`trace_to_frames`] stream.
    Finish,
    /// Client → server (session protocol): a batch of packed trace events
    /// for one stream of a persistent session; the payload starts with a
    /// little-endian `u32` stream id.
    StreamEvents,
    /// Client → server (session protocol): end of one stream; the payload
    /// is the little-endian `u32` stream id. The connection stays open for
    /// further streams.
    StreamFinish,
    /// Server → client: typed protocol error; the connection is being
    /// closed.
    Error,
    /// Server → client: over the overload watermark; try again later.
    Busy,
    /// Server → client (session protocol): incremental race report for one
    /// stream; the payload starts with the `u32` stream id.
    StreamReport,
    /// Server → client (session protocol): final summary for one stream;
    /// the payload starts with the `u32` stream id. The connection stays
    /// open.
    StreamDone,
}

impl FrameType {
    /// The on-wire tag byte.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            FrameType::Events => 0x01,
            FrameType::Finish => 0x02,
            FrameType::StreamEvents => 0x03,
            FrameType::StreamFinish => 0x04,
            FrameType::Error => 0x83,
            FrameType::Busy => 0x84,
            FrameType::StreamReport => 0x85,
            FrameType::StreamDone => 0x86,
        }
    }

    /// Decodes a tag byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadFrameType`] for unassigned tags.
    pub fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            0x01 => FrameType::Events,
            0x02 => FrameType::Finish,
            0x03 => FrameType::StreamEvents,
            0x04 => FrameType::StreamFinish,
            0x83 => FrameType::Error,
            0x84 => FrameType::Busy,
            0x85 => FrameType::StreamReport,
            0x86 => FrameType::StreamDone,
            other => return Err(WireError::BadFrameType { ftype: other }),
        })
    }
}

/// A decoding failure. Every variant names what was wrong; none of the
/// decode paths can panic on arbitrary bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually received.
        got: [u8; 4],
    },
    /// The stream's version is not [`VERSION`].
    UnsupportedVersion {
        /// The version actually received.
        got: u16,
    },
    /// A frame's length prefix exceeds the configured ceiling.
    FrameTooLarge {
        /// The advertised payload length.
        len: u32,
        /// The ceiling in force.
        max: u32,
    },
    /// The input ended mid-header or mid-frame.
    Truncated {
        /// Bytes needed to finish the pending item.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame body did not match its checksum.
    CrcMismatch {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received body.
        got: u32,
    },
    /// An unassigned frame-type tag.
    BadFrameType {
        /// The offending tag byte.
        ftype: u8,
    },
    /// An event payload failed to decode.
    BadEvent {
        /// 0-based word index within the payload.
        word: usize,
        /// What was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => {
                write!(f, "bad stream magic {got:02x?} (expected {MAGIC:02x?})")
            }
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {VERSION})"
                )
            }
            WireError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte ceiling"
                )
            }
            WireError::Truncated { need, have } => {
                write!(f, "truncated input: need {need} bytes, have {have}")
            }
            WireError::CrcMismatch { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch: frame says {expected:#010x}, body hashes to {got:#010x}"
                )
            }
            WireError::BadFrameType { ftype } => write!(f, "unknown frame type {ftype:#04x}"),
            WireError::BadEvent { word, reason } => {
                write!(f, "bad event encoding at payload word {word}: {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---- CRC-32 (IEEE 802.3, reflected) --------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups fold in eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) over `bytes` — the per-frame checksum. Slicing-by-8: the
/// same polynomial and values as the bytewise table walk, eight bytes per
/// step.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---- packed event words --------------------------------------------------

const TAG_LOAD: u64 = 0;
const TAG_STORE: u64 = 1;
const TAG_ATOMIC: u64 = 2;
const TAG_FENCE: u64 = 3;
const TAG_BARRIER: u64 = 4;
const TAG_WARP: u64 = 5;
const TAG_KERNEL: u64 = 6;

const STRONG_BIT: u64 = 1 << 4;
const SCOPE_DEV_BIT: u64 = 1 << 7;

fn pack_slots(sm: u8, block_slot: u8, warp_slot: u8) -> u64 {
    (u64::from(sm) << 8) | (u64::from(block_slot) << 16) | (u64::from(warp_slot) << 24)
}

fn scope_bit(scope: Scope) -> u64 {
    match scope {
        Scope::Block => 0,
        Scope::Device => SCOPE_DEV_BIT,
    }
}

/// Packs one event into one or two little-endian words appended to `out`.
fn encode_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    let mut push = |w: u64| out.extend_from_slice(&w.to_le_bytes());
    match *ev {
        TraceEvent::Access(a) => {
            let (tag, bits) = match a.kind {
                AccessKind::Load => (TAG_LOAD, 0),
                AccessKind::Store => (TAG_STORE, 0),
                AccessKind::Atomic { kind, scope } => {
                    let k = match kind {
                        AtomKind::Cas => 0u64,
                        AtomKind::Exch => 1,
                        AtomKind::Other => 2,
                    };
                    (TAG_ATOMIC, (k << 5) | scope_bit(scope))
                }
            };
            let strong = if a.strong { STRONG_BIT } else { 0 };
            push(
                tag | strong
                    | bits
                    | pack_slots(a.who.sm, a.who.block_slot, a.who.warp_slot)
                    | (u64::from(a.pc) << 32),
            );
            push(a.addr);
        }
        TraceEvent::Fence {
            sm,
            warp_slot,
            scope,
        } => {
            push(
                TAG_FENCE | scope_bit(scope) | (u64::from(sm) << 8) | (u64::from(warp_slot) << 24),
            );
        }
        TraceEvent::Barrier { sm, block_slot } => {
            push(TAG_BARRIER | (u64::from(sm) << 8) | (u64::from(block_slot) << 16));
        }
        TraceEvent::WarpAssigned { sm, warp_slot } => {
            push(TAG_WARP | (u64::from(sm) << 8) | (u64::from(warp_slot) << 24));
        }
        TraceEvent::KernelBoundary => push(TAG_KERNEL),
    }
}

/// Encodes a batch of events as an `Events` frame payload.
#[must_use]
pub fn encode_events(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 8);
    encode_events_into(events, &mut out);
    out
}

/// Appends the packed encoding of `events` to `out`, so a caller can build
/// a payload in place (see [`encode_frame_with`]).
pub fn encode_events_into(events: &[TraceEvent], out: &mut Vec<u8>) {
    for ev in events {
        encode_event(ev, out);
    }
}

/// Fields that must be zero for the encoding to be canonical.
fn reserved(word: u64, mask: u64, at: usize) -> Result<(), WireError> {
    if word & mask != 0 {
        return Err(WireError::BadEvent {
            word: at,
            reason: "reserved bits set",
        });
    }
    Ok(())
}

/// Decodes an `Events` frame payload back into events.
///
/// # Errors
///
/// Returns a [`WireError::BadEvent`] naming the offending word for
/// unknown tags, set reserved bits, or an access descriptor missing its
/// address word; the payload length must be a multiple of 8.
pub fn decode_events(payload: &[u8]) -> Result<Vec<TraceEvent>, WireError> {
    if !payload.len().is_multiple_of(8) {
        return Err(WireError::BadEvent {
            word: payload.len() / 8,
            reason: "payload is not a whole number of 64-bit words",
        });
    }
    let mut words = payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .enumerate();
    let mut events = Vec::with_capacity(payload.len() / 8);
    while let Some((i, w)) = words.next() {
        let tag = w & 0xF;
        let sm = ((w >> 8) & 0xFF) as u8;
        let block_slot = ((w >> 16) & 0xFF) as u8;
        let warp_slot = ((w >> 24) & 0xFF) as u8;
        let pc = (w >> 32) as u32;
        let ev = match tag {
            TAG_LOAD | TAG_STORE | TAG_ATOMIC => {
                let kind = match tag {
                    TAG_LOAD | TAG_STORE => {
                        reserved(w, 0b1110_0000, i)?;
                        if tag == TAG_LOAD {
                            AccessKind::Load
                        } else {
                            AccessKind::Store
                        }
                    }
                    _ => {
                        let atom = match (w >> 5) & 0b11 {
                            0 => AtomKind::Cas,
                            1 => AtomKind::Exch,
                            2 => AtomKind::Other,
                            _ => {
                                return Err(WireError::BadEvent {
                                    word: i,
                                    reason: "unassigned atomic kind",
                                })
                            }
                        };
                        let scope = if w & SCOPE_DEV_BIT != 0 {
                            Scope::Device
                        } else {
                            Scope::Block
                        };
                        AccessKind::Atomic { kind: atom, scope }
                    }
                };
                let Some((_, addr)) = words.next() else {
                    return Err(WireError::BadEvent {
                        word: i,
                        reason: "access descriptor missing its address word",
                    });
                };
                TraceEvent::Access(MemAccess {
                    kind,
                    addr,
                    strong: w & STRONG_BIT != 0,
                    pc,
                    who: Accessor {
                        sm,
                        block_slot,
                        warp_slot,
                    },
                })
            }
            TAG_FENCE => {
                reserved(w, 0xFFFF_FFFF_0000_0000 | (0xFF << 16) | 0x70, i)?;
                TraceEvent::Fence {
                    sm,
                    warp_slot,
                    scope: if w & SCOPE_DEV_BIT != 0 {
                        Scope::Device
                    } else {
                        Scope::Block
                    },
                }
            }
            TAG_BARRIER => {
                reserved(w, 0xFFFF_FFFF_0000_0000 | (0xFF << 24) | 0xF0, i)?;
                TraceEvent::Barrier { sm, block_slot }
            }
            TAG_WARP => {
                reserved(w, 0xFFFF_FFFF_0000_0000 | (0xFF << 16) | 0xF0, i)?;
                TraceEvent::WarpAssigned { sm, warp_slot }
            }
            TAG_KERNEL => {
                reserved(w, !0xF, i)?;
                TraceEvent::KernelBoundary
            }
            _ => {
                return Err(WireError::BadEvent {
                    word: i,
                    reason: "unknown event tag",
                })
            }
        };
        events.push(ev);
    }
    Ok(events)
}

// ---- framing -------------------------------------------------------------

/// Appends the 8-byte stream header to `out`.
pub fn encode_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
}

/// Appends one framed payload (length prefix, type byte, payload, CRC) to
/// `out`.
pub fn encode_frame(ftype: FrameType, payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_with(ftype, out, |out| out.extend_from_slice(payload));
}

/// Appends one frame whose payload `fill` appends straight to `out`, so
/// the payload is never staged in a buffer of its own. The length prefix
/// is patched in afterwards and the CRC runs over the type byte and
/// payload where they lie in `out`. `fill` must only append.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn encode_frame_with(ftype: FrameType, out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(ftype.code());
    fill(out);
    let len = u32::try_from(out.len() - start - 5).expect("frame payload fits u32");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's type tag.
    pub ftype: FrameType,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// Encodes `trace` as a complete transport stream: header, `Events` frames of
/// at most `events_per_frame` events, and a `Finish` frame. Returns the
/// individual wire chunks (header first) so callers can corrupt, batch or
/// concatenate them as needed.
///
/// # Panics
///
/// Panics if `events_per_frame` is zero.
#[must_use]
pub fn trace_to_frames(trace: &Trace, events_per_frame: usize) -> Vec<Vec<u8>> {
    assert!(events_per_frame > 0, "events_per_frame must be positive");
    let mut chunks = Vec::new();
    let mut header = Vec::with_capacity(HEADER_BYTES);
    encode_header(&mut header);
    chunks.push(header);
    for batch in trace.events().chunks(events_per_frame) {
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + batch.len() * 16);
        encode_frame_with(FrameType::Events, &mut frame, |out| {
            encode_events_into(batch, out);
        });
        chunks.push(frame);
    }
    let mut fin = Vec::new();
    encode_frame(FrameType::Finish, &[], &mut fin);
    chunks.push(fin);
    chunks
}

/// Incremental frame decoder: feed it bytes as they arrive, pull verified
/// frames out. One assembler handles exactly one stream.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    consumed: usize,
    header_pending: bool,
    max_frame: u32,
}

impl FrameAssembler {
    /// An assembler for a stream that starts with the versioned header
    /// (client → server direction).
    #[must_use]
    pub fn new() -> Self {
        FrameAssembler {
            buf: Vec::new(),
            consumed: 0,
            header_pending: true,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// An assembler for a headerless stream (server → client responses).
    #[must_use]
    pub fn headerless() -> Self {
        FrameAssembler {
            header_pending: false,
            ..FrameAssembler::new()
        }
    }

    /// Overrides the per-frame payload ceiling.
    #[must_use]
    pub fn with_max_frame(mut self, max: u32) -> Self {
        self.max_frame = max;
        self
    }

    /// Appends freshly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so a long-lived connection does not accrete its
        // whole history.
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed > 4096 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    fn avail(&self) -> &[u8] {
        &self.buf[self.consumed..]
    }

    /// Tries to decode the next complete frame. `Ok(None)` means more
    /// bytes are needed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; the caller should treat the stream as
    /// unrecoverable afterwards (framing sync is lost).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if self.header_pending {
            let a = self.avail();
            if a.len() < HEADER_BYTES {
                return Ok(None);
            }
            let got: [u8; 4] = a[..4].try_into().expect("4 bytes");
            if got != MAGIC {
                return Err(WireError::BadMagic { got });
            }
            let version = u16::from_le_bytes(a[4..6].try_into().expect("2 bytes"));
            if version != VERSION {
                return Err(WireError::UnsupportedVersion { got: version });
            }
            self.consumed += HEADER_BYTES;
            self.header_pending = false;
        }
        let a = self.avail();
        if a.len() < 5 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(a[..4].try_into().expect("4 bytes"));
        if len > self.max_frame {
            return Err(WireError::FrameTooLarge {
                len,
                max: self.max_frame,
            });
        }
        let total = 4 + 1 + len as usize + 4;
        if a.len() < total {
            return Ok(None);
        }
        let body = &a[4..4 + 1 + len as usize];
        let expected = u32::from_le_bytes(a[total - 4..total].try_into().expect("4 bytes"));
        let got = crc32(body);
        if got != expected {
            return Err(WireError::CrcMismatch { expected, got });
        }
        let ftype = FrameType::from_code(body[0])?;
        let payload = body[1..].to_vec();
        self.consumed += total;
        Ok(Some(Frame { ftype, payload }))
    }

    /// Declares the stream finished: any buffered partial frame is a
    /// truncation error.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        let pending = self.pending_bytes();
        if pending > 0 || self.header_pending {
            let need = if self.header_pending {
                HEADER_BYTES
            } else {
                let a = self.avail();
                if a.len() >= 4 {
                    let len = u32::from_le_bytes(a[..4].try_into().expect("4 bytes"));
                    4 + 1 + len as usize + 4
                } else {
                    5
                }
            };
            return Err(WireError::Truncated {
                need,
                have: pending,
            });
        }
        Ok(())
    }
}

impl Default for FrameAssembler {
    fn default() -> Self {
        FrameAssembler::new()
    }
}

// ---- transport-level fault injection -------------------------------------

/// Applies the transport [`FaultKind`]s to a sequence of encoded wire
/// chunks — the degradation-audit extension for the wire: frame
/// truncation, bit flips, whole-frame duplication and adjacent-frame
/// reordering, all driven by the same seeded [`FaultInjector`] discipline
/// as the detector-side faults.
#[derive(Debug)]
pub struct FrameCorruptor {
    injector: FaultInjector,
}

impl FrameCorruptor {
    /// Wraps an injector armed with transport fault kinds.
    #[must_use]
    pub fn new(injector: FaultInjector) -> Self {
        FrameCorruptor { injector }
    }

    /// Injection counters so far.
    #[must_use]
    pub fn stats(&self) -> &crate::FaultStats {
        self.injector.stats()
    }

    /// Corrupts `chunks` (each one wire frame or the header) per the plan,
    /// returning the bytes to actually transmit. At most one fault fires
    /// per chunk; truncation is considered first, then bit flip,
    /// duplication and reordering (a swap with the previously emitted
    /// chunk).
    #[must_use]
    pub fn corrupt(&mut self, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let mut c = chunk.clone();
            if self.injector.trigger(FaultKind::FrameTruncate) {
                if !c.is_empty() {
                    let keep = self.injector.pick(c.len());
                    c.truncate(keep);
                }
                out.push(c);
            } else if self.injector.trigger(FaultKind::FrameBitFlip) {
                if !c.is_empty() {
                    let byte = self.injector.pick(c.len());
                    let bit = self.injector.pick(8);
                    c[byte] ^= 1 << bit;
                }
                out.push(c);
            } else if self.injector.trigger(FaultKind::FrameDuplicate) {
                out.push(c.clone());
                out.push(c);
            } else if self.injector.trigger(FaultKind::FrameReorder) {
                let prev = out.pop();
                out.push(c);
                if let Some(p) = prev {
                    out.push(p);
                }
            } else {
                out.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, SplitMix64};
    use crate::FuzzConfig;

    const ALL_TYPES: [FrameType; 8] = [
        FrameType::Events,
        FrameType::Finish,
        FrameType::StreamEvents,
        FrameType::StreamFinish,
        FrameType::Error,
        FrameType::Busy,
        FrameType::StreamReport,
        FrameType::StreamDone,
    ];

    fn sample_trace() -> Trace {
        FuzzConfig::default().generate(0xC0FFEE)
    }

    /// The one-byte-at-a-time table walk slicing-by-8 must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| (rng.next_u32() & 0xFF) as u8).collect()
    }

    #[test]
    fn frame_type_codes_roundtrip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for t in ALL_TYPES {
            assert!(seen.insert(t.code()), "duplicate code for {t:?}");
            assert_eq!(FrameType::from_code(t.code()).expect("assigned"), t);
            // Client→server tags stay below 0x80, server→client at or above.
            match t {
                FrameType::Events
                | FrameType::Finish
                | FrameType::StreamEvents
                | FrameType::StreamFinish => assert!(t.code() < 0x80),
                _ => assert!(t.code() >= 0x80),
            }
        }
        assert!(FrameType::from_code(0x7F).is_err());
        // 0x81/0x82 (the retired one-shot Report/Done) are unassigned.
        assert!(FrameType::from_code(0x81).is_err());
        assert!(FrameType::from_code(0x82).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_by_8_matches_bytewise_reference() {
        let buf = random_bytes(0xC2C, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
        let big = random_bytes(0xB16, 64 * 1024);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn encode_frame_matches_copy_then_crc_bytes() {
        for ftype in ALL_TYPES {
            for len in [0, 1, 7, 8, 9, 100, 4096] {
                let payload = random_bytes(u64::from(ftype.code()) << 16 | len as u64, len);
                // The frame as built before the CRC ran in place: type byte
                // and payload copied into a body, then hashed bytewise.
                let mut body = vec![ftype.code()];
                body.extend_from_slice(&payload);
                let mut expected = (len as u32).to_le_bytes().to_vec();
                expected.extend_from_slice(&body);
                expected.extend_from_slice(&crc32_bytewise(&body).to_le_bytes());

                let mut out = vec![0xAA]; // frames append after existing bytes
                encode_frame(ftype, &payload, &mut out);
                assert_eq!(&out[1..], expected.as_slice(), "{ftype:?}, len {len}");
                let mut with = Vec::new();
                encode_frame_with(ftype, &mut with, |o| o.extend_from_slice(&payload));
                assert_eq!(with, expected, "{ftype:?}, len {len}");
            }
        }
        // `trace_to_frames` builds its `Events` payloads in place.
        let trace = sample_trace();
        let chunks = trace_to_frames(&trace, 50);
        for (chunk, batch) in chunks[1..].iter().zip(trace.events().chunks(50)) {
            let mut frame = Vec::new();
            encode_frame(FrameType::Events, &encode_events(batch), &mut frame);
            assert_eq!(*chunk, frame);
        }
    }

    #[test]
    fn events_roundtrip_packed() {
        let trace = sample_trace();
        let payload = encode_events(trace.events());
        let back = decode_events(&payload).expect("canonical encoding decodes");
        assert_eq!(back.as_slice(), trace.events());
    }

    #[test]
    fn frames_roundtrip_through_assembler() {
        let trace = sample_trace();
        let chunks = trace_to_frames(&trace, 50);
        let mut asm = FrameAssembler::new();
        // Feed byte-by-byte to exercise partial-frame buffering.
        let stream: Vec<u8> = chunks.concat();
        let mut events = Vec::new();
        let mut finished = false;
        for b in stream {
            asm.push(&[b]);
            while let Some(frame) = asm.next_frame().expect("clean stream") {
                match frame.ftype {
                    FrameType::Events => {
                        events.extend(decode_events(&frame.payload).expect("valid events"));
                    }
                    FrameType::Finish => finished = true,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        }
        asm.finish().expect("no partial frame left");
        assert!(finished);
        assert_eq!(events.as_slice(), trace.events());
    }

    #[test]
    fn header_is_checked() {
        let mut asm = FrameAssembler::new();
        asm.push(b"NOPE\x01\x00\x00\x00");
        let err = asm.next_frame().expect_err("bad magic");
        assert!(matches!(err, WireError::BadMagic { .. }));

        let mut asm = FrameAssembler::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&99u16.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        asm.push(&bytes);
        let err = asm.next_frame().expect_err("bad version");
        assert_eq!(err, WireError::UnsupportedVersion { got: 99 });
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut asm = FrameAssembler::headerless().with_max_frame(1024);
        asm.push(&u32::MAX.to_le_bytes());
        asm.push(&[0x01]);
        let err = asm.next_frame().expect_err("giant frame");
        assert_eq!(
            err,
            WireError::FrameTooLarge {
                len: u32::MAX,
                max: 1024
            }
        );
    }

    #[test]
    fn flipped_payload_bit_fails_the_crc() {
        let mut frame = Vec::new();
        encode_frame(
            FrameType::Events,
            &encode_events(sample_trace().events()),
            &mut frame,
        );
        frame[20] ^= 0x10; // somewhere in the payload
        let mut asm = FrameAssembler::headerless();
        asm.push(&frame);
        let err = asm.next_frame().expect_err("corrupt frame");
        assert!(matches!(err, WireError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn unknown_frame_type_is_typed() {
        // Hand-build a frame with an unassigned type but a valid CRC.
        let mut frame = Vec::new();
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.push(0x7F);
        frame.extend_from_slice(&crc32(&[0x7F]).to_le_bytes());
        let mut asm = FrameAssembler::headerless();
        asm.push(&frame);
        let err = asm.next_frame().expect_err("unknown type");
        assert_eq!(err, WireError::BadFrameType { ftype: 0x7F });
    }

    #[test]
    fn bad_event_payloads_are_typed() {
        // Unknown tag.
        let word = 0xFu64.to_le_bytes();
        let err = decode_events(&word).expect_err("unknown tag");
        assert!(matches!(err, WireError::BadEvent { word: 0, .. }));
        // Reserved bits set on a kernel boundary.
        let word = (TAG_KERNEL | (1 << 60)).to_le_bytes();
        assert!(decode_events(&word).is_err());
        // Access descriptor without its address word.
        let word = TAG_STORE.to_le_bytes();
        let err = decode_events(&word).expect_err("missing address");
        assert!(matches!(
            err,
            WireError::BadEvent {
                reason: "access descriptor missing its address word",
                ..
            }
        ));
        // Ragged payload.
        assert!(decode_events(&[1, 2, 3]).is_err());
    }

    #[test]
    fn truncated_stream_is_reported_on_finish() {
        let trace = sample_trace();
        let stream: Vec<u8> = trace_to_frames(&trace, 64).concat();
        let mut asm = FrameAssembler::new();
        asm.push(&stream[..stream.len() - 3]);
        while let Ok(Some(_)) = asm.next_frame() {}
        let err = asm.finish().expect_err("3 bytes missing");
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn corruptor_truncation_and_bitflips_are_caught() {
        let trace = sample_trace();
        let chunks = trace_to_frames(&trace, 8);
        for kind in [FaultKind::FrameTruncate, FaultKind::FrameBitFlip] {
            let plan = FaultPlan::single(kind, 400_000, 0xFA11);
            let mut corr = FrameCorruptor::new(FaultInjector::new(plan));
            let sent = corr.corrupt(&chunks);
            assert!(
                corr.stats().count(kind) > 0,
                "40% over ~30 frames must fire on {kind}"
            );
            let mut asm = FrameAssembler::new();
            let mut failed = false;
            'outer: for c in &sent {
                asm.push(c);
                loop {
                    match asm.next_frame() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => {
                            failed = true;
                            break 'outer;
                        }
                    }
                }
            }
            let failed = failed || asm.finish().is_err();
            assert!(failed, "{kind} at 30% must break framing or truncate");
        }
    }

    #[test]
    fn corruptor_duplicate_and_reorder_keep_frames_valid() {
        let trace = sample_trace();
        let chunks = trace_to_frames(&trace, 16);
        // Skip the header chunk: duplicating or reordering the stream
        // header is a connection-setup corruption, which the header check
        // covers separately; here we care about frame-level validity.
        let frames = &chunks[1..];
        for kind in [FaultKind::FrameDuplicate, FaultKind::FrameReorder] {
            let plan = FaultPlan::single(kind, 400_000, 0xD0D0);
            let mut corr = FrameCorruptor::new(FaultInjector::new(plan));
            let sent = corr.corrupt(frames);
            assert!(corr.stats().count(kind) > 0);
            let mut asm = FrameAssembler::headerless();
            let mut n = 0;
            for c in &sent {
                asm.push(c);
                while let Some(f) = asm.next_frame().expect("dup/reorder keep CRCs valid") {
                    let _ = f;
                    n += 1;
                }
            }
            asm.finish().expect("whole frames only");
            match kind {
                FaultKind::FrameDuplicate => assert!(n > frames.len()),
                _ => assert_eq!(n, sent.len()),
            }
        }
    }

    #[test]
    fn corruptor_is_deterministic_in_its_seed() {
        let chunks = trace_to_frames(&sample_trace(), 8);
        let plan = FaultPlan::new(
            7,
            200_000,
            crate::FaultKindSet::empty()
                .with(FaultKind::FrameTruncate)
                .with(FaultKind::FrameBitFlip)
                .with(FaultKind::FrameDuplicate)
                .with(FaultKind::FrameReorder),
        );
        let a = FrameCorruptor::new(FaultInjector::new(plan)).corrupt(&chunks);
        let b = FrameCorruptor::new(FaultInjector::new(plan)).corrupt(&chunks);
        assert_eq!(a, b);
    }

    #[test]
    fn random_garbage_never_panics_the_assembler() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..200 {
            let n = (rng.below(400) + 1) as usize;
            let bytes: Vec<u8> = (0..n).map(|_| (rng.next_u32() & 0xFF) as u8).collect();
            let mut asm = FrameAssembler::headerless().with_max_frame(4096);
            asm.push(&bytes);
            // Either frames come out, more input is needed, or a typed
            // error — drive to quiescence without panicking.
            while let Ok(Some(_)) = asm.next_frame() {}
        }
    }
}
