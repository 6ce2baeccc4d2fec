//! Service payloads: the session protocol.
//!
//! `scord_core::wire` defines framing and the packed event encoding; this
//! module defines the service's payloads, each scoped to a `u32` stream
//! id so one connection can multiplex many traces: `StreamEvents` and
//! `StreamFinish` inbound, `StreamReport` (an incremental [`Report`]) and
//! `StreamDone` (the final [`Done`] summary) outbound, plus typed
//! [`ErrorInfo`] responses and the empty `Busy` payload. Kept in
//! `scord-serve` because only the service and its clients speak these
//! payloads — the core codec stays a pure trace transport.
//!
//! ## Session protocol rules
//!
//! Every connection is a session; the service speaks no other dialect. A
//! one-shot trace is stream 0 followed by `Finish`. The core `Events`
//! frame is transport framing (`wire::trace_to_frames`, the fault audit),
//! not service input: the server quarantines it like any other frame it
//! does not take. Within a session:
//!
//! - a stream is opened by the first `StreamEvents`/`StreamFinish` naming
//!   its id, and ids must be **strictly increasing** in order of opening
//!   (so a finished id can never be silently resurrected);
//! - events for open streams may interleave arbitrarily;
//! - `StreamFinish` closes one stream and draws its `StreamDone`; the
//!   connection persists;
//! - a connection-level `Finish` ends the session: any still-open streams
//!   are finalized (each drawing a `StreamDone`), then the server closes.
//!   Ending a session with `Finish` is what makes the close *clean* — an
//!   EOF without it is counted as a mid-stream disconnect.

use scord_core::{wire, RaceKind, TraceEvent, WireError};

/// Typed protocol error codes carried in `Error` frames. Every way a
/// connection can be quarantined has a distinct code, so clients (and the
/// adversarial suite) can assert on the *reason*, not just the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The stream violated the wire format (bad magic/version/CRC/frame).
    Malformed,
    /// An event payload decoded but named an impossible event (reserved
    /// bits, unknown tag) or the detector rejected it (e.g. SM out of
    /// range for the service's geometry).
    BadEvent,
    /// The connection made no progress within its deadline and was reaped.
    DeadlineExceeded,
    /// The client disconnected mid-frame (truncated stream).
    Truncated,
}

impl ErrorCode {
    /// The on-wire code.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::BadEvent => 2,
            ErrorCode::DeadlineExceeded => 3,
            ErrorCode::Truncated => 4,
        }
    }

    /// Decodes an on-wire code.
    #[must_use]
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::BadEvent,
            3 => ErrorCode::DeadlineExceeded,
            4 => ErrorCode::Truncated,
            _ => return None,
        })
    }

    /// Stable short name for logs and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::BadEvent => "bad-event",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Truncated => "truncated",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An incremental race report, carried in a `StreamReport`: counters only
/// (the full unique list rides in the final [`Done`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Unique `(pc, kind)` races so far.
    pub unique: u32,
    /// Total race records so far.
    pub total: u64,
}

/// The final (or drain-time partial) summary for a stream, carried in a
/// `StreamDone`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Done {
    /// `true` when the server drained before the client finished; the
    /// report covers only the events ingested so far.
    pub partial: bool,
    /// Total race records.
    pub total: u64,
    /// Every unique `(pc, kind)` race.
    pub races: Vec<(u32, RaceKind)>,
}

/// A decoded `Error` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorInfo {
    /// The typed reason, when this build knows the code.
    pub code: Option<ErrorCode>,
    /// The raw on-wire code (kept so skew between builds stays debuggable).
    pub raw_code: u16,
    /// Human-readable detail.
    pub message: String,
}

fn kind_code(kind: RaceKind) -> u8 {
    RaceKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("RaceKind::ALL is exhaustive") as u8
}

fn kind_from_code(code: u8) -> Result<RaceKind, WireError> {
    RaceKind::ALL
        .get(code as usize)
        .copied()
        .ok_or(WireError::BadEvent {
            word: 0,
            reason: "unassigned race-kind code",
        })
}

fn need(payload: &[u8], n: usize) -> Result<(), WireError> {
    if payload.len() < n {
        return Err(WireError::Truncated {
            need: n,
            have: payload.len(),
        });
    }
    Ok(())
}

fn u32_at(payload: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(payload[at..at + 4].try_into().expect("bounds checked"))
}

fn u64_at(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().expect("bounds checked"))
}

/// Encodes a [`Report`] payload.
#[must_use]
pub fn encode_report(r: &Report) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&r.unique.to_le_bytes());
    out.extend_from_slice(&r.total.to_le_bytes());
    out
}

/// Decodes a [`Report`] payload.
///
/// # Errors
///
/// [`WireError::Truncated`] on a short payload.
pub fn decode_report(payload: &[u8]) -> Result<Report, WireError> {
    need(payload, 12)?;
    Ok(Report {
        unique: u32_at(payload, 0),
        total: u64_at(payload, 4),
    })
}

/// Encodes a [`Done`] payload.
#[must_use]
pub fn encode_done(d: &Done) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + d.races.len() * 5);
    out.push(u8::from(d.partial));
    out.extend_from_slice(&d.total.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(d.races.len())
            .expect("unique race count fits u32")
            .to_le_bytes(),
    );
    for &(pc, kind) in &d.races {
        out.extend_from_slice(&pc.to_le_bytes());
        out.push(kind_code(kind));
    }
    out
}

/// Decodes a [`Done`] payload.
///
/// # Errors
///
/// [`WireError::Truncated`] on a short payload, [`WireError::BadEvent`]
/// for an unassigned race-kind code or a non-boolean partial flag.
pub fn decode_done(payload: &[u8]) -> Result<Done, WireError> {
    need(payload, 13)?;
    if payload[0] > 1 {
        return Err(WireError::BadEvent {
            word: 0,
            reason: "partial flag is not 0 or 1",
        });
    }
    let total = u64_at(payload, 1);
    let n = u32_at(payload, 9) as usize;
    need(payload, 13 + n * 5)?;
    let mut races = Vec::with_capacity(n);
    for i in 0..n {
        let at = 13 + i * 5;
        races.push((u32_at(payload, at), kind_from_code(payload[at + 4])?));
    }
    Ok(Done {
        partial: payload[0] == 1,
        total,
        races,
    })
}

// ---- session payloads ----------------------------------------------------

/// Encodes a `StreamEvents` payload: the stream id followed by the packed
/// event words.
#[must_use]
pub fn encode_stream_events(stream: u32, events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + events.len() * 8);
    encode_stream_events_into(stream, events, &mut out);
    out
}

/// Appends a `StreamEvents` payload to `out` (for building a frame in
/// place with `wire::encode_frame_with`).
pub fn encode_stream_events_into(stream: u32, events: &[TraceEvent], out: &mut Vec<u8>) {
    out.extend_from_slice(&stream.to_le_bytes());
    wire::encode_events_into(events, out);
}

/// Splits a stream-scoped payload into its id and the remainder.
///
/// # Errors
///
/// [`WireError::Truncated`] when even the id is missing.
pub fn split_stream_payload(payload: &[u8]) -> Result<(u32, &[u8]), WireError> {
    need(payload, 4)?;
    Ok((u32_at(payload, 0), &payload[4..]))
}

/// Encodes a `StreamFinish` payload.
#[must_use]
pub fn encode_stream_finish(stream: u32) -> Vec<u8> {
    stream.to_le_bytes().to_vec()
}

/// Decodes a `StreamFinish` payload.
///
/// # Errors
///
/// [`WireError::Truncated`] on a short payload, [`WireError::BadEvent`] on
/// trailing bytes (the payload is exactly the id).
pub fn decode_stream_finish(payload: &[u8]) -> Result<u32, WireError> {
    need(payload, 4)?;
    if payload.len() > 4 {
        return Err(WireError::BadEvent {
            word: 0,
            reason: "StreamFinish payload is larger than its stream id",
        });
    }
    Ok(u32_at(payload, 0))
}

/// Encodes a `StreamReport` payload.
#[must_use]
pub fn encode_stream_report(stream: u32, r: &Report) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(&encode_report(r));
    out
}

/// Decodes a `StreamReport` payload.
///
/// # Errors
///
/// [`WireError::Truncated`] on a short payload.
pub fn decode_stream_report(payload: &[u8]) -> Result<(u32, Report), WireError> {
    let (stream, rest) = split_stream_payload(payload)?;
    Ok((stream, decode_report(rest)?))
}

/// Encodes a `StreamDone` payload.
#[must_use]
pub fn encode_stream_done(stream: u32, d: &Done) -> Vec<u8> {
    let mut out = Vec::with_capacity(17 + d.races.len() * 5);
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(&encode_done(d));
    out
}

/// Decodes a `StreamDone` payload.
///
/// # Errors
///
/// See [`decode_done`]; additionally [`WireError::Truncated`] when the id
/// is missing.
pub fn decode_stream_done(payload: &[u8]) -> Result<(u32, Done), WireError> {
    let (stream, rest) = split_stream_payload(payload)?;
    Ok((stream, decode_done(rest)?))
}

/// Encodes an `Error` payload.
#[must_use]
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&code.code().to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes an `Error` payload.
///
/// # Errors
///
/// [`WireError::Truncated`] when even the code is missing.
pub fn decode_error(payload: &[u8]) -> Result<ErrorInfo, WireError> {
    need(payload, 2)?;
    let raw = u16::from_le_bytes(payload[..2].try_into().expect("bounds checked"));
    Ok(ErrorInfo {
        code: ErrorCode::from_code(raw),
        raw_code: raw,
        message: String::from_utf8_lossy(&payload[2..]).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip() {
        let r = Report {
            unique: 17,
            total: 123_456_789_000,
        };
        assert_eq!(decode_report(&encode_report(&r)).expect("roundtrip"), r);
        assert!(decode_report(&[1, 2, 3]).is_err());
    }

    #[test]
    fn done_roundtrip_with_every_race_kind() {
        let d = Done {
            partial: true,
            total: 42,
            races: RaceKind::ALL
                .iter()
                .enumerate()
                .map(|(i, k)| (i as u32 * 10, *k))
                .collect(),
        };
        assert_eq!(decode_done(&encode_done(&d)).expect("roundtrip"), d);
    }

    #[test]
    fn done_rejects_bad_payloads() {
        let mut good = encode_done(&Done {
            partial: false,
            total: 1,
            races: vec![(5, RaceKind::NotStrong)],
        });
        good[0] = 2; // bad partial flag
        assert!(decode_done(&good).is_err());
        let mut bad_kind = encode_done(&Done {
            partial: false,
            total: 1,
            races: vec![(5, RaceKind::NotStrong)],
        });
        *bad_kind.last_mut().expect("non-empty") = 99;
        assert!(decode_done(&bad_kind).is_err());
        // Advertised count larger than the payload.
        let mut short = encode_done(&Done {
            partial: false,
            total: 1,
            races: vec![],
        });
        short[9] = 200;
        assert!(matches!(
            decode_done(&short),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn error_roundtrip_and_unknown_codes() {
        let e = decode_error(&encode_error(
            ErrorCode::DeadlineExceeded,
            "no progress in 2s",
        ))
        .expect("roundtrip");
        assert_eq!(e.code, Some(ErrorCode::DeadlineExceeded));
        assert_eq!(e.message, "no progress in 2s");
        let unknown = decode_error(&[0xFF, 0x7F]).expect("unknown code still decodes");
        assert_eq!(unknown.code, None);
        assert_eq!(unknown.raw_code, 0x7FFF);
        assert!(decode_error(&[1]).is_err());
    }

    #[test]
    fn stream_payloads_roundtrip() {
        let events = vec![TraceEvent::KernelBoundary, TraceEvent::KernelBoundary];
        let payload = encode_stream_events(7, &events);
        let (stream, rest) = split_stream_payload(&payload).expect("split");
        assert_eq!(stream, 7);
        assert_eq!(wire::decode_events(rest).expect("events"), events);

        assert_eq!(
            decode_stream_finish(&encode_stream_finish(u32::MAX)).expect("finish"),
            u32::MAX
        );
        let r = Report {
            unique: 3,
            total: 99,
        };
        assert_eq!(
            decode_stream_report(&encode_stream_report(11, &r)).expect("report"),
            (11, r)
        );
        let d = Done {
            partial: false,
            total: 5,
            races: vec![(0xBEEF, RaceKind::NotStrong)],
        };
        assert_eq!(
            decode_stream_done(&encode_stream_done(12, &d)).expect("done"),
            (12, d)
        );
    }

    #[test]
    fn stream_payloads_reject_malformed() {
        assert!(matches!(
            split_stream_payload(&[1, 2, 3]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing junk after a StreamFinish id is a protocol violation,
        // not ignorable padding.
        assert!(decode_stream_finish(&[1, 0, 0, 0, 9]).is_err());
        // A stream report that is only an id has no Report inside.
        assert!(matches!(
            decode_stream_report(&4u32.to_le_bytes()),
            Err(WireError::Truncated { .. })
        ));
        assert!(decode_stream_done(&4u32.to_le_bytes()).is_err());
    }

    #[test]
    fn error_codes_roundtrip_and_are_unique() {
        let all = [
            ErrorCode::Malformed,
            ErrorCode::BadEvent,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Truncated,
        ];
        let mut seen = std::collections::HashSet::new();
        for c in all {
            assert!(seen.insert(c.code()));
            assert_eq!(ErrorCode::from_code(c.code()), Some(c));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        // Code 5 (a retired drain error; drain answers with partial
        // `StreamDone`s) decodes as an unknown code.
        let retired = decode_error(&[5, 0]).expect("unknown code still decodes");
        assert_eq!((retired.code, retired.raw_code), (None, 5));
    }
}
