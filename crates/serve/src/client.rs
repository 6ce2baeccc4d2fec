//! Client side of the race-detection service.
//!
//! [`Client`] speaks the session protocol of [`crate::proto`] over the
//! `scord_core::wire` framing. It is deliberately low-level (send stream
//! events, send raw bytes, read an outcome) so the adversarial suite can
//! drive half-open, malformed and slow streams with the same type the
//! load generator uses for healthy ones. One-shot detection
//! ([`detect_remote`]) is a one-stream session: the trace travels as
//! stream 0 and a `Finish` ends the session.

use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use scord_core::wire::{self, FrameAssembler, FrameType, WireError};
use scord_core::{Trace, TraceEvent};

use crate::proto::{self, Done, ErrorInfo, Report};

/// How the server ended a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The stream's `StreamDone`: detected to completion (or flushed
    /// partially on drain — check [`Done::partial`]).
    Done(Done),
    /// The server is over its overload watermark; retry later.
    Busy,
    /// The server quarantined the connection with a typed error.
    ServerError(ErrorInfo),
}

/// A client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket I/O failed (kind + rendered message; `std::io::Error` is
    /// kept out so the error stays `Clone + Eq` for test assertions).
    Io(std::io::ErrorKind, String),
    /// The server's response stream violated the wire format.
    Wire(WireError),
    /// The server closed the connection without a final frame.
    ConnectionClosed,
    /// The server sent a frame type that makes no sense client-side.
    UnexpectedFrame(FrameType),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(kind, msg) => write!(f, "socket error ({kind:?}): {msg}"),
            ClientError::Wire(err) => write!(f, "response stream violated the wire format: {err}"),
            ClientError::ConnectionClosed => {
                f.write_str("server closed the connection without a final frame")
            }
            ClientError::UnexpectedFrame(t) => write!(f, "unexpected frame from server: {t:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.kind(), e.to_string())
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// How a persistent session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEnd {
    /// The server closed cleanly after sending a `StreamDone` for every
    /// stream still open, listed here in stream-id order.
    Closed(Vec<(u32, Done)>),
    /// The server is over its overload watermark; retry later.
    Busy,
    /// The server quarantined the connection with a typed error.
    ServerError(ErrorInfo),
}

/// What one session frame from the server meant (internal).
enum SessionFrame {
    /// A `StreamDone` for the given stream id.
    Done(u32, Done),
    /// The session is over (`Error` or `Busy`).
    Terminal(Outcome),
    /// A report was recorded; keep reading.
    Progress,
}

/// A connection to the service. The stream header is sent on connect.
///
/// One `Client` drives a persistent *session* carrying any number of
/// traces over one connection
/// ([`send_stream_events`](Self::send_stream_events) …
/// [`finish_stream`](Self::finish_stream) …
/// [`end_session`](Self::end_session)).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    asm: FrameAssembler,
    stream_reports: HashMap<u32, Vec<Report>>,
    pending_dones: HashMap<u32, Done>,
}

impl Client {
    /// Connects and sends the versioned stream header.
    ///
    /// # Errors
    ///
    /// Any socket error from connect or the header write.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            stream,
            asm: FrameAssembler::headerless(),
            stream_reports: HashMap::new(),
            pending_dones: HashMap::new(),
        };
        let mut header = Vec::with_capacity(wire::HEADER_BYTES);
        wire::encode_header(&mut header);
        client.stream.write_all(&header)?;
        Ok(client)
    }

    /// Bounds how long each response read waits (so a wedged server fails
    /// a test instead of hanging it).
    ///
    /// # Errors
    ///
    /// Any socket error from setting the timeout.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), ClientError> {
        self.stream.set_read_timeout(Some(timeout))?;
        Ok(())
    }

    /// Sends raw bytes — the adversarial hook for malformed streams.
    ///
    /// # Errors
    ///
    /// Any socket error from the write.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Reads responses until the next `StreamDone` (of any stream),
    /// `Error` or `Busy` without sending anything — used after
    /// raw/adversarial writes. Incremental reports remain available via
    /// [`stream_reports`](Self::stream_reports).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn read_outcome(&mut self) -> Result<Outcome, ClientError> {
        self.read_until(None)
    }

    // -- persistent sessions -----------------------------------------------

    /// Sends one `StreamEvents` frame for stream `stream`. Stream ids
    /// must be opened in strictly increasing order (interleaving frames
    /// of already-open streams is fine).
    ///
    /// # Errors
    ///
    /// Any socket error from the write.
    pub fn send_stream_events(
        &mut self,
        stream: u32,
        events: &[TraceEvent],
    ) -> Result<(), ClientError> {
        let mut frame = Vec::new();
        wire::encode_frame(
            FrameType::StreamEvents,
            &proto::encode_stream_events(stream, events),
            &mut frame,
        );
        self.stream.write_all(&frame)?;
        Ok(())
    }

    /// Sends a whole trace on stream `stream` as `StreamEvents` frames
    /// of `events_per_frame`.
    ///
    /// # Errors
    ///
    /// Any socket error from the writes.
    pub fn send_stream_trace(
        &mut self,
        stream: u32,
        trace: &Trace,
        events_per_frame: usize,
    ) -> Result<(), ClientError> {
        for batch in trace.events().chunks(events_per_frame.max(1)) {
            self.send_stream_events(stream, batch)?;
        }
        Ok(())
    }

    /// Incremental reports received so far for one session stream.
    #[must_use]
    pub fn stream_reports(&self, stream: u32) -> &[Report] {
        self.stream_reports.get(&stream).map_or(&[], Vec::as_slice)
    }

    /// Sends `StreamFinish` for `stream` and reads until that stream's
    /// `StreamDone` (or a session-terminal `Error`/`Busy`). `StreamDone`s
    /// for *other* streams that arrive first are buffered and returned by
    /// their own `finish_stream` call, so interleaved streams can finish
    /// in any order. The connection stays open for further streams.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn finish_stream(&mut self, stream: u32) -> Result<Outcome, ClientError> {
        let mut frame = Vec::new();
        wire::encode_frame(
            FrameType::StreamFinish,
            &proto::encode_stream_finish(stream),
            &mut frame,
        );
        self.stream.write_all(&frame)?;
        if let Some(done) = self.pending_dones.remove(&stream) {
            return Ok(Outcome::Done(done));
        }
        self.read_until(Some(stream))
    }

    /// Reads until the `StreamDone` of `want` (any stream when `None`) or
    /// a session-terminal `Error`/`Busy`, buffering other streams'
    /// `StreamDone`s for their own [`finish_stream`](Self::finish_stream).
    fn read_until(&mut self, want: Option<u32>) -> Result<Outcome, ClientError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            while let Some(frame) = self.asm.next_frame()? {
                match Self::classify_session_frame(&mut self.stream_reports, frame)? {
                    SessionFrame::Done(id, done) => {
                        if want.is_none_or(|w| w == id) {
                            return Ok(Outcome::Done(done));
                        }
                        self.pending_dones.insert(id, done);
                    }
                    SessionFrame::Terminal(outcome) => return Ok(outcome),
                    SessionFrame::Progress => {}
                }
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ClientError::ConnectionClosed);
            }
            self.asm.push(&buf[..n]);
        }
    }

    /// Ends the session: sends a connection-level `Finish` and reads until
    /// the server closes. Streams still open are finalized server-side;
    /// their `Done`s (plus any already buffered) are returned in
    /// stream-id order.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]. EOF after `Finish` is the *normal* clean end,
    /// not an error.
    pub fn end_session(&mut self) -> Result<SessionEnd, ClientError> {
        let mut frame = Vec::new();
        wire::encode_frame(FrameType::Finish, &[], &mut frame);
        self.stream.write_all(&frame)?;
        let mut dones: Vec<(u32, Done)> = self.pending_dones.drain().collect();
        let mut buf = [0u8; 16 * 1024];
        'read: loop {
            while let Some(frame) = self.asm.next_frame()? {
                match Self::classify_session_frame(&mut self.stream_reports, frame)? {
                    SessionFrame::Done(id, done) => dones.push((id, done)),
                    SessionFrame::Terminal(Outcome::Busy) => return Ok(SessionEnd::Busy),
                    SessionFrame::Terminal(Outcome::ServerError(info)) => {
                        return Ok(SessionEnd::ServerError(info));
                    }
                    SessionFrame::Terminal(Outcome::Done(_)) | SessionFrame::Progress => {}
                }
            }
            match self.stream.read(&mut buf) {
                Ok(0) => break 'read,
                Ok(n) => self.asm.push(&buf[..n]),
                Err(e) => return Err(e.into()),
            }
        }
        dones.sort_by_key(|(id, _)| *id);
        Ok(SessionEnd::Closed(dones))
    }

    /// Decodes one server→client session frame, recording reports.
    fn classify_session_frame(
        stream_reports: &mut HashMap<u32, Vec<Report>>,
        frame: wire::Frame,
    ) -> Result<SessionFrame, ClientError> {
        match frame.ftype {
            FrameType::StreamReport => {
                let (id, report) = proto::decode_stream_report(&frame.payload)?;
                stream_reports.entry(id).or_default().push(report);
                Ok(SessionFrame::Progress)
            }
            FrameType::StreamDone => {
                let (id, done) = proto::decode_stream_done(&frame.payload)?;
                Ok(SessionFrame::Done(id, done))
            }
            FrameType::Error => Ok(SessionFrame::Terminal(Outcome::ServerError(
                proto::decode_error(&frame.payload)?,
            ))),
            FrameType::Busy => Ok(SessionFrame::Terminal(Outcome::Busy)),
            other => Err(ClientError::UnexpectedFrame(other)),
        }
    }
}

/// Convenience: stream `trace` to `addr` as a one-stream session and
/// return the outcome. The trace travels as stream 0 and a `Finish` ends
/// the session, so the whole exchange is one round trip.
///
/// # Errors
///
/// See [`ClientError`]; [`ClientError::ConnectionClosed`] if the server
/// closes without answering for stream 0.
pub fn detect_remote<A: ToSocketAddrs>(
    addr: A,
    trace: &Trace,
    events_per_frame: usize,
) -> Result<Outcome, ClientError> {
    let mut client = Client::connect(addr)?;
    client.set_read_timeout(Duration::from_secs(30))?;
    if trace.is_empty() {
        // Open stream 0 anyway, so `Finish` answers for it.
        client.send_stream_events(0, &[])?;
    }
    client.send_stream_trace(0, trace, events_per_frame)?;
    match client.end_session()? {
        SessionEnd::Closed(dones) => dones
            .into_iter()
            .find_map(|(id, done)| (id == 0).then_some(Outcome::Done(done)))
            .ok_or(ClientError::ConnectionClosed),
        SessionEnd::Busy => Ok(Outcome::Busy),
        SessionEnd::ServerError(info) => Ok(Outcome::ServerError(info)),
    }
}

/// Convenience: stream every trace over **one** persistent session
/// (stream id = index) and return each trace's outcome in order. Stops
/// early on a session-terminal `Busy`/`Error`, returning what resolved
/// so far plus that terminal outcome.
///
/// # Errors
///
/// See [`ClientError`].
pub fn detect_session<A: ToSocketAddrs>(
    addr: A,
    traces: &[Trace],
    events_per_frame: usize,
) -> Result<Vec<Outcome>, ClientError> {
    let mut client = Client::connect(addr)?;
    client.set_read_timeout(Duration::from_secs(30))?;
    let mut outcomes = Vec::with_capacity(traces.len());
    for (i, trace) in traces.iter().enumerate() {
        let id = u32::try_from(i).unwrap_or(u32::MAX);
        client.send_stream_trace(id, trace, events_per_frame)?;
        let outcome = client.finish_stream(id)?;
        let terminal = !matches!(outcome, Outcome::Done(_));
        outcomes.push(outcome);
        if terminal {
            return Ok(outcomes);
        }
    }
    client.end_session()?;
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_error_display_is_informative() {
        let e = ClientError::Io(std::io::ErrorKind::BrokenPipe, "pipe".into());
        assert!(e.to_string().contains("BrokenPipe"));
        assert!(ClientError::ConnectionClosed
            .to_string()
            .contains("final frame"));
        let w: ClientError = WireError::BadFrameType { ftype: 9 }.into();
        assert!(w.to_string().contains("wire format"));
    }
}
