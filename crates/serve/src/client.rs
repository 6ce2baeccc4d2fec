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
///
/// Incremental reports are kept for the streams still open and for the
/// stream whose `StreamDone` was returned last, so a session's memory
/// stays flat however many streams it carries.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    asm: FrameAssembler,
    stream_reports: HashMap<u32, Vec<Report>>,
    pending_dones: HashMap<u32, Done>,
    /// The stream whose `StreamDone` was returned last.
    last_done: Option<u32>,
    /// Reused encode buffer for outgoing frames.
    out: Vec<u8>,
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
            last_done: None,
            out: Vec::new(),
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
        self.send_stream_batches(stream, std::iter::once(events))
    }

    /// Sends a whole trace on stream `stream` as `StreamEvents` frames
    /// of `events_per_frame`, encoded into one buffer and sent with one
    /// write.
    ///
    /// # Errors
    ///
    /// Any socket error from the write.
    pub fn send_stream_trace(
        &mut self,
        stream: u32,
        trace: &Trace,
        events_per_frame: usize,
    ) -> Result<(), ClientError> {
        self.send_stream_batches(stream, trace.events().chunks(events_per_frame.max(1)))
    }

    /// Sends one frame, encoded into the reused buffer.
    fn send_frame(&mut self, ftype: FrameType, payload: &[u8]) -> Result<(), ClientError> {
        self.out.clear();
        wire::encode_frame(ftype, payload, &mut self.out);
        self.stream.write_all(&self.out)?;
        Ok(())
    }

    /// Encodes one `StreamEvents` frame per batch into the reused buffer,
    /// then writes them all at once.
    fn send_stream_batches<'a>(
        &mut self,
        stream: u32,
        batches: impl Iterator<Item = &'a [TraceEvent]>,
    ) -> Result<(), ClientError> {
        self.out.clear();
        for batch in batches {
            wire::encode_frame_with(FrameType::StreamEvents, &mut self.out, |out| {
                proto::encode_stream_events_into(stream, batch, out);
            });
        }
        self.stream.write_all(&self.out)?;
        Ok(())
    }

    /// Incremental reports received so far for one session stream: an
    /// open stream, or the stream whose `StreamDone` was returned last
    /// (empty for streams finished before that).
    #[must_use]
    pub fn stream_reports(&self, stream: u32) -> &[Report] {
        self.stream_reports.get(&stream).map_or(&[], Vec::as_slice)
    }

    /// `stream`'s `StreamDone` is being returned: keep its reports for
    /// [`stream_reports`](Self::stream_reports) and drop those of the
    /// stream returned before it.
    fn returned(&mut self, stream: u32, done: Done) -> Outcome {
        if let Some(prev) = self.last_done.replace(stream) {
            if prev != stream {
                self.stream_reports.remove(&prev);
            }
        }
        Outcome::Done(done)
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
        self.send_frame(
            FrameType::StreamFinish,
            &proto::encode_stream_finish(stream),
        )?;
        if let Some(done) = self.pending_dones.remove(&stream) {
            return Ok(self.returned(stream, done));
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
                            return Ok(self.returned(id, done));
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
        self.send_frame(FrameType::Finish, &[])?;
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
    use crate::{ServeConfig, Server};
    use scord_core::FuzzConfig;

    #[test]
    fn reports_are_kept_for_open_streams_and_the_last_done_only() {
        let server = Server::start(ServeConfig {
            shards: 1,
            detector_mem_bytes: 1 << 20,
            ..ServeConfig::default()
        })
        .expect("bind");
        let racey = FuzzConfig {
            events: 200,
            ..FuzzConfig::default()
        }
        .generate(3);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .set_read_timeout(Duration::from_secs(30))
            .expect("timeout");

        // Stream 0 stays open across the whole run: its reports must
        // survive every other stream's Done.
        client.send_stream_trace(0, &racey, 32).expect("send 0");
        for stream in 1..=1000 {
            client.send_stream_trace(stream, &racey, 32).expect("send");
            let Outcome::Done(done) = client.finish_stream(stream).expect("finish") else {
                panic!("stream {stream} did not complete");
            };
            assert!(!done.races.is_empty(), "the trace must be racey");
            assert!(
                !client.stream_reports(stream).is_empty(),
                "stream {stream}'s reports are readable right after its Done"
            );
            let finished = client.stream_reports.keys().filter(|&&id| id != 0).count();
            assert!(finished <= 1, "{finished} finished streams' reports kept");
        }
        assert!(
            client.stream_reports(999).is_empty(),
            "dropped at 1000's Done"
        );
        assert!(matches!(client.finish_stream(0), Ok(Outcome::Done(_))));
        assert!(
            !client.stream_reports(0).is_empty(),
            "open stream's reports kept"
        );
        assert_eq!(client.stream_reports.len(), 1);
        client.end_session().expect("clean end");
        server.shutdown();
    }

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
