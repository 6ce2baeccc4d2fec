//! Integration suite for the persistent session protocol: many traces
//! per connection, stream-scoped frames, out-of-order finishes, and the
//! quarantine boundary (one poisoned session never touches a healthy
//! parallel one). Companion to `tests/adversarial.rs`, which pins the
//! transport-robustness envelope the sessions inherit.

use std::time::{Duration, Instant};

use scord_core::wire::{self, FrameType};
use scord_core::{Detector, DetectorConfig, FuzzConfig, RaceKind, ScordDetector, Trace};
use scord_serve::{detect_session, Client, ErrorCode, Outcome, ServeConfig, Server, SessionEnd};

const DETECTOR_MEM: u64 = 1 << 20;

fn quick_cfg() -> ServeConfig {
    ServeConfig {
        shards: 2,
        queue_capacity: 4,
        read_slice: Duration::from_millis(20),
        progress_deadline: Duration::from_millis(700),
        write_timeout: Duration::from_secs(2),
        max_connections: 32,
        detector_mem_bytes: DETECTOR_MEM,
        ..ServeConfig::default()
    }
}

fn fuzzed(seed: u64, events: u32) -> Trace {
    FuzzConfig {
        events,
        ..FuzzConfig::default()
    }
    .generate(seed)
}

fn replay_races(trace: &Trace) -> Vec<(u32, RaceKind)> {
    let mut det = ScordDetector::new(DetectorConfig::paper_default(DETECTOR_MEM));
    trace
        .replay(&mut det)
        .expect("fuzzed traces replay cleanly");
    sorted(det.races().unique_races().collect())
}

fn sorted(mut races: Vec<(u32, RaceKind)>) -> Vec<(u32, RaceKind)> {
    races.sort_by_key(|&(pc, kind)| (pc, kind as u8));
    races
}

fn expect_done(outcome: Outcome) -> scord_serve::Done {
    match outcome {
        Outcome::Done(done) => done,
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn multi_trace_session_matches_in_process_replay() {
    let server = Server::start(quick_cfg()).expect("bind");
    let addr = server.local_addr();

    let traces: Vec<Trace> = (0..6u64).map(|seed| fuzzed(seed, 500)).collect();
    let outcomes = detect_session(addr, &traces, 48).expect("healthy session");
    assert_eq!(outcomes.len(), traces.len());
    for (i, (outcome, trace)) in outcomes.into_iter().zip(&traces).enumerate() {
        let done = expect_done(outcome);
        assert!(!done.partial, "stream {i} must complete fully");
        assert_eq!(
            sorted(done.races),
            replay_races(trace),
            "session stream {i} must equal in-process replay"
        );
    }

    let stats = server.shutdown();
    assert_eq!(
        stats.accepted, 1,
        "six traces must ride one accepted connection"
    );
    assert_eq!(stats.completed, 6, "one completion counted per stream");
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.disconnected, 0);
}

#[test]
fn interleaved_streams_finish_out_of_order() {
    let server = Server::start(quick_cfg()).expect("bind");
    let addr = server.local_addr();

    let traces: Vec<Trace> = [11u64, 12, 13].iter().map(|&s| fuzzed(s, 400)).collect();
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");

    // Interleave: round-robin one batch per stream until all are sent,
    // so all three streams are open at once on one connection.
    let batches: Vec<Vec<&[scord_core::TraceEvent]>> = traces
        .iter()
        .map(|t| t.events().chunks(40).collect())
        .collect();
    let rounds = batches.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (stream, chunks) in batches.iter().enumerate() {
            if let Some(batch) = chunks.get(round) {
                client
                    .send_stream_events(stream as u32, batch)
                    .expect("send interleaved batch");
            }
        }
    }

    // Finish out of order: 2, 0, 1. Each must get its own stream's
    // result regardless of arrival order.
    for &stream in &[2u32, 0, 1] {
        let done = expect_done(client.finish_stream(stream).expect("finish"));
        assert!(!done.partial);
        assert_eq!(
            sorted(done.races),
            replay_races(&traces[stream as usize]),
            "stream {stream} must be detected in isolation despite interleaving"
        );
    }

    let end = client.end_session().expect("clean end");
    assert_eq!(
        end,
        SessionEnd::Closed(Vec::new()),
        "no streams left open at session end"
    );

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.quarantined, 0);
}

#[test]
fn empty_and_reused_stream_ids() {
    let server = Server::start(quick_cfg()).expect("bind");
    let addr = server.local_addr();

    // An open-and-finish with no events is a valid empty stream.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");
    let done = expect_done(client.finish_stream(0).expect("empty stream"));
    assert!(!done.partial);
    assert_eq!(done.total, 0);
    assert!(done.races.is_empty());

    // Reusing a finished id violates the strictly-increasing rule and
    // quarantines the session with a typed Malformed error.
    client
        .send_stream_events(0, fuzzed(1, 16).events())
        .expect("write reused id");
    let outcome = client.read_outcome().expect("typed error");
    let Outcome::ServerError(info) = outcome else {
        panic!("expected ServerError for reused stream id, got {outcome:?}");
    };
    assert_eq!(info.code, Some(ErrorCode::Malformed));
    drop(client);

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.quarantined, 1);
}

#[test]
fn stream_id_u32_max_opens_at_most_once() {
    let server = Server::start(quick_cfg()).expect("bind");
    let addr = server.local_addr();

    // Through StreamFinish: open-and-finish the last id, then again.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");
    let done = expect_done(client.finish_stream(u32::MAX).expect("empty stream"));
    assert!(!done.partial);
    let outcome = client.finish_stream(u32::MAX).expect("typed error");
    let Outcome::ServerError(info) = outcome else {
        panic!("expected ServerError for a refinished u32::MAX, got {outcome:?}");
    };
    assert_eq!(info.code, Some(ErrorCode::Malformed));
    drop(client);

    // Through StreamEvents: open with events, finish, then reopen.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");
    let trace = fuzzed(5, 64);
    client
        .send_stream_trace(u32::MAX, &trace, 32)
        .expect("send");
    let done = expect_done(client.finish_stream(u32::MAX).expect("finish"));
    assert_eq!(sorted(done.races), replay_races(&trace));
    client
        .send_stream_events(u32::MAX, trace.events())
        .expect("write reused id");
    let outcome = client.read_outcome().expect("typed error");
    let Outcome::ServerError(info) = outcome else {
        panic!("expected ServerError for a reopened u32::MAX, got {outcome:?}");
    };
    assert_eq!(info.code, Some(ErrorCode::Malformed));
    drop(client);

    let stats = server.shutdown();
    assert_eq!(stats.completed, 2, "stats: {stats:?}");
    assert_eq!(stats.quarantined, 2, "stats: {stats:?}");
}

#[test]
fn events_frame_is_a_typed_malformed_quarantine() {
    let server = Server::start(quick_cfg()).expect("bind");
    let addr = server.local_addr();

    // `Events` is transport framing, not service input.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");
    let mut frame = Vec::new();
    wire::encode_frame(
        FrameType::Events,
        &wire::encode_events(fuzzed(1, 16).events()),
        &mut frame,
    );
    client.send_bytes(&frame).expect("write Events frame");
    let outcome = client.read_outcome().expect("typed error");
    let Outcome::ServerError(info) = outcome else {
        panic!("expected ServerError for an Events frame, got {outcome:?}");
    };
    assert_eq!(info.code, Some(ErrorCode::Malformed), "{info:?}");
    drop(client);

    let stats = server.shutdown();
    assert_eq!(stats.quarantined, 1, "stats: {stats:?}");
    assert_eq!(stats.completed, 0, "stats: {stats:?}");
}

#[test]
fn mid_session_malformed_frame_quarantines_only_that_session() {
    let server = Server::start(quick_cfg()).expect("bind");
    let addr = server.local_addr();

    // Session A: one healthy stream, then garbage mid-session.
    let mut poisoned = Client::connect(addr).expect("connect A");
    poisoned
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");
    let trace_a = fuzzed(21, 300);
    poisoned
        .send_stream_trace(0, &trace_a, 32)
        .expect("healthy first stream");
    let done = expect_done(poisoned.finish_stream(0).expect("first stream completes"));
    assert_eq!(sorted(done.races), replay_races(&trace_a));

    // Session B runs in parallel on its own connection and must be
    // completely unaffected by A's poisoning.
    let healthy = std::thread::spawn(move || {
        let traces: Vec<Trace> = (30..34u64).map(|s| fuzzed(s, 300)).collect();
        let outcomes = detect_session(addr, &traces, 32).expect("healthy session");
        for (outcome, trace) in outcomes.into_iter().zip(&traces) {
            let done = match outcome {
                Outcome::Done(done) => done,
                other => panic!("healthy session hit {other:?}"),
            };
            assert_eq!(sorted(done.races), replay_races(trace));
        }
    });

    // Garbage bytes (wrong magic) mid-session: typed Malformed error,
    // that connection only.
    poisoned
        .send_bytes(b"NOPE this is not a frame")
        .expect("write garbage");
    let outcome = poisoned.read_outcome().expect("typed error");
    let Outcome::ServerError(info) = outcome else {
        panic!("expected ServerError after garbage, got {outcome:?}");
    };
    assert_eq!(info.code, Some(ErrorCode::Malformed));
    drop(poisoned);

    healthy.join().expect("healthy session must complete");

    let stats = server.shutdown();
    assert_eq!(stats.quarantined, 1, "only the poisoned session");
    assert_eq!(
        stats.completed,
        1 + 4,
        "A's first stream plus all four of B's streams"
    );
}

#[test]
fn session_streams_report_incrementally() {
    let server = Server::start(quick_cfg()).expect("bind");
    let addr = server.local_addr();

    let racey = fuzzed(3, 800);
    assert!(
        !replay_races(&racey).is_empty(),
        "seed 3 must contain races for this scenario"
    );
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");
    client.send_stream_trace(7, &racey, 32).expect("send");
    let done = expect_done(client.finish_stream(7).expect("finish"));
    assert!(
        !client.stream_reports(7).is_empty(),
        "a racey session stream must emit incremental StreamReport frames"
    );
    let last = *client.stream_reports(7).last().expect("non-empty");
    assert!(last.unique as usize <= done.races.len());
    client.end_session().expect("clean end");

    server.shutdown();
}

#[test]
fn session_round_trips_do_not_stall_on_delayed_acks() {
    // Each trace spans several frames, so its first `StreamReport` leaves
    // the server before its `StreamDone` does: two small writes in a row,
    // the pattern Nagle holds back until the client's delayed ACK (about
    // 40 ms) when the accepted socket is not `TCP_NODELAY`.
    const TRACES: u32 = 16;
    const EVENTS_PER_FRAME: usize = 1024;
    let server = Server::start(quick_cfg()).expect("bind");
    let traces: Vec<Trace> = (0..u64::from(TRACES))
        .map(|seed| fuzzed(100 + seed, 3000))
        .collect();
    let expected: Vec<_> = traces.iter().map(replay_races).collect();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");

    let mut round_trips = Vec::new();
    for (stream, trace) in (0..TRACES).zip(&traces) {
        let t0 = Instant::now();
        client
            .send_stream_trace(stream, trace, EVENTS_PER_FRAME)
            .expect("send");
        let done = expect_done(client.finish_stream(stream).expect("finish"));
        round_trips.push(t0.elapsed());
        assert!(
            !client.stream_reports(stream).is_empty(),
            "stream {stream} must report before its Done"
        );
        assert_eq!(sorted(done.races), expected[stream as usize]);
    }
    client.end_session().expect("clean end");
    server.shutdown();

    let total: Duration = round_trips.iter().sum();
    assert!(
        total < Duration::from_millis(300),
        "{TRACES} round trips took {total:?} (each: {round_trips:?}); \
         a 40 ms delayed-ACK stall per trace would be {} ms",
        TRACES * 40
    );
}
