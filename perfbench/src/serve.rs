//! `serve_session`: an in-process `Server` (default configuration) under a
//! closed loop. One persistent session per core streams pre-generated,
//! seeded 4000-event fuzzed traces: send a trace, wait for its `Done`,
//! send the next. No simulator runs.

use std::time::{Duration, Instant};

use scord_core::fault::SplitMix64;
use scord_core::wire::{self, FrameAssembler, FrameType};
use scord_core::{Detector, DetectorConfig, FuzzConfig, RaceKind, ScordDetector, Trace};
use scord_serve::{Client, Outcome as ServeOutcome, ServeConfig, Server, SessionEnd};

use crate::common::{abba, repeat_for, self_s, set_latency, Ctx, Outcome, Setup};
use crate::spans::Tracer;
use crate::stats::{median, tail};

/// Events per fuzzed trace.
const EVENTS: u32 = 4000;
/// Traces each session sends per batch, the workload's fixed unit of work.
const TRACES_PER_SESSION: usize = 24;
/// Events per wire frame. At the load generator's 256 about half the
/// traces hit a 40 ms Nagle / delayed-ACK stall, so the median
/// latency flips between the stalled and unstalled modes from run to run;
/// at 1024 about three quarters stall and the median reports the stall.
const EVENTS_PER_FRAME: usize = 1024;
/// Batches in each pass of the traced run.
const TRACED_BATCHES: usize = 3;

type Races = Vec<(u32, RaceKind)>;

fn sorted(mut races: Races) -> Races {
    races.sort_by_key(|&(pc, kind)| (pc, kind as u8));
    races
}

/// Unique races of an in-process replay, in served order.
fn replay_races(trace: &Trace, dc: DetectorConfig) -> Races {
    let mut det = ScordDetector::new(dc);
    trace
        .replay(&mut det)
        .expect("fuzzed traces replay cleanly");
    sorted(det.races().unique_races().collect())
}

/// The traces (session `s` sends `traces[s * TRACES_PER_SESSION..]`) and
/// the race set an in-process replay gives for each.
struct Corpus {
    traces: Vec<Trace>,
    expected: Vec<Races>,
}

impl Corpus {
    fn generate(seed: u64, sessions: usize, dc: DetectorConfig) -> Corpus {
        let mut rng = SplitMix64::new(seed);
        let cfg = FuzzConfig {
            events: EVENTS,
            ..FuzzConfig::default()
        };
        let traces: Vec<Trace> = (0..sessions * TRACES_PER_SESSION)
            .map(|_| cfg.generate(rng.next_u64()))
            .collect();
        let expected = traces.iter().map(|t| replay_races(t, dc)).collect();
        Corpus { traces, expected }
    }
}

/// A running server and its open sessions. Clients drop (close) before
/// the server drains.
struct Service {
    clients: Vec<(Client, u32)>,
    server: Server,
}

impl Service {
    fn start(sessions: usize) -> Result<Service, String> {
        let server = Server::start(ServeConfig::default()).map_err(|e| format!("bind: {e}"))?;
        let clients = (0..sessions)
            .map(|_| {
                let mut c = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
                c.set_read_timeout(Duration::from_secs(30))
                    .map_err(|e| e.to_string())?;
                Ok((c, 0))
            })
            .collect::<Result<_, String>>()?;
        Ok(Service { clients, server })
    }
}

/// One served trace.
struct Served {
    error: Option<String>,
    send_ms: f64,
    wait_ms: f64,
}

impl Served {
    fn ok(&self) -> bool {
        self.error.is_none()
    }

    fn latency_ms(&self) -> f64 {
        self.send_ms + self.wait_ms
    }
}

/// Every session streams its traces; returns them in corpus order.
fn batch(svc: &mut Service, corpus: &Corpus, tracer: &Tracer, batch_no: u64) -> Vec<Served> {
    let per_session: Vec<Vec<Served>> = std::thread::scope(|s| {
        let handles: Vec<_> = svc
            .clients
            .iter_mut()
            .enumerate()
            .map(|(si, (client, next_id))| {
                s.spawn(move || {
                    (0..TRACES_PER_SESSION)
                        .map(|k| {
                            let idx = si * TRACES_PER_SESSION + k;
                            let id = batch_no * corpus.traces.len() as u64 + idx as u64;
                            let stream = *next_id;
                            *next_id += 1;
                            serve_one(client, stream, corpus, idx, tracer, id)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    per_session.into_iter().flatten().collect()
}

fn serve_one(
    client: &mut Client,
    stream: u32,
    corpus: &Corpus,
    idx: usize,
    tracer: &Tracer,
    trace_id: u64,
) -> Served {
    tracer.span("serve.trace", None, trace_id, |root| {
        let t0 = Instant::now();
        let sent = tracer.span("serve.client.send", Some(root), trace_id, |_| {
            client.send_stream_trace(stream, &corpus.traces[idx], EVENTS_PER_FRAME)
        });
        let t1 = Instant::now();
        let outcome = sent.and_then(|()| {
            tracer.span("serve.client.wait", Some(root), trace_id, |_| {
                client.finish_stream(stream)
            })
        });
        let t2 = Instant::now();
        let error = match outcome {
            Ok(ServeOutcome::Done(done)) if done.partial => Some("partial Done".to_string()),
            Ok(ServeOutcome::Done(done)) if sorted(done.races.clone()) != corpus.expected[idx] => {
                Some("served races differ from in-process replay".to_string())
            }
            Ok(ServeOutcome::Done(_)) => None,
            Ok(other) => Some(format!("{other:?}")),
            Err(e) => Some(e.to_string()),
        };
        Served {
            error: error.map(|e| format!("trace {idx} (stream {stream}): {e}")),
            send_ms: (t1 - t0).as_secs_f64() * 1e3,
            wait_ms: (t2 - t1).as_secs_f64() * 1e3,
        }
    })
}

/// Counts each served trace and keeps the first few failures.
fn tally(out: &mut Outcome, served: &[Served]) {
    for s in served {
        out.tally.record(s.ok());
        if let Some(e) = &s.error {
            if out.errors.len() < 8 {
                out.errors.push(e.clone());
            }
        }
    }
}

/// Ends every session and stops the server; both must close cleanly.
fn finish(out: &mut Outcome, mut svc: Service) -> scord_serve::StatsSnapshot {
    for (client, _) in &mut svc.clients {
        let end = client.end_session();
        out.check(matches!(end, Ok(SessionEnd::Closed(_))), || {
            format!("session did not close cleanly: {end:?}")
        });
    }
    let stats = svc.server.shutdown();
    out.check(stats.quarantined == 0 && stats.shed_busy == 0, || {
        format!("server refused healthy sessions: {stats:?}")
    });
    stats
}

fn detector_config() -> DetectorConfig {
    DetectorConfig::paper_default(ServeConfig::default().detector_mem_bytes)
}

/// Untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dc = detector_config();
    let ((corpus, svc), mut setup) = Setup::new(|| {
        let corpus = Corpus::generate(ctx.seed, ctx.jobs.get(), dc);
        (corpus, Service::start(ctx.jobs.get()))
    });
    let mut svc = match svc {
        Ok(svc) => svc,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let untraced = Tracer::new(false);
    let mut latencies = Vec::new();
    let mut batch_no = 0;
    let (walls, total_s) = repeat_for(
        ctx.seconds,
        || setup.resample(),
        || {
            let served = batch(&mut svc, &corpus, &untraced, batch_no);
            latencies.extend(served.iter().filter(|s| s.ok()).map(Served::latency_ms));
            tally(&mut out, &served);
            batch_no += 1;
        },
    );
    finish(&mut out, svc);
    let m = &mut out.metrics;
    m.set("wall_s", median(&walls));
    m.set("ops_per_s", out.tally.succeeded() as f64 / total_s);
    m.set("setup_s", setup.median_s());
    set_latency(m, &latencies);
    out
}

/// Encodes, decodes and replays every trace in-process: the wire codec
/// and detector cost one served trace carries, without the socket.
/// Returns per-trace (decode + detect) milliseconds and the events seen.
fn in_process(
    out: &mut Outcome,
    corpus: &Corpus,
    tracer: &Tracer,
    dc: DetectorConfig,
) -> (Vec<f64>, usize) {
    let mut per_trace_ms = Vec::new();
    let mut events = 0;
    for (i, trace) in corpus.traces.iter().enumerate() {
        let id = i as u64;
        let bytes = tracer.span("core.wire.encode", None, id, |_| {
            wire::trace_to_frames(trace, EVENTS_PER_FRAME).concat()
        });
        let t0 = Instant::now();
        let decoded = tracer.span("core.wire.decode", None, id, |_| {
            let mut asm = FrameAssembler::new();
            asm.push(&bytes);
            let mut decoded = Trace::new();
            while let Some(frame) = asm.next_frame().map_err(|e| e.to_string())? {
                if frame.ftype == FrameType::Events {
                    for ev in wire::decode_events(&frame.payload).map_err(|e| e.to_string())? {
                        decoded.push(ev);
                    }
                }
            }
            Ok::<_, String>(decoded)
        });
        let races = decoded
            .as_ref()
            .ok()
            .map(|d| tracer.span("core.detector.replay", None, id, |_| replay_races(d, dc)));
        per_trace_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        events += trace.len();
        out.check(decoded.as_ref().is_ok_and(|d| d == trace), || {
            format!("trace {i}: wire round trip changed the trace")
        });
        out.check(races.as_ref() == Some(&corpus.expected[i]), || {
            format!("trace {i}: in-process races differ")
        });
    }
    (per_trace_ms, events)
}

/// Traced run: per-layer metrics.
pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dc = detector_config();
    let corpus = Corpus::generate(ctx.seed, ctx.jobs.get(), dc);
    let mut svc = match Service::start(ctx.jobs.get()) {
        Ok(svc) => svc,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let tracer = Tracer::new(true);
    let passes = abba(&mut out.metrics, &tracer, |t, pass_no| {
        (0..TRACED_BATCHES as u64)
            .flat_map(|b| batch(&mut svc, &corpus, t, pass_no * TRACED_BATCHES as u64 + b))
            .collect::<Vec<Served>>()
    });
    for served in &passes {
        tally(&mut out, served);
    }
    let traced = &passes[1];
    let (threads, fds) = scord_serve::loadgen::process_stats();
    let stats = finish(&mut out, svc);

    let (local_ms, events) = in_process(&mut out, &corpus, &tracer, dc);
    out.spans = tracer.spans();
    let ok: Vec<&Served> = traced.iter().filter(|s| s.ok()).collect();
    let send: Vec<f64> = ok.iter().map(|s| s.send_ms).collect();
    let wait: Vec<f64> = ok.iter().map(|s| s.wait_ms).collect();
    let latency: Vec<f64> = ok.iter().map(|s| s.latency_ms()).collect();
    let m = &mut out.metrics;
    m.set("serve.client.send_ms_p50", median(&send));
    m.set("serve.client.wait_ms_p50", median(&wait));
    m.set(
        "serve.client.wait_ms_p99",
        tail(&wait).map_or(0.0, |t| t.value),
    );
    let per_event = |name: &str| self_s(&out.spans, name) * 1e9 / events.max(1) as f64;
    m.set(
        "core.wire.encode_ns_per_event",
        per_event("core.wire.encode"),
    );
    m.set(
        "core.wire.decode_ns_per_event",
        per_event("core.wire.decode"),
    );
    m.set(
        "core.detector.replay_ns_per_event",
        per_event("core.detector.replay"),
    );
    m.set(
        "serve.overhead_ms_p50",
        median(&latency) - median(&local_ms),
    );
    m.set("serve.accepted", stats.accepted as f64);
    m.set("serve.completed", stats.completed as f64);
    m.set("serve.shed_busy", stats.shed_busy as f64);
    m.set("serve.quarantined", stats.quarantined as f64);
    m.set("serve.reaped_deadline", stats.reaped_deadline as f64);
    m.set("serve.disconnected", stats.disconnected as f64);
    m.set("serve.drained_partial", stats.drained_partial as f64);
    m.set("serve.threads", threads as f64);
    m.set("serve.open_fds", fds as f64);
    m.set("bench.spans", out.spans.len() as f64);
    out
}
