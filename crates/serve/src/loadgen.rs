//! Load generator: many concurrent healthy clients, measured.
//!
//! Drives fuzzed traces (`scord_core::fuzz`) through the service from
//! several client threads and reports throughput (traces/sec, events/sec)
//! and per-trace latency percentiles (up to the trace's `StreamDone`).
//! The harness's `loadgen` subcommand serializes the report into
//! `BENCH_serve.json`.
//!
//! Two knobs target the reactor specifically: `idle_connections` opens a
//! swarm of parked sessions the active minority must coexist with (the
//! mostly-idle shape real fleets have), and `traces_per_conn` amortizes
//! connections over the persistent session protocol. The report carries
//! process-wide thread and fd counts sampled at peak — the footprint
//! proxies that distinguish a reactor (threads independent of
//! connections) from thread-per-connection.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

use scord_core::FuzzConfig;

use crate::client::{detect_remote, Client, Outcome};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Total traces to stream.
    pub streams: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Events per fuzzed trace.
    pub events: u32,
    /// Events per wire frame.
    pub events_per_frame: usize,
    /// Base seed; stream `i` uses `seed + i`.
    pub seed: u64,
    /// Idle sessions opened before the clock starts and held parked (no
    /// frames after the header) for the whole run while the active
    /// minority does the work above. Exercises the mostly-idle fleet
    /// shape; 0 restores the pure active workload.
    pub idle_connections: usize,
    /// Traces carried per connection. 1 = one connection per trace, each
    /// a one-stream session through [`detect_remote`]; >1 = each
    /// connection streams this many traces as session streams 0, 1, ….
    pub traces_per_conn: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7444".to_string(),
            streams: 64,
            concurrency: 8,
            events: 2_000,
            events_per_frame: 256,
            seed: 0x10AD,
            idle_connections: 0,
            traces_per_conn: 1,
        }
    }
}

/// Aggregate measurements from one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Traces that completed with a full `Done`.
    pub completed: u64,
    /// Traces answered `Busy` (shed).
    pub busy: u64,
    /// Traces that failed (server error, socket error, partial report).
    pub failed: u64,
    /// Total events streamed by completed traces.
    pub events: u64,
    /// Total unique races reported across completed traces.
    pub races: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Completed traces per second.
    pub traces_per_sec: f64,
    /// Events per second across completed traces.
    pub events_per_sec: f64,
    /// Median per-trace latency (connect, or first frame on a shared
    /// session, → `StreamDone`), milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile per-trace latency, milliseconds.
    pub p99_latency_ms: f64,
    /// Worst per-trace latency, milliseconds.
    pub max_latency_ms: f64,
    /// Idle sessions actually opened and held for the run (may be less
    /// than requested if connects failed).
    pub idle_connections: u64,
    /// Process-wide thread count sampled at peak load — the footprint
    /// proxy that separates a reactor from thread-per-connection. 0 when
    /// `/proc` is unavailable.
    pub threads: u64,
    /// Process-wide open-fd count sampled at peak load (server + client
    /// sockets when colocated). 0 when `/proc` is unavailable.
    pub open_fds: u64,
}

/// Process-wide `(threads, open_fds)` from `/proc/self`, the
/// cheap-but-honest RSS proxies the bench records: a reactor's thread
/// count stays flat as connections grow, its fd count tracks them
/// linearly. Both are 0 where `/proc` doesn't exist (non-Linux).
#[must_use]
pub fn process_stats() -> (u64, u64) {
    let threads = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|line| {
                line.strip_prefix("Threads:")
                    .and_then(|rest| rest.trim().parse::<u64>().ok())
            })
        })
        .unwrap_or(0);
    let fds = std::fs::read_dir("/proc/self/fd")
        .map(|entries| entries.count() as u64)
        .unwrap_or(0);
    (threads, fds)
}

/// Ceiling-based nearest-rank percentile: the smallest sample such that at
/// least `p` of the distribution is at or below it (`rank = ⌈p·N⌉`,
/// 1-indexed). The previous `round(p·(N-1))` interpolation could pick the
/// sample *below* the true rank — e.g. p99 of 67 samples returned the
/// 66th, under-reporting tail latency by one whole sample.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.saturating_sub(1).min(sorted_ms.len() - 1)]
}

/// One worker's share of the workload: trace indices `worker`,
/// `worker + concurrency`, …, grouped into sessions of
/// `traces_per_conn` when the session protocol is in use.
struct Tally {
    lats: Vec<f64>,
    completed: u64,
    busy: u64,
    failed: u64,
    events: u64,
    races: u64,
}

fn run_worker(cfg: &LoadConfig, worker: usize, concurrency: usize) -> Tally {
    let mut tally = Tally {
        lats: Vec::new(),
        completed: 0,
        busy: 0,
        failed: 0,
        events: 0,
        races: 0,
    };
    let per_conn = cfg.traces_per_conn.max(1);
    let indices: Vec<usize> = (worker..cfg.streams).step_by(concurrency).collect();
    for group in indices.chunks(per_conn) {
        if per_conn == 1 {
            let i = group[0];
            let trace = FuzzConfig {
                events: cfg.events,
                ..FuzzConfig::default()
            }
            .generate(cfg.seed.wrapping_add(i as u64));
            let start = Instant::now();
            match detect_remote(&cfg.addr, &trace, cfg.events_per_frame) {
                Ok(Outcome::Done(done)) if !done.partial => {
                    tally.lats.push(start.elapsed().as_secs_f64() * 1e3);
                    tally.completed += 1;
                    tally.events += trace.len() as u64;
                    tally.races += done.races.len() as u64;
                }
                Ok(Outcome::Busy) => tally.busy += 1,
                Ok(_) | Err(_) => tally.failed += 1,
            }
            continue;
        }
        // Session mode: one connection per group, one stream per trace.
        let Ok(mut client) = Client::connect(&cfg.addr) else {
            tally.failed += group.len() as u64;
            continue;
        };
        let _ = client.set_read_timeout(std::time::Duration::from_secs(30));
        let mut dead = false;
        for (stream, &i) in group.iter().enumerate() {
            if dead {
                tally.failed += 1;
                continue;
            }
            let trace = FuzzConfig {
                events: cfg.events,
                ..FuzzConfig::default()
            }
            .generate(cfg.seed.wrapping_add(i as u64));
            let start = Instant::now();
            let outcome = client
                .send_stream_trace(stream as u32, &trace, cfg.events_per_frame)
                .and_then(|()| client.finish_stream(stream as u32));
            match outcome {
                Ok(Outcome::Done(done)) if !done.partial => {
                    tally.lats.push(start.elapsed().as_secs_f64() * 1e3);
                    tally.completed += 1;
                    tally.events += trace.len() as u64;
                    tally.races += done.races.len() as u64;
                }
                Ok(Outcome::Busy) => {
                    tally.busy += 1;
                    dead = true;
                }
                Ok(_) | Err(_) => {
                    tally.failed += 1;
                    dead = true;
                }
            }
        }
        if !dead {
            let _ = client.end_session();
        }
    }
    tally
}

/// Runs the load profile and gathers the report.
///
/// # Panics
///
/// Panics if a client thread panics (nothing in the client path should).
#[must_use]
pub fn run(cfg: &LoadConfig) -> LoadReport {
    let concurrency = cfg.concurrency.max(1);

    // Park the idle swarm first: sessions that send nothing after the
    // header and simply coexist with the active minority. Opened before
    // the clock starts so throughput stays comparable across idle
    // counts.
    let idle: Vec<Client> = (0..cfg.idle_connections)
        .filter_map(|_| Client::connect(&cfg.addr).ok())
        .collect();
    let idle_held = idle.len() as u64;

    // Footprint is sampled while every worker thread is alive and the
    // idle swarm is still parked: each worker meets the sampler at this
    // barrier once its traffic is done, and again before it exits. By then
    // an in-process server has had the whole run to accept the swarm.
    let sample_point = Barrier::new(concurrency + 1);
    let mut footprint = (0, 0);
    let t0 = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                let cfg = cfg.clone();
                let sample_point = &sample_point;
                scope.spawn(move || {
                    let tally =
                        catch_unwind(AssertUnwindSafe(|| run_worker(&cfg, worker, concurrency)));
                    sample_point.wait();
                    sample_point.wait();
                    tally.unwrap_or_else(|payload| resume_unwind(payload))
                })
            })
            .collect();
        sample_point.wait();
        footprint = process_stats();
        sample_point.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    drop(idle);

    let mut latencies = Vec::new();
    let (mut completed, mut busy, mut failed) = (0u64, 0u64, 0u64);
    let (mut events_total, mut races_total) = (0u64, 0u64);
    for tally in tallies {
        latencies.extend(tally.lats);
        completed += tally.completed;
        busy += tally.busy;
        failed += tally.failed;
        events_total += tally.events;
        races_total += tally.races;
    }
    let mut sorted = latencies;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let events = events_total;
    LoadReport {
        completed,
        busy,
        failed,
        events,
        races: races_total,
        wall_seconds: wall,
        traces_per_sec: if wall > 0.0 {
            completed as f64 / wall
        } else {
            0.0
        },
        events_per_sec: if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        },
        p50_latency_ms: percentile(&sorted, 0.50),
        p99_latency_ms: percentile(&sorted, 0.99),
        max_latency_ms: sorted.last().copied().unwrap_or(0.0),
        idle_connections: idle_held,
        threads: footprint.0,
        open_fds: footprint.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_expected_ranks() {
        // Nearest-rank is exact on round sizes: p50 of 1..=100 is the 50th
        // sample, not the 51st the old round() formula produced.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_tail_is_never_under_reported() {
        // Regression for the round()-based rank: with 67 samples, p99 must
        // be the maximum (⌈0.99·67⌉ = 67) — round(0.99·66) picked the 66th.
        let xs: Vec<f64> = (1..=67).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 67.0);
        // p99 covers the max for every N below 100: fewer than 100 samples
        // means the top sample alone is more than 1% of the distribution.
        for n in 1..100usize {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            assert_eq!(percentile(&xs, 0.99), n as f64, "N={n}");
        }
    }

    #[test]
    fn percentile_degenerate_sizes() {
        // One sample answers every percentile.
        assert_eq!(percentile(&[7.5], 0.5), 7.5);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
        assert_eq!(percentile(&[7.5], 1.0), 7.5);
        // Two samples: nearest-rank p50 is the lower one (⌈0.5·2⌉ = 1),
        // p99 and max are the upper.
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, 0.5), 1.0);
        assert_eq!(percentile(&xs, 0.99), 2.0);
        assert_eq!(percentile(&xs, 1.0), 2.0);
        // p = 0 clamps to the first sample rather than underflowing.
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }
}
