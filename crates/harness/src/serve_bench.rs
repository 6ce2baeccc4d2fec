//! Service-level benchmarking: drives the race-detection server
//! (`scord_serve`) with the load generator and records throughput and
//! latency in `BENCH_serve.json` at the repository root.
//!
//! Two subcommands of `run-experiments` live here:
//!
//! * `serve` — a long-lived server on a fixed address; SIGTERM/SIGINT
//!   trigger the graceful drain and the final [`StatsSnapshot`] is printed.
//! * `loadgen` — streams fuzzed traces at a running server from concurrent
//!   client threads, optionally fires the two robustness probes (one
//!   malformed-input stream that must come back as a typed error, one
//!   stalled stream that must be reaped by the progress deadline), prints a
//!   markdown summary and appends the run to `BENCH_serve.json`.
//!
//! The JSON record uses the same `{"schema": N, "runs": [...]}` envelope as
//! `BENCH_sim.json`, appended through the same raw-run extractor, so
//! history is preserved verbatim and a malformed record is a named error
//! rather than a silent clobber.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use scord_serve::proto::ErrorCode;
use scord_serve::{
    signal, Client, LoadConfig, LoadReport, Outcome, ServeConfig, Server, StatsSnapshot,
};

use crate::perf::read_recorded_runs;
use crate::HarnessError;

/// Outcome of the two robustness probes fired by `loadgen --probes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    /// `Ok(())` when the malformed stream was answered with a typed
    /// `Malformed`/`BadEvent` error; `Err` describes what happened instead.
    pub malformed: Result<(), String>,
    /// `Ok(())` when the stalled stream was reaped with a typed
    /// `DeadlineExceeded` error; `Err` describes what happened instead.
    pub deadline: Result<(), String>,
}

impl ProbeReport {
    /// Both probes behaved.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.malformed.is_ok() && self.deadline.is_ok()
    }
}

/// Runs a server on `addr` until a shutdown is requested (SIGTERM, SIGINT
/// or [`scord_serve::signal::request_shutdown`]), then drains gracefully
/// and returns the final stats.
///
/// `progress_deadline` bounds how long a connection may sit without
/// completing a frame before it is reaped — the CI smoke job shortens it so
/// the deadline probe finishes quickly. `max_connections` sets the overload
/// watermark; the smoke job raises it above its idle-swarm size.
///
/// # Errors
///
/// [`HarnessError`] with an `Io` kind when the listener cannot bind.
pub fn serve(
    addr: &str,
    progress_deadline: Duration,
    max_connections: usize,
) -> Result<StatsSnapshot, HarnessError> {
    let cfg = ServeConfig {
        addr: addr.to_string(),
        progress_deadline,
        max_connections,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).map_err(|e| HarnessError::io(addr.to_string(), &e))?;
    signal::install();
    println!("listening on {}", server.local_addr());
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(server.shutdown())
}

/// Fires the malformed-input probe: a stream whose first frame claims an
/// absurd length must be quarantined with a typed error, not dropped on
/// the floor and not crashing the server.
fn probe_malformed(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Duration::from_secs(10))
        .map_err(|e| format!("timeout: {e}"))?;
    client
        .send_bytes(&[0xFF; 16])
        .map_err(|e| format!("send: {e}"))?;
    match client.read_outcome() {
        Ok(Outcome::ServerError(info)) if info.code == Some(ErrorCode::Malformed) => Ok(()),
        Ok(other) => Err(format!("expected a typed Malformed error, got {other:?}")),
        Err(e) => Err(format!("expected a typed Malformed error, got {e}")),
    }
}

/// Fires the deadline-reap probe: a stream that sends part of a frame and
/// then stalls must be reaped with `DeadlineExceeded` once the server's
/// progress deadline expires.
fn probe_deadline(addr: &str, wait_ceiling: Duration) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(wait_ceiling)
        .map_err(|e| format!("timeout: {e}"))?;
    // Six bytes of a `StreamEvents` frame, then silence.
    client
        .send_bytes(&[0x40, 0x00, 0x00, 0x00, 0x03, 0x00])
        .map_err(|e| format!("send: {e}"))?;
    match client.read_outcome() {
        Ok(Outcome::ServerError(info)) if info.code == Some(ErrorCode::DeadlineExceeded) => Ok(()),
        Ok(other) => Err(format!("expected DeadlineExceeded, got {other:?}")),
        Err(e) => Err(format!("expected DeadlineExceeded, got {e}")),
    }
}

/// Runs the load profile against `cfg.addr` and, when `probes` is set,
/// fires the malformed-input and deadline-reap probes afterwards (after, so
/// the probes cannot eat connection slots while the measured load runs).
///
/// `deadline_hint` is how long the deadline probe is willing to wait for
/// the reap — set it comfortably above the server's progress deadline.
#[must_use]
pub fn loadgen(
    cfg: &LoadConfig,
    probes: bool,
    deadline_hint: Duration,
) -> (LoadReport, Option<ProbeReport>) {
    let report = scord_serve::loadgen::run(cfg);
    let probe_report = probes.then(|| ProbeReport {
        malformed: probe_malformed(&cfg.addr),
        deadline: probe_deadline(&cfg.addr, deadline_hint),
    });
    (report, probe_report)
}

/// Renders a load run (and probe outcomes, if any) as a markdown table.
#[must_use]
pub fn to_markdown(report: &LoadReport, probes: Option<&ProbeReport>) -> String {
    let row = |k: &str, v: String| vec![k.to_string(), v];
    let body = vec![
        row("completed traces", report.completed.to_string()),
        row("busy (shed)", report.busy.to_string()),
        row("failed", report.failed.to_string()),
        row("events streamed", report.events.to_string()),
        row("races reported", report.races.to_string()),
        row("wall seconds", format!("{:.3}", report.wall_seconds)),
        row("traces/sec", format!("{:.1}", report.traces_per_sec)),
        row("events/sec", format!("{:.0}", report.events_per_sec)),
        row("p50 latency (ms)", format!("{:.3}", report.p50_latency_ms)),
        row("p99 latency (ms)", format!("{:.3}", report.p99_latency_ms)),
        row("max latency (ms)", format!("{:.3}", report.max_latency_ms)),
    ];
    let mut out = crate::render_table(&["Metric", "Value"], &body);
    if let Some(p) = probes {
        let verdict = |r: &Result<(), String>| match r {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("FAILED: {e}"),
        };
        let _ = write!(
            out,
            "\nProbes: malformed-input {}; deadline-reap {}.",
            verdict(&p.malformed),
            verdict(&p.deadline)
        );
    }
    out
}

// ---- BENCH_serve.json ----------------------------------------------------

/// Default location of the service benchmark record: `BENCH_serve.json`,
/// relative to the current working directory — never a path baked in at
/// build time, so a binary run from another checkout writes to that
/// checkout.
#[must_use]
pub fn default_bench_path() -> PathBuf {
    PathBuf::from("BENCH_serve.json")
}

fn render_run(label: &str, report: &LoadReport, probes: Option<&ProbeReport>) -> String {
    let probe_json = |r: &Result<(), String>| match r {
        Ok(()) => "\"ok\"".to_string(),
        Err(e) => format!("\"failed: {}\"", crate::perf::json_escape(e)),
    };
    let probes_field = probes.map_or("null".to_string(), |p| {
        format!(
            "{{\"malformed\": {}, \"deadline\": {}}}",
            probe_json(&p.malformed),
            probe_json(&p.deadline)
        )
    });
    format!(
        "    {{\n      \"label\": \"{}\",\n      \"thread_model\": \"reactor\",\n      \
         \"completed\": {},\n      \
         \"busy\": {},\n      \"failed\": {},\n      \"events\": {},\n      \
         \"races\": {},\n      \"wall_seconds\": {:.6},\n      \
         \"traces_per_sec\": {:.3},\n      \"events_per_sec\": {:.1},\n      \
         \"p50_latency_ms\": {:.3},\n      \"p99_latency_ms\": {:.3},\n      \
         \"max_latency_ms\": {:.3},\n      \"idle_connections\": {},\n      \
         \"threads\": {},\n      \"open_fds\": {},\n      \"probes\": {}\n    }}",
        crate::perf::json_escape(label),
        report.completed,
        report.busy,
        report.failed,
        report.events,
        report.races,
        report.wall_seconds,
        report.traces_per_sec,
        report.events_per_sec,
        report.p50_latency_ms,
        report.p99_latency_ms,
        report.max_latency_ms,
        report.idle_connections,
        report.threads,
        report.open_fds,
        probes_field,
    )
}

fn render_document(raw_runs: &[String]) -> String {
    // Schema 2: runs carry `thread_model`, `idle_connections`, `threads`
    // and `open_fds`. Schema-1 runs (thread-per-connection era) are
    // preserved verbatim — the raw-run extractor is field-agnostic.
    let mut out = String::from("{\n  \"schema\": 2,\n  \"runs\": [\n");
    for (i, r) in raw_runs.iter().enumerate() {
        let indented = if r.starts_with("    ") {
            r.clone()
        } else {
            format!("    {r}")
        };
        let comma = if i + 1 < raw_runs.len() { "," } else { "" };
        let _ = writeln!(out, "{}{comma}", indented.trim_end());
    }
    out.push_str("  ]\n}\n");
    out
}

/// Appends one load run to the `BENCH_serve.json` at `path` (creating it
/// if absent) and returns the number of runs now recorded.
///
/// # Errors
///
/// Typed [`HarnessError`]s: `Io` for filesystem failures, `BenchMalformed`
/// when an existing record does not parse (it is left untouched).
pub fn append_to_bench_json(
    path: &Path,
    label: &str,
    report: &LoadReport,
    probes: Option<&ProbeReport>,
) -> Result<usize, HarnessError> {
    let mut raw = read_recorded_runs(path)?;
    raw.push(render_run(label, report, probes));
    let n = raw.len();
    std::fs::write(path, render_document(&raw))
        .map_err(|e| HarnessError::io(path.display().to_string(), &e))?;
    Ok(n)
}

// ---- connection-count sweep ----------------------------------------------

/// One row of the mostly-idle connection sweep.
#[derive(Debug)]
pub struct SweepRow {
    /// Idle connections requested for this row (before fd clamping).
    pub target: usize,
    /// The measured run; `report.idle_connections` is what was actually
    /// held open, `report.threads`/`report.open_fds` the footprint.
    pub report: LoadReport,
}

/// Caps a sweep target to what the process's fd budget can hold: each
/// in-process connection costs two fds (client end + server end), and a
/// fixed headroom covers the listener, selector, waker, shard plumbing
/// and whatever the test runner already has open.
#[must_use]
pub fn clamp_to_fd_budget(target: usize) -> usize {
    const HEADROOM: u64 = 128;
    match scord_serve::reactor::fd_limit() {
        Some(limit) => {
            let usable = limit.saturating_sub(HEADROOM) / 2;
            target.min(usable as usize)
        }
        None => target,
    }
}

/// Runs the mostly-idle sweep: for each target, an in-process server gets
/// `target` parked sessions (clamped to the fd budget) while `streams`
/// traces of `events` events run through `concurrency` active clients.
/// The interesting columns are `threads` (flat across rows for a reactor)
/// and `open_fds` (linear in connections) — the footprint signature that
/// separates event-driven from thread-per-connection.
///
/// # Errors
///
/// [`HarnessError`] with an `Io` kind when a server cannot bind.
pub fn connection_sweep(
    targets: &[usize],
    streams: usize,
    concurrency: usize,
    events: u32,
) -> Result<Vec<SweepRow>, HarnessError> {
    let mut rows = Vec::with_capacity(targets.len());
    for &target in targets {
        let idle = clamp_to_fd_budget(target);
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: idle + concurrency + 8,
            ..ServeConfig::default()
        })
        .map_err(|e| HarnessError::io("127.0.0.1:0".to_string(), &e))?;
        let cfg = LoadConfig {
            addr: server.local_addr().to_string(),
            streams,
            concurrency,
            events,
            idle_connections: idle,
            ..LoadConfig::default()
        };
        let report = scord_serve::loadgen::run(&cfg);
        server.shutdown();
        rows.push(SweepRow { target, report });
    }
    Ok(rows)
}

/// Renders the sweep as a markdown table.
#[must_use]
pub fn sweep_to_markdown(rows: &[SweepRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.target.to_string(),
                row.report.idle_connections.to_string(),
                row.report.threads.to_string(),
                row.report.open_fds.to_string(),
                row.report.completed.to_string(),
                format!("{:.1}", row.report.traces_per_sec),
                format!("{:.3}", row.report.p99_latency_ms),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "target",
            "idle held",
            "threads",
            "open fds",
            "completed",
            "traces/sec",
            "p99 (ms)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> LoadReport {
        LoadReport {
            completed: 10,
            busy: 1,
            failed: 0,
            events: 20_000,
            races: 33,
            wall_seconds: 0.5,
            traces_per_sec: 20.0,
            events_per_sec: 40_000.0,
            p50_latency_ms: 3.25,
            p99_latency_ms: 9.5,
            max_latency_ms: 12.0,
            idle_connections: 256,
            threads: 4,
            open_fds: 530,
        }
    }

    #[test]
    fn default_bench_path_is_relative_to_the_working_directory() {
        assert_eq!(default_bench_path(), Path::new("BENCH_serve.json"));
    }

    #[test]
    fn record_roundtrips_through_the_shared_extractor() {
        let probes = ProbeReport {
            malformed: Ok(()),
            deadline: Err("still waiting".into()),
        };
        let doc = render_document(&[render_run("smoke", &fake_report(), Some(&probes))]);
        assert!(doc.contains("\"schema\": 2"));
        let runs = crate::perf::existing_runs(&doc).expect("document parses");
        assert_eq!(runs.len(), 1);
        assert!(runs[0].contains("\"traces_per_sec\": 20.000"));
        assert!(runs[0].contains("\"p99_latency_ms\": 9.500"));
        assert!(runs[0].contains("\"thread_model\": \"reactor\""));
        assert!(runs[0].contains("\"idle_connections\": 256"));
        assert!(runs[0].contains("\"threads\": 4"));
        assert!(runs[0].contains("\"open_fds\": 530"));
        assert!(runs[0].contains("\"malformed\": \"ok\""));
        assert!(runs[0].contains("failed: still waiting"));

        let mut raw = runs;
        raw.push(render_run("second", &fake_report(), None));
        let doc2 = render_document(&raw);
        let runs2 = crate::perf::existing_runs(&doc2).expect("still parses");
        assert_eq!(runs2.len(), 2);
        assert!(runs2[1].contains("\"probes\": null"));
    }

    #[test]
    fn schema1_runs_survive_a_schema2_append_verbatim() {
        let legacy = "{\"label\": \"pr6-serve\", \"completed\": 128, \
                      \"traces_per_sec\": 559.852}";
        let old_doc = format!("{{\n  \"schema\": 1,\n  \"runs\": [\n    {legacy}\n  ]\n}}\n");
        let mut raw = crate::perf::existing_runs(&old_doc).expect("schema-1 parses");
        raw.push(render_run("reactor-row", &fake_report(), None));
        let doc = render_document(&raw);
        assert!(doc.contains("\"schema\": 2"));
        let runs = crate::perf::existing_runs(&doc).expect("schema-2 parses");
        assert_eq!(runs.len(), 2);
        assert!(
            runs[0].contains("\"traces_per_sec\": 559.852"),
            "the thread-per-connection era row must be byte-preserved"
        );
        assert!(runs[1].contains("\"thread_model\": \"reactor\""));
    }

    #[test]
    fn end_to_end_against_a_live_server() {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            progress_deadline: Duration::from_millis(400),
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.local_addr().to_string();
        let cfg = LoadConfig {
            addr,
            streams: 6,
            concurrency: 3,
            events: 400,
            ..LoadConfig::default()
        };
        let (report, probes) = loadgen(&cfg, true, Duration::from_secs(5));
        let probes = probes.expect("probes requested");
        assert_eq!(report.completed, 6, "all healthy streams complete");
        assert_eq!(report.failed, 0);
        assert!(report.events > 0 && report.traces_per_sec > 0.0);
        assert!(report.p99_latency_ms >= report.p50_latency_ms);
        assert_eq!(probes.malformed, Ok(()));
        assert_eq!(probes.deadline, Ok(()));
        assert!(probes.all_ok());

        let dir = std::env::temp_dir().join("scord-serve-bench-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_serve.json");
        std::fs::remove_file(&path).ok();
        let n = append_to_bench_json(&path, "unit", &report, Some(&probes)).expect("writes");
        assert_eq!(n, 1);
        let n = append_to_bench_json(&path, "unit2", &report, None).expect("appends");
        assert_eq!(n, 2);
        std::fs::remove_file(&path).ok();

        let stats = server.shutdown();
        assert!(stats.completed >= 6);
        assert!(stats.quarantined >= 1, "malformed probe quarantined");
        assert!(stats.reaped_deadline >= 1, "stalled probe reaped");
    }
}
