//! In-tree performance harness: times a fixed workload basket and records
//! the result in `BENCH_sim.json` in the current working directory.
//!
//! Every experiment in this repository is bottlenecked by single-simulation
//! wall-clock, so the perf trajectory is tracked *in tree*: each
//! `run-experiments perf` invocation appends one run (per-workload median
//! wall-ns, simulated cycles/second where applicable, and the total) to the
//! JSON file, giving successive PRs a before/after record without any
//! external tooling.
//!
//! The basket is fixed so numbers stay comparable across runs:
//!
//! * three applications (MM, RED, GCON at quick sizes), detection off and on,
//! * eight microbenchmarks spanning the suite's categories, detection off
//!   and on,
//! * one fuzzed-trace replay straight through the detector (no simulator),
//! * GCON scaled 4× (detection off and on) — one long simulation,
//! * the quick and full Table VI sweeps at `--jobs 1` — the end-to-end
//!   number the ROADMAP's "as fast as the hardware allows" goal is graded
//!   on.
//!
//! Every entry is timed with no instrumentation running: the wall time is
//! the whole simulation and nothing else.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scor_suite::micro::all_micros;
use scord_core::{Detector, FuzzConfig, ScordDetector};
use scord_sim::DetectionMode;

use crate::exec::Jobs;
use crate::{apps, HarnessError, MemoryVariant};

/// Seed for the fuzz-replay basket entry; fixed so every run replays the
/// identical trace.
const FUZZ_SEED: u64 = 42;
/// Events in the fuzz-replay trace — large enough that detector throughput
/// (not trace generation) dominates the measurement.
const FUZZ_EVENTS: u32 = 20_000;

/// The eight basket microbenchmarks, one per suite family plus the
/// highest-traffic variants.
const BASKET_MICROS: [&str; 8] = [
    "atom-nr-dev-dev-diff-block",
    "atom-racey-cta-cta-diff-block",
    "fence-nr-diff-block-gl-fence",
    "fence-racey-diff-block-missing",
    "lock-nr-device-diff-block",
    "lock-racey-block-diff-block",
    "lock-racey-store-escapes-cs",
    "atom-racey-dev-then-weak-load-diff-block",
];

/// A typed value in a [`Measurement`]'s `extra` fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExtraValue {
    /// An integer field (byte counts, cycle counts).
    U64(u64),
    /// A fractional field (error percentages).
    F64(f64),
}

impl ExtraValue {
    /// JSON rendering of the value.
    fn render(self) -> String {
        match self {
            ExtraValue::U64(v) => v.to_string(),
            ExtraValue::F64(v) => format!("{v:.3}"),
        }
    }
}

/// One timed basket entry.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Entry name, e.g. `MM/off` or `table6_quick_sweep`.
    pub name: String,
    /// Median wall time over the run's iterations.
    pub wall: Duration,
    /// Simulated GPU cycles per iteration (0 for sweep/replay entries that
    /// aggregate many simulations).
    pub cycles: u64,
    /// Entry-specific key/value fields appended to the JSON record verbatim
    /// (footprint bytes, sampled-extrapolation cycles and error bounds).
    /// Empty for basket entries.
    pub extra: Vec<(&'static str, ExtraValue)>,
}

impl Measurement {
    /// Simulated cycles per wall second (0.0 when `cycles` is 0).
    #[must_use]
    pub fn cycles_per_sec(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// One full perf run: the basket measured at a point in time.
#[derive(Debug, Clone)]
pub struct PerfRun {
    /// Run label (e.g. a PR tag), from `--label`.
    pub label: String,
    /// Iterations per entry (median taken).
    pub iters: usize,
    /// Per-entry measurements, in basket order.
    pub workloads: Vec<Measurement>,
}

impl PerfRun {
    /// Sum of the per-entry medians.
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.workloads.iter().map(|m| m.wall).sum()
    }
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `body` `iters` times, returning the median wall time and the last
/// iteration's result.
fn time_entry<T: Default>(iters: usize, mut body: impl FnMut() -> T) -> (Duration, T) {
    let mut samples = Vec::with_capacity(iters);
    let mut last = T::default();
    for _ in 0..iters {
        let t0 = Instant::now();
        last = body();
        samples.push(t0.elapsed());
    }
    (median(samples), last)
}

/// Builds a GPU for one basket simulation.
fn basket_gpu(mode: DetectionMode) -> scord_sim::Gpu {
    scord_sim::Gpu::new(MemoryVariant::Default.config().with_detection(mode))
}

/// Runs `app` on a fresh basket GPU and returns its simulated cycles.
fn timed_app(app: &dyn scor_suite::Benchmark, mode: DetectionMode) -> u64 {
    let run = app
        .run(&mut basket_gpu(mode))
        .unwrap_or_else(|e| panic!("{} failed: {e}", app.name()));
    assert!(
        run.output_valid != Some(false),
        "{} produced wrong output",
        app.name()
    );
    run.stats.cycles
}

/// One basket entry with no extra fields.
fn entry(name: String, wall: Duration, cycles: u64) -> Measurement {
    Measurement {
        name,
        wall,
        cycles,
        extra: Vec::new(),
    }
}

/// Runs the fixed basket with `iters` iterations per entry (median
/// reported).
///
/// # Panics
///
/// Panics if a basket workload fails to simulate — the basket is a fixed
/// set of known-clean workloads, so a failure is a harness bug.
#[must_use]
pub fn run(iters: usize, label: &str) -> PerfRun {
    let iters = iters.max(1);
    let mut workloads = Vec::new();
    let modes = [
        ("off", DetectionMode::Off),
        ("scord", DetectionMode::scord()),
    ];

    // Three applications at quick sizes (MM, RED, GCON), then GCON scaled
    // 4× as the one long simulation.
    let suite = apps(true);
    let big = scor_suite::apps::GraphConnectivity::scaled(4);
    let basket_apps = suite
        .iter()
        .map(AsRef::as_ref)
        .filter(|a| matches!(a.name(), "MM" | "RED" | "GCON"))
        .map(|a| (a.name().to_string(), a))
        .chain([("GCONx4".to_string(), &big as &dyn scor_suite::Benchmark)]);
    for (name, app) in basket_apps {
        for (mode_name, mode) in modes {
            let (wall, cycles) = time_entry(iters, || timed_app(app, mode));
            workloads.push(entry(format!("{name}/{mode_name}"), wall, cycles));
        }
    }

    // Eight microbenchmarks.
    let micros = all_micros();
    for name in BASKET_MICROS {
        let m = micros
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("basket micro {name:?} missing from the suite"));
        for (mode_name, mode) in modes {
            let (wall, cycles) = time_entry(iters, || {
                m.run(&mut basket_gpu(mode))
                    .unwrap_or_else(|e| panic!("{}: {e}", m.name))
                    .cycles
            });
            workloads.push(entry(format!("{name}/{mode_name}"), wall, cycles));
        }
    }

    // One fuzzed-trace replay straight through the detector.
    let trace = FuzzConfig {
        events: FUZZ_EVENTS,
        ..FuzzConfig::default()
    }
    .generate(FUZZ_SEED);
    let (wall, ()) = time_entry(iters, || {
        let mut det = ScordDetector::new(crate::diff::diff_config());
        trace
            .replay(&mut det)
            .unwrap_or_else(|e| panic!("fuzz basket trace must replay: {e}"));
        std::hint::black_box(det.races().unique_count());
    });
    workloads.push(entry(format!("fuzz_replay_{FUZZ_EVENTS}ev"), wall, 0));

    // The Table VI sweeps, serial: the end-to-end regression tripwire.
    for (name, quick) in [("table6_quick_sweep", true), ("table6_full_sweep", false)] {
        let (wall, ()) = time_entry(iters, || {
            crate::table6::run(quick, Jobs::serial()).expect("table6 sweep");
        });
        workloads.push(entry(name.into(), wall, 0));
    }

    PerfRun {
        label: label.to_string(),
        iters,
        workloads,
    }
}

/// Renders a perf run as a markdown table (stdout companion to the JSON).
#[must_use]
pub fn to_markdown(run: &PerfRun) -> String {
    let body: Vec<Vec<String>> = run
        .workloads
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{}", m.wall.as_nanos()),
                format!("{:.3}", m.wall.as_secs_f64() * 1e3),
                if m.cycles == 0 {
                    "-".into()
                } else {
                    format!("{:.0}", m.cycles_per_sec())
                },
            ]
        })
        .collect();
    let mut out = crate::render_table(
        &[
            "Workload",
            "median wall (ns)",
            "median wall (ms)",
            "sim cycles/s",
        ],
        &body,
    );
    let _ = write!(
        out,
        "\nTotal (sum of medians): {:.3} ms over {} iteration(s) per entry.",
        run.total_wall().as_secs_f64() * 1e3,
        run.iters
    );
    out
}

// ---- BENCH_sim.json ------------------------------------------------------

/// Default location of the benchmark record: `BENCH_sim.json`, relative to
/// the current working directory — never a path baked in at build time, so
/// a binary run from another checkout writes to that checkout.
#[must_use]
pub fn default_bench_path() -> PathBuf {
    PathBuf::from("BENCH_sim.json")
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_run(run: &PerfRun) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "    {{\n      \"label\": \"{}\",\n      \"iters\": {},\n      \
         \"total_wall_ns\": {},\n      \"workloads\": [\n",
        json_escape(&run.label),
        run.iters,
        run.total_wall().as_nanos()
    );
    for (i, m) in run.workloads.iter().enumerate() {
        let comma = if i + 1 < run.workloads.len() { "," } else { "" };
        let extras: String = m
            .extra
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {}", v.render()))
            .collect();
        let _ = writeln!(
            out,
            "        {{\"name\": \"{}\", \"wall_ns\": {}, \"cycles\": {}, \
             \"cycles_per_sec\": {:.1}{extras}}}{comma}",
            json_escape(&m.name),
            m.wall.as_nanos(),
            m.cycles,
            m.cycles_per_sec(),
        );
    }
    out.push_str("      ]\n    }");
    out
}

/// Extracts the raw text of each element of the top-level `"runs": [...]`
/// array from an existing benchmark record, so appending a run preserves
/// history verbatim without a full JSON parser. Returns `None` when the
/// file does not match the expected shape — the caller reports that as a
/// [`HarnessErrorKind::BenchMalformed`](crate::HarnessErrorKind) rather
/// than clobbering the record.
pub(crate) fn existing_runs(text: &str) -> Option<Vec<String>> {
    let key = text.find("\"runs\"")?;
    let open = key + text[key..].find('[')?;
    // Bracket/string-aware scan of the array body.
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut elems = Vec::new();
    let mut start = None;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => {
                if depth == 1 && start.is_none() {
                    start = Some(i);
                }
                depth += 1;
            }
            b']' | b'}' => {
                depth -= 1;
                if depth == 1 {
                    let s = start.take()?;
                    elems.push(text[s..=i].trim().to_string());
                }
                if depth == 0 {
                    return Some(elems);
                }
            }
            _ => {}
        }
    }
    None
}

/// Serializes `runs` into the `BENCH_sim.json` document format.
///
/// Schema history: 1 = per-workload `wall_ns`/`cycles`/`cycles_per_sec`;
/// 2 adds `phase_a_ns`/`phase_b_ns` to simulator entries; 3 adds per-shard
/// `phase_b_shard_ns` arrays to the sharded-memory (GCONx4) entries; 4 adds
/// per-entry `extra` key/values — memory-footprint bytes and sampled-SM
/// extrapolation cycles with their error bounds — emitted by the
/// paper-scale tier; 5 drops the phase fields again. Schema 2–4 rows were
/// timed with a per-cycle phase clock running, which roughly doubled the
/// wall time they report; schema 5 rows are timed with no instrumentation.
/// Runs recorded under older schemas are preserved verbatim (the raw-text
/// run extractor does not care about per-run fields), so a schema-5
/// document may contain runs with or without any of these keys.
fn render_document(raw_runs: &[String]) -> String {
    let mut out = String::from("{\n  \"schema\": 5,\n  \"runs\": [\n");
    for (i, r) in raw_runs.iter().enumerate() {
        // Re-indent preserved raw runs to the array's nesting level.
        let indented = if r.starts_with('{') && !r.starts_with("{\n") && !r.contains('\n') {
            format!("    {r}")
        } else if r.starts_with("    ") {
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

/// Reads the raw runs already recorded at `path` (empty when the file does
/// not exist yet).
///
/// Shared by the `BENCH_sim.json` and `BENCH_serve.json` writers: both use
/// the same `{"schema": N, "runs": [...]}` envelope.
///
/// # Errors
///
/// [`HarnessErrorKind::Io`](crate::HarnessErrorKind) when the file exists
/// but cannot be read (permissions, not-a-file);
/// [`HarnessErrorKind::BenchMalformed`](crate::HarnessErrorKind) when it
/// reads but is truncated or otherwise not the expected document shape —
/// named so a damaged record is never silently clobbered.
pub(crate) fn read_recorded_runs(path: &Path) -> Result<Vec<String>, HarnessError> {
    match fs::read_to_string(path) {
        Ok(text) => existing_runs(&text)
            .ok_or_else(|| HarnessError::bench_malformed(path.display().to_string())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(HarnessError::io(path.display().to_string(), &e)),
    }
}

/// Appends `run` to the `BENCH_sim.json` at `path` (creating it if absent)
/// and returns the number of runs now recorded.
///
/// # Errors
///
/// Typed [`HarnessError`]s: `Io` for filesystem failures (e.g. a read-only
/// checkout), `BenchMalformed` when an existing record does not parse —
/// the run is *not* written over it.
pub fn append_to_bench_json(path: &Path, run: &PerfRun) -> Result<usize, HarnessError> {
    let mut raw = read_recorded_runs(path)?;
    raw.push(render_run(run));
    let n = raw.len();
    fs::write(path, render_document(&raw))
        .map_err(|e| HarnessError::io(path.display().to_string(), &e))?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run(label: &str) -> PerfRun {
        PerfRun {
            label: label.into(),
            iters: 1,
            workloads: vec![
                entry("a/off".into(), Duration::from_nanos(1000), 500),
                Measurement {
                    name: "paper/RED/full/off/sampled5".into(),
                    wall: Duration::from_nanos(1500),
                    cycles: 800,
                    extra: vec![
                        ("extrapolated_cycles", ExtraValue::U64(300)),
                        ("error_bound_pct", ExtraValue::F64(4.25)),
                    ],
                },
                entry("sweep".into(), Duration::from_nanos(2500), 0),
            ],
        }
    }

    #[test]
    fn render_and_reextract_roundtrip() {
        let doc = render_document(&[render_run(&fake_run("one"))]);
        let runs = existing_runs(&doc).expect("document parses");
        assert_eq!(runs.len(), 1);
        assert!(runs[0].contains("\"label\": \"one\""));
        assert!(runs[0].contains("\"total_wall_ns\": 5000"));
        assert!(!runs[0].contains("phase_"), "schema 5 has no phase fields");
        // Extras ride on their own entry only, typed per value.
        assert!(runs[0].contains("\"extrapolated_cycles\": 300, \"error_bound_pct\": 4.250"));
        assert_eq!(runs[0].matches("extrapolated_cycles").count(), 1);
        // Appending preserves the first run verbatim.
        let mut raw = runs.clone();
        raw.push(render_run(&fake_run("two")));
        let doc2 = render_document(&raw);
        let runs2 = existing_runs(&doc2).expect("still parses");
        assert_eq!(runs2.len(), 2);
        assert!(runs2[0].contains("one") && runs2[1].contains("two"));
        assert_eq!(runs2[0], runs[0], "the first run is kept verbatim");
    }

    #[test]
    fn older_schema_documents_remain_appendable() {
        let old = "{\n  \"schema\": 1,\n  \"runs\": [\n    {\"label\": \"legacy\", \
                   \"iters\": 1, \"total_wall_ns\": 5, \"workloads\": [\n        \
                   {\"name\": \"x\", \"wall_ns\": 5, \"cycles\": 1, \
                   \"cycles_per_sec\": 0.2}\n      ]},\n    {\"label\": \"phased\", \
                   \"iters\": 1, \"total_wall_ns\": 9, \"workloads\": [\n        \
                   {\"name\": \"y\", \"wall_ns\": 9, \"cycles\": 2, \
                   \"cycles_per_sec\": 0.2, \"phase_a_ns\": 4, \"phase_b_ns\": 5, \
                   \"phase_b_shard_ns\": [1, 2]}\n      ]}\n  ]\n}\n";
        let mut raw = existing_runs(old).expect("older document parses");
        assert_eq!(raw.len(), 2);
        raw.push(render_run(&fake_run("new")));
        let doc = render_document(&raw);
        assert!(doc.contains("\"schema\": 5"));
        let runs = existing_runs(&doc).expect("upgraded document parses");
        assert_eq!(runs.len(), 3);
        assert!(runs[0].contains("legacy") && !runs[0].contains("phase_a_ns"));
        // A phase-timed row is kept verbatim, nested shard array included.
        assert!(runs[1].contains("\"phase_a_ns\": 4, \"phase_b_ns\": 5"));
        assert!(runs[1].contains("\"phase_b_shard_ns\": [1, 2]"));
        assert!(!runs[2].contains("phase_"));
    }

    #[test]
    fn malformed_record_is_a_named_error_not_a_clobber() {
        assert!(existing_runs("not json at all").is_none());
        assert!(existing_runs("{\"schema\": 1}").is_none());

        // A truncated record on disk surfaces as BenchMalformed and the
        // file is left untouched.
        let dir = std::env::temp_dir().join("scord-perf-bench-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_truncated.json");
        let truncated = "{\n  \"schema\": 2,\n  \"runs\": [\n    {\"label\": \"cut";
        fs::write(&path, truncated).expect("write fixture");
        let err = append_to_bench_json(&path, &fake_run("new")).expect_err("must not clobber");
        assert_eq!(err.kind, crate::HarnessErrorKind::BenchMalformed);
        assert_eq!(
            fs::read_to_string(&path).expect("still readable"),
            truncated,
            "damaged record must be preserved verbatim"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_starts_fresh_and_unreadable_path_is_io_error() {
        let dir = std::env::temp_dir().join("scord-perf-bench-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_fresh.json");
        fs::remove_file(&path).ok();
        assert!(read_recorded_runs(&path)
            .expect("absent file is fine")
            .is_empty());
        let n = append_to_bench_json(&path, &fake_run("first")).expect("creates the record");
        assert_eq!(n, 1);
        let n = append_to_bench_json(&path, &fake_run("second")).expect("appends");
        assert_eq!(n, 2);
        fs::remove_file(&path).ok();

        // A directory in place of the record is an I/O error, not a panic.
        let err = read_recorded_runs(&dir).expect_err("directories do not read as text");
        assert!(
            matches!(err.kind, crate::HarnessErrorKind::Io(..)),
            "{err:?}"
        );
    }

    #[test]
    fn default_bench_path_is_relative_to_the_working_directory() {
        assert_eq!(default_bench_path(), Path::new("BENCH_sim.json"));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn median_is_order_insensitive() {
        let d = |n| Duration::from_nanos(n);
        assert_eq!(median(vec![d(9), d(1), d(5)]), d(5));
        assert_eq!(median(vec![d(2), d(1)]), d(2));
        assert_eq!(median(vec![d(7)]), d(7));
    }

    #[test]
    fn cycles_per_sec_guards_zero() {
        let m = entry("x".into(), Duration::from_secs(1), 0);
        assert_eq!(m.cycles_per_sec(), 0.0);
        let m2 = Measurement {
            cycles: 1_000_000,
            ..m
        };
        assert!((m2.cycles_per_sec() - 1e6).abs() < 1.0);
    }

    #[test]
    fn basket_micro_names_exist_in_suite() {
        let names: Vec<&str> = all_micros().iter().map(|m| m.name).collect();
        for n in BASKET_MICROS {
            assert!(names.contains(&n), "basket micro {n:?} missing");
        }
    }
}
