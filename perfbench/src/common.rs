//! Pieces every workload shares: run context, timing loops, simulator
//! counters and process footprint.

use std::path::PathBuf;
use std::time::Instant;

use scord_harness::Jobs;
use scord_sim::SimStats;

use crate::report::Metrics;
use crate::spans::{self_time_by_name, Span, Tracer};
use crate::stats::Tally;

/// Set-up builds before the timed loop.
const SETUP_MIN: usize = 5;
/// Between two repetitions set-up is rebuilt for this long (at least once
/// and at most [`SETUP_MAX`] times).
const SETUP_SLICE_SECONDS: f64 = 0.01;
const SETUP_MAX: usize = 101;

/// Repetitions the timed loop makes even when one outlasts `--seconds`.
const MIN_REPS: usize = 3;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop in seconds.
    pub seconds: f64,
    /// Load threads and connections (`available_parallelism`).
    pub jobs: Jobs,
    /// Directory traced runs write their spans into.
    pub out: PathBuf,
}

/// What a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Failed output checks, one line each.
    pub errors: Vec<String>,
    /// Metric values.
    pub metrics: Metrics,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Set-up timing: `setup_s` is the median of every build. The inputs are
/// built [`SETUP_MIN`] times before the timed loop and again between its
/// repetitions (see [`Setup::resample`]), so the builds span the whole run
/// as the repetitions do. Timed only at the start, the median would follow
/// the host's speed in that first fraction of a second.
pub struct Setup<F> {
    build: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Builds the inputs [`SETUP_MIN`] times and returns the last build.
    pub fn new(build: F) -> (T, Self) {
        let mut setup = Setup {
            build,
            times: Vec::new(),
        };
        let mut last = setup.timed();
        for _ in 1..SETUP_MIN {
            drop(last);
            last = setup.timed();
        }
        (last, setup)
    }

    fn timed(&mut self) -> T {
        let t = Instant::now();
        let built = (self.build)();
        self.times.push(t.elapsed().as_secs_f64());
        built
    }

    /// Builds and drops the inputs for [`SETUP_SLICE_SECONDS`].
    pub fn resample(&mut self) {
        let t0 = Instant::now();
        for _ in 0..SETUP_MAX {
            drop(self.timed());
            if t0.elapsed().as_secs_f64() >= SETUP_SLICE_SECONDS {
                break;
            }
        }
    }

    /// Median build time in seconds.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.times)
    }
}

/// Repeats `rep` until `seconds` have passed (at least [`MIN_REPS`]
/// times), calling the untimed `between` before every repetition but the
/// first. Returns each repetition's wall time and their sum.
pub fn repeat_for(
    seconds: f64,
    mut between: impl FnMut(),
    mut rep: impl FnMut(),
) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        if !walls.is_empty() {
            between();
        }
        let t = Instant::now();
        rep();
        walls.push(t.elapsed().as_secs_f64());
    }
    let busy = walls.iter().sum();
    (walls, busy)
}

/// Sets the end-to-end metrics every workload shares from repetition wall
/// times: `wall_s` and the latency percentiles are over repetitions.
pub fn set_rep_metrics(m: &mut Metrics, walls: &[f64], ops: u64, total_s: f64) {
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    eprintln!("repetition walls (s): {walls:.4?}");
    m.set("wall_s", crate::stats::median(walls));
    m.set("ops_per_s", ops as f64 / total_s);
    set_latency(m, &ms);
}

/// Sets `latency_p50_ms` / `latency_p99_ms` and logs the tail's rank.
pub fn set_latency(m: &mut Metrics, ms: &[f64]) {
    m.set("latency_p50_ms", crate::stats::median(ms));
    if let Some(t) = crate::stats::tail(ms) {
        m.set("latency_p99_ms", t.value);
        eprintln!(
            "latency_p99_ms is the p{:.1} of {} samples",
            t.pct, t.samples
        );
    }
}

/// Sums the simulator counters of several simulations.
#[must_use]
pub fn sum_stats<'a>(all: impl IntoIterator<Item = &'a SimStats>) -> SimStats {
    let mut total = SimStats::default();
    for s in all {
        total.merge(s);
    }
    total
}

/// Sets the exact simulator counters and the host-time-per-event ratios.
pub fn set_sim_metrics(m: &mut Metrics, s: &SimStats, run_s: f64) {
    let counts: [(&'static str, u64); 18] = [
        ("sim.cycles", s.cycles),
        ("sim.cycles_skipped", s.cycles_skipped),
        ("sim.warp_instructions", s.warp_instructions),
        ("sim.stall.lhd", s.stalls.lhd),
        ("sim.stall.noc_full", s.stalls.noc_full),
        ("sim.stall.memory", s.stalls.memory),
        ("sim.stall.barrier", s.stalls.barrier),
        ("sim.l1.hits", s.l1_hits),
        ("sim.l1.misses", s.l1_misses),
        ("sim.l2.data_hits", s.l2_data_hits),
        ("sim.l2.data_misses", s.l2_data_misses),
        ("sim.l2.md_hits", s.l2_md_hits),
        ("sim.l2.md_misses", s.l2_md_misses),
        ("sim.dram.data", s.dram.data()),
        ("sim.dram.metadata", s.dram.metadata()),
        ("sim.noc.flits", s.noc_flits),
        ("sim.detector_unit.events", s.detector_events),
        ("sim.detector_unit.lane_accesses", s.detector_lane_accesses),
    ];
    for (name, v) in counts {
        m.set(name, v as f64);
    }
    m.set("sim.run_s", run_s);
    m.set("sim.ns_per_cycle", run_s * 1e9 / s.cycles.max(1) as f64);
    m.set(
        "sim.ns_per_warp_inst",
        run_s * 1e9 / s.warp_instructions.max(1) as f64,
    );
}

/// Total self time of the spans named `name`, in seconds.
#[must_use]
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    self_time_by_name(spans)
        .get(name)
        .map_or(0.0, |&(_, ns)| ns as f64 / 1e9)
}

/// Longest span named `name`, in seconds.
#[must_use]
pub fn max_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .fold(0.0, f64::max)
}

/// Runs `pass` untraced, traced, traced, untraced, so that a steady drift
/// in host speed cancels from the overhead, and records the overhead: the
/// traced passes' time minus the untraced passes'. `pass` receives the
/// tracer to use and the pass number. Only `tracer` (the second pass)
/// keeps its spans. Returns the passes' results in run order.
pub fn abba<R>(
    m: &mut Metrics,
    tracer: &Tracer,
    mut pass: impl FnMut(&Tracer, u64) -> R,
) -> Vec<R> {
    let off = Tracer::new(false);
    let scratch = Tracer::new(true);
    let order: [(&Tracer, bool); 4] = [
        (&off, false),
        (tracer, true),
        (&scratch, true),
        (&off, false),
    ];
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut all = Vec::new();
    for (i, (t, traced)) in order.into_iter().enumerate() {
        let t0 = Instant::now();
        all.push(pass(t, i as u64));
        let secs = t0.elapsed().as_secs_f64();
        if traced {
            traced_s += secs;
        } else {
            untraced_s += secs;
        }
    }
    m.set("bench.untraced_s", untraced_s / 2.0);
    m.set("bench.traced_s", traced_s / 2.0);
    m.set("bench.trace_overhead_s", (traced_s - untraced_s) / 2.0);
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    all
}

/// Peak resident set of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    scord_harness::footprint::read().map(|f| f.peak_rss_bytes as f64 / (1024.0 * 1024.0))
}
