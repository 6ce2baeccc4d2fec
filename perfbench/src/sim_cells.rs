//! One simulation — a benchmark under one detector build — run through
//! `Gpu::new` / `Gpu::with_detector_factory` and `Benchmark::run` /
//! `Micro::run`, with spans around each layer call.

use scor_suite::micro::Micro;
use scor_suite::Benchmark;
use scord_core::{Detector, DetectorConfig, RecordingDetector, ScordDetector, Trace};
use scord_sim::{DetectionMode, Gpu, GpuConfig, SimStats};

use crate::spans::Tracer;

/// What is simulated.
#[derive(Clone, Copy)]
pub enum Work<'a> {
    /// An application (`Benchmark::run`).
    App(&'a dyn Benchmark),
    /// A microbenchmark (`Micro::run`).
    Micro(&'a Micro),
}

/// A workload under one detector build.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    /// What is simulated.
    pub work: Work<'a>,
    /// Detector build.
    pub mode: DetectionMode,
}

impl Cell<'_> {
    /// Workload name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.work {
            Work::App(a) => a.name(),
            Work::Micro(m) => m.name,
        }
    }

    /// `true` for ScoRD's shipping build (cached metadata).
    #[must_use]
    pub fn is_scord(&self) -> bool {
        self.mode == DetectionMode::scord()
    }
}

/// Result of one simulation.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Simulator counters over every launch.
    pub stats: SimStats,
    /// Unique races the detector reported (0 with detection off).
    pub races: usize,
    /// The benchmark's own output check (`None` when it skips it).
    pub output_valid: Option<bool>,
    /// Metadata-store host usage `(bytes, entries)`.
    pub store: Option<(u64, u64)>,
    /// The captured detector trace and its configuration, when recorded.
    pub recorded: Option<(Trace, DetectorConfig)>,
}

/// Simulates `cell` on a fresh GPU. With `record`, the detector is wrapped
/// in a [`RecordingDetector`] so its event trace can be replayed later.
///
/// # Errors
///
/// The simulator's error, rendered with the workload's name.
pub fn run_cell(
    cell: &Cell<'_>,
    tracer: &Tracer,
    trace_id: u64,
    record: bool,
) -> Result<CellRun, String> {
    tracer.span("bench.cell", None, trace_id, |root| {
        let cfg = GpuConfig::paper_default().with_detection(cell.mode);
        let mut seen = None;
        let mut gpu = tracer.span("sim.new", Some(root), trace_id, |_| {
            if record {
                Gpu::with_detector_factory(cfg, |dc| {
                    seen = Some(dc);
                    Box::new(RecordingDetector::new(ScordDetector::new(dc)))
                })
            } else {
                Gpu::new(cfg)
            }
        });
        let run = tracer.span("sim.run", Some(root), trace_id, |_| match cell.work {
            Work::App(app) => app.run(&mut gpu).map(|r| (r.stats, r.output_valid)),
            Work::Micro(m) => m.run(&mut gpu).map(|s| (s, None)),
        });
        let (stats, output_valid) = run.map_err(|e| format!("{}: {e}", cell.name()))?;
        let recorded = seen.and_then(|dc| Some((gpu.recorded_trace()?.clone(), dc)));
        Ok(CellRun {
            stats,
            races: gpu.races().map_or(0, scord_core::RaceLog::unique_count),
            output_valid,
            store: gpu.detector_store_usage(),
            recorded,
        })
    })
}

/// Replays a captured trace through a fresh [`ScordDetector`] outside the
/// simulator, returning its unique race count and the events replayed.
///
/// # Errors
///
/// The replay error, rendered.
pub fn replay(
    tracer: &Tracer,
    trace_id: u64,
    trace: &Trace,
    dc: DetectorConfig,
) -> Result<(usize, usize), String> {
    tracer.span("core.detector.replay", None, trace_id, |_| {
        let mut det = ScordDetector::new(dc);
        trace.replay(&mut det).map_err(|e| e.to_string())?;
        Ok((det.races().unique_count(), trace.len()))
    })
}
