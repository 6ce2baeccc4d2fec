//! `table6_sweep`: the 50 paper-size cells of Table VI through
//! `scord_harness::table6::run`. The inputs are the paper's, so the seed is
//! unused.
//!
//! The timed (untraced) sweep runs on one worker. With a worker per core
//! its wall time is the makespan of a few long cells (MM, 1DC) dealt out
//! dynamically, and on a shared host it also waits for every core at once:
//! ten runs of the same code spread by more than a quarter of their median.
//! One worker makes the sweep a fixed sequence of simulations whose time
//! is the simulator's. The traced run keeps one worker per core, so the
//! executor's speedup and the parallel critical path stay measured.

use scor_suite::micro::{all_micros, Micro};
use scor_suite::Benchmark;
use scord_harness::exec::{self, run_jobs};
use scord_harness::{apps_racey, table6, Jobs};
use scord_sim::{DetectionMode, Gpu, GpuConfig};

use crate::common::{
    abba, max_s, repeat_for, self_s, set_rep_metrics, set_sim_metrics, sum_stats, Ctx, Outcome,
    Setup,
};
use crate::sim_cells::{replay, run_cell, Cell, CellRun, Work};
use crate::spans::Tracer;

/// The Table VI "Total" row every run must reproduce: races present,
/// caught by the base design, caught by ScoRD.
const TOTAL: (usize, usize, usize) = (44, 44, 37);

struct Inputs {
    apps: Vec<Box<dyn Benchmark>>,
    micros: Vec<Micro>,
}

impl Inputs {
    /// Builds the racey apps and micros, and one GPU per cell (the
    /// per-simulation set-up every cell pays).
    fn build() -> Inputs {
        let inputs = Inputs {
            apps: apps_racey(false),
            micros: all_micros().into_iter().filter(|m| m.racey).collect(),
        };
        for cell in inputs.cells() {
            std::hint::black_box(Gpu::new(
                GpuConfig::paper_default().with_detection(cell.mode),
            ));
        }
        inputs
    }

    /// Cells in `table6::run`'s order: apps then micros, base then ScoRD.
    fn cells(&self) -> Vec<Cell<'_>> {
        let modes = [DetectionMode::base_design(), DetectionMode::scord()];
        let works = self
            .apps
            .iter()
            .map(|a| Work::App(a.as_ref()))
            .chain(self.micros.iter().map(Work::Micro));
        works
            .flat_map(|work| modes.map(|mode| Cell { work, mode }))
            .collect()
    }
}

/// One sweep through the harness; `Ok` only when the Total row matches.
fn sweep(jobs: Jobs) -> Result<(), String> {
    let rows = table6::run(false, jobs).map_err(|e| e.to_string())?;
    let total = rows.last().ok_or("Table VI has no rows")?;
    let got = (total.present, total.base, total.scord);
    if got == TOTAL {
        Ok(())
    } else {
        Err(format!("Table VI total {got:?}, expected {TOTAL:?}"))
    }
}

/// Untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, mut setup) = Setup::new(Inputs::build);
    let cells = inputs.cells().len() as u64;
    let (walls, total_s) = repeat_for(
        ctx.seconds,
        || setup.resample(),
        || {
            let result = sweep(Jobs::serial());
            // Drain the executor's timing registry so it does not grow.
            drop(exec::take_recorded());
            out.tally.record_many(cells, result.is_ok());
            if let Err(e) = result {
                out.errors.push(e);
            }
        },
    );
    set_rep_metrics(&mut out.metrics, &walls, out.tally.succeeded(), total_s);
    out.metrics.set("setup_s", setup.median_s());
    out
}

/// Traced run: per-layer metrics.
pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::build();
    let cells = inputs.cells();
    let tracer = Tracer::new(true);

    // The harness sweep itself, for the executor's own busy/wall account.
    drop(exec::take_recorded());
    let result = tracer.span("harness.table6", None, u64::MAX, |_| sweep(ctx.jobs));
    out.tally.record_many(cells.len() as u64, result.is_ok());
    if let Err(e) = result {
        out.errors.push(e);
    }
    if let Some(s) = exec::take_recorded()
        .into_iter()
        .find(|s| s.label == "table6")
    {
        out.metrics.set("harness.exec.busy_s", s.busy.as_secs_f64());
        out.metrics.set(
            "harness.exec.speedup",
            s.busy.as_secs_f64() / s.wall.as_secs_f64(),
        );
    }

    // The same cells, one `run_cell` per executor job, untraced and traced:
    // the difference is the tracing overhead, and the simulator's counters
    // must not move.
    let passes = abba(&mut out.metrics, &tracer, |t, _| {
        run_jobs(ctx.jobs, &cells, |i, cell| {
            run_cell(cell, t, i as u64, false)
        })
    });
    let mut stats = Vec::new();
    let mut store = (0, 0);
    for (i, cell) in cells.iter().enumerate() {
        let runs: Result<Vec<&CellRun>, String> = passes
            .iter()
            .map(|p| p[i].as_ref().map_err(Clone::clone))
            .collect();
        out.tally.record(runs.is_ok());
        match runs {
            Ok(runs) => {
                out.check(runs.iter().all(|r| r.stats == runs[0].stats), || {
                    format!(
                        "{}: SimStats differ between untraced and traced passes",
                        cell.name()
                    )
                });
                stats.push(runs[1].stats);
                if cell.is_scord() {
                    let (bytes, entries) = runs[1].store.unwrap_or_default();
                    store = (store.0.max(bytes), store.1.max(entries));
                }
            }
            Err(e) => out.errors.push(e),
        }
    }
    let plain = &passes[0];

    // Detector layer: capture each ScoRD cell's trace and replay it
    // through a fresh detector outside the simulator.
    let scord: Vec<(usize, Cell<'_>)> = cells
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, c)| c.is_scord())
        .collect();
    let replays = run_jobs(ctx.jobs, &scord, |_, (i, cell)| {
        let id = *i as u64;
        let run = run_cell(cell, &Tracer::new(false), id, true)?;
        let (trace, dc) = run
            .recorded
            .as_ref()
            .ok_or("ScoRD cell recorded no trace")?;
        let (races, events) = replay(&tracer, id, trace, *dc)?;
        Ok::<_, String>((run, races, events))
    });
    let mut events = 0;
    for ((i, cell), r) in scord.iter().zip(replays) {
        match r {
            Ok((run, races, n)) => {
                events += n;
                out.check(
                    plain[*i].as_ref().is_ok_and(|p| p.stats == run.stats),
                    || format!("{}: recording the trace changed SimStats", cell.name()),
                );
                out.check(races == run.races, || {
                    format!(
                        "{}: replay found {races} races, live run {}",
                        cell.name(),
                        run.races
                    )
                });
            }
            Err(e) => out.errors.push(e),
        }
    }

    out.spans = tracer.spans();
    let m = &mut out.metrics;
    set_sim_metrics(m, &sum_stats(&stats), self_s(&out.spans, "sim.run"));
    m.set("sim.new_ms", self_s(&out.spans, "sim.new") * 1e3);
    m.set("sim.cell_max_s", max_s(&out.spans, "bench.cell"));
    m.set(
        "core.detector.replay_ns_per_event",
        self_s(&out.spans, "core.detector.replay") * 1e9 / events.max(1) as f64,
    );
    m.set("core.store.bytes", store.0 as f64);
    m.set("core.store.entries", store.1 as f64);
    m.set("bench.spans", out.spans.len() as f64);
    out
}
