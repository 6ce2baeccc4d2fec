//! `reduction_1m6`: one 1.6M-element `Reduction` (120 blocks x 128
//! threads, the paper-scale quick size) with inputs from the seed,
//! simulated with detection off and then under ScoRD on one thread.

use scor_suite::apps::Reduction;
use scord_sim::{DetectionMode, Gpu, GpuConfig};

use crate::common::{
    abba, max_s, repeat_for, self_s, set_rep_metrics, set_sim_metrics, sum_stats, Ctx, Outcome,
    Setup,
};
use crate::sim_cells::{replay, run_cell, Cell, CellRun, Work};
use crate::spans::Tracer;

fn reduction(seed: u64) -> Reduction {
    Reduction {
        elements: 1_600_000,
        blocks: 120,
        threads_per_block: 128,
        seed,
        ..Reduction::default()
    }
}

/// Detection off, then ScoRD.
fn cells(red: &Reduction) -> [Cell<'_>; 2] {
    [DetectionMode::Off, DetectionMode::scord()].map(|mode| Cell {
        work: Work::App(red),
        mode,
    })
}

/// Checks one simulation: valid output and no races.
fn checked(cell: &Cell<'_>, run: &Result<CellRun, String>) -> Result<(), String> {
    let run = run.as_ref().map_err(Clone::clone)?;
    if run.output_valid != Some(true) {
        return Err(format!(
            "RED/{:?}: output_valid = {:?}",
            cell.mode, run.output_valid
        ));
    }
    if run.races != 0 || run.stats.unique_races != 0 {
        return Err(format!(
            "RED/{:?}: {} races on a race-free input",
            cell.mode, run.races
        ));
    }
    Ok(())
}

/// Both simulations, each checked.
fn pass(red: &Reduction, tracer: &Tracer) -> Vec<Result<CellRun, String>> {
    cells(red)
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let run = run_cell(cell, tracer, i as u64, false);
            checked(cell, &run)?;
            run
        })
        .collect()
}

/// Counts each simulation; returns the successful runs.
fn tally(out: &mut Outcome, runs: Vec<Result<CellRun, String>>) -> Vec<CellRun> {
    let mut ok = Vec::new();
    for run in runs {
        out.tally.record(run.is_ok());
        match run {
            Ok(run) => ok.push(run),
            Err(e) => out.errors.push(e),
        }
    }
    ok
}

/// Untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (red, mut setup) = Setup::new(|| {
        let red = reduction(ctx.seed);
        for cell in cells(&red) {
            std::hint::black_box(Gpu::new(
                GpuConfig::paper_default().with_detection(cell.mode),
            ));
        }
        red
    });
    let untraced = Tracer::new(false);
    let (walls, total_s) = repeat_for(
        ctx.seconds,
        || setup.resample(),
        || {
            let runs = pass(&red, &untraced);
            tally(&mut out, runs);
        },
    );
    set_rep_metrics(&mut out.metrics, &walls, out.tally.succeeded(), total_s);
    out.metrics.set("setup_s", setup.median_s());
    out
}

/// Traced run: per-layer metrics.
pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let red = reduction(ctx.seed);
    let tracer = Tracer::new(true);
    let passes: Vec<Vec<CellRun>> = abba(&mut out.metrics, &tracer, |t, _| pass(&red, t))
        .into_iter()
        .map(|runs| tally(&mut out, runs))
        .collect();
    out.check(
        passes
            .iter()
            .all(|p| p.len() == 2 && p.iter().zip(&passes[0]).all(|(a, b)| a.stats == b.stats)),
        || "SimStats differ between untraced and traced passes".into(),
    );
    let traced = &passes[1];

    // Detector layer: capture the ScoRD run's trace and replay it.
    let scord = cells(&red)[1];
    let mut events = 0;
    match run_cell(&scord, &Tracer::new(false), 1, true).and_then(|run| {
        let (trace, dc) = run.recorded.as_ref().ok_or("ScoRD run recorded no trace")?;
        let (races, n) = replay(&tracer, 1, trace, *dc)?;
        Ok((run, races, n))
    }) {
        Ok((run, races, n)) => {
            events = n;
            out.check(traced.get(1).is_some_and(|t| t.stats == run.stats), || {
                "recording the trace changed SimStats".into()
            });
            out.check(races == 0, || format!("replay found {races} races"));
        }
        Err(e) => out.errors.push(e),
    }

    out.spans = tracer.spans();
    let m = &mut out.metrics;
    set_sim_metrics(
        m,
        &sum_stats(traced.iter().map(|r| &r.stats)),
        self_s(&out.spans, "sim.run"),
    );
    m.set("sim.new_ms", self_s(&out.spans, "sim.new") * 1e3);
    m.set("sim.cell_max_s", max_s(&out.spans, "bench.cell"));
    m.set(
        "core.detector.replay_ns_per_event",
        self_s(&out.spans, "core.detector.replay") * 1e9 / events.max(1) as f64,
    );
    let (bytes, entries) = traced.get(1).and_then(|r| r.store).unwrap_or_default();
    m.set("core.store.bytes", bytes as f64);
    m.set("core.store.entries", entries as f64);
    m.set("bench.spans", out.spans.len() as f64);
    out
}
