//! Paper-scale sweep tier: the suite's applications at the *paper's* input
//! sizes, with the instrumentation those sizes exist to exercise.
//!
//! The regular perf basket ([`crate::perf`]) runs quick-size workloads so a
//! basket stays under a minute; this tier deliberately runs the big ones —
//! the 25.6M-element reduction, the 800×500×30 matrix multiply, and R-MAT
//! graphs at 10×+ the default — because two questions only show up at
//! that scale:
//!
//! 1. **Does sampled-SM extrapolation hold?** Each sampled entry runs the
//!    simulator with `sample_sms = K` detailed SMs plus ghost contention
//!    traffic for the rest (see `scord_sim::sample`), and records the
//!    measured, compute-term, memory-term and extrapolated cycle counts
//!    with the model's error bound. When the matching full-detail entry
//!    ran in the same sweep, the realized `sampled_vs_full_err_pct` is
//!    recorded next to the bound — the acceptance number.
//! 2. **What does the detector's metadata actually cost in memory?** Every
//!    entry snapshots the process footprint ([`crate::footprint`]) after
//!    the run, and detection-on entries add the metadata store's own byte
//!    accounting (`Gpu::detector_store_usage`).
//!
//! Results append to the same `BENCH_sim.json` as the perf basket, as rows
//! whose `extra` fields carry the numbers above. Extrapolated
//! cycle counts are **never** fed into paper tables — they appear only
//! here, always next to their error bound.

use std::time::Instant;

use scor_suite::apps::{GraphConnectivity, MatMul, Reduction};
use scor_suite::Benchmark;
use scord_sim::{DetectionMode, Gpu, GpuConfig};

use crate::footprint;
use crate::perf::{ExtraValue, Measurement, PerfRun};
use crate::render_table;

/// Heap given to the simulated GPU: paper-scale inputs (25.6M words of
/// reduction input, 1M-vertex graphs) outgrow the 64 MiB default.
const PAPER_MEM_BYTES: u64 = 192 << 20;

/// Options for one paper-scale sweep.
#[derive(Debug, Clone)]
pub struct PaperScaleOptions {
    /// Shrink inputs ~16× for CI (`--quick`). The row *structure* is
    /// identical, so schema validation exercises the same code paths.
    pub quick: bool,
    /// Detailed SMs for the sampled entries (`--sample-sms`); 0 skips them.
    pub sample_sms: u32,
    /// Run label recorded in `BENCH_sim.json`.
    pub label: String,
}

impl Default for PaperScaleOptions {
    fn default() -> Self {
        PaperScaleOptions {
            quick: false,
            sample_sms: 5,
            label: "paper-scale".into(),
        }
    }
}

/// The reduction at paper scale (25.6M elements) or the quick stand-in.
fn reduction(quick: bool) -> Reduction {
    Reduction {
        elements: if quick { 1_600_000 } else { 25_600_000 },
        blocks: 120,
        threads_per_block: 128,
        ..Reduction::default()
    }
}

/// The matrix multiply at the paper's geometry (800×500×30), or a ~16×
/// smaller same-shape instance for quick mode — detection-on at the full
/// geometry alone costs minutes, which belongs in the recorded full tier,
/// not CI.
fn matmul(quick: bool) -> MatMul {
    let mm = MatMul {
        m: 800,
        k: 500,
        n: 30,
        ..MatMul::default()
    };
    if quick {
        MatMul {
            m: 200,
            k: 125,
            ..mm
        }
    } else {
        mm
    }
}

/// Graph-connectivity scale multipliers for the tier: R-MAT graphs at
/// 10×, 30× and 100× the default node count. All three complete in
/// seconds-to-minutes on a dev host now that `GraphConnectivity::scaled`
/// caps its grid at full residency (an over-cap grid wedges the kernel's
/// inter-block sync — see that method's docs).
fn gcon_tiers(quick: bool) -> &'static [u32] {
    if quick {
        &[2]
    } else {
        &[10, 30, 100]
    }
}

/// Builds the GPU for one entry.
fn gpu(mode: DetectionMode, sample_sms: u32) -> Gpu {
    let mut cfg = GpuConfig::paper_default()
        .with_detection(mode)
        .with_sample_sms(sample_sms);
    cfg.mem_bytes = PAPER_MEM_BYTES;
    Gpu::new(cfg)
}

/// Runs `app` once on `gpu` and folds the result plus the footprint
/// snapshot into a [`Measurement`].
fn run_entry(name: String, app: &dyn Benchmark, gpu: &mut Gpu) -> Measurement {
    let t0 = Instant::now();
    let run = app
        .run(gpu)
        .unwrap_or_else(|e| panic!("paper-scale {name} failed: {e}"));
    let wall = t0.elapsed();
    assert!(
        run.output_valid != Some(false),
        "paper-scale {name} produced wrong output"
    );
    let mut extra = Vec::new();
    if let Some(f) = footprint::read() {
        extra.push(("peak_rss_bytes", ExtraValue::U64(f.peak_rss_bytes)));
        extra.push(("rss_bytes", ExtraValue::U64(f.rss_bytes)));
    }
    if let Some((bytes, entries)) = gpu.detector_store_usage() {
        extra.push(("store_bytes", ExtraValue::U64(bytes)));
        extra.push(("store_entries", ExtraValue::U64(entries)));
    }
    if let Some(r) = gpu.sample_report() {
        extra.push(("measured_cycles", ExtraValue::U64(r.measured_cycles)));
        extra.push((
            "compute_term_cycles",
            ExtraValue::U64(r.compute_term_cycles),
        ));
        extra.push(("memory_term_cycles", ExtraValue::U64(r.memory_term_cycles)));
        extra.push((
            "extrapolated_cycles",
            ExtraValue::U64(r.extrapolated_cycles),
        ));
        extra.push(("error_bound_pct", ExtraValue::F64(r.error_bound_pct)));
    }
    Measurement {
        name,
        wall,
        cycles: run.stats.cycles,
        extra,
    }
}

/// Value of an extra field on a measurement, if present.
fn extra_of(m: &Measurement, key: &str) -> Option<ExtraValue> {
    m.extra.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Runs the paper-scale tier and returns the run for recording.
///
/// # Panics
///
/// Panics if a workload fails to simulate or validates wrong output —
/// these are fixed, known-clean configurations, so failure is a bug.
#[must_use]
pub fn run(opts: &PaperScaleOptions) -> PerfRun {
    let size = if opts.quick { "quick" } else { "full" };
    let mut workloads = Vec::new();

    // Full-detail reduction, detection off: the baseline the sampled row's
    // extrapolation error is judged against.
    let red = reduction(opts.quick);
    let full = run_entry(
        format!("paper/RED/{size}/off"),
        &red,
        &mut gpu(DetectionMode::Off, 0),
    );
    let full_red_cycles = full.cycles;
    workloads.push(full);

    // Full-detail reduction with detection on: the metadata-store cost row.
    workloads.push(run_entry(
        format!("paper/RED/{size}/scord"),
        &red,
        &mut gpu(DetectionMode::scord(), 0),
    ));

    // Sampled reduction: K detailed SMs. Record the realized error
    // against the full-detail baseline next to the model's own bound.
    if opts.sample_sms > 0 {
        let mut m = run_entry(
            format!("paper/RED/{size}/off/sampled{}", opts.sample_sms),
            &red,
            &mut gpu(DetectionMode::Off, opts.sample_sms),
        );
        if let Some(ExtraValue::U64(extrap)) = extra_of(&m, "extrapolated_cycles") {
            let err = (extrap as f64 - full_red_cycles as f64) / full_red_cycles as f64 * 100.0;
            m.extra
                .push(("sampled_vs_full_err_pct", ExtraValue::F64(err)));
        }
        workloads.push(m);
    }

    // Matrix multiply at paper geometry, detection off and on.
    let mm = matmul(opts.quick);
    for (mode_name, mode) in [
        ("off", DetectionMode::Off),
        ("scord", DetectionMode::scord()),
    ] {
        workloads.push(run_entry(
            format!("paper/MM/{size}/{mode_name}"),
            &mm,
            &mut gpu(mode, 0),
        ));
    }

    // R-MAT graph connectivity at the tier's scale multipliers.
    for &mult in gcon_tiers(opts.quick) {
        let gcon = GraphConnectivity::scaled(mult);
        workloads.push(run_entry(
            format!("paper/GCONx{mult}/off"),
            &gcon,
            &mut gpu(DetectionMode::Off, 0),
        ));
    }

    PerfRun {
        label: opts.label.clone(),
        iters: 1,
        workloads,
    }
}

/// Renders a paper-scale run as markdown. Extrapolated cycle counts are
/// always printed with their error bound (`≈N ±B%`) so they cannot be
/// mistaken for measured numbers.
#[must_use]
pub fn to_markdown(run: &PerfRun) -> String {
    let rows: Vec<Vec<String>> = run
        .workloads
        .iter()
        .map(|m| {
            let cycles = match (
                extra_of(m, "extrapolated_cycles"),
                extra_of(m, "error_bound_pct"),
            ) {
                (Some(ExtraValue::U64(e)), Some(ExtraValue::F64(b))) => {
                    format!("≈{e} ±{b:.1}% (measured {})", m.cycles)
                }
                _ => m.cycles.to_string(),
            };
            let footprint = match (extra_of(m, "peak_rss_bytes"), extra_of(m, "store_bytes")) {
                (Some(ExtraValue::U64(p)), Some(ExtraValue::U64(s))) => {
                    format!("{:.1} MiB peak / {:.1} MiB store", mib(p), mib(s))
                }
                (Some(ExtraValue::U64(p)), _) => format!("{:.1} MiB peak", mib(p)),
                _ => "-".into(),
            };
            let note = match extra_of(m, "sampled_vs_full_err_pct") {
                Some(ExtraValue::F64(e)) => format!("vs full: {e:+.1}%"),
                _ => "-".into(),
            };
            vec![
                m.name.clone(),
                format!("{:.1}", m.wall.as_secs_f64() * 1e3),
                cycles,
                footprint,
                note,
            ]
        })
        .collect();
    let mut out = format!(
        "## Paper-scale run `{}` ({} entries)\n\n",
        run.label,
        run.workloads.len()
    );
    out.push_str(&render_table(
        &["entry", "wall ms", "cycles", "footprint", "notes"],
        &rows,
    ));
    out
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quick_tier_shapes_are_fixed() {
        assert_eq!(gcon_tiers(true), &[2]);
        assert_eq!(gcon_tiers(false), &[10, 30, 100]);
        assert_eq!(reduction(true).elements, 1_600_000);
        assert_eq!(reduction(false).elements, 25_600_000);
        let mm = matmul(false);
        assert_eq!((mm.m, mm.k, mm.n), (800, 500, 30));
        let quick_mm = matmul(true);
        assert_eq!((quick_mm.m, quick_mm.k, quick_mm.n), (200, 125, 30));
    }

    #[test]
    fn markdown_marks_extrapolated_cycles() {
        let run = PerfRun {
            label: "t".into(),
            iters: 1,
            workloads: vec![
                Measurement {
                    name: "paper/RED/full/off/sampled5".into(),
                    wall: Duration::from_millis(10),
                    cycles: 900,
                    extra: vec![
                        ("extrapolated_cycles", ExtraValue::U64(2700)),
                        ("error_bound_pct", ExtraValue::F64(9.5)),
                        ("sampled_vs_full_err_pct", ExtraValue::F64(-2.0)),
                    ],
                },
                Measurement {
                    name: "paper/RED/full/off".into(),
                    wall: Duration::from_millis(30),
                    cycles: 2750,
                    extra: vec![("peak_rss_bytes", ExtraValue::U64(512 << 20))],
                },
            ],
        };
        let md = to_markdown(&run);
        assert!(md.contains("≈2700 ±9.5% (measured 900)"), "{md}");
        assert!(md.contains("vs full: -2.0%"), "{md}");
        assert!(md.contains("512.0 MiB peak"), "{md}");
        // The plain row prints its measured cycles unadorned.
        assert!(md.contains("| 2750 |"), "{md}");
    }
}
