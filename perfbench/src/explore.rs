//! `explore_fuzz`: the schedule-space audit over 200 seeded fuzzed traces
//! (about 240 events each, schedule bound 64) through
//! `scord_harness::explore::run`, with the exact oracle as judge. The
//! timed audit runs on one worker, like `table6_sweep`'s sweep, and cycles
//! through [`CORPORA`] corpora seeded from `--seed`; the traced run audits
//! the first of them with one worker per core.

use std::collections::BTreeSet;
use std::time::Instant;

use scord_core::explore::{explore, oracle_keys, ExploreConfig};
use scord_core::fault::SplitMix64;
use scord_core::predict::{predict, PredictConfig, PredictionClass};
use scord_core::{Detector, FuzzConfig, ScordDetector, Trace};
use scord_harness::diff::{diff_config, Divergence};
use scord_harness::exec::run_jobs;
use scord_harness::explore as audit;
use scord_harness::Jobs;

use crate::common::{abba, repeat_for, self_s, set_rep_metrics, Ctx, Outcome, Setup};
use crate::spans::Tracer;

/// Fuzzed traces per audit.
const CASES: usize = 200;
/// Interleavings explored per trace beyond the captured one.
const BOUND: u32 = 64;
/// Corpora the timed loop audits in turn. An audit's cost depends on its
/// corpus by about a tenth, so one corpus would make `wall_s` follow the
/// seed; the median over several follows the code.
const CORPORA: usize = 8;

/// Seed of the `k`-th corpus of a run; the first is `seed` itself.
fn corpus_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One audited trace: its schedule seed and events.
struct Case {
    seed: u64,
    trace: Trace,
}

/// The audit's corpus for `seed`: the same rotation of race-injection
/// rates and machine shapes, and the same per-case seeds, that
/// `scord_harness::explore::run` derives internally.
fn corpus(seed: u64) -> Vec<Case> {
    const RACE_PCT: [u32; 4] = [0, 10, 30, 60];
    const SHAPES: [(u8, u8, u8); 4] = [(2, 2, 2), (1, 2, 4), (2, 1, 2), (3, 2, 1)];
    let mut root = SplitMix64::new(seed);
    (0..CASES)
        .map(|i| {
            let (sms, blocks_per_sm, warps_per_block) = SHAPES[(i / 4) % 4];
            let seed = root.next_u64();
            let cfg = FuzzConfig {
                sms,
                blocks_per_sm,
                warps_per_block,
                race_pct: RACE_PCT[i % 4],
                ..FuzzConfig::default()
            };
            Case {
                seed,
                trace: cfg.generate(seed),
            }
        })
        .collect()
}

/// Untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seeds: Vec<u64> = (0..CORPORA).map(|k| corpus_seed(ctx.seed, k)).collect();
    // Set-up generates the corpora the audit generates internally; only
    // their trace lengths are kept, to check that the two agree.
    let (lengths, mut setup) = Setup::new(|| {
        seeds
            .iter()
            .map(|&s| corpus(s).iter().map(|c| c.trace.len()).collect())
            .collect::<Vec<Vec<usize>>>()
    });
    let mut race_keys: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); CORPORA];
    let mut reps = 0;
    let (walls, total_s) = repeat_for(
        ctx.seconds,
        || setup.resample(),
        || {
            let k = reps % CORPORA;
            reps += 1;
            let summary = audit::run(seeds[k], CASES, BOUND, Jobs::serial());
            out.check(summary.rows.len() == CASES, || {
                format!(
                    "audit returned {} rows for {CASES} cases",
                    summary.rows.len()
                )
            });
            for row in &summary.rows {
                let unconfirmed = row
                    .counts
                    .get(&Divergence::PredUnconfirmed)
                    .copied()
                    .unwrap_or(0);
                out.tally.record(unconfirmed == 0);
                out.check(unconfirmed == 0, || {
                    format!("{}: {unconfirmed} unconfirmed predictions", row.name)
                });
            }
            out.check(summary.bugs.is_empty(), || {
                format!(
                    "{} minimized unconfirmed-prediction reproducers",
                    summary.bugs.len()
                )
            });
            race_keys[k].insert(summary.rows.iter().map(|r| r.explored_keys).sum::<usize>());
            let same_corpus = summary
                .rows
                .iter()
                .zip(&lengths[k])
                .all(|(row, &len)| row.events == len);
            if !same_corpus {
                eprintln!("warning: set-up corpus differs from the audit's own corpus");
            }
        },
    );
    out.check(race_keys.iter().all(|keys| keys.len() <= 1), || {
        format!("race keys differ between audits of one corpus: {race_keys:?}")
    });
    eprintln!("race_keys per corpus (oracle-confirmed, summed over traces): {race_keys:?}");
    set_rep_metrics(&mut out.metrics, &walls, out.tally.succeeded(), total_s);
    out.metrics.set("setup_s", setup.median_s());
    out
}

/// Per-trace counts from the explorer and predictor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    events: usize,
    schedules_run: usize,
    found: usize,
    beyond: usize,
    raw_candidates: usize,
    classes: [usize; 5],
}

const CLASSES: [(PredictionClass, &str); 5] = [
    (PredictionClass::Confirmed, "core.predict.confirmed"),
    (PredictionClass::LockMutex, "core.predict.lock_mutex"),
    (
        PredictionClass::AtomicCommute,
        "core.predict.atomic_commute",
    ),
    (PredictionClass::SyncForced, "core.predict.sync_forced"),
    (PredictionClass::Unconfirmed, "core.predict.unconfirmed"),
];

/// The audit's layer calls for one trace, each in its own span.
fn audit_case(tracer: &Tracer, id: u64, case: &Case) -> Result<Counts, String> {
    let dc = diff_config();
    let trace = &case.trace;
    tracer.span("bench.case", None, id, |root| {
        tracer.span("core.detector.replay", Some(root), id, |_| {
            let mut det = ScordDetector::new(dc);
            trace.replay(&mut det).map_err(|e| e.to_string())?;
            Ok::<_, String>(det.races().unique_count())
        })?;
        tracer
            .span("core.oracle.replay", Some(root), id, |_| {
                oracle_keys(trace, dc.geometry)
            })
            .map_err(|e| e.to_string())?;
        let cfg = ExploreConfig {
            bound: BOUND,
            seed: case.seed,
        };
        let ex = tracer
            .span("core.explore", Some(root), id, |_| {
                explore(trace, dc.geometry, &cfg)
            })
            .map_err(|e| e.to_string())?;
        let pcfg = PredictConfig {
            seed: case.seed,
            ..PredictConfig::default()
        };
        let pred = tracer
            .span("core.predict", Some(root), id, |_| {
                predict(trace, dc.geometry, &pcfg)
            })
            .map_err(|e| e.to_string())?;
        Ok(Counts {
            events: trace.len(),
            schedules_run: ex.schedules_run,
            found: ex.found.len(),
            beyond: ex.beyond_baseline().len(),
            raw_candidates: pred.raw_candidates,
            classes: CLASSES.map(|(c, _)| pred.count(c)),
        })
    })
}

/// Traced run: per-layer metrics.
pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(true);
    let t0 = Instant::now();
    let cases = tracer.span("core.fuzz.gen", None, u64::MAX, |_| corpus(ctx.seed));
    let gen_s = t0.elapsed().as_secs_f64();
    let passes = abba(&mut out.metrics, &tracer, |t, _| {
        run_jobs(ctx.jobs, &cases, |i, case| audit_case(t, i as u64, case))
    });
    let mut total = Counts::default();
    for i in 0..cases.len() {
        let runs: Result<Vec<Counts>, String> = passes.iter().map(|p| p[i].clone()).collect();
        let ok = runs.as_ref().is_ok_and(|r| r[1].classes[4] == 0);
        out.tally.record(ok);
        match runs {
            Ok(runs) => {
                let b = runs[1];
                out.check(runs.iter().all(|r| *r == b), || {
                    format!("case {i}: counts differ between passes")
                });
                out.check(b.classes[4] == 0, || {
                    format!("case {i}: unconfirmed predictions")
                });
                total.events += b.events;
                total.schedules_run += b.schedules_run;
                total.found += b.found;
                total.beyond += b.beyond;
                total.raw_candidates += b.raw_candidates;
                for (t, c) in total.classes.iter_mut().zip(b.classes) {
                    *t += c;
                }
            }
            Err(e) => out.errors.push(format!("case {i}: {e}")),
        }
    }

    out.spans = tracer.spans();
    let m = &mut out.metrics;
    let events = total.events.max(1) as f64;
    let attempted = cases.len() * (BOUND as usize + 1);
    let reordered = total.schedules_run.saturating_sub(cases.len()).max(1);
    m.set("core.explore.s", self_s(&out.spans, "core.explore"));
    m.set("core.predict.s", self_s(&out.spans, "core.predict"));
    m.set(
        "core.oracle.replay_ns_per_event",
        self_s(&out.spans, "core.oracle.replay") * 1e9 / events,
    );
    m.set(
        "core.detector.replay_ns_per_event",
        self_s(&out.spans, "core.detector.replay") * 1e9 / events,
    );
    m.set("core.explore.schedules_attempted", attempted as f64);
    m.set("core.explore.schedules_run", total.schedules_run as f64);
    m.set(
        "core.explore.redundant",
        attempted.saturating_sub(total.schedules_run) as f64,
    );
    m.set("core.explore.keys_beyond_baseline", total.beyond as f64);
    m.set(
        "core.explore.new_keys_per_schedule",
        total.beyond as f64 / reordered as f64,
    );
    m.set("core.explore.race_keys", total.found as f64);
    m.set("core.predict.raw_candidates", total.raw_candidates as f64);
    for ((_, name), n) in CLASSES.iter().zip(total.classes) {
        m.set(name, n as f64);
    }
    m.set("core.fuzz.gen_ms", gen_s * 1e3);
    m.set("bench.spans", out.spans.len() as f64);
    out
}
