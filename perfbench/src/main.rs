//! The repository benchmark. It drives the workspace only through public
//! functions and times those calls from here.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` runs the workload's layer calls untraced and then traced,
//! reports the per-layer metrics and the tracing overhead, and writes the
//! spans to `<out>/perfbench-spans-<workload>.json` (`--out` defaults to
//! the current directory; nothing else is written). The last line of
//! standard output is the JSON result; the exit code is nonzero when any
//! output check failed.

mod common;
mod explore;
mod reduction;
mod report;
mod serve;
mod sim_cells;
mod spans;
mod stats;
mod table6;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Ctx;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from(".");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("workloads: {}", workloads::names());
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::find(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of: {}",
            args.workload,
            workloads::names()
        );
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        jobs: scord_harness::Jobs::available(),
        out: args.out,
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} jobs (available_parallelism)",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        ctx.jobs.get()
    );
    let mut outcome = if args.trace {
        (workload.traced)(&ctx)
    } else {
        (workload.untraced)(&ctx)
    };
    let catalogue = if args.trace {
        report::PER_LAYER
    } else {
        if let Some(mib) = common::peak_rss_mib() {
            outcome.metrics.set("peak_rss_mib", mib);
        }
        report::END_TO_END
    };
    if args.trace {
        let path = ctx
            .out
            .join(format!("perfbench-spans-{}.json", args.workload));
        let doc = spans::to_json(&args.workload, ctx.seed, &outcome.spans);
        if let Err(e) = std::fs::create_dir_all(&ctx.out).and_then(|()| std::fs::write(&path, doc))
        {
            outcome
                .errors
                .push(format!("writing {}: {e}", path.display()));
        }
        for (name, (count, ns)) in spans::self_time_by_name(&outcome.spans) {
            eprintln!(
                "  span {name:<24} x{count:<6} self {:.6} s",
                ns as f64 / 1e9
            );
        }
    }
    for e in &outcome.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty() && outcome.tally.all_ok();
    let (line, unset) = report::result_line(outcome.tally, correct, catalogue, &outcome.metrics);
    if !unset.is_empty() {
        eprintln!(
            "not exercised by {} (reported as 0): {}",
            args.workload,
            unset.join(" ")
        );
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
