//! The workload table: name to untraced and traced entry points.

use crate::common::{Ctx, Outcome};

/// One workload's entry points.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// End-to-end run, no instrumentation.
    pub untraced: fn(&Ctx) -> Outcome,
    /// Per-layer run with spans.
    pub traced: fn(&Ctx) -> Outcome,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "table6_sweep",
        untraced: crate::table6::run,
        traced: crate::table6::run_traced,
    },
    Workload {
        name: "reduction_1m6",
        untraced: crate::reduction::run,
        traced: crate::reduction::run_traced,
    },
    Workload {
        name: "serve_session",
        untraced: crate::serve::run,
        traced: crate::serve::run_traced,
    },
    Workload {
        name: "explore_fuzz",
        untraced: crate::explore::run,
        traced: crate::explore::run_traced,
    },
];

/// Workload names, for usage messages.
#[must_use]
pub fn names() -> String {
    ALL.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
}

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
