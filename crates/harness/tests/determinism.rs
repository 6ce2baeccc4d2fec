//! Serial/parallel equivalence: every experiment must emit byte-identical
//! tables whether its sweep runs on one worker or many, because workers
//! deposit results into job-indexed slots and each cell simulates on a
//! private `Gpu`.
//!
//! The same property is asserted for the scheduler's quiescence skip: with
//! skipping on (the default) or off, every table renders byte-identically —
//! the jump replicates exactly the per-cycle bookkeeping of the cycles it
//! elides.

use std::sync::Mutex;

use scord_core::FaultKind;
use scord_harness as h;
use scord_harness::Jobs;

fn par() -> Jobs {
    Jobs::new(4).expect("nonzero")
}

/// Runs `f` twice — once with the quiescence skip enabled, once disabled —
/// and returns both results. The skip override is process-wide, so a mutex
/// serializes the A/B sections (and a drop guard restores the default even
/// if `f` panics). Concurrent tests outside the gate are unaffected: the
/// flag only changes how fast a simulation runs, never what it computes.
fn with_and_without_skip<T>(f: impl Fn() -> T) -> (T, T) {
    static GATE: Mutex<()> = Mutex::new(());
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            scord_sim::set_cycle_skip(true);
        }
    }
    let _lock = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _restore = Restore;
    scord_sim::set_cycle_skip(true);
    let skipping = f();
    scord_sim::set_cycle_skip(false);
    let ticking = f();
    (skipping, ticking)
}

#[test]
fn table1_is_identical_serial_and_parallel() {
    let serial = h::table1::run(Jobs::serial()).expect("suite simulates cleanly");
    let parallel = h::table1::run(par()).expect("suite simulates cleanly");
    assert_eq!(
        h::table1::to_markdown(&serial),
        h::table1::to_markdown(&parallel),
        "table1 rendering must not depend on the worker count"
    );
}

#[test]
fn table6_quick_is_identical_serial_and_parallel() {
    let serial = h::table6::run(true, Jobs::serial()).expect("quick workloads simulate cleanly");
    let parallel = h::table6::run(true, par()).expect("quick workloads simulate cleanly");
    assert_eq!(
        h::table6::to_markdown(&serial),
        h::table6::to_markdown(&parallel),
        "table6 rendering must not depend on the worker count"
    );
}

#[test]
fn fault_sweep_is_identical_serial_and_parallel() {
    // A bounded slice of the audit (2 kinds × 1 aggressive rate) keeps the
    // test fast while still exercising the fault-injection path end to end.
    let cell = |jobs: Jobs| {
        h::faults::sweep(
            true,
            7,
            &[FaultKind::MetadataBitFlip, FaultKind::EventDrop],
            &[100_000],
            jobs,
        )
        .expect("sweep infrastructure is clean")
    };
    let serial = cell(Jobs::serial());
    let parallel = cell(par());
    assert_eq!(
        h::faults::to_markdown(&serial),
        h::faults::to_markdown(&parallel),
        "fault audit rendering must not depend on the worker count"
    );
}

#[test]
fn table1_is_identical_with_and_without_cycle_skip() {
    let (skipping, ticking) = with_and_without_skip(|| {
        h::table1::to_markdown(&h::table1::run(Jobs::serial()).expect("suite simulates cleanly"))
    });
    assert_eq!(
        skipping, ticking,
        "table1 must not depend on the quiescence skip"
    );
}

#[test]
fn table6_quick_is_identical_with_and_without_cycle_skip() {
    let (skipping, ticking) = with_and_without_skip(|| {
        h::table6::to_markdown(
            &h::table6::run(true, Jobs::serial()).expect("quick workloads simulate cleanly"),
        )
    });
    assert_eq!(
        skipping, ticking,
        "table6 must not depend on the quiescence skip"
    );
}

#[test]
fn fault_sweep_is_identical_with_and_without_cycle_skip() {
    let (skipping, ticking) = with_and_without_skip(|| {
        h::faults::to_markdown(
            &h::faults::sweep(
                true,
                7,
                &[FaultKind::MetadataBitFlip, FaultKind::EventDrop],
                &[100_000],
                Jobs::serial(),
            )
            .expect("sweep infrastructure is clean"),
        )
    });
    assert_eq!(
        skipping, ticking,
        "fault audit must not depend on the quiescence skip"
    );
}
