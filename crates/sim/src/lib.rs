//! # scord-sim
//!
//! A cycle-level GPU architectural simulator, the substrate on which this
//! repository reproduces *ScoRD: A Scoped Race Detector for GPUs*
//! (ISCA 2020). The paper evaluates ScoRD inside GPGPU-Sim; this crate plays
//! that role, modelling:
//!
//! * **SMs** with resident-block/warp-slot occupancy, a loose round-robin
//!   dual-issue scheduler, and exact SIMT divergence via a reconvergence
//!   stack ([`Warp`]);
//! * the **memory hierarchy** of Table V: per-warp coalescing into 128-byte
//!   transactions, a 16 KB 4-way L1 per SM (global write-evict, bypassed by
//!   strong/volatile accesses), a 1.5 MB 8-way write-back L2 sliced over 12
//!   memory partitions, and GDDR5 channels with open-row bank timing;
//! * a flit-based **crossbar NoC** with bounded injection queues, so bursty
//!   or atomic-heavy workloads congest realistically;
//! * the **ScoRD attachment points**: every global access (L1 hits
//!   included) produces a detection packet consumed in order by the
//!   [`DetectorUnit`]; metadata reads/writebacks travel through L2/DRAM;
//!   request packets grow by a detection header. Each overhead source can be
//!   switched off independently to reproduce the paper's Figure 10
//!   attribution ([`OverheadToggles`]).
//!
//! Function and timing are decoupled: [`DeviceMemory`] is a single coherent
//! store (races are detected from metadata, never from observing stale
//! values), while caches, queues and DRAM model time.
//!
//! See the crate-level doc example on [`Gpu`] for the end-to-end flow:
//! build a kernel with `scord_isa::KernelBuilder`, allocate buffers, launch,
//! inspect [`SimStats`] and the race log.

#![warn(missing_docs)]

mod cache;
mod config;
mod detector_unit;
mod dram;
mod front;
mod gpu;
mod mem;
mod memside;
mod sample;
mod sm;
mod stats;
mod warp;

pub use cache::{Cache, CacheOutcome, Victim};
pub use config::{DetectionMode, DramTiming, GpuConfig, OverheadToggles};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide override for the quiescence skip-ahead (see
/// [`GpuConfig::cycle_skip`]). On by default; `run-experiments
/// --no-cycle-skip` clears it for A/B debugging. A `Gpu` samples the
/// override at [`Gpu::launch`], so flipping it mid-simulation has no
/// effect on an in-flight launch.
static CYCLE_SKIP: AtomicBool = AtomicBool::new(true);

/// Enables or disables cycle skipping process-wide. Results are
/// byte-identical either way — skipping only jumps over cycles in which no
/// component can make progress — so this is purely a debug/verification
/// knob.
pub fn set_cycle_skip(enabled: bool) {
    CYCLE_SKIP.store(enabled, Ordering::Relaxed);
}

/// The current process-wide cycle-skip setting.
#[must_use]
pub fn cycle_skip_enabled() -> bool {
    CYCLE_SKIP.load(Ordering::Relaxed)
}

pub use detector_unit::{DetectorEvent, DetectorUnit};
pub use dram::{DramChannel, DramRequest};
pub use gpu::{Gpu, Packet, SimError};
pub use mem::{DeviceBuffer, DeviceMemory};
pub use sample::SampleReport;
pub use sm::{Sm, SmBlock};
pub use stats::{DramStats, SimStats, StallStats};
pub use warp::{Frame, Warp, WarpState, RPC_NONE};
