//! Sampled-SM extrapolation for paper-scale runs.
//!
//! Simulating every SM of a large configuration in detail is what makes
//! paper-scale inputs (tens of millions of elements) take hours. Sampled
//! mode ([`crate::GpuConfig::sample_sms`] = K > 0) builds only K detailed
//! SMs and runs the *full grid* on them, so functional results — final
//! memory contents, races detected — are exact. What the missing
//! `N − K` SMs would have contributed is their *memory traffic*: without
//! it the shared L2/DRAM/NoC sees a fraction of the real load and the
//! sampled SMs run unrealistically fast. This module restores that load
//! statistically.
//!
//! ## Ghost traffic
//!
//! Every real packet the NoC routes is observed here and accrues a debt
//! of `N − K` (each detailed SM stands for `N/K` SMs). Whenever the debt
//! reaches K, one *ghost packet* is injected: a read-only clone of the
//! current real packet (same flit size — the demand model is calibrated
//! from the sampled set), displaced a few hundred lines so it lands on a
//! different partition/bank the way another SM's concurrent access
//! would, and marked `needs_response = false` so it loads the
//! interconnect without creating a warp response. The steady-state
//! ghost rate is `(N − K)/K` ghosts per real packet — the traffic ratio
//! of the machine being modelled.
//!
//! Ghosts model *contention*, not *demand*: because the whole grid
//! executes on the K detailed SMs, the real packet stream already
//! carries the full machine's memory demand. Ghosts therefore only add
//! the per-cycle port pressure the extra SMs would create — they
//! compete for the per-partition ingest link (`rx_free_at`, one packet
//! per cycle, stalling in a backlog stash exactly like the un-simulated
//! SMs' out-queues would), occupy L2 lookup slots and count NoC flits —
//! but they are tagged [`Packet::ghost`] so the memory side can account
//! real service busy-time separately, and they never write (a dirty
//! ghost line would manufacture DRAM writebacks the real machine does
//! not perform). Ghost generation runs in the NoC-arbitration step with a
//! deterministic round-robin replica cursor, so sampled runs reproduce
//! exactly from run to run.
//!
//! ## Extrapolation and its error bound
//!
//! Runtime on K SMs decomposes into a compute-bound and a memory-bound
//! term, and only the first scales with SM count:
//!
//! * **compute term** `measured × K / N` — issue/execute work spread
//!   over `N/K`× the SMs;
//! * **memory term** — the busiest partition's real (non-ghost) service
//!   busy-time, `max over partitions of max(L2 busy, DRAM busy)`. The
//!   full grid ran, so this is already the full machine's demand; a
//!   memory-bound kernel takes this long no matter how many SMs it has.
//!
//! The extrapolated cycle count is `max(compute, memory)`. The error
//! bound reported with every extrapolated number
//! ([`SampleReport::error_bound_pct`]) charges:
//!
//! * **wave quantization** — the grid fills K SMs a whole number of
//!   waves at a time; when `⌈G/(K·B)⌉·K` and `⌈G/(N·B)⌉·N` (B = blocks
//!   per SM) differ, the tail wave is under-occupied differently in the
//!   two machines;
//! * **SM imbalance** — if the detailed SMs retired visibly different
//!   instruction counts, the sample is not representative of a uniform
//!   machine; half the relative spread is charged;
//! * **term balance** — `max()` under-estimates when the two terms are
//!   comparable (the machine overlaps compute with memory imperfectly);
//!   up to 10%, scaled by `min(compute, memory)/max(compute, memory)`.
//!
//! A flat 2% model floor covers what the model cannot capture
//! (row-buffer locality of the true interleaved address streams,
//! inter-SM L1 effects). Sampled numbers are excluded from all paper
//! tables and only ever appear alongside this bound.

use std::collections::VecDeque;

use crate::gpu::Packet;
use crate::GpuConfig;

/// Per-replica line displacement: a prime larger than the channel count
/// and the lines-per-row, so each replica's ghosts de-align from the
/// template's partition and DRAM row without leaving the data region.
const GHOST_STRIDE_LINES: u64 = 311;

/// State of the sampled-SM traffic model. Owned by [`crate::Gpu`] only
/// when [`crate::GpuConfig::sample_sms`] is non-zero.
#[derive(Debug)]
pub(crate) struct SampleModel {
    /// `num_sms` of the machine being modelled.
    total_sms: u32,
    /// Detailed SMs actually built (`sample_sms`).
    detailed: u32,
    /// Outstanding ghost debt in units of 1/K packets.
    debt: u64,
    /// Generated ghosts awaiting a free partition ingest link. Drained
    /// by the NoC step one packet per partition per cycle.
    pub(crate) stash: VecDeque<Packet>,
    /// Round-robin replica cursor (which un-simulated SM the next ghost
    /// stands for).
    replica_rr: u64,
    real_packets: u64,
    ghost_packets: u64,
    /// Per-detailed-SM retired warp instructions (imbalance bound).
    sm_insts: Vec<u64>,
}

impl SampleModel {
    pub(crate) fn new(total_sms: u32, detailed: u32) -> SampleModel {
        SampleModel {
            total_sms,
            detailed,
            debt: 0,
            stash: VecDeque::new(),
            replica_rr: 0,
            real_packets: 0,
            ghost_packets: 0,
            sm_insts: vec![0; detailed as usize],
        }
    }

    /// Resets per-launch state (launch boundaries reset statistics, and
    /// the ghost RNG must restart for launch-to-launch determinism).
    pub(crate) fn reset(&mut self) {
        self.debt = 0;
        self.stash.clear();
        self.replica_rr = 0;
        self.real_packets = 0;
        self.ghost_packets = 0;
        self.sm_insts.fill(0);
    }

    /// Records one real packet routed by the NoC this cycle: it becomes
    /// the template of the ghosts it owes — the `(N − K)/K` debt accrues
    /// and whole ghosts generate into the stash as it crosses K.
    /// `span_lines` is the device data region in lines; ghost addresses
    /// stay inside it so partition routing sees realistic addresses.
    pub(crate) fn observe(&mut self, pkt: &Packet, span_lines: u64, line_bytes: u64) {
        self.real_packets += 1;
        self.debt += u64::from(self.total_sms - self.detailed);
        let k = u64::from(self.detailed);
        while self.debt >= k {
            self.debt -= k;
            if let Some(g) = self.make_ghost(pkt, span_lines, line_bytes) {
                self.stash.push_back(g);
                self.ghost_packets += 1;
            }
        }
    }

    /// `true` while generated ghosts are still waiting for a free
    /// partition link — the quiescence skip must not jump over cycles in
    /// which the backlog would drain.
    pub(crate) fn has_backlog(&self) -> bool {
        !self.stash.is_empty()
    }

    /// Accumulates one detailed SM's per-cycle instruction count (the
    /// imbalance input of the error bound).
    pub(crate) fn record_sm_insts(&mut self, sm: usize, warp_instructions: u64) {
        self.sm_insts[sm] += warp_instructions;
    }

    /// Builds one ghost from the template packet (`None` only when the
    /// span is empty). Replicas are assigned round-robin over the
    /// un-simulated SMs, so each replica's ghost substream follows the
    /// real packet stream in order — preserving its DRAM row locality —
    /// at its own fixed displacement.
    fn make_ghost(
        &mut self,
        template: &Packet,
        span_lines: u64,
        line_bytes: u64,
    ) -> Option<Packet> {
        if span_lines == 0 {
            return None;
        }
        // Replica index 1..N−K: which un-simulated SM this ghost stands
        // for. A small per-replica displacement keeps the ghost near the
        // template — on a different partition and DRAM row, but inside
        // the working set the detailed SMs (running the full grid)
        // already stream through. That is deliberate: ghosts provide
        // port/link contention, while the memory *demand* of the extra
        // SMs is already in the real stream.
        let replica = 1 + self.replica_rr % u64::from(self.total_sms - self.detailed);
        self.replica_rr += 1;
        let line_index = template.line_addr / line_bytes;
        let ghost_index = (line_index + replica * GHOST_STRIDE_LINES) % span_lines;
        let mut ghost = *template;
        ghost.line_addr = ghost_index * line_bytes;
        ghost.needs_response = false;
        ghost.is_store_ack = false;
        ghost.l1_fill = false;
        ghost.metadata = false;
        // Read-only: a dirty ghost line would turn into DRAM writebacks
        // the modelled machine never performs.
        ghost.write = false;
        ghost.atomic_lanes = 0;
        ghost.ghost = true;
        Some(ghost)
    }

    /// Builds the post-launch report (see [`SampleReport`]).
    /// `memory_term` is the busiest partition's real (non-ghost) service
    /// busy-time, measured by the memory side during the run.
    pub(crate) fn report(
        &self,
        cfg: &GpuConfig,
        measured_cycles: u64,
        grid_blocks: u32,
        memory_term: u64,
    ) -> SampleReport {
        let k = u64::from(self.detailed);
        let n = u64::from(self.total_sms);
        let bps = u64::from(cfg.blocks_per_sm.max(1));
        let grid = u64::from(grid_blocks.max(1));
        // Wave quantization: how differently the tail wave under-fills
        // the sampled vs the full machine.
        let w_k = grid.div_ceil(k * bps);
        let w_n = grid.div_ceil(n * bps);
        let cap_k = (w_k * k) as f64;
        let cap_n = (w_n * n) as f64;
        let e_wave = (cap_k - cap_n).abs() / cap_k.max(1.0);
        // SM imbalance: half the relative spread of retired instructions
        // across the detailed SMs.
        let max = self.sm_insts.iter().copied().max().unwrap_or(0) as f64;
        let min = self.sm_insts.iter().copied().min().unwrap_or(0) as f64;
        let mean = if self.sm_insts.is_empty() {
            0.0
        } else {
            self.sm_insts.iter().copied().sum::<u64>() as f64 / self.sm_insts.len() as f64
        };
        let e_imb = if mean > 0.0 {
            (max - min) / (2.0 * mean)
        } else {
            0.0
        };
        // Two-term estimate: compute work spreads over N/K× the SMs; the
        // memory system's real service demand does not shrink at all.
        let compute_term = measured_cycles.saturating_mul(k) / n;
        let extrapolated = compute_term.max(memory_term);
        // max() under-estimates when the terms are comparable (imperfect
        // compute/memory overlap): charge up to 10%, scaled by how close
        // the terms are.
        let hi = compute_term.max(memory_term) as f64;
        let e_balance = if hi > 0.0 {
            compute_term.min(memory_term) as f64 / hi * 0.10
        } else {
            0.0
        };
        SampleReport {
            detailed_sms: self.detailed,
            total_sms: self.total_sms,
            measured_cycles,
            compute_term_cycles: compute_term,
            memory_term_cycles: memory_term,
            extrapolated_cycles: extrapolated,
            error_bound_pct: (e_wave + e_imb + e_balance) * 100.0 + 2.0,
            real_packets: self.real_packets,
            ghost_packets: self.ghost_packets,
        }
    }
}

/// What a sampled launch ([`crate::GpuConfig::sample_sms`] > 0) reports
/// next to its extrapolated numbers. Returned by
/// [`crate::Gpu::sample_report`]; `None` on full-detail runs.
///
/// Every consumer displaying [`extrapolated_cycles`] must display
/// [`error_bound_pct`] beside it — extrapolated numbers never appear
/// bare, and never in paper tables.
///
/// [`extrapolated_cycles`]: SampleReport::extrapolated_cycles
/// [`error_bound_pct`]: SampleReport::error_bound_pct
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleReport {
    /// Detailed SMs simulated (`sample_sms`).
    pub detailed_sms: u32,
    /// SMs of the machine being modelled (`num_sms`).
    pub total_sms: u32,
    /// Raw cycles of the K-SM run (full grid on K SMs under ghost load).
    pub measured_cycles: u64,
    /// The scaling term: `measured × K / N` — issue/execute work spread
    /// over the full machine's SMs.
    pub compute_term_cycles: u64,
    /// The non-scaling term: the busiest partition's real (non-ghost)
    /// L2/DRAM service busy-time. The full grid executed, so this is
    /// the full machine's memory demand already.
    pub memory_term_cycles: u64,
    /// Estimated full-machine cycles:
    /// `max(compute_term_cycles, memory_term_cycles)`.
    pub extrapolated_cycles: u64,
    /// Error bound in percent: wave-quantization term + SM-imbalance
    /// term + term-balance term + a flat 2% model floor (see the module
    /// docs for the math).
    pub error_bound_pct: f64,
    /// Real packets the NoC routed from detailed SMs.
    pub real_packets: u64,
    /// Ghost packets injected on behalf of the un-simulated SMs.
    pub ghost_packets: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_packet(line_addr: u64, flits: u32) -> Packet {
        Packet {
            line_addr,
            write: false,
            atomic_lanes: 0,
            metadata: false,
            needs_response: true,
            is_store_ack: false,
            sm: 0,
            warp: 0,
            flits,
            ready_at: 0,
            l1_fill: true,
            ghost: false,
        }
    }

    #[test]
    fn ghost_rate_matches_machine_ratio() {
        // K=5 of N=15: each real packet owes 10/5 = 2 ghosts.
        let mut m = SampleModel::new(15, 5);
        for i in 0..100u64 {
            m.observe(&dummy_packet(i * 128, 3), 1 << 20, 128);
        }
        assert_eq!(m.real_packets, 100);
        assert_eq!(m.ghost_packets, 200, "(N-K)/K ghosts per real packet");
        assert_eq!(m.stash.len(), 200, "ghosts wait in the backlog stash");
        assert!(m.has_backlog());
    }

    #[test]
    fn ghosts_are_sanitized_clones_within_span() {
        let mut m = SampleModel::new(4, 2);
        m.observe(&dummy_packet(7 * 128, 5), 1024, 128);
        let g = m.stash.pop_front().expect("debt 2 ≥ k 2");
        assert!(!g.needs_response && !g.l1_fill && !g.metadata);
        assert!(g.ghost, "ghosts are tagged for the busy accounting");
        assert!(!g.write && g.atomic_lanes == 0, "ghosts never dirty lines");
        assert_eq!(g.flits, 5, "demand model keeps the template's size");
        assert_eq!(g.line_addr % 128, 0);
        assert!(g.line_addr / 128 < 1024, "ghost stays inside the span");
        assert_ne!(g.line_addr, 7 * 128, "ghost is displaced from template");
    }

    #[test]
    fn reset_restores_launch_determinism() {
        let run = |m: &mut SampleModel| {
            for i in 0..20u64 {
                m.observe(&dummy_packet(i * 256, 2), 4096, 128);
            }
            m.stash.iter().map(|g| g.line_addr).collect::<Vec<_>>()
        };
        let mut m = SampleModel::new(15, 5);
        let first = run(&mut m);
        m.reset();
        assert!(!m.has_backlog(), "reset clears the backlog");
        let second = run(&mut m);
        assert_eq!(first, second, "per-launch ghost streams are identical");
    }

    #[test]
    fn report_math_holds() {
        let cfg = GpuConfig::paper_default(); // N=15, bps=8
        let mut m = SampleModel::new(cfg.num_sms, 5);
        for s in 0..5 {
            m.record_sm_insts(s, 1000);
        }
        // 120 blocks: 3 waves on 5 SMs (cap 120), 1 wave on 15 (cap 120)
        // → zero wave error; perfectly balanced SMs → zero imbalance;
        // memory term 0 → compute-bound, no balance term.
        let r = m.report(&cfg, 3000, 120, 0);
        assert_eq!(r.compute_term_cycles, 1000, "measured × K/N");
        assert_eq!(r.extrapolated_cycles, 1000, "compute-bound");
        assert!(
            (r.error_bound_pct - 2.0).abs() < 1e-9,
            "only the model floor"
        );
        // A dominant memory term wins the max() and charges the balance
        // term: min/max = 1000/5000 → 0.2 × 10% = +2% on the floor.
        let r = m.report(&cfg, 3000, 120, 5000);
        assert_eq!(r.memory_term_cycles, 5000);
        assert_eq!(r.extrapolated_cycles, 5000, "memory-bound");
        assert!((r.error_bound_pct - 4.0).abs() < 1e-9);
        // Equal terms charge the full 10% balance term.
        let r = m.report(&cfg, 3000, 120, 1000);
        assert!((r.error_bound_pct - 12.0).abs() < 1e-9);
        // 121 blocks: 4 waves × 5 SMs = 20 SM·waves vs 2 waves × 15 SMs
        // = 30 SM·waves: |20−30|/20 = 50% wave term on top of the floor.
        let r = m.report(&cfg, 3000, 121, 0);
        assert!((r.error_bound_pct - 52.0).abs() < 1e-9);
        // Imbalanced SMs raise the bound: spread 1000 over mean 1500
        // → +(2000−1000)/(2·1500) ≈ 33.3% (240 blocks keeps both
        // machines at 30 SM·waves, so no wave term).
        let mut m = SampleModel::new(cfg.num_sms, 2);
        m.record_sm_insts(0, 1000);
        m.record_sm_insts(1, 2000);
        let r = m.report(&cfg, 1000, 240, 0);
        assert!((r.error_bound_pct - (2.0 + 100.0 / 3.0)).abs() < 1e-6);
    }
}
