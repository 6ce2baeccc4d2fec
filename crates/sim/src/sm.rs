//! Streaming multiprocessor state: resident blocks, warp slots, the L1 data
//! cache and the NoC injection queue.

use std::collections::VecDeque;

use crate::{Cache, Packet, Warp};

/// A threadblock resident on an SM.
#[derive(Debug, Clone)]
pub struct SmBlock {
    /// Grid-wide block index (`ctaid`).
    pub ctaid: u32,
    /// Global hardware block slot (`sm * blocks_per_sm + slot`).
    pub block_slot_global: u8,
    /// Warp slots belonging to this block.
    pub warp_slots: Vec<usize>,
    /// Warps that have not yet exited.
    pub live_warps: u32,
    /// Warps currently parked at the barrier.
    pub barrier_arrived: u32,
    /// Scratchpad contents.
    pub shared: Vec<u32>,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// SM index.
    pub id: u8,
    /// Hardware warp slots.
    pub warps: Vec<Option<Warp>>,
    /// Bit `i` set ⇔ `warps[i]` is resident. Maintained by block dispatch
    /// and retirement so the per-cycle scheduler loops touch only live
    /// slots instead of scanning every `Option<Warp>` (most workloads leave
    /// the majority of the 32 slots empty).
    pub occupied: u64,
    /// Resident-block slots.
    pub blocks: Vec<Option<SmBlock>>,
    /// Loose-round-robin scheduler pointer.
    pub rr: usize,
    /// NoC injection queue (bounded by `GpuConfig::noc_queue`).
    pub out_queue: VecDeque<Packet>,
    /// Injection link busy-until cycle.
    pub tx_free_at: u64,
    /// Private L1 data cache (timing only).
    pub l1: Cache,
    /// Registers not yet claimed by resident blocks.
    pub free_regs: u32,
    /// Scratchpad bytes not yet claimed.
    pub free_shared: u32,
}

impl Sm {
    /// Creates an empty SM.
    #[must_use]
    pub fn new(
        id: u8,
        warps_per_sm: u32,
        blocks_per_sm: u32,
        l1: Cache,
        regs: u32,
        shared: u32,
    ) -> Self {
        Sm {
            id,
            occupied: 0,
            warps: (0..warps_per_sm).map(|_| None).collect(),
            blocks: (0..blocks_per_sm).map(|_| None).collect(),
            rr: 0,
            out_queue: VecDeque::new(),
            tx_free_at: 0,
            l1,
            free_regs: regs,
            free_shared: shared,
        }
    }

    /// Index of a free block slot, if any.
    #[must_use]
    pub fn free_block_slot(&self) -> Option<usize> {
        self.blocks.iter().position(Option::is_none)
    }

    /// Indices of up to `n` free warp slots (`None` if fewer are free).
    #[must_use]
    pub fn free_warp_slots(&self, n: usize) -> Option<Vec<usize>> {
        let free: Vec<usize> = self
            .warps
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_none())
            .map(|(i, _)| i)
            .take(n)
            .collect();
        (free.len() == n).then_some(free)
    }

    /// `true` when no blocks are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(Option::is_none)
    }

    /// Rebuilds [`Sm::occupied`] from the warp slots (used at launch reset,
    /// where any leftover residency must be reflected rather than assumed
    /// away).
    pub fn recompute_occupied(&mut self) {
        self.occupied = self
            .warps
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_some())
            .fold(0, |m, (i, _)| m | (1u64 << i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm() -> Sm {
        Sm::new(0, 4, 2, Cache::new(1024, 2, 128), 1000, 4096)
    }

    #[test]
    fn fresh_sm_is_empty_with_free_slots() {
        let s = sm();
        assert!(s.is_empty());
        assert_eq!(s.free_block_slot(), Some(0));
        assert_eq!(s.free_warp_slots(4).unwrap(), vec![0, 1, 2, 3]);
        assert!(s.free_warp_slots(5).is_none());
    }

    #[test]
    fn occupied_warp_slots_are_skipped() {
        let mut s = sm();
        s.warps[1] = Some(Warp::new(1, 0, 0, 0, 32, 2));
        assert_eq!(s.free_warp_slots(3).unwrap(), vec![0, 2, 3]);
        assert!(s.free_warp_slots(4).is_none());
    }
}
