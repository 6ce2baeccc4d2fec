//! The memory side, one [`Partition`] per L2 slice and DRAM channel.
//!
//! Addresses are striped across partitions by line and a channel only ever
//! serves its own slice, so a partition's tick touches nothing but its own
//! state and the launch statistics. `Gpu::tick` ticks the partitions in
//! ascending order and applies each one's L2 response and DRAM completion
//! to the event heap as it returns them.

use std::collections::VecDeque;

use scord_core::FlatMap;

use crate::gpu::Packet;
use crate::{Cache, CacheOutcome, DramChannel, DramRequest, GpuConfig, SimStats};

/// An L2 hit's response: `(packet, response-ready cycle)`.
pub(crate) type Response = (Packet, u64);
/// A DRAM read that started this cycle: `(request, completion cycle)`.
pub(crate) type DramRead = (DramRequest, u64);

/// One memory partition: an L2 slice plus the DRAM channel behind it.
#[derive(Debug)]
pub(crate) struct Partition {
    pub l2: Cache,
    /// The partition's event queue: requests routed here by the NoC plus
    /// detector metadata writebacks, consumed in arrival order.
    pub in_queue: VecDeque<Packet>,
    pub rx_free_at: u64,
    pub l2_free_at: u64,
    pub dram: DramChannel,
    /// Packets waiting on an in-flight DRAM read, keyed by line address.
    /// Flat table + waiter-`Vec` pool: miss handling and fill wakeup sit on
    /// the per-access hot path, so neither should allocate in steady state.
    pub pending_fills: FlatMap<Vec<Packet>>,
    /// Spare waiter lists recycled by fill wakeups (capacity retained).
    pub fill_pool: Vec<Vec<Packet>>,
    /// L2 service cycles consumed by real (non-ghost) packets. Under
    /// sampled-SM mode this is the memory system's irreducible service
    /// demand — it does not shrink when SMs are added — and feeds the
    /// memory-bound term of the cycle extrapolation.
    pub real_l2_busy: u64,
    /// DRAM channel busy cycles consumed by real (non-ghost) requests.
    pub real_dram_busy: u64,
}

impl Partition {
    pub(crate) fn new(cfg: &GpuConfig) -> Self {
        Partition {
            l2: Cache::new(cfg.l2_slice_bytes(), cfg.l2_ways, cfg.line_bytes),
            in_queue: VecDeque::new(),
            rx_free_at: 0,
            l2_free_at: 0,
            dram: DramChannel::new(cfg.dram, cfg.banks_per_channel, cfg.row_bytes),
            pending_fills: FlatMap::new(),
            fill_pool: Vec::new(),
            real_l2_busy: 0,
            real_dram_busy: 0,
        }
    }

    /// Advances this partition one cycle, counting L2 and DRAM traffic
    /// into `stats`. Returns the L2 hit's response and the DRAM read that
    /// started this cycle, if any: the L2 serves at most one packet and a
    /// channel starts at most one request per cycle.
    pub(crate) fn tick(
        &mut self,
        cfg: &GpuConfig,
        now: u64,
        stats: &mut SimStats,
    ) -> (Option<Response>, Option<DramRead>) {
        let mut response = None;
        let mut dram_done = None;
        // L2 service: one packet per cycle (plus atomic serialization).
        if self.l2_free_at <= now {
            let ready = matches!(
                self.in_queue.front(),
                Some(pkt) if pkt.ready_at <= now
            );
            if ready {
                let pkt = self.in_queue.pop_front().expect("non-empty");
                let write = pkt.write || pkt.atomic_lanes > 0;
                let outcome = self.l2.access(pkt.line_addr, write, pkt.metadata);
                let busy = 1 + u64::from(pkt.atomic_lanes / 2);
                self.l2_free_at = now + busy;
                if !pkt.ghost {
                    self.real_l2_busy += busy;
                }
                match outcome {
                    CacheOutcome::Hit => {
                        if pkt.metadata {
                            stats.l2_md_hits += 1;
                        } else {
                            stats.l2_data_hits += 1;
                        }
                        response = Some((pkt, now + u64::from(cfg.l2_latency)));
                    }
                    CacheOutcome::Miss { writeback } => {
                        if pkt.metadata {
                            stats.l2_md_misses += 1;
                            stats.dram.metadata_reads += 1;
                        } else {
                            stats.l2_data_misses += 1;
                            stats.dram.data_reads += 1;
                        }
                        if let Some(v) = writeback {
                            if v.metadata {
                                stats.dram.metadata_writebacks += 1;
                            } else {
                                stats.dram.data_writebacks += 1;
                            }
                            self.dram.push(DramRequest {
                                line_addr: v.line_addr,
                                write: true,
                                metadata: v.metadata,
                                // A victim dirtied by real traffic is real
                                // demand even when a ghost evicts it.
                                ghost: false,
                            });
                        }
                        self.dram.push(DramRequest {
                            line_addr: pkt.line_addr,
                            write: false,
                            metadata: pkt.metadata,
                            ghost: pkt.ghost,
                        });
                        self.pending_fills
                            .get_or_insert_with(pkt.line_addr, || {
                                // Recycled lists keep their capacity; fresh
                                // ones reserve for the common few-waiter
                                // case up front.
                                self.fill_pool
                                    .pop()
                                    .unwrap_or_else(|| Vec::with_capacity(8))
                            })
                            .push(pkt);
                    }
                }
            }
        }
        // DRAM service: at most one request starts per channel per cycle.
        if let Some((req, done)) = self.dram.tick(now) {
            if !req.ghost {
                self.real_dram_busy += done - now;
            }
            if !req.write {
                dram_done = Some((req, done));
            }
        }
        (response, dram_done)
    }

    /// This partition's earliest future wake cycle for the quiescence skip:
    /// the head queued packet's L2 service time and the DRAM channel's
    /// busy horizon, both clamped to `floor`. `u64::MAX` when the partition
    /// is fully idle (it then wakes via the event heap — a pending fill's
    /// `DramDone` — or not at all).
    pub(crate) fn wake(&self, now: u64, floor: u64) -> u64 {
        let mut t = u64::MAX;
        if let Some(front) = self.in_queue.front() {
            let ready = self.l2_free_at.max(front.ready_at);
            t = t.min(ready.max(floor));
        }
        if let Some(busy_until) = self.dram.wake_at(now) {
            t = t.min(busy_until.max(floor));
        }
        t
    }
}
