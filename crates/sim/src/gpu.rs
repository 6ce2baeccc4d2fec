//! The whole-GPU cycle-level model: kernel launch and block dispatch, warp
//! scheduling and SIMT execution, the coalescer, L1/L2 caches, the crossbar
//! NoC, GDDR5 channels, and the race-detector attachment.

use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use scord_core::{RaceLog, ScordDetector, Trace};
use scord_isa::{Pc, Program};

use crate::front::{self, FrontCtx, Scratch};
use crate::memside::Partition;
use crate::sample::{SampleModel, SampleReport};
use crate::{
    Cache, DetectorEvent, DetectorUnit, DeviceMemory, DramRequest, GpuConfig, SimStats, Sm,
    SmBlock, Warp, WarpState,
};

/// A request packet travelling from an SM (or the race detector) to a memory
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// 128-byte-aligned line address.
    pub line_addr: u64,
    /// `true` for stores/atomics (dirties the L2 line).
    pub write: bool,
    /// Number of lanes serialized on an atomic (0 for plain accesses).
    pub atomic_lanes: u32,
    /// `true` for detector-metadata traffic.
    pub metadata: bool,
    /// Whether a response must be delivered.
    pub needs_response: bool,
    /// `true` when the response is a store acknowledgement (drains the
    /// warp's store counter rather than its load counter).
    pub is_store_ack: bool,
    /// Origin SM.
    pub sm: u8,
    /// Origin warp slot.
    pub warp: u8,
    /// Request size in flits.
    pub flits: u32,
    /// Cycle at which the packet is available at the partition.
    pub ready_at: u64,
    /// Fill the origin SM's L1 with this line when the response arrives.
    pub l1_fill: bool,
    /// Sampled-SM mode only: `true` for statistically generated ghost
    /// traffic standing in for un-simulated SMs (see
    /// [`GpuConfig::sample_sms`]). Ghosts occupy links, queues and
    /// service slots like real packets but are excluded from the
    /// real-busy accounting the extrapolation reads.
    pub ghost: bool,
}

#[derive(Debug)]
pub(crate) enum Ev {
    /// A memory response reaching a warp.
    WarpResponse {
        sm: usize,
        warp: usize,
        is_store_ack: bool,
        l1_fill: Option<u64>,
    },
    /// A DRAM read completing at a partition.
    DramDone { part: usize, req: DramRequest },
}

#[derive(Debug)]
struct HeapItem {
    time: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (time, seq).
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

/// The timed event heap. Events due at the same cycle fire in push order
/// (the `seq` tiebreak), so results depend only on the order the
/// simulation pushes them.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<HeapItem>,
    seq: u64,
}

impl EventQueue {
    /// Schedules `ev` to fire at cycle `time`.
    pub(crate) fn push(&mut self, time: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapItem {
            time,
            seq: self.seq,
            ev,
        });
    }

    /// Pops the earliest event due at or before `now`.
    fn pop_due(&mut self, now: u64) -> Option<Ev> {
        if self.heap.peek()?.time > now {
            return None;
        }
        self.heap.pop().map(|item| item.ev)
    }

    /// Cycle of the earliest pending event.
    fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|item| item.time)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

/// Line-address → L2 partition / DRAM channel mapping: addresses are
/// striped across partitions by 128-byte line. The single source of truth —
/// the NoC router, the detector's metadata writeback path, and the
/// quiescence scan's head-of-line probe must all agree, or a packet could
/// be routed to one partition while the skip logic watches another and
/// sleeps through its arrival.
pub(crate) fn partition_of(cfg: &GpuConfig, line_addr: u64) -> usize {
    ((line_addr / u64::from(cfg.line_bytes)) % u64::from(cfg.channels)) as usize
}

/// Simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The watchdog expired — usually a deadlocked spin loop or barrier.
    Timeout {
        /// Cycles executed before giving up.
        cycles: u64,
    },
    /// `bar.sync` executed by a divergent warp.
    BarrierDivergence {
        /// Offending instruction.
        pc: Pc,
    },
    /// A lane accessed memory outside the device allocation.
    AddressOutOfBounds {
        /// The faulting byte address.
        addr: u64,
        /// Offending instruction.
        pc: Pc,
    },
    /// A raw memory access (no instruction context) fell outside the device
    /// allocation — e.g. a host-side [`DeviceMemory::try_read_word`]. The
    /// 64-bit address is preserved instead of being truncated to 32 bits.
    AddressOutOfRange {
        /// The faulting byte address.
        addr: u64,
    },
    /// Bad launch parameters.
    Launch(String),
    /// A [`GpuConfig`] violating a hard machine limit (metadata field
    /// widths, packet id widths) — see [`GpuConfig::validate`].
    Config(String),
    /// The race detector rejected an event (malformed accessor, address,
    /// or geometry — see [`scord_core::DetectorError`]).
    Detector(scord_core::DetectorError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout { cycles } => {
                write!(f, "simulation watchdog expired after {cycles} cycles")
            }
            SimError::BarrierDivergence { pc } => {
                write!(f, "barrier executed by divergent warp at pc {pc}")
            }
            SimError::AddressOutOfBounds { addr, pc } => {
                write!(f, "global access at pc {pc} out of bounds: 0x{addr:x}")
            }
            SimError::AddressOutOfRange { addr } => {
                write!(f, "memory address out of range: 0x{addr:x}")
            }
            SimError::Launch(msg) => write!(f, "invalid launch: {msg}"),
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Detector(err) => write!(f, "detector rejected event: {err}"),
        }
    }
}

impl Error for SimError {}

impl From<scord_core::DetectorError> for SimError {
    fn from(err: scord_core::DetectorError) -> Self {
        SimError::Detector(err)
    }
}

/// The simulated GPU.
///
/// ```
/// use scord_isa::KernelBuilder;
/// use scord_sim::{Gpu, GpuConfig};
///
/// // out[gtid] = gtid
/// let mut k = KernelBuilder::new("iota", 1);
/// let out = k.ld_param(0);
/// let gtid = k.global_tid();
/// let addr = k.index_addr(out, gtid, 4);
/// k.st_global(addr, 0, gtid);
/// k.exit();
/// let program = k.finish().unwrap();
///
/// let mut gpu = Gpu::new(GpuConfig::paper_default());
/// let buf = gpu.mem_mut().alloc_words(128);
/// let stats = gpu.launch(&program, 2, 64, &[buf.addr()]).unwrap();
/// assert!(stats.cycles > 0);
/// assert_eq!(gpu.mem().read_word(buf.word_addr(100)), 100);
/// ```
pub struct Gpu {
    cfg: GpuConfig,
    mem: DeviceMemory,
    sms: Vec<Sm>,
    parts: Vec<Partition>,
    detector: Option<DetectorUnit>,
    stats: SimStats,
    events: EventQueue,
    now: u64,
    max_cycles: u64,
    // Per-launch state. `Arc` (not `Rc`) keeps the whole `Gpu` `Send`, so
    // independent simulations can be sharded across host threads.
    program: Option<Arc<Program>>,
    params: Vec<u32>,
    grid_blocks: u32,
    threads_per_block: u32,
    warps_per_block: u32,
    next_block: u32,
    blocks_live: u32,
    noc_rr: usize,
    /// Per-access coalescing buffers, reused across instructions.
    scratch: Scratch,
    /// `true` while next cycle's block dispatch might place a block: set at
    /// launch and whenever a block retires (freeing resources), kept set
    /// while a dispatch pass places anything (the pass is capped at one
    /// block per SM per cycle). When clear, dispatch cannot progress until
    /// a block finishes — which lets the quiescence skip ignore it.
    dispatch_hint: bool,
    /// Sampled-SM traffic model, present only when
    /// [`GpuConfig::sample_sms`] > 0 (see [`crate::sample`] module docs):
    /// only `sample_sms` detailed SMs are built and this injects the
    /// un-simulated SMs' ghost traffic in the serial NoC step.
    sample: Option<SampleModel>,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("cfg", &self.cfg)
            .field("now", &self.now)
            .field("blocks_live", &self.blocks_live)
            .finish()
    }
}

impl Gpu {
    /// Builds a GPU (and its race detector, when
    /// [`crate::DetectionMode`] says so) from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates a hard machine limit (see
    /// [`GpuConfig::validate`]); use [`Gpu::try_new`] for a recoverable
    /// [`SimError::Config`].
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a GPU, returning [`SimError::Config`] instead of panicking on
    /// a geometry the metadata field widths cannot represent.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] from [`GpuConfig::validate`].
    pub fn try_new(cfg: GpuConfig) -> Result<Self, SimError> {
        Self::try_with_detector_factory(cfg, |dc| Box::new(ScordDetector::new(dc)))
    }

    /// Builds a GPU with a custom detector (used to attach the Table VIII
    /// baseline models to the full timing simulation).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates a hard machine limit (see
    /// [`GpuConfig::validate`]); use [`Gpu::try_with_detector_factory`] for
    /// a recoverable [`SimError::Config`].
    pub fn with_detector_factory(
        cfg: GpuConfig,
        factory: impl FnOnce(scord_core::DetectorConfig) -> Box<dyn scord_core::Detector>,
    ) -> Self {
        Self::try_with_detector_factory(cfg, factory).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a GPU with a custom detector, returning [`SimError::Config`]
    /// instead of panicking on an unrepresentable geometry.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] from [`GpuConfig::validate`].
    pub fn try_with_detector_factory(
        cfg: GpuConfig,
        factory: impl FnOnce(scord_core::DetectorConfig) -> Box<dyn scord_core::Detector>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let detector = cfg
            .detector_config()
            .map(|dc| DetectorUnit::with_faults(factory(dc), cfg.detector_queue, cfg.fault));
        // Sampled mode builds only the detailed SMs; the config keeps
        // `num_sms` for geometry (BlockID packing, detector identity
        // spaces) and the memory system stays full-size — the missing
        // SMs exist only as ghost traffic (see `crate::sample`).
        let detailed_sms = if cfg.sample_sms > 0 {
            cfg.sample_sms
        } else {
            cfg.num_sms
        };
        let sample = (cfg.sample_sms > 0).then(|| SampleModel::new(cfg.num_sms, cfg.sample_sms));
        let sms = (0..detailed_sms)
            .map(|i| {
                Sm::new(
                    i as u8,
                    cfg.warps_per_sm,
                    cfg.blocks_per_sm,
                    Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes),
                    cfg.regs_per_sm,
                    cfg.shared_mem_per_sm,
                )
            })
            .collect();
        let parts: Vec<Partition> = (0..cfg.channels).map(|_| Partition::new(&cfg)).collect();
        Ok(Gpu {
            mem: DeviceMemory::new(cfg.mem_bytes),
            sms,
            parts,
            detector,
            stats: SimStats::default(),
            events: EventQueue::default(),
            now: 0,
            max_cycles: 200_000_000,
            cfg,
            program: None,
            params: Vec::new(),
            grid_blocks: 0,
            threads_per_block: 0,
            warps_per_block: 0,
            next_block: 0,
            blocks_live: 0,
            noc_rr: 0,
            scratch: Scratch::default(),
            dispatch_hint: true,
            sample,
        })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Functional device memory.
    #[must_use]
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Mutable device memory (allocation, host copies).
    pub fn mem_mut(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// Sets the deadlock watchdog (cycles).
    pub fn set_max_cycles(&mut self, cycles: u64) {
        self.max_cycles = cycles;
    }

    /// The detector's accumulated race log (empty log if detection is off).
    #[must_use]
    pub fn races(&self) -> Option<&RaceLog> {
        self.detector.as_ref().map(|d| d.detector().races())
    }

    /// Host-heap usage of the detector's metadata store as
    /// `(resident_bytes, resident_entries)` — the simulation-side memory
    /// footprint, distinct from the modelled hardware metadata region.
    /// `None` when detection is off or the detector keeps no store.
    #[must_use]
    pub fn detector_store_usage(&self) -> Option<(u64, u64)> {
        self.detector
            .as_ref()
            .and_then(|d| d.detector().store_usage())
    }

    /// The sampled-SM extrapolation report for the last completed launch,
    /// or `None` when [`GpuConfig::sample_sms`] is 0 (full-detail run).
    /// See [`SampleReport`] for the obligation to display the error bound
    /// next to every extrapolated number.
    #[must_use]
    pub fn sample_report(&self) -> Option<SampleReport> {
        // The memory-bound floor: the busiest partition's real (non-ghost)
        // service demand. The full grid executed, so this is the full
        // machine's demand already — it does not scale with SM count.
        let memory_term = self
            .parts
            .iter()
            .map(|p| p.real_l2_busy.max(p.real_dram_busy))
            .max()
            .unwrap_or(0);
        self.sample
            .as_ref()
            .map(|s| s.report(&self.cfg, self.stats.cycles, self.grid_blocks, memory_term))
    }

    /// The event trace captured by the attached detector, when it records
    /// one (see [`scord_core::RecordingDetector`]). `None` when detection
    /// is off or the detector does not record.
    #[must_use]
    pub fn recorded_trace(&self) -> Option<&Trace> {
        self.detector.as_ref().and_then(|d| d.detector().trace())
    }

    /// Launches `program` on `grid_blocks × threads_per_block` threads and
    /// simulates to completion, returning this launch's statistics.
    ///
    /// Successive launches on one `Gpu` behave like sequential kernels of
    /// one application: caches persist, the detector's race log accumulates,
    /// but detector *state* (metadata, fence file, lock tables) is reset at
    /// the boundary — a kernel launch is a device-wide synchronization
    /// point.
    ///
    /// # Errors
    ///
    /// [`SimError::Launch`] for bad parameters; [`SimError::Timeout`],
    /// [`SimError::BarrierDivergence`] or [`SimError::AddressOutOfBounds`]
    /// for runtime failures.
    pub fn launch(
        &mut self,
        program: &Program,
        grid_blocks: u32,
        threads_per_block: u32,
        params: &[u32],
    ) -> Result<SimStats, SimError> {
        if threads_per_block == 0 || threads_per_block > self.cfg.max_threads_per_block {
            return Err(SimError::Launch(format!(
                "threads per block must be 1..={}, got {threads_per_block}",
                self.cfg.max_threads_per_block
            )));
        }
        if grid_blocks == 0 {
            return Err(SimError::Launch("grid must have at least 1 block".into()));
        }
        if params.len() != usize::from(program.num_params()) {
            return Err(SimError::Launch(format!(
                "kernel {} expects {} params, got {}",
                program.name(),
                program.num_params(),
                params.len()
            )));
        }
        let warps_per_block = threads_per_block.div_ceil(self.cfg.warp_size);
        if warps_per_block > self.cfg.warps_per_sm {
            return Err(SimError::Launch("block exceeds SM warp slots".into()));
        }
        let regs_needed = u32::from(program.num_regs()) * threads_per_block;
        if regs_needed > self.cfg.regs_per_sm {
            return Err(SimError::Launch("block exceeds SM register file".into()));
        }

        // Reset per-launch machine state (caches persist, like real HW).
        self.program = Some(Arc::new(program.clone()));
        self.params = params.to_vec();
        self.grid_blocks = grid_blocks;
        self.threads_per_block = threads_per_block;
        self.warps_per_block = warps_per_block;
        self.next_block = 0;
        self.blocks_live = 0;
        self.now = 0;
        self.dispatch_hint = true;
        self.events.clear();
        self.stats = SimStats::default();
        for sm in &mut self.sms {
            sm.rr = 0;
            sm.tx_free_at = 0;
            sm.out_queue.clear();
            sm.recompute_occupied();
        }
        for p in &mut self.parts {
            p.rx_free_at = 0;
            p.l2_free_at = 0;
            p.in_queue.clear();
            p.pending_fills.clear();
            p.dram.reset();
            p.real_l2_busy = 0;
            p.real_dram_busy = 0;
        }
        if let Some(det) = &mut self.detector {
            det.detector_mut().on_kernel_boundary();
        }
        if let Some(samp) = &mut self.sample {
            samp.reset();
        }

        // Sampled once per launch so flipping the process-wide override
        // mid-simulation cannot affect an in-flight run. Results are
        // byte-identical either way (the skip only jumps over cycles in
        // which no component can make progress, replicating their per-cycle
        // bookkeeping); skipping is the default because stall-heavy phases
        // dominate wall-clock otherwise.
        let skip = self.cfg.cycle_skip && crate::cycle_skip_enabled();
        while !self.finished() {
            let busy = self.tick()?;
            if self.now > self.max_cycles {
                return Err(SimError::Timeout { cycles: self.now });
            }
            // The skip scan ([`Gpu::next_wake`]) costs a pass over every
            // resident warp and queue, so only attempt it after a tick that
            // made no observable progress. Deferring a possible jump by one
            // busy tick is byte-identical: that tick replicates exactly the
            // per-cycle bookkeeping the jump would have accounted for.
            if skip && !busy && !self.finished() {
                self.skip_idle_cycles();
            }
        }

        self.stats.cycles = self.now;
        if let Some(det) = &self.detector {
            self.stats.unique_races = det.detector().races().unique_count();
            self.stats.total_races = det.detector().races().total_count();
            self.stats.faults_injected = det.fault_stats().map_or(0, |s| s.total());
        }
        Ok(self.stats)
    }

    fn finished(&self) -> bool {
        self.next_block >= self.grid_blocks
            && self.blocks_live == 0
            && self.events.is_empty()
            && self.sms.iter().all(|s| s.out_queue.is_empty())
            && self.parts.iter().all(|p| {
                p.in_queue.is_empty() && p.pending_fills.is_empty() && p.dram.idle(self.now)
            })
            && self.detector.as_ref().is_none_or(DetectorUnit::is_idle)
    }

    /// Earliest future cycle at which any component can make progress, or
    /// `u64::MAX` when nothing ever will (deadlock — the watchdog handles
    /// it). Undershooting is always safe (the skipped-to cycle simply makes
    /// no progress); overshooting would change results, so every bound here
    /// is conservative:
    ///
    /// * the event heap's minimum (memory responses, DRAM completions);
    /// * block dispatch, whenever it might still place a block;
    /// * each resident warp's wake time — `Ready { at }`, a timed fence, or
    ///   "next cycle" for a fence whose drain already completed (the
    ///   prepass arms it one cycle later);
    /// * each SM with queued NoC traffic: its injection link and the head
    ///   packet's target-partition link;
    /// * each partition with queued L2 traffic: the L2 port and the head
    ///   packet's arrival time;
    /// * each non-idle DRAM channel: its busy-until horizon;
    /// * the detector whenever its queue is non-empty (it consumes events
    ///   every cycle).
    fn next_wake(&self) -> u64 {
        let floor = self.now + 1;
        if self.next_block < self.grid_blocks && self.dispatch_hint {
            return floor;
        }
        if self.detector.as_ref().is_some_and(|d| !d.is_idle()) {
            return floor;
        }
        // A ghost backlog injects into some partition every cycle a link
        // is free; jumping over those cycles would delay the injections
        // and change sampled timing, so hold the skip while it drains.
        if self.sample.as_ref().is_some_and(SampleModel::has_backlog) {
            return floor;
        }
        let mut t = self.events.next_time().map_or(u64::MAX, |e| e.max(floor));
        for sm in &self.sms {
            let w = self.sm_wake(sm, floor);
            if w == floor {
                return floor;
            }
            t = t.min(w);
        }
        for p in &self.parts {
            t = t.min(p.wake(self.now, floor));
        }
        t
    }

    /// One SM's earliest wake time for [`Gpu::next_wake`]: its resident
    /// warps' wake cycles plus its queued NoC head-of-line packet.
    fn sm_wake(&self, sm: &Sm, floor: u64) -> u64 {
        let mut t = u64::MAX;
        let mut occ = sm.occupied;
        while occ != 0 {
            let idx = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let Some(w) = sm.warps[idx].as_ref() else {
                continue;
            };
            match w.state {
                WarpState::Ready { at } => t = t.min(at.max(floor)),
                WarpState::WaitFence { end: Some(end), .. } => t = t.min(end.max(floor)),
                WarpState::WaitFence { end: None, .. }
                    if w.outstanding_stores == 0 && w.pending_loads == 0 =>
                {
                    return floor;
                }
                // WaitMem / WaitBarrier / draining fences wake via the
                // event heap or another warp's progress.
                _ => {}
            }
        }
        if let Some(head) = sm.out_queue.front() {
            let part = partition_of(&self.cfg, head.line_addr);
            let ready = sm.tx_free_at.max(self.parts[part].rx_free_at);
            t = t.min(ready.max(floor));
        }
        t
    }

    /// Jumps `now` to the cycle before [`Gpu::next_wake`], replicating the
    /// per-cycle bookkeeping the skipped ticks would have performed: one
    /// memory-stall count per `WaitMem` warp per cycle, one barrier-stall
    /// count per `WaitBarrier` warp per cycle, and the NoC round-robin
    /// pointer advancing every cycle. Nothing else mutates during a
    /// no-progress cycle, so results are byte-identical to ticking through.
    /// The jump is clamped to the watchdog horizon so a deadlock times out
    /// at exactly the same cycle count as un-skipped execution.
    fn skip_idle_cycles(&mut self) {
        let target = self.next_wake();
        let jump_to = target.saturating_sub(1).min(self.max_cycles);
        if jump_to <= self.now {
            return;
        }
        let skipped = jump_to - self.now;
        let mut mem_stalled = 0u64;
        let mut barrier_stalled = 0u64;
        for sm in &self.sms {
            let mut occ = sm.occupied;
            while occ != 0 {
                let idx = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                match sm.warps[idx].as_ref().map(|w| &w.state) {
                    Some(WarpState::WaitMem) => mem_stalled += 1,
                    Some(WarpState::WaitBarrier) => barrier_stalled += 1,
                    _ => {}
                }
            }
        }
        self.stats.stalls.memory += skipped * mem_stalled;
        self.stats.stalls.barrier += skipped * barrier_stalled;
        self.noc_rr = self.noc_rr.wrapping_add(skipped as usize);
        self.stats.cycles_skipped += skipped;
        self.now = jump_to;
    }

    /// Advances the machine one cycle. Returns `true` when the cycle made
    /// observable progress (an event fired, a block dispatched, an
    /// instruction issued or stalled actively, a packet moved, the L2
    /// serviced, or the detector is draining) — the signal the launch loop
    /// uses to decide whether attempting a quiescence skip is worthwhile.
    /// The flag is purely a performance hint: skipping is safe after any
    /// tick, and not skipping merely ticks through the idle span with
    /// identical bookkeeping.
    fn tick(&mut self) -> Result<bool, SimError> {
        self.now += 1;
        let insts0 = self.stats.warp_instructions;
        let flits0 = self.stats.noc_flits;
        let det0 = self.stats.detector_events;
        let l2_0 = self.stats.l2_data_hits
            + self.stats.l2_data_misses
            + self.stats.l2_md_hits
            + self.stats.l2_md_misses;
        let active_stalls0 = self.stats.stalls.noc_full + self.stats.stalls.lhd;
        let next_block0 = self.next_block;
        let drained = self.drain_events();
        self.dispatch_blocks();
        self.front_tick()?;
        self.noc_tick();
        self.mem_tick();
        self.detector_tick()?;
        Ok(drained
            || self.next_block != next_block0
            || self.stats.warp_instructions != insts0
            || self.stats.noc_flits != flits0
            || self.stats.detector_events != det0
            || self.stats.l2_data_hits
                + self.stats.l2_data_misses
                + self.stats.l2_md_hits
                + self.stats.l2_md_misses
                != l2_0
            || self.stats.stalls.noc_full + self.stats.stalls.lhd != active_stalls0
            || self.detector.as_ref().is_some_and(|d| !d.is_idle()))
    }

    // ---- event heap -------------------------------------------------------

    /// Fires all events due at or before `now`; returns `true` if any fired.
    fn drain_events(&mut self) -> bool {
        let mut any = false;
        while let Some(ev) = self.events.pop_due(self.now) {
            any = true;
            match ev {
                Ev::WarpResponse {
                    sm,
                    warp,
                    is_store_ack,
                    l1_fill,
                } => {
                    if let Some(line) = l1_fill {
                        let _ = self.sms[sm].l1.access(line, false, false);
                    }
                    if let Some(w) = self.sms[sm].warps[warp].as_mut() {
                        if is_store_ack {
                            w.outstanding_stores = w.outstanding_stores.saturating_sub(1);
                        } else {
                            w.pending_loads = w.pending_loads.saturating_sub(1);
                            if w.pending_loads == 0 && matches!(w.state, WarpState::WaitMem) {
                                w.state = WarpState::Ready { at: self.now };
                            }
                        }
                    }
                }
                Ev::DramDone { part, req } => {
                    if let Some(mut waiters) = self.parts[part].pending_fills.remove(req.line_addr)
                    {
                        for pkt in waiters.drain(..) {
                            self.respond(&pkt, self.now + 4);
                        }
                        // Recycle the drained list; its capacity serves the
                        // next miss on this partition without allocating.
                        self.parts[part].fill_pool.push(waiters);
                    }
                }
            }
        }
        any
    }

    fn respond(&mut self, pkt: &Packet, time: u64) {
        if !pkt.needs_response {
            return;
        }
        let resp_flits = if pkt.is_store_ack {
            1
        } else {
            1 + self.cfg.line_bytes.div_ceil(self.cfg.flit_bytes)
        };
        self.stats.noc_flits += u64::from(resp_flits);
        let l1_fill = pkt.l1_fill.then_some(pkt.line_addr);
        self.events.push(
            time + 8 + u64::from(resp_flits),
            Ev::WarpResponse {
                sm: pkt.sm as usize,
                warp: pkt.warp as usize,
                is_store_ack: pkt.is_store_ack,
                l1_fill,
            },
        );
    }

    // ---- block dispatch ---------------------------------------------------

    fn dispatch_blocks(&mut self) {
        if self.next_block >= self.grid_blocks {
            return;
        }
        let mut dispatched = false;
        let program = self.program.clone().expect("launch in progress");
        for s in 0..self.sms.len() {
            if self.next_block >= self.grid_blocks {
                break;
            }
            let regs_needed = u32::from(program.num_regs()) * self.threads_per_block;
            let shared_needed = program.shared_bytes();
            let sm = &self.sms[s];
            if sm.free_regs < regs_needed || sm.free_shared < shared_needed {
                continue;
            }
            let Some(bslot) = sm.free_block_slot() else {
                continue;
            };
            let Some(wslots) = sm.free_warp_slots(self.warps_per_block as usize) else {
                continue;
            };
            let ctaid = self.next_block;
            self.next_block += 1;
            self.blocks_live += 1;
            dispatched = true;
            let block_slot_global = u8::try_from(s as u32 * self.cfg.blocks_per_sm + bslot as u32)
                .expect("validated: num_sms × blocks_per_sm fits the BlockID field");
            let block = SmBlock {
                ctaid,
                block_slot_global,
                warp_slots: wslots.clone(),
                live_warps: self.warps_per_block,
                barrier_arrived: 0,
                shared: vec![0; (shared_needed as usize).div_ceil(4)],
            };
            let sm = &mut self.sms[s];
            sm.free_regs -= regs_needed;
            sm.free_shared -= shared_needed;
            sm.blocks[bslot] = Some(block);
            for (wi, &slot) in wslots.iter().enumerate() {
                let lanes = (self.threads_per_block - wi as u32 * self.cfg.warp_size)
                    .min(self.cfg.warp_size);
                sm.warps[slot] = Some(Warp::new(
                    slot as u8,
                    bslot,
                    ctaid,
                    wi as u32,
                    lanes,
                    program.num_regs(),
                ));
                sm.occupied |= 1u64 << slot;
                if let Some(det) = &mut self.detector {
                    det.enqueue(DetectorEvent::WarpAssigned {
                        sm: s as u8,
                        warp_slot: slot as u8,
                    });
                }
            }
        }
        // A pass that placed a block may place another next cycle (the loop
        // caps dispatch at one block per SM per cycle); a pass that placed
        // nothing cannot succeed until a block retires and frees resources.
        self.dispatch_hint = dispatched;
    }

    // ---- SM front ends ----------------------------------------------------

    /// Runs every SM's front end (prepass, issue, execute) in ascending SM
    /// order, applying each effect to machine state as it happens (see
    /// [`crate::front`]).
    fn front_tick(&mut self) -> Result<(), SimError> {
        // Latch the LHD backpressure signal once per cycle, after block
        // dispatch (whose WarpAssigned events have already enqueued): the
        // hardware-realistic registered wire, so no SM sees detector-queue
        // entries a lower-numbered SM enqueued this cycle.
        let lhd_open = self
            .detector
            .as_ref()
            .is_none_or(DetectorUnit::can_accept_l1_hit);
        let mut ctx = FrontCtx {
            cfg: &self.cfg,
            program: self.program.as_deref().expect("launch in progress"),
            params: &self.params,
            now: self.now,
            grid_blocks: self.grid_blocks,
            threads_per_block: self.threads_per_block,
            lhd_open,
            toggles: self.cfg.toggles(),
            mem: &mut self.mem,
            detector: self.detector.as_mut(),
            events: &mut self.events,
            stats: &mut self.stats,
            scratch: &mut self.scratch,
            blocks_live: &mut self.blocks_live,
            dispatch_hint: &mut self.dispatch_hint,
        };
        for (s, sm) in self.sms.iter_mut().enumerate() {
            let insts0 = ctx.stats.warp_instructions;
            front::sm_front(&mut ctx, sm)?;
            if let Some(samp) = &mut self.sample {
                samp.record_sm_insts(s, ctx.stats.warp_instructions - insts0);
            }
        }
        Ok(())
    }

    // ---- interconnect -----------------------------------------------------

    fn noc_tick(&mut self) {
        // Sampled mode: drain the ghost backlog first. The un-simulated
        // SMs are the majority of the modelled machine, so when their
        // (backlogged) traffic and a detailed SM's packet compete for a
        // partition link, round-robin arbitration would usually favour
        // them; injecting ghosts first reproduces that pressure on the
        // detailed SMs.
        self.inject_ghosts();
        let n = self.sms.len();
        for i in 0..n {
            let s = (self.noc_rr + i) % n;
            if self.sms[s].tx_free_at > self.now || self.sms[s].out_queue.is_empty() {
                continue;
            }
            let part = {
                let pkt = self.sms[s].out_queue.front().expect("non-empty");
                partition_of(&self.cfg, pkt.line_addr)
            };
            if self.parts[part].rx_free_at > self.now {
                continue; // head-of-line blocking at a congested partition
            }
            let mut pkt = self.sms[s].out_queue.pop_front().expect("non-empty");
            let flits = u64::from(pkt.flits);
            self.sms[s].tx_free_at = self.now + flits;
            self.parts[part].rx_free_at = self.now + flits;
            pkt.ready_at = self.now + 8 + flits;
            if let Some(samp) = &mut self.sample {
                let line_bytes = u64::from(self.cfg.line_bytes);
                samp.observe(&pkt, self.cfg.mem_bytes / line_bytes, line_bytes);
            }
            self.parts[part].in_queue.push_back(pkt);
            self.stats.noc_flits += flits;
        }
        self.noc_rr = self.noc_rr.wrapping_add(1);
    }

    /// Sampled-SM mode only: injects the ghost packets the un-simulated
    /// SMs would have routed (see [`crate::sample`]'s module docs for the
    /// model). Ghosts compete for the same per-partition ingest link as
    /// real packets — a partition that already accepted a packet this
    /// cycle makes the ghost wait in the backlog, exactly the
    /// head-of-line blocking a real SM's out-queue exhibits — and count
    /// toward `noc_flits`, which keeps the tick's busy-detection aware of
    /// them. Replicas are assigned round-robin, so sampled runs
    /// reproduce exactly.
    fn inject_ghosts(&mut self) {
        let Some(samp) = &mut self.sample else {
            return;
        };
        // One pass over the current backlog: inject where the link is
        // free, requeue the rest for next cycle.
        for _ in 0..samp.stash.len() {
            let Some(mut ghost) = samp.stash.pop_front() else {
                break;
            };
            let part = partition_of(&self.cfg, ghost.line_addr);
            let p = &mut self.parts[part];
            if p.rx_free_at > self.now {
                samp.stash.push_back(ghost);
                continue;
            }
            let flits = u64::from(ghost.flits);
            p.rx_free_at = self.now + flits;
            ghost.ready_at = self.now + 8 + flits;
            p.in_queue.push_back(ghost);
            self.stats.noc_flits += flits;
        }
    }

    /// Ticks every memory partition (L2 slice + DRAM channel) in ascending
    /// order, scheduling each one's L2 response and DRAM completion as it
    /// returns them.
    fn mem_tick(&mut self) {
        for p in 0..self.parts.len() {
            let (response, dram_done) = self.parts[p].tick(&self.cfg, self.now, &mut self.stats);
            if let Some((pkt, time)) = response {
                self.respond(&pkt, time);
            }
            if let Some((req, done)) = dram_done {
                self.events.push(done, Ev::DramDone { part: p, req });
            }
        }
    }

    fn detector_tick(&mut self) -> Result<(), SimError> {
        let toggles = self.cfg.toggles();
        let mut md_lines = Vec::new();
        let Some(det) = &mut self.detector else {
            return Ok(());
        };
        det.tick(self.cfg.detector_throughput, &mut md_lines, &mut self.stats)?;
        if toggles.md {
            for line in md_lines {
                let p = partition_of(&self.cfg, line);
                self.parts[p].in_queue.push_back(Packet {
                    line_addr: line,
                    write: true, // metadata entries are read-modify-written
                    atomic_lanes: 0,
                    metadata: true,
                    needs_response: false,
                    is_store_ack: false,
                    sm: 0,
                    warp: 0,
                    flits: 1,
                    ready_at: self.now + 4,
                    l1_fill: false,
                    ghost: false,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scord_isa::{KernelBuilder, Scope};

    #[test]
    fn event_queue_pops_by_time_then_push_order() {
        let done = |part| Ev::DramDone {
            part,
            req: DramRequest {
                line_addr: 0,
                write: false,
                metadata: false,
                ghost: false,
            },
        };
        let mut q = EventQueue::default();
        q.push(5, done(0));
        q.push(3, done(1));
        q.push(3, done(2));
        assert_eq!(q.next_time(), Some(3));
        assert!(q.pop_due(2).is_none(), "nothing due before cycle 3");
        let part = |ev: Option<Ev>| match ev {
            Some(Ev::DramDone { part, .. }) => part,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(part(q.pop_due(3)), 1);
        assert_eq!(
            part(q.pop_due(3)),
            2,
            "same-cycle events fire in push order"
        );
        assert!(q.pop_due(4).is_none());
        assert_eq!(part(q.pop_due(9)), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn launch_validates_parameters() {
        let mut gpu = Gpu::new(GpuConfig::paper_default());
        let mut k = KernelBuilder::new("t", 1);
        let p = k.ld_param(0);
        k.st_global(p, 0, 1u32);
        let prog = k.finish().unwrap();
        assert!(matches!(
            gpu.launch(&prog, 0, 32, &[0]),
            Err(SimError::Launch(_))
        ));
        assert!(matches!(
            gpu.launch(&prog, 1, 2048, &[0]),
            Err(SimError::Launch(_))
        ));
        assert!(matches!(
            gpu.launch(&prog, 1, 32, &[]),
            Err(SimError::Launch(_))
        ));
    }

    /// `Gpu` must stay `Send` so independent simulations can be sharded
    /// across host threads (the harness's parallel executor relies on it).
    #[test]
    fn gpu_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Gpu>();
        assert_send::<SimError>();
    }

    #[test]
    fn geometry_overflowing_block_id_field_is_a_config_error() {
        // 32 SMs × 8 blocks = 256 slots > the 7-bit BlockID field (128).
        let cfg = GpuConfig {
            num_sms: 32,
            ..GpuConfig::paper_default()
        };
        assert!(matches!(Gpu::try_new(cfg), Err(SimError::Config(_))));
        // 33 warp slots > the 5-bit WarpID field (32).
        let cfg = GpuConfig {
            warps_per_sm: 33,
            ..GpuConfig::paper_default()
        };
        assert!(matches!(Gpu::try_new(cfg), Err(SimError::Config(msg)) if msg.contains("WarpID")));
        // The paper's default is exactly at the limits and must pass.
        assert!(GpuConfig::paper_default().validate().is_ok());
        assert!(GpuConfig {
            num_sms: 16,
            ..GpuConfig::paper_default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "BlockID")]
    fn gpu_new_panics_on_aliasing_geometry() {
        let _ = Gpu::new(GpuConfig {
            num_sms: 200,
            ..GpuConfig::paper_default()
        });
    }

    /// The quiescence skip must reproduce every statistic of un-skipped
    /// execution bit-for-bit; `cycles_skipped` is the one diagnostic field
    /// allowed to differ. Exercised per-`Gpu` via `GpuConfig::cycle_skip`
    /// (not the process-wide override, which other tests may share). The
    /// kernel mixes the wait states the skip reasons about: cold global
    /// loads (memory), a barrier, a device fence and a final store drain.
    #[test]
    fn cycle_skip_reproduces_stats_exactly() {
        let run = |cycle_skip: bool| {
            let cfg = GpuConfig {
                cycle_skip,
                ..GpuConfig::paper_default()
            };
            let mut gpu = Gpu::new(cfg);
            let buf = gpu.mem_mut().alloc_words(4096);
            let mut k = KernelBuilder::new("skip_mix", 1);
            let base = k.ld_param(0);
            let gtid = k.global_tid();
            let addr = k.index_addr(base, gtid, 4);
            let v = k.ld_global(addr, 0);
            k.bar();
            k.fence(Scope::Device);
            let v2 = k.alu(scord_isa::AluOp::Add, v, 1u32);
            k.st_global(addr, 0, v2);
            k.exit();
            let prog = k.finish().unwrap();
            gpu.launch(&prog, 8, 64, &[buf.addr()])
                .expect("kernel completes")
        };
        let mut skipping = run(true);
        let ticking = run(false);
        assert_eq!(ticking.cycles_skipped, 0, "disabled skip must never jump");
        assert!(
            skipping.cycles_skipped > 0,
            "the stall-heavy kernel must exercise the skip"
        );
        skipping.cycles_skipped = 0;
        assert_eq!(
            skipping, ticking,
            "skipped execution must reproduce every counter exactly"
        );
    }

    /// Pins the line→partition striping so the router, the detector
    /// metadata path, and the quiescence scan (which all go through
    /// [`partition_of`] — the bug this guards against was `sm_wake`
    /// recomputing the mapping inline) can never silently diverge.
    #[test]
    fn partition_mapping_is_pinned() {
        let cfg = GpuConfig::paper_default(); // 12 channels, 128 B lines
        assert_eq!(partition_of(&cfg, 0), 0);
        assert_eq!(partition_of(&cfg, 128), 1);
        assert_eq!(partition_of(&cfg, 130), 1, "keys on the line, not the byte");
        assert_eq!(partition_of(&cfg, 11 * 128), 11);
        assert_eq!(partition_of(&cfg, 12 * 128), 0, "wraps at channel count");
        // Non-power-of-two channel counts stripe by modulo, not masking.
        let odd = GpuConfig { channels: 7, ..cfg };
        for line in 0..64u64 {
            assert_eq!(partition_of(&odd, line * 128), (line % 7) as usize);
        }
    }

    /// Golden values for a kernel that exercises every memory-side path
    /// on a non-power-of-two channel count with detection on: L2 hits,
    /// misses, metadata traffic, atomics and a scoped-atomic race. The
    /// literals were captured from the simulator before its tick was
    /// folded into one direct path, so any refactor that changes timing,
    /// traffic or detection order fails here first.
    #[test]
    fn shard_mix_stats_and_races_are_pinned() {
        let cfg = GpuConfig {
            channels: 7,
            detection: crate::DetectionMode::scord(),
            ..GpuConfig::paper_default()
        };
        let mut gpu = Gpu::new(cfg);
        let buf = gpu.mem_mut().alloc_words(4096);
        let mut k = KernelBuilder::new("shard_mix", 1);
        let base = k.ld_param(0);
        let gtid = k.global_tid();
        let addr = k.index_addr(base, gtid, 4);
        let v = k.ld_global(addr, 0);
        // Block-scoped atomic shared across blocks: races the detector
        // reports.
        k.atom_add_noret(base, 0, 1u32, Scope::Block);
        k.fence(Scope::Device);
        let v2 = k.alu(scord_isa::AluOp::Add, v, 1u32);
        k.st_global(addr, 0, v2);
        k.exit();
        let prog = k.finish().unwrap();
        let stats = gpu
            .launch(&prog, 8, 64, &[buf.addr()])
            .expect("kernel completes");
        assert_eq!(
            stats,
            SimStats {
                cycles: 511,
                cycles_skipped: 181,
                warp_instructions: 224,
                thread_instructions: 7168,
                l1_hits: 0,
                l1_misses: 16,
                l2_data_hits: 32,
                l2_data_misses: 16,
                l2_md_hits: 134,
                l2_md_misses: 2,
                dram: crate::DramStats {
                    data_reads: 16,
                    data_writebacks: 0,
                    metadata_reads: 2,
                    metadata_writebacks: 0,
                },
                noc_flits: 656,
                detector_events: 48,
                detector_lane_accesses: 1536,
                stalls: crate::StallStats {
                    lhd: 0,
                    noc_full: 0,
                    memory: 2254,
                    barrier: 0,
                },
                unique_races: 2,
                total_races: 15,
                faults_injected: 0,
            }
        );
        // Sorted: the race *set* is deterministic, but its insertion order
        // within one event can follow detector-internal hash iteration.
        let mut races: Vec<_> = gpu.races().expect("detection on").unique_races().collect();
        races.sort_unstable_by_key(|&(pc, kind)| (pc, format!("{kind:?}")));
        assert_eq!(
            races,
            [
                (9, scord_core::RaceKind::ScopedAtomic),
                (12, scord_core::RaceKind::ScopedAtomic)
            ]
        );
    }

    #[test]
    fn out_of_bounds_access_is_reported() {
        let mut gpu = Gpu::new(GpuConfig::paper_default());
        let mut k = KernelBuilder::new("oob", 0);
        let bad = k.mov(0xFFFF_FFF0u32);
        let _ = k.ld_global(bad, 0);
        let prog = k.finish().unwrap();
        assert!(matches!(
            gpu.launch(&prog, 1, 32, &[]),
            Err(SimError::AddressOutOfBounds { .. })
        ));
    }
}
