//! Simulator configuration (paper Table V plus detector-timing knobs).

use scord_core::{DetectorConfig, FaultPlan, Geometry, StoreKind};

/// GDDR5 timing parameters in memory-controller cycles (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Row-to-row activate delay.
    pub t_rrd: u32,
    /// RAS-to-CAS delay (activate to column access).
    pub t_rcd: u32,
    /// Row-active minimum time.
    pub t_ras: u32,
    /// Row precharge time.
    pub t_rp: u32,
    /// Row cycle time (activate to activate, same bank).
    pub t_rc: u32,
    /// CAS latency.
    pub t_cl: u32,
    /// Cycles to transfer one 128-byte burst.
    pub burst: u32,
}

impl DramTiming {
    /// Table V's GDDR5 timings.
    #[must_use]
    pub fn paper_default() -> Self {
        DramTiming {
            t_rrd: 6,
            t_rcd: 12,
            t_ras: 28,
            t_rp: 12,
            t_rc: 40,
            t_cl: 12,
            burst: 4,
        }
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming::paper_default()
    }
}

/// Which of ScoRD's three timing-overhead sources are modelled.
///
/// Figure 10 of the paper attributes the slowdown to (1) stalling on L1 hits
/// while the race detector's buffers are full (LHD), (2) extra bytes on
/// network packets (NOC), and (3) metadata accesses and writebacks (MD). The
/// paper measures each contribution by turning the others' *timing* off while
/// keeping detection functionally identical — these switches reproduce that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadToggles {
    /// Stall the SM when an L1 hit cannot enqueue its detection packet.
    pub lhd: bool,
    /// Grow request packets by the detection header (warp/block IDs, fence
    /// IDs, lock bloom).
    pub noc: bool,
    /// Charge metadata reads/writebacks to the L2/DRAM.
    pub md: bool,
}

impl OverheadToggles {
    /// All overhead sources modelled (the real ScoRD).
    #[must_use]
    pub fn all() -> Self {
        OverheadToggles {
            lhd: true,
            noc: true,
            md: true,
        }
    }
}

impl Default for OverheadToggles {
    fn default() -> Self {
        OverheadToggles::all()
    }
}

/// Race-detection configuration for a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionMode {
    /// No race detection (the normalization baseline of Figures 8/9/11).
    Off,
    /// Detection with a given metadata organisation.
    On {
        /// Metadata store (full granularity or the ScoRD software cache).
        store: StoreKind,
        /// Which overhead sources to model.
        toggles: OverheadToggles,
    },
}

impl DetectionMode {
    /// ScoRD's shipping configuration: cached metadata, all overheads.
    #[must_use]
    pub fn scord() -> Self {
        DetectionMode::On {
            store: StoreKind::Cached { ratio: 16 },
            toggles: OverheadToggles::all(),
        }
    }

    /// The base design without metadata caching.
    #[must_use]
    pub fn base_design() -> Self {
        DetectionMode::On {
            store: StoreKind::Full { granularity: 4 },
            toggles: OverheadToggles::all(),
        }
    }

    /// `true` when detection is enabled.
    #[must_use]
    pub fn is_on(&self) -> bool {
        matches!(self, DetectionMode::On { .. })
    }
}

/// Full GPU configuration.
///
/// [`GpuConfig::paper_default`] matches Table V; the `low_memory` /
/// `high_memory` variants are the sensitivity points of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of SMs.
    pub num_sms: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Hardware warp slots per SM.
    pub warps_per_sm: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Scratchpad bytes per SM.
    pub shared_mem_per_sm: u32,
    /// Warp instructions issued per SM per cycle.
    pub issue_width: u32,
    /// L1 data cache size in bytes (16 KB, 4-way, 128 B lines).
    pub l1_bytes: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// Total L2 size in bytes (1.5 MB, 8-way, 128 B lines), sliced across
    /// the memory partitions.
    pub l2_bytes: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L2 hit latency in cycles.
    pub l2_latency: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Memory channels (= L2 slices/partitions).
    pub channels: u32,
    /// Banks per DRAM channel.
    pub banks_per_channel: u32,
    /// DRAM row (page) size in bytes.
    pub row_bytes: u32,
    /// GDDR5 timing.
    pub dram: DramTiming,
    /// Flit payload in bytes on the interconnect.
    pub flit_bytes: u32,
    /// Per-SM→partition injection queue capacity (packets).
    pub noc_queue: usize,
    /// Shared-memory access latency.
    pub shared_latency: u32,
    /// Block-scope fence cost in cycles.
    pub fence_block_latency: u32,
    /// Device-scope fence cost in cycles.
    pub fence_device_latency: u32,
    /// Device memory size in bytes (data region; metadata lives above it).
    pub mem_bytes: u64,
    /// Race-detector attachment.
    pub detection: DetectionMode,
    /// Detection-packet queue capacity at the race detector.
    pub detector_queue: usize,
    /// Lane accesses the detector retires per cycle.
    pub detector_throughput: u32,
    /// Extra request-packet bytes carrying detection state (warp/block IDs,
    /// fence IDs, bloom filter) when detection is on.
    pub detection_header_bytes: u32,
    /// Optional fault-injection campaign applied to the detector pipeline
    /// (detector state corruption plus queue-level event faults). Ignored
    /// when detection is off.
    pub fault: Option<FaultPlan>,
    /// Skip ahead over cycles in which no component can make progress
    /// (quiescence skip — see the "Performance engineering" section of
    /// DESIGN.md). Simulation results are byte-identical with or without
    /// it; `false` forces the exhaustive cycle-by-cycle loop for
    /// debugging. Also gated process-wide by
    /// [`crate::set_cycle_skip`].
    pub cycle_skip: bool,
    /// Sampled-SM mode: build only this many detailed SMs and model the
    /// remaining `num_sms − sample_sms` SMs' memory traffic statistically
    /// (ghost packets calibrated from the sampled set — see the
    /// "Paper-scale" section of DESIGN.md and [`crate::SampleReport`]).
    /// `0` (the default) disables sampling; the full machine is simulated
    /// and results honour the byte-identical determinism contract.
    /// Non-zero values are an opt-in *approximation*: the full grid still
    /// executes (functional results are exact), but cycle counts are
    /// extrapolated and every extrapolated number carries an error bound.
    /// Sampled runs are gated out of all paper tables — only the
    /// `paper-scale` harness tier sets this.
    pub sample_sms: u32,
}

impl GpuConfig {
    /// The paper's default configuration (Table V), detection off.
    #[must_use]
    pub fn paper_default() -> Self {
        GpuConfig {
            num_sms: 15,
            warp_size: 32,
            max_threads_per_block: 1024,
            blocks_per_sm: 8,
            warps_per_sm: 32,
            regs_per_sm: 32768,
            shared_mem_per_sm: 48 << 10,
            issue_width: 2,
            l1_bytes: 16 << 10,
            l1_ways: 4,
            l1_latency: 4,
            l2_bytes: 3 << 19, // 1.5 MB
            l2_ways: 8,
            l2_latency: 30,
            line_bytes: 128,
            channels: 12,
            banks_per_channel: 8,
            row_bytes: 2048,
            dram: DramTiming::paper_default(),
            flit_bytes: 16,
            noc_queue: 16,
            shared_latency: 24,
            fence_block_latency: 10,
            fence_device_latency: 40,
            mem_bytes: 64 << 20,
            detection: DetectionMode::Off,
            detector_queue: 64,
            detector_throughput: 12,
            detection_header_bytes: 8,
            fault: None,
            cycle_skip: true,
            sample_sms: 0,
        }
    }

    /// Figure 11's constrained memory system: half the L2, half the
    /// channels.
    #[must_use]
    pub fn low_memory() -> Self {
        GpuConfig {
            l2_bytes: 3 << 18,
            channels: 6,
            ..Self::paper_default()
        }
    }

    /// Figure 11's generous memory system: double the L2 and channels.
    #[must_use]
    pub fn high_memory() -> Self {
        GpuConfig {
            l2_bytes: 3 << 20,
            channels: 24,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with the given detection mode.
    #[must_use]
    pub fn with_detection(mut self, detection: DetectionMode) -> Self {
        self.detection = detection;
        self
    }

    /// Returns a copy with a fault-injection plan armed (effective only when
    /// detection is on).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Returns a copy with sampled-SM mode set (`0` disables it).
    #[must_use]
    pub fn with_sample_sms(mut self, sample_sms: u32) -> Self {
        self.sample_sms = sample_sms;
        self
    }

    /// Checks the configuration against the machine's hard representation
    /// limits — chiefly the metadata accessor-identity field widths
    /// ([`scord_core::BLOCK_ID_BITS`], [`scord_core::WARP_ID_BITS`]). A
    /// geometry that overflows them would silently alias distinct block or
    /// warp slots onto one metadata identity, corrupting detection.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Config`] describing the first violated limit.
    pub fn validate(&self) -> Result<(), crate::SimError> {
        use crate::SimError::Config;
        let max_block_slots = 1u32 << scord_core::BLOCK_ID_BITS;
        let max_warp_slots = 1u32 << scord_core::WARP_ID_BITS;
        if self.num_sms == 0 || self.blocks_per_sm == 0 || self.warps_per_sm == 0 {
            return Err(Config(
                "num_sms, blocks_per_sm and warps_per_sm must be non-zero".into(),
            ));
        }
        if self.num_sms > 256 {
            return Err(Config(format!(
                "num_sms = {} exceeds the 8-bit SM id carried on packets (max 256)",
                self.num_sms
            )));
        }
        let block_slots = self.num_sms.checked_mul(self.blocks_per_sm);
        if block_slots.is_none_or(|n| n > max_block_slots) {
            return Err(Config(format!(
                "num_sms × blocks_per_sm = {}×{} exceeds the {}-bit metadata BlockID \
                 field (max {max_block_slots} block slots)",
                self.num_sms,
                self.blocks_per_sm,
                scord_core::BLOCK_ID_BITS
            )));
        }
        if self.warps_per_sm > max_warp_slots {
            return Err(Config(format!(
                "warps_per_sm = {} exceeds the {}-bit metadata WarpID field (max \
                 {max_warp_slots} warp slots)",
                self.warps_per_sm,
                scord_core::WARP_ID_BITS
            )));
        }
        if self.warp_size == 0 || self.warp_size > 32 {
            return Err(Config(format!(
                "warp_size = {} must be 1..=32 (32-bit lane masks)",
                self.warp_size
            )));
        }
        if self.channels == 0 {
            return Err(Config("channels must be non-zero".into()));
        }
        if self.sample_sms > 0 && self.sample_sms >= self.num_sms {
            return Err(Config(format!(
                "sample_sms = {} must be smaller than num_sms = {} (0 disables sampling)",
                self.sample_sms, self.num_sms
            )));
        }
        Ok(())
    }

    /// The detector geometry implied by this configuration.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        Geometry {
            num_sms: self.num_sms,
            blocks_per_sm: self.blocks_per_sm,
            warps_per_sm: self.warps_per_sm,
        }
    }

    /// Builds the [`DetectorConfig`] for the active detection mode, or
    /// `None` when detection is off.
    #[must_use]
    pub fn detector_config(&self) -> Option<DetectorConfig> {
        match self.detection {
            DetectionMode::Off => None,
            DetectionMode::On { store, .. } => Some(DetectorConfig {
                geometry: self.geometry(),
                store,
                mem_bytes: self.mem_bytes,
                metadata_base: self.mem_bytes,
                lock_table_entries: 4,
                max_race_records: 4096,
                fault: self.fault,
            }),
        }
    }

    /// The active overhead toggles (all off when detection is off).
    #[must_use]
    pub fn toggles(&self) -> OverheadToggles {
        match self.detection {
            DetectionMode::Off => OverheadToggles {
                lhd: false,
                noc: false,
                md: false,
            },
            DetectionMode::On { toggles, .. } => toggles,
        }
    }

    /// L2 slice size per memory partition.
    #[must_use]
    pub fn l2_slice_bytes(&self) -> u32 {
        self.l2_bytes / self.channels
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table5() {
        let c = GpuConfig::paper_default();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.max_threads_per_block, 1024);
        assert_eq!(c.regs_per_sm, 32768);
        assert_eq!(c.blocks_per_sm, 8);
        assert_eq!(c.warps_per_sm, 32);
        assert_eq!(c.l1_bytes, 16 << 10);
        assert_eq!(c.l1_ways, 4);
        assert_eq!(c.l2_bytes, 1536 << 10);
        assert_eq!(c.l2_ways, 8);
        assert_eq!(c.line_bytes, 128);
        assert_eq!(c.channels, 12);
        let d = c.dram;
        assert_eq!(
            (d.t_rrd, d.t_rcd, d.t_ras, d.t_rp, d.t_rc, d.t_cl),
            (6, 12, 28, 12, 40, 12)
        );
    }

    #[test]
    fn sensitivity_variants_scale_memory() {
        let lo = GpuConfig::low_memory();
        let hi = GpuConfig::high_memory();
        let def = GpuConfig::paper_default();
        assert_eq!(lo.l2_bytes * 2, def.l2_bytes);
        assert_eq!(hi.l2_bytes, def.l2_bytes * 2);
        assert_eq!(lo.channels * 2, def.channels);
        assert_eq!(hi.channels, def.channels * 2);
    }

    #[test]
    fn detector_config_follows_mode() {
        let off = GpuConfig::paper_default();
        assert!(off.detector_config().is_none());
        assert!(!off.detection.is_on());
        let on = off.with_detection(DetectionMode::scord());
        let dc = on.detector_config().unwrap();
        assert_eq!(dc.store, StoreKind::Cached { ratio: 16 });
        assert_eq!(dc.metadata_base, on.mem_bytes);
        assert!(on.detection.is_on());
    }

    #[test]
    fn toggles_default_all_on_when_detecting() {
        let on = GpuConfig::paper_default().with_detection(DetectionMode::base_design());
        let t = on.toggles();
        assert!(t.lhd && t.noc && t.md);
        let off = GpuConfig::paper_default().toggles();
        assert!(!off.lhd && !off.noc && !off.md);
    }

    #[test]
    fn sample_sms_must_stay_below_num_sms() {
        let c = GpuConfig::paper_default();
        assert_eq!(c.sample_sms, 0, "sampling is opt-in");
        assert!(c.validate().is_ok());
        assert!(c.with_sample_sms(5).validate().is_ok());
        assert!(c.with_sample_sms(c.num_sms - 1).validate().is_ok());
        assert!(c.with_sample_sms(c.num_sms).validate().is_err());
        assert!(c.with_sample_sms(c.num_sms + 1).validate().is_err());
    }

    #[test]
    fn l2_slices_divide_evenly() {
        let c = GpuConfig::paper_default();
        assert_eq!(c.l2_slice_bytes() * c.channels, c.l2_bytes);
        assert_eq!(c.l2_slice_bytes(), 128 << 10);
    }
}
