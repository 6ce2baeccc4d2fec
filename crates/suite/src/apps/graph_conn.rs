//! Graph Connectivity (GCON, Table II).
//!
//! Connected components by label propagation: every vertex starts with its
//! own id and repeatedly lowers its label to the minimum over its
//! neighbours with a device-scoped `atomicMin`. Labels are *read*
//! atomically, so no fences are needed; rounds (enough for synchronous
//! propagation to reach the fixpoint, computed by the CPU reference) are
//! separated by a generation-flag grid sync. Vertices are distributed among
//! blocks with the same Figure-3 work-stealing scheme as GCOL.
//!
//! The canonical racey configuration yields the paper's 5 unique races.
//!
//! The getWork emitter is intentionally duplicated with GCOL's rather than
//! shared: the unique-race budgets are calibrated against each kernel's
//! exact instruction layout, and keeping the emitters local keeps a change
//! to one benchmark from silently invalidating the other's calibration.

use scord_isa::{AluOp, KernelBuilder, Program, Reg, Scope, SpecialReg};
use scord_sim::{Gpu, SimError};

use crate::common::{grid_sync, GridSyncScopes};
use crate::graphgen::{reference_components, rmat, CsrGraph};
use crate::{AppRun, Benchmark};

/// Race-injection knobs for GCON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphConnectivityRaces {
    /// `atomicAdd_block` on the block's own `nextHead` (Figure 3b's bug).
    pub block_scope_own_head: bool,
    /// Block scope on the stealing `atomicAdd`.
    pub block_scope_steal: bool,
    /// Lower labels with a block-scoped `atomicMin`.
    pub block_scope_min: bool,
    /// Read neighbour labels with weak loads instead of atomic reads.
    pub weak_label_read: bool,
    /// Raise the generation flag with a block-scoped `atomicExch`.
    pub block_scope_generation_flag: bool,
}

/// The graph-connectivity benchmark.
#[derive(Debug, Clone)]
pub struct GraphConnectivity {
    /// Vertices (paper: 100K; scaled default: 1024).
    pub vertices: u32,
    /// Undirected edges to generate (paper: 150K; scaled default: 1536).
    pub edges: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Grid blocks (all resident).
    pub blocks: u32,
    /// Race knobs.
    pub races: GraphConnectivityRaces,
    /// Graph seed.
    pub seed: u64,
}

impl Default for GraphConnectivity {
    fn default() -> Self {
        GraphConnectivity {
            vertices: 1024,
            edges: 1536,
            threads_per_block: 64,
            blocks: 8,
            races: GraphConnectivityRaces::default(),
            seed: 0x6c02,
        }
    }
}

impl GraphConnectivity {
    /// The canonical racey configuration (5 unique races).
    #[must_use]
    pub fn racey() -> Self {
        GraphConnectivity {
            races: GraphConnectivityRaces {
                block_scope_own_head: true,
                block_scope_steal: false,
                block_scope_min: true,
                weak_label_read: false,
                block_scope_generation_flag: true,
            },
            ..Self::default()
        }
    }

    /// The correctly-synchronized configuration with the graph (and the
    /// grid that walks it) scaled up `mult`× — a perf-harness knob for
    /// timing one simulation big enough to matter. Not used by any paper table: the unique-race
    /// budgets are calibrated at the default sizes only.
    #[must_use]
    pub fn scaled(mult: u32) -> Self {
        let mult = mult.max(1);
        let base = Self::default();
        GraphConnectivity {
            vertices: base.vertices * mult,
            edges: base.edges * mult,
            // Grow the grid with the graph so the extra work spreads over
            // more SMs instead of lengthening each block's queue — but cap
            // it at the grid size that stays *fully resident* on
            // paper_default hardware. The kernel's inter-block sync spins
            // on flags other blocks publish, so a block that never becomes
            // resident wedges every resident one; on paper_default the
            // kernel's occupancy is 6 blocks/SM × 15 SMs (measured: 90
            // blocks converges, 91 spins until the watchdog).
            blocks: (base.blocks * mult).min(90),
            ..base
        }
    }

    /// Synchronous pull rounds until the labelling reaches its fixpoint.
    #[must_use]
    pub fn reference_rounds(g: &CsrGraph) -> u32 {
        let n = g.num_vertices();
        let mut label: Vec<u32> = (0..n as u32).collect();
        let mut rounds = 0u32;
        loop {
            let prev = label.clone();
            let mut changed = false;
            for v in 0..n {
                let mut best = prev[v];
                for &w in g.neighbors(v) {
                    best = best.min(prev[w as usize]);
                }
                if best < label[v] {
                    label[v] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            rounds += 1;
        }
        rounds.max(1)
    }

    #[allow(clippy::too_many_lines)]
    fn build_kernel(&self, rounds: u32) -> Program {
        let r = &self.races;
        let own_scope = if r.block_scope_own_head {
            Scope::Block
        } else {
            Scope::Device
        };
        let steal_scope = if r.block_scope_steal {
            Scope::Block
        } else {
            Scope::Device
        };
        let min_scope = if r.block_scope_min {
            Scope::Block
        } else {
            Scope::Device
        };
        let weak_read = r.weak_label_read;
        let sync_scopes = GridSyncScopes {
            exch: if r.block_scope_generation_flag {
                Scope::Block
            } else {
                Scope::Device
            },
            ..GridSyncScopes::device()
        };

        // params: row_ptr, col_idx, labels, next_head, pend, gen
        let mut k = KernelBuilder::new("gcon", 6);
        let row_ptr = k.ld_param(0);
        let col_idx = k.ld_param(1);
        let labels = k.ld_param(2);
        let next_head = k.ld_param(3);
        let pend = k.ld_param(4);
        let gen = k.ld_param(5);
        let mailbox = k.alloc_shared(8);

        let tid = k.special(SpecialReg::Tid);
        let ntid = k.special(SpecialReg::Ntid);
        let ctaid = k.special(SpecialReg::Ctaid);
        let nblocks = k.special(SpecialReg::Nctaid);
        let leader = k.set_eq(tid, 0u32);
        let shbase = k.mov(mailbox);
        let round = k.mov(1u32);

        k.for_range(0u32, rounds, 1u32, |k, rr| {
            let nh_base = k.mul(rr, nblocks);
            let exhausted = k.mov(0u32);
            k.while_loop(
                |k| k.set_eq(exhausted, 0u32),
                |k| {
                    k.if_then(leader, |k| {
                        let victim = k.mov(0u32);
                        let batch = k.mov(0u32);
                        let own_idx = k.add(nh_base, ctaid);
                        let own_nh = k.index_addr(next_head, own_idx, 4);
                        let curr = k.atom_add(own_nh, 0, ntid, own_scope);
                        let ea = k.index_addr(pend, ctaid, 4);
                        let own_end = k.ld_global(ea, 0);
                        let got = k.set_lt(curr, own_end);
                        k.if_else(
                            got,
                            |k| {
                                let c1 = k.add(ctaid, 1u32);
                                k.mov_into(victim, c1);
                                k.mov_into(batch, curr);
                            },
                            |k| {
                                let vb = k.mov(0u32);
                                k.while_loop(
                                    |k| {
                                        let more = k.set_lt(vb, nblocks);
                                        let none = k.set_eq(victim, 0u32);
                                        k.logical_and(more, none)
                                    },
                                    |k| {
                                        let idx = k.add(nh_base, vb);
                                        let nh = k.index_addr(next_head, idx, 4);
                                        let head = k.atom_read(nh, 0, Scope::Device);
                                        let ea = k.index_addr(pend, vb, 4);
                                        let end = k.ld_global(ea, 0);
                                        let avail = k.set_lt(head, end);
                                        k.if_then(avail, |k| {
                                            let got2 = k.atom_add(nh, 0, ntid, steal_scope);
                                            let ok = k.set_lt(got2, end);
                                            k.if_then(ok, |k| {
                                                let v1 = k.add(vb, 1u32);
                                                k.mov_into(victim, v1);
                                                k.mov_into(batch, got2);
                                            });
                                        });
                                        k.alu_into(vb, AluOp::Add, vb, 1u32);
                                    },
                                );
                            },
                        );
                        k.st_shared(shbase, 0, victim);
                        k.st_shared(shbase, 4, batch);
                    });
                    k.bar();
                    let victim = k.ld_shared(shbase, 0);
                    let batch = k.ld_shared(shbase, 4);
                    k.bar();
                    let none = k.set_eq(victim, 0u32);
                    k.if_else(
                        none,
                        |k| k.mov_into(exhausted, 1u32),
                        |k| {
                            let vb = k.sub(victim, 1u32);
                            let v = k.add(batch, tid);
                            let ea = k.index_addr(pend, vb, 4);
                            let end = k.ld_global(ea, 0);
                            let below = k.set_lt(v, end);
                            k.if_then(below, |k| {
                                Self::emit_relax_vertex(
                                    k, row_ptr, col_idx, labels, v, min_scope, weak_read,
                                );
                            });
                        },
                    );
                },
            );
            grid_sync(k, gen, round, sync_scopes);
            k.alu_into(round, AluOp::Add, round, 1u32);
        });
        k.finish().expect("gcon kernel is well-formed")
    }

    fn emit_relax_vertex(
        k: &mut KernelBuilder,
        row_ptr: Reg,
        col_idx: Reg,
        labels: Reg,
        v: Reg,
        min_scope: Scope,
        weak_read: bool,
    ) {
        let la = k.index_addr(labels, v, 4);
        let lv = k.atom_read(la, 0, Scope::Device);
        let best = k.mov(lv);
        let ra = k.index_addr(row_ptr, v, 4);
        let lo = k.ld_global(ra, 0);
        let hi = k.ld_global(ra, 4);
        k.for_range(lo, hi, 1u32, |k, j| {
            let wa = k.index_addr(col_idx, j, 4);
            let w = k.ld_global(wa, 0);
            let nla = k.index_addr(labels, w, 4);
            let lw = if weak_read {
                k.ld_global(nla, 0)
            } else {
                k.atom_read(nla, 0, Scope::Device)
            };
            k.alu_into(best, AluOp::Min, best, lw);
        });
        let lower = k.set_lt(best, lv);
        k.if_then(lower, |k| {
            k.atom_noret(scord_isa::AtomOp::Min, la, 0, best, min_scope);
        });
    }
}

impl Benchmark for GraphConnectivity {
    fn name(&self) -> &'static str {
        "GCON"
    }

    fn description(&self) -> &'static str {
        "connected components via atomicMin label propagation with work stealing"
    }

    fn expected_races(&self) -> usize {
        // Exact budgets are calibrated for the canonical configurations
        // (knobs interact at shared instructions; see the knob-sweep
        // tests).
        let r = &self.races;
        if *r == Self::racey().races {
            5
        } else if *r == GraphConnectivityRaces::default() {
            0
        } else {
            usize::from(
                r.block_scope_own_head
                    || r.block_scope_steal
                    || r.block_scope_min
                    || r.weak_label_read
                    || r.block_scope_generation_flag,
            )
        }
    }

    fn run(&self, gpu: &mut Gpu) -> Result<AppRun, SimError> {
        let g = rmat(self.vertices as usize, self.edges as usize, self.seed);
        let rounds = Self::reference_rounds(&g);
        let program = self.build_kernel(rounds);

        let row_ptr = gpu.mem_mut().alloc_words(self.vertices + 1);
        let col_idx = gpu.mem_mut().alloc_words(g.num_edges().max(1) as u32);
        let labels = gpu.mem_mut().alloc_words(self.vertices);
        let next_head = gpu.mem_mut().alloc_words(rounds * self.blocks);
        let pend = gpu.mem_mut().alloc_words(self.blocks);
        let gen = gpu.mem_mut().alloc_words(self.blocks);

        gpu.mem_mut().copy_in(row_ptr, &g.row_ptr);
        gpu.mem_mut().copy_in(col_idx, &g.col_idx);
        let init: Vec<u32> = (0..self.vertices).collect();
        gpu.mem_mut().copy_in(labels, &init);
        gpu.mem_mut().fill(gen, 0);
        // Imbalanced partitions (block 0 owns half) so stealing happens.
        let half = self.vertices / 2;
        let per = (self.vertices - half) / (self.blocks - 1).max(1);
        let mut starts = vec![0u32];
        let mut ends = vec![half];
        for b in 1..self.blocks {
            starts.push(ends[b as usize - 1]);
            ends.push(if b == self.blocks - 1 {
                self.vertices
            } else {
                half + b * per
            });
        }
        gpu.mem_mut().copy_in(pend, &ends);
        let nh: Vec<u32> = (0..rounds).flat_map(|_| starts.iter().copied()).collect();
        gpu.mem_mut().copy_in(next_head, &nh);

        let stats = gpu.launch(
            &program,
            self.blocks,
            self.threads_per_block,
            &[
                row_ptr.addr(),
                col_idx.addr(),
                labels.addr(),
                next_head.addr(),
                pend.addr(),
                gen.addr(),
            ],
        )?;

        let output_valid = if self.expected_races() == 0 {
            let got = gpu.mem().copy_out(labels);
            Some(got == reference_components(&g))
        } else {
            None
        };
        Ok(AppRun::new(stats, 1, output_valid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scord_sim::{DetectionMode, GpuConfig};

    fn small() -> GraphConnectivity {
        GraphConnectivity {
            vertices: 256,
            edges: 384,
            blocks: 4,
            threads_per_block: 32,
            ..GraphConnectivity::default()
        }
    }

    #[test]
    fn correct_config_validates_and_is_race_free() {
        let mut gpu = Gpu::new(GpuConfig::paper_default().with_detection(DetectionMode::scord()));
        let run = small().run(&mut gpu).unwrap();
        assert_eq!(run.output_valid, Some(true));
        assert_eq!(
            gpu.races().unwrap().unique_count(),
            0,
            "{:?}",
            gpu.races().unwrap().records()
        );
    }

    #[test]
    fn scaled_grows_graph_and_grid_and_stays_race_free() {
        let s = GraphConnectivity::scaled(4);
        let base = GraphConnectivity::default();
        assert_eq!(s.vertices, base.vertices * 4);
        assert_eq!(s.edges, base.edges * 4);
        assert_eq!(s.blocks, base.blocks * 4);
        assert_eq!(s.races, GraphConnectivityRaces::default());
        assert_eq!(s.expected_races(), 0);
        // The grid cap keeps huge multipliers fully resident: the kernel's
        // inter-block sync wedges if any block waits for a free slot.
        assert_eq!(GraphConnectivity::scaled(100).blocks, 90);
        // A scaled run must still validate: same kernel, bigger instance.
        let mut gpu = Gpu::new(GpuConfig::paper_default());
        let run = GraphConnectivity::scaled(2).run(&mut gpu).unwrap();
        assert_eq!(run.output_valid, Some(true));
    }

    #[test]
    fn racey_config_produces_five_unique_races() {
        let mut gpu =
            Gpu::new(GpuConfig::paper_default().with_detection(DetectionMode::base_design()));
        // Race budgets are calibrated at the default sizes.
        let app = GraphConnectivity::racey();
        app.run(&mut gpu).unwrap();
        let mut u: Vec<_> = gpu.races().unwrap().unique_races().collect();
        u.sort_by_key(|(pc, k)| (*pc, format!("{k}")));
        assert_eq!(
            gpu.races().unwrap().unique_count(),
            app.expected_races(),
            "{u:?}"
        );
    }
}
