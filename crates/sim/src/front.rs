//! The per-SM front end: the occupancy-bitmask prepass, the round-robin
//! dual-issue loop, and warp execution.
//!
//! `Gpu::tick` runs [`sm_front`] once per SM per cycle, in ascending SM
//! order, on the simulation thread. Every effect lands directly in machine
//! state through [`FrontCtx`]: functional memory, register writebacks,
//! detector events (consuming the fault-injection RNG stream in generation
//! order), L1-hit response events, statistics and block retirement. An
//! execution error aborts the launch at the instruction that raised it.
//!
//! The one front-end input that couples SMs within a cycle is the
//! L1-hit-detection (LHD) backpressure signal. It is latched once per
//! cycle, after block dispatch ([`FrontCtx::lhd_open`]) — the
//! hardware-realistic registered backpressure wire — so an SM never sees
//! detector-queue entries that a lower-numbered SM enqueued earlier in the
//! same cycle. Every paper table is pinned to this latched signal.

use scord_core::{AccessKind, Accessor, AtomKind, MemAccess};
use scord_isa::{AtomOp, Instr, Operand, Pc, Program, Reg, Scope, Space, SpecialReg};

use crate::gpu::{Ev, EventQueue, Packet};
use crate::{
    DetectorEvent, DetectorUnit, DeviceMemory, GpuConfig, OverheadToggles, SimError, SimStats, Sm,
    Warp, WarpState,
};

/// Reusable per-access buffers. One warp memory instruction used to
/// allocate fresh `Vec`s; these persist on the `Gpu` and are cleared per
/// access instead.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `(lane, byte address)` of every active lane.
    pub lane_addrs: Vec<(u32, u64)>,
    /// Coalesced `(line address, lane mask)` transactions.
    pub line_lanes: Vec<(u64, u32)>,
    /// Transactions missing L1 (or bypassing it).
    pub to_l2: Vec<(u64, u32)>,
    /// Lines hitting L1.
    pub l1_hits: Vec<u64>,
}

/// Everything a front end reads or writes that its `Sm` does not own.
pub(crate) struct FrontCtx<'a> {
    pub cfg: &'a GpuConfig,
    pub program: &'a Program,
    pub params: &'a [u32],
    pub now: u64,
    pub grid_blocks: u32,
    pub threads_per_block: u32,
    /// The cycle-latched LHD backpressure signal: `true` when the
    /// detector queue accepted L1-hit packets at the start of this cycle
    /// (or no detector is attached).
    pub lhd_open: bool,
    pub toggles: OverheadToggles,
    pub mem: &'a mut DeviceMemory,
    pub detector: Option<&'a mut DetectorUnit>,
    pub events: &'a mut EventQueue,
    pub stats: &'a mut SimStats,
    pub scratch: &'a mut Scratch,
    /// Resident blocks machine-wide; a retiring block decrements it.
    pub blocks_live: &'a mut u32,
    /// Block dispatch re-arm: set when a retirement frees resources.
    pub dispatch_hint: &'a mut bool,
}

enum Outcome {
    Issued,
    Stalled,
    Exited,
}

/// A warp memory instruction bound for global memory.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GlobalOp {
    Load {
        dst: Reg,
        strong: bool,
    },
    Store {
        src: Operand,
        strong: bool,
    },
    Atomic {
        op: AtomOp,
        dst: Option<Reg>,
        val: Operand,
        cmp: Operand,
        scope: Scope,
    },
}

/// Iterates the set lane indices of a mask.
fn lanes(mask: u32) -> impl Iterator<Item = u32> {
    (0..32).filter(move |i| mask & (1 << i) != 0)
}

/// Runs one SM's complete front end for this cycle: prepass, then the
/// dual-issue loop.
pub(crate) fn sm_front(ctx: &mut FrontCtx, sm: &mut Sm) -> Result<(), SimError> {
    prepass(ctx, sm);
    issue(ctx, sm)
}

/// Cheap per-cycle state progression: fence completion, drained exits,
/// stall accounting. Iterates the occupancy bitmask rather than every
/// slot; the snapshot may go stale when a retirement mid-loop clears a
/// later bit, so each slot is still re-checked for residency.
fn prepass(ctx: &mut FrontCtx, sm: &mut Sm) {
    let mut occ = sm.occupied;
    while occ != 0 {
        let idx = occ.trailing_zeros() as usize;
        occ &= occ - 1;
        let mut retire_block = None;
        let Some(w) = sm.warps[idx].as_mut() else {
            continue;
        };
        match w.state {
            WarpState::WaitFence { end: None, scope }
                if w.outstanding_stores == 0 && w.pending_loads == 0 =>
            {
                let latency = match scope {
                    Scope::Block => ctx.cfg.fence_block_latency,
                    Scope::Device => ctx.cfg.fence_device_latency,
                };
                w.state = WarpState::WaitFence {
                    end: Some(ctx.now + u64::from(latency)),
                    scope,
                };
                if let Some(det) = ctx.detector.as_mut() {
                    det.enqueue(DetectorEvent::Fence {
                        sm: sm.id,
                        warp_slot: w.warp_slot,
                        scope,
                    });
                }
            }
            WarpState::WaitFence {
                end: Some(t),
                scope: _,
            } if ctx.now >= t => {
                w.state = WarpState::Ready { at: ctx.now };
            }
            WarpState::WaitMem => {
                ctx.stats.stalls.memory += 1;
                // A draining exited warp: retire once all traffic landed.
                if w.pending_loads == 0 && w.outstanding_stores == 0 && w.is_done() {
                    retire_block = Some(w.block_index);
                    w.state = WarpState::Done;
                }
            }
            WarpState::WaitBarrier => ctx.stats.stalls.barrier += 1,
            _ => {}
        }
        if let Some(bidx) = retire_block {
            try_retire_warp(ctx, sm, idx, bidx);
        }
    }
}

/// The rotated-occupancy-mask dual-issue loop.
fn issue(ctx: &mut FrontCtx, sm: &mut Sm) -> Result<(), SimError> {
    let nw = sm.warps.len();
    let slot_mask = (1u64 << nw) - 1;
    let mut issued = 0;
    let mut probe: u32 = 0;
    while issued < ctx.cfg.issue_width && probe < nw as u32 {
        let occ = sm.occupied;
        if occ == 0 {
            break;
        }
        // Advance `probe` over empty slots in one step: rotate the
        // occupancy mask so the current probe position is bit 0, then
        // count the zeros below the next live slot. Each skipped empty
        // slot still consumes one probe, exactly as a slot-by-slot scan
        // would, so the issue order and the round-robin pointer evolve
        // identically.
        let pos = (sm.rr + probe as usize) % nw;
        let rot = ((occ >> pos) | (occ << (nw - pos))) & slot_mask;
        probe += rot.trailing_zeros();
        if probe >= nw as u32 {
            break;
        }
        let idx = (sm.rr + probe as usize) % nw;
        probe += 1;
        let ready = matches!(
            sm.warps[idx].as_ref().map(|w| &w.state),
            Some(WarpState::Ready { at }) if *at <= ctx.now
        );
        if !ready {
            continue;
        }
        let mut warp = sm.warps[idx].take().expect("ready warp");
        let outcome = exec_warp(ctx, sm, &mut warp);
        let block_index = warp.block_index;
        sm.warps[idx] = Some(warp);
        match outcome? {
            Outcome::Issued => {
                issued += 1;
                sm.rr = idx + 1;
            }
            Outcome::Stalled => {}
            Outcome::Exited => {
                issued += 1;
                sm.rr = idx + 1;
                try_retire_warp(ctx, sm, idx, block_index);
            }
        }
    }
    Ok(())
}

/// Retires a `Done` warp, completing its block when it was the last one.
/// A warp still draining memory traffic stays resident (as `WaitMem`);
/// the prepass retries once its responses land.
fn try_retire_warp(ctx: &mut FrontCtx, sm: &mut Sm, idx: usize, block_index: usize) {
    let ready = matches!(
        sm.warps[idx].as_ref(),
        Some(w) if matches!(w.state, WarpState::Done)
            && w.pending_loads == 0
            && w.outstanding_stores == 0
    );
    if !ready {
        return;
    }
    let (live_now, released) = {
        let block = sm.blocks[block_index]
            .as_mut()
            .expect("warp's block resident");
        block.live_warps -= 1;
        (block.live_warps, block.barrier_arrived)
    };
    if live_now > 0 && released >= live_now {
        release_barrier(ctx, sm, block_index);
    }
    if live_now == 0 {
        finish_block(ctx, sm, block_index);
    }
}

fn release_barrier(ctx: &mut FrontCtx, sm: &mut Sm, block_index: usize) {
    let (slots, block_slot_global) = {
        let block = sm.blocks[block_index].as_mut().expect("resident");
        block.barrier_arrived = 0;
        (block.warp_slots.clone(), block.block_slot_global)
    };
    for slot in slots {
        if let Some(w) = sm.warps[slot].as_mut() {
            if matches!(w.state, WarpState::WaitBarrier) {
                w.state = WarpState::Ready { at: ctx.now + 5 };
            }
        }
    }
    if let Some(det) = ctx.detector.as_mut() {
        det.enqueue(DetectorEvent::Barrier {
            sm: sm.id,
            block_slot: block_slot_global,
        });
    }
}

fn finish_block(ctx: &mut FrontCtx, sm: &mut Sm, block_index: usize) {
    let block = sm.blocks[block_index].take().expect("resident");
    let regs = u32::from(ctx.program.num_regs()) * ctx.threads_per_block;
    for slot in block.warp_slots {
        sm.warps[slot] = None;
        sm.occupied &= !(1u64 << slot);
    }
    sm.free_regs += regs;
    sm.free_shared += ctx.program.shared_bytes();
    *ctx.blocks_live -= 1;
    *ctx.dispatch_hint = true;
}

fn count_issue(stats: &mut SimStats, mask: u32) {
    stats.warp_instructions += 1;
    stats.thread_instructions += u64::from(mask.count_ones());
}

fn complete_alu(ctx: &mut FrontCtx, warp: &mut Warp, mask: u32) {
    warp.advance();
    warp.state = WarpState::Ready { at: ctx.now + 1 };
    count_issue(ctx.stats, mask);
}

#[allow(clippy::too_many_lines)]
fn exec_warp(ctx: &mut FrontCtx, sm: &mut Sm, warp: &mut Warp) -> Result<Outcome, SimError> {
    let Some((pc, mask)) = warp.fetch() else {
        warp.state = WarpState::Done;
        return Ok(Outcome::Exited);
    };
    // Copy the instruction out so the `Arc` is borrowed only briefly —
    // cloning it here put an atomic refcount round-trip on every issued
    // instruction.
    let instr = *ctx.program.fetch(pc).unwrap_or(&Instr::Exit);

    match instr {
        Instr::Mov { dst, src } => {
            for lane in lanes(mask) {
                let v = warp.operand(lane, src);
                warp.set_reg(lane, dst, v);
            }
            complete_alu(ctx, warp, mask);
        }
        Instr::Alu { op, dst, a, b } => {
            for lane in lanes(mask) {
                let va = warp.operand(lane, a);
                let vb = warp.operand(lane, b);
                warp.set_reg(lane, dst, op.eval(va, vb));
            }
            complete_alu(ctx, warp, mask);
        }
        Instr::Special { dst, sreg } => {
            for lane in lanes(mask) {
                let v = match sreg {
                    SpecialReg::Tid => warp.warp_in_block * ctx.cfg.warp_size + lane,
                    SpecialReg::Ntid => ctx.threads_per_block,
                    SpecialReg::Ctaid => warp.ctaid,
                    SpecialReg::Nctaid => ctx.grid_blocks,
                    SpecialReg::LaneId => lane,
                    SpecialReg::WarpId => warp.warp_in_block,
                };
                warp.set_reg(lane, dst, v);
            }
            complete_alu(ctx, warp, mask);
        }
        Instr::LdParam { dst, index } => {
            let v = ctx.params[usize::from(index)];
            for lane in lanes(mask) {
                warp.set_reg(lane, dst, v);
            }
            complete_alu(ctx, warp, mask);
        }
        Instr::Ld {
            dst,
            addr,
            space: Space::Shared,
            ..
        } => {
            let block = sm.blocks[warp.block_index]
                .as_ref()
                .expect("resident block");
            for lane in lanes(mask) {
                let a = addr.resolve(warp.reg(lane, addr.base));
                let idx = (a / 4) as usize;
                let v = *block.shared.get(idx).ok_or(SimError::AddressOutOfBounds {
                    addr: u64::from(a),
                    pc,
                })?;
                warp.set_reg(lane, dst, v);
            }
            warp.advance();
            warp.state = WarpState::Ready {
                at: ctx.now + u64::from(ctx.cfg.shared_latency),
            };
            count_issue(ctx.stats, mask);
        }
        Instr::St {
            src,
            addr,
            space: Space::Shared,
            ..
        } => {
            for lane in lanes(mask) {
                let a = addr.resolve(warp.reg(lane, addr.base));
                let v = warp.operand(lane, src);
                let block = sm.blocks[warp.block_index]
                    .as_mut()
                    .expect("resident block");
                let idx = (a / 4) as usize;
                *block
                    .shared
                    .get_mut(idx)
                    .ok_or(SimError::AddressOutOfBounds {
                        addr: u64::from(a),
                        pc,
                    })? = v;
            }
            warp.advance();
            warp.state = WarpState::Ready { at: ctx.now + 1 };
            count_issue(ctx.stats, mask);
        }
        Instr::Ld {
            dst,
            addr,
            space: Space::Global,
            strong,
        } => {
            return exec_global(
                ctx,
                sm,
                warp,
                pc,
                mask,
                GlobalOp::Load { dst, strong },
                addr,
            );
        }
        Instr::St {
            src,
            addr,
            space: Space::Global,
            strong,
        } => {
            return exec_global(
                ctx,
                sm,
                warp,
                pc,
                mask,
                GlobalOp::Store { src, strong },
                addr,
            );
        }
        Instr::Atom {
            op,
            dst,
            addr,
            val,
            cmp,
            scope,
        } => {
            return exec_global(
                ctx,
                sm,
                warp,
                pc,
                mask,
                GlobalOp::Atomic {
                    op,
                    dst,
                    val,
                    cmp,
                    scope,
                },
                addr,
            );
        }
        Instr::Fence { scope } => {
            warp.advance();
            warp.state = WarpState::WaitFence { end: None, scope };
            count_issue(ctx.stats, mask);
        }
        Instr::Bar => {
            if !warp.converged() {
                return Err(SimError::BarrierDivergence { pc });
            }
            warp.advance();
            warp.state = WarpState::WaitBarrier;
            count_issue(ctx.stats, mask);
            let (arrived, live) = {
                let block = sm.blocks[warp.block_index]
                    .as_mut()
                    .expect("resident block");
                block.barrier_arrived += 1;
                (block.barrier_arrived, block.live_warps)
            };
            if arrived >= live {
                // This warp is currently taken out of its slot: release
                // it directly, then the rest.
                warp.state = WarpState::Ready { at: ctx.now + 5 };
                let block = sm.blocks[warp.block_index]
                    .as_mut()
                    .expect("resident block");
                block.barrier_arrived -= 1; // this warp, handled here
                release_barrier(ctx, sm, warp.block_index);
            }
        }
        Instr::Branch {
            cond,
            if_zero,
            target,
            reconv,
        } => {
            let mut taken = 0u32;
            for lane in lanes(mask) {
                let v = warp.reg(lane, cond);
                if (v == 0) == if_zero {
                    taken |= 1 << lane;
                }
            }
            warp.branch(taken, target, pc + 1, reconv);
            warp.state = WarpState::Ready { at: ctx.now + 1 };
            count_issue(ctx.stats, mask);
        }
        Instr::Jump { target } => {
            warp.jump(target);
            warp.state = WarpState::Ready { at: ctx.now + 1 };
            count_issue(ctx.stats, mask);
        }
        Instr::Exit => {
            warp.exit_lanes(mask);
            count_issue(ctx.stats, mask);
            if warp.is_done() {
                if warp.pending_loads == 0 && warp.outstanding_stores == 0 {
                    warp.state = WarpState::Done;
                } else {
                    warp.state = WarpState::WaitMem; // drain, then retire
                }
                return Ok(Outcome::Exited);
            }
            warp.state = WarpState::Ready { at: ctx.now + 1 };
        }
        Instr::Nop => {
            warp.advance();
            warp.state = WarpState::Ready { at: ctx.now + 1 };
            count_issue(ctx.stats, mask);
        }
    }
    Ok(Outcome::Issued)
}

/// Issues one global memory instruction: stall checks, lane gather with
/// bounds checks, coalescing, L1 classification, the timing side (L1
/// LRU/invalidate, NoC queue, pending-load/store counters, warp state),
/// then the functional side — memory, register writebacks, the detector
/// `Access` event and the L1-hit response events.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn exec_global(
    ctx: &mut FrontCtx,
    sm: &mut Sm,
    warp: &mut Warp,
    pc: Pc,
    mask: u32,
    op: GlobalOp,
    addr: scord_isa::MemAddr,
) -> Result<Outcome, SimError> {
    let (is_store, is_atomic, strong) = match op {
        GlobalOp::Load { strong, .. } => (false, false, strong),
        GlobalOp::Store { strong, .. } => (true, false, strong),
        GlobalOp::Atomic { .. } => (true, true, true),
    };
    let use_l1 = !strong && !is_store && !is_atomic;

    // Fast stall check before any address work: an access that bypasses
    // L1 always generates at least one L2 transaction (the executed
    // mask is never empty), so when the queue is already over the
    // high-water mark it will stall no matter what it touches. Under
    // congestion a warp retries every cycle; without this check each
    // retry re-gathered and re-coalesced all 32 lane addresses. (An
    // out-of-bounds address on such a retrying access is reported
    // when the queue drains rather than during the stall — identical
    // outcome for every program that does not abort.)
    if !use_l1 && !sm.out_queue.is_empty() && sm.out_queue.len() + 1 > ctx.cfg.noc_queue {
        ctx.stats.stalls.noc_full += 1;
        warp.state = WarpState::Ready { at: ctx.now + 1 };
        return Ok(Outcome::Stalled);
    }

    // Gather lane addresses and coalesce into lines.
    let scratch = &mut *ctx.scratch;
    scratch.lane_addrs.clear();
    let mem_bytes = ctx.mem.bytes();
    for lane in lanes(mask) {
        let a = u64::from(addr.resolve(warp.reg(lane, addr.base)));
        if a % 4 != 0 || a + 4 > mem_bytes {
            return Err(SimError::AddressOutOfBounds { addr: a, pc });
        }
        scratch.lane_addrs.push((lane, a));
    }
    let line_mask = u64::from(ctx.cfg.line_bytes - 1);
    scratch.line_lanes.clear();
    for &(lane, a) in &scratch.lane_addrs {
        let line = a & !line_mask;
        match scratch.line_lanes.iter_mut().find(|(l, _)| *l == line) {
            Some((_, lm)) => *lm |= 1 << lane,
            None => scratch.line_lanes.push((line, 1 << lane)),
        }
    }

    // L1 classification (weak loads only).
    scratch.to_l2.clear();
    scratch.l1_hits.clear();
    for &(line, lm) in &scratch.line_lanes {
        if use_l1 && sm.l1.probe(line) {
            scratch.l1_hits.push(line);
        } else {
            scratch.to_l2.push((line, lm));
        }
    }

    // Stall checks (nothing committed yet). The queue capacity is a
    // high-water mark: a fully-scattered access (up to 32 lines) may
    // overflow an *empty* queue, otherwise it could never issue.
    if !sm.out_queue.is_empty() && sm.out_queue.len() + scratch.to_l2.len() > ctx.cfg.noc_queue {
        ctx.stats.stalls.noc_full += 1;
        warp.state = WarpState::Ready { at: ctx.now + 1 };
        return Ok(Outcome::Stalled);
    }
    let pure_l1_hit = use_l1 && scratch.to_l2.is_empty() && !scratch.l1_hits.is_empty();
    if ctx.detector.is_some() && pure_l1_hit && ctx.toggles.lhd && !ctx.lhd_open {
        ctx.stats.stalls.lhd += 1;
        warp.state = WarpState::Ready { at: ctx.now + 1 };
        return Ok(Outcome::Stalled);
    }

    // ---- timing side ---------------------------------------------------
    count_issue(ctx.stats, mask);
    let who = Accessor {
        sm: sm.id,
        block_slot: sm.blocks[warp.block_index]
            .as_ref()
            .expect("resident block")
            .block_slot_global,
        warp_slot: warp.warp_slot,
    };

    let needs_old_value = matches!(
        op,
        GlobalOp::Load { .. } | GlobalOp::Atomic { dst: Some(_), .. }
    );
    for &line in &scratch.l1_hits {
        let _ = sm.l1.access(line, false, false);
        ctx.stats.l1_hits += 1;
        warp.pending_loads += 1;
    }
    let hdr = if ctx.toggles.noc {
        ctx.cfg.detection_header_bytes
    } else {
        0
    };
    for &(line, lm) in &scratch.to_l2 {
        if use_l1 {
            ctx.stats.l1_misses += 1;
        }
        if is_store && !is_atomic {
            sm.l1.invalidate(line); // global write-evict
        }
        let lanes_here = lm.count_ones();
        let bytes = 16
            + hdr
            + if is_atomic {
                8 * lanes_here
            } else if is_store {
                ctx.cfg.line_bytes
            } else {
                0
            };
        let flits = bytes.div_ceil(ctx.cfg.flit_bytes);
        if needs_old_value {
            warp.pending_loads += 1;
        } else {
            warp.outstanding_stores += 1;
        }
        sm.out_queue.push_back(Packet {
            line_addr: line,
            write: is_store,
            atomic_lanes: if is_atomic { lanes_here } else { 0 },
            metadata: false,
            needs_response: true,
            is_store_ack: !needs_old_value,
            sm: sm.id,
            warp: warp.warp_slot,
            flits,
            ready_at: 0,
            l1_fill: use_l1,
            ghost: false,
        });
    }

    // ---- functional side -----------------------------------------------
    // The lane-access list is only materialized when a detector will
    // consume it, and its buffer is recycled through the detector unit's
    // spare pool rather than allocated per instruction.
    let mut accesses: Option<Vec<MemAccess>> = ctx.detector.as_mut().map(|det| {
        let mut v = det.take_spare();
        v.reserve(scratch.lane_addrs.len());
        v
    });
    for &(lane, a) in &scratch.lane_addrs {
        let kind = match op {
            GlobalOp::Load { dst, .. } => {
                warp.set_reg(lane, dst, ctx.mem.read_word(a));
                AccessKind::Load
            }
            GlobalOp::Store { src, .. } => {
                ctx.mem.write_word(a, warp.operand(lane, src));
                AccessKind::Store
            }
            GlobalOp::Atomic {
                op: aop,
                dst,
                val,
                cmp,
                scope,
            } => {
                let old = ctx.mem.read_word(a);
                let v = warp.operand(lane, val);
                let c = warp.operand(lane, cmp);
                ctx.mem.write_word(a, aop.apply(old, v, c));
                if let Some(d) = dst {
                    warp.set_reg(lane, d, old);
                }
                let kind = match aop {
                    AtomOp::Cas => AtomKind::Cas,
                    AtomOp::Exch => AtomKind::Exch,
                    _ => AtomKind::Other,
                };
                AccessKind::Atomic { kind, scope }
            }
        };
        if let Some(accesses) = &mut accesses {
            accesses.push(MemAccess {
                kind,
                addr: a,
                strong,
                pc,
                who,
            });
        }
    }
    if let (Some(det), Some(accesses)) = (ctx.detector.as_mut(), accesses) {
        det.enqueue(DetectorEvent::Access { accesses });
    }
    for _ in &scratch.l1_hits {
        ctx.events.push(
            ctx.now + u64::from(ctx.cfg.l1_latency),
            Ev::WarpResponse {
                sm: usize::from(sm.id),
                warp: usize::from(warp.warp_slot),
                is_store_ack: false,
                l1_fill: None,
            },
        );
    }

    warp.advance();
    warp.state = if warp.pending_loads > 0 {
        WarpState::WaitMem
    } else {
        WarpState::Ready { at: ctx.now + 1 }
    };
    Ok(Outcome::Issued)
}
