//! Sampled-SM mode (`GpuConfig::sample_sms`) end-to-end: functional
//! exactness, run-to-run reproducibility, and extrapolation accuracy
//! against a full-detail run of the same kernel.

use scord_isa::KernelBuilder;
use scord_sim::{DetectionMode, Gpu, GpuConfig};

/// A streaming kernel with real memory traffic: `out[i] = in[i] * 3`.
fn stream_kernel() -> scord_isa::Program {
    let mut k = KernelBuilder::new("stream", 2);
    let src = k.ld_param(0);
    let dst = k.ld_param(1);
    let g = k.global_tid();
    let a_in = k.index_addr(src, g, 4);
    let a_out = k.index_addr(dst, g, 4);
    let v = k.ld_global(a_in, 0);
    let v3 = k.mul(v, 3u32);
    k.st_global(a_out, 0, v3);
    k.finish().unwrap()
}

/// Runs `stream_kernel` on `blocks × 128` threads and returns
/// `(gpu, cycles)` after checking the functional output is exact.
fn run_stream(cfg: GpuConfig, blocks: u32) -> (Gpu, u64) {
    let n = blocks * 128;
    let prog = stream_kernel();
    let mut gpu = Gpu::new(cfg);
    let src = gpu.mem_mut().alloc_words(n);
    let dst = gpu.mem_mut().alloc_words(n);
    for i in 0..n {
        gpu.mem_mut().write_word(src.word_addr(i), i);
    }
    let stats = gpu
        .launch(&prog, blocks, 128, &[src.addr(), dst.addr()])
        .unwrap();
    let out = gpu.mem().copy_out(dst);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, (i as u32).wrapping_mul(3), "word {i}");
    }
    (gpu, stats.cycles)
}

#[test]
fn full_detail_runs_report_no_sample() {
    let (gpu, _) = run_stream(GpuConfig::paper_default(), 8);
    assert!(gpu.sample_report().is_none(), "sampling is strictly opt-in");
}

#[test]
fn sampled_run_is_functionally_exact_with_a_report() {
    let cfg = GpuConfig::paper_default().with_sample_sms(5);
    let (gpu, cycles) = run_stream(cfg, 240);
    let r = gpu.sample_report().expect("sampled run must report");
    assert_eq!((r.detailed_sms, r.total_sms), (5, 15));
    assert_eq!(r.measured_cycles, cycles);
    assert!(
        r.extrapolated_cycles < r.measured_cycles,
        "K of N SMs take longer than the full machine, so the estimate \
         shrinks: {} !< {}",
        r.extrapolated_cycles,
        r.measured_cycles
    );
    assert!(r.error_bound_pct >= 2.0, "the model floor always applies");
    assert!(r.real_packets > 0, "a streaming kernel routes packets");
    assert!(
        r.ghost_packets >= r.real_packets,
        "10 un-simulated SMs owe 2 ghosts per real packet"
    );
}

#[test]
fn sampled_runs_are_reproducible() {
    // The ghost model runs in the NoC step with a fixed-seed RNG, so
    // back-to-back identical configs must reproduce exactly.
    let base = GpuConfig::paper_default().with_sample_sms(5);
    let first = run_stream(base, 120);
    let again = run_stream(base, 120);
    assert_eq!(first.1, again.1, "cycles reproduce");
    assert_eq!(
        first.0.sample_report().unwrap(),
        again.0.sample_report().unwrap(),
        "whole report reproduces"
    );
}

#[test]
fn sampled_extrapolation_tracks_the_full_machine() {
    // 240 blocks is a whole number of waves on both 5 and 15 SMs, so the
    // wave-quantization term vanishes and the bound is dominated by the
    // model floor plus any SM imbalance.
    let (_, full) = run_stream(GpuConfig::paper_default(), 240);
    let (gpu, _) = run_stream(GpuConfig::paper_default().with_sample_sms(5), 240);
    let r = gpu.sample_report().unwrap();
    let err = (r.extrapolated_cycles as f64 - full as f64).abs() / full as f64;
    assert!(
        err * 100.0 <= 10.0,
        "extrapolation off by {:.1}% (extrapolated {} vs full {})",
        err * 100.0,
        r.extrapolated_cycles,
        full
    );
    assert!(
        r.error_bound_pct <= 25.0,
        "bound should stay small on a balanced streaming kernel, got {:.1}%",
        r.error_bound_pct
    );
}

#[test]
fn sampling_composes_with_detection() {
    // Races are detected from metadata, not timing, so a sampled run
    // must detect exactly what a full run does on the same grid.
    let cfg = GpuConfig::paper_default().with_detection(DetectionMode::scord());
    let (full_gpu, _) = run_stream(cfg, 40);
    let (samp_gpu, _) = run_stream(cfg.with_sample_sms(5), 40);
    assert_eq!(
        full_gpu.races().unwrap().unique_count(),
        samp_gpu.races().unwrap().unique_count(),
        "race-free kernel stays race-free under sampling"
    );
    assert!(
        samp_gpu.detector_store_usage().is_some(),
        "store accounting is available on sampled runs too"
    );
}

#[test]
fn sample_sms_must_be_below_num_sms() {
    let cfg = GpuConfig::paper_default().with_sample_sms(15);
    assert!(Gpu::try_new(cfg).is_err(), "K = N is rejected, not silent");
}
