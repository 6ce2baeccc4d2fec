//! The reactor's footprint signature, measured from the process itself.
//!
//! `connection_sweep` reads the thread and fd counts of the whole process
//! (`/proc/self`), so this test lives in a binary of its own: any other
//! test running concurrently in the same process (a live server, a
//! parallel sweep's worker threads, temp files) would shift those counts
//! and make the comparison meaningless.

use scord_harness::serve_bench::{connection_sweep, sweep_to_markdown};

#[test]
fn small_connection_sweep_has_flat_thread_count() {
    let rows = connection_sweep(&[8, 64], 8, 4, 200).expect("sweep runs");
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(row.report.completed, 8, "active minority completes");
        assert_eq!(
            row.report.idle_connections, row.target as u64,
            "small targets must not be fd-clamped"
        );
    }
    // The reactor's signature: 8x the idle connections, same threads.
    if rows[0].report.threads > 0 {
        assert_eq!(
            rows[0].report.threads, rows[1].report.threads,
            "thread count must be independent of connection count"
        );
        assert!(
            rows[1].report.open_fds >= rows[0].report.open_fds + 100,
            "fd count tracks connections ({} vs {})",
            rows[0].report.open_fds,
            rows[1].report.open_fds
        );
    }
    let md = sweep_to_markdown(&rows);
    assert!(md.contains("traces/sec"));
}
