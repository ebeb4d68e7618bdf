//! `optimal_mu` is solved once per process. This binary holds one test,
//! so its threads make the process's first call: all of them, and every
//! later call, must read the bits of a fresh golden-section solve.

use std::sync::Barrier;
use tcw_numerics::optimize::golden_section;
use tcw_window::analysis::{expected_overhead_slots, optimal_mu};

#[test]
fn racing_first_calls_read_the_fresh_solve() {
    const THREADS: usize = 4;
    let barrier = Barrier::new(THREADS);
    let seen: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    optimal_mu().to_bits()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let fresh = golden_section(expected_overhead_slots, 0.05, 6.0, 1e-6).0;
    assert_eq!(seen, vec![fresh.to_bits(); THREADS]);
    assert_eq!(optimal_mu().to_bits(), fresh.to_bits());
    // Every window tick count and committed artifact rests on these bits.
    assert_eq!(fresh, 1.0884438152969822);
}
