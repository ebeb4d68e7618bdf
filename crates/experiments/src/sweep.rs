//! Parallel sweep execution.
//!
//! Every experiment binary sweeps a grid of *cells* — fully specified,
//! mutually independent simulation points (panel × policy × deadline ×
//! seed × fault/churn plan). Cells share no state: each engine derives
//! every random draw from its own master seed, so the grid is
//! embarrassingly parallel and the paper's Section-5 panels can use all
//! available cores.
//!
//! [`run_parallel`] executes a slice of cells on a small work-stealing
//! pool built on `std::thread::scope` (the workspace stays
//! dependency-free): workers pull the next unclaimed index from a shared
//! atomic counter and send `(index, result)` back over a channel, and
//! results are reassembled **in cell order** before returning.
//! Determinism therefore does not depend on scheduling:
//!
//! * with `jobs == 1` the cells run inline on the calling thread, in
//!   order — byte-identical to the historical serial loops;
//! * with `jobs > 1` each cell still computes exactly the same value
//!   (its seed is part of the cell), and reassembly restores cell order,
//!   so CSV/TXT outputs are byte-identical to the serial run. The
//!   `sweep_determinism` integration test pins this property.
//!
//! Binaries expose the pool width as `--jobs N` (parsed by
//! [`jobs_from_args`]; default: available parallelism).

use crate::replay::panic_message;
use crate::runner::{simulate_churn, ChurnSimPoint, PolicyKind, SimSettings};
use crate::Panel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One fully specified simulation point of a sweep grid.
///
/// A `Cell` carries everything a worker needs — including the master
/// seed — so running it is a pure function of the cell. Plans default to
/// [`tcw_mac::FaultPlan::none`] / [`tcw_mac::ChurnPlan::none`], which
/// are bit-identical to fault- and churn-free builds.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload panel (offered load and message length).
    pub panel: Panel,
    /// Protocol variant.
    pub policy: PolicyKind,
    /// Deadline in units of `tau`.
    pub k_tau: f64,
    /// Simulation-size knobs.
    pub settings: SimSettings,
    /// Master seed of the run.
    pub seed: u64,
    /// Injected fault plan.
    pub plan: tcw_mac::FaultPlan,
    /// Injected churn plan.
    pub churn: tcw_mac::ChurnPlan,
}

impl Cell {
    /// A clean (fault- and churn-free) cell.
    pub fn clean(
        panel: Panel,
        policy: PolicyKind,
        k_tau: f64,
        settings: SimSettings,
        seed: u64,
    ) -> Self {
        Cell {
            panel,
            policy,
            k_tau,
            settings,
            seed,
            plan: tcw_mac::FaultPlan::none(),
            churn: tcw_mac::ChurnPlan::none(),
        }
    }

    /// Runs the cell to completion.
    pub fn run(&self) -> ChurnSimPoint {
        simulate_churn(
            self.panel,
            self.policy,
            self.k_tau,
            self.settings,
            self.seed,
            self.plan,
            self.churn,
        )
    }
}

/// Runs every cell and reassembles the results in cell order.
///
/// A panicking cell aborts the sweep with a message naming both the
/// cell index and its master seed, so the failure can be replayed
/// without guessing which grid point died.
pub fn run_cells(cells: &[Cell], jobs: usize) -> Vec<ChurnSimPoint> {
    run_parallel(cells, jobs, |_, c| {
        catch_unwind(AssertUnwindSafe(|| c.run()))
            .unwrap_or_else(|e| panic!("cell with seed {} panicked: {}", c.seed, panic_message(e)))
    })
}

/// Executes `f` over `items` on `jobs` worker threads (work-stealing via
/// a shared index counter) and returns the results **in item order**.
///
/// `f` receives `(index, &item)`. With `jobs <= 1` the items run inline
/// on the calling thread in order, with no thread machinery at all.
///
/// A panic inside `f` is contained by the executor in both modes: the
/// worker that hit it keeps draining the remaining cells, and once the
/// sweep ends the caller's thread panics with the **lowest failing cell
/// index** and the original panic message. A panicking cell can
/// therefore never wedge or silently kill the pool (callers that must
/// survive cell panics still wrap `f`'s body in `catch_unwind`).
pub fn run_parallel<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_parallel_with_progress(items, jobs, None, f)
}

/// [`run_parallel`] with optional live progress: when `progress` is given,
/// workers report per-cell start/done transitions into it and a monitor
/// thread re-renders the stderr progress line (with ETA and stall
/// detection) while the sweep runs.
///
/// Progress is pure observation on the side of the computation — results
/// and their order are exactly those of [`run_parallel`], and nothing
/// derived from the wall clock can reach `f` or its results.
pub fn run_parallel_with_progress<I, T, F>(
    items: &[I],
    jobs: usize,
    progress: Option<&tcw_obs::Progress>,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, it)| {
                if let Some(p) = progress {
                    p.cell_started(0, i);
                }
                let r = catch_unwind(AssertUnwindSafe(|| f(i, it)))
                    .unwrap_or_else(|e| panic!("sweep cell {i} panicked: {}", panic_message(e)));
                if let Some(p) = progress {
                    p.cell_done(0);
                    p.tick();
                }
                r
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    // Live worker count, decremented on worker exit even through a panic,
    // so the monitor thread can never outlive its workers.
    let alive = AtomicUsize::new(jobs);
    struct Leaving<'a>(&'a AtomicUsize);
    impl Drop for Leaving<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
    std::thread::scope(|s| {
        for w in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let alive = &alive;
            let f = &f;
            s.spawn(move || {
                let _leaving = Leaving(alive);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    if let Some(p) = progress {
                        p.cell_started(w, i);
                    }
                    // Contain a cell panic inside the worker: the pool
                    // keeps draining the grid and the failure is re-raised
                    // with its cell index after reassembly.
                    let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                    if let Some(p) = progress {
                        p.cell_done(w);
                    }
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
            });
        }
        if let Some(p) = progress {
            // Monitor thread: re-render until every cell has completed
            // (or every worker has exited, should one panic mid-cell).
            let alive = &alive;
            s.spawn(move || {
                while p.completed() < items.len() && alive.load(Ordering::Relaxed) > 0 {
                    p.tick();
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            });
        }
        drop(tx);
    });
    let mut out: Vec<Option<std::thread::Result<T>>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .enumerate()
        .map(|(i, o)| {
            o.expect("every cell index was claimed by exactly one worker")
                .unwrap_or_else(|e| panic!("sweep cell {i} panicked: {}", panic_message(e)))
        })
        .collect()
}

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses `--jobs N` (or `--jobs=N`) out of a raw argument list,
/// defaulting to [`default_jobs`]. `--jobs 1` forces the serial path.
///
/// A present but malformed flag is a usage error: it is reported as
/// `tool: message` and the process exits with [`crate::diag::EXIT_USAGE`].
pub fn jobs_from_args(tool: &str, args: &[String]) -> usize {
    fn usage(tool: &str, msg: &str) -> ! {
        crate::diag::error(tool, msg);
        std::process::exit(crate::diag::EXIT_USAGE)
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = match a.strip_prefix("--jobs=") {
            Some(v) => v,
            None if a == "--jobs" => match it.next() {
                Some(v) => v,
                None => usage(tool, "--jobs needs a value"),
            },
            None => continue,
        };
        return value.parse().unwrap_or_else(|_| {
            usage(
                tool,
                &format!("--jobs expects a positive integer, got {value:?}"),
            )
        });
    }
    default_jobs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::PANELS;

    #[test]
    fn parallel_matches_serial_order_and_values() {
        let items: Vec<u64> = (0..100).collect();
        let serial = run_parallel(&items, 1, |i, x| (i as u64) * 1_000 + x * x);
        let parallel = run_parallel(&items, 4, |i, x| (i as u64) * 1_000 + x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u64, 2, 3];
        assert_eq!(run_parallel(&items, 64, |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u64; 0] = [];
        assert!(run_parallel(&items, 8, |_, x| *x).is_empty());
    }

    #[test]
    fn jobs_flag_parsing() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            jobs_from_args("test", &args(&["--quick", "--jobs", "3"])),
            3
        );
        assert_eq!(jobs_from_args("test", &args(&["--jobs=7"])), 7);
        assert_eq!(jobs_from_args("test", &args(&["--quick"])), default_jobs());
    }

    #[test]
    fn panicking_cell_surfaces_its_index_in_both_modes() {
        for jobs in [1usize, 4] {
            let items: Vec<u64> = (0..16).collect();
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_parallel(&items, jobs, |i, x| {
                    if i == 7 {
                        panic!("boom at {x}");
                    }
                    *x
                })
            }))
            .expect_err("cell 7 must abort the sweep");
            let msg = panic_message(err);
            assert!(msg.contains("sweep cell 7"), "jobs={jobs}: {msg}");
            assert!(msg.contains("boom at 7"), "jobs={jobs}: {msg}");
        }
    }

    #[test]
    fn panicking_cell_does_not_kill_the_worker_pool() {
        // With one worker and an early panicking cell, the same worker
        // must still drain every later cell before the failure surfaces.
        let items: Vec<u64> = (0..8).collect();
        let seen = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_parallel(&items, 2, |i, x| {
                seen.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    panic!("first cell dies");
                }
                *x
            })
        }))
        .expect_err("sweep re-raises the contained panic");
        assert!(panic_message(err).contains("sweep cell 0"));
        assert_eq!(seen.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn panicking_run_cells_names_the_seed() {
        let settings = SimSettings {
            messages: 10,
            warmup: 0,
            ticks_per_tau: 8,
            ..Default::default()
        };
        // A negative rho' yields a non-positive Poisson rate, which the
        // arrival source asserts on — a deterministic in-cell panic.
        let bad = Panel {
            rho_prime: -1.0,
            m: 25,
        };
        let cells = vec![Cell::clean(
            bad,
            PolicyKind::Controlled,
            100.0,
            settings,
            4242,
        )];
        let err = catch_unwind(AssertUnwindSafe(|| run_cells(&cells, 1)))
            .expect_err("invalid panel must panic");
        let msg = panic_message(err);
        assert!(msg.contains("seed 4242"), "{msg}");
    }

    #[test]
    fn cell_results_are_independent_of_jobs() {
        let settings = SimSettings {
            messages: 300,
            warmup: 50,
            ticks_per_tau: 8,
            ..Default::default()
        };
        let cells: Vec<Cell> = (0..4)
            .map(|i| Cell::clean(PANELS[0], PolicyKind::Controlled, 100.0, settings, 100 + i))
            .collect();
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.point.loss.to_bits(), p.point.loss.to_bits());
            assert_eq!(s.point.offered, p.point.offered);
            assert_eq!(s.point.utilization.to_bits(), p.point.utilization.to_bits());
        }
    }
}
