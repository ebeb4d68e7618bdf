//! Sweep execution: the one worker pool every sweep runs on.
//!
//! Every experiment binary sweeps a grid of *cells* — fully specified,
//! mutually independent simulation points (for the panel sweeps, one
//! [`Cell`]: panel × policy × deadline × seed × fault/churn plan). Cells
//! share no state: each engine derives every random draw from its own
//! master seed, so the grid is embarrassingly parallel and the paper's
//! Section-5 panels can use all available cores.
//!
//! One pool executes every grid, built on `std::thread::scope` (the
//! workspace stays dependency-free): workers claim the next unclaimed
//! cell from a shared atomic counter, run it under one `catch_unwind`,
//! and send `(cell, outcome)` back over one channel to the calling
//! thread. It has two entry points:
//!
//! * [`run_parallel`] — no journal, no retries: results come back **in
//!   cell order**, and a panicking cell is re-raised (the lowest failing
//!   cell index wins) once the sweep drains;
//! * [`crate::supervise::run_supervised`] — the same pool with retries,
//!   quarantine, a wall-clock watchdog and a resume journal; every
//!   sweep binary with a replay or resume story runs on it.
//!
//! Determinism does not depend on scheduling: each cell computes exactly
//! the same value at any worker count (its seed is part of the cell), and
//! reassembly restores cell order, so `--jobs 1` and `--jobs N` outputs
//! are byte-identical. The `sweep_determinism` integration test pins
//! this property.
//!
//! Binaries expose the pool width as `--jobs N` (parsed by
//! [`jobs_from_args`]; default: available parallelism) and the stderr
//! progress line as `--progress`; both entry points own the
//! [`Progress`] and hand each cell an `Option<&Progress>`.

use crate::replay::panic_message;
use crate::runner::{Cell, CellResult};
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;
use tcw_obs::Progress;

/// Runs every cell and reassembles the results in cell order.
///
/// A panicking cell aborts the sweep with a message naming both the
/// cell index and its master seed, so the failure can be replayed
/// without guessing which grid point died.
pub fn run_cells(cells: &[Cell], jobs: usize) -> Vec<CellResult> {
    run_parallel(cells, jobs, false, |_, c, _| {
        catch_unwind(AssertUnwindSafe(|| c.run()))
            .unwrap_or_else(|e| panic!("cell with seed {} panicked: {}", c.seed, panic_message(e)))
    })
}

/// Executes `f` over `items` on `jobs` workers of the sweep pool and
/// returns the results **in item order**.
///
/// `f` receives `(index, &item, progress)`; `progress` is `Some` when
/// `show_progress` asked for the live stderr line, so a cell can feed it
/// (e.g. [`Progress::note_horizon`]). Progress is pure observation on the
/// side of the computation: nothing derived from the wall clock can
/// reach `f`'s results.
///
/// A panic inside `f` is contained by the pool at any worker count: the
/// worker that hit it keeps draining the remaining cells, and once the
/// sweep ends the caller's thread panics with the **lowest failing cell
/// index** and the original panic message. A panicking cell can
/// therefore never wedge or silently kill the pool.
pub fn run_parallel<I, T, F>(items: &[I], jobs: usize, show_progress: bool, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I, Option<&Progress>) -> T + Sync,
{
    let progress = show_progress.then(|| Progress::new(items.len(), jobs));
    let progress = progress.as_ref();
    let cells: Vec<usize> = (0..items.len()).collect();
    let mut out: Vec<Option<Result<T, Quarantined>>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    pool(
        &cells,
        jobs,
        progress,
        0,
        Duration::ZERO,
        |i| Ok(f(i, &items[i], progress)),
        |i, outcome| {
            out[i] = Some(outcome);
            Ok(())
        },
    )
    .expect("collecting outcomes in memory cannot fail");
    out.into_iter()
        .map(
            |o| match o.expect("every cell index was claimed by exactly one worker") {
                Ok(value) => value,
                Err(q) => panic!("sweep cell {} {}", q.cell, q.failure),
            },
        )
        .collect()
}

/// Why a cell attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The attempt panicked with this message (or its watchdog thread
    /// could not be spawned).
    Panic(String),
    /// The watchdog cut the attempt off after this wall-clock budget.
    Timeout(Duration),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Panic(msg) => write!(f, "panicked: {msg}"),
            Failure::Timeout(limit) => write!(f, "timed out after {:.3}s", limit.as_secs_f64()),
        }
    }
}

/// One cell that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// Grid index of the cell.
    pub cell: usize,
    /// Attempts consumed (1 + retries).
    pub attempts: u32,
    /// How the last attempt failed.
    pub failure: Failure,
}

/// Attempts retried and attempts cut off by the watchdog, summed over
/// one sweep.
pub(crate) struct PoolCounts {
    pub(crate) retries: u64,
    pub(crate) timeouts: u64,
}

/// The one sweep worker pool.
///
/// Up to `jobs` scoped workers claim the grid indices in `cells` from a
/// shared counter and run each through `run` under one `catch_unwind`.
/// A panic, or an `Err` from `run` (the watchdog's verdict), fails the
/// attempt. A failed cell is re-run up to `retries` more times, sleeping
/// `backoff * 2^attempt` (capped at 32x) before each; a cell that
/// exhausts its budget is reported as [`Quarantined`]. Every outcome travels over one
/// channel to the calling thread, which hands it to `take` in completion
/// order. An error from `take` stops the sweep — each worker finishes
/// its current cell and exits — and is returned.
///
/// With `progress`, workers report cell starts and completions and the
/// retry/timeout/quarantine counters into it, a monitor thread re-renders
/// the line while the pool runs, and the line is finished once it drains.
pub(crate) fn pool<T, R, K>(
    cells: &[usize],
    jobs: usize,
    progress: Option<&Progress>,
    retries: u32,
    backoff: Duration,
    run: R,
    mut take: K,
) -> Result<PoolCounts, String>
where
    T: Send,
    R: Fn(usize) -> Result<T, Failure> + Sync,
    K: FnMut(usize, Result<T, Quarantined>) -> Result<(), String>,
{
    let workers = jobs.max(1).min(cells.len());
    let next = AtomicUsize::new(0);
    let retried = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    // Live worker count, decremented on worker exit even through a panic,
    // so the monitor thread can never outlive its workers.
    let alive = AtomicUsize::new(workers);
    struct Leaving<'a>(&'a AtomicUsize);
    impl Drop for Leaving<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let (tx, rx) = mpsc::channel::<(usize, Result<T, Quarantined>)>();
    let drained = std::thread::scope(|s| {
        for w in 0..workers {
            let tx = tx.clone();
            let (next, alive, run) = (&next, &alive, &run);
            let (retried, timeouts) = (&retried, &timeouts);
            s.spawn(move || {
                let _leaving = Leaving(alive);
                while let Some(&cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if let Some(p) = progress {
                        p.cell_started(w, cell);
                    }
                    let mut attempt = 0u32;
                    let outcome = loop {
                        let failure = match catch_unwind(AssertUnwindSafe(|| run(cell))) {
                            Ok(Ok(value)) => break Ok(value),
                            Ok(Err(failure)) => failure,
                            Err(payload) => Failure::Panic(panic_message(payload)),
                        };
                        if let Failure::Timeout(_) = failure {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                            if let Some(p) = progress {
                                p.note_timeout();
                            }
                        }
                        if attempt >= retries {
                            if let Some(p) = progress {
                                p.note_quarantine();
                            }
                            break Err(Quarantined {
                                cell,
                                attempts: attempt + 1,
                                failure,
                            });
                        }
                        retried.fetch_add(1, Ordering::Relaxed);
                        if let Some(p) = progress {
                            p.note_retry();
                        }
                        std::thread::sleep(backoff * (1u32 << attempt.min(5)));
                        attempt += 1;
                    };
                    if let Some(p) = progress {
                        p.cell_done(w);
                    }
                    if tx.send((cell, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        if let Some(p) = progress {
            let alive = &alive;
            s.spawn(move || {
                while alive.load(Ordering::Relaxed) > 0 {
                    p.tick();
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
        }
        drop(tx);
        for (cell, outcome) in rx {
            take(cell, outcome)?;
        }
        Ok(())
    });
    if let Some(p) = progress {
        p.finish();
    }
    drained.map(|()| PoolCounts {
        retries: retried.into_inner(),
        timeouts: timeouts.into_inner(),
    })
}

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses `--jobs N` (or `--jobs=N`) out of a raw argument list,
/// defaulting to [`default_jobs`]. `--jobs 1` runs the pool with one
/// worker.
///
/// A present but malformed flag (including `--jobs 0`) is a usage error:
/// it is reported as `tool: message` and the process exits with
/// [`crate::diag::EXIT_USAGE`].
pub fn jobs_from_args(tool: &str, args: &[String]) -> usize {
    crate::diag::or_usage(tool, parse_jobs(args))
}

fn parse_jobs(args: &[String]) -> Result<usize, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = match a.strip_prefix("--jobs=") {
            Some(v) => v,
            None if a == "--jobs" => it.next().ok_or("--jobs needs a value")?,
            None => continue,
        };
        return value
            .parse::<NonZeroUsize>()
            .map(NonZeroUsize::get)
            .map_err(|_| format!("--jobs expects a positive integer, got {value:?}"));
    }
    Ok(default_jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panels::{Panel, PANELS};
    use crate::runner::{PolicyKind, SimSettings};

    #[test]
    fn parallel_matches_serial_order_and_values() {
        let items: Vec<u64> = (0..100).collect();
        let serial = run_parallel(&items, 1, false, |i, x, _| (i as u64) * 1_000 + x * x);
        let parallel = run_parallel(&items, 4, true, |i, x, _| (i as u64) * 1_000 + x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u64, 2, 3];
        assert_eq!(
            run_parallel(&items, 64, false, |_, x, _| x * 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u64; 0] = [];
        assert!(run_parallel(&items, 8, true, |_, x, _| *x).is_empty());
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
        assert!(parse_jobs(&args(&["--jobs", "0"])).is_err());
        assert!(parse_jobs(&args(&["--jobs=x"])).is_err());
        assert!(parse_jobs(&args(&["--jobs"])).is_err());
    }

    #[test]
    fn panicking_cell_surfaces_its_index_in_both_modes() {
        for jobs in [1usize, 4] {
            let items: Vec<u64> = (0..16).collect();
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_parallel(&items, jobs, false, |i, x, _| {
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
        // Panicking cells must not take their workers down: the pool
        // still drains every cell (with the progress monitor running),
        // then re-raises the lowest failing index.
        let items: Vec<u64> = (0..8).collect();
        let seen = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_parallel(&items, 2, true, |i, x, _| {
                seen.fetch_add(1, Ordering::Relaxed);
                if i == 0 || i == 5 {
                    panic!("cell {i} dies");
                }
                *x
            })
        }))
        .expect_err("sweep re-raises the contained panic");
        let msg = panic_message(err);
        assert!(msg.contains("sweep cell 0 panicked: cell 0 dies"), "{msg}");
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
