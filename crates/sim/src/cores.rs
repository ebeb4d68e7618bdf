//! The process-wide count of busy threads, read against the host's
//! available parallelism to tell whether a core is idle.
//!
//! Some work can be moved onto a helper thread without changing any
//! result, only when it finishes. Such a helper should start only when a
//! core would otherwise sit idle; on a host whose every core already runs
//! a sweep worker it would only take time from them. The count starts at
//! one, the thread that runs the program. A worker pool marks its workers
//! busy for as long as it runs ([`pool`]: the calling thread only waits,
//! so the pool adds its workers less that thread), and a helper starts
//! only if [`try_claim`] finds fewer threads busy than the host has
//! cores. Every mark is a [`Busy`] guard that clears it on drop.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A count of busy threads. The process-wide one is behind [`occupy`],
/// [`pool`] and [`try_claim`]; tests build their own.
#[derive(Debug)]
pub struct Cores {
    // Relaxed throughout: the count publishes no other data, and a stale
    // read only starts or skips a helper that changes no result.
    busy: AtomicUsize,
}

impl Cores {
    /// A count with `busy` threads marked busy.
    pub const fn new(busy: usize) -> Self {
        Cores {
            busy: AtomicUsize::new(busy),
        }
    }

    /// Threads marked busy now.
    pub fn busy(&self) -> usize {
        self.busy.load(Ordering::Relaxed)
    }

    /// Marks `n` more threads busy, whatever the count.
    pub fn occupy(&self, n: usize) -> Busy<'_> {
        self.busy.fetch_add(n, Ordering::Relaxed);
        Busy { cores: self, n }
    }

    /// Marks the `workers` threads of a pool busy, less the calling thread,
    /// which waits for them.
    pub fn pool(&self, workers: usize) -> Busy<'_> {
        self.occupy(workers.saturating_sub(1))
    }

    /// Marks one more thread busy if fewer than `cap` are.
    pub fn try_claim(&self, cap: usize) -> Option<Busy<'_>> {
        self.busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                (b < cap).then_some(b + 1)
            })
            .ok()
            .map(|_| Busy { cores: self, n: 1 })
    }
}

/// Threads marked busy on a [`Cores`] count until the guard drops.
#[must_use = "the threads count as busy only while the guard lives"]
#[derive(Debug)]
pub struct Busy<'a> {
    cores: &'a Cores,
    n: usize,
}

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        self.cores.busy.fetch_sub(self.n, Ordering::Relaxed);
    }
}

static CORES: Cores = Cores::new(1);

/// The host's available parallelism, read once per process (1 when it
/// cannot be read).
pub fn available() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Marks `n` more threads of this process busy ([`Cores::occupy`]).
pub fn occupy(n: usize) -> Busy<'static> {
    CORES.occupy(n)
}

/// Marks a pool's `workers` busy while it runs ([`Cores::pool`]).
pub fn pool(workers: usize) -> Busy<'static> {
    CORES.pool(workers)
}

/// Claims an idle core for one more thread of this process, if the host
/// has one ([`Cores::try_claim`] against [`available`]).
pub fn try_claim() -> Option<Busy<'static>> {
    CORES.try_claim(available())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_stop_at_the_cap_and_drops_release_them() {
        let cores = Cores::new(1);
        let a = cores.try_claim(3).expect("one thread busy of three");
        let b = cores.try_claim(3).expect("two threads busy of three");
        assert_eq!(cores.busy(), 3);
        assert!(cores.try_claim(3).is_none());
        drop(a);
        assert_eq!(cores.busy(), 2);
        let c = cores.try_claim(3).expect("a released claim frees its core");
        drop((b, c));
        assert_eq!(cores.busy(), 1);
        // One core: the program's own thread fills it.
        assert!(cores.try_claim(1).is_none());
    }

    #[test]
    fn a_pool_marks_its_workers_less_the_waiting_caller() {
        let cores = Cores::new(1);
        // On two cores, a one-worker pool leaves one claim and a
        // two-worker pool none.
        {
            let _pool = cores.pool(1);
            let claim = cores.try_claim(2);
            assert!(claim.is_some());
            assert!(cores.try_claim(2).is_none());
        }
        {
            let _pool = cores.pool(2);
            assert_eq!(cores.busy(), 2);
            assert!(cores.try_claim(2).is_none());
        }
        // An empty grid starts no worker and marks nothing.
        let _pool = cores.pool(0);
        assert_eq!(cores.busy(), 1);
        // `occupy` marks past the cap; a claim then waits for the release.
        let over = cores.occupy(4);
        assert_eq!(cores.busy(), 5);
        assert!(cores.try_claim(4).is_none());
        drop(over);
        assert!(cores.try_claim(4).is_some());
    }
}
