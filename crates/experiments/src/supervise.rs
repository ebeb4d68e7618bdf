//! Crash-safe sweep supervision: retries, a wall-clock watchdog,
//! quarantine, and a crash-consistent resume journal.
//!
//! Every sweep binary with a replay or resume story (`fig7`,
//! `robustness`, `churn`, `adaptive`, `chaos`) runs its grid through
//! [`supervised_cells`] on every run, on the one worker pool of
//! [`crate::sweep`]. The `--resume PATH`, `--cell-timeout SECS` and
//! `--retries N` flags only tune it:
//!
//! * **Supervision** — the pool contains each attempt's panic and, when a
//!   timeout is configured, runs the attempt on a watchdogged thread cut
//!   off by `recv_timeout`. Failed attempts are retried with exponential
//!   backoff (2 retries by default); a cell that exhausts its budget is
//!   **quarantined** (reported with its index so the caller can name the
//!   replay seed) while the rest of the sweep completes, and the binary
//!   then exits with [`crate::diag::EXIT_FAILURE`], its result files
//!   withheld.
//! * **Journal** — with `--resume`, completed cells are appended to a
//!   per-line-checksummed NDJSON journal, rewritten through a temp file
//!   and `rename` so the file on disk is always a consistent prefix of
//!   the sweep. Reopening the journal validates the header (format,
//!   binary version, experiment tag, grid fingerprint) and every line
//!   checksum, then skips the journaled cells; corruption or staleness is
//!   rejected up front and the binaries exit with
//!   [`crate::diag::EXIT_FAILURE`]. The journal stores each cell's
//!   result, not its telemetry, so `--resume` is the one supervision
//!   flag that excludes `--trace-events`, `--spans` and `--metrics`.
//! * **Observability** — retry/timeout/quarantine/resume-skip events feed
//!   the [`tcw_obs::Progress`] supervisor counters (rendered in the
//!   `--progress` line) and are totalled in [`SweepOutcome`].
//!
//! Because every cell is a pure function of its index, a resumed sweep
//! reassembles results in cell order exactly as an uninterrupted one
//! does: the final CSV/TXT outputs are byte-identical. Journal *entries*
//! are appended in completion order, which may vary across `--jobs`
//! settings — the journal is an execution log, not a result artifact.
//!
//! A timed-out attempt's thread cannot be killed in safe Rust; it is
//! abandoned (detached) and its eventual result is discarded. Abandoned
//! threads hold no locks — cells share no state — so they can only waste
//! a core until the cell returns or the process exits.

use crate::replay::ARTIFACT_VERSION;
use crate::runner::{AoiPoint, CellResult, ChurnCounters, FaultCounters, SimPoint};
use crate::sweep::{pool, Failure, Quarantined};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use tcw_obs::Progress;
use tcw_sim::record::{self, Record};
use tcw_sim::snap::{self, SnapError, SnapReader, SnapWriter};
use tcw_window::engine::HorizonStats;

/// Journal file format version; bumped on any layout change.
pub const JOURNAL_FORMAT: u64 = 4;

// ---------------------------------------------------------------------------
// Options

/// Supervision knobs parsed from the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorOptions {
    /// Journal path (`--resume PATH`): created when absent, validated and
    /// skipped-from when present.
    pub resume: Option<PathBuf>,
    /// Wall-clock budget per attempt (`--cell-timeout SECS`).
    pub cell_timeout: Option<Duration>,
    /// Retries after the first failed attempt (`--retries N`).
    pub retries: u32,
    /// Base backoff slept before retry `k` (doubling each attempt,
    /// capped at 32x). Not exposed as a flag; tests shrink it.
    pub backoff: Duration,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            resume: None,
            cell_timeout: None,
            retries: 2,
            backoff: Duration::from_millis(100),
        }
    }
}

impl SupervisorOptions {
    /// Splits the supervision flags out of a raw argument list, returning
    /// the options (the defaults for absent flags) and the remaining
    /// arguments. `telemetry` says whether `--trace-events`, `--spans` or
    /// `--metrics` was given: `--resume` excludes them, since journaled
    /// cells carry no telemetry.
    pub fn split_args(args: &[String], telemetry: bool) -> Result<(Self, Vec<String>), String> {
        let mut opts = SupervisorOptions::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let value = |name: &str, inline: Option<&str>, it: &mut std::slice::Iter<String>| {
                match inline {
                    Some(v) => Ok(v.to_string()),
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value")),
                }
            };
            if a == "--resume" || a.starts_with("--resume=") {
                let v = value("--resume", a.strip_prefix("--resume="), &mut it)?;
                opts.resume = Some(PathBuf::from(v));
            } else if a == "--cell-timeout" || a.starts_with("--cell-timeout=") {
                let v = value("--cell-timeout", a.strip_prefix("--cell-timeout="), &mut it)?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--cell-timeout expects seconds, got {v:?}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("--cell-timeout must be positive, got {v:?}"));
                }
                let limit = Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("--cell-timeout is out of range, got {v:?}"))?;
                opts.cell_timeout = Some(limit);
            } else if a == "--retries" || a.starts_with("--retries=") {
                let v = value("--retries", a.strip_prefix("--retries="), &mut it)?;
                opts.retries = v
                    .parse()
                    .map_err(|_| format!("--retries expects a non-negative integer, got {v:?}"))?;
            } else {
                rest.push(a.clone());
            }
        }
        if opts.resume.is_some() && telemetry {
            return Err(
                "--resume is incompatible with --trace-events/--spans/--metrics \
                 (journaled cells carry no telemetry)"
                    .to_string(),
            );
        }
        Ok((opts, rest))
    }
}

// ---------------------------------------------------------------------------
// Journaled result encoding

/// A sweep result type that can be journaled as a word stream.
///
/// Encoders and decoders must be exact inverses; `f64`s travel as raw
/// bits through [`SnapWriter::push_f64`], so journaled results restore
/// bit-identically and a resumed sweep's outputs match an uninterrupted
/// run byte for byte.
pub trait JournalItem: Sized {
    /// Appends this result's words to the stream.
    fn encode(&self, w: &mut SnapWriter);
    /// Reads one result back from the stream.
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError>;
}

impl JournalItem for CellResult {
    /// Every field in declaration order, batched into runs of `f64` and
    /// `u64` words; `decode` reads them back in the same order.
    fn encode(&self, w: &mut SnapWriter) {
        let (p, f, c, a, h) = (self.point, self.faults, self.churn, self.aoi, self.horizon);
        for x in [
            p.k,
            p.loss,
            p.ci95,
            p.sender_loss,
            p.sched_time_mean,
            p.round_overhead_mean,
            p.utilization,
        ] {
            w.push_f64(x);
        }
        for x in [
            p.offered,
            f.corrupted_slots,
            f.erased_slots,
            f.resyncs,
            f.rounds_abandoned,
            f.reopened,
            f.fault_losses,
            c.crashes,
            c.restarts,
            c.joins,
            c.leaves,
            c.blocked,
            c.losses,
            c.reopened,
        ] {
            w.push(x);
        }
        for x in [
            c.rejoin_mean_slots,
            c.rejoin_max_slots,
            a.k,
            a.mean_age_tau,
            a.peak_age_tau,
            a.violation,
        ] {
            w.push_f64(x);
        }
        for x in [
            a.deliveries,
            a.stations_observed,
            h.jumps,
            h.slots_skipped,
            h.batched_runs,
            h.batched_slots,
        ] {
            w.push(x);
        }
    }

    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(CellResult {
            point: SimPoint {
                k: r.take_f64()?,
                loss: r.take_f64()?,
                ci95: r.take_f64()?,
                sender_loss: r.take_f64()?,
                sched_time_mean: r.take_f64()?,
                round_overhead_mean: r.take_f64()?,
                utilization: r.take_f64()?,
                offered: r.take()?,
            },
            faults: FaultCounters {
                corrupted_slots: r.take()?,
                erased_slots: r.take()?,
                resyncs: r.take()?,
                rounds_abandoned: r.take()?,
                reopened: r.take()?,
                fault_losses: r.take()?,
            },
            churn: ChurnCounters {
                crashes: r.take()?,
                restarts: r.take()?,
                joins: r.take()?,
                leaves: r.take()?,
                blocked: r.take()?,
                losses: r.take()?,
                reopened: r.take()?,
                rejoin_mean_slots: r.take_f64()?,
                rejoin_max_slots: r.take_f64()?,
            },
            aoi: AoiPoint {
                k: r.take_f64()?,
                mean_age_tau: r.take_f64()?,
                peak_age_tau: r.take_f64()?,
                violation: r.take_f64()?,
                deliveries: r.take()?,
                stations_observed: r.take()?,
            },
            horizon: HorizonStats {
                jumps: r.take()?,
                slots_skipped: r.take()?,
                batched_runs: r.take()?,
                batched_slots: r.take()?,
            },
        })
    }
}

impl JournalItem for crate::adaptive::CellOutcome {
    fn encode(&self, w: &mut SnapWriter) {
        w.push(self.offered);
        w.push_f64(self.loss);
        w.push(self.window_ticks);
        w.push(self.shrinks);
        w.push(self.grows);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::adaptive::CellOutcome {
            offered: r.take()?,
            loss: r.take_f64()?,
            window_ticks: r.take()?,
            shrinks: r.take()?,
            grows: r.take()?,
        })
    }
}

impl JournalItem for crate::chaos::ChaosOutcome {
    fn encode(&self, w: &mut SnapWriter) {
        w.push_str(&self.kind);
        w.push_str(&self.class);
        w.push_str(&self.detail);
        w.push(self.violations);
        w.push(self.divergences);
        w.push(self.checks);
        w.push(self.deliveries);
        w.push(self.offered);
        w.push_f64(self.loss);
    }
    fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(crate::chaos::ChaosOutcome {
            kind: r.take_str()?,
            class: r.take_str()?,
            detail: r.take_str()?,
            violations: r.take()?,
            divergences: r.take()?,
            checks: r.take()?,
            deliveries: r.take()?,
            offered: r.take()?,
            loss: r.take_f64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Journal

/// Crash-consistent sweep journal: a header line naming the format,
/// binary version, experiment and grid fingerprint, then one checksummed
/// NDJSON line per completed cell. Every update rewrites the whole file
/// through [`record::write_atomic`], so a crash at any instant leaves
/// either the previous or the new journal — never a torn one.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    lines: Vec<String>,
    completed: BTreeMap<usize, Vec<u64>>,
}

impl Journal {
    /// Opens (validating) or creates (writing the header immediately) the
    /// journal at `path` for the given experiment and grid fingerprint.
    pub fn open(path: &Path, experiment: &str, fingerprint: u64) -> Result<Self, String> {
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
            Self::parse(path.to_path_buf(), &text, experiment, fingerprint)
                .map_err(|e| format!("journal {}: {e}", path.display()))
        } else {
            let j = Journal {
                path: path.to_path_buf(),
                lines: vec![Self::header(experiment, fingerprint)],
                completed: BTreeMap::new(),
            };
            j.write_all()?;
            Ok(j)
        }
    }

    /// Checksum over the header fields, packed as a word stream.
    fn header_crc(experiment: &str, fingerprint: u64) -> u64 {
        let mut w = SnapWriter::new();
        w.push(JOURNAL_FORMAT);
        w.push_str(ARTIFACT_VERSION);
        w.push_str(experiment);
        w.push(fingerprint);
        snap::checksum(&w.into_words())
    }

    fn header(experiment: &str, fingerprint: u64) -> String {
        let mut tag = String::new();
        record::push_quoted(&mut tag, experiment);
        let crc = Self::header_crc(experiment, fingerprint);
        format!(
            "{{\"journal_format\": {JOURNAL_FORMAT}, \"version\": \"{ARTIFACT_VERSION}\", \
             \"experiment\": {tag}, \"fingerprint\": \"{fingerprint:016x}\", \
             \"crc\": \"{crc:016x}\"}}"
        )
    }

    fn parse(
        path: PathBuf,
        text: &str,
        experiment: &str,
        fingerprint: u64,
    ) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty journal file")?;
        let fields = Record::parse(header).map_err(|e| format!("bad header: {e}"))?;
        let format = fields.u64("journal_format")?;
        if format != JOURNAL_FORMAT {
            return Err(format!(
                "unsupported journal format {format} (this binary writes {JOURNAL_FORMAT})"
            ));
        }
        fields
            .check_envelope(ARTIFACT_VERSION, Some(experiment))
            .map_err(|e| format!("journal {e}"))?;
        let parse_hex = |k: &str| -> Result<u64, String> {
            u64::from_str_radix(fields.str(k)?, 16).map_err(|e| format!("bad {k} field: {e}"))
        };
        if parse_hex("fingerprint")? != fingerprint {
            return Err(
                "stale journal: grid fingerprint mismatch (the sweep configuration changed); \
                 delete the journal to start over"
                    .to_string(),
            );
        }
        if parse_hex("crc")? != Self::header_crc(experiment, fingerprint) {
            return Err("header failed its checksum (corrupted journal)".to_string());
        }

        let mut kept = vec![header.to_string()];
        let mut completed = BTreeMap::new();
        for (n, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let entry =
                Self::parse_entry(line).map_err(|e| format!("line {} corrupted: {e}", n + 2))?;
            let (cell, words) = entry;
            if completed.insert(cell, words).is_some() {
                return Err(format!("line {}: duplicate entry for cell {cell}", n + 2));
            }
            kept.push(line.to_string());
        }
        Ok(Journal {
            path,
            lines: kept,
            completed,
        })
    }

    fn parse_entry(line: &str) -> Result<(usize, Vec<u64>), String> {
        let fields = Record::parse(line)?;
        let cell =
            usize::try_from(fields.u64("cell")?).map_err(|e| format!("bad cell index: {e}"))?;
        let words = record::hex_to_words(fields.str("data")?)?;
        let crc =
            u64::from_str_radix(fields.str("crc")?, 16).map_err(|e| format!("bad crc: {e}"))?;
        let mut checked = Vec::with_capacity(words.len() + 1);
        checked.push(cell as u64);
        checked.extend_from_slice(&words);
        if crc != snap::checksum(&checked) {
            return Err("entry failed its checksum".to_string());
        }
        Ok((cell, words))
    }

    /// The journaled word stream for `cell`, when present.
    pub fn completed(&self, cell: usize) -> Option<&[u64]> {
        self.completed.get(&cell).map(Vec::as_slice)
    }

    /// Number of journaled cells.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no cell has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Appends one completed cell and atomically persists the journal.
    pub fn record(&mut self, cell: usize, words: &[u64]) -> Result<(), String> {
        let mut checked = Vec::with_capacity(words.len() + 1);
        checked.push(cell as u64);
        checked.extend_from_slice(words);
        let crc = snap::checksum(&checked);
        self.lines.push(format!(
            "{{\"cell\": {cell}, \"data\": \"{}\", \"crc\": \"{crc:016x}\"}}",
            record::words_to_hex(words)
        ));
        self.completed.insert(cell, words.to_vec());
        self.write_all()
    }

    fn write_all(&self) -> Result<(), String> {
        let mut content = self.lines.join("\n");
        content.push('\n');
        record::write_atomic(&self.path, &content)
            .map_err(|e| format!("cannot write journal {}: {e}", self.path.display()))
    }
}

// ---------------------------------------------------------------------------
// Supervised execution

/// The result of a supervised sweep.
pub struct SweepOutcome<T> {
    /// Per-cell results in grid order; `None` exactly for quarantined
    /// cells.
    pub results: Vec<Option<T>>,
    /// Cells that exhausted their retry budget, in grid order.
    pub quarantined: Vec<Quarantined>,
    /// Cells satisfied straight from the resume journal.
    pub resumed: usize,
    /// Total attempts retried after a failure.
    pub retries: u64,
    /// Total attempts cut off by the watchdog.
    pub timeouts: u64,
    /// The finished progress state, when progress was requested. It
    /// counts only the cells that ran, not the resumed ones.
    pub progress: Option<Arc<Progress>>,
}

impl<T> SweepOutcome<T> {
    /// One-line supervisor summary for reports and stderr.
    pub fn summary(&self) -> String {
        format!(
            "supervisor: {} resumed, {} retries, {} timeouts, {} quarantined",
            self.resumed,
            self.retries,
            self.timeouts,
            self.quarantined.len()
        )
    }

    /// Unwraps a quarantine-free sweep into plain results.
    ///
    /// # Panics
    /// Panics when any cell was quarantined; callers check
    /// [`SweepOutcome::quarantined`] first.
    pub fn into_results(self) -> Vec<T> {
        assert!(
            self.quarantined.is_empty(),
            "into_results on a sweep with quarantined cells"
        );
        self.results
            .into_iter()
            .map(|r| r.expect("non-quarantined cell has a result"))
            .collect()
    }
}

/// Runs one attempt on a named, detached thread and waits at most
/// `limit` for it. Safe Rust cannot cancel a thread: on timeout the
/// thread is abandoned and its late result (sent to a dropped receiver)
/// is discarded. A panic on the thread is re-raised here, so the pool
/// contains it like any other attempt's.
fn watchdog<T, F>(
    cell: usize,
    limit: Duration,
    f: Arc<F>,
    progress: Option<Arc<Progress>>,
) -> Result<T, Failure>
where
    T: Send + 'static,
    F: Fn(usize, Option<&Progress>) -> T + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("tcw-cell-{cell}"))
        .spawn(move || {
            let _ = tx.send(f(cell, progress.as_deref()));
        })
        .map_err(|e| Failure::Panic(format!("could not spawn watchdogged cell thread: {e}")))?;
    match rx.recv_timeout(limit) {
        Ok(value) => {
            let _ = handle.join();
            Ok(value)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("a cell thread that returned has sent its result"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Failure::Timeout(limit)),
    }
}

/// Executes cells `0..n` under supervision on the sweep pool and returns
/// results in grid order, with journaled cells skipped, failed attempts
/// retried with exponential backoff, and hopeless cells quarantined
/// instead of aborting the sweep.
///
/// `f` must be a pure function of the cell index (every binary's cells
/// already are — the seed is part of the cell). It returns the cell's
/// journaled result `T` and its side output `A` (telemetry), which is
/// not journaled: a resumed cell gets `A::default()`. `f` is `'static`
/// because a watchdogged attempt runs on a detached thread. With
/// `show_progress`, the live line is sized by the cells that actually
/// run. Errors are I/O or validation failures (journal writes,
/// undecodable journal entries), which the binaries map to
/// [`crate::diag::EXIT_FAILURE`].
pub fn run_supervised<T, A, F>(
    n: usize,
    jobs: usize,
    opts: &SupervisorOptions,
    mut journal: Option<&mut Journal>,
    show_progress: bool,
    f: F,
) -> Result<SweepOutcome<(T, A)>, String>
where
    T: JournalItem + Send + 'static,
    A: Default + Send + 'static,
    F: Fn(usize, Option<&Progress>) -> (T, A) + Send + Sync + 'static,
{
    let mut results: Vec<Option<(T, A)>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut resumed = 0usize;
    if let Some(j) = journal.as_deref() {
        for (i, slot) in results.iter_mut().enumerate() {
            if let Some(words) = j.completed(i) {
                let mut r = SnapReader::new(words);
                let value = T::decode(&mut r)
                    .and_then(|v| r.finish().map(|()| v))
                    .map_err(|e| format!("journal entry for cell {i} does not decode: {e}"))?;
                *slot = Some((value, A::default()));
                resumed += 1;
            }
        }
    }
    let todo: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();
    let progress = show_progress.then(|| Arc::new(Progress::new(todo.len(), jobs)));
    if let Some(p) = &progress {
        p.note_resume_skipped(resumed as u64);
    }

    let f = Arc::new(f);
    let run = |cell: usize| match opts.cell_timeout {
        None => Ok((*f)(cell, progress.as_deref())),
        Some(limit) => watchdog(cell, limit, Arc::clone(&f), progress.clone()),
    };
    let mut quarantined: Vec<Quarantined> = Vec::new();
    let counts = pool(
        &todo,
        jobs,
        progress.as_deref(),
        opts.retries,
        opts.backoff,
        run,
        |cell, outcome| {
            match outcome {
                Ok((value, side)) => {
                    if let Some(j) = journal.as_deref_mut() {
                        let mut w = SnapWriter::new();
                        value.encode(&mut w);
                        j.record(cell, &w.into_words())?;
                    }
                    results[cell] = Some((value, side));
                }
                Err(q) => quarantined.push(q),
            }
            Ok(())
        },
    )?;
    quarantined.sort_by_key(|q| q.cell);
    Ok(SweepOutcome {
        results,
        quarantined,
        resumed,
        retries: counts.retries,
        timeouts: counts.timeouts,
        progress,
    })
}

/// Binary-side entry point of every supervised sweep: opens the resume
/// journal when `--resume` was given (the journal's experiment tag is
/// `tool`), runs `f` over `cells` with [`run_supervised`], and returns
/// each cell's `(result, side output)` in grid order.
///
/// A sweep that resumed, retried, timed out or quarantined anything
/// prints the supervisor summary on stdout; an uninterrupted one prints
/// nothing. On any quarantined cell it reports each one via
/// `describe(cell, report)` — the cell's parameters and replay seed,
/// plus the path of any replay artifact `describe` writes for it — and
/// **exits** with [`crate::diag::EXIT_FAILURE`]: final outputs are never
/// written from a partial sweep; the journal keeps every completed cell
/// for the next `--resume`. Journal staleness/corruption and I/O
/// failures exit the same way.
#[allow(clippy::too_many_arguments)]
pub fn supervised_cells<I, T, A, F, D>(
    tool: &str,
    cells: &[I],
    jobs: usize,
    sup: &SupervisorOptions,
    show_progress: bool,
    fingerprint: u64,
    describe: D,
    f: F,
) -> Vec<(T, A)>
where
    I: Clone + Send + Sync + 'static,
    T: JournalItem + Send + 'static,
    A: Default + Send + 'static,
    F: Fn(usize, &I, Option<&Progress>) -> (T, A) + Send + Sync + 'static,
    D: Fn(&I, &Quarantined) -> String,
{
    fn fail(tool: &str, msg: &str) -> ! {
        crate::diag::error(tool, msg);
        std::process::exit(crate::diag::EXIT_FAILURE)
    }
    let mut journal = sup
        .resume
        .as_ref()
        .map(|path| Journal::open(path, tool, fingerprint).unwrap_or_else(|e| fail(tool, &e)));
    let owned: Arc<[I]> = cells.into();
    let outcome = run_supervised(
        cells.len(),
        jobs,
        sup,
        journal.as_mut(),
        show_progress,
        move |i, progress| f(i, &owned[i], progress),
    )
    .unwrap_or_else(|e| fail(tool, &e));
    let interrupted = outcome.resumed > 0
        || outcome.retries > 0
        || outcome.timeouts > 0
        || !outcome.quarantined.is_empty();
    if interrupted {
        println!("{}", outcome.summary());
    }
    if !outcome.quarantined.is_empty() {
        for q in &outcome.quarantined {
            eprintln!(
                "quarantined cell {} ({}) after {} attempt(s): {}",
                q.cell,
                describe(&cells[q.cell], q),
                q.attempts,
                q.failure
            );
        }
        let hint = if sup.resume.is_some() {
            "; completed cells are journaled, rerun with the same --resume to finish"
        } else {
            ""
        };
        fail(
            tool,
            &format!("{} cell(s) quarantined{hint}", outcome.quarantined.len()),
        );
    }
    outcome.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Minimal journaled type for supervisor tests.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct V(u64);
    impl JournalItem for V {
        fn encode(&self, w: &mut SnapWriter) {
            w.push(self.0);
        }
        fn decode(r: &mut SnapReader) -> Result<Self, SnapError> {
            Ok(V(r.take()?))
        }
    }

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn fast() -> SupervisorOptions {
        SupervisorOptions {
            backoff: Duration::from_millis(1),
            ..SupervisorOptions::default()
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tcw_supervise_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn split_args_extracts_supervision_flags() {
        let (opts, rest) = SupervisorOptions::split_args(
            &strs(&[
                "--jobs",
                "4",
                "--resume",
                "j.ndjson",
                "--cell-timeout=1.5",
                "--retries",
                "0",
                "--quick",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(opts.resume.as_deref(), Some(Path::new("j.ndjson")));
        assert_eq!(opts.cell_timeout, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(opts.retries, 0);
        assert_eq!(rest, strs(&["--jobs", "4", "--quick"]));

        let (defaults, rest) =
            SupervisorOptions::split_args(&strs(&["--jobs", "2"]), true).unwrap();
        assert_eq!(defaults, SupervisorOptions::default());
        assert_eq!(rest, strs(&["--jobs", "2"]));

        // Retries and the watchdog compose with telemetry; the journal
        // does not.
        assert!(SupervisorOptions::split_args(&strs(&["--retries", "1"]), true).is_ok());
        assert!(SupervisorOptions::split_args(&strs(&["--cell-timeout", "9"]), true).is_ok());
        assert!(SupervisorOptions::split_args(&strs(&["--resume", "j"]), true).is_err());

        let rejects = |v: &[&str]| SupervisorOptions::split_args(&strs(v), false).is_err();
        assert!(rejects(&["--resume"]));
        assert!(rejects(&["--cell-timeout", "0"]));
        assert!(rejects(&["--cell-timeout", "x"]));
        assert!(rejects(&["--cell-timeout", "1e30"]));
        assert!(rejects(&["--retries", "-1"]));
    }

    #[test]
    fn journal_round_trips_and_resumes() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, "test", 99).unwrap();
        assert!(j.is_empty());
        j.record(0, &[1, 2, 3]).unwrap();
        j.record(2, &[u64::MAX]).unwrap();
        assert_eq!(j.len(), 2);

        let reopened = Journal::open(&path, "test", 99).unwrap();
        assert_eq!(reopened.completed(0), Some(&[1u64, 2, 3][..]));
        assert_eq!(reopened.completed(1), None);
        assert_eq!(reopened.completed(2), Some(&[u64::MAX][..]));
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_rejects_staleness_and_corruption() {
        let path = tmp_path("reject");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path, "test", 7).unwrap();
        j.record(1, &[0xabcd, 42]).unwrap();

        // Wrong fingerprint and wrong experiment are both stale.
        let e = Journal::open(&path, "test", 8).unwrap_err();
        assert!(e.contains("fingerprint"), "{e}");
        let e = Journal::open(&path, "other", 7).unwrap_err();
        assert!(e.contains("experiment"), "{e}");

        let good = std::fs::read_to_string(&path).unwrap();

        // A flipped hex digit in the payload fails the line checksum.
        let bad = good.replacen("abcd", "abce", 1);
        std::fs::write(&path, &bad).unwrap();
        let e = Journal::open(&path, "test", 7).unwrap_err();
        assert!(e.contains("checksum"), "{e}");

        // A truncated final line is rejected, not silently dropped.
        let truncated = &good[..good.len() - 10];
        std::fs::write(&path, truncated).unwrap();
        let e = Journal::open(&path, "test", 7).unwrap_err();
        assert!(e.contains("corrupted"), "{e}");

        // A stale version stamp is rejected before any entry is read.
        let stale = good.replace(ARTIFACT_VERSION, "0.0.0-stale");
        std::fs::write(&path, &stale).unwrap();
        let e = Journal::open(&path, "test", 7).unwrap_err();
        assert!(e.contains("version"), "{e}");

        // A format-2 header names the format, not a checksum failure.
        let old = good.replacen(
            &format!("\"journal_format\": {JOURNAL_FORMAT}"),
            "\"journal_format\": 2",
            1,
        );
        std::fs::write(&path, &old).unwrap();
        let e = Journal::open(&path, "test", 7).unwrap_err();
        assert!(e.contains("unsupported journal format"), "{e}");

        // Garbage is rejected.
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(Journal::open(&path, "test", 7).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn supervised_sweep_matches_direct_execution() {
        let opts = fast();
        let out = run_supervised(8, 3, &opts, None, false, |i, _| (V(i as u64 * 10), ())).unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.resumed, 0);
        assert_eq!(out.retries + out.timeouts, 0);
        let vals = out.into_results();
        assert_eq!(vals, (0..8).map(|i| (V(i * 10), ())).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_cell_is_quarantined_with_reason() {
        let opts = SupervisorOptions {
            retries: 1,
            ..fast()
        };
        let out = run_supervised(4, 2, &opts, None, false, |i, _| {
            if i == 2 {
                panic!("cell two always dies");
            }
            (V(i as u64), ())
        })
        .unwrap();
        assert_eq!(out.quarantined.len(), 1);
        let q = &out.quarantined[0];
        assert_eq!(q.cell, 2);
        assert_eq!(q.attempts, 2);
        assert_eq!(q.failure, Failure::Panic("cell two always dies".into()));
        assert_eq!(out.retries, 1);
        assert!(out.results[2].is_none());
        assert_eq!(out.results[3], Some((V(3), ())));
    }

    #[test]
    fn flaky_cell_succeeds_after_retry() {
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = attempts.clone();
        let opts = SupervisorOptions {
            retries: 3,
            ..fast()
        };
        let out = run_supervised(1, 1, &opts, None, false, move |i, _| {
            if seen.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("flaky");
            }
            (V(i as u64 + 100), ())
        })
        .unwrap();
        assert!(out.quarantined.is_empty());
        assert_eq!(out.retries, 2);
        assert_eq!(out.into_results(), vec![(V(100), ())]);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn wedged_cell_is_timed_out_and_quarantined() {
        let opts = SupervisorOptions {
            retries: 1,
            cell_timeout: Some(Duration::from_millis(40)),
            ..fast()
        };
        let out = run_supervised(3, 2, &opts, None, false, |i, _| {
            if i == 1 {
                std::thread::sleep(Duration::from_secs(5));
            }
            (V(i as u64), ())
        })
        .unwrap();
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].cell, 1);
        assert!(out.quarantined[0].failure.to_string().contains("timed out"));
        assert_eq!(out.timeouts, 2); // both attempts hit the watchdog
        assert_eq!(out.results[0], Some((V(0), ())));
        assert_eq!(out.results[2], Some((V(2), ())));
    }

    #[test]
    fn resume_skips_journaled_cells_and_completes_the_rest() {
        let path = tmp_path("resume");
        let _ = std::fs::remove_file(&path);
        let opts = SupervisorOptions {
            retries: 0,
            ..fast()
        };
        // First run: cell 1 fails, the rest are journaled.
        let mut j = Journal::open(&path, "test", 5).unwrap();
        let out = run_supervised(3, 1, &opts, Some(&mut j), false, |i, _| {
            if i == 1 {
                panic!("first pass fails cell 1");
            }
            (V(i as u64 * 7), ())
        })
        .unwrap();
        assert_eq!(out.quarantined.len(), 1);
        drop(j);

        // Second run: only cell 1 may execute, and the progress line is
        // sized by it alone, so it reaches 100%.
        let ran = Arc::new(AtomicU32::new(0));
        let seen = ran.clone();
        let mut j = Journal::open(&path, "test", 5).unwrap();
        let out = run_supervised(3, 1, &opts, Some(&mut j), true, move |i, _| {
            seen.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, 1, "journaled cells must not re-run");
            (V(i as u64 * 7), ())
        })
        .unwrap();
        assert_eq!(out.resumed, 2);
        assert!(out.quarantined.is_empty());
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        let progress = out.progress.clone().expect("progress was requested");
        assert_eq!(progress.total(), 1);
        assert_eq!(progress.completed(), progress.total());
        assert_eq!(
            out.into_results(),
            vec![(V(0), ()), (V(7), ()), (V(14), ())]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn result_codecs_round_trip_bit_exactly() {
        let point = SimPoint {
            k: 100.0,
            loss: 0.0625,
            ci95: f64::NAN,
            sender_loss: 0.25,
            sched_time_mean: 3.5,
            round_overhead_mean: 1.25,
            utilization: 0.75,
            offered: 8_000,
        };
        let csp = CellResult {
            point,
            faults: FaultCounters {
                corrupted_slots: 1,
                erased_slots: 2,
                resyncs: 3,
                rounds_abandoned: 4,
                reopened: 5,
                fault_losses: 6,
            },
            churn: ChurnCounters {
                crashes: 7,
                restarts: 8,
                joins: 9,
                leaves: 10,
                blocked: 11,
                losses: 12,
                reopened: 13,
                rejoin_mean_slots: f64::NAN,
                rejoin_max_slots: 64.0,
            },
            aoi: AoiPoint {
                k: 100.0,
                mean_age_tau: 18.5,
                peak_age_tau: 40.25,
                violation: 0.125,
                deliveries: 18,
                stations_observed: 19,
            },
            horizon: HorizonStats {
                jumps: 14,
                slots_skipped: 15,
                batched_runs: 16,
                batched_slots: 17,
            },
        };
        let mut w = SnapWriter::new();
        csp.encode(&mut w);
        let words = w.into_words();
        let mut r = SnapReader::new(&words);
        let back = CellResult::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.point.loss.to_bits(), csp.point.loss.to_bits());
        assert_eq!(back.point.ci95.to_bits(), csp.point.ci95.to_bits());
        assert_eq!(back.faults.fault_losses, 6);
        assert_eq!(
            back.churn.rejoin_mean_slots.to_bits(),
            csp.churn.rejoin_mean_slots.to_bits()
        );
        assert_eq!(back.horizon, csp.horizon);
        assert_eq!(format!("{back:?}"), format!("{csp:?}"));

        let chaos = crate::chaos::ChaosOutcome {
            kind: "violation".into(),
            class: "conservation".into(),
            detail: "msg 17 neither delivered nor discarded".into(),
            violations: 1,
            divergences: 0,
            checks: 5_000,
            deliveries: 4_999,
            offered: 5_000,
            loss: 0.125,
        };
        let mut w = SnapWriter::new();
        chaos.encode(&mut w);
        let words = w.into_words();
        let mut r = SnapReader::new(&words);
        let back = crate::chaos::ChaosOutcome::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.kind, chaos.kind);
        assert_eq!(back.class, chaos.class);
        assert_eq!(back.detail, chaos.detail);
        assert_eq!(back.loss.to_bits(), chaos.loss.to_bits());
    }
}
