//! End-to-end crash-safety tests of the supervised chaos sweep: an
//! injected panic quarantines its cell (exit 2, journal intact), the
//! watchdog cuts off a wedged cell, a corrupted or stale journal is
//! rejected up front, a clean `--resume` finishes the sweep with CSV/TXT
//! outputs byte-identical to an uninterrupted `--jobs 1` run, and
//! retries leave the telemetry exports byte-identical. A misspelled flag,
//! a flag the selected mode does not use and a repeated flag are usage
//! errors that write nothing, in every experiment binary.
//!
//! Each scenario runs the real `chaos` binary in its own temp directory,
//! because the binary writes `results/` relative to the working
//! directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CONFIGS: &str = "8";

fn chaos_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn chaos binary")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcw_crash_safety_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("chaos terminated by signal")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The full arc: baseline run, injected panic under supervision
/// (quarantine, exit 2, outputs withheld, journal keeps the completed
/// cells), then a clean resume that skips journaled cells and produces
/// byte-identical outputs.
#[test]
fn injected_panic_quarantines_then_resume_is_byte_identical() {
    let base = fresh_dir("baseline");
    let out = chaos_in(&base, &["--configs", CONFIGS, "--jobs", "1"]);
    assert_eq!(code(&out), 0, "baseline failed: {}", stderr(&out));

    let crashed = fresh_dir("crashed");
    let out = chaos_in(
        &crashed,
        &[
            "--configs",
            CONFIGS,
            "--jobs",
            "2",
            "--resume",
            "sweep.journal",
            "--retries",
            "0",
            "--inject-panic",
            "3",
        ],
    );
    assert_eq!(code(&out), 2, "injected run must fail: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("quarantined cell 3"), "{err}");
    assert!(err.contains("injected panic in cell 3"), "{err}");
    assert!(
        !crashed.join("results/chaos.csv").exists(),
        "outputs must be withheld from a partial sweep"
    );
    let journal = fs::read_to_string(crashed.join("sweep.journal")).expect("journal written");
    // Header plus every cell except the quarantined one.
    assert_eq!(journal.lines().count(), 8, "{journal}");
    assert!(!journal.contains("\"cell\": 3"), "{journal}");

    let out = chaos_in(
        &crashed,
        &[
            "--configs",
            CONFIGS,
            "--jobs",
            "2",
            "--resume",
            "sweep.journal",
            "--retries",
            "0",
        ],
    );
    assert_eq!(code(&out), 0, "resume failed: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("7 resumed"), "{stdout}");

    for name in ["results/chaos.csv", "results/chaos.txt"] {
        let want = fs::read(base.join(name)).expect("baseline output");
        let got = fs::read(crashed.join(name)).expect("resumed output");
        assert_eq!(want, got, "{name} differs from the uninterrupted run");
    }
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&crashed);
}

/// A wedged cell is cut off by the wall-clock watchdog and quarantined
/// with a timeout reason; the sweep still completes and exits 2.
#[test]
fn wedged_cell_is_timed_out_and_quarantined() {
    let dir = fresh_dir("wedged");
    let out = chaos_in(
        &dir,
        &[
            "--configs",
            "4",
            "--jobs",
            "2",
            "--cell-timeout",
            "0.5",
            "--retries",
            "0",
            "--inject-slow",
            "1",
        ],
    );
    assert_eq!(code(&out), 2, "wedged run must fail: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("quarantined cell 1"), "{err}");
    assert!(err.contains("timed out"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// Journal corruption (a flipped payload bit) and staleness (a changed
/// cell grid) are both rejected before any cell runs, with exit 2.
#[test]
fn corrupted_or_stale_journal_is_rejected() {
    let dir = fresh_dir("reject");
    let out = chaos_in(
        &dir,
        &[
            "--configs",
            CONFIGS,
            "--jobs",
            "2",
            "--resume",
            "sweep.journal",
        ],
    );
    assert_eq!(code(&out), 0, "clean run failed: {}", stderr(&out));

    // Stale: same journal, different grid.
    let out = chaos_in(
        &dir,
        &["--configs", "9", "--jobs", "2", "--resume", "sweep.journal"],
    );
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("fingerprint"), "{}", stderr(&out));

    // Corrupt: flip one hex digit inside a journaled payload.
    let good = fs::read_to_string(dir.join("sweep.journal")).expect("journal");
    let pos = good.find("\"data\": \"").expect("a data field") + 12;
    let mut bad = good.into_bytes();
    bad[pos] = if bad[pos] == b'0' { b'1' } else { b'0' };
    fs::write(dir.join("corrupt.journal"), bad).expect("write corrupted journal");
    let out = chaos_in(
        &dir,
        &[
            "--configs",
            CONFIGS,
            "--jobs",
            "2",
            "--resume",
            "corrupt.journal",
        ],
    );
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("corrupted"), "{}", stderr(&out));

    // Truncated: chop the journal mid-line.
    let good = fs::read(dir.join("sweep.journal")).expect("journal");
    fs::write(dir.join("truncated.journal"), &good[..good.len() - 20])
        .expect("write truncated journal");
    let out = chaos_in(
        &dir,
        &[
            "--configs",
            CONFIGS,
            "--jobs",
            "2",
            "--resume",
            "truncated.journal",
        ],
    );
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("corrupted"), "{}", stderr(&out));
    let _ = fs::remove_dir_all(&dir);
}

/// Supervision is always on, so retries and the watchdog compose with the
/// observability exports: a telemetry run under `--retries 1` exits 0
/// with trace, span and metrics files byte-identical to the same run
/// without the flag.
#[test]
fn telemetry_is_unchanged_under_retries() {
    let telemetry = [
        "--trace-events",
        "t.ndjson",
        "--spans",
        "s.spans.ndjson",
        "--metrics",
        "m.json",
    ];
    let run = |name: &str, extra: &[&str]| {
        let dir = fresh_dir(name);
        let mut args = vec!["--configs", CONFIGS, "--jobs", "2"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&telemetry);
        let out = chaos_in(&dir, &args);
        assert_eq!(code(&out), 0, "{name}: {}", stderr(&out));
        dir
    };
    let plain = run("telemetry_plain", &[]);
    let retried = run("telemetry_retries", &["--retries", "1"]);
    for name in ["t.ndjson", "s.spans.ndjson", "m.json"] {
        let want = fs::read(plain.join(name)).expect("plain telemetry");
        let got = fs::read(retried.join(name)).expect("telemetry under --retries");
        assert!(!want.is_empty(), "{name} is empty");
        assert_eq!(want, got, "{name} differs under --retries 1");
    }
    let _ = fs::remove_dir_all(&plain);
    let _ = fs::remove_dir_all(&retried);
}

/// Malformed supervision values, `--jobs 0`, `--resume` with an
/// observability export (journaled cells carry no telemetry),
/// `--inject-slow` without a watchdog, and misspelled flags (`--resum`,
/// `--config`) are usage errors (exit 1) that open no journal. A bare
/// `--inject-panic` needs no flag: the default supervision quarantines
/// the cell (exit 2).
#[test]
fn incompatible_flag_combinations_are_usage_errors() {
    let dir = fresh_dir("usage");
    for args in [
        &["--resume", "J", "--trace-events", "t.ndjson"][..],
        &["--retries", "0", "--inject-slow", "1"],
        &["--jobs", "x"],
        &["--jobs", "0"],
        &["--cell-timeout", "1e30"],
        &["--resum", "J"],
        &["--config", "2"],
    ] {
        let mut full = vec!["--configs", "2"];
        full.extend_from_slice(args);
        let out = chaos_in(&dir, &full);
        assert_eq!(code(&out), 1, "{args:?}: {}", stderr(&out));
    }
    assert!(!dir.join("J").exists(), "a usage error opens no journal");

    let out = chaos_in(&dir, &["--configs", "2", "--inject-panic", "0"]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("quarantined cell 0"), "{err}");
    assert!(!dir.join("results/chaos.csv").exists(), "outputs withheld");
    let _ = fs::remove_dir_all(&dir);
}

/// Runs each `(binary, arguments)` row in an empty temp directory and
/// requires exit 1 with `message` on stderr, and a directory still empty.
fn usage_errors_write_nothing(name: &str, message: &str, rows: &[(&str, &[&str])]) {
    let dir = fresh_dir(name);
    for (bin, args) in rows {
        let out = Command::new(bin)
            .current_dir(&dir)
            .args(*args)
            .output()
            .expect("spawn experiment binary");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{bin} {args:?}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains(message), "{}", stderr(&out));
    }
    let written: Vec<_> = fs::read_dir(&dir).expect("read temp dir").collect();
    assert!(
        written.is_empty(),
        "a usage error writes nothing: {written:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Every experiment binary refuses a misspelled flag or a stray operand
/// before it runs or writes anything.
#[test]
fn misspelled_flags_are_usage_errors_in_every_sweep() {
    usage_errors_write_nothing(
        "misspelled",
        "unknown argument",
        &[
            (env!("CARGO_BIN_EXE_fig7"), &["--quik", "--jobs", "2"]),
            (env!("CARGO_BIN_EXE_fig7"), &["rho25_m26"]),
            (env!("CARGO_BIN_EXE_aoi"), &["--job", "2"]),
            (env!("CARGO_BIN_EXE_ablate"), &["--jobs=2", "--progres"]),
            (env!("CARGO_BIN_EXE_wait_dist"), &["--quick"]),
            (env!("CARGO_BIN_EXE_limits"), &["--jobs", "2", "3"]),
            (env!("CARGO_BIN_EXE_light"), &["--quik"]),
            (env!("CARGO_BIN_EXE_mdp_verify"), &["--quik"]),
            (env!("CARGO_BIN_EXE_trace_window"), &["--quik"]),
            (
                env!("CARGO_BIN_EXE_robustness"),
                &["--jobs", "2", "--progres"],
            ),
            (env!("CARGO_BIN_EXE_churn"), &["--resum", "J"]),
            (env!("CARGO_BIN_EXE_adaptive"), &["--episod"]),
            (env!("CARGO_BIN_EXE_chaos"), &["--config", "2"]),
        ],
    );
}

/// A flag the selected mode does not use, and a repeated flag, are usage
/// errors that write nothing: no row may run with a flag ignored or
/// overridden.
#[test]
fn mode_foreign_and_repeated_flags_are_usage_errors() {
    macro_rules! artifact {
        ($name:literal) => {
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../results/failures/",
                $name
            )
        };
    }
    let obs_cell: &[&str] = &[
        "--obs-cell",
        "--trace-events",
        "T",
        "--metrics",
        "M",
        "--retries",
        "3",
        "--quick",
        "rho25_m25",
        "--jobs",
        "3",
    ];
    usage_errors_write_nothing(
        "mode_foreign",
        "",
        &[
            (env!("CARGO_BIN_EXE_fig7"), obs_cell),
            (
                env!("CARGO_BIN_EXE_robustness"),
                &[
                    "--replay",
                    artifact!("failure_divergence_seed1983_p02.json"),
                    "--metrics",
                    "M",
                ],
            ),
            (
                env!("CARGO_BIN_EXE_churn"),
                &[
                    "--replay",
                    artifact!("failure_churn_divergence_seed1983.json"),
                    "--resume",
                    "J",
                ],
            ),
            (
                env!("CARGO_BIN_EXE_adaptive"),
                &[
                    "--replay",
                    artifact!("adaptive_step_aimd_rep0.json"),
                    "--retries",
                    "5",
                    "--cell-timeout",
                    "1",
                ],
            ),
            (
                env!("CARGO_BIN_EXE_adaptive"),
                &["--episode", "--trace-events", "E"],
            ),
            (
                env!("CARGO_BIN_EXE_chaos"),
                &["--inject", "reorder_pair", "P", "--metrics", "M"],
            ),
            (
                env!("CARGO_BIN_EXE_chaos"),
                &[
                    "--replay",
                    artifact!("chaos_injected_reorder_pair.json"),
                    "--inject-panic",
                    "0",
                    "--progress",
                    "--retries",
                    "9",
                ],
            ),
            (
                env!("CARGO_BIN_EXE_chaos"),
                &["--configs", "3", "--configs", "5"],
            ),
        ],
    );
}

/// `chaos` refuses an injected cell outside its grid, and a grid above
/// its maximum, before it builds the grid or writes anything: the
/// injection would be ignored, and the grid would be allocated whole.
#[test]
fn chaos_rejects_cells_outside_the_grid_and_oversized_grids() {
    usage_errors_write_nothing(
        "chaos_cells",
        "is not a cell of the 2 configs",
        &[
            (
                env!("CARGO_BIN_EXE_chaos"),
                &["--configs", "2", "--jobs", "1", "--inject-panic", "5"],
            ),
            (
                env!("CARGO_BIN_EXE_chaos"),
                &[
                    "--configs",
                    "2",
                    "--inject-slow",
                    "2",
                    "--cell-timeout",
                    "1",
                ],
            ),
        ],
    );
    usage_errors_write_nothing(
        "chaos_grid",
        "is above the maximum 100000",
        &[
            (
                env!("CARGO_BIN_EXE_chaos"),
                &["--configs", "18446744073709551615"],
            ),
            (env!("CARGO_BIN_EXE_chaos"), &["--configs", "100001"]),
        ],
    );
}
