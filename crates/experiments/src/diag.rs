//! Shared CLI diagnostics, the workspace exit-code convention, and the one
//! command-line grammar of the experiment binaries.
//!
//! Every experiment binary reports errors through [`error`] so messages
//! are uniformly prefixed with the tool name (`tool: message`), and exits
//! through the shared codes:
//!
//! * [`EXIT_USAGE`] (1) — the command line itself was wrong (unknown
//!   flag, missing value, missing argument);
//! * [`EXIT_FAILURE`] (2) — the tool ran but failed: a stale or corrupted
//!   artifact, a replay that did not reproduce, a regression/lint gate
//!   that tripped, or an unwritable output path.
//!
//! Success is `0`, as usual. CI distinguishes the two failure classes:
//! usage errors indicate a broken invocation (fix the workflow), code 2
//! indicates a genuine regression or artifact problem (fix the code or
//! regenerate the artifact).
//!
//! Each binary declares its [`Mode`]s once: the default run, plus any mode
//! selected by a flag and its operands (`--replay PATH`, `--inject
//! MUTATION [PATH]`). A mode lists the flags it accepts, built from the
//! shared groups [`TELEMETRY`], [`SUPERVISION`] and [`JOBS`] and the
//! binary's own. [`parse`] reads the command line in one pass and returns
//! a [`Cli`]; before the binary does anything it exits with
//! [`EXIT_USAGE`] on an unknown argument, a flag the selected mode does
//! not accept, a repeated flag, a missing value or operand, a malformed
//! value, or a flag given without the flag it needs. It runs the shared
//! [`REPLAY`] mode itself.

use crate::obs::ObsConfig;
use crate::supervise::SupervisorOptions;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Exit code for malformed command lines.
pub const EXIT_USAGE: i32 = 1;

/// Exit code for runtime failures: stale/corrupt artifacts, replay
/// divergence, gate or lint failures.
pub const EXIT_FAILURE: i32 = 2;

/// Prints `tool: message` to stderr.
pub fn error(tool: &str, msg: &str) {
    eprintln!("{tool}: {msg}");
}

/// One flag a mode accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arg {
    /// A word that stands alone: `--quick`, or one of `fig7`'s panel
    /// labels.
    Switch(&'static str),
    /// `--name V` or `--name=V`, any text.
    Value(&'static str),
    /// `--name N` or `--name=N`, a non-negative integer.
    Count(&'static str),
}

impl Arg {
    fn name(self) -> &'static str {
        match self {
            Arg::Switch(name) | Arg::Value(name) | Arg::Count(name) => name,
        }
    }
}

/// The telemetry flags ([`ObsConfig`]): the three outputs, then the live
/// progress line.
pub const TELEMETRY: &[Arg] = &[
    Arg::Value("--trace-events"),
    Arg::Value("--spans"),
    Arg::Value("--metrics"),
    Arg::Switch("--progress"),
];

/// The three telemetry outputs, without `--progress`.
pub const OUTPUTS: &[Arg] = TELEMETRY.split_at(3).0;

/// The supervision flags ([`SupervisorOptions`]).
pub const SUPERVISION: &[Arg] = &[
    Arg::Value("--resume"),
    Arg::Value("--cell-timeout"),
    Arg::Count("--retries"),
];

/// The sweep pool's width.
pub const JOBS: &[Arg] = &[Arg::Count("--jobs")];

/// One way to run a binary.
#[derive(Debug)]
pub struct Mode {
    /// The flag that selects the mode; empty for the default run.
    pub flag: &'static str,
    /// The operands that follow `flag`, as a usage line writes them; an
    /// operand in brackets may be left out. No operand starts with `--`.
    pub operands: &'static str,
    /// The flags the mode accepts, group by group.
    pub accepts: &'static [&'static [Arg]],
    /// `(flag, flag it needs)` pairs; the selecting flag counts as given.
    pub needs: &'static [(&'static str, &'static str)],
}

impl Mode {
    /// The default run, accepting `accepts`.
    pub const fn run(accepts: &'static [&'static [Arg]]) -> Mode {
        Mode {
            accepts,
            ..Mode::select("", "")
        }
    }

    /// The mode `flag operands`, accepting no flag.
    pub const fn select(flag: &'static str, operands: &'static str) -> Mode {
        Mode {
            flag,
            operands,
            accepts: &[],
            needs: &[],
        }
    }

    fn arg(&self, name: &str) -> Option<Arg> {
        self.accepts
            .iter()
            .flat_map(|group| group.iter().copied())
            .find(|arg| arg.name() == name)
    }
}

/// `--replay PATH`: re-executes a replay artifact and exits with the code
/// of [`crate::replay::replay`]. [`parse`] runs it.
pub const REPLAY: Mode = Mode::select("--replay", "PATH");

/// The grammar of a binary that takes no arguments.
pub const NO_ARGS: &[Mode] = &[Mode::run(&[])];

/// A parsed command line.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name: the prefix of its messages and its journal tag.
    pub(crate) tool: &'static str,
    /// The selected mode.
    pub mode: &'static Mode,
    /// The selected mode's operands, in order.
    pub operands: Vec<String>,
    /// The telemetry flags.
    pub obs: ObsConfig,
    /// The supervision flags.
    pub(crate) sup: SupervisorOptions,
    /// `--jobs N`, else the host's available parallelism.
    pub jobs: usize,
    given: Vec<(&'static str, Option<String>)>,
}

/// The value given for `name` in `given`: `Some(None)` for a switch.
fn lookup<'a>(given: &'a [(&str, Option<String>)], name: &str) -> Option<Option<&'a str>> {
    given
        .iter()
        .find(|(flag, _)| *flag == name)
        .map(|(_, value)| value.as_deref())
}

impl Cli {
    /// The value given for `name`: `Some(None)` for a switch.
    ///
    /// # Panics
    /// Panics when the selected mode does not declare `name`, which is a
    /// bug in the binary's grammar.
    fn given(&self, name: &str) -> Option<Option<&str>> {
        assert!(
            self.mode.arg(name).is_some(),
            "{}: {name} is not a flag of mode {:?}",
            self.tool,
            self.mode.flag
        );
        lookup(&self.given, name)
    }

    /// Whether the switch `name` was given; panics when the selected mode
    /// does not declare it.
    pub fn has(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The count `name`, when given; panics when the selected mode does
    /// not declare it.
    pub fn count(&self, name: &str) -> Option<usize> {
        self.given(name).map(|value| {
            value
                .and_then(|v| v.parse().ok())
                .expect("the parse checked every count")
        })
    }
}

/// Parses the process's command line against `modes` (`modes[0]` is the
/// default run). On a usage error it prints `tool: message` and exits
/// with [`EXIT_USAGE`]; on [`REPLAY`] it replays the artifact and exits
/// with the replay's code.
pub fn parse(tool: &'static str, modes: &'static [Mode]) -> Cli {
    let cli = parse_args(tool, modes, std::env::args().skip(1)).unwrap_or_else(|e| {
        error(tool, &e);
        std::process::exit(EXIT_USAGE)
    });
    if cli.mode.flag == REPLAY.flag {
        std::process::exit(crate::replay::replay(Path::new(&cli.operands[0]), tool));
    }
    cli
}

/// Parses `args` against `modes` (`modes[0]` is the default run); the
/// error is the usage message.
pub(crate) fn parse_args(
    tool: &'static str,
    modes: &'static [Mode],
    args: impl IntoIterator<Item = String>,
) -> Result<Cli, String> {
    let mut mode = &modes[0];
    let mut operands = Vec::new();
    let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        if let Some(selected) = modes[1..].iter().find(|m| m.flag == a) {
            if !mode.flag.is_empty() {
                return Err(format!("{a} cannot be combined with {}", mode.flag));
            }
            mode = selected;
            for operand in mode.operands.split_whitespace() {
                match args.next_if(|v| !v.starts_with("--")) {
                    Some(v) => operands.push(v),
                    None if operand.starts_with('[') => break,
                    None => return Err(format!("{a} needs {}", mode.operands)),
                }
            }
            continue;
        }
        let (name, inline) = match a.split_once('=') {
            Some((name, v)) => (name, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let Some(arg) = modes.iter().find_map(|m| m.arg(name)) else {
            return Err(format!("unknown argument {a:?}"));
        };
        if lookup(&given, name).is_some() {
            return Err(format!("{name} is given twice"));
        }
        let value = match (arg, inline) {
            (Arg::Switch(_), Some(_)) => return Err(format!("{name} takes no value")),
            (Arg::Switch(_), None) => None,
            (_, Some(v)) => Some(v),
            (_, None) => Some(args.next().ok_or(format!("{name} needs a value"))?),
        };
        if let (Arg::Count(_), Some(v)) = (arg, &value) {
            if v.parse::<usize>().is_err() {
                return Err(format!("{name} expects a whole number, got {v:?}"));
            }
        }
        given.push((arg.name(), value));
    }

    let has = |name: &str| name == mode.flag || lookup(&given, name).is_some();
    let value = |name: &str| lookup(&given, name).flatten();
    if let Some((name, _)) = given.iter().find(|(name, _)| mode.arg(name).is_none()) {
        let run = Some(mode.flag).filter(|f| !f.is_empty());
        return Err(format!(
            "{name} does not apply to {}",
            run.unwrap_or("the default run")
        ));
    }
    if let Some((flag, needed)) = mode.needs.iter().find(|(f, n)| has(f) && !has(n)) {
        return Err(format!("{flag} needs {needed}"));
    }

    let path = |name: &str| value(name).map(PathBuf::from);
    let obs = ObsConfig {
        trace_events: path("--trace-events"),
        spans: path("--spans"),
        metrics: path("--metrics"),
        progress: has("--progress"),
    };
    if has("--resume") && obs.wants_telemetry() {
        return Err(
            "--resume is incompatible with --trace-events/--spans/--metrics \
             (journaled cells carry no telemetry)"
                .to_string(),
        );
    }
    let mut sup = SupervisorOptions {
        resume: path("--resume"),
        ..SupervisorOptions::default()
    };
    if let Some(v) = value("--cell-timeout") {
        match v.parse().map(Duration::try_from_secs_f64) {
            Ok(Ok(limit)) if !limit.is_zero() => sup.cell_timeout = Some(limit),
            _ => return Err(format!("--cell-timeout {v:?} is not a positive duration")),
        }
    }
    if let Some(v) = value("--retries") {
        sup.retries = v
            .parse()
            .map_err(|_| format!("--retries is out of range, got {v:?}"))?;
    }
    let jobs = match value("--jobs") {
        None => crate::sweep::default_jobs(),
        Some(v) => v
            .parse::<NonZeroUsize>()
            .map_err(|_| format!("--jobs expects at least 1, got {v:?}"))?
            .get(),
    };
    Ok(Cli {
        tool,
        mode,
        operands,
        obs,
        sup,
        jobs,
        given,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grammar with every shape the binaries use: shared groups and own
    /// flags in the default run, a `needs` pair, the replay mode, a mode
    /// with an optional operand, and a mode that accepts the outputs.
    const MODES: &[Mode] = &[
        Mode {
            needs: &[("--inject-slow", "--cell-timeout")],
            ..Mode::run(&[
                TELEMETRY,
                SUPERVISION,
                JOBS,
                &[
                    Arg::Count("--configs"),
                    Arg::Count("--inject-slow"),
                    Arg::Switch("--quick"),
                    Arg::Switch("rho25_m25"),
                ],
            ])
        },
        REPLAY,
        Mode::select("--inject", "MUTATION [PATH]"),
        Mode::select("--record", "SCENARIO REPLICATE"),
        Mode {
            needs: &[
                ("--obs-cell", "--trace-events"),
                ("--obs-cell", "--metrics"),
            ],
            accepts: &[OUTPUTS],
            ..Mode::select("--obs-cell", "")
        },
    ];

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args("test", MODES, args.iter().map(|a| a.to_string()))
    }

    fn rejects(args: &[&str], message: &str) {
        match parse(args) {
            Ok(cli) => panic!("{args:?} parsed as {cli:?}"),
            Err(e) => assert!(e.contains(message), "{args:?}: {e}"),
        }
    }

    #[test]
    fn codes_are_distinct_and_nonzero() {
        assert_ne!(EXIT_USAGE, 0);
        assert_ne!(EXIT_FAILURE, 0);
        assert_ne!(EXIT_USAGE, EXIT_FAILURE);
    }

    #[test]
    fn telemetry_flags_take_both_spellings() {
        let cli = parse(&[
            "--quick",
            "--trace-events",
            "out.ndjson",
            "--spans=out.spans.ndjson",
            "--metrics=m.prom",
            "--progress",
            "--jobs",
            "2",
        ])
        .unwrap();
        let obs = &cli.obs;
        assert_eq!(obs.trace_events.as_deref(), Some(Path::new("out.ndjson")));
        assert_eq!(obs.spans.as_deref(), Some(Path::new("out.spans.ndjson")));
        assert_eq!(obs.metrics.as_deref(), Some(Path::new("m.prom")));
        assert!(obs.progress && obs.wants_telemetry());
        let caps = obs.capture();
        assert!(caps.tracing && caps.metrics && caps.spans);
        assert_eq!(cli.jobs, 2);
        assert!(cli.has("--quick"));
        assert!(!cli.has("rho25_m25"));
        assert_eq!(cli.mode.flag, "");
    }

    #[test]
    fn supervision_flags_parse_and_validate() {
        let cli = parse(&[
            "--jobs",
            "4",
            "--resume",
            "j.ndjson",
            "--cell-timeout=1.5",
            "--retries",
            "0",
            "--quick",
        ])
        .unwrap();
        assert_eq!(cli.sup.resume.as_deref(), Some(Path::new("j.ndjson")));
        assert_eq!(cli.sup.cell_timeout, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(cli.sup.retries, 0);
        assert_eq!(cli.jobs, 4);
        let defaults = parse(&["--jobs", "2"]).unwrap();
        assert_eq!(defaults.sup, SupervisorOptions::default());
        assert!(!defaults.obs.wants_telemetry() && !defaults.obs.progress);

        // Retries and the watchdog compose with telemetry; the journal
        // does not.
        assert!(parse(&["--retries", "1", "--metrics", "m"]).is_ok());
        assert!(parse(&["--cell-timeout", "9", "--spans", "s"]).is_ok());
        for output in ["--trace-events", "--spans", "--metrics"] {
            rejects(&["--resume", "j", output, "o"], "incompatible");
        }

        rejects(&["--cell-timeout", "0"], "not a positive duration");
        rejects(&["--cell-timeout", "x"], "not a positive duration");
        rejects(&["--cell-timeout", "1e30"], "not a positive duration");
        rejects(&["--retries", "-1"], "whole number");
        rejects(&["--retries", "4294967296"], "out of range");
    }

    #[test]
    fn missing_values_and_operands_are_errors() {
        for flag in ["--trace-events", "--spans", "--metrics", "--resume"] {
            rejects(&[flag], "needs a value");
        }
        rejects(&["--replay"], "--replay needs PATH");
        rejects(&["--replay", "--progress"], "--replay needs PATH");
        rejects(&["--record", "step"], "--record needs SCENARIO REPLICATE");
        rejects(&["--inject"], "--inject needs MUTATION [PATH]");

        let cli = parse(&["--inject", "reorder_pair"]).unwrap();
        assert_eq!(cli.mode.flag, "--inject");
        assert_eq!(cli.operands, ["reorder_pair"]);
        let cli = parse(&["--inject", "reorder_pair", "p.json"]).unwrap();
        assert_eq!(cli.operands, ["reorder_pair", "p.json"]);
        let cli = parse(&["--replay", "a.json"]).unwrap();
        assert_eq!(cli.mode.flag, "--replay");
        assert_eq!(cli.operands, ["a.json"]);
    }

    #[test]
    fn each_mode_accepts_only_its_own_flags() {
        rejects(&["--quik"], "unknown argument \"--quik\"");
        rejects(&["rho25_m26"], "unknown argument");
        rejects(&["--jobs", "2", "3"], "unknown argument \"3\"");
        rejects(
            &["--inject", "m", "p.json", "q.json"],
            "unknown argument \"q.json\"",
        );
        rejects(&["--replay=a.json"], "unknown argument");

        rejects(
            &["--replay", "a.json", "--metrics", "m"],
            "--metrics does not apply to --replay",
        );
        rejects(
            &["--inject", "m", "p", "--metrics", "m"],
            "does not apply to --inject",
        );
        rejects(
            &["--configs", "3", "--inject", "m"],
            "--configs does not apply",
        );
        rejects(
            &[
                "--obs-cell",
                "--trace-events",
                "t",
                "--metrics",
                "m",
                "--retries",
                "3",
            ],
            "--retries does not apply to --obs-cell",
        );
        rejects(&["--replay", "a", "--inject", "m"], "cannot be combined");

        rejects(
            &["--configs", "3", "--configs", "5"],
            "--configs is given twice",
        );
        rejects(&["--configs", "3", "--configs=3"], "given twice");
        rejects(&["--progress", "--progress"], "given twice");
        rejects(&["--progress=yes"], "--progress takes no value");
        rejects(&["--configs", "x"], "whole number");

        rejects(
            &["--inject-slow", "1"],
            "--inject-slow needs --cell-timeout",
        );
        let cli = parse(&["--inject-slow", "1", "--cell-timeout", "2", "--configs=8"]).unwrap();
        assert_eq!(
            (cli.count("--inject-slow"), cli.count("--configs")),
            (Some(1), Some(8))
        );
        rejects(
            &["--obs-cell", "--trace-events", "t"],
            "--obs-cell needs --metrics",
        );
        let cli = parse(&["--obs-cell", "--trace-events", "t", "--metrics", "m"]).unwrap();
        assert_eq!(cli.mode.flag, "--obs-cell");
        assert!(cli.obs.wants_telemetry() && !cli.obs.progress);
    }
}
