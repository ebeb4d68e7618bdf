//! Shared CLI diagnostics and the workspace exit-code convention.
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

/// Exit code for malformed command lines.
pub const EXIT_USAGE: i32 = 1;

/// Exit code for runtime failures: stale/corrupt artifacts, replay
/// divergence, gate or lint failures.
pub const EXIT_FAILURE: i32 = 2;

/// Prints `tool: message` to stderr.
pub fn error(tool: &str, msg: &str) {
    eprintln!("{tool}: {msg}");
}

/// Unwraps a parsed command-line value, or reports the parse error as
/// `tool: message` and exits with [`EXIT_USAGE`].
pub fn or_usage<T>(tool: &str, parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        error(tool, &e);
        std::process::exit(EXIT_USAGE)
    })
}

/// The value of the flag `name` in `args`, given as `name V` or
/// `name=V`: `None` when the flag is absent, an error when it has no
/// value.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return match it.next() {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{name} needs a value")),
            };
        }
        if let Some(v) = a.strip_prefix(name).and_then(|rest| rest.strip_prefix('=')) {
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// Exits with [`EXIT_USAGE`] unless every argument in `args` is one of
/// `value_flags` with its value (`--name V` or `--name=V`): an unknown
/// flag or a stray operand is a usage error, never silently ignored.
/// Binaries call it with what is left after their own parsing.
pub fn reject_unknown(tool: &str, args: &[String], value_flags: &[&str]) {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (name, inline) = match a.split_once('=') {
            Some((name, _)) => (name, true),
            None => (a.as_str(), false),
        };
        if !value_flags.contains(&name) {
            error(tool, &format!("unknown argument {a:?}"));
            std::process::exit(EXIT_USAGE);
        }
        if !inline {
            it.next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_nonzero() {
        assert_ne!(EXIT_USAGE, 0);
        assert_ne!(EXIT_FAILURE, 0);
        assert_ne!(EXIT_USAGE, EXIT_FAILURE);
    }
}
