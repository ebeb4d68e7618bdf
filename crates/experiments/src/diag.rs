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
