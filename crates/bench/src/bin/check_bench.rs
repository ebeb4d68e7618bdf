//! Bench-regression gate for CI.
//!
//! Compares a freshly-written `BENCH_engine.json` against the committed
//! copy and fails when any field regresses by more than 20%:
//!
//! * `*_per_sec_*` fields are rates — higher is better; a regression is
//!   `fresh < 0.8 * committed`;
//! * fields containing `allocs` are costs — lower is better; a
//!   regression is `fresh > 1.2 * committed + 0.01` (the additive slack
//!   keeps near-zero steady-state counts from tripping on noise);
//! * `sweep_parallel_speedup` is gated as a rate when both snapshots
//!   come from multi-core hosts. When the **fresh** run is single-core
//!   the gate is skipped with a note — the executor cannot speed
//!   anything up there. When only the **committed** baseline is
//!   single-core (it records speedup 0.984 on such a host), a relative
//!   comparison is meaningless, so a multi-core fresh run is instead
//!   held to an absolute floor: the parallel executor must deliver at
//!   least 1.1x, or the parallelism claim has regressed;
//! * `engine_light_jump_speedup` is a same-host on/off A-B of the
//!   event-horizon fast path and is held to an absolute floor rather
//!   than compared against the committed value;
//! * `host_parallelism` describes the host, not the code, and is
//!   reported but never gated;
//! * the two field sets must match in **both** directions — a key
//!   present in only one of the snapshots fails the gate, so a grown
//!   bench cannot ship without a re-measured committed baseline.
//!
//! Usage: `check_bench <committed.json> <fresh.json>`. Both files are
//! the flat single-level JSON the engine bench writes, read with the
//! workspace's record codec ([`tcw_sim::record`]). Exit codes follow
//! the [`tcw_experiments::diag`] convention: 1 = usage, 2 = stale or
//! corrupt snapshot, or a gate failure.

use std::collections::BTreeMap;
use std::process::ExitCode;
use tcw_experiments::diag;
use tcw_sim::record::Record;

/// Parses the flat `{"key": number, ...}` snapshot the benches emit.
fn parse_snapshot(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let rec = Record::parse(text)?;
    let fields = rec
        .keys()
        .map(|k| Ok((k.to_string(), rec.f64(k)?)))
        .collect::<Result<BTreeMap<_, _>, String>>()?;
    if fields.is_empty() {
        return Err("no fields".into());
    }
    Ok(fields)
}

/// Fields that describe the machine the bench ran on, not the code.
fn environmental(key: &str) -> bool {
    key == "host_parallelism"
}

/// Minimum parallel-sweep speedup demanded of a multi-core host when
/// the committed baseline is single-core and offers no reference.
const SPEEDUP_FLOOR: f64 = 1.1;

/// Minimum light-load speedup of the event-horizon fast path over the
/// slot-stepped engine. An on/off A-B on the same host and build, so no
/// relative comparison against the committed snapshot is needed — the
/// absolute floor is the claim itself.
const LIGHT_JUMP_FLOOR: f64 = 5.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed_path, fresh_path] = &args[..] else {
        diag::error(
            "check_bench",
            "usage: check_bench <committed.json> <fresh.json>",
        );
        return ExitCode::from(diag::EXIT_USAGE as u8);
    };
    let read = |path: &str| -> Result<BTreeMap<String, f64>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_snapshot(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (committed, fresh) = match (read(committed_path), read(fresh_path)) {
        (Ok(c), Ok(f)) => (c, f),
        (Err(e), _) | (_, Err(e)) => {
            diag::error("check_bench", &e);
            return ExitCode::from(diag::EXIT_FAILURE as u8);
        }
    };

    // A parallel-speedup comparison is only meaningful when both the
    // committed baseline and this host actually had cores to parallelize
    // over.
    let single_core = |m: &BTreeMap<String, f64>| m.get("host_parallelism") == Some(&1.0);
    let speedup_gated = !single_core(&committed) && !single_core(&fresh);

    let mut failed = false;
    for (key, &base) in &committed {
        let Some(&now) = fresh.get(key) else {
            diag::error(
                "check_bench",
                &format!("FAIL {key}: missing from fresh run"),
            );
            failed = true;
            continue;
        };
        if environmental(key) {
            println!("  ok {key}: {base} -> {now} (environmental, not gated)");
            continue;
        }
        if key == "engine_light_jump_speedup" {
            if now < LIGHT_JUMP_FLOOR {
                diag::error(
                    "check_bench",
                    &format!(
                        "FAIL {key}: fresh {now} (absolute floor {LIGHT_JUMP_FLOOR}; jump-ahead must beat slot stepping at light load)"
                    ),
                );
                failed = true;
            } else {
                println!("  ok {key}: {base} -> {now} (absolute floor {LIGHT_JUMP_FLOOR})");
            }
            continue;
        }
        if key == "sweep_parallel_speedup" && !speedup_gated {
            if single_core(&fresh) {
                println!(
                    "  ok {key}: {base} -> {now} (skipped: single-core host, speedup not meaningful)"
                );
            } else if now < SPEEDUP_FLOOR {
                diag::error(
                    "check_bench",
                    &format!(
                        "FAIL {key}: fresh {now} on a multi-core host (absolute floor {SPEEDUP_FLOOR}; committed baseline is single-core)"
                    ),
                );
                failed = true;
            } else {
                println!(
                    "  ok {key}: {base} -> {now} (absolute floor {SPEEDUP_FLOOR}; committed baseline is single-core)"
                );
            }
            continue;
        }
        let (bad, rule) = if key.contains("allocs") {
            (now > 1.2 * base + 0.01, "must stay within +20% (+0.01)")
        } else {
            (now < 0.8 * base, "must stay within -20%")
        };
        if bad {
            diag::error(
                "check_bench",
                &format!("FAIL {key}: committed {base}, fresh {now} ({rule})"),
            );
            failed = true;
        } else {
            println!("  ok {key}: {base} -> {now}");
        }
    }
    // The committed snapshot and the bench must agree on the field set in
    // both directions: a fresh-only key means the snapshot was never
    // re-measured after the bench grew a gate, leaving it silently ungated.
    for key in fresh.keys() {
        if !committed.contains_key(key) {
            diag::error(
                "check_bench",
                &format!("FAIL {key}: missing from committed snapshot (re-run the bench and commit the result)"),
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::from(diag::EXIT_FAILURE as u8)
    } else {
        println!("check_bench: no field regressed more than 20%");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::parse_snapshot;

    #[test]
    fn parses_the_engine_bench_shape() {
        let json = "{\n  \"engine_steps_per_sec_clean\": 7153396,\n  \"engine_allocs_per_slot\": 0.0012,\n  \"host_parallelism\": 1\n}\n";
        let map = parse_snapshot(json).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(map["host_parallelism"], 1.0);
        assert!((map["engine_allocs_per_slot"] - 0.0012).abs() < 1e-12);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_snapshot("[]").is_err());
        assert!(parse_snapshot("{\"k\": nope}").is_err());
        assert!(parse_snapshot("{}").is_err());
        assert!(parse_snapshot("{\"k\": 1, \"k\": 2}").is_err());
    }
}
