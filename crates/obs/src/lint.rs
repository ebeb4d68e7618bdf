//! Validators for the artifacts this crate exports: the NDJSON event
//! schema ([`lint_events`]), the lifecycle-span schema ([`lint_spans`])
//! and the Prometheus text exposition format ([`lint_prom`]). The
//! `obs_lint` binary wraps all three for CI.

use std::collections::BTreeMap;

use tcw_sim::record::Record;

use crate::event::SCHEMA_VERSION;
use crate::registry::valid_metric_name;

/// Summary of a validated NDJSON event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Total lines.
    pub lines: usize,
    /// `cell` header lines.
    pub cells: usize,
    /// Event lines (everything but headers).
    pub events: usize,
}

/// Parses one NDJSON line as a flat record and checks what every line
/// carries: `schema_version` == [`SCHEMA_VERSION`], a string `ev`, and
/// for a `cell` header its `cell` index and `label`.
pub(crate) fn parse_line(line: &str) -> Result<Record, String> {
    let rec = Record::parse(line)?;
    let v = rec.u64("schema_version")?;
    if v != u64::from(SCHEMA_VERSION) {
        return Err(format!("schema_version {v} != {SCHEMA_VERSION}"));
    }
    if rec.str("ev")? == "cell" {
        rec.u64("cell")?;
        rec.str("label")?;
    }
    Ok(rec)
}

/// Validates an NDJSON event stream against the schema documented at the
/// crate root: every line parses as a flat JSON object, carries
/// `schema_version` == [`SCHEMA_VERSION`] and a string `ev`; event lines
/// carry `seq` (dense from 0 per cell), `slot` and `t` (both
/// non-decreasing per cell).
pub fn lint_events(text: &str) -> Result<EventStats, String> {
    let mut stats = EventStats::default();
    let mut expected_seq: u64 = 0;
    let mut last_slot: u64 = 0;
    let mut last_t: u64 = 0;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        stats.lines += 1;
        let at = |e: String| format!("line {n}: {e}");
        let fields = parse_line(line).map_err(at)?;
        if fields.str("ev").map_err(at)? == "cell" {
            stats.cells += 1;
            expected_seq = 0;
            last_slot = 0;
            last_t = 0;
            continue;
        }
        stats.events += 1;
        let seq = fields.u64("seq").map_err(at)?;
        if seq != expected_seq {
            return Err(format!("line {n}: seq {seq}, expected {expected_seq}"));
        }
        expected_seq += 1;
        let slot = fields.u64("slot").map_err(at)?;
        if slot < last_slot {
            return Err(format!("line {n}: slot {slot} < previous {last_slot}"));
        }
        last_slot = slot;
        let t = fields.u64("t").map_err(at)?;
        if t < last_t {
            return Err(format!("line {n}: t {t} < previous {last_t}"));
        }
        last_t = t;
    }
    Ok(stats)
}

/// Summary of a validated NDJSON lifecycle-span stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Total lines.
    pub lines: usize,
    /// `cell` header lines.
    pub cells: usize,
    /// Completed spans (`span_open` balanced by `span_close`).
    pub spans: usize,
}

/// Validates an NDJSON lifecycle-span stream against the span schema
/// documented at the crate root: every line parses flat, carries
/// `schema_version` == [`SCHEMA_VERSION`] and a string `ev`; span lines
/// carry `seq` (dense from 0 per cell) and `t` (non-decreasing per cell);
/// within a cell each `msg` opens exactly once, interior
/// `span_window`/`span_collision` lines fall strictly between its open
/// and close, every open is balanced by exactly one `span_close` with a
/// valid `outcome` (and a `cause` when dropped), and no message id is
/// reused after closing.
pub fn lint_spans(text: &str) -> Result<SpanStats, String> {
    use std::collections::BTreeSet;
    let mut stats = SpanStats::default();
    let mut expected_seq: u64 = 0;
    let mut last_t: u64 = 0;
    let mut open: BTreeSet<u64> = BTreeSet::new();
    let mut closed: BTreeSet<u64> = BTreeSet::new();
    let cell_end = |open: &mut BTreeSet<u64>, closed: &mut BTreeSet<u64>| -> Result<(), String> {
        if let Some(msg) = open.iter().next() {
            return Err(format!(
                "cell ended with {} unbalanced span(s), e.g. msg {msg}",
                open.len()
            ));
        }
        open.clear();
        closed.clear();
        Ok(())
    };
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        stats.lines += 1;
        let at = |e: String| format!("line {n}: {e}");
        let fields = parse_line(line).map_err(at)?;
        let ev = fields.str("ev").map_err(at)?;
        if ev == "cell" {
            cell_end(&mut open, &mut closed).map_err(|e| format!("line {n}: {e}"))?;
            stats.cells += 1;
            expected_seq = 0;
            last_t = 0;
            continue;
        }
        let seq = fields.u64("seq").map_err(at)?;
        if seq != expected_seq {
            return Err(format!("line {n}: seq {seq}, expected {expected_seq}"));
        }
        expected_seq += 1;
        let t = fields.u64("t").map_err(at)?;
        if t < last_t {
            return Err(format!("line {n}: t {t} < previous {last_t}"));
        }
        last_t = t;
        let msg = fields.u64("msg").map_err(at)?;
        match ev {
            "span_open" => {
                if fields.u64("station").is_err() || fields.u64("arrival").is_err() {
                    return Err(format!("line {n}: span_open missing station/arrival"));
                }
                if open.contains(&msg) || closed.contains(&msg) {
                    return Err(format!("line {n}: msg {msg} opened twice"));
                }
                open.insert(msg);
            }
            "span_window" | "span_collision" => {
                if !open.contains(&msg) {
                    return Err(format!("line {n}: {ev} for msg {msg} outside its span"));
                }
            }
            "span_close" => {
                if !open.remove(&msg) {
                    return Err(format!("line {n}: span_close for msg {msg} without open"));
                }
                closed.insert(msg);
                stats.spans += 1;
                let outcome = fields
                    .str("outcome")
                    .map_err(|e| at(format!("span_close: {e}")))?;
                match outcome {
                    "delivered" => {
                        if fields.u64("true_delay").is_err() {
                            return Err(format!("line {n}: delivered close missing true_delay"));
                        }
                    }
                    "discarded" => {}
                    "dropped" => match fields.str("cause") {
                        Ok("station_left" | "rejoin_expired") => {}
                        _ => return Err(format!("line {n}: dropped close missing valid cause")),
                    },
                    other => return Err(format!("line {n}: unknown outcome {other:?}")),
                }
            }
            other => return Err(format!("line {n}: unknown span event {other:?}")),
        }
    }
    cell_end(&mut open, &mut closed).map_err(|e| format!("end of stream: {e}"))?;
    Ok(stats)
}

/// Summary of a validated Prometheus exposition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PromStats {
    /// Metric families declared with `# TYPE`.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

/// Minimal linter for the Prometheus text exposition format: every `TYPE`
/// names a known kind, every sample references a declared family (with
/// `_bucket`/`_sum`/`_count` suffixes allowed for histograms), metric
/// names match the Prometheus grammar and values parse as floats.
pub fn lint_prom(text: &str) -> Result<PromStats, String> {
    lint_prom_families(text).map(|(stats, _)| stats)
}

/// [`lint_prom`] variant that also returns the declared family names, so
/// callers can assert that required metrics (e.g. the engine's
/// `tcw_horizon_*` fast-path counters) are actually present in an
/// exposition.
pub fn lint_prom_families(text: &str) -> Result<(PromStats, Vec<String>), String> {
    let mut stats = PromStats::default();
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown TYPE {kind:?}"));
            }
            families.insert(name.to_string(), kind.to_string());
            stats.families += 1;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // arbitrary comment
        }
        // Sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).ok_or(format!("line {n}: no value"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {n}: invalid metric name {name:?}"));
        }
        let after = &line[name_end..];
        let value_str = if let Some(rest) = after.strip_prefix('{') {
            let close = rest.find('}').ok_or(format!("line {n}: unclosed labels"))?;
            lint_labels(&rest[..close]).map_err(|e| format!("line {n}: {e}"))?;
            rest[close + 1..].trim()
        } else {
            after.trim()
        };
        if value_str.parse::<f64>().is_err() {
            return Err(format!("line {n}: unparseable value {value_str:?}"));
        }
        let family_known = families.contains_key(name)
            || [
                ("_bucket", "histogram"),
                ("_sum", "histogram"),
                ("_count", "histogram"),
            ]
            .iter()
            .any(|(suffix, kind)| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| families.get(base).map(String::as_str) == Some(*kind))
            });
        if !family_known {
            return Err(format!("line {n}: sample {name:?} has no TYPE declaration"));
        }
        stats.samples += 1;
    }
    Ok((stats, families.into_keys().collect()))
}

/// Validates a `key="value",...` label body.
fn lint_labels(body: &str) -> Result<(), String> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value not quoted")?;
        // Find the closing quote, skipping escapes.
        let mut close = None;
        let mut prev_backslash = false;
        for (i, c) in rest.char_indices() {
            if prev_backslash {
                prev_backslash = false;
            } else if c == '\\' {
                prev_backslash = true;
            } else if c == '"' {
                close = Some(i);
                break;
            }
        }
        let close = close.ok_or("unterminated label value")?;
        rest = &rest[close + 1..];
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None if rest.is_empty() => break,
            None => return Err("missing ',' between labels".to_string()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventTracer;
    use crate::registry::Registry;
    use tcw_sim::stats::{Histogram, MetricSink};
    use tcw_sim::time::{Dur, Time};
    use tcw_window::trace::EngineObserver;

    #[test]
    fn tracer_output_passes_lint() {
        let mut tr = EventTracer::new();
        tr.begin_cell(0, "cell \"zero\"");
        tr.on_decision(Time::from_ticks(0), None);
        tr.on_probe(
            Time::from_ticks(64),
            &[],
            &tcw_mac::SlotOutcome::Idle,
            Dur::from_ticks(64),
        );
        tr.begin_cell(1, "one");
        tr.on_round_abandoned(Time::from_ticks(3));
        let stats = lint_events(&tr.finish()).unwrap();
        assert_eq!(
            stats,
            EventStats {
                lines: 5,
                cells: 2,
                events: 3
            }
        );
    }

    #[test]
    fn lint_rejects_bad_streams() {
        assert!(lint_events("not json\n").is_err());
        assert!(lint_events("{\"ev\":\"decision\"}\n").is_err()); // no version
        assert!(
            lint_events("{\"schema_version\":99,\"ev\":\"x\",\"seq\":0,\"slot\":0,\"t\":0}\n")
                .is_err()
        );
        // slot decreases
        let bad = concat!(
            "{\"schema_version\":1,\"seq\":0,\"slot\":5,\"t\":0,\"ev\":\"a\"}\n",
            "{\"schema_version\":1,\"seq\":1,\"slot\":4,\"t\":1,\"ev\":\"a\"}\n",
        );
        let err = lint_events(bad).unwrap_err();
        assert!(err.contains("slot 4"), "{err}");
        // t decreases
        let bad = concat!(
            "{\"schema_version\":1,\"seq\":0,\"slot\":0,\"t\":9,\"ev\":\"a\"}\n",
            "{\"schema_version\":1,\"seq\":1,\"slot\":0,\"t\":3,\"ev\":\"a\"}\n",
        );
        assert!(lint_events(bad).is_err());
        // seq gap
        let bad = "{\"schema_version\":1,\"seq\":1,\"slot\":0,\"t\":0,\"ev\":\"a\"}\n";
        assert!(lint_events(bad).is_err());
    }

    #[test]
    fn registry_exposition_passes_lint() {
        let mut r = Registry::new();
        r.set_labels(&[("panel", "rho'=0.50 M=25"), ("seed", "42")]);
        r.counter("tcw_test_total", "counts", 3);
        r.gauge("tcw_test_util", "gauge", 0.5);
        let mut h = Histogram::new(0.0, 100.0, 4);
        h.record(3.0);
        h.record(250.0);
        r.histogram("tcw_test_delay", "delays", &h);
        let stats = lint_prom(&r.to_prometheus()).unwrap();
        assert_eq!(stats.families, 3);
        // 2 scalars + 4 finite buckets + Inf bucket + sum + count
        assert_eq!(stats.samples, 9);
    }

    #[test]
    fn prom_lint_rejects_malformed_expositions() {
        assert!(lint_prom("# TYPE bad-name counter\n").is_err());
        assert!(lint_prom("# TYPE m mystery\n").is_err());
        assert!(lint_prom("orphan_sample 1\n").is_err());
        assert!(lint_prom("# TYPE m counter\nm not_a_number\n").is_err());
        assert!(lint_prom("# TYPE m counter\nm{l=\"unterminated} 1\n").is_err());
        let ok = "# HELP m help text\n# TYPE m counter\nm{a=\"x\",b=\"y\"} 4\n";
        assert_eq!(
            lint_prom(ok).unwrap(),
            PromStats {
                families: 1,
                samples: 1
            }
        );
    }

    #[test]
    fn span_tracer_output_passes_span_lint() {
        use crate::span::SpanTracer;
        use tcw_mac::{Message, MessageId, StationId};
        use tcw_window::trace::DropCause;
        let mut tr = SpanTracer::new();
        tr.begin_cell(0, "cell \"zero\"");
        let m1 = Message::new(MessageId(1), StationId(0), Time::from_ticks(2));
        let m2 = Message::new(MessageId(2), StationId(1), Time::from_ticks(3));
        tr.on_arrival(&m1, Time::from_ticks(4));
        tr.on_arrival(&m2, Time::from_ticks(4));
        tr.on_window_member(&m1, Time::from_ticks(5));
        tr.on_collision_member(&m1, Time::from_ticks(5));
        tr.on_transmit(
            &m1,
            Time::from_ticks(6),
            Dur::from_ticks(4),
            Dur::from_ticks(4),
        );
        tr.on_message_drop(&m2, Time::from_ticks(7), DropCause::StationLeft);
        tr.begin_cell(1, "one");
        let m3 = Message::new(MessageId(3), StationId(2), Time::from_ticks(0));
        tr.on_arrival(&m3, Time::from_ticks(1));
        tr.on_sender_discard(&m3, Time::from_ticks(9));
        let stats = lint_spans(&tr.finish()).unwrap();
        assert_eq!(
            stats,
            SpanStats {
                lines: 10,
                cells: 2,
                spans: 3
            }
        );
    }

    #[test]
    fn span_lint_rejects_unbalanced_and_misordered_streams() {
        // Unbalanced at end of stream.
        let open_only =
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n";
        let err = lint_spans(open_only).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");
        // Interior event outside its span.
        let stray =
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_window\",\"msg\":7,\"age\":1}\n";
        let err = lint_spans(stray).unwrap_err();
        assert!(err.contains("outside its span"), "{err}");
        // Close without open.
        let close =
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_close\",\"outcome\":\"discarded\",\"msg\":7,\"station\":0,\"age\":1}\n";
        assert!(lint_spans(close).is_err());
        // Double open.
        let double = concat!(
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n",
            "{\"schema_version\":1,\"seq\":1,\"t\":2,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n",
        );
        let err = lint_spans(double).unwrap_err();
        assert!(err.contains("opened twice"), "{err}");
        // t decreases within a cell.
        let nonmono = concat!(
            "{\"schema_version\":1,\"seq\":0,\"t\":9,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n",
            "{\"schema_version\":1,\"seq\":1,\"t\":3,\"ev\":\"span_close\",\"outcome\":\"discarded\",\"msg\":1,\"station\":0,\"age\":1}\n",
        );
        assert!(lint_spans(nonmono).is_err());
        // Dropped close without a valid cause.
        let nocause = concat!(
            "{\"schema_version\":1,\"seq\":0,\"t\":1,\"ev\":\"span_open\",\"msg\":1,\"station\":0,\"arrival\":0}\n",
            "{\"schema_version\":1,\"seq\":1,\"t\":2,\"ev\":\"span_close\",\"outcome\":\"dropped\",\"msg\":1,\"station\":0,\"age\":1}\n",
        );
        assert!(lint_spans(nocause).is_err());
    }

    #[test]
    fn flat_parser_handles_escapes_and_rejects_junk() {
        let header = r#"{"schema_version":1,"ev":"cell","cell":0,"label":"x\"y\u0001"}"#;
        let f = parse_line(header).unwrap();
        assert_eq!(f.str("label").unwrap(), "x\"y\u{1}");
        assert_eq!(lint_events(&format!("{header}\n")).unwrap().cells, 1);
        let ok = r#"{"schema_version":1,"seq":0,"slot":0,"t":0,"ev":"a""#;
        for junk in [",\"b\":}", " \"b\":2}", ",\"ev\":\"b\"}", "} x"] {
            let e = lint_events(&format!("{ok}{junk}\n")).unwrap_err();
            assert!(e.starts_with("line 1: "), "{e}");
        }
        let e = parse_line(r#"{"schema_version":1,"ev":"cell","cell":0}"#).unwrap_err();
        assert!(e.contains("label"), "{e}");
    }
}
