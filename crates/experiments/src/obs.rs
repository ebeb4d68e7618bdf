//! Observability glue for the experiment binaries: the shared
//! `--trace-events` / `--spans` / `--metrics` / `--progress` flags (parsed
//! by [`crate::diag::parse`] into an [`ObsConfig`]), per-cell telemetry
//! capture, and deterministic artifact assembly.
//!
//! Each sweep cell produces its telemetry into cell-local buffers (an
//! NDJSON fragment from an [`EventTracer`], a lifecycle-span fragment
//! from a [`SpanTracer`], a labeled [`Registry`]);
//! [`write_observability`] then concatenates/merges them **in cell
//! order**, so exported artifacts are byte-identical for any `--jobs N`.
//! Only the stderr progress line (enabled by `--progress`) is wall-clock
//! dependent, and it never reaches an artifact.

use std::path::{Path, PathBuf};

use crate::runner::{CellResult, RunSpec};
use tcw_obs::{EventTracer, Progress, Registry, SpanTracer};
use tcw_window::trace::{NoopObserver, Tee};

/// Parsed observability flags, shared by all experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// `--trace-events PATH`: write the NDJSON event stream here.
    pub trace_events: Option<PathBuf>,
    /// `--spans PATH`: write the NDJSON lifecycle-span stream here
    /// (conventionally `*.spans.ndjson`, which `obs_lint` dispatches on).
    pub spans: Option<PathBuf>,
    /// `--metrics PATH`: write the metrics snapshot here (`.prom` selects
    /// the Prometheus text exposition format, anything else JSON).
    pub metrics: Option<PathBuf>,
    /// `--progress`: render a live progress line on stderr.
    pub progress: bool,
}

/// Which telemetry streams to capture while running one cell. Derived
/// from [`ObsConfig::capture`]; [`Capture::OFF`] disables everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct Capture {
    /// Record the protocol event stream (forces the slot-stepped path).
    pub tracing: bool,
    /// Register run metrics (including the `tcw_aoi_*` families).
    pub metrics: bool,
    /// Record the message-lifecycle span stream (fast-path compatible).
    pub spans: bool,
}

impl Capture {
    /// Capture nothing.
    pub const OFF: Capture = Capture {
        tracing: false,
        metrics: false,
        spans: false,
    };

    /// Whether any stream is being captured.
    pub fn any(&self) -> bool {
        self.tracing || self.metrics || self.spans
    }
}

impl ObsConfig {
    /// Whether any per-cell telemetry (tracing, spans or metrics) is
    /// requested.
    pub fn wants_telemetry(&self) -> bool {
        self.trace_events.is_some() || self.spans.is_some() || self.metrics.is_some()
    }

    /// The per-cell capture selection these flags imply.
    pub fn capture(&self) -> Capture {
        Capture {
            tracing: self.trace_events.is_some(),
            metrics: self.metrics.is_some(),
            spans: self.spans.is_some(),
        }
    }
}

/// Telemetry captured while running one sweep cell.
#[derive(Debug, Default)]
pub struct CellArtifacts {
    /// NDJSON event fragment (starts with the cell header line).
    pub trace: Option<String>,
    /// NDJSON lifecycle-span fragment (starts with the cell header line).
    pub spans: Option<String>,
    /// Cell-labeled metrics registry.
    pub registry: Option<Registry>,
}

/// Runs one spec with telemetry capture: when `caps.tracing` or
/// `caps.spans`, the protocol event stream / message-lifecycle span
/// stream is recorded under a `cell` header carrying `cell_index` and
/// `label`; when `caps.metrics`, the run's metrics register into a fresh
/// [`Registry`] under `labels`. With `progress`, the run's event-horizon
/// counters feed the live line's `[hzn: ...]` segment.
///
/// The result is bit-identical to [`RunSpec::run`] — observers are passive
/// and never touch an RNG stream. Span capture alone keeps the
/// event-horizon fast path on; event tracing forces slot stepping.
pub fn observed_cell(
    caps: Capture,
    cell_index: usize,
    label: &str,
    labels: &[(&str, &str)],
    spec: &RunSpec,
    progress: Option<&Progress>,
) -> (CellResult, CellArtifacts) {
    let (result, artifacts) = observe_engine_cell(caps, cell_index, label, labels, |obs, sink| {
        spec.run_observed(obs, sink)
    });
    if let Some(p) = progress {
        let h = result.horizon;
        p.note_horizon(h.jumps, h.slots_skipped, h.batched_runs, h.batched_slots);
    }
    (result, artifacts)
}

/// Runs an arbitrary engine-driving closure with the same per-cell
/// telemetry capture as [`observed_cell`], for runs that wrap a spec in
/// observers of their own (the chaos harness) or build their engines
/// directly (the ablations). The closure receives
/// the observer to thread through `Engine::run_until`/`drain` and, when
/// metrics are on, the sink to `emit` counters into after the run.
pub fn observe_engine_cell<T>(
    caps: Capture,
    cell_index: usize,
    label: &str,
    labels: &[(&str, &str)],
    run: impl FnOnce(
        &mut dyn tcw_window::trace::EngineObserver,
        Option<&mut dyn tcw_sim::stats::MetricSink>,
    ) -> T,
) -> (T, CellArtifacts) {
    let mut tracer = EventTracer::new();
    let mut span_tracer = SpanTracer::new();
    let mut registry = Registry::new();
    if caps.tracing {
        tracer.begin_cell(cell_index, label);
    }
    if caps.spans {
        span_tracer.begin_cell(cell_index, label);
    }
    if caps.metrics {
        registry.set_labels(labels);
    }
    let mut noop = NoopObserver;
    let value = {
        let sink: Option<&mut dyn tcw_sim::stats::MetricSink> = if caps.metrics {
            Some(&mut registry)
        } else {
            None
        };
        match (caps.tracing, caps.spans) {
            (true, true) => {
                let mut tee = Tee {
                    a: &mut tracer,
                    b: &mut span_tracer,
                };
                run(&mut tee, sink)
            }
            (true, false) => run(&mut tracer, sink),
            (false, true) => run(&mut span_tracer, sink),
            (false, false) => run(&mut noop, sink),
        }
    };
    (
        value,
        CellArtifacts {
            trace: caps.tracing.then(|| tracer.finish()),
            spans: caps.spans.then(|| span_tracer.finish()),
            registry: caps.metrics.then_some(registry),
        },
    )
}

/// Assembles per-cell telemetry into the files `cfg` requests: traces are
/// concatenated and registries merged **in cell order**, making both
/// artifacts byte-identical for any worker count. The merged registry
/// additionally carries the executor's own `tcw_sweep_cells` gauge: the
/// number of cells, one artifact each.
///
/// Metrics format is chosen by extension: `.prom` writes the Prometheus
/// text exposition format, anything else the JSON export. Every file is
/// written atomically ([`tcw_sim::record::write_atomic`]).
pub fn write_observability(cfg: &ObsConfig, artifacts: &[CellArtifacts]) -> Result<(), String> {
    let write = |path: &Path, text: &str| {
        tcw_sim::record::write_atomic(path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    if let Some(path) = &cfg.trace_events {
        let mut text = String::new();
        for a in artifacts {
            if let Some(t) = &a.trace {
                text.push_str(t);
            }
        }
        write(path, &text)?;
    }
    if let Some(path) = &cfg.spans {
        let mut text = String::new();
        for a in artifacts {
            if let Some(t) = &a.spans {
                text.push_str(t);
            }
        }
        write(path, &text)?;
    }
    if let Some(path) = &cfg.metrics {
        let mut merged = Registry::new();
        for a in artifacts {
            if let Some(r) = &a.registry {
                merged.absorb(r);
            }
        }
        use tcw_sim::stats::MetricSink as _;
        merged.set_labels(&[]);
        merged.gauge(
            "tcw_sweep_cells",
            "cells in the sweep grid",
            artifacts.len() as f64,
        );
        let text = if path.extension().is_some_and(|e| e == "prom") {
            merged.to_prometheus()
        } else {
            merged.to_json()
        };
        write(path, &text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{PolicyKind, SimSettings};

    #[test]
    fn spans_alone_count_as_telemetry() {
        let cfg = ObsConfig {
            spans: Some(PathBuf::from("s.spans.ndjson")),
            ..ObsConfig::default()
        };
        assert!(cfg.wants_telemetry());
        let caps = cfg.capture();
        assert!(caps.spans && !caps.tracing && !caps.metrics && caps.any());
        assert!(!Capture::OFF.any());
    }

    #[test]
    fn no_flags_is_disabled() {
        let cfg = ObsConfig::default();
        assert!(!cfg.wants_telemetry());
        assert!(!cfg.progress);
        assert!(!cfg.capture().any());
    }

    #[test]
    fn observed_cell_matches_plain_run_and_captures_artifacts() {
        let panel = crate::panels::PANELS[0];
        let settings = SimSettings {
            messages: 500,
            warmup: 50,
            ticks_per_tau: 8,
            stations: 20,
            guard: false,
        };
        let cell = RunSpec::panel(panel, PolicyKind::Controlled, 100.0, settings, 7);
        let plain = cell.run();
        let (observed, art) = observed_cell(
            Capture {
                tracing: true,
                metrics: true,
                spans: true,
            },
            0,
            "test cell",
            &[("seed", "7")],
            &cell,
            None,
        );
        assert_eq!(plain.point.loss.to_bits(), observed.point.loss.to_bits());
        assert_eq!(plain.point.offered, observed.point.offered);
        let trace = art.trace.expect("trace captured");
        assert!(trace.starts_with("{\"schema_version\":1,\"ev\":\"cell\""));
        assert!(tcw_obs::lint::lint_events(&trace).is_ok());
        let spans = art.spans.expect("spans captured");
        assert!(spans.starts_with("{\"schema_version\":1,\"ev\":\"cell\""));
        assert!(tcw_obs::lint::lint_spans(&spans).is_ok());
        let reg = art.registry.expect("registry captured");
        let prom = reg.to_prometheus();
        assert!(tcw_obs::lint::lint_prom(&prom).is_ok());
        assert!(prom.contains("tcw_aoi_deliveries_total"), "{prom}");
    }

    #[test]
    fn spans_only_capture_matches_plain_run() {
        let panel = crate::panels::PANELS[0];
        let settings = SimSettings {
            messages: 500,
            warmup: 50,
            ticks_per_tau: 8,
            stations: 20,
            guard: false,
        };
        let cell = RunSpec::panel(panel, PolicyKind::Controlled, 100.0, settings, 11);
        let plain = cell.run();
        let (observed, art) = observed_cell(
            Capture {
                spans: true,
                ..Capture::OFF
            },
            3,
            "spans only",
            &[],
            &cell,
            None,
        );
        assert_eq!(plain.point.loss.to_bits(), observed.point.loss.to_bits());
        assert_eq!(plain.point.offered, observed.point.offered);
        assert!(art.trace.is_none());
        assert!(art.registry.is_none());
        let spans = art.spans.expect("spans captured");
        let stats = tcw_obs::lint::lint_spans(&spans).unwrap();
        assert!(stats.spans > 0);
        assert!(tcw_obs::report::parse_spans(&spans).is_ok());
    }
}
