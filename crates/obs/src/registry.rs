//! Metrics registry: named counters, gauges and histograms collected via
//! [`MetricSink`], with Prometheus text exposition and JSON export.
//!
//! Producers across the workspace ([`tcw_window::metrics::Metrics`],
//! [`tcw_mac::ChannelStats`], [`tcw_mac::ChurnProcess`],
//! [`tcw_window::mirror::DivergenceDetector`]) push their state through
//! the push-style [`MetricSink`] trait; the registry stores one sample per
//! (metric, label set). A sweep snapshots one labeled registry per cell
//! and merges them in cell order with [`Registry::absorb`], so exported
//! files are byte-identical for any worker count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tcw_sim::record::push_quoted;
use tcw_sim::stats::{Histogram, MetricSink};

/// Version stamped into the JSON export as `"schema_version"`.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Metric families a registry can hold, mirroring the Prometheus types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Frozen histogram contents: cumulative bucket counts per upper bound,
/// plus the implicit `+Inf` bucket and an approximate sum.
#[derive(Clone, Debug)]
struct HistSnapshot {
    /// Upper bounds of the finite buckets, ascending.
    bounds: Vec<f64>,
    /// Cumulative counts: observations ≤ the matching bound (underflow
    /// observations are below every bound and count toward all of them).
    cumulative: Vec<u64>,
    /// Total observations (the `+Inf` bucket).
    total: u64,
    /// Approximate sum of observations (bin midpoints × counts).
    sum: f64,
}

#[derive(Clone, Debug)]
enum Value {
    Scalar(f64),
    Hist(HistSnapshot),
}

#[derive(Clone, Debug)]
struct Sample {
    /// Label pairs, in insertion order (already deterministic: label sets
    /// are built per cell from the sweep grid).
    labels: Vec<(String, String)>,
    value: Value,
}

#[derive(Clone, Debug)]
struct Metric {
    help: String,
    kind: MetricKind,
    samples: Vec<Sample>,
}

/// A named-metric registry implementing [`MetricSink`].
///
/// Metric names must match the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (asserted in debug builds). The first
/// registration of a name fixes its kind and help text; later samples for
/// the same name (other cells) append under their own label sets.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
    current_labels: Vec<(String, String)>,
}

impl Registry {
    /// Creates an empty registry with no ambient labels.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the label pairs attached to every subsequently recorded
    /// sample (e.g. the sweep-cell coordinates).
    pub fn set_labels(&mut self, labels: &[(&str, &str)]) {
        self.current_labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
    }

    /// Number of distinct metric names registered.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metrics have been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Appends all of `other`'s samples to this registry. Kind and help of
    /// an existing name are kept from the first registration. Call in cell
    /// order for deterministic exports.
    pub fn absorb(&mut self, other: &Registry) {
        for (name, metric) in &other.metrics {
            match self.metrics.get_mut(name) {
                Some(existing) => existing.samples.extend(metric.samples.iter().cloned()),
                None => {
                    self.metrics.insert(name.clone(), metric.clone());
                }
            }
        }
    }

    fn push(&mut self, name: &str, help: &str, kind: MetricKind, value: Value) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let metric = self.metrics.entry(name.to_string()).or_insert(Metric {
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        debug_assert_eq!(metric.kind, kind, "metric {name} re-registered as {kind:?}");
        metric.samples.push(Sample {
            labels: self.current_labels.clone(),
            value,
        });
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(out, "# HELP {name} {}", m.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", m.kind.as_str());
            for s in &m.samples {
                match &s.value {
                    Value::Scalar(v) => {
                        let _ = writeln!(out, "{name}{} {}", fmt_labels(&s.labels), fmt_f64(*v));
                    }
                    Value::Hist(h) => {
                        for (bound, cum) in h.bounds.iter().zip(&h.cumulative) {
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                fmt_labels_with(&s.labels, "le", &fmt_f64(*bound))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            fmt_labels_with(&s.labels, "le", "+Inf"),
                            h.total
                        );
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            fmt_labels(&s.labels),
                            fmt_f64(h.sum)
                        );
                        let _ = writeln!(out, "{name}_count{} {}", fmt_labels(&s.labels), h.total);
                    }
                }
            }
        }
        out
    }

    /// Renders the registry as a single JSON document (schema_version 1):
    /// `{"schema_version":1,"metrics":{name:{"help","kind","samples":[...]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\":{METRICS_SCHEMA_VERSION},\"metrics\":{{"
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_quoted(&mut out, name);
            out.push_str(":{\"help\":");
            push_quoted(&mut out, &m.help);
            let _ = write!(out, ",\"kind\":\"{}\",\"samples\":[", m.kind.as_str());
            for (j, s) in m.samples.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (k, (lk, lv)) in s.labels.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    push_quoted(&mut out, lk);
                    out.push(':');
                    push_quoted(&mut out, lv);
                }
                out.push('}');
                match &s.value {
                    Value::Scalar(v) => {
                        let _ = write!(out, ",\"value\":{}", fmt_f64(*v));
                    }
                    Value::Hist(h) => {
                        out.push_str(",\"bounds\":[");
                        for (k, b) in h.bounds.iter().enumerate() {
                            if k > 0 {
                                out.push(',');
                            }
                            out.push_str(&fmt_f64(*b));
                        }
                        out.push_str("],\"cumulative\":[");
                        for (k, c) in h.cumulative.iter().enumerate() {
                            if k > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{c}");
                        }
                        let _ = write!(out, "],\"count\":{},\"sum\":{}", h.total, fmt_f64(h.sum));
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

impl MetricSink for Registry {
    fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.push(name, help, MetricKind::Counter, Value::Scalar(value as f64));
    }

    fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.push(name, help, MetricKind::Gauge, Value::Scalar(value));
    }

    fn histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        let bins = h.bins();
        let mut bounds = Vec::with_capacity(bins);
        let mut cumulative = Vec::with_capacity(bins);
        // Underflow observations lie below every finite bound, so they are
        // included in each cumulative bucket; overflow only reaches +Inf.
        let mut cum = h.underflow();
        let mut sum = 0.0;
        for i in 0..bins {
            let (lo, hi) = h.bin_bounds(i);
            let n = h.bin_count(i);
            cum += n;
            bounds.push(hi);
            cumulative.push(cum);
            sum += n as f64 * 0.5 * (lo + hi);
        }
        self.push(
            name,
            help,
            MetricKind::Histogram,
            Value::Hist(HistSnapshot {
                bounds,
                cumulative,
                total: h.count(),
                sum,
            }),
        );
    }
}

/// Whether `name` matches the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Deterministic float formatting: integral values print without a
/// fractional part, everything else uses Rust's shortest round-trip form.
pub fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

fn fmt_labels_with(labels: &[(String, String)], extra_key: &str, extra_val: &str) -> String {
    let mut out = String::from("{");
    for (k, v) in labels {
        let _ = write!(out, "{k}=\"{}\",", escape_label(v));
    }
    let _ = write!(out, "{extra_key}=\"{}\"", escape_label(extra_val));
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcw_sim::stats::Tally;

    #[test]
    fn prometheus_scalar_exposition() {
        let mut r = Registry::new();
        r.set_labels(&[("panel", "a"), ("k", "100")]);
        r.counter("tcw_test_total", "a test counter", 7);
        r.gauge("tcw_test_ratio", "a test gauge", 0.25);
        let text = r.to_prometheus();
        assert!(
            text.contains("# HELP tcw_test_total a test counter"),
            "{text}"
        );
        assert!(text.contains("# TYPE tcw_test_total counter"), "{text}");
        assert!(
            text.contains("tcw_test_total{panel=\"a\",k=\"100\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("tcw_test_ratio{panel=\"a\",k=\"100\"} 0.25"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_histogram_exposition() {
        let mut r = Registry::new();
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(1.0); // bin 0
        h.record(7.0); // bin 1
        h.record(99.0); // overflow
        r.histogram("tcw_test_hist", "a test histogram", &h);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE tcw_test_hist histogram"), "{text}");
        assert!(text.contains("tcw_test_hist_bucket{le=\"5\"} 1"), "{text}");
        assert!(text.contains("tcw_test_hist_bucket{le=\"10\"} 2"), "{text}");
        assert!(
            text.contains("tcw_test_hist_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("tcw_test_hist_count 3"), "{text}");
    }

    #[test]
    fn tally_decomposes_through_sink() {
        let mut r = Registry::new();
        let mut t = Tally::new();
        t.record(2.0);
        t.record(4.0);
        r.tally("tcw_test_delay", "delays", &t);
        let text = r.to_prometheus();
        assert!(text.contains("tcw_test_delay_count 2"), "{text}");
        assert!(text.contains("tcw_test_delay_mean 3"), "{text}");
    }

    #[test]
    fn absorb_appends_samples_in_order() {
        let mut a = Registry::new();
        a.set_labels(&[("cell", "0")]);
        a.counter("tcw_test_total", "c", 1);
        let mut b = Registry::new();
        b.set_labels(&[("cell", "1")]);
        b.counter("tcw_test_total", "c", 2);
        let mut merged = Registry::new();
        merged.absorb(&a);
        merged.absorb(&b);
        let text = merged.to_prometheus();
        let i0 = text.find("cell=\"0\"").unwrap();
        let i1 = text.find("cell=\"1\"").unwrap();
        assert!(i0 < i1, "{text}");
    }

    #[test]
    fn json_export_is_flat_and_versioned() {
        let mut r = Registry::new();
        r.set_labels(&[("seed", "11")]);
        r.counter("tcw_test_total", "c", 3);
        let j = r.to_json();
        assert!(j.starts_with("{\"schema_version\":1,"), "{j}");
        assert!(j.contains("\"tcw_test_total\""), "{j}");
        assert!(j.contains("\"labels\":{\"seed\":\"11\"}"), "{j}");
        assert!(j.contains("\"value\":3"), "{j}");
    }

    #[test]
    fn metric_name_grammar() {
        assert!(valid_metric_name("tcw_engine_messages_total"));
        assert!(valid_metric_name(":ns:metric"));
        assert!(!valid_metric_name("9starts_with_digit"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn float_formatting_is_integral_when_exact() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-2.0), "-2");
    }
}
