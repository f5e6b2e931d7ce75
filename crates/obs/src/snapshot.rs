//! Point-in-time captures of a registry, and their stable renderings.

use std::fmt::Write as _;

use crate::json::json_string;
use crate::metrics::Unit;

/// How a snapshot renders (see the crate-level determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Suppress wall-clock-derived values: [`Unit::Nanos`] histograms
    /// render only their observation count. Byte-for-byte reproducible
    /// under a fixed PRNG seed.
    Deterministic,
    /// Render everything, including nanosecond sums, bucket layouts, and
    /// quantile estimates.
    Full,
}

/// The captured value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    Counter(u64),
    Gauge(i64),
    Histogram {
        unit: Unit,
        count: u64,
        sum: u64,
        /// Non-empty `(bucket_index, count)` pairs, ascending.
        buckets: Vec<(usize, u64)>,
        p50: Option<u64>,
        p90: Option<u64>,
        p99: Option<u64>,
    },
}

/// One named metric inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    pub name: String,
    pub value: SnapshotValue,
}

/// Every metric of a registry at one instant, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// The captured counter value, `None` when `name` is not a counter in
    /// this snapshot. The assertable-oracle accessor tests lean on.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| match e.value {
            SnapshotValue::Counter(v) => Some(v),
            _ => None,
        })
    }

    /// The captured gauge value, `None` when `name` is not a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| match e.value {
            SnapshotValue::Gauge(v) => Some(v),
            _ => None,
        })
    }

    /// The captured observation count of a histogram, `None` when `name`
    /// is not a histogram.
    pub fn histogram_count(&self, name: &str) -> Option<u64> {
        self.entries.iter().find(|e| e.name == name).and_then(|e| match e.value {
            SnapshotValue::Histogram { count, .. } => Some(count),
            _ => None,
        })
    }

    /// Render as sorted `name<TAB>kind<TAB>fields` lines, one per metric.
    pub fn render_text(&self, mode: Mode) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{}\tcounter\t{v}", e.name);
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{}\tgauge\t{v}", e.name);
                }
                SnapshotValue::Histogram {
                    unit,
                    count,
                    sum,
                    buckets,
                    p50,
                    p90,
                    p99,
                } => {
                    if *unit == Unit::Nanos && mode == Mode::Deterministic {
                        let _ = writeln!(out, "{}\ttimer\tcount={count}", e.name);
                    } else {
                        let _ = write!(out, "{}\thistogram\tcount={count} sum={sum}", e.name);
                        for (q, v) in [("p50", p50), ("p90", p90), ("p99", p99)] {
                            if let Some(v) = v {
                                let _ = write!(out, " {q}={v}");
                            }
                        }
                        let _ = write!(out, " buckets=");
                        for (i, (bucket, n)) in buckets.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{bucket}:{n}");
                        }
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Render as one JSON object keyed by metric name. Keys are emitted
    /// in sorted order and no map iteration is involved, so the document
    /// is stable: the same snapshot always renders the same bytes.
    pub fn render_json(&self, mode: Mode) -> String {
        let mut out = String::from("{\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(out, "  {}: ", json_string(&e.name));
            match &e.value {
                SnapshotValue::Counter(v) => {
                    let _ = write!(out, "{{\"kind\":\"counter\",\"value\":{v}}}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = write!(out, "{{\"kind\":\"gauge\",\"value\":{v}}}");
                }
                SnapshotValue::Histogram {
                    unit,
                    count,
                    sum,
                    buckets,
                    p50,
                    p90,
                    p99,
                } => {
                    let kind = match unit {
                        Unit::Count => "histogram",
                        Unit::Nanos => "timer",
                    };
                    if *unit == Unit::Nanos && mode == Mode::Deterministic {
                        let _ = write!(out, "{{\"kind\":{},\"count\":{count}}}", json_string(kind));
                    } else {
                        let _ = write!(
                            out,
                            "{{\"kind\":{},\"count\":{count},\"sum\":{sum}",
                            json_string(kind)
                        );
                        for (q, v) in [("p50", p50), ("p90", p90), ("p99", p99)] {
                            if let Some(v) = v {
                                let _ = write!(out, ",\"{q}\":{v}");
                            }
                        }
                        let _ = write!(out, ",\"buckets\":[");
                        for (bi, (bucket, n)) in buckets.iter().enumerate() {
                            if bi > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "[{bucket},{n}]");
                        }
                        let _ = write!(out, "]}}");
                    }
                }
            }
            out.push_str(if i + 1 < self.entries.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Registry {
        let r = Registry::new();
        r.counter("core.bfs.candidates_total").add(7);
        r.gauge("node.inbox.high_watermark").set(3);
        let sizes = r.histogram("core.select.ring_size", Unit::Count);
        sizes.record(4);
        sizes.record(9);
        let timer = r.histogram("chain.verify.block_ns", Unit::Nanos);
        timer.record(1234);
        r
    }

    #[test]
    fn text_rendering_is_sorted_and_complete() {
        let text = sample().snapshot().render_text(Mode::Full);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "lines must come out pre-sorted");
        assert!(text.contains("core.bfs.candidates_total\tcounter\t7"));
        assert!(text.contains("count=2 sum=13"));
    }

    #[test]
    fn deterministic_mode_hides_timer_internals() {
        let snap = sample().snapshot();
        let det = snap.render_text(Mode::Deterministic);
        assert!(det.contains("chain.verify.block_ns\ttimer\tcount=1"));
        assert!(!det.contains("1234"), "raw nanoseconds must not leak:\n{det}");
        // The value-domain histogram still renders fully.
        assert!(det.contains("core.select.ring_size\thistogram\tcount=2 sum=13"));
        let full = snap.render_json(Mode::Full);
        assert!(full.contains("\"sum\":1234"));
        let det_json = snap.render_json(Mode::Deterministic);
        assert!(!det_json.contains("1234"));
    }

    #[test]
    fn json_is_stable_across_renders() {
        let snap = sample().snapshot();
        assert_eq!(
            snap.render_json(Mode::Deterministic),
            snap.render_json(Mode::Deterministic)
        );
    }

    #[test]
    fn accessors_read_back_values() {
        let snap = sample().snapshot();
        assert_eq!(snap.counter("core.bfs.candidates_total"), Some(7));
        assert_eq!(snap.gauge("node.inbox.high_watermark"), Some(3));
        assert_eq!(snap.histogram_count("core.select.ring_size"), Some(2));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.counter("node.inbox.high_watermark"), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
