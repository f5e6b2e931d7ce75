//! The named-metric registry.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram, Unit};
use crate::snapshot::{Snapshot, SnapshotEntry, SnapshotValue};

#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A collection of named metrics.
///
/// Registration is get-or-create: asking twice for the same name returns
/// handles onto the same atomic, so independent modules can share a
/// metric by name alone. Asking for a name under a different kind (or a
/// histogram under a different unit) is a programming error and panics —
/// silently splitting one name across kinds would corrupt every
/// rendering.
///
/// Instrumented code defaults to the process-wide [`global`] registry;
/// tests that assert exact metric values construct their own so parallel
/// test threads cannot interfere.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Get or register the histogram `name` with the given unit.
    pub fn histogram(&self, name: &str, unit: Unit) -> Histogram {
        let mut metrics = self.metrics.lock().expect("obs registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(unit)))
        {
            Metric::Histogram(h) => {
                assert!(
                    h.unit() == unit,
                    "histogram {name:?} already registered with unit {:?}",
                    h.unit()
                );
                h.clone()
            }
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Get or register a counter under `base` qualified by one label,
    /// rendered in the conventional `base{key="value"}` form. Labeled
    /// series sort lexically inside the snapshot like any other name, so
    /// per-node families (`node.gossip.delivered_total{node="3"}`) stay
    /// byte-identical across runs.
    pub fn counter_labeled(&self, base: &str, key: &str, value: &str) -> Counter {
        self.counter(&format!("{base}{{{key}=\"{value}\"}}"))
    }

    /// Capture the current value of every registered metric, sorted by
    /// name (the map is a `BTreeMap`, so order is stable by construction).
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("obs registry poisoned");
        let entries = metrics
            .iter()
            .map(|(name, metric)| SnapshotEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapshotValue::Histogram {
                        unit: h.unit(),
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets(),
                        p50: h.quantile(0.5),
                        p90: h.quantile(0.9),
                        p99: h.quantile(0.99),
                    },
                },
            })
            .collect();
        Snapshot { entries }
    }
}

fn kind_name(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// The process-wide registry that default-constructed instrumentation
/// records into (and that `dams-cli --metrics` renders).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        r.counter("a.b.c_total").add(2);
        r.counter("a.b.c_total").add(3);
        assert_eq!(r.counter("a.b.c_total").get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "already registered with unit")]
    fn unit_mismatch_panics() {
        let r = Registry::new();
        r.histogram("h", Unit::Count);
        r.histogram("h", Unit::Nanos);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("z.last");
        r.counter("a.first");
        r.gauge("m.middle");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn labeled_counters_are_distinct_stable_series() {
        let r = Registry::new();
        r.counter_labeled("node.gossip.delivered_total", "node", "1")
            .add(2);
        r.counter_labeled("node.gossip.delivered_total", "node", "0")
            .add(7);
        assert_eq!(
            r.counter_labeled("node.gossip.delivered_total", "node", "1")
                .get(),
            2
        );
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "node.gossip.delivered_total{node=\"0\"}",
                "node.gossip.delivered_total{node=\"1\"}",
            ]
        );
    }

    #[test]
    fn global_is_shared() {
        global().counter("obs.test.global_total").inc();
        assert!(global().counter("obs.test.global_total").get() >= 1);
    }
}
