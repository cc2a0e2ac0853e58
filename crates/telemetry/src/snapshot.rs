//! Point-in-time copy of the metric inventory plus its JSON serialization.
//!
//! Capture and serialization allocate (Vec/String) and therefore run
//! *outside* the steady-state step path — typically once at the end of a
//! benchmark or on demand from a driver. The JSON is hand-rolled: two-space
//! indentation, stable key order, no external dependencies.

use crate::metrics;
use crate::MAX_WORKERS;
#[cfg(test)]
use crate::HIST_BUCKETS;
use std::fmt::Write as _;

/// Frozen contents of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: &'static str,
    /// Total samples (always equals the sum of `buckets`).
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Log2 buckets, lowest first; trailing zero buckets are trimmed.
    pub buckets: Vec<u64>,
}

/// Point-in-time copy of every registered metric.
///
/// Capture is not a cross-metric atomic cut: concurrent recorders may land
/// either side of it. Within the intended use (capture after the parallel
/// work joined) values are exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Whether the `capture` feature was compiled in (all-zero values are
    /// expected when this is false).
    pub enabled: bool,
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, u64)>,
    pub histograms: Vec<HistogramSnapshot>,
    /// Busy nanoseconds per worker, trimmed to the workers high-water mark
    /// (at least one slot so the key is always present).
    pub worker_busy_ns: Vec<u64>,
}

impl MetricsSnapshot {
    /// Copy the current value of every registered metric.
    pub fn capture() -> Self {
        let counters = metrics::counters().iter().map(|(n, c)| (*n, c.get())).collect();
        let gauges: Vec<(&'static str, u64)> =
            metrics::gauges().iter().map(|(n, g)| (*n, g.get())).collect();
        let histograms = metrics::histograms()
            .iter()
            .map(|(n, h)| {
                let mut buckets = h.buckets().to_vec();
                while buckets.len() > 1 && *buckets.last().unwrap() == 0 {
                    buckets.pop();
                }
                HistogramSnapshot { name: n, count: h.count(), sum: h.sum(), buckets }
            })
            .collect();
        let workers_hw = metrics::STDPAR_WORKERS_HIGH_WATER.get() as usize;
        let keep = workers_hw.clamp(1, MAX_WORKERS);
        let worker_busy_ns = metrics::WORKER_BUSY_NANOS.snapshot()[..keep].to_vec();
        MetricsSnapshot { enabled: crate::ENABLED, counters, gauges, histograms, worker_busy_ns }
    }

    /// Value of a counter by its snake_case name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Value of a gauge by its snake_case name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// A histogram by its snake_case name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serialize in the in-tree benchmark JSON style (two-space indent,
    /// stable key order, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"snapshot\": \"stdpar-nbody-telemetry\",\n");
        let _ = writeln!(s, "  \"enabled\": {},", self.enabled);
        s.push_str("  \"counters\": {\n");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{name}\": {v}{comma}");
        }
        s.push_str("  },\n  \"gauges\": {\n");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{name}\": {v}{comma}");
        }
        s.push_str("  },\n  \"histograms\": {\n");
        for (i, h) in self.histograms.iter().enumerate() {
            let _ = writeln!(s, "    \"{}\": {{", h.name);
            let _ = writeln!(s, "      \"count\": {},", h.count);
            let _ = writeln!(s, "      \"sum\": {},", h.sum);
            let buckets =
                h.buckets.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ");
            let _ = writeln!(s, "      \"buckets\": [{buckets}]");
            let comma = if i + 1 < self.histograms.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        s.push_str("  },\n");
        let busy =
            self.worker_busy_ns.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ");
        let _ = writeln!(s, "  \"worker_busy_ns\": [{busy}]");
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_covers_the_whole_registry() {
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.counters.len(), metrics::N_COUNTERS);
        assert_eq!(snap.gauges.len(), metrics::N_GAUGES);
        assert_eq!(snap.histograms.len(), metrics::N_HISTOGRAMS);
        assert!(!snap.worker_busy_ns.is_empty());
        assert!(snap.worker_busy_ns.len() <= MAX_WORKERS);
        for h in &snap.histograms {
            assert!(h.buckets.len() <= HIST_BUCKETS);
            assert_eq!(h.count, h.buckets.iter().sum::<u64>());
        }
        assert_eq!(snap.enabled, crate::ENABLED);
    }

    #[test]
    fn accessors_find_known_names() {
        let snap = MetricsSnapshot::capture();
        assert!(snap.counter("sim_steps").is_some());
        assert!(snap.counter("no_such_metric").is_none());
        assert!(snap.gauge("octree_pool_high_water").is_some());
        assert!(snap.histogram("stdpar_grain_sizes").is_some());
    }

    #[test]
    fn json_roundtrips_through_the_validator() {
        #[cfg(feature = "capture")]
        {
            metrics::SIM_STEPS.add(5);
            metrics::STDPAR_GRAIN_SIZES.record(100);
            metrics::STDPAR_GRAIN_SIZES.record(3000);
        }
        let snap = MetricsSnapshot::capture();
        let json = snap.to_json();
        crate::json::validate_snapshot(&json).expect("emitted snapshot must validate");
        assert!(json.contains("\"snapshot\": \"stdpar-nbody-telemetry\""));
        assert!(json.contains("\"sim_steps\""));
        assert!(json.ends_with("}\n"));
    }
}
