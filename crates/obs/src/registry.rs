//! Metric registry: counters, gauges and log2-bucketed histograms.
//!
//! Names are `&'static str` — every one in the tree is a literal or a row of
//! `report::SCALARS` — so neither an operation nor a copy of the map
//! allocates a key; export always walks a `BTreeMap`, so ordering is
//! deterministic and two identical runs serialize byte-identically. Labels identify the stream
//! (system / algo / dataset) the way the paper's tables are keyed.
//!
//! Distributions matter as much as totals: HyTGraph's transfer management
//! and EMOGI's access analysis both reason about *sizes* of individual
//! operations, so DMA ops, kernels and UVM faults are observed into
//! [`Histogram`]s (power-of-two buckets, exact count and sum).

use std::collections::BTreeMap;

use crate::json;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i - 1]` (bucket 64 saturates at `u64::MAX`).
pub const NUM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` range of bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i < NUM_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// Add `other`'s samples into `self` (associative and commutative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Samples accumulated since `baseline` (which must be a prefix of
    /// `self`'s history; bucket counts subtract saturating so a foreign
    /// baseline degrades gracefully instead of panicking).
    pub fn diff(&self, baseline: &Histogram) -> Histogram {
        let mut out = Histogram {
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            buckets: [0; NUM_BUCKETS],
        };
        for i in 0..NUM_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(baseline.buckets[i]);
        }
        out
    }

    fn fields_into(&self, o: &mut json::Object<'_>) {
        o.str("type", "histogram").num("count", self.count);
        o.num("sum", self.sum).array("buckets", |a| {
            for (i, &c) in self.buckets.iter().enumerate().filter(|(_, &c)| c > 0) {
                let (lo, hi) = Self::bucket_range(i);
                a.array(|b| {
                    b.num(lo).num(hi).num(c);
                });
            }
        });
    }
}

/// One registered metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Point-in-time value (merge takes the max — high-water semantics).
    Gauge(u64),
    /// Distribution of samples (boxed: a histogram is ~0.5 KiB, far larger
    /// than the scalar variants).
    Histogram(Box<Histogram>),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    fn fields_into(&self, o: &mut json::Object<'_>) {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                o.str("type", self.kind()).num("value", v);
            }
            MetricValue::Histogram(h) => h.fields_into(o),
        }
    }
}

/// The one metric map: labels plus named counters, gauges and histograms.
/// Recording sites bump it live; a report embeds a copy
/// ([`Registry::snapshot`]) or the change between two copies
/// ([`Registry::diff`]), exported by `--metrics-out` / `--summary json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    labels: BTreeMap<String, String>,
    metrics: BTreeMap<&'static str, MetricValue>,
}

/// A [`Registry`] that is read, not bumped: what a `RunReport` embeds.
pub type MetricsSnapshot = Registry;

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a stream label (system / algo / dataset).
    pub fn set_label(&mut self, key: &str, value: &str) {
        self.labels.insert(key.to_string(), value.to_string());
    }

    /// Label value, if set.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.get(key).map(|s| s.as_str())
    }

    /// All labels, sorted by key.
    pub fn labels(&self) -> impl Iterator<Item = (&str, &str)> {
        self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    ///
    /// # Panics
    /// Panics if `name` is already registered with a different kind.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        match self.metrics.entry(name).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Set gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        match self.metrics.entry(name).or_insert(MetricValue::Gauge(0)) {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Raise gauge `name` to at least `value` (high-water mark).
    pub fn gauge_max(&mut self, name: &'static str, value: u64) {
        match self.metrics.entry(name).or_insert(MetricValue::Gauge(0)) {
            MetricValue::Gauge(v) => *v = (*v).max(value),
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Observe `value` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        match self
            .metrics
            .entry(name)
            .or_insert_with(|| MetricValue::Histogram(Box::new(Histogram::new())))
        {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Counter value, if `name` is a counter (`None` when nothing has
    /// bumped it).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, if `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram, if `name` is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Overwrite (or create) counter `name` — for a value derived after
    /// the fact (a run's iteration count) or a name nothing bumped.
    pub fn set_counter(&mut self, name: &'static str, value: u64) {
        self.metrics.insert(name, MetricValue::Counter(value));
    }

    /// Overwrite (or create) gauge `name`.
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        self.metrics.insert(name, MetricValue::Gauge(value));
    }

    /// All metrics, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (*k, v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// A copy of the current state, to embed or to [`Registry::diff`]
    /// against later.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.clone()
    }

    /// The change since `baseline`: counters and histograms subtract,
    /// gauges keep their current value. Metrics absent from `baseline`
    /// pass through unchanged.
    pub fn diff(&self, baseline: &Registry) -> Registry {
        let mut out = self.clone();
        for (name, v) in &mut out.metrics {
            match (v, baseline.metrics.get(name)) {
                (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                    *a = a.saturating_sub(*b)
                }
                (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => **a = a.diff(b),
                _ => {}
            }
        }
        out
    }

    /// Merge another registry: counters add, gauges take the max,
    /// histograms merge. Labels from `other` fill in missing keys only.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.labels {
            self.labels.entry(k.clone()).or_insert_with(|| v.clone());
        }
        for (&name, theirs) in &other.metrics {
            match (self.metrics.get_mut(name), theirs) {
                (None, _) => drop(self.metrics.insert(name, theirs.clone())),
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(mine), theirs) => panic!(
                    "metric {name} kind mismatch: {} vs {}",
                    mine.kind(),
                    theirs.kind()
                ),
            }
        }
    }

    /// Render as one JSON object:
    /// `{"labels":{...},"metrics":{"name":{"type":...,...},...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.object("labels", |l| {
                for (k, v) in &self.labels {
                    l.str(k, v);
                }
            });
            o.object("metrics", |m| {
                for (name, v) in &self.metrics {
                    m.object(name, |f| v.fields_into(f));
                }
            });
        });
        out
    }
}

/// The per-device observability bundle: one live [`Registry`] plus the
/// bounded [`crate::EventLog`] every run keeps.
#[derive(Clone, Debug)]
pub struct Obs {
    /// Live metric registry (always on; counters are cheap).
    pub registry: Registry,
    events: crate::EventLog,
}

/// Written by hand: a derived `Default` would hold a zero-capacity log,
/// which drops every event.
impl Default for Obs {
    fn default() -> Self {
        Obs {
            registry: Registry::default(),
            events: crate::EventLog::new(crate::DEFAULT_EVENT_CAPACITY),
        }
    }
}

impl Obs {
    /// A fresh bundle with an empty [`crate::DEFAULT_EVENT_CAPACITY`] log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `event` at virtual-clock instant `t_ns`.
    pub fn record(&mut self, t_ns: u64, event: crate::Event) {
        self.events.record(t_ns, event);
    }

    /// The events recorded since the log was last taken.
    pub fn events(&self) -> &crate::EventLog {
        &self.events
    }

    /// Take ownership of the event log (used when assembling reports),
    /// leaving an empty one of the same capacity behind.
    pub fn take_events(&mut self) -> crate::EventLog {
        let fresh = crate::EventLog::new(self.events.capacity());
        std::mem::replace(&mut self.events, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_range(0), (0, 0));
        assert_eq!(Histogram::bucket_range(1), (1, 1));
        assert_eq!(Histogram::bucket_range(2), (2, 3));
        assert_eq!(Histogram::bucket_range(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn histogram_observe_merge_diff() {
        let mut a = Histogram::new();
        a.observe(0);
        a.observe(5);
        let mut b = Histogram::new();
        b.observe(5);
        b.observe(1024);
        let baseline = a.clone();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 1034);
        assert_eq!(a.buckets()[Histogram::bucket_index(5)], 2);
        let d = a.diff(&baseline);
        assert_eq!(d, b);
    }

    #[test]
    fn registry_kinds_and_snapshot() {
        let mut r = Registry::new();
        r.set_label("system", "Ascetic");
        r.counter_add("xfer.h2d_bytes", 100);
        r.counter_add("xfer.h2d_bytes", 20);
        r.gauge_max("mem.high_water_bytes", 7);
        r.gauge_max("mem.high_water_bytes", 3);
        r.observe("h2d.op_bytes", 64);
        let s = r.snapshot();
        assert_eq!(s, r, "a snapshot is a copy of the one map");
        assert_eq!(s.counter("xfer.h2d_bytes"), Some(120));
        assert_eq!(s.counter("never.bumped"), None, "absence is readable");
        assert_eq!(s.gauge("mem.high_water_bytes"), Some(7));
        assert_eq!(s.histogram("h2d.op_bytes").unwrap().count(), 1);
        assert_eq!(s.label("system"), Some("Ascetic"));
        assert_eq!(s.counter("mem.high_water_bytes"), None, "kind-checked");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.gauge_set("x", 1);
        r.counter_add("x", 1);
    }

    #[test]
    fn snapshot_diff_subtracts_counters_keeps_gauges() {
        let mut r = Registry::new();
        r.counter_add("c", 10);
        r.gauge_set("g", 5);
        let base = r.snapshot();
        r.counter_add("c", 7);
        r.gauge_set("g", 3);
        let d = r.snapshot().diff(&base);
        assert_eq!(d.counter("c"), Some(7));
        assert_eq!(d.gauge("g"), Some(3), "gauges report current value");
    }

    #[test]
    fn merge_is_deterministic_and_additive() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.observe("h", 10);
        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.counter_add("only_b", 5);
        b.observe("h", 20);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.counter("c"), Some(3));
        assert_eq!(s.counter("only_b"), Some(5));
        assert_eq!(s.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let mut r = Registry::new();
        r.set_label("algo", "BFS");
        r.counter_add("xfer.h2d_bytes", 4096);
        r.gauge_set("sim_time_ns", 10);
        r.observe("h2d.op_bytes", 4096);
        let s = r.snapshot();
        let j = s.to_json();
        crate::json::validate(&j).expect("snapshot JSON validates");
        assert!(j.contains("\"xfer.h2d_bytes\""));
        assert!(
            j.contains("\"h2d.op_bytes\":{\"type\":\"histogram\""),
            "{j}"
        );
    }

    #[test]
    fn take_events_leaves_an_empty_log_behind() {
        let mut o = Obs::new();
        o.record(7, crate::Event::HighWater { bytes: 16 });
        assert_eq!(o.events().len(), 1);
        assert_eq!(o.take_events().len(), 1);
        let fresh = o.events();
        assert_eq!(
            (fresh.len(), fresh.capacity()),
            (0, crate::DEFAULT_EVENT_CAPACITY)
        );
    }
}
