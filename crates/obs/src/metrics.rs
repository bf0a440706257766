//! A labelled metrics registry with cheap recording handles.
//!
//! Components register named, labelled instruments once at wiring time and
//! keep the returned handle; recording through a handle is a `Cell`/`RefCell`
//! poke with no name hashing on the hot path. The registry itself produces a
//! deterministic [`MetricsSnapshot`] (JSON or plain text) at any instant.
//!
//! Four instrument kinds cover the paper's evaluation needs:
//! [`Counter`] (monotone totals), [`Gauge`] (instantaneous levels, sampled
//! into a windowed series on demand), [`HistogramHandle`]
//! (log-bucketed latency distributions from `simcore::stats`), and
//! [`SeriesHandle`] (windowed rates over virtual time).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simcore::{Histogram, SimDuration, SimTime, TimeSeries};

use crate::exemplar::ExemplarSet;
use crate::json::{JsonValue, ToJson};

/// Label set attached to an instrument, e.g. `[("tenant", "3")]`.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

pub(crate) fn labels_json(labels: &Labels) -> JsonValue {
    JsonValue::Obj(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
            .collect(),
    )
}

fn labels_text(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", inner.join(","))
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Returns the current total.
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// An instantaneous-level gauge handle.
///
/// Every successful write stamps the registry's current *sample epoch*
/// (bumped by [`MetricsRegistry::begin_sample`]); a gauge whose stamp
/// lags the epoch at snapshot time is **stale** — typically a ratio
/// gauge whose denominator was zero all window — and rollups render it
/// as `null` instead of re-reporting the last value as current.
#[derive(Clone)]
pub struct Gauge {
    value: Rc<Cell<f64>>,
    /// Sample epoch of the last successful write.
    stamp: Rc<Cell<u64>>,
    /// The registry's shared sample epoch.
    epoch: Rc<Cell<u64>>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.value.set(v);
        self.stamp.set(self.epoch.get());
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: f64) {
        self.value.set(self.value.get() + delta);
        self.stamp.set(self.epoch.get());
    }

    /// Sets the level to the ratio `num / den`, leaving the gauge
    /// untouched when the denominator is zero — the standard shape for
    /// rate-style gauges (hit rates, success fractions) whose "no
    /// samples yet" state must not read as 0% or NaN. A skipped update
    /// does *not* stamp the epoch, so the gauge reads as stale once the
    /// next sampling pass begins.
    #[inline]
    pub fn set_ratio(&self, num: u64, den: u64) {
        if den > 0 {
            self.value.set(num as f64 / den as f64);
            self.stamp.set(self.epoch.get());
        }
    }

    /// Returns the current level.
    pub fn get(&self) -> f64 {
        self.value.get()
    }

    /// Sample epoch of the last successful write (0 = never written
    /// under an epoch).
    pub fn last_updated_epoch(&self) -> u64 {
        self.stamp.get()
    }
}

/// A latency histogram handle. A component may own one outright
/// (`HistogramHandle::default()`) and hand it to a registry later with
/// [`MetricsRegistry::register_histogram`].
#[derive(Clone)]
pub struct HistogramHandle {
    hist: Rc<RefCell<Histogram>>,
    exemplars: Rc<RefCell<ExemplarSet>>,
}

impl Default for HistogramHandle {
    fn default() -> Self {
        HistogramHandle {
            hist: Rc::new(RefCell::new(Histogram::new())),
            exemplars: Rc::new(RefCell::new(ExemplarSet::new())),
        }
    }
}

impl HistogramHandle {
    /// Records one duration sample.
    #[inline]
    pub fn record(&self, d: SimDuration) {
        self.hist.borrow_mut().record(d);
    }

    /// Records one duration sample, optionally attaching the current
    /// sampled trace context `(trace_id, span_id)` as the exemplar of
    /// the bucket the sample lands in (one slot per bucket,
    /// last-writer-wins; see [`crate::exemplar::ExemplarSet`]).
    #[inline]
    pub fn record_traced(&self, d: SimDuration, ctx: Option<(u64, u32)>) {
        self.hist.borrow_mut().record(d);
        if let Some((trace_id, span_id)) = ctx {
            self.exemplars
                .borrow_mut()
                .offer(d.as_nanos(), trace_id, span_id);
        }
    }

    /// Returns a copy of the underlying histogram.
    pub fn histogram(&self) -> Histogram {
        self.hist.borrow().clone()
    }

    /// Returns a copy of the recorded exemplars.
    pub fn exemplar_set(&self) -> ExemplarSet {
        self.exemplars.borrow().clone()
    }
}

/// A windowed time-series handle (events per second per window).
#[derive(Clone)]
pub struct SeriesHandle {
    series: Rc<RefCell<TimeSeries>>,
}

impl SeriesHandle {
    /// Records `weight` worth of events at virtual instant `t`.
    #[inline]
    pub fn record_at(&self, t: SimTime, weight: f64) {
        self.series.borrow_mut().record_at(t, weight);
    }

    /// Returns the points finalized so far.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.series.borrow().points().to_vec()
    }
}

struct Registered<H> {
    name: String,
    labels: Labels,
    handle: H,
}

/// The handle registered under `name` + `labels` in `list`, registering
/// `make()` there first when the key is new (one entry per key, in
/// registration order).
fn slot<'a, H>(
    list: &'a mut Vec<Registered<H>>,
    name: &str,
    labels: &[(&str, &str)],
    make: impl FnOnce() -> H,
) -> &'a mut H {
    let labels = labels_of(labels);
    let idx = match list
        .iter()
        .position(|r| r.name == name && r.labels == labels)
    {
        Some(idx) => idx,
        None => {
            let name = name.to_string();
            list.push(Registered {
                name,
                labels,
                handle: make(),
            });
            list.len() - 1
        }
    };
    &mut list[idx].handle
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<Registered<Counter>>,
    gauges: Vec<Registered<Gauge>>,
    histograms: Vec<Registered<HistogramHandle>>,
    series: Vec<Registered<SeriesHandle>>,
    /// The sample epoch shared with every gauge (see
    /// [`MetricsRegistry::begin_sample`]).
    epoch: Rc<Cell<u64>>,
}

/// The process-wide metrics registry; cloning shares the same store.
///
/// # Examples
///
/// ```
/// use obs::metrics::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let sent = reg.counter("dne_tx_posted", &[("tenant", "1")]);
/// sent.inc();
/// sent.add(2);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("dne_tx_posted", &[("tenant", "1")]), Some(3));
/// ```
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name` + `labels`, creating it
    /// on first use. Re-registering returns a handle to the same counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut inner = self.inner.borrow_mut();
        slot(&mut inner.counters, name, labels, || Counter {
            value: Rc::new(Cell::new(0)),
        })
        .clone()
    }

    /// Returns the gauge registered under `name` + `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut inner = self.inner.borrow_mut();
        let epoch = inner.epoch.clone();
        slot(&mut inner.gauges, name, labels, || Gauge {
            value: Rc::new(Cell::new(0.0)),
            stamp: Rc::new(Cell::new(0)),
            epoch,
        })
        .clone()
    }

    /// Returns the histogram registered under `name` + `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let mut inner = self.inner.borrow_mut();
        slot(
            &mut inner.histograms,
            name,
            labels,
            HistogramHandle::default,
        )
        .clone()
    }

    /// Registers an existing histogram handle under `name` + `labels`, so
    /// a component that records into its own handle is exported without a
    /// second copy. Registering the same `(name, labels)` again replaces
    /// the handle: the registry keeps one entry per key.
    pub fn register_histogram(&self, name: &str, labels: &[(&str, &str)], handle: HistogramHandle) {
        let mut inner = self.inner.borrow_mut();
        *slot(
            &mut inner.histograms,
            name,
            labels,
            HistogramHandle::default,
        ) = handle;
    }

    /// Returns the windowed series registered under `name` + `labels`.
    pub fn series(&self, name: &str, labels: &[(&str, &str)], window: SimDuration) -> SeriesHandle {
        let mut inner = self.inner.borrow_mut();
        slot(&mut inner.series, name, labels, || SeriesHandle {
            series: Rc::new(RefCell::new(TimeSeries::new(window))),
        })
        .clone()
    }

    /// Merges all histograms sharing `name` (across label sets) into one.
    ///
    /// This is the aggregation the paper's tables need: per-tenant or
    /// per-node distributions roll up exactly because the underlying
    /// buckets are identical.
    pub fn merged_histogram(&self, name: &str) -> Histogram {
        let inner = self.inner.borrow();
        let mut merged = Histogram::new();
        for r in inner.histograms.iter().filter(|r| r.name == name) {
            merged.merge(&r.handle.hist.borrow());
        }
        merged
    }

    /// Opens a new sample epoch and returns it. Call at the top of every
    /// sampling pass (the cluster's `sample_obs` does): gauges written
    /// during the pass carry the new epoch; a gauge skipped by e.g.
    /// [`Gauge::set_ratio`]'s zero-denominator guard keeps its old stamp
    /// and reads as *stale* in the next snapshot, instead of replaying
    /// its last value as current forever.
    pub fn begin_sample(&self) -> u64 {
        let inner = self.inner.borrow();
        let next = inner.epoch.get() + 1;
        inner.epoch.set(next);
        next
    }

    /// The current sample epoch (0 until [`MetricsRegistry::begin_sample`]
    /// is first called).
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch.get()
    }

    /// Captures a point-in-time snapshot of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        let epoch = inner.epoch.get();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|r| (r.name.clone(), r.labels.clone(), r.handle.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|r| {
                    // A gauge is stale when sampling passes have started
                    // (epoch > 0) and its last write predates the current
                    // epoch: this pass skipped it.
                    let stale = epoch > 0 && r.handle.last_updated_epoch() < epoch;
                    (r.name.clone(), r.labels.clone(), r.handle.get(), stale)
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|r| {
                    (
                        r.name.clone(),
                        r.labels.clone(),
                        r.handle.histogram(),
                        r.handle.exemplar_set(),
                    )
                })
                .collect(),
            series: inner
                .series
                .iter()
                .map(|r| (r.name.clone(), r.labels.clone(), r.handle.points()))
                .collect(),
        }
    }
}

/// Finalized points of one time series: `(t_secs, value)` pairs.
pub type SeriesPoints = Vec<(f64, f64)>;

/// A point-in-time copy of every registered instrument.
pub struct MetricsSnapshot {
    counters: Vec<(String, Labels, u64)>,
    /// `(name, labels, value, stale)` — stale gauges were skipped by the
    /// sampling pass that opened the current epoch.
    gauges: Vec<(String, Labels, f64, bool)>,
    histograms: Vec<(String, Labels, Histogram, ExemplarSet)>,
    series: Vec<(String, Labels, SeriesPoints)>,
}

impl MetricsSnapshot {
    /// Looks up a counter total by name and exact labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let labels = labels_of(labels);
        self.counters
            .iter()
            .find(|(n, l, _)| n == name && *l == labels)
            .map(|(_, _, v)| *v)
    }

    /// Looks up a gauge level by name and exact labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let labels = labels_of(labels);
        self.gauges
            .iter()
            .find(|(n, l, _, _)| n == name && *l == labels)
            .map(|(_, _, v, _)| *v)
    }

    /// Whether the gauge is stale (its sampling pass skipped it), or
    /// `None` if unregistered.
    pub fn gauge_stale(&self, name: &str, labels: &[(&str, &str)]) -> Option<bool> {
        let labels = labels_of(labels);
        self.gauges
            .iter()
            .find(|(n, l, _, _)| n == name && *l == labels)
            .map(|(_, _, _, stale)| *stale)
    }

    /// Returns all `(labels, value)` rows of a counter family.
    pub fn counter_family(&self, name: &str) -> Vec<(&Labels, u64)> {
        self.counters
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, l, v)| (l, *v))
            .collect()
    }

    /// Every counter as `(name, labels, value)`, in registration order.
    pub fn counters_iter(&self) -> impl Iterator<Item = (&str, &Labels, u64)> {
        self.counters.iter().map(|(n, l, v)| (n.as_str(), l, *v))
    }

    /// Every gauge as `(name, labels, value, stale)`, in registration
    /// order.
    pub fn gauges_iter(&self) -> impl Iterator<Item = (&str, &Labels, f64, bool)> {
        self.gauges
            .iter()
            .map(|(n, l, v, s)| (n.as_str(), l, *v, *s))
    }

    /// Every histogram as `(name, labels, histogram, exemplars)`, in
    /// registration order.
    pub fn histograms_iter(
        &self,
    ) -> impl Iterator<Item = (&str, &Labels, &Histogram, &ExemplarSet)> {
        self.histograms
            .iter()
            .map(|(n, l, h, e)| (n.as_str(), l, h, e))
    }

    /// Renders the counter movement since `baseline` (counters absent
    /// from the baseline count from zero) plus current gauge levels — the
    /// compact "what changed" view flight-recorder bundles embed.
    ///
    /// A counter that moved *backwards* since the baseline — a regression
    /// that would previously clamp to zero and vanish — is surfaced as a
    /// typed `delta_negative` entry carrying the magnitude of the
    /// regression, so a reset or double-attach is visible in the dump
    /// instead of silently reading as "no movement".
    pub fn delta_json(&self, baseline: &MetricsSnapshot) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, labels, v)| {
                let base = baseline
                    .counters
                    .iter()
                    .find(|(n, l, _)| n == name && l == labels)
                    .map_or(0, |(_, _, b)| *b);
                if *v >= base {
                    let delta = v - base;
                    (delta > 0).then(|| {
                        JsonValue::obj(vec![
                            ("name", JsonValue::Str(name.clone())),
                            ("labels", labels_json(labels)),
                            ("delta", JsonValue::UInt(delta)),
                        ])
                    })
                } else {
                    Some(JsonValue::obj(vec![
                        ("name", JsonValue::Str(name.clone())),
                        ("labels", labels_json(labels)),
                        ("delta", JsonValue::UInt(0)),
                        ("delta_negative", JsonValue::UInt(base - v)),
                    ]))
                }
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(name, labels, v, stale)| {
                JsonValue::obj(vec![
                    ("name", JsonValue::Str(name.clone())),
                    ("labels", labels_json(labels)),
                    (
                        "value",
                        if *stale {
                            JsonValue::Null
                        } else {
                            JsonValue::Float(*v)
                        },
                    ),
                    ("stale", JsonValue::Bool(*stale)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("counters", JsonValue::Arr(counters)),
            ("gauges", JsonValue::Arr(gauges)),
        ])
    }

    /// Renders a Prometheus-style plain-text exposition.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, labels, v) in &self.counters {
            out.push_str(&format!("{name}{} {v}\n", labels_text(labels)));
        }
        for (name, labels, v, stale) in &self.gauges {
            if *stale {
                out.push_str(&format!("{name}{} stale\n", labels_text(labels)));
            } else {
                out.push_str(&format!("{name}{} {v}\n", labels_text(labels)));
            }
        }
        for (name, labels, h, _) in &self.histograms {
            let s = h.summary();
            out.push_str(&format!(
                "{name}{} count={} mean_us={:.2} p50_us={:.2} p99_us={:.2} max_us={:.2}\n",
                labels_text(labels),
                s.count,
                s.mean_us,
                s.p50_us,
                s.p99_us,
                s.max_us
            ));
        }
        for (name, labels, points) in &self.series {
            out.push_str(&format!(
                "{name}{} points={}\n",
                labels_text(labels),
                points.len()
            ));
        }
        out
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(name, labels, v)| {
                JsonValue::obj(vec![
                    ("name", JsonValue::Str(name.clone())),
                    ("labels", labels_json(labels)),
                    ("value", JsonValue::UInt(*v)),
                ])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(name, labels, v, stale)| {
                JsonValue::obj(vec![
                    ("name", JsonValue::Str(name.clone())),
                    ("labels", labels_json(labels)),
                    (
                        "value",
                        if *stale {
                            JsonValue::Null
                        } else {
                            JsonValue::Float(*v)
                        },
                    ),
                    ("stale", JsonValue::Bool(*stale)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, labels, h, exemplars)| {
                JsonValue::obj(vec![
                    ("name", JsonValue::Str(name.clone())),
                    ("labels", labels_json(labels)),
                    ("summary", h.summary().to_json()),
                    ("exemplars", exemplars.to_json()),
                ])
            })
            .collect();
        let series = self
            .series
            .iter()
            .map(|(name, labels, points)| {
                JsonValue::obj(vec![
                    ("name", JsonValue::Str(name.clone())),
                    ("labels", labels_json(labels)),
                    ("points", points.to_json()),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("counters", JsonValue::Arr(counters)),
            ("gauges", JsonValue::Arr(gauges)),
            ("histograms", JsonValue::Arr(histograms)),
            ("series", JsonValue::Arr(series)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_gauge_guards_zero_denominator() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("hit_rate", &[]);
        g.set_ratio(3, 0);
        assert_eq!(g.get(), 0.0, "no samples leaves the gauge untouched");
        g.set_ratio(3, 4);
        assert_eq!(g.get(), 0.75);
        g.set_ratio(1, 0);
        assert_eq!(g.get(), 0.75, "a later empty window keeps the last ratio");
    }

    #[test]
    fn skipped_ratio_gauge_reads_stale_not_current() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("hit_rate", &[]);
        // Pass 1: the gauge is written — fresh.
        reg.begin_sample();
        g.set_ratio(3, 4);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge_stale("hit_rate", &[]), Some(false));
        // Pass 2: the denominator is zero, so the write is skipped — the
        // old value must read as stale, not as the current level.
        reg.begin_sample();
        g.set_ratio(0, 0);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("hit_rate", &[]), Some(0.75), "value retained");
        assert_eq!(snap.gauge_stale("hit_rate", &[]), Some(true));
        let json = snap.to_json();
        let gauges = json.get("gauges").unwrap().as_arr().unwrap();
        assert_eq!(gauges[0].get("value"), Some(&JsonValue::Null));
        assert_eq!(gauges[0].get("stale"), Some(&JsonValue::Bool(true)));
        // Pass 3: a real write refreshes it.
        reg.begin_sample();
        g.set_ratio(1, 2);
        assert_eq!(reg.snapshot().gauge_stale("hit_rate", &[]), Some(false));
    }

    #[test]
    fn staleness_is_off_until_sampling_begins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth", &[]);
        g.set(1.0);
        // No begin_sample yet: epoch 0, nothing is stale.
        assert_eq!(reg.snapshot().gauge_stale("depth", &[]), Some(false));
    }

    #[test]
    fn negative_counter_delta_is_typed_not_clamped() {
        let reg_a = MetricsRegistry::new();
        reg_a.counter("x", &[]).add(10);
        let baseline = reg_a.snapshot();
        // A second registry (simulating a reset) with a *lower* total.
        let reg_b = MetricsRegistry::new();
        reg_b.counter("x", &[]).add(4);
        let delta = reg_b.snapshot().delta_json(&baseline);
        let counters = delta.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), 1, "the regression must not vanish");
        assert_eq!(counters[0].get("delta").unwrap().as_u64(), Some(0));
        assert_eq!(
            counters[0].get("delta_negative").unwrap().as_u64(),
            Some(6),
            "magnitude of the backwards movement"
        );
    }

    #[test]
    fn histogram_exemplars_ride_the_snapshot() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        h.record_traced(SimDuration::from_micros(10), Some((7, 3)));
        h.record_traced(SimDuration::from_micros(10_000), None);
        let snap = reg.snapshot();
        let (_, _, hist, exemplars) = snap
            .histograms_iter()
            .next()
            .map(|(n, l, h, e)| (n.to_string(), l.clone(), h.clone(), e.clone()))
            .unwrap();
        assert_eq!(hist.count(), 2, "untraced samples still count");
        assert_eq!(exemplars.len(), 1, "only the traced sample left a pointer");
        let ex = exemplars.exemplars().next().unwrap();
        assert_eq!((ex.trace_id, ex.span_id), (7, 3));
    }

    #[test]
    fn counter_reregistration_shares_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("tenant", "1")]);
        let b = reg.counter("x", &[("tenant", "1")]);
        let other = reg.counter("x", &[("tenant", "2")]);
        a.inc();
        b.inc();
        other.add(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x", &[("tenant", "1")]), Some(2));
        assert_eq!(snap.counter("x", &[("tenant", "2")]), Some(5));
        assert_eq!(snap.counter_family("x").len(), 2);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth", &[]);
        g.set(4.0);
        g.add(-1.5);
        assert_eq!(reg.snapshot().gauge("depth", &[]), Some(2.5));
    }

    #[test]
    fn histograms_merge_across_labels() {
        let reg = MetricsRegistry::new();
        let h1 = reg.histogram("lat", &[("tenant", "1")]);
        let h2 = reg.histogram("lat", &[("tenant", "2")]);
        h1.record(SimDuration::from_micros(10));
        h2.record(SimDuration::from_micros(20));
        let merged = reg.merged_histogram("lat");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.max(), SimDuration::from_micros(20));
    }

    #[test]
    fn registered_handle_is_read_in_place_and_kept_once() {
        let (reg, own) = (MetricsRegistry::new(), HistogramHandle::default());
        own.record(SimDuration::from_micros(3));
        reg.register_histogram("lat", &[], own.clone());
        reg.register_histogram("lat", &[], own.clone());
        own.record(SimDuration::from_micros(7));
        let snap = reg.snapshot();
        let counts: Vec<u64> = snap.histograms_iter().map(|h| h.2.count()).collect();
        assert_eq!(counts, vec![2], "one entry, reading every sample");
        assert_eq!(reg.histogram("lat", &[]).histogram().count(), 2);
    }

    #[test]
    fn series_records_windowed_rates() {
        let reg = MetricsRegistry::new();
        let s = reg.series("rps", &[], SimDuration::from_secs(1));
        s.record_at(SimTime::from_nanos(100_000_000), 1.0);
        s.record_at(SimTime::from_nanos(1_200_000_000), 2.0);
        let pts = s.points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0], (1.0, 1.0));
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("k", "v")]).inc();
        reg.gauge("g", &[]).set(1.0);
        reg.histogram("h", &[]).record(SimDuration::from_micros(5));
        reg.series("s", &[], SimDuration::from_secs(1));
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert_eq!(json.get("counters").unwrap().as_arr().unwrap().len(), 1);
        let text = snap.to_text();
        assert!(text.contains("c{k=\"v\"} 1"));
        assert!(text.contains("g 1"));
        // The document parses back.
        assert!(crate::json::parse(&json.to_string_pretty()).is_ok());
    }
}
