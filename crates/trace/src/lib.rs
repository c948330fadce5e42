//! # gospel-trace — structured tracing and metrics for GENesis
//!
//! A zero-dependency observability substrate: a thread-safe [`Recorder`]
//! collects **spans** (paired open/close events with elapsed time),
//! **instant events**, monotone **counters**, and log₂-bucketed
//! **histograms**. Everything is in memory; the consumer decides what to
//! do with it — stream events as JSONL ([`Event::to_jsonl`]), print an
//! end-of-run summary ([`Recorder::metrics_table`]), or fold counters
//! into a benchmark report.
//!
//! The event vocabulary used across the GENesis stack is documented in
//! DESIGN.md ("Observability"); nothing here hard-codes it — names are
//! plain strings, so new subsystems can add events without touching this
//! crate.
//!
//! With no recorder installed in a driver or session, the cost is one
//! `Option` check per probe.
//!
//! ```
//! use gospel_trace::{Recorder, Span, Value};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(Recorder::new());
//! let span = Span::open(Some(&rec), "demo.work", &[("input", Value::u(3))]);
//! rec.add("demo.widgets", 2);
//! span.close(&[("outcome", Value::str("ok"))]);
//! for event in rec.drain_events() {
//!     let line = event.to_jsonl();
//!     gospel_trace::json::validate(&line).unwrap();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod report;

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An event or counter name, or a string field value: a `&'static str`
/// literal (the overwhelmingly common case) or an owned dynamic string.
/// Literals copy without allocating, so a caller that renders a dynamic
/// name once and keeps it for the process (an optimizer's per-clause
/// counters, say) can record it any number of times for free.
#[derive(Clone, Debug)]
pub enum Name {
    /// A literal.
    Static(&'static str),
    /// A string built for one use.
    Owned(String),
}

impl Name {
    /// The string as a slice.
    pub fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Owned(s) => s,
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Name {
        Name::Static(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::Owned(s)
    }
}

/// The structured fields of one event, in recording order. Recording
/// methods take anything that converts into it: a `Vec` or an array is
/// moved into the event, a slice is copied.
pub type Fields = Vec<(&'static str, Value)>;

// ---------------------------------------------------------------------------
// data model
// ---------------------------------------------------------------------------

/// A structured field value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A string — borrowed for `&'static str` literals (no allocation),
    /// owned or shared for dynamic strings.
    Str(Name),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Shorthand for [`Value::Str`]. Literals stay borrowed; pass an
    /// owned `String` (cloning if needed) for dynamic values.
    pub fn str(s: impl Into<Name>) -> Value {
        Value::Str(s.into())
    }

    /// Shorthand for [`Value::UInt`].
    pub fn u(n: u64) -> Value {
        Value::UInt(n)
    }

    /// Shorthand for a `usize` counter value.
    pub fn us(n: usize) -> Value {
        Value::UInt(n as u64)
    }

    /// Shorthand for [`Value::Int`].
    pub fn i(n: impl Into<i64>) -> Value {
        Value::Int(n.into())
    }

    /// Shorthand for [`Value::Bool`].
    pub fn b(v: bool) -> Value {
        Value::Bool(v)
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => write_json_string(s, out),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::UInt(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// What kind of record an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (paired with a later [`EventKind::SpanClose`] carrying
    /// the same `span` id).
    SpanOpen,
    /// A span closed; its fields include `elapsed_ns`.
    SpanClose,
    /// A point-in-time structured event.
    Instant,
    /// A counter increment; its [`Payload::Counter`] holds the increment
    /// and the post-increment running total (monotone within a run).
    Counter,
}

/// What an [`Event`] carries beyond its name and fields, by kind: one
/// enum keeps the event narrow, since every recorded event pays for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Payload {
    /// An instant event carries nothing more.
    None,
    /// The span id of a [`EventKind::SpanOpen`] or [`EventKind::SpanClose`].
    Span(u64),
    /// A [`EventKind::Counter`]'s increment and its running total after
    /// it. The total is stamped when the event is read (drained or
    /// snapshotted); until then it is zero.
    Counter {
        /// The increment.
        delta: u64,
        /// The post-increment running total.
        value: u64,
    },
}

impl EventKind {
    /// The `type` string used in the JSONL encoding.
    pub fn type_name(self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Instant => "event",
            EventKind::Counter => "counter",
        }
    }
}

/// One recorded event. `seq` is unique and strictly increasing per
/// recorder; `ts_ns` is nanoseconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Event {
    /// Strictly increasing sequence number.
    pub seq: u64,
    /// Nanoseconds since [`Recorder::new`].
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name (dot-separated, e.g. `driver.attempt`).
    pub name: Name,
    /// The span id or counter amounts the kind carries.
    pub payload: Payload,
    /// Structured fields, in recording order.
    pub fields: Fields,
}

impl Event {
    /// Span id for [`EventKind::SpanOpen`] / [`EventKind::SpanClose`].
    pub fn span(&self) -> Option<u64> {
        match self.payload {
            Payload::Span(id) => Some(id),
            _ => None,
        }
    }

    /// Post-increment running total for [`EventKind::Counter`].
    pub fn value(&self) -> Option<u64> {
        match self.payload {
            Payload::Counter { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Increment for [`EventKind::Counter`].
    pub fn delta(&self) -> Option<u64> {
        match self.payload {
            Payload::Counter { delta, .. } => Some(delta),
            _ => None,
        }
    }

    /// Renders the event as one JSON object (no trailing newline) — the
    /// line format of `--trace out.jsonl`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        out.push_str("\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"ts_ns\":");
        out.push_str(&self.ts_ns.to_string());
        out.push_str(",\"type\":\"");
        out.push_str(self.kind.type_name());
        out.push_str("\",\"name\":");
        write_json_string(&self.name, &mut out);
        match self.payload {
            Payload::None => {}
            Payload::Span(id) => {
                out.push_str(",\"span\":");
                out.push_str(&id.to_string());
            }
            Payload::Counter { delta, value } => {
                out.push_str(",\"value\":");
                out.push_str(&value.to_string());
                out.push_str(",\"delta\":");
                out.push_str(&delta.to_string());
            }
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, &mut out);
                out.push(':');
                v.write_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The field named `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal — the
/// same escaping the event stream uses, shared so report writers stay
/// consistent with it.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A point-in-time snapshot of one histogram.
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// log₂ buckets: `buckets[i]` counts observations in `[2^i, 2^(i+1))`
    /// (bucket 0 counts zeros and ones).
    pub buckets: [u64; 64],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 64],
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimate of the q-quantile (q in 0..=100): the rank is located in
    /// its log₂ bucket and the value interpolated linearly by rank
    /// position within that bucket's bounds, clamped to the observed
    /// `min`/`max`. Still an estimate (the true distribution inside a
    /// bucket is unknown) but no longer biased to the bucket's upper
    /// bound, so p50 of a tight cluster lands inside the cluster.
    pub fn quantile_upper(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = self
            .count
            .saturating_mul(q.min(100))
            .div_ceil(100)
            .max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo: u64 = if i == 0 { 0 } else { 1u64 << i };
                let hi: u64 = if i == 0 {
                    1
                } else if i >= 63 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                let pos = rank - seen; // 1..=n within this bucket
                let est = lo + (u128::from(hi - lo) * u128::from(pos) / u128::from(n)) as u64;
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Records `weight` observations of `value` (weight 0 is a no-op).
    /// The weighted form backs trace sampling: observing 1-in-N spans
    /// with weight N keeps count/sum/quantile estimates unbiased.
    pub fn record(&mut self, value: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.max = self.max.max(value);
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.count += weight;
        self.sum = self.sum.saturating_add(value.saturating_mul(weight));
        let bucket = (64 - u64::leading_zeros(value.max(1))).saturating_sub(1) as usize;
        self.buckets[bucket.min(63)] += weight;
    }
}

/// A point-in-time copy of a recorder's metric totals — counters and
/// histograms without the event stream.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The total of one counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// the recorder
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Inner {
    seq: u64,
    next_span: u64,
    open_spans: u64,
    events: Vec<Event>,
    /// Index of the first event in `events` not yet folded into
    /// `counters` (see [`Inner::settle`]).
    unsettled: usize,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Inner {
    /// Grows a full event buffer in large steps: Event is a wide
    /// struct, and a hot driver loop pushes hundreds per run.
    fn make_room(events: &mut Vec<Event>) {
        if events.capacity() == events.len() {
            events.reserve(256);
        }
    }

    /// Folds the counter events recorded since the last settle into
    /// the totals, stamping each with its running total. Recording a
    /// counter only appends its event; every reader of totals or
    /// events settles first, so each event is folded exactly once, in
    /// recording order, and off the recording path.
    fn settle(&mut self) {
        for ev in &mut self.events[self.unsettled..] {
            let Payload::Counter { delta, value } = &mut ev.payload else {
                continue;
            };
            let delta = *delta;
            let total = match self.counters.get_mut(ev.name.as_str()) {
                Some(t) => {
                    *t = t.saturating_add(delta);
                    *t
                }
                None => {
                    self.counters.insert(ev.name.to_string(), delta);
                    delta
                }
            };
            *value = total;
        }
        self.unsettled = self.events.len();
    }
}

/// Thread-safe event/metric collector. See the crate docs.
#[derive(Debug)]
pub struct Recorder {
    created: Instant,
    /// Calls to [`Recorder::sample`] so far.
    ticks: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder with an empty buffer.
    pub fn new() -> Recorder {
        Recorder {
            created: Instant::now(),
            ticks: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Systematic 1-in-`every` sampling over this recorder's lifetime:
    /// true for the first call and every `every`-th call after it
    /// (`0`/`1` = every call). The phase is shared by everything
    /// recording here, so the sampled fraction holds across runs no
    /// matter how few attempts each run makes. The tick is a plain
    /// load and store, not a read-modify-write: this runs on every
    /// driver attempt, and calls racing from two threads merely
    /// share a tick, which shifts the phase but not the fraction.
    pub fn sample(&self, every: u64) -> bool {
        let tick = self.ticks.load(Ordering::Relaxed);
        self.ticks.store(tick.wrapping_add(1), Ordering::Relaxed);
        tick.is_multiple_of(every.max(1))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding this mutex cannot corrupt it (only
        // Vec/BTreeMap pushes happen inside); recover the data.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn ts_ns(&self) -> u64 {
        u64::try_from(self.created.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, inner: &mut Inner, mut event: Event) {
        event.seq = inner.seq;
        inner.seq += 1;
        Inner::make_room(&mut inner.events);
        inner.events.push(event);
    }

    /// Records an instant event.
    pub fn event(&self, name: &'static str, fields: impl Into<Fields>) {
        let fields = fields.into();
        let ts_ns = self.ts_ns();
        let mut inner = self.lock();
        let event = Event {
            seq: 0,
            ts_ns,
            kind: EventKind::Instant,
            name: Name::Static(name),
            payload: Payload::None,
            fields,
        };
        self.push(&mut inner, event);
    }

    /// Adds `delta` to counter `name` and records a counter event
    /// carrying the new running total (stamped when the event is
    /// read). Counters only ever increase, so the emitted `value`
    /// sequence is monotone per name.
    pub fn add(&self, name: impl Into<Name>, delta: u64) {
        let ts_ns = self.ts_ns();
        let mut inner = self.lock();
        self.bump(&mut inner, ts_ns, name.into(), delta);
    }

    /// Adds every `(name, delta)` pair under one lock acquisition —
    /// the cheap way to flush a batch of counters accumulated locally
    /// by a hot loop. Each pair still emits its own counter event.
    pub fn add_many(&self, items: impl IntoIterator<Item = (Name, u64)>) {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return;
        }
        let ts_ns = self.ts_ns();
        Self::push_counters(&mut self.lock(), ts_ns, items);
    }

    /// The instant event `name`, then [`Recorder::add_many`]'s
    /// counter events, under one lock acquisition and one clock
    /// read: what a run-end flush records.
    pub fn event_and_add_many(
        &self,
        name: &'static str,
        fields: impl Into<Fields>,
        items: impl IntoIterator<Item = (Name, u64)>,
    ) {
        let fields = fields.into();
        let ts_ns = self.ts_ns();
        let mut inner = self.lock();
        let event = Event {
            seq: 0,
            ts_ns,
            kind: EventKind::Instant,
            name: Name::Static(name),
            payload: Payload::None,
            fields,
        };
        self.push(&mut inner, event);
        Self::push_counters(&mut inner, ts_ns, items);
    }

    fn push_counters(inner: &mut Inner, ts_ns: u64, items: impl IntoIterator<Item = (Name, u64)>) {
        Inner::make_room(&mut inner.events);
        // One `extend` rather than a push per pair: the events are
        // written straight into the buffer, numbered as they go.
        let mut seq = inner.seq;
        inner.events.extend(items.into_iter().map(|(name, delta)| {
            seq += 1;
            Event {
                seq: seq - 1,
                ts_ns,
                kind: EventKind::Counter,
                name,
                payload: Payload::Counter { delta, value: 0 },
                fields: Vec::new(),
            }
        }));
        inner.seq = seq;
    }

    /// Records a counter event; its running total is filled in when
    /// the event is settled.
    fn bump(&self, inner: &mut Inner, ts_ns: u64, name: Name, delta: u64) {
        let event = Event {
            seq: 0,
            ts_ns,
            kind: EventKind::Counter,
            name,
            payload: Payload::Counter { delta, value: 0 },
            fields: Vec::new(),
        };
        self.push(inner, event);
    }

    /// Records one observation (typically nanoseconds) into histogram
    /// `name`. Histograms feed the metrics table only; they do not
    /// emit per-observation events.
    pub fn observe(&self, name: &str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Records `weight` observations of `value` into histogram
    /// `name` under one lock acquisition. The sampling controller
    /// observes 1-in-N spans with weight N so the histogram stays an
    /// unbiased estimate of the full population.
    pub fn observe_n(&self, name: &str, value: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.record(value, weight),
            None => {
                let mut h = HistogramSnapshot::default();
                h.record(value, weight);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// A point-in-time copy of every counter and histogram total.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut inner = self.lock();
        inner.settle();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Opens a span; returns `(id, open_ts_ns)` so the close can
    /// derive the elapsed time from one clock read.
    fn span_open(&self, name: &'static str, fields: Fields) -> (u64, u64) {
        let ts_ns = self.ts_ns();
        let mut inner = self.lock();
        inner.next_span += 1;
        inner.open_spans += 1;
        let id = inner.next_span;
        let event = Event {
            seq: 0,
            ts_ns,
            kind: EventKind::SpanOpen,
            name: Name::Static(name),
            payload: Payload::Span(id),
            fields,
        };
        self.push(&mut inner, event);
        (id, ts_ns)
    }

    fn span_close(&self, id: u64, name: &'static str, open_ts_ns: u64, mut fields: Fields) {
        let ts_ns = self.ts_ns();
        fields.push((
            "elapsed_ns",
            Value::UInt(ts_ns.saturating_sub(open_ts_ns)),
        ));
        let mut inner = self.lock();
        inner.open_spans = inner.open_spans.saturating_sub(1);
        let event = Event {
            seq: 0,
            ts_ns,
            kind: EventKind::SpanClose,
            name: Name::Static(name),
            payload: Payload::Span(id),
            fields,
        };
        self.push(&mut inner, event);
    }

    /// Takes every buffered event, leaving the buffer empty (counters
    /// and histograms keep their totals).
    pub fn drain_events(&self) -> Vec<Event> {
        let mut inner = self.lock();
        inner.settle();
        inner.unsettled = 0;
        std::mem::take(&mut inner.events)
    }

    /// Number of spans currently open (opened but not yet closed).
    pub fn open_spans(&self) -> u64 {
        self.lock().open_spans
    }

    /// Counter totals, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut inner = self.lock();
        inner.settle();
        inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The total of one counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let mut inner = self.lock();
        inner.settle();
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshots, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.lock()
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Renders counters and histograms as an aligned end-of-run
    /// summary (the `--metrics` table).
    pub fn metrics_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let counters = self.counters();
        if !counters.is_empty() {
            let width = counters.iter().map(|(k, _)| k.len()).max().unwrap_or(0).max(7);
            let _ = writeln!(out, "{:<width$} {:>12}", "counter", "total");
            for (name, total) in &counters {
                let _ = writeln!(out, "{name:<width$} {total:>12}");
            }
        }
        let hists = self.histograms();
        if !hists.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let width = hists.iter().map(|(k, _)| k.len()).max().unwrap_or(0).max(9);
            let _ = writeln!(
                out,
                "{:<width$} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            );
            for (name, h) in &hists {
                let _ = writeln!(
                    out,
                    "{name:<width$} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
                    h.count,
                    h.mean(),
                    h.quantile_upper(50),
                    h.quantile_upper(90),
                    h.quantile_upper(99),
                    h.max
                );
            }
        }
        out
    }
}

/// An open span. Dropping it closes the span (so error paths cannot
/// leak an unbalanced open); [`Span::close`] attaches outcome fields.
#[derive(Debug)]
pub struct Span {
    rec: Option<Arc<Recorder>>,
    id: u64,
    name: &'static str,
    open_ts_ns: u64,
}

impl Span {
    /// Opens a span on `rec`; with `None` the span is inert.
    pub fn open(
        rec: Option<&Arc<Recorder>>,
        name: &'static str,
        fields: impl Into<Fields>,
    ) -> Span {
        match rec {
            Some(r) => {
                let (id, open_ts_ns) = r.span_open(name, fields.into());
                Span {
                    rec: Some(Arc::clone(r)),
                    id,
                    name,
                    open_ts_ns,
                }
            }
            None => Span {
                rec: None,
                id: 0,
                name: "",
                open_ts_ns: 0,
            },
        }
    }

    /// An inert span (records nothing).
    pub fn none() -> Span {
        Span::open(None, "", Fields::new())
    }

    /// Nanoseconds since the span opened (zero for an inert span).
    pub fn elapsed_ns(&self) -> u64 {
        match &self.rec {
            Some(r) => r.ts_ns().saturating_sub(self.open_ts_ns),
            None => 0,
        }
    }

    /// Closes the span, attaching `fields` to the close event.
    pub fn close(mut self, fields: impl Into<Fields>) {
        if let Some(rec) = self.rec.take() {
            rec.span_close(self.id, self.name, self.open_ts_ns, fields.into());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            rec.span_close(self.id, self.name, self.open_ts_ns, Fields::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_and_sequenced() {
        let rec = Recorder::new();
        rec.add("a", 3);
        rec.add("a", 0);
        rec.add("a", 5);
        assert_eq!(rec.counter("a"), 8);
        let events = rec.drain_events();
        assert_eq!(events.len(), 3);
        let mut last = 0;
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, EventKind::Counter);
            let v = e.value().unwrap();
            assert!(v >= last, "counter went backwards");
            last = v;
        }
        // draining empties the buffer but keeps totals
        assert!(rec.drain_events().is_empty());
        assert_eq!(rec.counter("a"), 8);
    }

    #[test]
    fn running_totals_are_stamped_once_whenever_read() {
        let rec = Recorder::new();
        rec.add("a", 3);
        // A read between recordings folds what is buffered so far.
        assert_eq!(rec.counter("a"), 3);
        rec.add_many(vec![("a".into(), 2), ("b".into(), 1)]);
        assert_eq!(
            rec.counters(),
            vec![("a".to_string(), 5), ("b".to_string(), 1)]
        );
        rec.add("a", 4);
        let stamped: Vec<(String, Option<u64>)> = rec
            .drain_events()
            .iter()
            .map(|e| (e.name.to_string(), e.value()))
            .collect();
        assert_eq!(
            stamped,
            [("a", 3), ("a", 5), ("b", 1), ("a", 9)]
                .map(|(n, v)| (n.to_string(), Some(v)))
        );
        assert_eq!(rec.snapshot().counter("a"), 9);
    }

    #[test]
    fn an_event_with_counters_records_the_event_first() {
        let rec = Recorder::new();
        rec.add("a", 1);
        rec.event_and_add_many(
            "run.end",
            [("k", Value::u(7))],
            vec![("a".into(), 2), ("b".into(), 3)],
        );
        let events = rec.drain_events();
        let shape: Vec<(String, Option<u64>)> = events
            .iter()
            .map(|e| (e.name.to_string(), e.value()))
            .collect();
        assert_eq!(
            shape,
            [
                ("a", Some(1)),
                ("run.end", None),
                ("a", Some(3)),
                ("b", Some(3))
            ]
            .map(|(n, v)| (n.to_string(), v))
        );
        assert_eq!(events[1].fields, vec![("k", Value::u(7))]);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(events[1].ts_ns, events[3].ts_ns);
    }

    #[test]
    fn sampling_runs_on_across_calls() {
        let rec = Recorder::new();
        let picks: Vec<bool> = (0..7).map(|_| rec.sample(3)).collect();
        assert_eq!(picks, [true, false, false, true, false, false, true]);
        assert!((0..4).all(|_| rec.sample(1)), "1 samples every call");
        assert!(rec.sample(0), "0 samples every call");
    }

    #[test]
    fn names_compare_by_content() {
        let literal = Name::from("search.fused.dispatched.CTP");
        let owned = Name::from(format!("search.fused.dispatched.{}", "CTP"));
        assert_eq!(literal, owned);
        assert_eq!(owned, "search.fused.dispatched.CTP");
        assert_eq!(Name::from("x"), Name::from("x".to_string()));
        assert_eq!(owned.to_string(), "search.fused.dispatched.CTP");
        assert_eq!(Value::str(literal.clone()), Value::Str(owned));
    }

    #[test]
    fn spans_balance_even_when_dropped_early() {
        let rec = Arc::new(Recorder::new());
        let s1 = Span::open(Some(&rec), "outer", &[("k", Value::u(1))]);
        assert_eq!(rec.open_spans(), 1);
        {
            let _s2 = Span::open(Some(&rec), "inner", &[]);
            assert_eq!(rec.open_spans(), 2);
            // dropped here without an explicit close
        }
        assert_eq!(rec.open_spans(), 1);
        s1.close(&[("outcome", Value::str("ok"))]);
        assert_eq!(rec.open_spans(), 0);
        let events = rec.drain_events();
        let opens: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanOpen)
            .map(|e| e.span().unwrap())
            .collect();
        let closes: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanClose)
            .map(|e| e.span().unwrap())
            .collect();
        assert_eq!(opens.len(), 2);
        for id in opens {
            assert!(closes.contains(&id), "span {id} never closed");
        }
        // every close carries elapsed_ns
        for e in events.iter().filter(|e| e.kind == EventKind::SpanClose) {
            assert!(e.field("elapsed_ns").is_some());
        }
    }

    #[test]
    fn jsonl_round_trips_escaping() {
        let rec = Recorder::new();
        rec.event(
            "weird",
            &[
                ("quote", Value::str("a\"b")),
                ("slash", Value::str("a\\b")),
                ("newline", Value::str("a\nb")),
                ("neg", Value::i(-3)),
                ("flag", Value::b(true)),
            ],
        );
        for e in rec.drain_events() {
            let line = e.to_jsonl();
            assert!(!line.contains('\n'), "JSONL lines must be single-line");
            json::validate(&line).unwrap_or_else(|err| panic!("{err}: {line}"));
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let rec = Recorder::new();
        for v in [1u64, 2, 4, 1000, 100_000] {
            rec.observe("ns", v);
        }
        let hists = rec.histograms();
        assert_eq!(hists.len(), 1);
        let (name, h) = &hists[0];
        assert_eq!(name, "ns");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 101_007);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100_000);
        assert!(h.quantile_upper(50) >= 4);
        assert!(h.quantile_upper(100) >= 100_000 / 2);
        let table = rec.metrics_table();
        assert!(table.contains("histogram"), "{table}");
        assert!(table.contains("ns"), "{table}");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let rec = Recorder::new();
        // 100 observations spread across [1024, 2048) — the old
        // bucket-upper-bound estimate returned 2048 for every quantile;
        // interpolation must spread estimates through the bucket.
        for i in 0..100u64 {
            rec.observe("ns", 1024 + i * 10);
        }
        let (_, h) = &rec.histograms()[0];
        let p50 = h.quantile_upper(50);
        let p99 = h.quantile_upper(99);
        assert!((1024..=1600).contains(&p50), "p50 {p50} not interpolated");
        assert!(p99 > p50, "p99 {p99} <= p50 {p50}");
        assert!(p99 <= h.max, "p99 {p99} above observed max");
        assert_eq!(h.quantile_upper(0), h.quantile_upper(1));
        // Degenerate single observation: every quantile is that value.
        let rec = Recorder::new();
        rec.observe("one", 777);
        let (_, h) = &rec.histograms()[0];
        for q in [0, 50, 90, 99, 100] {
            assert_eq!(h.quantile_upper(q), 777);
        }
    }

    #[test]
    fn weighted_observations_scale_counts_and_sums() {
        let rec = Recorder::new();
        rec.observe_n("ns", 100, 8);
        rec.observe_n("ns", 200, 0); // weight 0 records nothing
        let (_, h) = &rec.histograms()[0];
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 800);
        assert_eq!((h.min, h.max), (100, 100));
        assert_eq!(h.mean(), 100);
        assert_eq!(h.quantile_upper(99), 100);
    }

    #[test]
    fn snapshots_copy_counter_and_histogram_totals() {
        let rec = Recorder::new();
        rec.add("driver.attempts", 3);
        rec.add("driver.attempts", 2);
        rec.observe("driver.search_ns", 100);
        rec.observe("driver.search_ns", 300);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("driver.attempts"), 5);
        assert_eq!(snap.counter("never.seen"), 0);
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "driver.search_ns")
            .unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 400);
    }

    #[test]
    fn jsonl_round_trips_hostile_names_and_values() {
        let rec = Recorder::new();
        rec.event(
            "weird.\u{1}control\"quote\\slash\tname-ключ-名前",
            &[("value", Value::str("v\u{0}null\u{1f}unit\r\n\"квота\"-引用"))],
        );
        rec.add(
            Name::from("counter.\u{2}stx-\u{7f}-обл-🚀".to_string()),
            3,
        );
        for e in rec.drain_events() {
            let line = e.to_jsonl();
            assert!(!line.contains('\n'), "JSONL lines must be single-line");
            let v = json::parse(&line).unwrap_or_else(|err| panic!("{err}: {line}"));
            // Decoding the line gives back the exact original strings.
            assert_eq!(
                v.get("name").and_then(json::Json::as_str),
                Some(e.name.as_ref())
            );
            if let Some(Value::Str(s)) = e.field("value") {
                let decoded = v
                    .get("fields")
                    .and_then(|f| f.get("value"))
                    .and_then(json::Json::as_str);
                assert_eq!(decoded, Some(s.as_ref()));
            }
        }
    }

    #[test]
    fn recorder_is_thread_safe() {
        let rec = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    rec.add("shared", 1);
                    let s = Span::open(Some(&rec), "t", &[]);
                    s.close(&[]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.counter("shared"), 400);
        assert_eq!(rec.open_spans(), 0);
        let events = rec.drain_events();
        // seq is unique and strictly increasing after the internal sort
        // order (events were pushed under one lock).
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}
