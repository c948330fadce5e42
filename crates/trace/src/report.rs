//! Cross-run trace analytics: folds one or more JSONL traces (the
//! `--trace out.jsonl` format) into an aggregated report — span-tree
//! wall-clock attribution by phase, per-optimizer match funnels,
//! interpolated latency quantiles, and degradation/retry/parole
//! incidence — and diffs two reports for regression gating. The CLI
//! `report --baseline` and `gospel-bench`'s timing gates both decide
//! through [`compare_metrics`], so every numeric gate shares one rule.

use crate::json::{self, Json};
use crate::{write_json_string, HistogramSnapshot};
use std::collections::BTreeMap;

/// One trace event decoded from a JSONL line. Unlike [`crate::Event`]
/// this owns every string (field keys in live events are `&'static
/// str`; a parsed trace has no statics to borrow from).
#[derive(Clone, Debug)]
pub struct ParsedEvent {
    /// `span_open` / `span_close` / `event` / `counter`.
    pub kind: String,
    /// Event name.
    pub name: String,
    /// Span id, for span events.
    pub span: Option<u64>,
    /// Running total, for counter events.
    pub value: Option<u64>,
    /// Increment, for counter events.
    pub delta: Option<u64>,
    /// Structured fields.
    pub fields: Vec<(String, Json)>,
}

impl ParsedEvent {
    /// The field named `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Json::as_u64)
    }
}

/// Parses a whole JSONL trace (one event object per non-empty line).
///
/// # Errors
///
/// Returns `line N: <syntax error>` for the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: event has no `type`", i + 1))?
            .to_string();
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: event has no `name`", i + 1))?
            .to_string();
        let fields = match v.get("fields").and_then(Json::members) {
            Some(members) => members.to_vec(),
            None => Vec::new(),
        };
        events.push(ParsedEvent {
            kind,
            name,
            span: v.get("span").and_then(Json::as_u64),
            value: v.get("value").and_then(Json::as_u64),
            delta: v.get("delta").and_then(Json::as_u64),
            fields,
        });
    }
    Ok(events)
}

/// Wall-clock attribution for one span name ("phase").
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Span name (e.g. `driver.attempt`).
    pub name: String,
    /// Number of closed spans.
    pub spans: u64,
    /// Sum of elapsed time, children included.
    pub total_ns: u64,
    /// Sum of self time (elapsed minus time in child spans) — the
    /// column that adds up to wall clock across phases.
    pub self_ns: u64,
    /// Per-span elapsed distribution, for interpolated quantiles.
    pub latency: HistogramSnapshot,
}

/// One optimizer's match funnel: phase name → total, in funnel order.
#[derive(Clone, Debug)]
pub struct FunnelRow {
    /// Optimizer name.
    pub optimizer: String,
    /// `(phase, total)` pairs in canonical funnel order.
    pub phases: Vec<(String, u64)>,
}

impl FunnelRow {
    /// The total for one funnel phase (zero when absent).
    pub fn phase(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|(p, _)| p == name)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

/// Canonical order of funnel phases in reports; phases outside this
/// list sort after it, alphabetically.
const FUNNEL_ORDER: [&str; 7] = [
    "classified",
    "admitted",
    "matched",
    "dep_checked",
    "applied",
    "validated",
    "rolled_back",
];

/// `(label, counter prefix)` pairs folded into the incident summary.
const INCIDENTS: [(&str, &str); 6] = [
    ("degraded_searches", "search.degraded"),
    ("transient_retries", "guard.transient_retries"),
    ("parole_returns", "guard.parole"),
    ("quarantines", "guard.quarantines"),
    ("guard_rollbacks", "guard.rollbacks"),
    ("action_rollbacks", "driver.action_rollbacks"),
];

/// An aggregated view over one or more traces. Build with
/// [`Report::build`], render with [`Report::to_text`] /
/// [`Report::to_json`], diff with [`compare`].
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Number of traces folded in.
    pub traces: usize,
    /// Total events across all traces.
    pub events: u64,
    /// Per-phase wall-clock attribution, largest self time first.
    pub phases: Vec<PhaseRow>,
    /// Per-optimizer match funnels, alphabetical.
    pub funnels: Vec<FunnelRow>,
    /// Every counter total (deltas summed across traces).
    pub counters: BTreeMap<String, u64>,
    /// `(label, total)` incidence rows, in a fixed order: degraded
    /// searches, transient retries, parole returns, quarantines, guard
    /// rollbacks and action rollbacks.
    pub incidents: Vec<(String, u64)>,
    /// Total search time reported by `driver.attempt` closes,
    /// sample-weight corrected.
    pub match_ns: u64,
    /// Pattern-matching share of [`Report::match_ns`].
    pub pattern_ns: u64,
}

impl Report {
    /// Folds parsed traces into one report.
    pub fn build(traces: &[Vec<ParsedEvent>]) -> Report {
        let mut phase_stats: BTreeMap<String, PhaseRow> = BTreeMap::new();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut events: u64 = 0;
        let mut degraded_events: u64 = 0;
        let mut match_ns: u64 = 0;
        let mut pattern_ns: u64 = 0;

        for trace in traces {
            // Open-span stack for self-time attribution. Spans nest
            // LIFO within one trace stream, and a recorder never reuses
            // a span id.
            let mut stack: Vec<(u64, u64)> = Vec::new(); // (span id, child_ns)
            for ev in trace {
                events += 1;
                match ev.kind.as_str() {
                    "span_open" => {
                        if let Some(id) = ev.span {
                            stack.push((id, 0));
                        }
                    }
                    "span_close" => {
                        let elapsed = ev.field_u64("elapsed_ns").unwrap_or(0);
                        let child_ns = match ev.span.and_then(|id| {
                            stack.iter().rposition(|(open, _)| *open == id)
                        }) {
                            Some(at) => {
                                // Anything above `at` was opened later and
                                // never closed (a truncated trace); drop it.
                                let (_, child_ns) = stack[at];
                                stack.truncate(at);
                                child_ns
                            }
                            None => 0,
                        };
                        if let Some((_, parent_child_ns)) = stack.last_mut() {
                            *parent_child_ns = parent_child_ns.saturating_add(elapsed);
                        }
                        let row = phase_stats.entry(ev.name.clone()).or_insert_with(|| {
                            PhaseRow {
                                name: ev.name.clone(),
                                spans: 0,
                                total_ns: 0,
                                self_ns: 0,
                                latency: HistogramSnapshot::default(),
                            }
                        });
                        row.spans += 1;
                        row.total_ns = row.total_ns.saturating_add(elapsed);
                        row.self_ns = row
                            .self_ns
                            .saturating_add(elapsed.saturating_sub(child_ns));
                        row.latency.record(elapsed, 1);
                        if ev.name == "driver.attempt" {
                            let weight = ev.field_u64("sample").unwrap_or(1).max(1);
                            match_ns = match_ns.saturating_add(
                                ev.field_u64("search_ns").unwrap_or(0).saturating_mul(weight),
                            );
                            pattern_ns = pattern_ns.saturating_add(
                                ev.field_u64("pattern_ns")
                                    .unwrap_or(0)
                                    .saturating_mul(weight),
                            );
                        }
                    }
                    "counter" => {
                        *counters.entry(ev.name.clone()).or_insert(0) +=
                            ev.delta.unwrap_or(0);
                    }
                    _ => {
                        if ev.name == "search.degraded" {
                            degraded_events += 1;
                        }
                    }
                }
            }
        }

        let mut phases: Vec<PhaseRow> = phase_stats.into_values().collect();
        phases.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));

        // funnel.<OPT>.<phase> counters → per-optimizer rows.
        let mut funnel_map: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for (name, total) in &counters {
            if let Some(rest) = name.strip_prefix("funnel.") {
                if let Some((opt, phase)) = rest.split_once('.') {
                    funnel_map
                        .entry(opt.to_string())
                        .or_default()
                        .push((phase.to_string(), *total));
                }
            }
        }
        let rank = |p: &str| {
            FUNNEL_ORDER
                .iter()
                .position(|f| *f == p)
                .unwrap_or(FUNNEL_ORDER.len())
        };
        let funnels = funnel_map
            .into_iter()
            .map(|(optimizer, mut phases)| {
                phases.sort_by(|(a, _), (b, _)| rank(a).cmp(&rank(b)).then(a.cmp(b)));
                FunnelRow { optimizer, phases }
            })
            .collect();

        let incidents = INCIDENTS
            .iter()
            .map(|(label, prefix)| {
                let mut total: u64 = counters
                    .iter()
                    .filter(|(n, _)| {
                        n.as_str() == *prefix
                            || n.strip_prefix(prefix)
                                .is_some_and(|rest| rest.starts_with('.'))
                    })
                    .map(|(_, v)| *v)
                    .sum();
                if *label == "degraded_searches" {
                    total = total.max(degraded_events);
                }
                (label.to_string(), total)
            })
            .collect();

        Report {
            traces: traces.len(),
            events,
            phases,
            funnels,
            counters,
            incidents,
            match_ns,
            pattern_ns,
        }
    }

    /// The flat metric map that [`compare`] diffs: funnel totals,
    /// incident counts, phase self-times, match-phase totals, and every
    /// raw counter. Keys ending in `_ns` are compared upward-only
    /// (slower is a regression); everything else is compared in both
    /// directions (count drift is a regression too).
    pub fn metrics(&self) -> BTreeMap<String, u64> {
        let mut m = BTreeMap::new();
        m.insert("events".to_string(), self.events);
        m.insert("match_ns".to_string(), self.match_ns);
        m.insert("pattern_ns".to_string(), self.pattern_ns);
        for row in &self.phases {
            m.insert(format!("phase.{}.self_ns", row.name), row.self_ns);
            m.insert(format!("phase.{}.spans", row.name), row.spans);
        }
        for row in &self.funnels {
            for (phase, total) in &row.phases {
                m.insert(format!("funnel.{}.{phase}", row.optimizer), *total);
            }
        }
        for (label, total) in &self.incidents {
            m.insert(format!("incident.{label}"), *total);
        }
        for (name, total) in &self.counters {
            m.insert(format!("counter.{name}"), *total);
        }
        m
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace report: {} trace(s), {} events",
            self.traces, self.events
        );
        let _ = writeln!(
            out,
            "match phase: {} ns total search, {} ns in pattern matching",
            self.match_ns, self.pattern_ns
        );
        if !self.phases.is_empty() {
            let width = self
                .phases
                .iter()
                .map(|r| r.name.len())
                .max()
                .unwrap_or(0)
                .max(5);
            let _ = writeln!(
                out,
                "\n{:<width$} {:>8} {:>14} {:>14} {:>12} {:>12} {:>12}",
                "phase", "spans", "self_ns", "total_ns", "p50_ns", "p90_ns", "p99_ns"
            );
            for r in &self.phases {
                let _ = writeln!(
                    out,
                    "{:<width$} {:>8} {:>14} {:>14} {:>12} {:>12} {:>12}",
                    r.name,
                    r.spans,
                    r.self_ns,
                    r.total_ns,
                    r.latency.quantile_upper(50),
                    r.latency.quantile_upper(90),
                    r.latency.quantile_upper(99),
                );
            }
        }
        if !self.funnels.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
                "optimizer", "classified", "admitted", "matched", "dep_checked", "applied"
            );
            for r in &self.funnels {
                let _ = writeln!(
                    out,
                    "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
                    r.optimizer,
                    r.phase("classified"),
                    r.phase("admitted"),
                    r.phase("matched"),
                    r.phase("dep_checked"),
                    r.phase("applied"),
                );
            }
        }
        let hot: Vec<&(String, u64)> =
            self.incidents.iter().filter(|(_, n)| *n > 0).collect();
        if !hot.is_empty() {
            let _ = writeln!(out, "\nincidents:");
            for (label, total) in hot {
                let _ = writeln!(out, "  {label}: {total}");
            }
        }
        out
    }

    /// Renders the machine-readable report — the format `--baseline`
    /// reads back (only the `metrics` object is compared, so a
    /// committed baseline may prune machine-dependent `_ns` keys to
    /// gate purely on deterministic counts).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"traces\":{},\"events\":{},\"metrics\":{{",
            self.traces, self.events
        );
        for (i, (k, v)) in self.metrics().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(k, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"funnels\":[");
        for (i, r) in self.funnels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"optimizer\":");
            write_json_string(&r.optimizer, &mut out);
            for (phase, total) in &r.phases {
                out.push(',');
                write_json_string(phase, &mut out);
                let _ = write!(out, ":{total}");
            }
            out.push('}');
        }
        out.push_str("],\"phases\":[");
        for (i, r) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&r.name, &mut out);
            let _ = write!(
                out,
                ",\"spans\":{},\"self_ns\":{},\"total_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                r.spans,
                r.self_ns,
                r.total_ns,
                r.latency.quantile_upper(50),
                r.latency.quantile_upper(90),
                r.latency.quantile_upper(99),
            );
        }
        out.push_str("]}");
        out
    }
}

/// One metric that moved past the threshold.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Metric key (see [`Report::metrics`]).
    pub metric: String,
    /// Baseline value.
    pub baseline: u64,
    /// Current value.
    pub current: u64,
    /// Signed percent change relative to the baseline.
    pub change_pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} -> {} ({:+.1}%)",
            self.metric, self.baseline, self.current, self.change_pct
        )
    }
}

/// Diffs `current` against a baseline report (the [`Report::to_json`]
/// format) under the rule of [`compare_metrics`]. Only metrics present
/// in **both** reports are compared, so a baseline pruned down to
/// deterministic counters gates exactly those.
///
/// # Errors
///
/// Returns an error when the baseline is not valid report JSON.
pub fn compare(
    current: &Report,
    baseline_json: &str,
    threshold_pct: f64,
) -> Result<Vec<Regression>, String> {
    let baseline = json::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let metrics = baseline
        .get("metrics")
        .and_then(Json::members)
        .ok_or_else(|| "baseline: no `metrics` object".to_string())?;
    let baseline: BTreeMap<String, u64> = metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect();
    Ok(compare_metrics(
        &current.metrics(),
        &baseline,
        threshold_pct,
    ))
}

/// The one regression rule every numeric gate uses: `trace report
/// --baseline` over trace metrics, and `gospel-bench` over its timed
/// arms. Compares the keys present in both maps; a key ending in `_ns`
/// regresses only upward (slower), any other key on drift in either
/// direction, and a change regresses when it is strictly greater than
/// `threshold_pct` percent of the baseline (from a zero baseline, any
/// nonzero value). Largest change first.
pub fn compare_metrics(
    current: &BTreeMap<String, u64>,
    baseline: &BTreeMap<String, u64>,
    threshold_pct: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for (key, &base) in baseline {
        let Some(&cur) = current.get(key) else {
            continue;
        };
        let time_metric = key.ends_with("_ns");
        let change_pct = if base == 0 {
            if cur == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            // Scaling before dividing keeps an exact percentage exact,
            // so a change of exactly the threshold passes.
            (cur as f64 - base as f64) * 100.0 / base as f64
        };
        let over = change_pct > threshold_pct;
        let under = !time_metric && change_pct < -threshold_pct;
        if over || under {
            regressions.push(Regression {
                metric: key.clone(),
                baseline: base,
                current: cur,
                change_pct,
            });
        }
    }
    regressions.sort_by(|a, b| b.change_pct.abs().total_cmp(&a.change_pct.abs()));
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> String {
        s.to_string()
    }

    fn sample_trace() -> Vec<ParsedEvent> {
        let text = [
            line(r#"{"seq":0,"ts_ns":0,"type":"span_open","name":"driver.attempt","span":1}"#),
            line(r#"{"seq":1,"ts_ns":10,"type":"span_open","name":"dep.update","span":2}"#),
            line(
                r#"{"seq":2,"ts_ns":40,"type":"span_close","name":"dep.update","span":2,"fields":{"elapsed_ns":30}}"#,
            ),
            line(
                r#"{"seq":3,"ts_ns":100,"type":"span_close","name":"driver.attempt","span":1,"fields":{"outcome":"applied","search_ns":50,"pattern_ns":20,"elapsed_ns":100}}"#,
            ),
            line(r#"{"seq":4,"ts_ns":100,"type":"counter","name":"funnel.CTP.classified","value":8,"delta":8}"#),
            line(r#"{"seq":5,"ts_ns":100,"type":"counter","name":"funnel.CTP.admitted","value":3,"delta":3}"#),
            line(r#"{"seq":6,"ts_ns":100,"type":"counter","name":"funnel.CTP.matched","value":2,"delta":2}"#),
            line(r#"{"seq":7,"ts_ns":100,"type":"counter","name":"funnel.CTP.applied","value":1,"delta":1}"#),
            line(r#"{"seq":8,"ts_ns":100,"type":"counter","name":"guard.transient_retries","value":2,"delta":2}"#),
            line(r#"{"seq":9,"ts_ns":100,"type":"event","name":"search.degraded"}"#),
        ]
        .join("\n");
        parse_trace(&text).unwrap()
    }

    #[test]
    fn attributes_self_time_and_funnels() {
        let report = Report::build(&[sample_trace()]);
        assert_eq!(report.traces, 1);
        assert_eq!(report.events, 10);
        assert_eq!(report.match_ns, 50);
        assert_eq!(report.pattern_ns, 20);
        let attempt = report
            .phases
            .iter()
            .find(|p| p.name == "driver.attempt")
            .unwrap();
        assert_eq!(attempt.total_ns, 100);
        assert_eq!(attempt.self_ns, 70, "child dep.update must be subtracted");
        let dep = report.phases.iter().find(|p| p.name == "dep.update").unwrap();
        assert_eq!(dep.self_ns, 30);
        let ctp = report
            .funnels
            .iter()
            .find(|f| f.optimizer == "CTP")
            .unwrap();
        assert_eq!(ctp.phase("classified"), 8);
        assert_eq!(ctp.phase("admitted"), 3);
        assert_eq!(ctp.phase("matched"), 2);
        assert_eq!(ctp.phase("applied"), 1);
        let retries = report
            .incidents
            .iter()
            .find(|(l, _)| l == "transient_retries")
            .unwrap();
        assert_eq!(retries.1, 2);
        let degraded = report
            .incidents
            .iter()
            .find(|(l, _)| l == "degraded_searches")
            .unwrap();
        assert_eq!(degraded.1, 1, "instant degraded events count as incidence");
    }

    #[test]
    fn two_traces_sum_and_sampling_scales() {
        let sampled = parse_trace(
            r#"{"seq":0,"ts_ns":0,"type":"span_open","name":"driver.attempt","span":1}
{"seq":1,"ts_ns":9,"type":"span_close","name":"driver.attempt","span":1,"fields":{"search_ns":10,"pattern_ns":4,"sample":4,"elapsed_ns":9}}"#,
        )
        .unwrap();
        let report = Report::build(&[sample_trace(), sampled]);
        assert_eq!(report.traces, 2);
        assert_eq!(report.match_ns, 50 + 40, "sampled span scales by weight");
        assert_eq!(report.pattern_ns, 20 + 16);
    }

    #[test]
    fn report_json_round_trips_and_compare_flags_regressions() {
        let base = Report::build(&[sample_trace()]);
        let baseline_json = base.to_json();
        json::validate(&baseline_json).unwrap();

        // Identical run: nothing regresses.
        assert!(compare(&base, &baseline_json, 10.0).unwrap().is_empty());

        // Inflate match time by 50%: an upward _ns regression.
        let mut slow = base.clone();
        slow.match_ns = slow.match_ns * 3 / 2;
        let regs = compare(&slow, &baseline_json, 20.0).unwrap();
        assert!(regs.iter().any(|r| r.metric == "match_ns"), "{regs:?}");

        // Faster is NOT a regression for _ns metrics...
        let mut fast = base.clone();
        fast.match_ns /= 2;
        assert!(compare(&fast, &baseline_json, 20.0)
            .unwrap()
            .iter()
            .all(|r| r.metric != "match_ns"));

        // ...but count drift regresses in both directions.
        let mut drifted = base.clone();
        for f in &mut drifted.funnels {
            for (_, v) in &mut f.phases {
                *v = 0;
            }
        }
        let regs = compare(&drifted, &baseline_json, 20.0).unwrap();
        assert!(
            regs.iter().any(|r| r.metric.starts_with("funnel.CTP.")),
            "{regs:?}"
        );
    }

    #[test]
    fn compare_skips_metrics_missing_from_either_side() {
        let base = Report::build(&[sample_trace()]);
        // A pruned baseline gating only on one deterministic counter.
        let baseline = r#"{"metrics":{"funnel.CTP.applied":1,"not.a.metric":99}}"#;
        assert!(compare(&base, baseline, 5.0).unwrap().is_empty());
    }

    fn map(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn flagged(current: &[(&str, u64)], baseline: &[(&str, u64)], pct: f64) -> Vec<String> {
        compare_metrics(&map(current), &map(baseline), pct)
            .into_iter()
            .map(|r| r.metric)
            .collect()
    }

    #[test]
    fn compare_metrics_pins_the_rule_at_its_boundaries() {
        // Threshold 0: an equal time passes, one nanosecond more fails,
        // and a faster time never does.
        assert!(flagged(&[("a_ns", 1000)], &[("a_ns", 1000)], 0.0).is_empty());
        assert_eq!(flagged(&[("a_ns", 1001)], &[("a_ns", 1000)], 0.0), ["a_ns"]);
        assert!(flagged(&[("a_ns", 999)], &[("a_ns", 1000)], 0.0).is_empty());
        // A change of exactly the threshold passes; past it fails.
        assert!(flagged(&[("a_ns", 1050)], &[("a_ns", 1000)], 5.0).is_empty());
        assert_eq!(flagged(&[("a_ns", 1051)], &[("a_ns", 1000)], 5.0), ["a_ns"]);
        // A count drifting by one either way fails.
        for drifted in [999, 1001] {
            assert_eq!(flagged(&[("n", drifted)], &[("n", 1000)], 0.0), ["n"]);
        }
        assert_eq!(flagged(&[("n", 9)], &[("n", 10)], 5.0), ["n"]);
        assert_eq!(flagged(&[("n", 11)], &[("n", 10)], 5.0), ["n"]);
        // From a zero baseline any nonzero value fails, at any threshold.
        for key in ["n", "a_ns"] {
            assert_eq!(flagged(&[(key, 1)], &[(key, 0)], 1e9), [key]);
            assert!(flagged(&[(key, 0)], &[(key, 0)], 0.0).is_empty());
        }
        // Keys missing from either side are not compared; the largest
        // change comes first.
        assert_eq!(
            flagged(
                &[("a_ns", 110), ("b_ns", 300), ("c", 1)],
                &[("a_ns", 100), ("b_ns", 100), ("d", 1)],
                5.0
            ),
            ["b_ns", "a_ns"]
        );
    }

    #[test]
    fn compare_is_compare_metrics_over_the_parsed_baseline() {
        let base = Report::build(&[sample_trace()]);
        let mut slow = base.clone();
        slow.match_ns += 7;
        for f in &mut slow.funnels {
            for (_, v) in &mut f.phases {
                *v += 1;
            }
        }
        for pct in [0.0, 5.0, 20.0] {
            let via_json: Vec<String> = compare(&slow, &base.to_json(), pct)
                .unwrap()
                .iter()
                .map(ToString::to_string)
                .collect();
            let direct: Vec<String> = compare_metrics(&slow.metrics(), &base.metrics(), pct)
                .iter()
                .map(ToString::to_string)
                .collect();
            assert_eq!(via_json, direct, "threshold {pct}");
            assert!(!direct.is_empty(), "threshold {pct}");
        }
    }

    /// An attempt span with a `dep.update` child of `dep_ns`; the
    /// attempt's own self time is 70 ns whatever `dep_ns` is.
    fn attempt_with_dep_update(dep_ns: u64) -> Vec<ParsedEvent> {
        let total = 70 + dep_ns;
        parse_trace(&format!(
            r#"{{"seq":0,"ts_ns":0,"type":"span_open","name":"driver.attempt","span":1}}
{{"seq":1,"ts_ns":10,"type":"span_open","name":"dep.update","span":2}}
{{"seq":2,"ts_ns":20,"type":"span_close","name":"dep.update","span":2,"fields":{{"elapsed_ns":{dep_ns}}}}}
{{"seq":3,"ts_ns":30,"type":"span_close","name":"driver.attempt","span":1,"fields":{{"search_ns":50,"pattern_ns":20,"elapsed_ns":{total}}}}}
{{"seq":4,"ts_ns":30,"type":"counter","name":"funnel.CTP.applied","value":1,"delta":1}}"#
        ))
        .unwrap()
    }

    #[test]
    fn a_slower_layer_is_located_by_its_self_time() {
        let base = Report::build(&[attempt_with_dep_update(30)]);
        let slow = Report::build(&[attempt_with_dep_update(300)]);
        let regs = compare_metrics(&slow.metrics(), &base.metrics(), 5.0);
        let names: Vec<&str> = regs.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(names, ["phase.dep.update.self_ns"], "{regs:?}");
    }

    #[test]
    fn parse_trace_reports_line_numbers() {
        let err = parse_trace("{\"type\":\"event\",\"name\":\"x\"}\nnot json").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
