//! Trace-contract tests: invariants every recorded event stream must
//! satisfy, checked over a real end-to-end run (the full catalog chained
//! over every suite workload under a [`GuardedSession`], plus a broken
//! optimizer to exercise the rejection path).
//!
//! The contract:
//! 1. Counter events carry monotone running totals (`value` never
//!    decreases, and each equals the previous total plus `delta`).
//! 2. Spans balance: every `span_open` has exactly one matching
//!    `span_close`, and nothing stays open at the end of a run.
//! 3. A `guard.rollback` is always *caused*: it must be preceded by a
//!    `guard.validate` event with `outcome == "fail"` (user-requested
//!    restores are the separate `guard.user_rollback` event).
//! 4. Every event serializes to one line of valid JSONL.

use std::collections::HashMap;
use std::sync::Arc;

use genesis::{ApplyMode, FaultKind, FaultPlan, MatcherKind, Session, SessionOptions};
use genesis_guard::{GuardConfig, GuardOutcome, GuardedSession};
use gospel_opts::interaction::natural_mode;
use gospel_trace::{Event, EventKind, Recorder, Value};

/// CTP without its reaching-definition guard — wrong on two-def programs,
/// so translation validation rejects it and the rollback path fires.
const BROKEN_CTP: &str = r#"
OPTIMIZATION CTP
TYPE
  Stmt: Si, Sj;
PRECOND
  Code_Pattern
    any Si: Si.opc == assign AND type(Si.opr_2) == const;
  Depend
    any (Sj, pos): flow_dep(Si, Sj, (=))
                   AND operand(Sj, pos) == Si.opr_1;
ACTION
  modify(operand(Sj, pos), Si.opr_2);
END
"#;

const TWO_DEFS: &str = "\
program t
  integer c, x, y
  read c
  x = 3
  if (c > 0) then
    x = 4
  end if
  y = x
  write y
end
";

/// Runs the whole catalog over every workload with a recorder attached
/// and returns the drained event stream.
fn record_suite_run() -> (Arc<Recorder>, Vec<Event>) {
    let rec = Arc::new(Recorder::new());
    for (_name, prog) in gospel_workloads::suite() {
        let mut gs = GuardedSession::new(prog, GuardConfig::default());
        gs.set_recorder(Some(rec.clone()));
        let opts = gospel_opts::catalog().expect("catalog generates");
        let modes: Vec<(String, ApplyMode)> = opts
            .iter()
            .map(|o| (o.name.clone(), natural_mode(o)))
            .collect();
        for opt in opts {
            gs.register(opt);
        }
        for (name, mode) in &modes {
            gs.apply(name, *mode).expect("catalog apply");
        }
    }
    let events = rec.drain_events();
    (rec, events)
}

/// Runs the broken CTP on a two-definition program so validation fails.
fn record_rejection_run() -> Vec<Event> {
    let rec = Arc::new(Recorder::new());
    let prog = gospel_frontend::compile(TWO_DEFS).unwrap();
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.set_recorder(Some(rec.clone()));
    gs.register(gospel_opts::compile_spec(BROKEN_CTP).expect("broken spec compiles"));
    let outcome = gs.apply("CTP", ApplyMode::AllPoints).unwrap();
    assert!(
        matches!(outcome, GuardOutcome::Rejected(_)),
        "the broken spec must be rejected for this fixture to mean anything: {outcome:?}"
    );
    rec.drain_events()
}

fn assert_counters_monotone(events: &[Event]) {
    let mut totals: HashMap<String, u64> = HashMap::new();
    for e in events {
        if e.kind != EventKind::Counter {
            continue;
        }
        let value = e.value().unwrap_or_else(|| panic!("{}: counter without value", e.name));
        let delta = e.delta().unwrap_or_else(|| panic!("{}: counter without delta", e.name));
        let prev = totals.get(e.name.as_ref()).copied().unwrap_or(0);
        assert!(
            value >= prev,
            "{}: counter total went backwards ({prev} -> {value})",
            e.name
        );
        assert_eq!(
            value,
            prev + delta,
            "{}: running total does not equal previous + delta",
            e.name
        );
        totals.insert(e.name.to_string(), value);
    }
    assert!(
        totals.contains_key("driver.applications"),
        "a full-suite run must bump driver.applications"
    );
}

fn assert_spans_balanced(events: &[Event]) {
    let mut open: HashMap<u64, &str> = HashMap::new();
    let mut closed = 0usize;
    for e in events {
        match e.kind {
            EventKind::SpanOpen => {
                let id = e.span().expect("span_open without id");
                assert!(
                    open.insert(id, e.name.as_ref()).is_none(),
                    "span id {id} opened twice"
                );
            }
            EventKind::SpanClose => {
                let id = e.span().expect("span_close without id");
                let opened_as = open
                    .remove(&id)
                    .unwrap_or_else(|| panic!("span id {id} closed but never opened"));
                assert_eq!(
                    opened_as,
                    e.name.as_ref(),
                    "span id {id} closed under a different name"
                );
                assert!(
                    e.field("elapsed_ns").is_some(),
                    "{}: span_close must carry elapsed_ns",
                    e.name
                );
                closed += 1;
            }
            _ => {}
        }
    }
    assert!(
        open.is_empty(),
        "spans left open at end of run: {:?}",
        open.values().collect::<Vec<_>>()
    );
    assert!(closed > 0, "a full-suite run must close at least one span");
}

#[test]
fn suite_run_counters_are_monotone_and_spans_balance() {
    let (rec, events) = record_suite_run();
    assert!(!events.is_empty(), "a traced run must record events");
    assert_counters_monotone(&events);
    assert_spans_balanced(&events);
    assert_eq!(rec.open_spans(), 0, "recorder still thinks spans are open");
    // The headline vocabulary must be present in a real run. The suite
    // runs with the matcher at its default (fused), so the session must
    // announce the automaton build, the driver must report its state and
    // visit totals, per-optimizer dispatches must be attributed, and
    // candidate pruning must still fire for the non-exact anchors.
    for needle in [
        "driver.attempt",
        "search.match",
        "dep.update",
        "guard.apply",
        "search.candidates_pruned",
        "automaton.build",
        "search.fused.states",
        "search.fused.visits",
        "search.fused.dispatched.CTP",
    ] {
        assert!(
            events.iter().any(|e| e.name == needle),
            "expected at least one `{needle}` event"
        );
    }
}

#[test]
fn every_rollback_is_preceded_by_a_validation_failure() {
    let events = record_rejection_run();
    let mut last_validate_failed = false;
    let mut rollbacks = 0usize;
    for e in events {
        match e.name.as_ref() {
            "guard.validate" => {
                last_validate_failed =
                    e.field("outcome") == Some(&Value::str("fail"));
            }
            "guard.rollback" => {
                rollbacks += 1;
                assert!(
                    last_validate_failed,
                    "guard.rollback without a preceding guard.validate failure"
                );
                last_validate_failed = false;
            }
            _ => {}
        }
    }
    assert!(rollbacks > 0, "the broken spec must trigger a rollback");
}

/// A copy-propagation cascade the driver applies several times — enough
/// applications for a mid-run fault probe to hit.
const CASCADE: &str = "program d\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend";

/// Skips the dependence refresh after CTP's first application (a scripted
/// stale-graph fault) with the verifier on: the degradation ladder must
/// detect the divergence, heal transparently, and say so in the trace.
fn record_degraded_run() -> Vec<Event> {
    let rec = Arc::new(Recorder::new());
    let prog = gospel_frontend::compile(CASCADE).unwrap();
    let mut cfg = GuardConfig::default();
    cfg.session.verify_deps = true;
    let mut gs = GuardedSession::new(prog, cfg);
    gs.set_recorder(Some(rec.clone()));
    gs.register(gospel_opts::by_name("CTP"));
    gs.set_fault(Some(
        FaultPlan::new(FaultKind::CorruptDeps).for_optimizer("CTP"),
    ));
    let out = gs.apply("CTP", ApplyMode::AllPoints).unwrap();
    assert!(
        out.is_applied(),
        "the ladder must heal the stale graph transparently: {out:?}"
    );
    rec.drain_events()
}

/// Quarantines CTP with an injected panic, earns parole with clean
/// applies of another optimizer, and passes the retrial.
fn record_parole_run() -> Vec<Event> {
    let rec = Arc::new(Recorder::new());
    let prog = gospel_frontend::compile(CASCADE).unwrap();
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.set_recorder(Some(rec.clone()));
    gs.register(gospel_opts::by_name("CTP"));
    gs.register(gospel_opts::by_name("DCE"));
    gs.set_fault(Some(FaultPlan::new(FaultKind::Panic).for_optimizer("CTP")));
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = gs.apply("CTP", ApplyMode::AllPoints).unwrap();
    std::panic::set_hook(hook);
    assert!(
        matches!(&out, GuardOutcome::Rejected(r) if r.quarantined),
        "the injected panic must quarantine CTP: {out:?}"
    );
    gs.set_fault(None);
    let clean_applies = GuardConfig::default().parole_after;
    for _ in 0..clean_applies {
        gs.apply("DCE", ApplyMode::AllPoints).unwrap();
    }
    let out = gs.apply("CTP", ApplyMode::AllPoints).unwrap();
    assert!(out.is_applied(), "the parole trial must apply: {out:?}");
    rec.drain_events()
}

/// One event with `name` carrying `field == value`, or panic.
fn assert_event_with(events: &[Event], name: &str, field: &str, value: &str) {
    assert!(
        events
            .iter()
            .filter(|e| e.name == name)
            .any(|e| e.field(field) == Some(&Value::str(value.to_string()))),
        "expected a `{name}` event with {field}={value}"
    );
}

#[test]
fn degraded_search_announces_its_reason_in_the_trace() {
    let events = record_degraded_run();
    assert_counters_monotone(&events);
    assert_spans_balanced(&events);
    assert_event_with(&events, "search.degraded", "reason", "dep_divergence");
    let healed: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == "search.degraded.dep_divergence")
        .filter_map(|e| e.delta())
        .sum();
    assert!(healed > 0, "the heal must also surface as a counter");
}

#[test]
fn parole_lifecycle_is_traced_from_trial_to_release() {
    let events = record_parole_run();
    assert_counters_monotone(&events);
    assert_spans_balanced(&events);
    assert_event_with(&events, "guard.parole", "outcome", "trial");
    assert_event_with(&events, "guard.parole", "outcome", "released");
    let paroles: u64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == "guard.parole")
        .filter_map(|e| e.delta())
        .sum();
    assert!(paroles >= 2, "trial and release must both bump guard.parole");
}

#[test]
fn recorded_events_serialize_to_valid_jsonl() {
    let (_rec, mut events) = record_suite_run();
    events.extend(record_rejection_run());
    assert!(!events.is_empty());
    for e in &events {
        let line = e.to_jsonl();
        assert!(
            !line.contains('\n'),
            "{}: JSONL line contains an embedded newline",
            e.name
        );
        gospel_trace::json::validate(&line)
            .unwrap_or_else(|err| panic!("{}: invalid JSONL `{line}`: {err}", e.name));
    }
}

// ---------------------------------------------------------------------------
// Match-funnel invariants.
// ---------------------------------------------------------------------------

/// Sums the `funnel.<OPT>.<phase>` counter deltas of an event stream
/// into a `(optimizer, phase) -> total` map.
fn funnel_totals(events: &[Event]) -> std::collections::BTreeMap<(String, String), u64> {
    let mut totals = std::collections::BTreeMap::new();
    for e in events {
        if e.kind != EventKind::Counter {
            continue;
        }
        let Some(rest) = e.name.as_ref().strip_prefix("funnel.") else {
            continue;
        };
        let Some((opt, phase)) = rest.split_once('.') else {
            continue;
        };
        *totals
            .entry((opt.to_string(), phase.to_string()))
            .or_insert(0) += e.delta().unwrap_or(0);
    }
    totals
}

/// Runs the full catalog chain over every workload under one matcher
/// (and one trace-sampling rate) and returns the funnel totals.
fn funnel_run(matcher: MatcherKind, trace_sample: u64) -> std::collections::BTreeMap<(String, String), u64> {
    let rec = Arc::new(Recorder::new());
    for (_name, prog) in gospel_workloads::suite() {
        let opts = SessionOptions {
            matcher,
            trace_sample,
            ..SessionOptions::default()
        };
        let mut s = Session::with_options(prog, opts);
        s.set_recorder(Some(rec.clone()));
        let catalog = gospel_opts::catalog().expect("catalog generates");
        let modes: Vec<(String, ApplyMode)> = catalog
            .iter()
            .map(|o| (o.name.clone(), natural_mode(o)))
            .collect();
        for opt in catalog {
            s.register(opt);
        }
        for (name, mode) in &modes {
            s.apply(name, *mode).expect("catalog apply");
        }
    }
    funnel_totals(&rec.drain_events())
}

/// The funnel only narrows: per optimizer, classified ≥ admitted ≥
/// matched ≥ applied — both in the aggregated counters and inside each
/// per-run `search.funnel` event.
#[test]
fn funnel_phases_only_narrow() {
    let (_rec, events) = record_suite_run();
    let totals = funnel_totals(&events);
    let opts: std::collections::BTreeSet<&String> =
        totals.keys().map(|(opt, _)| opt).collect();
    assert!(!opts.is_empty(), "the suite run must emit funnel counters");
    let get = |opt: &String, phase: &str| {
        totals
            .get(&(opt.clone(), phase.to_string()))
            .copied()
            .unwrap_or(0)
    };
    for opt in opts {
        let classified = get(opt, "classified");
        let admitted = get(opt, "admitted");
        let matched = get(opt, "matched");
        let applied = get(opt, "applied");
        assert!(
            classified >= admitted && admitted >= matched && matched >= applied,
            "{opt}: funnel widened: classified {classified} -> admitted \
             {admitted} -> matched {matched} -> applied {applied}"
        );
    }
    let uint = |e: &Event, f: &str| match e.field(f) {
        Some(Value::UInt(n)) => *n,
        other => panic!("search.funnel {f}: expected a uint, got {other:?}"),
    };
    let mut seen = 0;
    for e in events.iter().filter(|e| e.name == "search.funnel") {
        seen += 1;
        let classified = uint(e, "classified");
        let admitted = uint(e, "admitted");
        let matched = uint(e, "matched");
        let applied = uint(e, "applied");
        assert!(
            classified >= admitted && admitted >= matched && matched >= applied,
            "search.funnel for {:?} widened: {classified} -> {admitted} \
             -> {matched} -> {applied}",
            e.field("optimizer")
        );
    }
    assert!(seen > 0, "per-run search.funnel events must be emitted");
}

/// The funnel is an account of the *search*, not of the shortcut that
/// produced the candidates: both matchers (and any sampling rate) must
/// report identical totals for the same work.
#[test]
fn funnel_totals_are_matcher_independent() {
    let fused = funnel_run(MatcherKind::Fused, 1);
    let scan = funnel_run(MatcherKind::Scan, 1);
    assert_eq!(fused, scan, "fused vs scan funnel totals diverge");
    // Sampling drops attempt spans, never counter accounting.
    let sampled = funnel_run(MatcherKind::Fused, 7);
    assert_eq!(fused, sampled, "trace sampling changed funnel totals");
}

// ---------------------------------------------------------------------------
// The run ledger: one account, read by the report and the trace alike.
// ---------------------------------------------------------------------------

/// The counters a traced suite sequence records are the sums of the
/// `ApplyReport`s the same runs return, and each run's `search.funnel`
/// event carries the `funnel.<OPT>.<phase>` counts flushed with it.
#[test]
fn ledger_counters_match_the_reports_of_the_same_runs() {
    let rec = Arc::new(Recorder::new());
    let (mut applications, mut cost) = (0u64, genesis::Cost::zero());
    let (mut dropped, mut added, mut pruned) = (0u64, 0u64, 0u64);
    for (_name, prog) in gospel_workloads::suite() {
        let mut s = Session::new(prog);
        s.set_recorder(Some(rec.clone()));
        let catalog = gospel_opts::catalog().expect("catalog generates");
        let modes: Vec<(String, ApplyMode)> = catalog
            .iter()
            .map(|o| (o.name.clone(), natural_mode(o)))
            .collect();
        for opt in catalog {
            s.register(opt);
        }
        for (name, mode) in &modes {
            let report = s.apply(name, *mode).expect("catalog apply");
            applications += report.applications as u64;
            cost += report.cost;
            dropped += report.dep_edges_dropped as u64;
            added += report.dep_edges_added as u64;
            pruned += report.candidates_pruned;
        }
    }
    assert!(
        applications > 0 && added > 0,
        "the suite sequence must apply and refresh"
    );
    for (counter, reported) in [
        ("driver.applications", applications),
        ("cost.pattern_checks", cost.pattern_checks),
        ("cost.dep_checks", cost.dep_checks),
        ("cost.anchor_visits", cost.anchor_visits),
        ("cost.transform_ops", cost.transform_ops),
        ("dep.update.edges_dropped", dropped),
        ("dep.update.edges_added", added),
        ("search.candidates_pruned", pruned),
    ] {
        assert_eq!(rec.counter(counter), reported, "{counter}");
    }

    let events = rec.drain_events();
    let mut runs = 0;
    for (i, e) in events.iter().enumerate() {
        if e.name != "search.funnel" {
            continue;
        }
        runs += 1;
        let Some(Value::Str(opt)) = e.field("optimizer") else {
            panic!("search.funnel without an optimizer: {e:?}");
        };
        let prefix = format!("funnel.{opt}.");
        // The run's counters follow its funnel event in the same flush;
        // zero counts are not recorded.
        let flushed: HashMap<&str, u64> = events[i + 1..]
            .iter()
            .take_while(|c| c.kind == EventKind::Counter)
            .filter_map(|c| Some((c.name.as_ref().strip_prefix(&prefix)?, c.delta()?)))
            .collect();
        for phase in [
            "classified",
            "admitted",
            "matched",
            "dep_checked",
            "applied",
            "rolled_back",
        ] {
            let Some(Value::UInt(field)) = e.field(phase) else {
                panic!("search.funnel {phase}: expected a uint in {e:?}");
            };
            assert_eq!(
                flushed.get(phase).copied().unwrap_or(0),
                *field,
                "{opt} {phase}: the funnel event and its counter disagree"
            );
        }
    }
    assert!(
        runs > 0,
        "the suite sequence must emit search.funnel events"
    );
}
