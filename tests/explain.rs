//! Explain-engine contract over the ten-workload suite: for every
//! workload the explainer agrees with the session's match oracle on
//! *whether* each catalog optimizer fires, and for at least one
//! non-firing optimizer per workload it names the exact automaton
//! edge, format conjunct, or dependence clause that blocks it.

use genesis::{explain, Blocker, Driver, ExplainReport, FusedAutomaton, RtVal, Session};
use gospel_dep::DepGraph;
use gospel_workloads::generator::{self, GenConfig};
use std::collections::BTreeSet;

/// Explain every catalog optimizer against one workload, returning
/// `(optimizer name, report)` in catalog order.
fn explain_all(prog: &gospel_ir::Program) -> Vec<(String, ExplainReport)> {
    let opts = gospel_opts::catalog().expect("catalog compiles");
    let auto = FusedAutomaton::build(&opts, prog);
    let deps = DepGraph::analyze(prog).expect("dependence analysis");
    opts.iter()
        .map(|o| {
            let r = explain(prog, &deps, o, &auto, None).expect("explain runs");
            (o.name.clone(), r)
        })
        .collect()
}

/// The explainer's fired/blocked verdict must agree with the real
/// search (`Session::matches`) for every (workload, optimizer) pair —
/// the narrative walk and the production matcher share one semantics.
#[test]
fn explain_agrees_with_the_match_oracle_on_every_workload() {
    for (name, prog) in gospel_workloads::suite() {
        let mut session = Session::new(prog.clone());
        for opt in gospel_opts::catalog().expect("catalog compiles") {
            session.register(opt);
        }
        for (opt, report) in explain_all(&prog) {
            assert!(!report.truncated, "{name}/{opt}: explain walk truncated");
            let oracle = session.matches(&opt).expect("matches runs");
            assert_eq!(
                report.fired() > 0,
                !oracle.bindings.is_empty(),
                "{name}/{opt}: explain says {} candidate(s) fire but the \
                 driver finds {} application point(s)\n{}",
                report.fired(),
                oracle.bindings.len(),
                report.to_text(),
            );
            // Every candidate either fires or names a concrete blocker;
            // a blocked candidate's narrative is never empty.
            for c in &report.candidates {
                if let Some(b) = &c.blocker {
                    assert!(!b.to_string().is_empty(), "{name}/{opt}: empty narrative");
                }
            }
        }
    }
}

/// Per anchor, explain's verdict is the searcher's: the anchors that
/// FIRE are exactly the first-pattern-variable values of the bindings
/// `Driver::matches_with` finds, for every catalog optimizer on the
/// suite and on the three generated programs of the golden snapshots.
#[test]
fn explain_fires_exactly_at_the_matched_anchors() {
    let mut programs: Vec<(String, gospel_ir::Program)> = gospel_workloads::suite()
        .into_iter()
        .map(|(name, prog)| (name.to_string(), prog))
        .collect();
    for seed in [1, 2, 3] {
        let cfg = GenConfig {
            statements: 150,
            ..GenConfig::default()
        };
        programs.push((format!("gen{seed}"), generator::generate(seed, cfg)));
    }
    let catalog = gospel_opts::catalog().expect("catalog compiles");
    let mut fired = 0;
    for (name, prog) in &programs {
        let deps = DepGraph::analyze(prog).expect("dependence analysis");
        for ((opt, report), compiled) in explain_all(prog).into_iter().zip(&catalog) {
            // The first element of a FIRES candidate: `s4 (assign)`,
            // `L0` or `(L0, L1)`.
            let explained: BTreeSet<String> = report
                .candidates
                .iter()
                .filter(|c| c.blocker.is_none())
                .filter_map(|c| c.anchor.trim_start_matches('(').split([',', ' ']).next())
                .map(str::to_string)
                .collect();
            let var = &compiled.patterns[0].0.vars[0];
            let matched: BTreeSet<String> = Driver::new(compiled)
                .matches_with(prog, &deps)
                .expect("matches runs")
                .bindings
                .iter()
                .map(|b| match b.get(var) {
                    Some(RtVal::Stmt(s)) => s.to_string(),
                    Some(RtVal::Loop(l)) => l.to_string(),
                    other => panic!("{name}/{opt}: anchor bound to {other:?}"),
                })
                .collect();
            assert_eq!(
                explained,
                matched,
                "{name}/{opt}: explain's FIRES anchors differ from the matched anchors\n{}",
                report.to_text()
            );
            fired += explained.len();
        }
    }
    assert!(fired > 0, "no optimizer fired anywhere");
}

/// One pinned non-firing optimizer per workload: the explainer must
/// name the *exact* failing automaton edge, opcode bucket, format
/// conjunct, or dependence clause (text and witness included).
#[test]
fn explain_names_the_exact_blocker_on_every_workload() {
    // (workload, optimizer, expected narrative of the first blocker).
    // Each expectation pins the full rendered text, so any drift in
    // edge rendering, clause pretty-printing, or witness naming fails.
    let expected: &[(&str, &str, &str)] = &[
        (
            "fft",
            "CPP",
            "not admitted: automaton edge `type(opr_2) == var` failed \
             (the operand is const)",
        ),
        (
            "newton",
            "DCE",
            "dependence clause 1 (`no Sj: flow_dep(Si, Sj)`) found a \
             forbidden dependence: Sj = s3",
        ),
        (
            "bisect",
            "ICM",
            "dependence clause 2 (`no Sm: mem(Sm, L), flow_dep(Sm, Si)`) \
             found a forbidden dependence: Sm = s9",
        ),
        (
            "gauss",
            "FUS",
            "format of pattern clause 1 failed at conjunct `L1.lcv == L2.lcv`",
        ),
        (
            "matmul",
            "FUS",
            "dependence clause 1 (`no Sm, Sn: mem(Sm, L1) AND mem(Sn, L2), \
             (flow_dep(Sm, Sn, (>)) OR anti_dep(Sm, Sn, (>))) OR \
             out_dep(Sm, Sn, (>))`) found a forbidden dependence: \
             Sm = s4, Sn = s11",
        ),
        (
            "trapz",
            "LUR",
            "format of pattern clause 1 failed at conjunct `type(L.final) == const`",
        ),
        (
            "fixpnf",
            "DCE",
            "dependence clause 1 (`no Sj: flow_dep(Si, Sj)`) found a \
             forbidden dependence: Sj = s3",
        ),
        (
            "polsys",
            "CFO",
            "not admitted: opcode `assign` is outside the anchor's opcode \
             set {add, sub, mul, div, mod} (rejected at the automaton's \
             root bucket)",
        ),
        (
            "track",
            "DCE",
            "dependence clause 1 (`no Sj: flow_dep(Si, Sj)`) found a \
             forbidden dependence: Sj = s1",
        ),
        (
            "interact",
            "BMP",
            "format of pattern clause 1 failed at conjunct `L.init != 1`",
        ),
    ];
    let suite = gospel_workloads::suite();
    let names: Vec<&str> = suite.iter().map(|(n, _)| *n).collect();
    let covered: Vec<&str> = expected.iter().map(|(w, _, _)| *w).collect();
    assert_eq!(names, covered, "every workload needs a pinned blocker");

    for (workload, opt_name, narrative) in expected {
        let prog = gospel_workloads::program(workload);
        let reports = explain_all(&prog);
        let (_, report) = reports
            .iter()
            .find(|(n, _)| n == opt_name)
            .expect("optimizer is in the catalog");
        assert_eq!(
            report.fired(),
            0,
            "{workload}/{opt_name}: expected a non-firing optimizer\n{}",
            report.to_text()
        );
        let blocker = report
            .first_blocker()
            .unwrap_or_else(|| panic!("{workload}/{opt_name}: no blocker named"));
        assert_eq!(
            blocker.to_string(),
            *narrative,
            "{workload}/{opt_name}: blocker narrative drifted\n{}",
            report.to_text()
        );
    }
}

/// Structural spot-checks: the pinned narratives above come from the
/// right [`Blocker`] variants, one per failure family.
#[test]
fn explain_blockers_carry_structured_fields() {
    // fft / CPP — a discriminator edge on the fused trie path.
    let prog = gospel_workloads::program("fft");
    let reports = explain_all(&prog);
    let cpp = &reports.iter().find(|(n, _)| n == "CPP").unwrap().1;
    assert!(
        matches!(
            cpp.first_blocker(),
            Some(Blocker::EdgeFailed { edge, actual })
                if edge == "type(opr_2) == var" && actual == "const"
        ),
        "fft/CPP: {:?}",
        cpp.first_blocker()
    );
    // gauss / ICM — an `any` Depend clause with no solution at all.
    let prog = gospel_workloads::program("gauss");
    let reports = explain_all(&prog);
    let icm = &reports.iter().find(|(n, _)| n == "ICM").unwrap().1;
    assert!(
        matches!(
            icm.first_blocker(),
            Some(Blocker::DepUnsatisfied { clause: 0, clause_text })
                if clause_text.starts_with("any Si: mem(Si, L)")
        ),
        "gauss/ICM: {:?}",
        icm.first_blocker()
    );
    // matmul / CRC — a non-anchor pattern clause with no witness.
    let prog = gospel_workloads::program("matmul");
    let reports = explain_all(&prog);
    let crc = &reports.iter().find(|(n, _)| n == "CRC").unwrap().1;
    assert!(
        matches!(
            crc.first_blocker(),
            Some(Blocker::NoWitness { clause: 1, .. })
        ),
        "matmul/CRC: {:?}",
        crc.first_blocker()
    );
    // polsys / CFO — rejected at the automaton's root opcode bucket.
    let prog = gospel_workloads::program("polsys");
    let reports = explain_all(&prog);
    let cfo = &reports.iter().find(|(n, _)| n == "CFO").unwrap().1;
    assert!(
        matches!(
            cfo.first_blocker(),
            Some(Blocker::OpcodeMiss { got, expected })
                if got == "assign" && expected.len() == 5
        ),
        "polsys/CFO: {:?}",
        cfo.first_blocker()
    );
}
