//! End-to-end tests of the bounded model checker: clean scenarios
//! verify exhaustively, seeded bugs yield minimal replayable
//! counterexamples, and the reductions are both sound and worthwhile.

use drt_proto::SeededBug;
use verify::checker::{check, replay, CheckConfig};
use verify::scenario;

#[test]
fn clean_scenarios_verify_exhaustively() {
    let cfg = CheckConfig::default();
    for s in scenario::all() {
        let report = check(&s, SeededBug::None, &cfg);
        assert!(
            report.ok(),
            "{}: unexpected violation: {:?}",
            s.name,
            report.counterexample
        );
        assert!(report.stats.runs > 100, "{}: trivial exploration", s.name);
        assert!(report.stats.distinct_states > 0, "{}: no states", s.name);
    }
}

#[test]
fn depth_ten_failover_check_is_clean_and_reduced_at_least_2x() {
    // The acceptance bar: the 3-node setup+failover scenario, explored
    // to depth >= 10, zero violations, and the reductions must save at
    // least 2x over the unreduced baseline.
    let s = scenario::three_node_failover();
    let cfg = CheckConfig {
        depth: 10,
        ..CheckConfig::default()
    };
    let reduced = check(&s, SeededBug::None, &cfg);
    assert!(reduced.ok(), "violation: {:?}", reduced.counterexample);
    let base = check(&s, SeededBug::None, &cfg.baseline());
    assert!(base.ok(), "baseline found what reduced missed");
    let ratio = base.stats.runs as f64 / reduced.stats.runs as f64;
    assert!(
        ratio >= 2.0,
        "reduction only {ratio:.2}x ({} vs {} runs)",
        base.stats.runs,
        reduced.stats.runs
    );
    assert_eq!(base.stats.pruned, 0);
    assert_eq!(base.stats.por_skips, 0);
    assert!(reduced.stats.pruned > 0 && reduced.stats.por_skips > 0);
}

#[test]
fn depth_ten_overlap_scenarios_are_clean_with_two_faults() {
    // The correlated-failure acceptance bar: the burst that severs the
    // primary together with the chosen backup, and the router crash
    // whose report fan-in hits the source twice, both explored to depth
    // >= 10 with a 2-fault budget, zero violations in every reachable
    // intermediate state.
    let cfg = CheckConfig {
        depth: 10,
        max_faults: 2,
        ..CheckConfig::default()
    };
    for s in [
        scenario::overlapping_burst_switch(),
        scenario::node_crash_fanin(),
    ] {
        let report = check(&s, SeededBug::None, &cfg);
        assert!(
            report.ok(),
            "{}: unexpected violation: {:?}",
            s.name,
            report.counterexample
        );
        assert!(report.stats.runs > 100, "{}: trivial exploration", s.name);
    }
}

#[test]
fn double_register_bug_yields_minimal_replayable_counterexample() {
    let s = scenario::three_node_failover();
    let report = check(&s, SeededBug::DoubleRegister, &CheckConfig::default());
    let cx = report
        .counterexample
        .expect("seeded double-register must be caught");
    assert_eq!(
        cx.faults(),
        1,
        "counterexample not minimal: {:?}",
        cx.script
    );
    assert_eq!(cx.violation.rule, "quiescent-aplv");
    let replayed = cx
        .replay(&s, SeededBug::DoubleRegister)
        .expect("counterexample must replay");
    assert_eq!(replayed.rule, cx.violation.rule);
    assert!(replay(&s, SeededBug::None, &cx.script).is_none());
}

#[test]
fn reductions_do_not_change_any_verdict() {
    // Soundness spot-check: with and without reductions, every
    // (scenario, bug) pair gets the same clean/violated verdict.
    let cfg = CheckConfig {
        depth: 8,
        max_faults: 2,
        ..CheckConfig::default()
    };
    for s in scenario::all() {
        for bug in [
            SeededBug::None,
            SeededBug::DoubleRegister,
            SeededBug::TrustReports,
        ] {
            let reduced = check(&s, bug, &cfg);
            let base = check(&s, bug, &cfg.baseline());
            assert_eq!(
                reduced.ok(),
                base.ok(),
                "{}/{bug:?}: reduced {:?} vs baseline {:?}",
                s.name,
                reduced.counterexample,
                base.counterexample
            );
            if let (Some(r), Some(b)) = (&reduced.counterexample, &base.counterexample) {
                assert_eq!(r.faults(), b.faults(), "{}/{bug:?}", s.name);
            }
        }
    }
}

#[test]
fn exploration_is_deterministic() {
    let s = scenario::three_node_failover();
    let cfg = CheckConfig::default();
    let a = check(&s, SeededBug::None, &cfg);
    let b = check(&s, SeededBug::None, &cfg);
    assert_eq!(a.stats.runs, b.stats.runs);
    assert_eq!(a.stats.steps, b.stats.steps);
    assert_eq!(a.stats.pruned, b.stats.pruned);
    assert_eq!(a.stats.distinct_states, b.stats.distinct_states);
}
