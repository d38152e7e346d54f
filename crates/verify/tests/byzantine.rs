//! The byzantine false-report scenario through the model checker: the
//! undefended engine ([`SeededBug::TrustReports`]) has a *provable*
//! phantom-report violation whose minimal counterexample is the lie
//! itself (zero injected chaos faults), and the engine, which always
//! verifies reports, checks the identical operation script clean at the
//! same bounds.

use drt_proto::SeededBug;
use verify::checker::{check, CheckConfig};
use verify::scenario::byzantine_false_report;

fn bounds() -> CheckConfig {
    CheckConfig {
        depth: 8,
        max_faults: 2,
        ..CheckConfig::default()
    }
}

#[test]
fn undefended_lie_is_a_minimal_phantom_report_counterexample() {
    let scenario = byzantine_false_report();
    let report = check(&scenario, SeededBug::TrustReports, &bounds());
    let cx = report
        .counterexample
        .as_ref()
        .expect("the undefended engine must act on the lie");
    assert_eq!(cx.violation.rule, "phantom-report");
    assert_eq!(
        cx.faults(),
        0,
        "the lie alone is the fault: no dropped/duplicated/delayed \
         packet is needed, so BFS finds a fate-free counterexample"
    );
    // The counterexample replays through the ordinary chaos seam.
    let replayed = cx
        .replay(&scenario, SeededBug::TrustReports)
        .expect("replay must reproduce the violation");
    assert_eq!(replayed.rule, "phantom-report");
}

#[test]
fn defended_engine_checks_clean_under_the_same_lie() {
    let scenario = byzantine_false_report();
    let report = check(&scenario, SeededBug::None, &bounds());
    assert!(
        report.ok(),
        "with report verification, every delivery schedule of the \
         same script must satisfy every invariant: {:?}",
        report.counterexample.map(|cx| cx.violation)
    );
    assert!(report.stats.runs > 1, "the space was actually explored");
}
