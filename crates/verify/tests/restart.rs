//! Crash-recovery scenarios through the model checker: an amnesia
//! restart has a *provable* rejoin-restores-primaries violation whose
//! minimal counterexample is the restart itself (zero injected chaos
//! faults); the identical script under journaled recovery checks clean
//! at full default depth, as does a torn-journal crash that degrades
//! its rejoin.

use drt_proto::SeededBug;
use verify::checker::{check, CheckConfig};
use verify::scenario::{restart_rejoin, restart_torn_journal};

fn bounds() -> CheckConfig {
    CheckConfig {
        depth: 8,
        max_faults: 2,
        ..CheckConfig::default()
    }
}

#[test]
fn amnesia_restart_is_a_minimal_counterexample() {
    let scenario = restart_rejoin(false);
    let report = check(&scenario, SeededBug::None, &bounds());
    let cx = report
        .counterexample
        .as_ref()
        .expect("an amnesia restart must lose the primary hop");
    assert_eq!(cx.violation.rule, "rejoin-restores-primaries");
    assert_eq!(
        cx.faults(),
        0,
        "the restart alone is the fault: no dropped/duplicated/delayed \
         packet is needed, so BFS finds a fate-free counterexample"
    );
    // The counterexample replays through the ordinary chaos seam.
    let replayed = cx
        .replay(&scenario, SeededBug::None)
        .expect("replay must reproduce the violation");
    assert_eq!(replayed.rule, "rejoin-restores-primaries");
}

#[test]
fn journaled_restart_checks_clean_at_full_depth() {
    let scenario = restart_rejoin(true);
    // Full default depth (12) and fault budget: the acceptance bar for
    // the journaled recovery path, not just the quick bounds.
    let report = check(&scenario, SeededBug::None, &CheckConfig::default());
    assert!(
        report.ok(),
        "journal replay must restore every surviving primary hop, and \
         the release through it must drain, under every delivery \
         schedule: {:?}",
        report.counterexample.map(|cx| cx.violation)
    );
    assert!(report.stats.runs > 1, "the space was actually explored");
}

#[test]
fn torn_journal_degrades_instead_of_violating() {
    let scenario = restart_torn_journal();
    let report = check(&scenario, SeededBug::None, &bounds());
    assert!(
        report.ok(),
        "a corrupt journal must degrade the rejoin (crashed-router \
         detection), never rejoin on bad state: {:?}",
        report.counterexample.map(|cx| cx.violation)
    );
}
