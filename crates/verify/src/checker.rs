//! Bounded exhaustive exploration of delivery schedules.
//!
//! # State-space model
//!
//! A run of a [`Scenario`] under a quiet control plane is fully
//! deterministic; its only nondeterminism is the *fate* of each
//! multi-hop control-packet delivery. The checker therefore identifies
//! a run with its **fate script**: decision `i` of the run takes
//! `script[i]`, and every decision past the script's end delivers
//! cleanly. The explored space is all scripts that
//!
//! * assign a fault ([`Fate::Drop`] / [`Fate::Duplicate`] /
//!   [`Fate::Delay`]) to positions `< depth`, and
//! * contain at most `max_faults` faults.
//!
//! Scripts are enumerated breadth-first by fault count: the root (clean)
//! run first, then every 1-fault run, and so on. Each parent run's
//! recorded decision log tells the checker which positions exist, so
//! children are generated as `parent ++ clean-padding ++ [fault]` — one
//! new fault strictly after the parent's last. Every fault set is
//! generated exactly once, and the first counterexample found has a
//! minimum number of injected faults.
//!
//! Every run asserts [`drt_proto::ProtocolSim::check_invariants`] at **every**
//! event boundary — always-on ledger/APLV/dedup invariants in each
//! intermediate state, plus exact-accounting invariants at quiescence.
//!
//! # Reductions
//!
//! * **Partial-order reduction.** Result and ack deliveries
//!   (`setup-result`, `release-result`, `switch-result`, `report-ack`)
//!   are *absorbed* when duplicated: the handler removes the
//!   transaction on the first copy and returns without side effects on
//!   the second, so the `Duplicate` branch at those positions is
//!   state-equivalent to `Deliver` and is skipped.
//! * **Fingerprint pruning.** Once a run has consumed its script it is
//!   on a deterministic tail. At every subsequent boundary the engine
//!   state is fingerprinted; if an earlier run visited the same
//!   fingerprint (at the same op index) with at least as much remaining
//!   fault budget *and* remaining branch depth, everything reachable
//!   from here is reachable from that run too, so the current run is
//!   abandoned. Branch positions before the pruned boundary are still
//!   expanded from the decisions recorded so far.
//!
//! Both reductions are sound: disabling them (see
//! [`CheckConfig::baseline`]) explores more runs but can flag no
//! additional violation.

use std::collections::{BTreeMap, VecDeque};

use drt_core::invariants::Violation;
use drt_proto::{Decision, Fate, SeededBug};

use crate::scenario::Scenario;

/// Delivery kinds whose duplicate copy is provably absorbed by
/// transaction gating (`txns.remove` then return): duplicating them is
/// state-equivalent to delivering them once.
pub const ABSORBED_KINDS: [&str; 4] = [
    "setup-result",
    "release-result",
    "switch-result",
    "report-ack",
];

/// The three injectable faults, tried in this order at each position.
const FAULTS: [Fate; 3] = [Fate::Drop, Fate::Duplicate, Fate::Delay];

/// Bounds and toggles for one exploration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Faults may be injected at decision positions `0..depth`.
    pub depth: usize,
    /// Maximum number of injected faults per run.
    pub max_faults: usize,
    /// Skip `Duplicate` branches at absorbed delivery kinds.
    pub por: bool,
    /// Abandon runs whose state fingerprint is dominated.
    pub prune: bool,
    /// Per-run event budget; exceeding it is reported as a violation
    /// (`step-limit`), since a quiet-plane run must quiesce.
    pub max_steps: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            depth: 12,
            max_faults: 3,
            por: true,
            prune: true,
            max_steps: 100_000,
        }
    }
}

impl CheckConfig {
    /// The same bounds with every reduction disabled — the comparison
    /// point for measuring state-space reduction.
    pub fn baseline(&self) -> CheckConfig {
        CheckConfig {
            por: false,
            prune: false,
            ..self.clone()
        }
    }
}

/// Exploration counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Runs executed (including pruned ones).
    pub runs: u64,
    /// Engine events processed across all runs.
    pub steps: u64,
    /// Runs abandoned by fingerprint domination.
    pub pruned: u64,
    /// `Duplicate` branches skipped by partial-order reduction.
    pub por_skips: u64,
    /// Distinct state fingerprints recorded.
    pub distinct_states: usize,
    /// Longest decision log observed in a completed run.
    pub max_decisions: usize,
}

/// A violating run: the fate script that reaches the violation, the
/// violation itself, and the decision log of the failing run.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Minimal fate script reproducing the violation.
    pub script: Vec<Fate>,
    /// The invariant that failed.
    pub violation: Violation,
    /// The failing run's full decision log (kinds, hops, fates).
    pub decisions: Vec<Decision>,
}

impl Counterexample {
    /// Number of injected faults in the script.
    pub fn faults(&self) -> usize {
        self.script.iter().filter(|f| f.is_fault()).count()
    }

    /// Re-executes the script through the ordinary scripted-chaos seam
    /// and returns the violation it reproduces, if any. A genuine
    /// counterexample replays to the same violation rule.
    pub fn replay(&self, scenario: &Scenario, bug: SeededBug) -> Option<Violation> {
        replay(scenario, bug, &self.script)
    }
}

/// The result of one exploration.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Name of the checked scenario.
    pub scenario: &'static str,
    /// Exploration counters.
    pub stats: CheckStats,
    /// First (minimal-fault) violating run found, if any.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    /// `true` when no violation was found.
    pub fn ok(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// How one run ended.
enum RunEnd {
    /// Drained every op to quiescence without violating anything.
    Quiescent { decisions: Vec<Decision> },
    /// An invariant failed.
    Violated {
        violation: Violation,
        decisions: Vec<Decision>,
    },
    /// Abandoned: state dominated by an earlier run.
    Pruned { decisions: Vec<Decision> },
    /// Exceeded the per-run event budget.
    StepLimit,
}

/// One recorded visit: remaining fault budget, remaining branch depth,
/// and the id of the run that recorded it.
type VisitBudget = (usize, usize, u64);

/// Visited-state table: `(op index, fingerprint)` maps to the budgets
/// it was visited with. An entry `(f, p)` dominates a revisit with
/// budgets `(f', p')` when `f >= f'` and `p >= p'` — everything the
/// revisit could still explore, the recorded run could too.
#[derive(Debug, Default)]
struct Visited {
    map: BTreeMap<(usize, u64), Vec<VisitBudget>>,
}

impl Visited {
    /// Returns `true` (prune) when dominated by another run's entry;
    /// otherwise records the visit. `run_id` keeps a run from pruning
    /// against its own earlier boundaries.
    fn check_and_insert(
        &mut self,
        key: (usize, u64),
        rem_faults: usize,
        rem_pos: usize,
        run_id: u64,
    ) -> bool {
        let entries = self.map.entry(key).or_default();
        if entries
            .iter()
            .any(|&(f, p, r)| r != run_id && f >= rem_faults && p >= rem_pos)
        {
            return true;
        }
        entries.retain(|&(f, p, _)| !(rem_faults >= f && rem_pos >= p));
        entries.push((rem_faults, rem_pos, run_id));
        false
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

struct Search<'a> {
    scenario: &'a Scenario,
    bug: SeededBug,
    cfg: &'a CheckConfig,
    visited: Visited,
    stats: CheckStats,
}

impl Search<'_> {
    /// Executes one run under `script`, checking invariants at every
    /// event boundary and (when pruning) fingerprinting every boundary
    /// past the script's end.
    fn run(&mut self, script: &[Fate], rem_faults: usize, run_id: u64) -> RunEnd {
        let (mut sim, log) = self.scenario.spawn(script.to_vec(), self.bug);
        let mut local_steps = 0u64;
        for (op_idx, op) in self.scenario.ops.iter().enumerate() {
            self.scenario.apply(&mut sim, op);
            loop {
                if let Err(violation) = sim.check_invariants() {
                    return RunEnd::Violated {
                        violation,
                        decisions: log.borrow().decisions.clone(),
                    };
                }
                if self.cfg.prune {
                    let consumed = log.borrow().len();
                    if consumed >= script.len() {
                        let key = (op_idx, sim.fingerprint());
                        let rem_pos = self.cfg.depth.saturating_sub(consumed);
                        if self
                            .visited
                            .check_and_insert(key, rem_faults, rem_pos, run_id)
                        {
                            return RunEnd::Pruned {
                                decisions: log.borrow().decisions.clone(),
                            };
                        }
                    }
                }
                if !sim.step() {
                    break;
                }
                local_steps += 1;
                self.stats.steps += 1;
                if local_steps > self.cfg.max_steps {
                    return RunEnd::StepLimit;
                }
            }
        }
        let decisions = log.borrow().decisions.clone();
        RunEnd::Quiescent { decisions }
    }

    /// Enqueues every child of `script`: one additional fault at each
    /// position in `script.len()..min(decisions, depth)`.
    fn expand(
        &mut self,
        script: &[Fate],
        decisions: &[Decision],
        faults: usize,
        queue: &mut VecDeque<Vec<Fate>>,
    ) {
        if faults >= self.cfg.max_faults {
            return;
        }
        let hi = decisions.len().min(self.cfg.depth);
        for (pos, decision) in decisions.iter().enumerate().take(hi).skip(script.len()) {
            let kind = decision.kind;
            for alt in FAULTS {
                if alt == Fate::Duplicate && self.cfg.por && ABSORBED_KINDS.contains(&kind) {
                    self.stats.por_skips += 1;
                    continue;
                }
                let mut child = Vec::with_capacity(pos + 1);
                child.extend_from_slice(script);
                child.resize(pos, Fate::Deliver);
                child.push(alt);
                queue.push_back(child);
            }
        }
    }
}

/// Exhaustively explores `scenario` under `cfg`, asserting every
/// invariant in every reachable state. Returns on the first violation
/// (minimal in injected-fault count) or after the whole bounded space
/// is covered.
pub fn check(scenario: &Scenario, bug: SeededBug, cfg: &CheckConfig) -> CheckReport {
    let mut search = Search {
        scenario,
        bug,
        cfg,
        visited: Visited::default(),
        stats: CheckStats::default(),
    };
    let mut queue: VecDeque<Vec<Fate>> = VecDeque::new();
    queue.push_back(Vec::new());
    while let Some(script) = queue.pop_front() {
        let faults = script.iter().filter(|f| f.is_fault()).count();
        let rem_faults = cfg.max_faults.saturating_sub(faults);
        search.stats.runs += 1;
        let run_id = search.stats.runs;
        match search.run(&script, rem_faults, run_id) {
            RunEnd::Violated {
                violation,
                decisions,
            } => {
                search.stats.distinct_states = search.visited.len();
                return CheckReport {
                    scenario: scenario.name,
                    stats: search.stats,
                    counterexample: Some(Counterexample {
                        script,
                        violation,
                        decisions,
                    }),
                };
            }
            RunEnd::StepLimit => {
                search.stats.distinct_states = search.visited.len();
                return CheckReport {
                    scenario: scenario.name,
                    stats: search.stats,
                    counterexample: Some(Counterexample {
                        script,
                        violation: Violation {
                            rule: "step-limit",
                            detail: format!(
                                "run exceeded {} events without quiescing",
                                cfg.max_steps
                            ),
                        },
                        decisions: Vec::new(),
                    }),
                };
            }
            RunEnd::Pruned { decisions } => {
                search.stats.pruned += 1;
                search.expand(&script, &decisions, faults, &mut queue);
            }
            RunEnd::Quiescent { decisions } => {
                search.stats.max_decisions = search.stats.max_decisions.max(decisions.len());
                search.expand(&script, &decisions, faults, &mut queue);
            }
        }
    }
    search.stats.distinct_states = search.visited.len();
    CheckReport {
        scenario: scenario.name,
        stats: search.stats,
        counterexample: None,
    }
}

/// Replays one fate script (no pruning, no reduction) and returns the
/// violation it reaches, if any.
pub fn replay(scenario: &Scenario, bug: SeededBug, script: &[Fate]) -> Option<Violation> {
    let cfg = CheckConfig {
        prune: false,
        ..CheckConfig::default()
    };
    let mut search = Search {
        scenario,
        bug,
        cfg: &cfg,
        visited: Visited::default(),
        stats: CheckStats::default(),
    };
    match search.run(script, 0, 0) {
        RunEnd::Violated { violation, .. } => Some(violation),
        RunEnd::StepLimit => Some(Violation {
            rule: "step-limit",
            detail: format!("replay exceeded {} events without quiescing", cfg.max_steps),
        }),
        _ => None,
    }
}
