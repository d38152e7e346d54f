//! `drt-verify`: a bounded exhaustive model checker for the DRTP
//! signalling plane, aimed at one question — *can the signalling plane
//! misbehave in a way randomized chaos testing would miss?*
//!
//! Randomized chaos runs sample the space of delivery schedules; the
//! checker *enumerates* it. A [`scenario::Scenario`] is a small scripted
//! workload (establish, fail a link, retire backups, release) on a
//! hand-built topology. Every multi-hop control-packet delivery in a run
//! is a *decision point*; the checker explores every assignment of
//! [`drt_proto::Fate`] (drop / duplicate / delay) to the first `depth`
//! decision points, bounded by a fault budget, and asserts the engine's
//! ledger / spare-pool / dedup invariants in **every** intermediate
//! state. Exploration order is breadth-first by injected-fault count, so
//! the first counterexample found is minimal, and a counterexample is
//! just a fate script — replayable through the ordinary chaos seam with
//! [`checker::replay`].
//!
//! Two reductions keep the space tractable (measured by running the same
//! scenario with them disabled):
//!
//! * **Partial-order reduction** — duplicating a delivery whose second
//!   copy is provably absorbed by transaction gating (result and ack
//!   packets: the handler is `txns.remove`-then-return) cannot change
//!   any reachable state, so that branch is skipped.
//! * **State-fingerprint pruning** — a run whose state fingerprint was
//!   already visited with at least as much remaining fault budget and
//!   branch depth cannot reach anything new, so it is abandoned.
//!
//! Run it with `cargo run --release -p verify --bin check -- --depth 12
//! --max-faults 3`.

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod checker;
pub mod scenario;
