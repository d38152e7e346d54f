//! `drt-verify`: static analysis for the DRTP reproduction.
//!
//! Two engines live here, both aimed at the same question — *can the
//! signalling plane misbehave in a way randomized chaos testing would
//! miss?*
//!
//! # The model checker ([`checker`])
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
//! # The semantic lint ([`lint`])
//!
//! A source-level analysis engine (no rustc plumbing, no extra
//! dependencies) for what clippy cannot state: properties of the call
//! graph. It is built from four layers:
//!
//! * [`lex`] — a token-level Rust lexer (comments, raw strings, byte
//!   literals, lifetimes-vs-chars, raw identifiers, nested block
//!   comments) with exact line numbers.
//! * [`model`] — a per-workspace item model: every `fn` with its impl
//!   context, call sites, direct nondeterminism seeds, and `lint:allow`
//!   waivers.
//! * [`taint`] — fixpoint nondeterminism-taint propagation over the
//!   call graph: a helper wrapping `Instant::now` two crates away
//!   taints every routing function that can reach it, and the finding
//!   carries the full source→sink call chain.
//! * [`semantic`] — the call-graph rule: RNG-substream discipline for
//!   closures passed to the deterministic parallel drivers. The
//!   stale-waiver audit lives in the [`lint`] orchestrator.
//!
//! Run it with `cargo run -p verify --bin lint` (`--format json` for
//! machine-readable output, `--explain <rule>` for rule docs).

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod checker;
pub mod lex;
pub mod lint;
pub mod model;
pub mod scenario;
pub mod semantic;
pub mod taint;
