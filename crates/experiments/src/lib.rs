//! Evaluation harness reproducing the experiments of *"Design and
//! Evaluation of Routing Schemes for Dependable Real-Time Connections"*
//! (DSN 2001).
//!
//! One module per artifact of the paper's Section 6:
//!
//! * [`config`] — Table 1 (simulation parameters, with the calibration
//!   choices documented);
//! * [`runner`] — scenario replay: every routing scheme consumes the same
//!   recorded scenario file, exactly as the paper prescribes;
//! * [`fault_tolerance`] — Figure 4 (`P_act-bk` vs. λ);
//! * [`capacity`] — Figure 5 (capacity overhead vs. λ);
//! * [`availability`] — dynamic failure/repair replay cross-validating
//!   Figure 4's static estimator and exercising DRTP's reconfiguration;
//! * [`overhead`] — the route-discovery overhead comparison discussed in
//!   the text (link-state dissemination vs. CDP flooding);
//! * [`signalling`] — DR-connection *management* traffic measured on the
//!   message-level protocol of `drt-proto`;
//! * [`campaign`] — failure campaign under a *lossy* control plane:
//!   recovery latency, `P_act-bk` and degradation vs. control-packet loss;
//! * [`multi_failure`] — correlated-failure regimes (independent links →
//!   SRLG bursts → router crashes) recovered through the orchestrator:
//!   `P_act-bk`, re-protection latency, and orphan counts per regime;
//! * [`adversarial`] — byzantine routers (link-state lies, fabricated
//!   failure reports) and hostile workloads (flash crowds, regional
//!   storms) swept over adversary strength × scheme, with and without
//!   the vetting/quarantine countermeasures, measured through the
//!   first-class telemetry layer;
//! * [`restart`] — restart-storm campaign: rolling router restarts on a
//!   maintenance-wave schedule, each cell run twice — amnesia vs.
//!   journaled rejoin — pricing what durable state (the write-ahead
//!   journal and resync-on-rejoin of `drt-proto`) is worth;
//! * [`par`] — deterministic parallel execution of independent cells
//!   (`--jobs N`), byte-identical to the serial run;
//! * [`failure_analysis`] — the Figure-4 sweep and the vulnerability
//!   report sharded over [`par`] (bit-identical for every job count);
//! * [`report`] — plain-text table/series rendering shared by the
//!   binaries.
//!
//! Binaries: `table1`, `fig4`, `fig5`, `overhead`, `campaign`, and `all`
//! (everything, sequentially). Each accepts `--quick` for a
//! reduced-horizon run used in CI and benches.

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod adversarial;
pub mod availability;
pub mod campaign;
pub mod capacity;
pub mod config;
pub mod failure_analysis;
pub mod fault_tolerance;
pub mod multi_failure;
pub mod overhead;
pub mod par;
pub mod report;
pub mod restart;
pub mod runner;
pub mod signalling;
