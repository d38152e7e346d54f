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
//! * [`regimes`] — the failure sweeps, nine regimes of one driver
//!   measured through the first-class telemetry layer: failures under a
//!   *lossy* control plane signalled through `drt-proto` (recovery
//!   latency, `P_act-bk` and degradation vs. control-packet loss),
//!   correlated failures (independent links → SRLG bursts → router
//!   crashes), byzantine routers and hostile workloads with and without
//!   countermeasures, and rolling router restarts, amnesia vs. journaled
//!   rejoin;
//! * [`campaign`] — the loss sweep by loss rate, an entry point to the
//!   `control-loss` regime;
//! * [`par`] — deterministic parallel execution of independent cells
//!   (`--jobs N`), byte-identical to the serial run;
//! * [`report`] — plain-text table/series rendering shared by the
//!   binaries.
//!
//! Binaries: `table1`, `fig4`, `fig5`, `overhead`, `campaign`, and `all`
//! (everything, sequentially). Each accepts `--quick` for a
//! reduced-horizon run used in CI and benches.

#![warn(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod availability;
pub mod campaign;
pub mod capacity;
pub mod config;
pub mod fault_tolerance;
pub mod overhead;
pub mod par;
pub mod regimes;
pub mod report;
pub mod runner;
pub mod signalling;
