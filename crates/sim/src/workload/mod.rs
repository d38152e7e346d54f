//! Workload generation: traffic patterns, replayable scenario files, and
//! hostile workload geometry (regional storms, maintenance waves).

mod hostile;
mod scenario;
mod traffic;

pub use hostile::{maintenance_waves, regional_storm};
pub use scenario::{
    ConnectionRequest, FailureProcess, RequestId, Scenario, ScenarioConfig, TimelineEvent,
};
pub use traffic::TrafficPattern;
