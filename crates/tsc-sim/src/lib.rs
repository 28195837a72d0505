//! # tsc-sim — a traffic simulator for signal-control research
//!
//! This crate is the simulation substrate of the PairUpLight
//! reproduction (see the workspace DESIGN.md): a deterministic,
//! discrete-time (1 s) queue-based traffic simulator playing the role
//! SUMO plays in the paper. It models:
//!
//! * directed road networks with per-lane turning movements, including
//!   shared lanes with head-of-line blocking ([`network`]);
//! * signal phases with yellow clearance ([`signal`]);
//! * per-vehicle trips with free-flow running, FIFO lane queues,
//!   saturation-flow discharge, spillback and insertion backlogs
//!   ([`sim`], [`vehicle`]);
//! * bounded-range road-side detection producing the paper's pressure /
//!   waiting-time observations ([`detector`]);
//! * time-varying OD demand ([`demand`]) and the paper's evaluation
//!   scenarios ([`scenario`]);
//! * a multi-agent control environment at the paper's decision cadence
//!   ([`mod@env`]).
//!
//! ## Quickstart
//!
//! ```
//! use tsc_sim::scenario::grid::{Grid, GridConfig};
//! use tsc_sim::scenario::patterns::{self, FlowPattern, PatternConfig};
//! use tsc_sim::{EnvConfig, SimConfig, TscEnv};
//!
//! # fn main() -> Result<(), tsc_sim::SimError> {
//! let grid = Grid::build(GridConfig::default())?;
//! let scenario = patterns::grid_scenario(&grid, FlowPattern::Five, &PatternConfig::default())?;
//! let mut env = TscEnv::new(scenario, SimConfig::default(), EnvConfig::default(), 42)?;
//! let obs = env.reset(42);
//! let step = env.step(&vec![0; obs.len()])?;
//! assert_eq!(step.rewards.len(), 36);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod demand;
pub mod detector;
pub mod env;
pub mod error;
mod event;
pub mod events;
pub mod ids;
pub mod metrics;
pub mod network;
pub mod rollout;
pub mod routing;
pub mod scenario;
pub mod signal;
pub mod sim;
pub mod stats;
pub mod vehicle;

pub use chaos::{
    ActuationFault, ActuationKind, AgentSel, ChaosPlan, CommsFault, CommsKind, LinkSel, NodeSel,
    SensingFault, SensingKind, Window,
};
pub use demand::{ArrivalModel, FlowProfile, OdFlow};
pub use detector::{Approaches, DetectorConfig, IntersectionObs, LinkObs, MAX_APPROACHES};
pub use env::{Controller, EnvConfig, EnvStep, EpisodeStats, TscEnv};
pub use error::SimError;
pub use ids::{Direction, LinkId, NodeId, VehicleId};
pub use metrics::Metrics;
pub use network::{Lane, Link, Movement, Network, NetworkBuilder, Node};
pub use rollout::{derive_rollout_seed, RolloutSet};
pub use routing::shortest_route;
pub use scenario::{Boundary, Fnv64, Scenario};
pub use signal::{Phase, SignalPlan, SignalState};
pub use sim::{SimConfig, Simulation};
pub use stats::{TravelTimeSummary, TripStats};
pub use vehicle::{Vehicle, VehiclePosition};
