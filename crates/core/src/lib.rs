//! # pairuplight — coordinated multi-agent RL traffic signal control
//!
//! A from-scratch Rust reproduction of *PairUpLight: A Multi-agent
//! Reinforcement Learning Approach for Coordinated Multi-intersection
//! Traffic Signal Control* (Du, Li, Wang — ICDCS 2025).
//!
//! Each signalized intersection is a PPO agent (with GAE); on top of
//! the backbone, PairUpLight adds:
//!
//! * a **coordinated actor** that consumes a single real-valued message
//!   from the most congested upstream intersection and emits the next
//!   message alongside its action ([`model::ActorNet`], Eq. 8);
//! * a **message regularizer** `m̂ = Logistic(N(m, σ))`
//!   ([`message`], Algorithm 1 line 16);
//! * congestion-driven **pairing** ([`pairing`], §V-B);
//! * a **centralized critic** seeing one- and two-hop neighbor traffic
//!   with zero padding at network edges ([`model::CriticNet`], Eq. 9);
//! * **CTDE with parameter sharing** ([`trainer`], Algorithm 1).
//!
//! ## Quickstart
//!
//! ```
//! use pairuplight::{PairUpLight, PairUpLightConfig};
//! use tsc_sim::scenario::grid::{Grid, GridConfig};
//! use tsc_sim::scenario::patterns::{self, FlowPattern, PatternConfig};
//! use tsc_sim::{EnvConfig, SimConfig, TscEnv};
//!
//! # fn main() -> Result<(), tsc_sim::SimError> {
//! let grid = Grid::build(GridConfig { cols: 2, rows: 2, spacing: 200.0 })?;
//! let scenario = patterns::grid_scenario(&grid, FlowPattern::One, &PatternConfig::default())?;
//! let mut env = TscEnv::new(
//!     scenario,
//!     SimConfig::default(),
//!     EnvConfig { decision_interval: 5, episode_horizon: 210 },
//!     0,
//! )?;
//! let mut model = PairUpLight::new(&env, PairUpLightConfig::default());
//! let episode = model.train_episode(&mut env, 0)?;
//! assert!(episode.stats.steps > 0);
//! let mut controller = model.controller(); // decentralized execution
//! let stats = env.run_episode(&mut controller, 1)?;
//! assert!(stats.spawned > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod fault;
pub mod message;
pub mod model;
pub mod obs;
pub mod pairing;
pub mod policy;
pub mod runlog;
pub mod trainer;

pub use checkpoint::{config_fingerprint, Checkpoint, CheckpointManager, CheckpointPolicy};
pub use config::{CriticMode, PairUpLightConfig, PairingMode};
pub use error::TrainError;
pub use fault::FaultPlan;
pub use message::{MessageChannel, MessageLossPolicy};
pub use model::{ActorNet, ActorOut, ActorStep, CriticBuffers, CriticNet};
pub use obs::{HealthConfig, ObsEncoder, ObsHealth, ObsNorm};
pub use pairing::PairingTable;
pub use policy::PolicySnapshot;
pub use runlog::{RunLogger, UpdateRecord};
pub use trainer::{PairUpLight, PairUpLightController, Rollout, TrainEpisode};
