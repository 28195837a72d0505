//! # tsc-serve — deadline-aware PairUpLight policy serving
//!
//! Loads a `pairuplight-checkpoint v1` bundle and drives a live
//! [`tsc_sim::TscEnv`] grid **without the training stack**: no autograd
//! tape, no optimizer state, near-zero allocation in the hot loop.
//!
//! * **Tape-free inference** — forwards run through
//!   [`ActorStep`](pairuplight::ActorStep), the actor kernel rollout
//!   collection and the evaluation controller share, into persistent,
//!   pre-sized activation buffers; [`ServeRuntime::alloc_events`]
//!   exposes the allocation probe that pins "no allocation in steady
//!   state".
//! * **Batched multi-agent inference** — under parameter sharing, all
//!   intersections' observations and incoming messages are stacked
//!   into one matrix per step; row independence of every kernel makes
//!   this bit-identical to per-agent forwards (pinned by the tier-1
//!   parity test against a tape-built reference of the actor).
//! * **Deadline + graceful degradation** — a configurable per-step
//!   latency budget; on overrun, affected intersections fall back to a
//!   warm-standby MaxPressure controller, with typed [`ServeError`]s
//!   and per-agent fallback accounting.
//! * **Controller-side resilience** — optional observation-health
//!   tracking with last-known-good imputation, a message channel with
//!   a configurable loss policy, per-agent health-triggered fallback
//!   with cause attribution ([`ResilienceConfig`], [`DegradeReason`]),
//!   and [`ServeRuntime::set_chaos`] to inject deterministic comms
//!   faults from a [`tsc_sim::ChaosPlan`].
//! * **Serving telemetry** — decisions/sec, latency p50/p95/p99 from a
//!   streaming log-bucket histogram, fallback rate
//!   ([`ServeTelemetry`]).
//! * **Zero-degradation hot reload** — [`ServeRuntime::begin_reload`]
//!   stages and fully validates a new checkpoint into a second buffer
//!   while the live policy keeps serving at full quality;
//!   [`ServeRuntime::commit_reload`] swaps the buffers atomically
//!   between steps. A staged reload never costs a degraded step
//!   (pinned by a reload-storm test).
//! * **SLA-aware admission** — [`FleetRuntime`] tenants carry an
//!   [`SlaClass`] (priority, deadline, max shed rate); under a
//!   configured capacity ([`AdmissionConfig`]) a deterministic
//!   splitmix64-hash brownout ladder (full → decimated inference →
//!   MaxPressure standby → shed) sheds load without ever violating a
//!   tenant's shed-rate cap, and with no overload is bit-identical to
//!   a fleet without the layer.
//! * **Fleet supervision** — [`FleetRuntime`] hosts many tenants (one
//!   runtime per grid) with per-tenant circuit breakers, crash
//!   isolation (`catch_unwind`; a panicking tenant answers with
//!   MaxPressure, never kills the process), deterministic
//!   hash-jittered backoff, bounded checkpoint-reload recovery, and a
//!   pure-hash [`InfraChaosPlan`] (injected panics, reload corruption,
//!   latency spikes, reload storms) with the chaos engine's guarantee:
//!   empty plan == no plan, bit for bit.
//! * **Flight recorder** — with [`FleetConfig::flight`] set, every
//!   tenant keeps a fixed-capacity ring of compact per-step frames
//!   (observation/message/action digests, serving source, admission
//!   level, supervisor state, chaos scope, deadline slack). Panics,
//!   breaker trips, quarantines, and shed-cap exhaustion dump the ring
//!   plus a deterministic replay context as a self-describing incident
//!   file; `tsc-bench`'s `forensics` tool replays incidents
//!   bit-for-bit. Recording is strictly observation-only: the
//!   recorder-on fleet digests bit-identical to recorder-off (pinned),
//!   and [`FleetRuntime::exposition`] serves Prometheus-format health
//!   live.
//!
//! ## Quickstart
//!
//! ```no_run
//! use pairuplight::PairUpLightConfig;
//! use tsc_serve::{ServeConfig, ServeRuntime};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let env: tsc_sim::TscEnv = unimplemented!();
//! let mut rt = ServeRuntime::from_checkpoint(
//!     &env,
//!     PairUpLightConfig::default(),
//!     ServeConfig::default(),
//!     "model.ckpt",
//! )?;
//! let obs = env.clone().reset(0);
//! let step = rt.serve_step(&obs)?;
//! println!(
//!     "{} actions, p95 {:.1} µs",
//!     step.actions.len(),
//!     rt.telemetry().p95_us()
//! );
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod admission;
mod engine;
mod error;
mod fleet;
mod infra_chaos;
mod supervisor;
mod telemetry;

pub use admission::{Admission, AdmissionConfig, LoadPhase, LoadPlan, ServiceLevel, SlaClass};
pub use engine::{DegradeReason, ResilienceConfig, ServeConfig, ServeRuntime, ServeStep};
pub use error::ServeError;
pub use fleet::{
    actions_digest, obs_digest, FleetConfig, FleetExposition, FleetRuntime, FleetStep,
    FlightConfig, FlightHealth, ServedBy, TenantSpec, TenantStats, TenantStep, MAX_HELD_INCIDENTS,
};
pub use infra_chaos::{InfraChaosPlan, InfraFault, InfraKind, TenantSel};
pub use supervisor::{Supervisor, SupervisorConfig, TenantEvent, TenantState};
pub use telemetry::ServeTelemetry;
