//! Deployable policy snapshots: the minimal frozen state a serving
//! runtime needs to drive a grid — actor weights, observation encoder,
//! pairing table, and per-agent phase counts. The critic, optimizer
//! state, and training counters stay behind (paper Fig. 4: only the
//! actor is deployed).
//!
//! A snapshot is the hand-off point between the training stack
//! ([`PairUpLight::policy_snapshot`](crate::PairUpLight::policy_snapshot))
//! and the `tsc-serve` runtime; it can also swap in fresh weights from
//! a newer checkpoint without rebuilding topology, which is what makes
//! serving-side hot reload atomic.

use rand::rngs::StdRng;
use tsc_nn::{LoadError, Params};
use tsc_rl::distribution::Categorical;

use crate::checkpoint::{config_fingerprint, Checkpoint};
use crate::config::PairUpLightConfig;
use crate::error::TrainError;
use crate::model::ActorNet;
use crate::obs::ObsEncoder;
use crate::pairing::PairingTable;

/// A frozen, self-contained copy of the deployable policy.
#[derive(Debug, Clone)]
pub struct PolicySnapshot {
    cfg: PairUpLightConfig,
    encoder: ObsEncoder,
    pairing: PairingTable,
    /// `(params, net)` per bundle (1 when parameters are shared).
    actors: Vec<(Params, ActorNet)>,
    phases_per_agent: Vec<usize>,
    num_agents: usize,
}

impl PolicySnapshot {
    pub(crate) fn new(
        cfg: PairUpLightConfig,
        encoder: ObsEncoder,
        pairing: PairingTable,
        actors: Vec<(Params, ActorNet)>,
        phases_per_agent: Vec<usize>,
        num_agents: usize,
    ) -> Self {
        PolicySnapshot {
            cfg,
            encoder,
            pairing,
            actors,
            phases_per_agent,
            num_agents,
        }
    }

    /// The configuration the policy was trained with.
    pub fn config(&self) -> &PairUpLightConfig {
        &self.cfg
    }

    /// Number of controlled intersections.
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Whether all agents share one actor (enables exact batched
    /// inference: one matrix forward for the whole grid).
    pub fn shared(&self) -> bool {
        self.actors.len() == 1
    }

    /// The `(params, net)` bundles (1 when shared, else one per agent).
    pub fn actors(&self) -> &[(Params, ActorNet)] {
        &self.actors
    }

    /// The observation encoder for this topology.
    pub fn encoder(&self) -> &ObsEncoder {
        &self.encoder
    }

    /// The partner-selection table (paper §V-C).
    pub fn pairing(&self) -> &PairingTable {
        &self.pairing
    }

    /// Valid phase count per agent (already clamped to `max_phases`).
    pub fn phases_per_agent(&self) -> &[usize] {
        &self.phases_per_agent
    }

    /// All actor weights flattened into one vector — cheap equality
    /// probe for "the in-memory model was not touched" assertions.
    pub fn parameter_vector(&self) -> Vec<f32> {
        let mut v = Vec::new();
        for (params, _) in &self.actors {
            for id in params.ids() {
                v.extend_from_slice(params.value(id).data());
            }
        }
        v
    }

    /// Builds a snapshot with this snapshot's topology and the
    /// checkpoint's weights — the serving-side hot-reload primitive.
    /// All-or-nothing: the fingerprint, bundle count, and every
    /// bundle's tensor layout are validated before anything is copied,
    /// so an `Err` means `self` is untouched and no partial state
    /// exists anywhere.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Load`] on fingerprint, bundle-count, or
    /// layout mismatch.
    pub fn with_checkpoint(&self, ck: &Checkpoint) -> Result<PolicySnapshot, TrainError> {
        let expected = config_fingerprint(&self.cfg);
        if ck.fingerprint != expected {
            return Err(TrainError::Load(LoadError::Format(format!(
                "configuration fingerprint mismatch: checkpoint {:016x}, policy {expected:016x}",
                ck.fingerprint
            ))));
        }
        if ck.bundles.len() != self.actors.len() {
            return Err(TrainError::Load(LoadError::Format(format!(
                "expected {} bundles, found {}",
                self.actors.len(),
                ck.bundles.len()
            ))));
        }
        for ((params, _), (loaded, _)) in self.actors.iter().zip(&ck.bundles) {
            crate::trainer::PairUpLight::check_layout(params, loaded)?;
        }
        let mut next = self.clone();
        for ((params, _), (loaded, _)) in next.actors.iter_mut().zip(&ck.bundles) {
            params.copy_from(loaded);
        }
        Ok(next)
    }
}

/// Execution-time action choice, shared by the evaluation controller
/// and the serving runtime: mask `probs` to the agent's `num_phases`
/// valid phases, renormalize by `sum.max(1e-8)`, then sample with `rng`
/// or, without one, take the argmax. `masked` is caller-owned scratch.
/// (Training explores with its own arithmetic; see
/// [`PairUpLight`](crate::PairUpLight)'s rollout collection.)
pub fn execution_action(
    probs: &[f32],
    num_phases: usize,
    masked: &mut Vec<f32>,
    rng: Option<&mut StdRng>,
) -> usize {
    masked.clear();
    masked.extend_from_slice(&probs[..num_phases]);
    let sum: f32 = masked.iter().sum();
    for p in masked.iter_mut() {
        *p /= sum.max(1e-8);
    }
    let dist = Categorical::new(masked);
    match rng {
        Some(rng) => dist.sample(rng),
        None => dist.argmax(),
    }
}
