//! The MA2C baseline (Chu et al., 2019; paper §VI-B): independent
//! advantage actor-critic agents, one per intersection, **without**
//! parameter sharing. Each agent's input combines:
//!
//! * its local observation,
//! * spatially discounted neighbor observations (discount α), and
//! * neighbor *fingerprints* — the neighbors' most recent policy
//!   distributions — to mitigate non-stationarity.
//!
//! Rewards are likewise spatially discounted over the one-hop
//! neighborhood.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pairuplight::{ActorNet, ActorStep, CriticNet, ObsEncoder, ObsNorm};
use tsc_nn::{Adam, Graph, LstmState, Params, Tensor};
use tsc_rl::a2c::{policy_loss, A2cConfig};
use tsc_rl::buffer::{RolloutBuffer, Transition};
use tsc_rl::distribution::Categorical;
use tsc_rl::ppo::{entropy_bonus, value_loss};
use tsc_sim::{Controller, EpisodeStats, IntersectionObs, SimError, TscEnv};

/// MA2C hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Ma2cConfig {
    /// A2C losses and spatial discount α.
    pub a2c: A2cConfig,
    /// Trunk width.
    pub hidden: usize,
    /// LSTM width.
    pub lstm_hidden: usize,
    /// Action-space width.
    pub max_phases: usize,
    /// Reward scaling.
    pub reward_scale: f32,
    /// Scaled rewards are clamped to `[-reward_clip, 0]` (gridlock
    /// waits are unbounded).
    pub reward_clip: f32,
    /// Weight-init / exploration seed.
    pub seed: u64,
}

impl Default for Ma2cConfig {
    fn default() -> Self {
        Ma2cConfig {
            a2c: A2cConfig::default(),
            hidden: 64,
            lstm_hidden: 64,
            max_phases: 4,
            reward_scale: 0.02,
            reward_clip: 5.0,
            seed: 0,
        }
    }
}

#[derive(Debug)]
struct AgentNet {
    params: Params,
    actor: ActorNet,
    critic: CriticNet,
    opt: Adam,
}

/// The MA2C learner.
#[derive(Debug)]
pub struct Ma2c {
    cfg: Ma2cConfig,
    encoder: ObsEncoder,
    nets: Vec<AgentNet>,
    num_agents: usize,
    phases_per_agent: Vec<usize>,
    input_dim: usize,
    episodes_trained: usize,
    rng: StdRng,
}

impl Ma2c {
    /// Creates an MA2C learner for the environment's scenario.
    pub fn new(env: &TscEnv, cfg: Ma2cConfig) -> Self {
        let scenario = env.scenario();
        let agents = scenario.agents();
        let encoder = ObsEncoder::new(
            &scenario.network,
            &agents,
            cfg.max_phases,
            ObsNorm::default(),
        );
        // local + 4 neighbor slots of (obs + fingerprint).
        let input_dim = encoder.local_dim() + 4 * (encoder.local_dim() + cfg.max_phases);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let nets = (0..agents.len())
            .map(|_| {
                let mut params = Params::new();
                let actor = ActorNet::new(
                    &mut params,
                    input_dim,
                    0,
                    cfg.hidden,
                    cfg.lstm_hidden,
                    cfg.max_phases,
                    &mut rng,
                );
                let critic = CriticNet::new(
                    &mut params,
                    input_dim,
                    cfg.hidden,
                    cfg.lstm_hidden,
                    &mut rng,
                );
                let opt = Adam::new(&params, cfg.a2c.lr);
                AgentNet {
                    params,
                    actor,
                    critic,
                    opt,
                }
            })
            .collect();
        let phases_per_agent = scenario
            .signal_plans
            .iter()
            .map(|p| p.num_phases().min(cfg.max_phases))
            .collect();
        Ma2c {
            cfg,
            encoder,
            nets,
            num_agents: agents.len(),
            phases_per_agent,
            input_dim,
            episodes_trained: 0,
            rng,
        }
    }

    /// Episodes trained so far.
    pub fn episodes_trained(&self) -> usize {
        self.episodes_trained
    }

    /// Input dimension of each agent's networks.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Assembles agent `a`'s input: local obs, α-discounted neighbor
    /// obs, neighbor fingerprints (zero-padded to 4 slots).
    fn assemble_input(
        &self,
        all_obs: &[IntersectionObs],
        fingerprints: &[Vec<f32>],
        a: usize,
    ) -> Vec<f32> {
        let alpha = self.cfg.a2c.spatial_discount;
        let mut input = self.encoder.encode_local(&all_obs[a]);
        let neighbors = self.encoder.one_hop(a);
        for slot in 0..4 {
            match neighbors.get(slot) {
                Some(&n) => {
                    let nbr = self.encoder.encode_local(&all_obs[n]);
                    input.extend(nbr.iter().map(|x| x * alpha));
                    input.extend_from_slice(&fingerprints[n]);
                }
                None => {
                    input.extend(std::iter::repeat_n(0.0, self.encoder.local_dim()));
                    input.extend(std::iter::repeat_n(0.0, self.cfg.max_phases));
                }
            }
        }
        input
    }

    /// Spatially discounted reward of agent `a` (own + α · neighbors).
    fn discounted_reward(&self, rewards: &[f64], a: usize) -> f32 {
        let alpha = self.cfg.a2c.spatial_discount as f64;
        let mut r = rewards[a];
        for &n in self.encoder.one_hop(a) {
            r += alpha * rewards[n];
        }
        ((r * self.cfg.reward_scale as f64) as f32).clamp(-self.cfg.reward_clip, 0.0)
    }

    /// Runs one training episode (rollout + one A2C update per agent).
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn train_episode(&mut self, env: &mut TscEnv, seed: u64) -> Result<EpisodeStats, SimError> {
        let n = self.num_agents;
        let mut all_obs = env.reset(seed);
        let mut actor = ActorStep::new(&self.nets[0].actor, n, false);
        let mut critic_states: Vec<LstmState> = (0..n)
            .map(|_| LstmState::zeros(1, self.cfg.lstm_hidden))
            .collect();
        let mut fingerprints: Vec<Vec<f32>> = (0..n)
            .map(|_| vec![1.0 / self.cfg.max_phases as f32; self.cfg.max_phases])
            .collect();
        let mut buffer = RolloutBuffer::new(n);
        let mut total_reward = 0.0f64;
        let mut actions = vec![0usize; n];
        loop {
            // Every input reads the previous step's fingerprints, so
            // all are assembled before any fingerprint is replaced.
            let mut pending: Vec<Transition> = (0..n)
                .map(|a| {
                    let input = self.assemble_input(&all_obs, &fingerprints, a);
                    actor.input_mut(a).copy_from_slice(&input);
                    Transition {
                        obs: input.clone(),
                        critic_obs: input,
                        action: 0,
                        reward: 0.0,
                        value: 0.0,
                        log_prob: 0.0,
                        actor_h: (
                            actor.state().h.row(a).to_vec(),
                            actor.state().c.row(a).to_vec(),
                        ),
                        critic_h: (
                            critic_states[a].h.row(0).to_vec(),
                            critic_states[a].c.row(0).to_vec(),
                        ),
                        message_in: Vec::new(),
                        aux: Vec::new(),
                    }
                })
                .collect();
            let nets = &self.nets;
            actor.run_all(|b| (&nets[b].params, &nets[b].actor));
            for (a, t) in pending.iter_mut().enumerate() {
                let net = &self.nets[a];
                let mut gc = Graph::new();
                let (v, next_cstate) = net.critic.step(
                    &mut gc,
                    &net.params,
                    Tensor::row_from_slice(&t.critic_obs),
                    &critic_states[a],
                );
                let probs = actor.probs(a);
                let np = self.phases_per_agent[a];
                let mut masked: Vec<f32> = probs[..np].to_vec();
                let s: f32 = masked.iter().sum();
                for p in &mut masked {
                    *p /= s.max(1e-8);
                }
                let dist = Categorical::new(&masked);
                let action = dist.sample(&mut self.rng);
                actions[a] = action;
                t.action = action;
                t.value = gc.value(v).get(0, 0);
                t.log_prob = dist.log_prob(action);
                fingerprints[a] = probs.to_vec();
                critic_states[a] = next_cstate;
            }
            let step = env.step(&actions)?;
            for (a, mut t) in pending.into_iter().enumerate() {
                t.reward = self.discounted_reward(&step.rewards, a);
                total_reward += step.rewards[a];
                buffer.push(a, t);
            }
            all_obs = step.obs;
            if step.done {
                break;
            }
        }
        // Bootstrap + per-agent A2C update.
        let mut last_values = vec![0.0f32; n];
        for a in 0..n {
            let input = self.assemble_input(&all_obs, &fingerprints, a);
            let net = &self.nets[a];
            let mut g = Graph::new();
            let (v, _) = net.critic.step(
                &mut g,
                &net.params,
                Tensor::row_from_slice(&input),
                &critic_states[a],
            );
            last_values[a] = g.value(v).get(0, 0);
        }
        buffer.compute_targets(&last_values, self.cfg.a2c.gamma, self.cfg.a2c.lambda);
        for a in 0..n {
            self.update_agent(a, &buffer);
        }
        self.episodes_trained += 1;
        Ok(EpisodeStats {
            steps: buffer.len(0),
            total_reward,
            avg_waiting_time: env.sim().metrics().avg_waiting_time(),
            avg_travel_time: env.sim().avg_travel_time(),
            finished: env.sim().metrics().finished(),
            spawned: env.sim().metrics().spawned(),
        })
    }

    fn update_agent(&mut self, a: usize, buffer: &RolloutBuffer) {
        let steps = buffer.transitions(a);
        if steps.is_empty() {
            return;
        }
        let rows = steps.len();
        let stack = |f: &dyn Fn(&Transition) -> &[f32]| {
            let refs: Vec<&[f32]> = steps.iter().map(f).collect();
            Tensor::from_rows(&refs)
        };
        let x_t = stack(&|t| t.obs.as_slice());
        let h_t = stack(&|t| t.actor_h.0.as_slice());
        let c_t = stack(&|t| t.actor_h.1.as_slice());
        let ch_t = stack(&|t| t.critic_h.0.as_slice());
        let cc_t = stack(&|t| t.critic_h.1.as_slice());
        let actions: Vec<usize> = steps.iter().map(|t| t.action).collect();
        let advs: Vec<f32> = (0..rows).map(|t| buffer.target(a, t).advantage).collect();
        let rets: Vec<f32> = (0..rows).map(|t| buffer.target(a, t).ret).collect();
        let net = &mut self.nets[a];
        let mut g = Graph::new();
        let x = g.input(x_t.clone());
        let h = g.input(h_t);
        let c = g.input(c_t);
        let (out, _) = net.actor.forward(&mut g, &net.params, x, h, c);
        let logp_all = g.log_softmax(out.logits);
        let picked = g.gather_cols(logp_all, actions);
        let pl = policy_loss(&mut g, picked, &advs);
        let ent = entropy_bonus(&mut g, out.logits);
        let cx = g.input(x_t);
        let ch = g.input(ch_t);
        let cc = g.input(cc_t);
        let (v, _, _) = net.critic.forward(&mut g, &net.params, cx, ch, cc);
        let vl = value_loss(&mut g, v, &rets);
        let vls = g.scale(vl, self.cfg.a2c.value_coef);
        let ents = g.scale(ent, -self.cfg.a2c.entropy_coef);
        let mut loss = g.add(pl, vls);
        loss = g.add(loss, ents);
        g.backward(loss, &mut net.params);
        net.params.clip_grad_norm(self.cfg.a2c.max_grad_norm);
        net.opt.step(&mut net.params);
    }

    /// Snapshots the current per-agent policies for evaluation.
    pub fn controller(&self) -> Ma2cController {
        let mut ctl = Ma2cController {
            cfg: self.cfg,
            encoder: self.encoder.clone(),
            actors: self
                .nets
                .iter()
                .map(|n| (n.params.clone(), n.actor.clone()))
                .collect(),
            phases_per_agent: self.phases_per_agent.clone(),
            actor: ActorStep::new(&self.nets[0].actor, self.num_agents, false),
            fingerprints: Vec::new(),
        };
        ctl.reset();
        ctl
    }
}

/// The deployed MA2C policy (greedy).
#[derive(Debug)]
pub struct Ma2cController {
    cfg: Ma2cConfig,
    encoder: ObsEncoder,
    actors: Vec<(Params, ActorNet)>,
    phases_per_agent: Vec<usize>,
    actor: ActorStep,
    fingerprints: Vec<Vec<f32>>,
}

impl Ma2cController {
    fn assemble_input(&self, all_obs: &[IntersectionObs], a: usize) -> Vec<f32> {
        let alpha = self.cfg.a2c.spatial_discount;
        let mut input = self.encoder.encode_local(&all_obs[a]);
        let neighbors = self.encoder.one_hop(a);
        for slot in 0..4 {
            match neighbors.get(slot) {
                Some(&n) => {
                    let nbr = self.encoder.encode_local(&all_obs[n]);
                    input.extend(nbr.iter().map(|x| x * alpha));
                    input.extend_from_slice(&self.fingerprints[n]);
                }
                None => {
                    input.extend(std::iter::repeat_n(0.0, self.encoder.local_dim()));
                    input.extend(std::iter::repeat_n(0.0, self.cfg.max_phases));
                }
            }
        }
        input
    }
}

impl Controller for Ma2cController {
    fn reset(&mut self) {
        self.actor.reset();
        self.fingerprints = (0..self.actors.len())
            .map(|_| vec![1.0 / self.cfg.max_phases as f32; self.cfg.max_phases])
            .collect();
    }

    fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
        for a in 0..self.actors.len() {
            let input = self.assemble_input(obs, a);
            self.actor.input_mut(a).copy_from_slice(&input);
        }
        let actors = &self.actors;
        self.actor.run_all(|b| (&actors[b].0, &actors[b].1));
        let mut actions = Vec::with_capacity(actors.len());
        for (a, fp) in self.fingerprints.iter_mut().enumerate() {
            let probs = self.actor.probs(a);
            fp.copy_from_slice(probs);
            let np = self.phases_per_agent[a];
            let action = probs[..np]
                .iter()
                .enumerate()
                .max_by(|x, y| x.1.partial_cmp(y.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            actions.push(action);
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_sim::scenario::grid::{Grid, GridConfig};
    use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
    use tsc_sim::{EnvConfig, SimConfig};

    fn env() -> TscEnv {
        let grid = Grid::build(GridConfig {
            cols: 2,
            rows: 2,
            spacing: 150.0,
        })
        .unwrap();
        let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
        TscEnv::new(
            grid.scenario("t", f).unwrap(),
            SimConfig::default(),
            EnvConfig {
                decision_interval: 5,
                episode_horizon: 140,
            },
            0,
        )
        .unwrap()
    }

    fn small_cfg() -> Ma2cConfig {
        Ma2cConfig {
            hidden: 16,
            lstm_hidden: 16,
            ..Ma2cConfig::default()
        }
    }

    #[test]
    fn input_combines_local_neighbors_and_fingerprints() {
        let e = env();
        let m = Ma2c::new(&e, small_cfg());
        // local 32 + 4 * (32 + 4) = 176.
        assert_eq!(m.input_dim(), 176);
    }

    #[test]
    fn one_episode_trains_all_agents() {
        let mut e = env();
        let mut m = Ma2c::new(&e, small_cfg());
        let stats = m.train_episode(&mut e, 0).unwrap();
        assert!(stats.steps > 0);
        assert_eq!(m.episodes_trained(), 1);
    }

    #[test]
    fn controller_runs_episode() {
        let mut e = env();
        let mut m = Ma2c::new(&e, small_cfg());
        m.train_episode(&mut e, 0).unwrap();
        let mut ctl = m.controller();
        let stats = e.run_episode(&mut ctl, 9).unwrap();
        assert!(stats.spawned > 0);
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut e = env();
            let mut m = Ma2c::new(&e, small_cfg());
            m.train_episode(&mut e, 4).unwrap().total_reward
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spatial_discount_mixes_neighbor_rewards() {
        let e = env();
        let m = Ma2c::new(&e, small_cfg());
        let rewards = vec![-10.0, 0.0, 0.0, 0.0];
        // Agent 0's neighbors in a 2x2 grid: agents 1 and 2.
        let own = m.discounted_reward(&rewards, 0);
        let nbr = m.discounted_reward(&rewards, 1);
        assert!(own < nbr, "own penalty dominates");
        assert!(nbr < 0.0, "neighbor penalty leaks in via alpha");
    }
}
