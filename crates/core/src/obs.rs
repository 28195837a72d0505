//! Observation encoding: from detector snapshots to network inputs.
//!
//! The actor consumes the paper's Eq. 5 state — link-level pressure
//! components and head-vehicle waits — arranged in fixed direction
//! slots (N, E, S, W) so every intersection, regardless of degree,
//! produces the same vector length (missing approaches are zero,
//! the same padding trick the paper uses for edge intersections).
//!
//! The centralized critic additionally sees one-hop and two-hop
//! neighbor congestion summaries (paper §V-B), zero-padded to fixed
//! slot counts.

use std::collections::HashMap;

use tsc_sim::{IntersectionObs, LinkObs, Network, NodeId};

/// Slots reserved for one-hop neighbors in the critic input.
pub const ONE_HOP_SLOTS: usize = 4;
/// Slots reserved for two-hop neighbors in the critic input.
pub const TWO_HOP_SLOTS: usize = 8;
/// Features per direction slot in the local observation:
/// `[in_count, halting, halt_left, halt_through, halt_right,
/// head_wait]` — counts plus the paper's per-movement queues.
const IN_FEATURES: usize = 6;
/// Outgoing features per direction slot: `[out_count]`.
const OUT_FEATURES: usize = 1;
/// Per-neighbor features in the critic input: `[pressure, max_wait]`.
const NEIGHBOR_FEATURES: usize = 2;

/// Normalization constants (counts are detector-bounded, waits in
/// seconds).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ObsNorm {
    /// Vehicle counts are divided by this.
    pub count: f32,
    /// Waiting times are divided by this.
    pub wait: f32,
}

impl Default for ObsNorm {
    fn default() -> Self {
        ObsNorm {
            count: 10.0,
            wait: 120.0,
        }
    }
}

/// Encodes detector snapshots into fixed-size network inputs.
#[derive(Debug, Clone)]
pub struct ObsEncoder {
    norm: ObsNorm,
    max_phases: usize,
    /// Agent index of each signalized node.
    agent_of: HashMap<NodeId, usize>,
    /// One-hop neighbor agent indices per agent (≤ 4, direction order).
    one_hop: Vec<Vec<usize>>,
    /// Two-hop neighbor agent indices per agent (≤ 8).
    two_hop: Vec<Vec<usize>>,
}

impl ObsEncoder {
    /// Builds the encoder for `agents` (in canonical order) on `network`.
    pub fn new(network: &Network, agents: &[NodeId], max_phases: usize, norm: ObsNorm) -> Self {
        let agent_of: HashMap<NodeId, usize> =
            agents.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let one_hop = agents
            .iter()
            .map(|&n| {
                network
                    .signalized_neighbors(n)
                    .into_iter()
                    .filter_map(|m| agent_of.get(&m).copied())
                    .take(ONE_HOP_SLOTS)
                    .collect()
            })
            .collect();
        let two_hop = agents
            .iter()
            .map(|&n| {
                network
                    .two_hop_signalized_neighbors(n)
                    .into_iter()
                    .filter_map(|m| agent_of.get(&m).copied())
                    .take(TWO_HOP_SLOTS)
                    .collect()
            })
            .collect();
        ObsEncoder {
            norm,
            max_phases,
            agent_of,
            one_hop,
            two_hop,
        }
    }

    /// Dimension of the local (actor) observation vector.
    pub fn local_dim(&self) -> usize {
        4 * IN_FEATURES + 4 * OUT_FEATURES + self.max_phases
    }

    /// Dimension of the centralized critic observation vector.
    pub fn critic_dim(&self) -> usize {
        self.local_dim()
            + ONE_HOP_SLOTS * NEIGHBOR_FEATURES
            + TWO_HOP_SLOTS * (NEIGHBOR_FEATURES - 1)
    }

    /// One-hop neighbor agent indices of `agent`.
    pub fn one_hop(&self, agent: usize) -> &[usize] {
        &self.one_hop[agent]
    }

    /// Two-hop neighbor agent indices of `agent`.
    pub fn two_hop(&self, agent: usize) -> &[usize] {
        &self.two_hop[agent]
    }

    /// Agent index of a signalized node, if it is an agent.
    pub fn agent_of(&self, node: NodeId) -> Option<usize> {
        self.agent_of.get(&node).copied()
    }

    /// Encodes the local observation (Eq. 5 plus the current phase).
    pub fn encode_local(&self, obs: &IntersectionObs) -> Vec<f32> {
        let mut v = vec![0.0f32; self.local_dim()];
        self.encode_local_into(obs, &mut v);
        v
    }

    /// Encodes the local observation into a caller-owned slice of
    /// length [`local_dim`](Self::local_dim), fully overwriting it —
    /// the allocation-free variant the serving/rollout hot loops reuse
    /// across steps.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.local_dim()`.
    pub fn encode_local_into(&self, obs: &IntersectionObs, v: &mut [f32]) {
        assert_eq!(v.len(), self.local_dim(), "encode_local_into length");
        v.fill(0.0);
        for link in &obs.incoming {
            let d = link.direction.index();
            v[d * IN_FEATURES] = link.count as f32 / self.norm.count;
            v[d * IN_FEATURES + 1] = link.halting as f32 / self.norm.count;
            for (k, &h) in link.halting_by_movement.iter().enumerate() {
                v[d * IN_FEATURES + 2 + k] = h as f32 / self.norm.count;
            }
            v[d * IN_FEATURES + 5] = link.head_wait as f32 / self.norm.wait;
        }
        let out_base = 4 * IN_FEATURES;
        // Outgoing links arrive direction-sorted; pack positionally
        // (intersections with fewer than four exits leave zeros).
        for (i, &count) in obs.outgoing_counts.iter().enumerate() {
            v[out_base + i.min(3)] += count as f32 / self.norm.count;
        }
        let phase_base = out_base + 4;
        if obs.current_phase < self.max_phases {
            v[phase_base + obs.current_phase] = 1.0;
        }
    }

    /// Congestion summary `[pressure, max_wait]` (normalized) of one
    /// intersection, used for neighbor slots.
    pub fn congestion_summary(&self, obs: &IntersectionObs) -> [f32; 2] {
        [
            obs.pressure() as f32 / self.norm.count,
            obs.max_wait() as f32 / self.norm.wait,
        ]
    }

    /// Encodes the centralized critic input for `agent` given the joint
    /// observation (one `IntersectionObs` per agent, in agent order).
    pub fn encode_critic(&self, all: &[IntersectionObs], agent: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; self.critic_dim()];
        self.encode_critic_into(all, agent, &mut v);
        v
    }

    /// Encodes the centralized critic input into a caller-owned slice
    /// of length [`critic_dim`](Self::critic_dim), fully overwriting it
    /// (see [`encode_local_into`](Self::encode_local_into)).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.critic_dim()`.
    pub fn encode_critic_into(&self, all: &[IntersectionObs], agent: usize, v: &mut [f32]) {
        assert_eq!(v.len(), self.critic_dim(), "encode_critic_into length");
        let local = self.local_dim();
        self.encode_local_into(&all[agent], &mut v[..local]);
        for slot in 0..ONE_HOP_SLOTS {
            let at = local + slot * NEIGHBOR_FEATURES;
            match self.one_hop[agent].get(slot) {
                Some(&n) => {
                    let s = self.congestion_summary(&all[n]);
                    v[at..at + NEIGHBOR_FEATURES].copy_from_slice(&s);
                }
                None => v[at..at + NEIGHBOR_FEATURES].fill(0.0),
            }
        }
        let two_base = local + ONE_HOP_SLOTS * NEIGHBOR_FEATURES;
        for slot in 0..TWO_HOP_SLOTS {
            v[two_base + slot] = match self.two_hop[agent].get(slot) {
                Some(&n) => self.congestion_summary(&all[n])[0],
                None => 0.0,
            };
        }
    }

    /// The message head's auxiliary target: the agent's own normalized
    /// congestion (halting + pressure), clamped to `[-1, 1]` to match
    /// the logistic message range after centring.
    pub fn message_target(&self, obs: &IntersectionObs) -> f32 {
        let c = (obs.total_halting() + obs.pressure().max(0.0)) as f32 / (2.0 * self.norm.count);
        c.clamp(-1.0, 1.0)
    }
}

/// Thresholds for the observation-health tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// A link reading that collapses to all-zero while the last healthy
    /// reading had at least this many halted vehicles is treated as a
    /// suspected detector dropout (real queues drain gradually; they do
    /// not vanish in one step).
    pub suspect_drop: f64,
    /// How many consecutive steps a suspected dropout is papered over
    /// with the last-known-good reading before the zeros are passed
    /// through unmodified.
    pub hold_steps: u32,
    /// A link reading that repeats bit-identically (and nonzero) for
    /// this many consecutive steps is treated as a stuck detector.
    pub stuck_steps: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_drop: 4.0,
            hold_steps: 3,
            stuck_steps: 5,
        }
    }
}

/// Per-link detector state tracked by [`ObsHealth`].
#[derive(Debug, Clone, Default)]
struct SlotHealth {
    /// Last reading that looked healthy (the imputation source).
    good: Option<LinkObs>,
    /// Previous raw reading (for stuck detection).
    prev: Option<LinkObs>,
    /// Consecutive identical nonzero raw readings, including this one.
    frozen_run: u32,
    /// Imputation steps spent on the current suspected dropout.
    hold_used: u32,
}

fn values_zero(l: &LinkObs) -> bool {
    l.count == 0.0
        && l.halting == 0.0
        && l.head_wait == 0.0
        && l.halting_by_movement.iter().all(|&h| h == 0.0)
}

fn values_equal(a: &LinkObs, b: &LinkObs) -> bool {
    a.count == b.count
        && a.halting == b.halting
        && a.head_wait == b.head_wait
        && a.halting_by_movement == b.halting_by_movement
}

fn copy_values(dst: &mut LinkObs, src: &LinkObs) {
    dst.count = src.count;
    dst.halting = src.halting;
    dst.halting_by_movement = src.halting_by_movement;
    dst.head_wait = src.head_wait;
}

/// Controller-side observation-health tracker: flags implausible
/// detector readings and imputes last-known-good values over short
/// outages.
///
/// Two failure signatures are tracked per incoming-link slot:
///
/// * **zero-collapse** — a busy approach (last healthy reading had
///   `halting >= suspect_drop`) reads all-zero. The slot is suspect and
///   the last-known-good reading is substituted for up to `hold_steps`
///   consecutive steps; after that the zeros pass through (but the slot
///   stays suspect until a plausible nonzero reading returns).
/// * **frozen detector** — the same nonzero reading repeats
///   bit-identically for `stuck_steps` steps. Real queues accumulate
///   waiting time every second, so an exactly-repeating reading means a
///   stuck sensor. The values are passed through (they are present,
///   just stale) but the slot is suspect.
///
/// An agent whose snapshot contains any suspect slot accrues a
/// *suspect streak* (consecutive suspect steps, reset on a clean step),
/// exposed via [`suspect_streaks`](Self::suspect_streaks) — the signal
/// the serving engine's health-triggered fallback ladder consumes.
///
/// With healthy input the filter is the identity: readings are never
/// modified unless a failure signature fires, so wiring the tracker in
/// front of a policy changes nothing on a clean trace.
#[derive(Debug, Clone)]
pub struct ObsHealth {
    cfg: HealthConfig,
    /// Per agent, per incoming-link slot (sized lazily on first
    /// filter, since approach counts vary per intersection).
    slots: Vec<Vec<SlotHealth>>,
    streaks: Vec<u32>,
}

impl ObsHealth {
    /// Creates a tracker for `num_agents` agents.
    pub fn new(num_agents: usize, cfg: HealthConfig) -> Self {
        ObsHealth {
            cfg,
            slots: vec![Vec::new(); num_agents],
            streaks: vec![0; num_agents],
        }
    }

    /// Forgets all detector history and streaks (e.g. on episode
    /// reset).
    pub fn reset(&mut self) {
        for agent in &mut self.slots {
            agent.clear();
        }
        self.streaks.iter_mut().for_each(|s| *s = 0);
    }

    /// Consecutive suspect steps per agent, updated by
    /// [`filter`](Self::filter).
    pub fn suspect_streaks(&self) -> &[u32] {
        &self.streaks
    }

    /// Inspects (and where warranted, repairs in place) one joint
    /// observation — one snapshot per agent, in agent order.
    ///
    /// # Panics
    ///
    /// Panics if `all.len()` differs from the tracker's agent count.
    pub fn filter(&mut self, all: &mut [IntersectionObs]) {
        assert_eq!(all.len(), self.slots.len(), "ObsHealth agent count");
        for (a, obs) in all.iter_mut().enumerate() {
            let slots = &mut self.slots[a];
            if slots.len() != obs.incoming.len() {
                slots.clear();
                slots.resize(obs.incoming.len(), SlotHealth::default());
            }
            let mut suspect = false;
            for (slot, reading) in slots.iter_mut().zip(obs.incoming.iter_mut()) {
                // Stuck detection runs on the raw reading, before any
                // imputation can make values repeat artificially.
                let repeats = slot
                    .prev
                    .as_ref()
                    .is_some_and(|p| values_equal(p, reading) && !values_zero(reading));
                slot.frozen_run = if repeats { slot.frozen_run + 1 } else { 1 };
                slot.prev = Some(*reading);
                let frozen = slot.frozen_run >= self.cfg.stuck_steps;

                let collapsed = values_zero(reading)
                    && slot
                        .good
                        .as_ref()
                        .is_some_and(|g| g.halting >= self.cfg.suspect_drop);
                if collapsed {
                    suspect = true;
                    if slot.hold_used < self.cfg.hold_steps {
                        slot.hold_used += 1;
                        if let Some(good) = &slot.good {
                            copy_values(reading, good);
                        }
                    }
                    // Past the hold budget the zeros pass through, but
                    // `good` is kept: the collapse stays suspect until
                    // a plausible nonzero reading returns.
                } else {
                    slot.hold_used = 0;
                    if frozen {
                        suspect = true;
                    } else {
                        slot.good = Some(*reading);
                    }
                }
            }
            self.streaks[a] = if suspect { self.streaks[a] + 1 } else { 0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_sim::scenario::grid::{Grid, GridConfig};
    use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
    use tsc_sim::{SimConfig, Simulation};

    fn setup() -> (Simulation, ObsEncoder) {
        let grid = Grid::build(GridConfig::default()).unwrap();
        let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
        let scenario = grid.scenario("t", f).unwrap();
        let sim = Simulation::new(&scenario, SimConfig::default(), 3).unwrap();
        let agents = scenario.agents();
        let enc = ObsEncoder::new(&scenario.network, &agents, 4, ObsNorm::default());
        (sim, enc)
    }

    #[test]
    fn dimensions_are_fixed_across_agents() {
        let (mut sim, enc) = setup();
        for _ in 0..50 {
            sim.step().unwrap();
        }
        let all = sim.observe_all();
        assert_eq!(enc.local_dim(), 32);
        assert_eq!(enc.critic_dim(), 32 + 8 + 8);
        for (i, o) in all.iter().enumerate() {
            assert_eq!(enc.encode_local(o).len(), enc.local_dim());
            assert_eq!(enc.encode_critic(&all, i).len(), enc.critic_dim());
        }
    }

    #[test]
    fn phase_one_hot_is_set() {
        let (sim, enc) = setup();
        let all = sim.observe_all();
        let v = enc.encode_local(&all[0]);
        let phase_slice = &v[28..32];
        assert_eq!(phase_slice.iter().sum::<f32>(), 1.0);
        assert_eq!(phase_slice[all[0].current_phase], 1.0);
    }

    #[test]
    fn edge_agents_get_zero_padded_neighbors() {
        let (_, enc) = setup();
        // Agent 0 is the (0,0) corner: 2 one-hop, 3 two-hop.
        assert_eq!(enc.one_hop(0).len(), 2);
        assert_eq!(enc.two_hop(0).len(), 3);
        // An interior agent has full slots.
        let interior = 2 * 6 + 2; // (2,2) in col-major agent order
        assert_eq!(enc.one_hop(interior).len(), 4);
        assert_eq!(enc.two_hop(interior).len(), 8);
    }

    #[test]
    fn congestion_changes_critic_input() {
        let (mut sim, enc) = setup();
        let all0 = sim.observe_all();
        let before = enc.encode_critic(&all0, 7);
        for _ in 0..400 {
            sim.step().unwrap(); // queues build at defaults (phase 0 held)
        }
        let all1 = sim.observe_all();
        let after = enc.encode_critic(&all1, 7);
        assert_ne!(before, after);
    }

    #[test]
    fn encode_into_overwrites_dirty_buffers_bit_identically() {
        let (mut sim, enc) = setup();
        for _ in 0..120 {
            sim.step().unwrap();
        }
        let all = sim.observe_all();
        for (i, o) in all.iter().enumerate() {
            let mut local = vec![f32::NAN; enc.local_dim()];
            enc.encode_local_into(o, &mut local);
            assert_eq!(local, enc.encode_local(o));
            let mut critic = vec![f32::NAN; enc.critic_dim()];
            enc.encode_critic_into(&all, i, &mut critic);
            assert_eq!(critic, enc.encode_critic(&all, i));
        }
    }

    mod health {
        use super::super::*;
        use tsc_sim::{Approaches, Direction, LinkId, NodeId};

        fn link(halting: f64, head_wait: f64) -> LinkObs {
            LinkObs {
                link: LinkId(0),
                direction: Direction::North,
                count: halting,
                halting,
                halting_by_movement: [0.0, halting, 0.0],
                head_wait,
            }
        }

        fn snapshot(incoming: LinkObs, time: u32) -> IntersectionObs {
            IntersectionObs {
                node: NodeId(0),
                time,
                incoming: Approaches::from([incoming]),
                outgoing_counts: Approaches::from([0.0]),
                outgoing_links: Approaches::from([LinkId(1)]),
                current_phase: 0,
                num_phases: 4,
            }
        }

        #[test]
        fn healthy_trace_is_untouched_and_streak_free() {
            let mut h = ObsHealth::new(1, HealthConfig::default());
            for t in 0..20 {
                let raw = snapshot(link(t as f64 % 7.0, t as f64), t);
                let mut filtered = vec![raw.clone()];
                h.filter(&mut filtered);
                assert_eq!(filtered[0], raw, "identity on clean input");
                assert_eq!(h.suspect_streaks(), &[0]);
            }
        }

        #[test]
        fn zero_collapse_is_imputed_then_released() {
            let cfg = HealthConfig::default();
            let mut h = ObsHealth::new(1, cfg);
            let mut warm = vec![snapshot(link(6.0, 30.0), 0)];
            h.filter(&mut warm);
            // Detector dies: all-zero readings from a busy approach.
            for k in 0..cfg.hold_steps {
                let mut dead = vec![snapshot(link(0.0, 0.0), 1 + k)];
                h.filter(&mut dead);
                assert_eq!(dead[0].incoming[0].halting, 6.0, "imputed step {k}");
                assert_eq!(h.suspect_streaks(), &[k + 1]);
            }
            // Hold budget exhausted: zeros pass through, still suspect.
            let mut dead = vec![snapshot(link(0.0, 0.0), 10)];
            h.filter(&mut dead);
            assert_eq!(dead[0].incoming[0].halting, 0.0);
            assert_eq!(h.suspect_streaks(), &[cfg.hold_steps + 1]);
            // Detector recovers: streak resets.
            let mut back = vec![snapshot(link(5.0, 20.0), 11)];
            h.filter(&mut back);
            assert_eq!(h.suspect_streaks(), &[0]);
        }

        #[test]
        fn quiet_approach_zeros_are_genuine() {
            let mut h = ObsHealth::new(1, HealthConfig::default());
            let mut warm = vec![snapshot(link(2.0, 5.0), 0)];
            h.filter(&mut warm);
            let mut calm = vec![snapshot(link(0.0, 0.0), 1)];
            h.filter(&mut calm);
            assert_eq!(calm[0].incoming[0].halting, 0.0, "below suspect_drop");
            assert_eq!(h.suspect_streaks(), &[0]);
        }

        #[test]
        fn frozen_detector_trips_after_stuck_steps() {
            let cfg = HealthConfig::default();
            let mut h = ObsHealth::new(1, cfg);
            for t in 0..cfg.stuck_steps + 3 {
                let mut frozen = vec![snapshot(link(3.0, 17.0), t)];
                h.filter(&mut frozen);
                assert_eq!(frozen[0].incoming[0].halting, 3.0, "passed through");
                if t + 1 >= cfg.stuck_steps {
                    assert_eq!(h.suspect_streaks(), &[t + 2 - cfg.stuck_steps]);
                } else {
                    assert_eq!(h.suspect_streaks(), &[0]);
                }
            }
            // A changing reading clears the run.
            let mut moving = vec![snapshot(link(3.0, 18.0), 99)];
            h.filter(&mut moving);
            assert_eq!(h.suspect_streaks(), &[0]);
        }

        #[test]
        fn reset_forgets_history() {
            let mut h = ObsHealth::new(1, HealthConfig::default());
            let mut warm = vec![snapshot(link(9.0, 40.0), 0)];
            h.filter(&mut warm);
            h.reset();
            let mut dead = vec![snapshot(link(0.0, 0.0), 1)];
            h.filter(&mut dead);
            assert_eq!(dead[0].incoming[0].halting, 0.0, "no good reading kept");
            assert_eq!(h.suspect_streaks(), &[0]);
        }
    }

    #[test]
    fn message_target_is_bounded() {
        let (mut sim, enc) = setup();
        for _ in 0..500 {
            sim.step().unwrap();
        }
        for o in sim.observe_all() {
            let t = enc.message_target(&o);
            assert!((-1.0..=1.0).contains(&t));
        }
    }
}
