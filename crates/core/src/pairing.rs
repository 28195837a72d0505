//! Communication pairing: who talks to whom.
//!
//! PairUpLight pairs each intersection with **the most congested
//! upstream neighboring intersection** (paper §V-B): among the
//! signalized upstream endpoints of its incoming links, the one whose
//! congestion is highest right now, falling back to the agent itself
//! when no upstream intersection is congested (self-messaging, matching
//! Eq. 8's "either the current agent itself or one of its neighboring
//! agents"). The pairing is recomputed at every decision step from live
//! observations.

use tsc_sim::{Network, NodeId};

use crate::obs::ObsEncoder;
use tsc_sim::IntersectionObs;

/// Upstream agent candidates per agent, with the connecting link's
/// direction slot, precomputed from the network topology.
#[derive(Debug, Clone)]
pub struct PairingTable {
    /// For each agent: the agent indices of signalized upstream
    /// neighbors (endpoints of incoming links).
    upstream: Vec<Vec<usize>>,
}

impl PairingTable {
    /// Builds the table for `agents` on `network`.
    pub fn new(network: &Network, agents: &[NodeId], encoder: &ObsEncoder) -> Self {
        let upstream = agents
            .iter()
            .map(|&n| {
                let mut ups: Vec<usize> = network
                    .upstream_signalized(n)
                    .into_iter()
                    .filter_map(|(node, _)| encoder.agent_of(node))
                    .collect();
                ups.sort_unstable();
                ups.dedup();
                ups
            })
            .collect();
        PairingTable { upstream }
    }

    /// The upstream candidate agents of `agent`.
    pub fn upstream(&self, agent: usize) -> &[usize] {
        &self.upstream[agent]
    }

    /// Congestion score used to rank upstream partners: total halting
    /// plus positive pressure — "the one that experiences congestion
    /// first".
    fn congestion(obs: &IntersectionObs) -> f64 {
        obs.total_halting() + obs.pressure().max(0.0)
    }

    /// Picks each agent's communication partner for this step: the most
    /// congested upstream agent, or the agent itself when none of its
    /// upstream neighbors shows congestion. Returns one partner index
    /// per agent.
    pub fn partners(&self, all_obs: &[IntersectionObs]) -> Vec<usize> {
        (0..self.upstream.len())
            .map(|a| {
                let mut best = a;
                let mut best_score = 0.0f64;
                for &u in &self.upstream[a] {
                    let score = Self::congestion(&all_obs[u]);
                    if score > best_score {
                        best_score = score;
                        best = u;
                    }
                }
                best
            })
            .collect()
    }

    /// Self-loop partners: each agent listens to itself (the ablation
    /// that removes inter-agent communication topology while keeping
    /// the message machinery).
    pub fn self_partners(&self) -> Vec<usize> {
        (0..self.upstream.len()).collect()
    }

    /// Uniformly random upstream partner per agent (self when an agent
    /// has no upstream neighbors) — the ablation showing the pairing
    /// rule matters, not just "some neighbor".
    pub fn random_partners<R: rand::Rng>(&self, rng: &mut R) -> Vec<usize> {
        (0..self.upstream.len())
            .map(|a| {
                if self.upstream[a].is_empty() {
                    a
                } else {
                    self.upstream[a][rng.gen_range(0..self.upstream[a].len())]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{ObsEncoder, ObsNorm};
    use tsc_sim::scenario::grid::{Grid, GridConfig};
    use tsc_sim::{Approaches, Direction, LinkId, LinkObs};

    fn setup() -> (Grid, Vec<NodeId>, ObsEncoder, PairingTable) {
        let grid = Grid::build(GridConfig {
            cols: 3,
            rows: 3,
            spacing: 200.0,
        })
        .unwrap();
        let agents: Vec<NodeId> = grid.network().signalized_nodes();
        let enc = ObsEncoder::new(grid.network(), &agents, 4, ObsNorm::default());
        let table = PairingTable::new(grid.network(), &agents, &enc);
        (grid, agents, enc, table)
    }

    fn quiet_obs(node: NodeId) -> IntersectionObs {
        IntersectionObs {
            node,
            time: 0,
            incoming: Approaches::new(),
            outgoing_counts: Approaches::new(),
            outgoing_links: Approaches::new(),
            current_phase: 0,
            num_phases: 4,
        }
    }

    fn congested_obs(node: NodeId, halting: f64) -> IntersectionObs {
        IntersectionObs {
            node,
            time: 0,
            incoming: Approaches::from([LinkObs {
                link: LinkId(0),
                direction: Direction::East,
                count: halting,
                halting,
                halting_by_movement: [0.0, halting, 0.0],
                head_wait: 30.0,
            }]),
            outgoing_counts: Approaches::from([0.0]),
            outgoing_links: Approaches::from([LinkId(1)]),
            current_phase: 0,
            num_phases: 4,
        }
    }

    #[test]
    fn center_has_four_upstream_candidates() {
        let (_, agents, _, table) = setup();
        // Center of a 3x3 grid (col-major index 4) has 4 signalized
        // upstream neighbors.
        let center = agents.iter().position(|&n| n == agents[4]).unwrap();
        assert_eq!(table.upstream(center).len(), 4);
    }

    #[test]
    fn quiet_network_pairs_with_self() {
        let (_, agents, _, table) = setup();
        let obs: Vec<IntersectionObs> = agents.iter().map(|&n| quiet_obs(n)).collect();
        let partners = table.partners(&obs);
        for (a, &p) in partners.iter().enumerate() {
            assert_eq!(p, a, "no congestion => self-pairing");
        }
    }

    #[test]
    fn most_congested_upstream_wins() {
        let (_, agents, _, table) = setup();
        let center = 4usize;
        let ups = table.upstream(center).to_vec();
        assert!(ups.len() >= 2);
        let mut obs: Vec<IntersectionObs> = agents.iter().map(|&n| quiet_obs(n)).collect();
        obs[ups[0]] = congested_obs(agents[ups[0]], 3.0);
        obs[ups[1]] = congested_obs(agents[ups[1]], 9.0);
        let partners = table.partners(&obs);
        assert_eq!(partners[center], ups[1], "higher congestion wins");
    }

    #[test]
    fn pairing_tracks_changing_congestion() {
        let (_, agents, _, table) = setup();
        let center = 4usize;
        let ups = table.upstream(center).to_vec();
        let mut obs: Vec<IntersectionObs> = agents.iter().map(|&n| quiet_obs(n)).collect();
        obs[ups[0]] = congested_obs(agents[ups[0]], 5.0);
        assert_eq!(table.partners(&obs)[center], ups[0]);
        obs[ups[0]] = quiet_obs(agents[ups[0]]);
        obs[ups[1]] = congested_obs(agents[ups[1]], 5.0);
        assert_eq!(table.partners(&obs)[center], ups[1]);
    }
}
