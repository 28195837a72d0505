//! Actuated signal control (paper §II-A): the classic gap-out /
//! extension logic used by real controllers. The phase holds its green
//! while detectors keep reporting demand (halting vehicles) on the
//! served approaches, up to a maximum green; when the served movements
//! gap out — or max-green expires — the controller advances to the next
//! phase with demand.
//!
//! This is the strongest *non-learning* baseline in the repository and
//! a useful sanity bound: an RL policy that cannot beat actuated
//! control has not learned anything interesting.

use tsc_sim::{Controller, IntersectionObs};

/// Per-intersection actuated gap-out controller.
#[derive(Debug, Clone)]
pub struct ActuatedController {
    /// Minimum green, in decision steps.
    min_green: usize,
    /// Maximum green, in decision steps.
    max_green: usize,
    /// Demand threshold (halting vehicles) below which a phase is
    /// considered gapped out.
    gap_threshold: f64,
    /// Per-agent: steps the current phase has been held.
    held: Vec<usize>,
    /// Per-agent: the phase currently served.
    current: Vec<usize>,
}

impl ActuatedController {
    /// Creates an actuated controller.
    ///
    /// # Panics
    ///
    /// Panics if `min_green > max_green` or `max_green == 0`.
    pub fn new(min_green: usize, max_green: usize, gap_threshold: f64) -> Self {
        assert!(min_green <= max_green, "min_green must be <= max_green");
        assert!(max_green > 0, "max_green must be positive");
        ActuatedController {
            min_green,
            max_green,
            gap_threshold,
            held: Vec::new(),
            current: Vec::new(),
        }
    }

    /// Demand proxy for the phase currently served at `obs`: the
    /// total halting count over incoming links (we cannot see
    /// per-phase demand through the `IntersectionObs` abstraction, so
    /// approaches with *any* queue keep the green alive; the max-green
    /// bound prevents starvation).
    fn served_demand(obs: &IntersectionObs) -> f64 {
        // Direction parity groups approaches per the four-phase plan:
        // phases 0/1 serve N-S (direction indices 0, 2), phases 2/3
        // serve E-W (indices 1, 3).
        let ns: f64 = obs
            .incoming
            .iter()
            .filter(|l| l.direction.index() % 2 == 0)
            .map(|l| l.halting)
            .sum();
        let ew: f64 = obs
            .incoming
            .iter()
            .filter(|l| l.direction.index() % 2 == 1)
            .map(|l| l.halting)
            .sum();
        if obs.current_phase < 2 {
            ns
        } else {
            ew
        }
    }

    /// Demand on the axis *not* currently served.
    fn cross_demand(obs: &IntersectionObs) -> f64 {
        let total: f64 = obs.incoming.iter().map(|l| l.halting).sum();
        total - Self::served_demand(obs)
    }
}

impl Default for ActuatedController {
    fn default() -> Self {
        // 2 steps ~ 14 s min green, 8 steps ~ 56 s max green.
        ActuatedController::new(2, 8, 0.5)
    }
}

impl Controller for ActuatedController {
    fn reset(&mut self) {
        self.held.clear();
        self.current.clear();
    }

    fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
        if self.held.len() != obs.len() {
            self.held = vec![0; obs.len()];
            self.current = vec![0; obs.len()];
        }
        obs.iter()
            .enumerate()
            .map(|(i, o)| {
                let n = o.num_phases.max(1);
                self.held[i] += 1;
                let held = self.held[i];
                let extend = held < self.min_green
                    || (held < self.max_green
                        && Self::served_demand(o) > self.gap_threshold
                        && Self::served_demand(o) >= Self::cross_demand(o) * 0.25);
                if !extend {
                    self.current[i] = (self.current[i] + 1) % n;
                    self.held[i] = 0;
                }
                self.current[i] % n
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_sim::{Approaches, Direction, LinkId, LinkObs, NodeId};

    fn obs_with(ns_halt: f64, ew_halt: f64, phase: usize) -> IntersectionObs {
        IntersectionObs {
            node: NodeId(0),
            time: 0,
            incoming: Approaches::from([
                LinkObs {
                    link: LinkId(0),
                    direction: Direction::South,
                    count: ns_halt,
                    halting: ns_halt,
                    halting_by_movement: [0.0, ns_halt, 0.0],
                    head_wait: 0.0,
                },
                LinkObs {
                    link: LinkId(1),
                    direction: Direction::East,
                    count: ew_halt,
                    halting: ew_halt,
                    halting_by_movement: [0.0, ew_halt, 0.0],
                    head_wait: 0.0,
                },
            ]),
            outgoing_counts: Approaches::new(),
            outgoing_links: Approaches::new(),
            current_phase: phase,
            num_phases: 4,
        }
    }

    #[test]
    fn extends_green_under_served_demand() {
        let mut c = ActuatedController::new(1, 10, 0.5);
        // Heavy NS demand while serving a NS phase: keep phase 0.
        let o = vec![obs_with(8.0, 0.0, 0)];
        for _ in 0..5 {
            assert_eq!(c.decide(&o), vec![0]);
        }
    }

    #[test]
    fn gaps_out_when_served_demand_clears() {
        let mut c = ActuatedController::new(1, 10, 0.5);
        let busy = vec![obs_with(8.0, 3.0, 0)];
        c.decide(&busy);
        c.decide(&busy);
        // Served axis empties, cross traffic waits: advance.
        let empty = vec![obs_with(0.0, 3.0, 0)];
        assert_eq!(c.decide(&empty), vec![1]);
    }

    #[test]
    fn max_green_prevents_starvation() {
        let mut c = ActuatedController::new(1, 3, 0.5);
        let o = vec![obs_with(8.0, 8.0, 0)];
        let mut phases = Vec::new();
        for _ in 0..8 {
            phases.push(c.decide(&o)[0]);
        }
        assert!(
            phases.contains(&1),
            "phase must advance despite endless demand: {phases:?}"
        );
    }

    #[test]
    fn min_green_is_respected() {
        let mut c = ActuatedController::new(3, 10, 0.5);
        // Nothing served, heavy cross demand — but min green holds.
        let o = vec![obs_with(0.0, 9.0, 0)];
        assert_eq!(c.decide(&o), vec![0]);
        assert_eq!(c.decide(&o), vec![0]);
        assert_eq!(c.decide(&o), vec![1], "advances after min green");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = ActuatedController::default();
        let o = vec![obs_with(1.0, 1.0, 0)];
        c.decide(&o);
        c.decide(&o);
        c.reset();
        assert_eq!(c.decide(&o), vec![0]);
    }
}
