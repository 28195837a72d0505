//! Max-pressure control (Varaiya-style): at each decision, serve the
//! phase with the highest *pressure* — upstream queues minus downstream
//! occupancy over the movements the phase would release. Max-pressure
//! is the theoretical workhorse of the TSC literature (the paper's
//! pressure state, §III-A, descends from it) and is provably
//! throughput-optimal under idealized assumptions, making it a strong
//! model-free baseline.
//!
//! Through the `IntersectionObs` abstraction we see per-link halting
//! counts broken down by movement and downstream entry counts; phase
//! pressure is approximated per axis and turn class, matching the
//! four-phase plan of the grid scenarios.

use tsc_sim::{Controller, IntersectionObs, Movement};

/// Per-intersection greedy max-pressure controller.
#[derive(Debug, Clone)]
pub struct MaxPressureController {
    /// Minimum steps a chosen phase is held (prevents thrashing through
    /// yellow on every decision).
    min_hold: usize,
    held: Vec<usize>,
    current: Vec<usize>,
}

impl MaxPressureController {
    /// Creates a max-pressure controller holding each chosen phase at
    /// least `min_hold` decisions.
    ///
    /// # Panics
    ///
    /// Panics if `min_hold` is zero.
    pub fn new(min_hold: usize) -> Self {
        assert!(min_hold > 0, "min_hold must be positive");
        MaxPressureController {
            min_hold,
            held: Vec::new(),
            current: Vec::new(),
        }
    }

    /// Pressure of the standard four phases: (NS through+right,
    /// NS left, EW through+right, EW left), computed from per-movement
    /// halting counts minus mean downstream occupancy.
    fn phase_pressures(obs: &IntersectionObs) -> [f64; 4] {
        let mut p = [0.0f64; 4];
        let downstream: f64 = if obs.outgoing_counts.is_empty() {
            0.0
        } else {
            obs.outgoing_counts.iter().sum::<f64>() / obs.outgoing_counts.len() as f64
        };
        for link in &obs.incoming {
            let ns = link.direction.index() % 2 == 0;
            let through_right = link.halting_by_movement[Movement::Through.index()]
                + link.halting_by_movement[Movement::Right.index()];
            let left = link.halting_by_movement[Movement::Left.index()];
            if ns {
                p[0] += through_right;
                p[1] += left;
            } else {
                p[2] += through_right;
                p[3] += left;
            }
        }
        for v in &mut p {
            *v -= downstream;
        }
        p
    }
}

impl Default for MaxPressureController {
    fn default() -> Self {
        MaxPressureController::new(2)
    }
}

impl Controller for MaxPressureController {
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
                if self.held[i] >= self.min_hold {
                    let p = Self::phase_pressures(o);
                    let best = p[..n.min(4)]
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .map(|(k, _)| k)
                        .unwrap_or(0);
                    if best != self.current[i] {
                        self.current[i] = best;
                        self.held[i] = 0;
                    }
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

    fn obs(ns_through: f64, ns_left: f64, ew_through: f64, ew_left: f64) -> IntersectionObs {
        IntersectionObs {
            node: NodeId(0),
            time: 0,
            incoming: Approaches::from([
                LinkObs {
                    link: LinkId(0),
                    direction: Direction::South,
                    count: ns_through + ns_left,
                    halting: ns_through + ns_left,
                    halting_by_movement: [ns_left, ns_through, 0.0],
                    head_wait: 0.0,
                },
                LinkObs {
                    link: LinkId(1),
                    direction: Direction::West,
                    count: ew_through + ew_left,
                    halting: ew_through + ew_left,
                    halting_by_movement: [ew_left, ew_through, 0.0],
                    head_wait: 0.0,
                },
            ]),
            outgoing_counts: Approaches::from([0.0]),
            outgoing_links: Approaches::from([LinkId(2)]),
            current_phase: 0,
            num_phases: 4,
        }
    }

    #[test]
    fn serves_the_heaviest_phase() {
        let mut c = MaxPressureController::new(1);
        assert_eq!(c.decide(&[obs(9.0, 0.0, 1.0, 0.0)]), vec![0]);
        c.reset();
        assert_eq!(c.decide(&[obs(0.0, 7.0, 1.0, 0.0)]), vec![1]);
        c.reset();
        assert_eq!(c.decide(&[obs(1.0, 0.0, 9.0, 0.0)]), vec![2]);
        c.reset();
        assert_eq!(c.decide(&[obs(0.0, 1.0, 0.0, 6.0)]), vec![3]);
    }

    #[test]
    fn min_hold_prevents_thrashing() {
        let mut c = MaxPressureController::new(3);
        // First decision establishes phase 0 (pressures equal, tie ->
        // index 0); demand then shifts but the hold keeps phase 0.
        assert_eq!(c.decide(&[obs(5.0, 0.0, 0.0, 0.0)]), vec![0]);
        assert_eq!(c.decide(&[obs(0.0, 0.0, 9.0, 0.0)]), vec![0]);
        assert_eq!(c.decide(&[obs(0.0, 0.0, 9.0, 0.0)]), vec![2]);
    }

    #[test]
    fn tracks_shifting_demand_over_time() {
        let mut c = MaxPressureController::new(1);
        let seq = [
            obs(9.0, 0.0, 0.0, 0.0),
            obs(0.0, 0.0, 9.0, 0.0),
            obs(0.0, 8.0, 0.0, 0.0),
        ];
        let phases: Vec<usize> = seq
            .iter()
            .map(|o| c.decide(std::slice::from_ref(o))[0])
            .collect();
        assert_eq!(phases, vec![0, 2, 1]);
    }
}
