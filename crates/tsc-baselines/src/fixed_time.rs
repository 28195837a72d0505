//! The FixedTime baseline: a predetermined cyclic signal plan that
//! ignores traffic conditions (paper §VI-B).

use tsc_sim::{Controller, IntersectionObs};

/// Cycles every intersection through its phases in order, holding each
/// phase for a fixed number of decision steps.
#[derive(Debug, Clone)]
pub struct FixedTimeController {
    hold_steps: usize,
    step: usize,
}

impl FixedTimeController {
    /// Creates a plan holding each phase for `hold_steps` decisions
    /// (with the paper's 5 s green + 2 s yellow cadence, `hold_steps =
    /// 4` gives a ~28 s split per phase).
    ///
    /// # Panics
    ///
    /// Panics if `hold_steps` is zero.
    pub fn new(hold_steps: usize) -> Self {
        assert!(hold_steps > 0, "hold_steps must be positive");
        FixedTimeController {
            hold_steps,
            step: 0,
        }
    }

    /// The configured hold length in decision steps.
    pub fn hold_steps(&self) -> usize {
        self.hold_steps
    }
}

impl Default for FixedTimeController {
    fn default() -> Self {
        FixedTimeController::new(4)
    }
}

impl Controller for FixedTimeController {
    fn reset(&mut self) {
        self.step = 0;
    }

    fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
        let phase_slot = self.step / self.hold_steps;
        self.step += 1;
        obs.iter()
            .map(|o| phase_slot % o.num_phases.max(1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_sim::{Approaches, NodeId};

    fn obs(num_phases: usize) -> IntersectionObs {
        IntersectionObs {
            node: NodeId(0),
            time: 0,
            incoming: Approaches::new(),
            outgoing_counts: Approaches::new(),
            outgoing_links: Approaches::new(),
            current_phase: 0,
            num_phases,
        }
    }

    #[test]
    fn cycles_through_all_phases() {
        let mut c = FixedTimeController::new(2);
        let o = vec![obs(4)];
        let mut seen = Vec::new();
        for _ in 0..8 {
            seen.push(c.decide(&o)[0]);
        }
        assert_eq!(seen, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn wraps_around_after_full_cycle() {
        let mut c = FixedTimeController::new(1);
        let o = vec![obs(3)];
        let seen: Vec<usize> = (0..7).map(|_| c.decide(&o)[0]).collect();
        assert_eq!(seen, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn heterogeneous_phase_counts_wrap_independently() {
        let mut c = FixedTimeController::new(1);
        let o = vec![obs(4), obs(2)];
        let step3 = {
            c.reset();
            c.decide(&o);
            c.decide(&o);
            c.decide(&o)
        };
        assert_eq!(step3, vec![2, 0]);
    }

    #[test]
    fn reset_restarts_the_cycle() {
        let mut c = FixedTimeController::new(1);
        let o = vec![obs(4)];
        c.decide(&o);
        c.decide(&o);
        c.reset();
        assert_eq!(c.decide(&o), vec![0]);
    }
}
