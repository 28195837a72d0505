//! Signal phases and per-intersection signal state machines.
//!
//! A [`Phase`] is a set of permitted `(incoming link, movement)` pairs
//! (paper §IV-B, Fig. 3). A [`SignalPlan`] is the ordered phase set of
//! one intersection. The [`SignalState`] machine inserts a fixed yellow
//! clearance interval whenever the active phase changes; during yellow no
//! movement is permitted, modelling the safe-clearance interval of the
//! paper (§VI-A: 5 s green per decision plus 2 s yellow).

use std::collections::HashSet;

use crate::error::SimError;
use crate::ids::{LinkId, NodeId};
use crate::network::{Movement, Network};

/// A signal phase: the set of permitted `(incoming link, movement)`
/// pairs while the phase is green.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Phase {
    permitted: HashSet<(LinkId, Movement)>,
}

impl Phase {
    /// Creates a phase permitting exactly the given pairs.
    pub fn new<I: IntoIterator<Item = (LinkId, Movement)>>(pairs: I) -> Self {
        Phase {
            permitted: pairs.into_iter().collect(),
        }
    }

    /// Returns `true` if the phase permits `movement` from `link`.
    pub fn permits(&self, link: LinkId, movement: Movement) -> bool {
        self.permitted.contains(&(link, movement))
    }

    /// The permitted pairs (unordered).
    pub fn permitted(&self) -> impl Iterator<Item = (LinkId, Movement)> + '_ {
        self.permitted.iter().copied()
    }

    /// Number of permitted pairs.
    pub fn len(&self) -> usize {
        self.permitted.len()
    }

    /// Whether the phase permits nothing (an all-red phase).
    pub fn is_empty(&self) -> bool {
        self.permitted.is_empty()
    }
}

/// The ordered phase set of one signalized intersection.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SignalPlan {
    node: NodeId,
    phases: Vec<Phase>,
}

impl SignalPlan {
    /// Creates a plan for `node` with the given phases.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `phases` is empty.
    pub fn new(node: NodeId, phases: Vec<Phase>) -> Result<Self, SimError> {
        if phases.is_empty() {
            return Err(SimError::InvalidConfig(format!(
                "signal plan for {node} has no phases"
            )));
        }
        Ok(SignalPlan { node, phases })
    }

    /// The intersection this plan controls.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The phases in selection order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Builds the standard four-phase plan of the paper's Fig. 3 for a
    /// four-way intersection in `network`:
    ///
    /// 1. north–south through + right,
    /// 2. north–south left,
    /// 3. west–east through + right,
    /// 4. west–east left.
    ///
    /// Approaches that do not exist (three-way intersections) simply
    /// contribute nothing to the affected phases; phases that end up
    /// empty are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the node has no incoming
    /// links or every phase would be empty.
    pub fn four_phase(network: &Network, node: NodeId) -> Result<Self, SimError> {
        let incoming = network.incoming(node);
        if incoming.is_empty() {
            return Err(SimError::InvalidConfig(format!(
                "node {node} has no incoming links"
            )));
        }
        let is_ns = |l: &LinkId| {
            let d = network.link(*l).direction();
            d.index().is_multiple_of(2) // North or South travel
        };
        let mut phases = Vec::new();
        for (ns, movements) in [
            (true, vec![Movement::Through, Movement::Right]),
            (true, vec![Movement::Left]),
            (false, vec![Movement::Through, Movement::Right]),
            (false, vec![Movement::Left]),
        ] {
            let mut pairs = Vec::new();
            for l in incoming.iter().filter(|l| is_ns(l) == ns) {
                for &m in &movements {
                    if network.turn_target(*l, m).is_some() {
                        pairs.push((*l, m));
                    }
                }
            }
            if !pairs.is_empty() {
                phases.push(Phase::new(pairs));
            }
        }
        SignalPlan::new(node, phases)
    }
}

/// The runtime signal state of one intersection.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
enum LightState {
    /// The phase at `phase` is green.
    Green,
    /// Clearing towards `next`; `remaining` seconds of yellow left.
    Yellow { next: usize, remaining: u32 },
}

/// Per-intersection signal state machine with yellow-clearance handling.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SignalState {
    plan: SignalPlan,
    phase: usize,
    state: LightState,
    yellow_time: u32,
}

impl SignalState {
    /// Creates a state machine starting green on phase 0.
    pub fn new(plan: SignalPlan, yellow_time: u32) -> Self {
        SignalState {
            plan,
            phase: 0,
            state: LightState::Green,
            yellow_time,
        }
    }

    /// The controlled intersection.
    pub fn node(&self) -> NodeId {
        self.plan.node()
    }

    /// The plan driving this state machine.
    pub fn plan(&self) -> &SignalPlan {
        &self.plan
    }

    /// Index of the active (or, during yellow, upcoming) phase.
    pub fn phase(&self) -> usize {
        match self.state {
            LightState::Green => self.phase,
            LightState::Yellow { next, .. } => next,
        }
    }

    /// Whether the intersection is in its yellow clearance interval.
    pub fn in_yellow(&self) -> bool {
        matches!(self.state, LightState::Yellow { .. })
    }

    /// Requests phase `phase`. A change inserts `yellow_time` seconds of
    /// all-red/yellow clearance before the new green; requesting the
    /// active phase extends the green.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPhase`] if out of range.
    pub fn request_phase(&mut self, phase: usize) -> Result<(), SimError> {
        self.validate_phase(phase)?;
        match self.state {
            LightState::Green if phase != self.phase => {
                if self.yellow_time == 0 {
                    self.phase = phase;
                } else {
                    self.state = LightState::Yellow {
                        next: phase,
                        remaining: self.yellow_time,
                    };
                }
            }
            LightState::Yellow { remaining, .. } => {
                // Redirect the in-flight switch; keep the clearance timer.
                self.state = LightState::Yellow {
                    next: phase,
                    remaining,
                };
            }
            LightState::Green => {}
        }
        Ok(())
    }

    /// Checks that `phase` exists in this plan without acting on it —
    /// the validation half of [`request_phase`](Self::request_phase),
    /// used when an actuation fault swallows the command itself but
    /// the request must still be range-checked.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPhase`] if out of range.
    pub fn validate_phase(&self, phase: usize) -> Result<(), SimError> {
        if phase >= self.plan.num_phases() {
            return Err(SimError::InvalidPhase {
                node: self.plan.node(),
                phase,
                num_phases: self.plan.num_phases(),
            });
        }
        Ok(())
    }

    /// Advances the state machine by one second. Only a yellow
    /// interval changes: a green phase holds until the next request.
    pub fn tick(&mut self) {
        if let LightState::Yellow { next, remaining } = &mut self.state {
            // Saturating: a zero-remaining yellow (possible only in a
            // hand-built or deserialized state) resolves to green
            // instead of underflowing.
            *remaining = remaining.saturating_sub(1);
            if *remaining == 0 {
                self.phase = *next;
                self.state = LightState::Green;
            }
        }
    }

    /// Whether `movement` from `link` may discharge right now (green on
    /// a permitting phase; nothing discharges during yellow). An
    /// out-of-range phase index (impossible via [`request_phase`]
    /// (Self::request_phase), which validates) reads as all-red rather
    /// than panicking mid-step.
    pub fn permits(&self, link: LinkId, movement: Movement) -> bool {
        match self.state {
            LightState::Green => self
                .plan
                .phases()
                .get(self.phase)
                .is_some_and(|p| p.permits(link, movement)),
            LightState::Yellow { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Direction;
    use crate::network::{Lane, NetworkBuilder};

    fn cross() -> (Network, NodeId) {
        let mut b = NetworkBuilder::new();
        let c = b.add_node(0.0, 0.0, true);
        let n = b.add_node(0.0, 200.0, false);
        let e = b.add_node(200.0, 0.0, false);
        let s = b.add_node(0.0, -200.0, false);
        let w = b.add_node(-200.0, 0.0, false);
        for (t, d) in [
            (n, Direction::South),
            (e, Direction::West),
            (s, Direction::North),
            (w, Direction::East),
        ] {
            b.add_link(t, c, d, vec![Lane::all_movements()]).unwrap();
            b.add_link(c, t, d.opposite(), vec![Lane::all_movements()])
                .unwrap();
        }
        (b.build().unwrap(), c)
    }
    use crate::network::Network;

    #[test]
    fn four_phase_plan_has_four_disjoint_phases() {
        let (net, c) = cross();
        let plan = SignalPlan::four_phase(&net, c).unwrap();
        assert_eq!(plan.num_phases(), 4);
        // Through/right NS phase must not permit any EW movement.
        let ew_links: Vec<LinkId> = net
            .incoming(c)
            .iter()
            .copied()
            .filter(|&l| net.link(l).direction().index() % 2 == 1)
            .collect();
        for (l, _) in plan.phases()[0].permitted() {
            assert!(!ew_links.contains(&l));
        }
    }

    #[test]
    fn phase_change_goes_through_yellow() {
        let (net, c) = cross();
        let plan = SignalPlan::four_phase(&net, c).unwrap();
        let sample = plan.phases()[2].permitted().next().unwrap();
        let mut st = SignalState::new(plan, 2);
        assert!(!st.in_yellow());
        st.request_phase(2).unwrap();
        assert!(st.in_yellow());
        assert!(!st.permits(sample.0, sample.1), "yellow blocks discharge");
        st.tick();
        assert!(st.in_yellow());
        st.tick();
        assert!(!st.in_yellow());
        assert_eq!(st.phase(), 2);
        assert!(st.permits(sample.0, sample.1));
    }

    #[test]
    fn requesting_active_phase_keeps_green() {
        let (net, c) = cross();
        let plan = SignalPlan::four_phase(&net, c).unwrap();
        let sample = plan.phases()[0].permitted().next().unwrap();
        let mut st = SignalState::new(plan, 2);
        st.tick();
        st.request_phase(0).unwrap();
        assert!(!st.in_yellow());
        assert_eq!(st.phase(), 0);
        assert!(st.permits(sample.0, sample.1), "the green holds");
    }

    #[test]
    fn invalid_phase_is_rejected() {
        let (net, c) = cross();
        let plan = SignalPlan::four_phase(&net, c).unwrap();
        let mut st = SignalState::new(plan, 2);
        assert!(matches!(
            st.request_phase(99),
            Err(SimError::InvalidPhase { phase: 99, .. })
        ));
    }

    #[test]
    fn zero_yellow_switches_immediately() {
        let (net, c) = cross();
        let plan = SignalPlan::four_phase(&net, c).unwrap();
        let mut st = SignalState::new(plan, 0);
        st.request_phase(3).unwrap();
        assert!(!st.in_yellow());
        assert_eq!(st.phase(), 3);
    }

    #[test]
    fn redirect_during_yellow_lands_on_latest_request() {
        let (net, c) = cross();
        let plan = SignalPlan::four_phase(&net, c).unwrap();
        let mut st = SignalState::new(plan, 2);
        st.request_phase(1).unwrap();
        st.tick();
        st.request_phase(3).unwrap();
        st.tick();
        assert_eq!(st.phase(), 3);
        assert!(!st.in_yellow());
    }
}
