//! The traffic simulation engine.
//!
//! This is the repository's substitute for SUMO (see DESIGN.md): a
//! seeded, deterministic queue model observed at 1 s resolution.
//! Vehicles run at free-flow speed to the back of a per-lane FIFO
//! queue, pick the shortest permitted lane for their upcoming turn, and
//! discharge at the lane saturation flow while their movement has
//! green. Shared lanes exhibit head-of-line blocking; full downstream
//! links block discharge (spillback); full entry links defer insertion
//! (an insertion backlog, as in SUMO).
//!
//! Two steppers implement the model (DESIGN.md §12):
//!
//! * the **event core** (default; [`crate::event`]) — a discrete-event
//!   engine that skips provably-inert work: freeflow vehicles are
//!   inert until their link's next possible queue-join tick, blocked
//!   lanes until the signal or downstream link changes. Per-vehicle
//!   halted-time counters are materialized lazily when a vehicle
//!   leaves its queue (see [`Simulation::vehicles`]).
//! * the **legacy tick stepper** (behind the default-on
//!   `legacy-oracle` feature) — the original stepper that polls every
//!   entity every second. It is retained verbatim as the test oracle:
//!   the differential parity harness (`tests/parity.rs`) asserts that
//!   both engines produce bit-identical observation, reward, and
//!   metric streams at the 1 s observation boundary.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chaos::{
    chaos_gaussian, chaos_uniform, fault_salt, ActuationKind, ChaosPlan, SensingKind,
};
use crate::demand::{ArrivalModel, DemandGenerator};
use crate::detector::{Approaches, DetectorConfig, IntersectionObs, LinkObs};
use crate::error::SimError;
use crate::ids::{LinkId, NodeId, VehicleId};
use crate::metrics::Metrics;
use crate::network::Movement;
use crate::routing::shortest_route;
use crate::scenario::Scenario;
use crate::signal::SignalState;
use crate::vehicle::Vehicle;
#[cfg(feature = "legacy-oracle")]
use crate::vehicle::VehiclePosition;

/// Physical and sensing parameters of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimConfig {
    /// Free-flow speed (m/s). Default 13.89 (50 km/h).
    pub free_speed: f64,
    /// Space one queued vehicle occupies (m). Default 7.5.
    pub vehicle_gap: f64,
    /// Saturation headway per lane (s/vehicle). Default 2.0, i.e. a
    /// saturation flow of 1800 veh/h/lane (§III-A).
    pub saturation_headway: f64,
    /// Yellow clearance inserted on every phase change (s). Default 2.
    pub yellow_time: u32,
    /// Detector coverage.
    pub detector: DetectorConfig,
    /// Arrival sampling model.
    pub arrival_model: ArrivalModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            free_speed: 13.89,
            vehicle_gap: 7.5,
            saturation_headway: 2.0,
            yellow_time: 2,
            detector: DetectorConfig::default(),
            arrival_model: ArrivalModel::Stochastic,
        }
    }
}

impl SimConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `free_speed`,
    /// `vehicle_gap`, `saturation_headway` or `detector.range` is not
    /// finite and positive, or `detector.noise` or `detector.dropout` is
    /// not finite and non-negative.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, value) in [
            ("free_speed", self.free_speed),
            ("vehicle_gap", self.vehicle_gap),
            ("saturation_headway", self.saturation_headway),
            ("detector range", self.detector.range),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be finite and > 0, got {value}"
                )));
            }
        }
        for (name, value) in [
            ("detector noise", self.detector.noise),
            ("detector dropout", self.detector.dropout),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be finite and >= 0, got {value}"
                )));
            }
        }
        Ok(())
    }
}

/// Longest free-flow traversal of one link, in ticks (`length /
/// free_speed`), that [`Simulation::new`] accepts: about 12 days of
/// simulated time. It bounds every per-link set-up loop, and it keeps
/// `free_speed` far above the spacing of floats at any link length, so
/// each per-tick subtraction moves a runner.
pub const MAX_TRAVERSAL_TICKS: u32 = 1 << 20;

#[derive(Debug, Clone, Default)]
pub(crate) struct LaneQueue {
    pub(crate) vehicles: VecDeque<VehicleId>,
    /// Fractional discharge budget; accumulates `dt / headway` per tick,
    /// capped at 1 so a long red cannot produce a burst.
    pub(crate) budget: f64,
    /// First tick whose budget share has *not* yet been folded into
    /// `budget`. The event core materializes the per-tick capped adds
    /// lazily (only when a lane is actually processed); the legacy
    /// stepper adds every tick and leaves this field at 0.
    pub(crate) budget_tick: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    pub(crate) running: Vec<VehicleId>,
    pub(crate) lanes: Vec<LaneQueue>,
    /// Total vehicles currently on the link (running + queued).
    pub(crate) count: usize,
    pub(crate) capacity: usize,
}

impl LinkState {
    fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.vehicles.len()).sum()
    }
}

/// The simulation engine. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Simulation {
    pub(crate) scenario: Scenario,
    pub(crate) config: SimConfig,
    pub(crate) time: u32,
    pub(crate) vehicles: Vec<Vehicle>,
    pub(crate) links: Vec<LinkState>,
    pub(crate) signals: Vec<SignalState>,
    /// Per node, the index of its signal in `signals` (`None` for
    /// unsignalized nodes).
    pub(crate) signal_index: Vec<Option<usize>>,
    pub(crate) demand: DemandGenerator,
    /// Vehicles spawned but not yet physically inserted, per origin link.
    pub(crate) backlog: HashMap<LinkId, VecDeque<VehicleId>>,
    pub(crate) backlog_len: usize,
    pub(crate) routes: Vec<Vec<LinkId>>,
    pub(crate) metrics: Metrics,
    pub(crate) rng: StdRng,
    pub(crate) active: usize,
    /// Seed for the deterministic detector-degradation hash.
    pub(crate) degradation_seed: u64,
    /// Scheduled chaos faults (empty by default; an empty plan leaves
    /// every step and observation bit-identical to a plan-free run).
    pub(crate) chaos: ChaosPlan,
    /// Seed for the chaos fault hash streams.
    pub(crate) chaos_seed: u64,
    /// Readings frozen by active stuck-at-last sensing windows, keyed
    /// by `(fault index, link)`; captured at each window's first second
    /// and discarded when the window closes.
    pub(crate) stuck_readings: HashMap<(usize, LinkId), LinkObs>,
    /// Discrete-event engine state. `Some` selects the event core (the
    /// default); `None` selects the legacy per-second tick stepper
    /// (`legacy-oracle` feature), kept as the parity-test oracle.
    pub(crate) ev: Option<Box<crate::event::EventState>>,
}

impl Simulation {
    /// Builds a simulation for `scenario`.
    ///
    /// Routes for every OD flow are computed here, so an unreachable OD
    /// pair fails fast.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoRoute`] for unreachable OD pairs and
    /// [`SimError::InvalidConfig`] for invalid parameters (see
    /// [`SimConfig::validate`]) or a link whose free-flow traversal is
    /// longer than [`MAX_TRAVERSAL_TICKS`].
    pub fn new(scenario: &Scenario, config: SimConfig, seed: u64) -> Result<Self, SimError> {
        Self::build(scenario, config, seed, true)
    }

    /// Builds a simulation driven by the legacy per-second tick stepper
    /// instead of the event core. The two engines implement the same
    /// model and are asserted bit-identical at the observation boundary
    /// by the parity harness (`tests/parity.rs`); the legacy engine
    /// exists as that harness's oracle and is compiled only with the
    /// default-on `legacy-oracle` feature.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    #[cfg(feature = "legacy-oracle")]
    pub fn new_legacy(scenario: &Scenario, config: SimConfig, seed: u64) -> Result<Self, SimError> {
        Self::build(scenario, config, seed, false)
    }

    fn build(
        scenario: &Scenario,
        config: SimConfig,
        seed: u64,
        event: bool,
    ) -> Result<Self, SimError> {
        config.validate()?;
        for l in scenario.network.links() {
            let ticks = l.length() / config.free_speed;
            if !l.length().is_finite() || ticks > f64::from(MAX_TRAVERSAL_TICKS) {
                return Err(SimError::InvalidConfig(format!(
                    "{} is {} m long: {ticks} ticks at free_speed {} exceed the \
                     {MAX_TRAVERSAL_TICKS}-tick traversal bound",
                    l.id(),
                    l.length(),
                    config.free_speed
                )));
            }
        }
        let mut routes = Vec::with_capacity(scenario.flows.len());
        for flow in &scenario.flows {
            routes.push(shortest_route(
                &scenario.network,
                flow.origin,
                flow.destination,
                config.free_speed,
            )?);
        }
        let links = scenario
            .network
            .links()
            .iter()
            .map(|l| {
                let per_lane = (l.length() / config.vehicle_gap).floor().max(1.0) as usize;
                LinkState {
                    running: Vec::new(),
                    lanes: vec![LaneQueue::default(); l.num_lanes()],
                    count: 0,
                    capacity: per_lane.saturating_mul(l.num_lanes()),
                }
            })
            .collect();
        let mut signal_index = vec![None; scenario.network.num_nodes()];
        let signals: Vec<SignalState> = scenario
            .signal_plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                signal_index[plan.node().index()] = Some(i);
                SignalState::new(plan.clone(), config.yellow_time)
            })
            .collect();
        let mut sim = Simulation {
            demand: DemandGenerator::new(scenario.flows.clone(), config.arrival_model),
            scenario: scenario.clone(),
            config,
            time: 0,
            vehicles: Vec::new(),
            links,
            signals,
            signal_index,
            backlog: HashMap::new(),
            backlog_len: 0,
            routes,
            metrics: Metrics::new(),
            rng: StdRng::seed_from_u64(seed),
            active: 0,
            degradation_seed: seed ^ 0xDE7E_C70A,
            chaos: ChaosPlan::default(),
            chaos_seed: seed ^ 0xC4A0_55ED,
            stuck_readings: HashMap::new(),
            ev: None,
        };
        if event {
            sim.ev = Some(Box::new(crate::event::EventState::new(&sim)));
        }
        Ok(sim)
    }

    /// Builds a simulation with a chaos plan installed from the start
    /// (equivalent to [`new`](Self::new) followed by
    /// [`set_chaos`](Self::set_chaos)).
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn with_chaos(
        scenario: &Scenario,
        config: SimConfig,
        seed: u64,
        chaos: ChaosPlan,
    ) -> Result<Self, SimError> {
        let mut sim = Self::new(scenario, config, seed)?;
        sim.set_chaos(chaos);
        Ok(sim)
    }

    /// [`with_chaos`](Self::with_chaos) on the legacy tick stepper (see
    /// [`new_legacy`](Self::new_legacy)).
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    #[cfg(feature = "legacy-oracle")]
    pub fn with_chaos_legacy(
        scenario: &Scenario,
        config: SimConfig,
        seed: u64,
        chaos: ChaosPlan,
    ) -> Result<Self, SimError> {
        let mut sim = Self::new_legacy(scenario, config, seed)?;
        sim.set_chaos(chaos);
        Ok(sim)
    }

    /// Whether this simulation is driven by the discrete-event core
    /// (`true`, the default) or the legacy tick stepper.
    pub fn is_event_core(&self) -> bool {
        self.ev.is_some()
    }

    /// Installs (or replaces) the chaos plan. Pending stuck-sensor
    /// captures are discarded; an empty plan restores fault-free
    /// behavior exactly.
    pub fn set_chaos(&mut self, chaos: ChaosPlan) {
        self.chaos = chaos;
        self.stuck_readings.clear();
    }

    /// The installed chaos plan (empty by default).
    pub fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// Current simulation time (s).
    pub fn time(&self) -> u32 {
        self.time
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The physical configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Collected trip metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Signalized intersections, in plan order (the agent order used by
    /// every controller).
    pub fn signalized(&self) -> Vec<NodeId> {
        self.signals.iter().map(|s| s.node()).collect()
    }

    /// Signal state of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotSignalized`] if the node has no plan.
    pub fn signal(&self, node: NodeId) -> Result<&SignalState, SimError> {
        self.signal_slot(node)
            .map(|i| &self.signals[i])
            .ok_or(SimError::NotSignalized(node))
    }

    /// Index of `node`'s signal in `signals`, if it has one.
    pub(crate) fn signal_slot(&self, node: NodeId) -> Option<usize> {
        self.signal_index.get(node.index()).copied().flatten()
    }

    /// Requests a phase at `node` (yellow clearance handled internally).
    ///
    /// An active actuation fault (stuck-phase window, or a command-loss
    /// draw that fires) silently drops the command — the signal holds
    /// its current phase — but the request is still validated, so
    /// invalid actions surface identically with and without chaos.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotSignalized`] or [`SimError::InvalidPhase`].
    pub fn request_phase(&mut self, node: NodeId, phase: usize) -> Result<(), SimError> {
        let i = self
            .signal_slot(node)
            .ok_or(SimError::NotSignalized(node))?;
        if self.command_dropped(node) {
            return self.signals[i].validate_phase(phase);
        }
        let was_yellow = self.signals[i].in_yellow();
        let before = self.signals[i].phase();
        self.signals[i].request_phase(phase)?;
        if let Some(ev) = self.ev.as_deref_mut() {
            if self.signals[i].in_yellow() {
                // The event core ticks only signals in yellow.
                ev.mark_yellow(i);
            } else if !was_yellow && self.signals[i].phase() != before {
                // With zero yellow time a green-to-green phase change
                // takes effect immediately (outside `tick()`), so lanes
                // the event core parked waiting for a signal change must
                // be woken here.
                ev.unstall_permitted(i, &self.links, &self.signals[i]);
            }
        }
        Ok(())
    }

    /// Whether an active actuation fault swallows a phase command at
    /// `node` right now.
    fn command_dropped(&self, node: NodeId) -> bool {
        for (fi, f) in self.chaos.actuation().iter().enumerate() {
            if !f.window.contains(self.time) || !f.nodes.matches(node) {
                continue;
            }
            match f.kind {
                ActuationKind::StuckPhase => return true,
                ActuationKind::CommandLoss { p } => {
                    let u = chaos_uniform(fault_salt(self.chaos_seed, fi), self.time, node.index());
                    if u < p {
                        return true;
                    }
                }
                ActuationKind::AllRed => {}
            }
        }
        false
    }

    /// Whether an active all-red window blocks every discharge through
    /// `node` right now.
    #[cfg(feature = "legacy-oracle")]
    fn forced_all_red(&self, node: NodeId) -> bool {
        forced_all_red_in(&self.chaos, self.time, node)
    }

    /// Vehicles currently on the network or in the insertion backlog.
    pub fn active_vehicles(&self) -> usize {
        self.active + self.backlog_len
    }

    /// Vehicles waiting in the insertion backlog.
    pub fn backlog_vehicles(&self) -> usize {
        self.backlog_len
    }

    /// Vehicles waiting in the insertion backlog of one entry link.
    pub fn link_backlog(&self, link: LinkId) -> usize {
        self.backlog.get(&link).map_or(0, VecDeque::len)
    }

    /// Sum of `now - depart` over every unfinished vehicle — the
    /// penalty term for average travel time under gridlock.
    pub fn unfinished_penalty(&self) -> f64 {
        self.vehicles
            .iter()
            .filter(|v| !v.is_finished())
            .map(|v| v.travel_time(self.time))
            .sum()
    }

    /// Network-average travel time (s) counting unfinished trips up to
    /// the current time (paper Table II metric).
    pub fn avg_travel_time(&self) -> f64 {
        self.metrics.avg_travel_time(self.unfinished_penalty())
    }

    /// Advances the simulation by one second.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DisconnectedRoute`] if a vehicle's route
    /// contains an illegal turn — possible only for scenarios whose
    /// routes were constructed by hand, since the router guarantees
    /// turn-connected routes. The simulation state is unspecified (but
    /// memory-safe) after an error; discard it.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.ev.is_some() {
            return self.step_event();
        }
        #[cfg(feature = "legacy-oracle")]
        return self.step_legacy();
        #[cfg(not(feature = "legacy-oracle"))]
        unreachable!("legacy stepper requested but the `legacy-oracle` feature is disabled");
    }

    /// The original per-second tick stepper, kept verbatim as the parity
    /// oracle for the event core (DESIGN.md §12).
    #[cfg(feature = "legacy-oracle")]
    fn step_legacy(&mut self) -> Result<(), SimError> {
        let _span = tsc_obs::span!("sim.tick");
        let t = f64::from(self.time);
        // 0. Chaos bookkeeping: freeze/unfreeze stuck-sensor readings.
        self.update_stuck_readings();
        // 1. Demand: spawn new vehicles into the insertion backlog.
        let spawns = self.demand.step(t, 1.0, &mut self.rng);
        for flow_idx in spawns {
            self.spawn_vehicle(flow_idx);
        }
        // 2. Insertion: move backlog vehicles onto entry links with space.
        self.insert_backlog();
        // 3. Discharge green queues through intersections.
        self.discharge()?;
        // 4. Advance running vehicles; join queues at the back.
        self.advance_running()?;
        // 5. Accrue waiting time for queued vehicles.
        self.accrue_waits();
        // 6. Tick signal state machines.
        for s in &mut self.signals {
            s.tick();
        }
        // 7. Sample the waiting-time statistic.
        let sample = self.mean_of_max_waits();
        self.metrics.record_wait_sample(sample);
        self.time += 1;
        Ok(())
    }

    pub(crate) fn spawn_vehicle(&mut self, flow_idx: usize) {
        let route = self.routes[flow_idx].clone();
        let id = VehicleId(self.vehicles.len());
        let v = Vehicle::new(id, route, self.time);
        let entry = v.current_link();
        self.vehicles.push(v);
        self.backlog.entry(entry).or_default().push_back(id);
        self.backlog_len += 1;
        self.metrics.record_spawn();
        if let Some(ev) = &mut self.ev {
            ev.on_spawn();
        }
    }

    #[cfg(feature = "legacy-oracle")]
    fn insert_backlog(&mut self) {
        for (link, queue) in self.backlog.iter_mut() {
            let state = &mut self.links[link.index()];
            while state.count < state.capacity {
                let Some(id) = queue.pop_front() else { break };
                let length = self.scenario.network.link(*link).length();
                self.vehicles[id.index()].mark_inserted(self.time, length);
                state.running.push(id);
                state.count += 1;
                self.backlog_len -= 1;
                self.active += 1;
                self.metrics.record_insert();
            }
        }
    }

    /// The movement the head vehicle needs, or `None` for a network
    /// exit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DisconnectedRoute`] when consecutive route
    /// links are not joined by a legal turn (a malformed hand-built
    /// scenario; router-produced routes are always turn-connected).
    #[cfg(feature = "legacy-oracle")]
    fn head_step(&self, vehicle: &Vehicle) -> Result<Option<(Movement, LinkId)>, SimError> {
        head_step_in(&self.scenario.network, vehicle)
    }

    #[cfg(feature = "legacy-oracle")]
    fn discharge(&mut self) -> Result<(), SimError> {
        let rate = 1.0 / self.config.saturation_headway;
        // Iterate links in id order for determinism.
        for link_idx in 0..self.links.len() {
            let link_id = LinkId(link_idx);
            let to_node = self.scenario.network.link(link_id).to();
            let signal_idx = self.signal_slot(to_node);
            for lane_idx in 0..self.links[link_idx].lanes.len() {
                // Accumulate budget (capped: no burst after red).
                {
                    let lane = &mut self.links[link_idx].lanes[lane_idx];
                    lane.budget = (lane.budget + rate).min(1.0);
                    if lane.vehicles.is_empty() {
                        continue;
                    }
                }
                loop {
                    let (budget_ok, head) = {
                        let lane = &self.links[link_idx].lanes[lane_idx];
                        (lane.budget >= 1.0, lane.vehicles.front().copied())
                    };
                    let Some(head) = head else { break };
                    if !budget_ok {
                        break;
                    }
                    let step = self.head_step(&self.vehicles[head.index()])?;
                    match step {
                        None => {
                            // Exit at a boundary terminal: always free.
                            let lane = &mut self.links[link_idx].lanes[lane_idx];
                            lane.vehicles.pop_front();
                            lane.budget -= 1.0;
                            self.links[link_idx].count -= 1;
                            self.active -= 1;
                            let v = &mut self.vehicles[head.index()];
                            v.mark_finished(self.time);
                            let tt = v.travel_time(self.time);
                            self.metrics.record_finish(tt);
                        }
                        Some((movement, next)) => {
                            let permitted = match signal_idx {
                                Some(i) => {
                                    self.signals[i].permits(link_id, movement)
                                        && !self.forced_all_red(to_node)
                                }
                                None => true,
                            };
                            if !permitted {
                                break; // red or yellow: head blocks lane
                            }
                            let next_state = &self.links[next.index()];
                            if next_state.count >= next_state.capacity {
                                break; // spillback: downstream full
                            }
                            let lane = &mut self.links[link_idx].lanes[lane_idx];
                            lane.vehicles.pop_front();
                            lane.budget -= 1.0;
                            self.links[link_idx].count -= 1;
                            let length = self.scenario.network.link(next).length();
                            let v = &mut self.vehicles[head.index()];
                            v.advance_route();
                            v.set_running(length);
                            self.links[next.index()].running.push(head);
                            self.links[next.index()].count += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[cfg(feature = "legacy-oracle")]
    fn advance_running(&mut self) -> Result<(), SimError> {
        let dt = 1.0;
        let speed = self.config.free_speed;
        let gap = self.config.vehicle_gap;
        for link_idx in 0..self.links.len() {
            if self.links[link_idx].running.is_empty() {
                continue;
            }
            let link_id = LinkId(link_idx);
            let num_lanes = self.links[link_idx].lanes.len();
            let lanes_meta: Vec<&crate::network::Lane> =
                self.scenario.network.link(link_id).lanes().iter().collect();
            // Process in arrival order so earlier vehicles queue first.
            let mut still_running = Vec::new();
            let running = std::mem::take(&mut self.links[link_idx].running);
            for id in running {
                let (new_pos, movement) = {
                    let v = &self.vehicles[id.index()];
                    let VehiclePosition::Running { distance } = v.position() else {
                        continue;
                    };
                    (distance - speed * dt, self.head_step(v)?.map(|s| s.0))
                };
                // Candidate lanes: those permitting the needed movement
                // (any lane for an exiting vehicle).
                let candidate = (0..num_lanes)
                    .filter(|&li| movement.is_none_or(|m| lanes_meta[li].permits(m)))
                    .min_by_key(|&li| self.links[link_idx].lanes[li].vehicles.len());
                // A route always uses legal turns, so a candidate lane
                // exists; fall back to lane 0 defensively.
                let lane_idx = candidate.unwrap_or(0);
                let queue_back = self.links[link_idx].lanes[lane_idx].vehicles.len() as f64 * gap;
                if new_pos <= queue_back {
                    self.links[link_idx].lanes[lane_idx].vehicles.push_back(id);
                    self.vehicles[id.index()].set_queued(lane_idx);
                } else {
                    self.vehicles[id.index()].set_running(new_pos);
                    still_running.push(id);
                }
            }
            self.links[link_idx].running = still_running;
        }
        Ok(())
    }

    #[cfg(feature = "legacy-oracle")]
    fn accrue_waits(&mut self) {
        for link in &self.links {
            for lane in &link.lanes {
                for &id in &lane.vehicles {
                    self.vehicles[id.index()].accrue_wait(1.0);
                }
            }
        }
    }

    #[cfg(feature = "legacy-oracle")]
    fn mean_of_max_waits(&self) -> f64 {
        if self.signals.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for s in &self.signals {
            let node = s.node();
            let mut max_wait: f64 = 0.0;
            for &l in self.scenario.network.incoming(node) {
                for lane in &self.links[l.index()].lanes {
                    if let Some(&head) = lane.vehicles.front() {
                        max_wait = max_wait.max(self.vehicles[head.index()].current_wait());
                    }
                }
            }
            sum += max_wait;
        }
        sum / self.signals.len() as f64
    }

    /// Observes `node` with the configured detectors.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the network.
    pub fn observe(&self, node: NodeId) -> IntersectionObs {
        let network = &self.scenario.network;
        let mut incoming = Approaches::new();
        for &l in network.incoming(node) {
            let mut obs = self.sense_link(l);
            self.degrade(&mut obs);
            self.apply_sensing_chaos(&mut obs);
            incoming.push(obs);
        }
        let mut outgoing_counts = Approaches::new();
        let mut outgoing_links = Approaches::new();
        for &l in network.outgoing(node) {
            outgoing_counts.push(self.sense_outgoing(l));
            outgoing_links.push(l);
        }
        let (current_phase, num_phases) = match self.signal_slot(node) {
            Some(i) => (self.signals[i].phase(), self.signals[i].plan().num_phases()),
            None => (0, 1),
        };
        IntersectionObs {
            node,
            time: self.time,
            incoming,
            outgoing_counts,
            outgoing_links,
            current_phase,
            num_phases,
        }
    }

    /// The raw (fault-free) detector reading for one incoming link. The
    /// event core reads its counters (DESIGN.md §12); the legacy stepper
    /// scans the link.
    fn sense_link(&self, l: LinkId) -> LinkObs {
        #[cfg(feature = "legacy-oracle")]
        if self.ev.is_none() {
            return self.scan_link(l);
        }
        let ev = self.ev.as_deref().expect("event core state");
        ev.sense_incoming(l, &self.links, self.time)
    }

    /// The raw count of vehicles within detector range of `l`'s
    /// upstream end, as one of a node's outgoing links: the runners near
    /// that end, plus every queued vehicle when the whole link is in
    /// range.
    fn sense_outgoing(&self, l: LinkId) -> f64 {
        #[cfg(feature = "legacy-oracle")]
        if self.ev.is_none() {
            return self.scan_outgoing(l);
        }
        let ev = self.ev.as_deref().expect("event core state");
        ev.sense_outgoing(l.index(), &self.links, self.time)
    }

    /// The legacy stepper's outgoing count, scanning the link.
    #[cfg(feature = "legacy-oracle")]
    fn scan_outgoing(&self, l: LinkId) -> f64 {
        let range = self.config.detector.range;
        let state = &self.links[l.index()];
        let length = self.scenario.network.link(l).length();
        let mut count = 0.0;
        // Runners near the upstream end are a suffix of the
        // entry-ordered `running` vec (see `scan_link`): scan it from
        // the back and stop at the first one out of range.
        for &id in state.running.iter().rev() {
            if let VehiclePosition::Running { distance } = self.vehicles[id.index()].position() {
                if length - distance > range {
                    break;
                }
                count += 1.0;
            }
        }
        if length <= range {
            count += state
                .lanes
                .iter()
                .map(|q| q.vehicles.len() as f64)
                .sum::<f64>();
        }
        count
    }

    /// The legacy stepper's incoming reading, scanning every queue up to
    /// the range edge and the runners near the stop line. It is the
    /// independent implementation the parity harness holds the event
    /// core's counters against.
    #[cfg(feature = "legacy-oracle")]
    fn scan_link(&self, l: LinkId) -> LinkObs {
        let range = self.config.detector.range;
        let gap = self.config.vehicle_gap;
        let state = &self.links[l.index()];
        let mut count = 0.0;
        let mut halting = 0.0;
        let mut halting_by_movement = [0.0f64; 3];
        let mut head_wait: f64 = 0.0;
        for lane in &state.lanes {
            for (pos_idx, &id) in lane.vehicles.iter().enumerate() {
                if (pos_idx as f64) * gap > range {
                    // Queue positions grow back from the stop line, so
                    // everything deeper is out of range too.
                    break;
                }
                count += 1.0;
                halting += 1.0;
                // Attribute the vehicle to the movement it is queued
                // for (exits — and, defensively, broken routes, which
                // only the step path reports — count as through).
                let mi = self
                    .head_step(&self.vehicles[id.index()])
                    .ok()
                    .flatten()
                    .map(|(m, _)| m)
                    .unwrap_or(Movement::Through)
                    .index();
                halting_by_movement[mi] += 1.0;
                if pos_idx == 0 {
                    // Head wait, accrued 1 s at a time.
                    head_wait = head_wait.max(self.vehicles[id.index()].current_wait());
                }
            }
        }
        // `running` is in entry order and every runner on a link shares
        // its length and speed, so stop-line distances are nondecreasing
        // along the vec. The in-range runners are therefore a prefix:
        // stop at the first one beyond the detector edge.
        for &id in &state.running {
            if let VehiclePosition::Running { distance } = self.vehicles[id.index()].position() {
                if distance > range {
                    break;
                }
                count += 1.0;
            }
        }
        LinkObs {
            link: l,
            direction: self.scenario.network.link(l).direction(),
            count,
            halting,
            halting_by_movement,
            head_wait,
        }
    }

    /// Applies the active sensing faults of the chaos plan to one link
    /// reading, in plan order. A dropout that fires zeroes the reading
    /// and wins over everything scheduled after it (a dead detector
    /// reports nothing, however miscalibrated). Deterministic in
    /// `(fault, time, link)`; consumes no RNG state.
    fn apply_sensing_chaos(&self, obs: &mut LinkObs) {
        for (fi, f) in self.chaos.sensing().iter().enumerate() {
            if !f.window.contains(self.time) || !f.links.matches(obs.link) {
                continue;
            }
            let salt = fault_salt(self.chaos_seed, fi);
            match f.kind {
                SensingKind::Dropout { p } => {
                    if chaos_uniform(salt, self.time, obs.link.index()) < p {
                        obs.count = 0.0;
                        obs.halting = 0.0;
                        obs.halting_by_movement = [0.0; 3];
                        obs.head_wait = 0.0;
                        return;
                    }
                }
                SensingKind::StuckAtLast => {
                    if let Some(frozen) = self.stuck_readings.get(&(fi, obs.link)) {
                        obs.count = frozen.count;
                        obs.halting = frozen.halting;
                        obs.halting_by_movement = frozen.halting_by_movement;
                        obs.head_wait = frozen.head_wait;
                    }
                }
                SensingKind::Noise { sigma } => {
                    let g = chaos_gaussian(salt, self.time, obs.link.index());
                    let factor = (1.0 + sigma * g).max(0.0);
                    obs.count *= factor;
                    obs.halting *= factor;
                    for h in &mut obs.halting_by_movement {
                        *h *= factor;
                    }
                }
                SensingKind::Bias { delta } => {
                    obs.count = (obs.count + delta).max(0.0);
                    obs.halting = (obs.halting + delta).max(0.0);
                    // The phantom/missing vehicles read as queued for
                    // the through movement.
                    obs.halting_by_movement[Movement::Through.index()] =
                        (obs.halting_by_movement[Movement::Through.index()] + delta).max(0.0);
                }
            }
        }
    }

    /// Captures raw readings for stuck-sensing windows entering their
    /// first second and discards captures of windows that have closed.
    /// Runs at the top of every [`step`](Self::step); free when the
    /// plan schedules no sensing faults.
    pub(crate) fn update_stuck_readings(&mut self) {
        if self.chaos.sensing().is_empty() {
            return;
        }
        let mut captures: Vec<((usize, LinkId), LinkObs)> = Vec::new();
        for (fi, f) in self.chaos.sensing().iter().enumerate() {
            if !matches!(f.kind, SensingKind::StuckAtLast) || !f.window.contains(self.time) {
                continue;
            }
            for link_idx in 0..self.links.len() {
                let l = LinkId(link_idx);
                if f.links.matches(l) && !self.stuck_readings.contains_key(&(fi, l)) {
                    captures.push(((fi, l), self.sense_link(l)));
                }
            }
        }
        let chaos = &self.chaos;
        let time = self.time;
        self.stuck_readings
            .retain(|&(fi, _), _| chaos.sensing()[fi].window.contains(time));
        for (k, v) in captures {
            self.stuck_readings.insert(k, v);
        }
    }

    /// Applies the configured sensor degradation (noise, dropout) to
    /// one link reading, deterministically in `(time, link)`.
    fn degrade(&self, obs: &mut LinkObs) {
        let d = &self.config.detector;
        if d.dropout > 0.0 {
            let u = crate::detector::degradation_uniform(
                self.degradation_seed,
                self.time,
                obs.link.index(),
            );
            if u < d.dropout {
                obs.count = 0.0;
                obs.halting = 0.0;
                obs.halting_by_movement = [0.0; 3];
                obs.head_wait = 0.0;
                return;
            }
        }
        if d.noise > 0.0 {
            let u = crate::detector::degradation_uniform(
                self.degradation_seed ^ 0xA5A5,
                self.time,
                obs.link.index(),
            );
            let factor = 1.0 + d.noise * (2.0 * u - 1.0);
            obs.count *= factor;
            obs.halting *= factor;
            for h in &mut obs.halting_by_movement {
                *h *= factor;
            }
        }
    }

    /// Observes every signalized intersection, in agent order.
    pub fn observe_all(&self) -> Vec<IntersectionObs> {
        let _span = tsc_obs::span!("sim.observe_all");
        self.signals
            .iter()
            .map(|s| self.observe(s.node()))
            .collect()
    }

    /// Iterates over every vehicle ever spawned this run (finished and
    /// active), in spawn order — the raw material for
    /// [`TripStats`](crate::stats::TripStats).
    ///
    /// Under the event core (the default engine), the kinematic fields
    /// of vehicles still *on* the network are lazily materialized:
    /// a running vehicle's stored distance is its position as of its
    /// last advance pass, and a queued vehicle's wait counters are
    /// settled when it leaves the queue. Identifiers, routes, departure
    /// / insertion / finish times and every field of *finished*
    /// vehicles are always exact; waits and positions of in-flight
    /// vehicles should be read through the observation API
    /// ([`observe`](Self::observe)), which derives the detector readings
    /// exactly from the event core's counters.
    pub fn vehicles(&self) -> impl Iterator<Item = &Vehicle> {
        self.vehicles.iter()
    }

    /// Total vehicles (running + queued) currently on `link`.
    pub fn link_occupancy(&self, link: LinkId) -> usize {
        self.links[link.index()].count
    }

    /// Queued vehicles currently on `link`.
    pub fn link_queue(&self, link: LinkId) -> usize {
        self.links[link.index()].queued()
    }
}

/// The movement the head vehicle needs, as a free function so the event
/// core can call it while holding disjoint field borrows of the
/// simulation. See [`Simulation`] internals.
///
/// # Errors
///
/// Returns [`SimError::DisconnectedRoute`] when consecutive route links
/// are not joined by a legal turn (a malformed hand-built scenario;
/// router-produced routes are always turn-connected).
pub(crate) fn head_step_in(
    network: &crate::network::Network,
    vehicle: &Vehicle,
) -> Result<Option<(Movement, LinkId)>, SimError> {
    let cur = vehicle.current_link();
    match vehicle.next_link() {
        None => Ok(None),
        Some(next) => match network.movement_between(cur, next) {
            Some(m) => Ok(Some((m, next))),
            None => Err(SimError::DisconnectedRoute {
                from: cur,
                to: next,
            }),
        },
    }
}

/// Whether an all-red actuation window covers `node` at `time` (free
/// function twin of `Simulation::forced_all_red`, for the event core).
pub(crate) fn forced_all_red_in(chaos: &ChaosPlan, time: u32, node: NodeId) -> bool {
    chaos.actuation().iter().any(|f| {
        matches!(f.kind, ActuationKind::AllRed) && f.window.contains(time) && f.nodes.matches(node)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{FlowProfile, OdFlow};
    use crate::ids::Direction;
    use crate::network::{Lane, NetworkBuilder};
    use crate::scenario::Scenario;
    use crate::signal::SignalPlan;

    /// One signalized intersection with four terminals and a single
    /// west -> east flow.
    fn cross_scenario(rate: f64) -> Scenario {
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
        let network = b.build().unwrap();
        let plan = SignalPlan::four_phase(&network, c).unwrap();
        let flows = vec![OdFlow::new(
            NodeId(4),
            NodeId(2),
            FlowProfile::constant(rate, 0.0, 600.0),
        )];
        Scenario::new("cross", network, vec![plan], flows).unwrap()
    }

    fn sim(rate: f64) -> Simulation {
        let cfg = SimConfig {
            arrival_model: ArrivalModel::Deterministic,
            ..SimConfig::default()
        };
        Simulation::new(&cross_scenario(rate), cfg, 1).unwrap()
    }

    #[test]
    fn vehicles_flow_through_on_green() {
        let mut s = sim(360.0);
        // Hold the east-west through phase (index 2 in the 4-phase plan).
        s.request_phase(NodeId(0), 2).unwrap();
        for _ in 0..600 {
            s.step().unwrap();
        }
        assert!(s.metrics().finished() > 0, "vehicles complete trips");
        // 360 veh/h for 600 s = 60 vehicles; most should finish.
        assert!(
            s.metrics().finished() >= 50,
            "finished = {}",
            s.metrics().finished()
        );
    }

    #[test]
    fn red_light_blocks_and_queues_grow() {
        let mut s = sim(720.0);
        // Hold a north-south phase: the west approach stays red.
        s.request_phase(NodeId(0), 0).unwrap();
        for _ in 0..300 {
            s.step().unwrap();
        }
        assert_eq!(s.metrics().finished(), 0, "nothing crosses on red");
        let obs = s.observe(NodeId(0));
        let west_approach = obs
            .incoming
            .iter()
            .find(|l| l.direction == Direction::East)
            .unwrap();
        assert!(west_approach.halting > 0.0, "queue forms on red");
        assert!(west_approach.head_wait > 100.0, "head wait accumulates");
    }

    #[test]
    fn discharge_respects_saturation_flow() {
        let mut s = sim(1800.0);
        s.request_phase(NodeId(0), 0).unwrap(); // red for the flow
        for _ in 0..200 {
            s.step().unwrap();
        }
        assert!(s.link_queue(LinkId(6)) > 10); // w -> c queue built up
        let downstream_before = s.link_occupancy(LinkId(3)); // c -> e
        let finished_before = s.metrics().finished();
        s.request_phase(NodeId(0), 2).unwrap(); // green
        for _ in 0..20 {
            s.step().unwrap();
        }
        // Everything that crossed the stop line is now on c -> e or done.
        let crossed = s.link_occupancy(LinkId(3)) - downstream_before
            + (s.metrics().finished() - finished_before);
        // 20 s at 2 s headway = at most 10 vehicles (+1 for the budget
        // carried in, minus the 2 s yellow).
        assert!(crossed <= 11, "crossed {crossed} in 20 s");
        assert!(crossed >= 5, "green actually discharges, crossed {crossed}");
    }

    #[test]
    fn deterministic_runs_are_identical() {
        let run = |seed| {
            let mut s = sim(900.0);
            let _ = seed;
            s.request_phase(NodeId(0), 2).unwrap();
            for _ in 0..400 {
                s.step().unwrap();
            }
            (
                s.metrics().finished(),
                s.metrics().spawned(),
                s.avg_travel_time(),
            )
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn conservation_spawned_equals_active_plus_finished() {
        let mut s = sim(1200.0);
        s.request_phase(NodeId(0), 2).unwrap();
        for _ in 0..500 {
            s.step().unwrap();
            assert_eq!(
                s.metrics().spawned(),
                s.active_vehicles() + s.metrics().finished(),
                "vehicle conservation at t={}",
                s.time()
            );
        }
    }

    #[test]
    fn entry_link_saturates_into_backlog() {
        // 200 m link, 7.5 m gap, 1 lane => capacity 26. Feed far more
        // than it can hold against a red light.
        let mut s = sim(3600.0);
        s.request_phase(NodeId(0), 0).unwrap();
        for _ in 0..120 {
            s.step().unwrap();
        }
        assert!(s.backlog_vehicles() > 0, "backlog forms once link is full");
        assert!(s.link_occupancy(LinkId(6)) <= 26);
    }

    #[test]
    fn observation_counts_respect_detector_range() {
        let mut s = sim(1800.0);
        s.request_phase(NodeId(0), 0).unwrap();
        for _ in 0..240 {
            s.step().unwrap();
        }
        let obs = s.observe(NodeId(0));
        let west = obs
            .incoming
            .iter()
            .find(|l| l.direction == Direction::East)
            .unwrap();
        // 50 m range at 7.5 m per vehicle: positions 0..=6 are in range.
        assert!(west.halting <= 7.0, "halting = {}", west.halting);
        let queued = s.link_queue(LinkId(6));
        assert!(queued > 7, "actual queue exceeds detector range");
    }

    /// Each value passed `validate` before it checked finiteness, and
    /// the set-up loops over detector range and gap would never end on
    /// some of them.
    #[test]
    fn non_finite_or_negative_parameters_are_typed_errors() {
        let scenario = cross_scenario(360.0);
        let base = SimConfig::default();
        let detector = |f: fn(&mut DetectorConfig)| {
            let mut d = base.detector;
            f(&mut d);
            SimConfig {
                detector: d,
                ..base
            }
        };
        let hostile = [
            SimConfig {
                vehicle_gap: f64::NAN,
                ..base
            },
            SimConfig {
                vehicle_gap: f64::INFINITY,
                ..base
            },
            SimConfig {
                saturation_headway: f64::NAN,
                ..base
            },
            SimConfig {
                free_speed: f64::INFINITY,
                ..base
            },
            detector(|d| d.range = f64::NAN),
            detector(|d| d.range = f64::INFINITY),
            detector(|d| d.noise = f64::NAN),
            detector(|d| d.noise = -0.1),
            detector(|d| d.dropout = f64::INFINITY),
            detector(|d| d.dropout = -1.0),
        ];
        for config in hostile {
            assert!(
                matches!(
                    Simulation::new(&scenario, config, 1),
                    Err(SimError::InvalidConfig(_))
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn links_beyond_the_traversal_bound_are_typed_errors() {
        // The cross's 200 m links take 2e6 ticks at 1e-4 m/s.
        let slow = SimConfig {
            free_speed: 1e-4,
            ..SimConfig::default()
        };
        assert!(matches!(
            Simulation::new(&cross_scenario(360.0), slow, 1),
            Err(SimError::InvalidConfig(msg)) if msg.contains("traversal bound")
        ));
        // 2e5 ticks are within it.
        let within = SimConfig {
            free_speed: 1e-3,
            ..SimConfig::default()
        };
        assert!(Simulation::new(&cross_scenario(360.0), within, 1).is_ok());
    }

    #[test]
    fn avg_travel_time_penalizes_gridlock() {
        let mut blocked = sim(720.0);
        blocked.request_phase(NodeId(0), 0).unwrap();
        let mut flowing = sim(720.0);
        flowing.request_phase(NodeId(0), 2).unwrap();
        for _ in 0..400 {
            blocked.step().unwrap();
            flowing.step().unwrap();
        }
        assert!(blocked.avg_travel_time() > 2.0 * flowing.avg_travel_time());
    }
}
