//! The discrete-event simulation core.
//!
//! This module implements `Simulation::step` for the default engine
//! (DESIGN.md §12). The model is unchanged from the legacy per-second
//! stepper — the parity harness in `tests/parity.rs` holds the two
//! engines bit-identical at the 1 s observation boundary — but the
//! event core only touches state that can actually change this tick:
//!
//! * **Freeflow vehicles are inert.** A link with running vehicles
//!   carries a single wake-up in the [`EventQueue`] for the earliest
//!   tick any of them could reach the back of a queue; between wake-ups
//!   their positions are materialized lazily (`pos_tick`) with the same
//!   iterated per-tick subtraction the legacy stepper performs, so the
//!   floats come out bit-identical.
//! * **Blocked lanes are inert.** A lane whose head faces a red signal
//!   parks in `stalled_signal` until that signal changes; a lane whose
//!   head faces a full downstream link parks in `stalled_down` until a
//!   vehicle leaves that link. These are state-based wake-ups delivered
//!   directly by the transition that causes them — they never sit in
//!   the time queue.
//! * **Waiting time is closed-form.** Every head wait is a slope-one
//!   ramp from its join tick, so the per-tick mean-of-max-waits sample
//!   is derived from per-signal minimum join ticks (`sig_min`) instead
//!   of per-vehicle counters; per-vehicle totals are settled when a
//!   vehicle leaves its queue (`join_tick`).
//!
//! Lane discharge bookkeeping runs over flat lane indices (link-major,
//! matching the legacy scan order) with a word-level bitset of active
//! lanes. A lane activated *behind* the scan cursor mid-tick is masked
//! out until the next tick — exactly when the legacy stepper, which had
//! already passed it, would first see it.

use crate::error::SimError;
use crate::events::EventQueue;
use crate::ids::{LinkId, NodeId};
use crate::network::{Movement, Network};
use crate::sim::{forced_all_red_in, head_step_in, Simulation};
use crate::vehicle::{Vehicle, VehiclePosition};

/// Sentinel for "no signal controls this link's downstream node".
const NO_SIGNAL: u32 = u32::MAX;

/// Sentinel for "the current link exits the network".
const NO_LINK: u32 = u32::MAX;

/// Schedules the first advance wake-up for a link that just received a
/// running vehicle at its upstream end. Every same-tick entrant sits at
/// `length` with one pending subtraction, so a single bound decides
/// whether the link needs a pass *this* tick: the farthest any queue
/// back can reach even if every current runner joined one lane. Beyond
/// that, the entrant free-flows and the link sleeps until it could
/// first touch that bound.
fn schedule_entry_wake(
    ev: &mut EventState,
    link: &crate::sim::LinkState,
    li: usize,
    now: u32,
    speed: f64,
    gap: f64,
) {
    let qmax = link
        .lanes
        .iter()
        .map(|l| l.vehicles.len())
        .max()
        .unwrap_or(0);
    let bound = (qmax + link.running.len()) as f64 * gap;
    let pos_after = ev.link_len[li] - speed;
    if pos_after <= bound {
        ev.advance_due.set(li);
        return;
    }
    // Same formula and one-tick ULP slack as the advance pass.
    let j = ((pos_after - bound) / speed).ceil();
    let off = if j.is_finite() && j >= 2.0 {
        j.min(1e9) as u32 - 1
    } else {
        1
    };
    let wake = now + off;
    if wake < ev.next_advance[li] {
        if off == 1 {
            ev.due_next.set(li);
        } else {
            ev.queue.schedule(wake, li as u64);
        }
        ev.next_advance[li] = wake;
    }
}

/// Fills the per-vehicle link-entry caches for vehicle `vi`, which
/// just entered link `li`: its movement through the downstream node,
/// the link it continues onto, and which of `li`'s lanes accept that
/// movement. All three are fixed until the vehicle leaves the link, so
/// computing them once here replaces a route walk per advance pass.
fn cache_entry(
    ev: &mut EventState,
    network: &Network,
    vehicle: &Vehicle,
    vi: usize,
    li: usize,
) -> Result<(), SimError> {
    match head_step_in(network, vehicle)? {
        None => {
            ev.queued_move[vi] = Movement::Through.index() as u8;
            ev.lane_mask[vi] = u16::MAX;
            ev.next_link[vi] = NO_LINK;
        }
        Some((m, next)) => {
            ev.queued_move[vi] = m.index() as u8;
            let mut mask = 0u16;
            for (l, lane) in network.link(LinkId(li)).lanes().iter().enumerate() {
                if lane.permits(m) {
                    mask |= 1 << l;
                }
            }
            ev.lane_mask[vi] = mask;
            ev.next_link[vi] = next.index() as u32;
        }
    }
    Ok(())
}

/// Scheduling state of one lane (flat index) in the discharge stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneMode {
    /// Empty queue; nothing to discharge.
    Idle,
    /// Queue present and nothing known to block it: scanned every tick
    /// (accumulating budget, or waiting out an all-red chaos window).
    Active,
    /// Head's movement has no green; parked until its signal changes.
    StalledSignal,
    /// Head's target link is full; parked until that link drains.
    StalledDown(u32),
    /// Head only waits on discharge budget; parked in the recharge
    /// wheel until the exact tick the budget reaches 1.0 (or forever,
    /// if the configured rate can never get there — matching a legacy
    /// lane that scans fruitlessly every tick).
    Recharging,
}

/// A plain word-backed bitset over flat lane / link indices.
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }
}

/// All engine-private state of the discrete-event core. Lives behind
/// `Simulation::ev`; `None` there selects the legacy tick stepper.
#[derive(Debug, Clone)]
pub(crate) struct EventState {
    /// Time-based wake-ups: `key` is the link index whose running
    /// vehicles should be advanced at `time`.
    queue: EventQueue,
    /// Earliest queued wake-up per link (`u32::MAX` = none), deduping
    /// redundant schedules.
    next_advance: Vec<u32>,
    /// Links whose running vehicles must be advanced this tick.
    advance_due: BitSet,
    /// Links due next tick — the overwhelmingly common wake distance
    /// (a join grew a queue, or a runner is one tick from its back),
    /// kept out of the heap entirely and merged into `advance_due` at
    /// the top of the next advance stage.
    due_next: BitSet,
    /// Timing wheel for lanes whose head only waits on discharge
    /// budget: slot `t % len` holds the flat lanes whose budget
    /// reaches 1.0 at tick `t`. Budget accrual is exact arithmetic on
    /// a fixed per-tick add, so the wake tick is computed exactly and
    /// the lane skips every scan in between.
    recharge: Vec<Vec<u32>>,
    /// Flat-lane layout: first flat index of each link's lanes.
    lane_offset: Vec<u32>,
    /// Owning link of each flat lane.
    lane_link: Vec<u32>,
    /// Discharge scheduling state per flat lane.
    lane_mode: Vec<LaneMode>,
    /// Flat lanes in `LaneMode::Active`, scanned by the discharge stage.
    active: BitSet,
    /// Lanes parked per signal, woken when that signal changes phase.
    stalled_signal: Vec<Vec<u32>>,
    /// Lanes parked per downstream link, woken when it loses a vehicle.
    stalled_down: Vec<Vec<u32>>,
    /// Signal index controlling each link's downstream node
    /// ([`NO_SIGNAL`] when uncontrolled).
    link_signal: Vec<u32>,
    /// Downstream node of each link.
    link_to: Vec<NodeId>,
    /// Length of each link (m).
    link_len: Vec<f64>,
    /// Entry links of the scenario's routes, ascending — the
    /// deterministic insertion order for the backlog stage.
    origin_links: Vec<LinkId>,
    /// Per vehicle: the tick whose advance-stage position the stored
    /// `VehiclePosition::Running` distance reflects (insertion and
    /// discharge write `tick - 1` so the same-tick advance pass applies
    /// exactly one subtraction, as the legacy stepper does).
    pub(crate) pos_tick: Vec<i64>,
    /// Per vehicle: tick it joined its current lane queue (waits are
    /// settled from this when it leaves the queue).
    pub(crate) join_tick: Vec<u32>,
    /// Per vehicle: cached `Movement::index()` it queues for (exits
    /// count as through, mirroring the detector's attribution).
    pub(crate) queued_move: Vec<u8>,
    /// Per vehicle: lane-permit bitmask on its current link (bit `l`
    /// set = lane `l` accepts its cached movement; all ones for
    /// exiting vehicles, which any lane serves). Movement and next
    /// link are fixed while a vehicle is on a link, so both are
    /// computed once at link entry instead of on every advance pass.
    lane_mask: Vec<u16>,
    /// Per vehicle: index of the link after its current one
    /// ([`NO_LINK`] when the current link exits the network).
    next_link: Vec<u32>,
    /// Per signal: minimum `join_tick` over the heads of its approach
    /// lanes (`u64::MAX` = no heads).
    sig_min: Vec<u64>,
    /// Signals with queue heads (`sig_min` < MAX).
    wait_m: u64,
    /// Sum of `sig_min` over those signals.
    wait_j: u64,
    /// Signals whose heads changed this tick (dedup flag + list).
    sig_dirty: Vec<bool>,
    dirty: Vec<u32>,
    /// Flat lanes approaching each signal, for `sig_min` recomputation.
    sig_lanes: Vec<Vec<u32>>,
}

impl EventState {
    /// Builds the engine state for a freshly constructed simulation
    /// (time 0, no vehicles).
    pub(crate) fn new(sim: &Simulation) -> Self {
        let network = &sim.scenario.network;
        let links = network.links();
        let mut lane_offset = Vec::with_capacity(links.len());
        let mut lane_link = Vec::new();
        let mut link_to = Vec::with_capacity(links.len());
        let mut link_len = Vec::with_capacity(links.len());
        let mut link_signal = Vec::with_capacity(links.len());
        for l in links {
            lane_offset.push(lane_link.len() as u32);
            lane_link.extend(std::iter::repeat_n(l.id().index() as u32, l.num_lanes()));
            link_to.push(l.to());
            link_len.push(l.length());
            link_signal.push(sim.signal_slot(l.to()).map_or(NO_SIGNAL, |i| i as u32));
        }
        let num_lanes = lane_link.len();
        let mut sig_lanes = vec![Vec::new(); sim.signals.len()];
        for (si, s) in sim.signals.iter().enumerate() {
            for &l in network.incoming(s.node()) {
                let li = l.index();
                for k in 0..links[li].num_lanes() {
                    sig_lanes[si].push(lane_offset[li] + k as u32);
                }
            }
        }
        let mut origin_links: Vec<LinkId> = sim
            .routes
            .iter()
            .filter_map(|r| r.first().copied())
            .collect();
        origin_links.sort_unstable_by_key(|l| l.index());
        origin_links.dedup();
        // Ticks for a drained lane's budget to climb from 0.0 back to
        // 1.0 under the capped per-tick add — the wheel's horizon.
        let rate = 1.0 / sim.config.saturation_headway;
        let mut k_max = 0usize;
        let mut b = 0.0f64;
        while b < 1.0 && k_max < 1 << 20 {
            let nb = (b + rate).min(1.0);
            if nb == b {
                break; // budget can never reach 1.0; lanes park forever
            }
            b = nb;
            k_max += 1;
        }
        EventState {
            queue: EventQueue::new(),
            next_advance: vec![u32::MAX; links.len()],
            advance_due: BitSet::new(links.len()),
            due_next: BitSet::new(links.len()),
            recharge: vec![Vec::new(); k_max + 1],
            lane_offset,
            lane_link,
            lane_mode: vec![LaneMode::Idle; num_lanes],
            active: BitSet::new(num_lanes),
            stalled_signal: vec![Vec::new(); sim.signals.len()],
            stalled_down: vec![Vec::new(); links.len()],
            link_signal,
            link_to,
            link_len,
            origin_links,
            pos_tick: Vec::new(),
            join_tick: Vec::new(),
            queued_move: Vec::new(),
            lane_mask: Vec::new(),
            next_link: Vec::new(),
            sig_min: vec![u64::MAX; sim.signals.len()],
            wait_m: 0,
            wait_j: 0,
            sig_dirty: vec![false; sim.signals.len()],
            dirty: Vec::new(),
            sig_lanes,
        }
    }

    /// Grows the per-vehicle companion arrays for a new spawn.
    pub(crate) fn on_spawn(&mut self) {
        self.pos_tick.push(0);
        self.join_tick.push(0);
        self.queued_move.push(Movement::Through.index() as u8);
        self.lane_mask.push(0);
        self.next_link.push(NO_LINK);
    }

    /// Wakes the lanes parked on signal `si` that the predicate admits
    /// (called when that signal changes what it permits: yellow
    /// resolving to green in `tick()`, or an immediate zero-yellow
    /// phase switch), leaving the rest parked with their list entries
    /// retained. Stale entries are dropped either way.
    fn unstall_signal_if(&mut self, si: usize, mut permitted: impl FnMut(&Self, usize) -> bool) {
        if self.stalled_signal[si].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.stalled_signal[si]);
        list.retain(|&fu| {
            let f = fu as usize;
            if self.lane_mode[f] != LaneMode::StalledSignal {
                return false;
            }
            if permitted(self, f) {
                self.lane_mode[f] = LaneMode::Active;
                self.active.set(f);
                false
            } else {
                true
            }
        });
        self.stalled_signal[si] = list;
    }

    /// Wakes every lane parked on downstream link `li` (called when a
    /// vehicle leaves that link).
    fn unstall_down(&mut self, li: usize) {
        if self.stalled_down[li].is_empty() {
            return;
        }
        let list = std::mem::take(&mut self.stalled_down[li]);
        for f in &list {
            let fu = *f as usize;
            if self.lane_mode[fu] == LaneMode::StalledDown(li as u32) {
                self.lane_mode[fu] = LaneMode::Active;
                self.active.set(fu);
            }
        }
    }

    /// Flags signal `sig` for a `sig_min` recomputation at the sample
    /// stage (no-op for [`NO_SIGNAL`]).
    fn mark_dirty(&mut self, sig: u32) {
        if sig != NO_SIGNAL && !self.sig_dirty[sig as usize] {
            self.sig_dirty[sig as usize] = true;
            self.dirty.push(sig);
        }
    }
}

impl Simulation {
    /// One simulated second under the event core. Stage structure and
    /// all externally observable effects match `step_legacy` exactly.
    pub(crate) fn step_event(&mut self) -> Result<(), SimError> {
        let _span = tsc_obs::span!("sim.tick");
        let t = f64::from(self.time);
        // 0. Chaos bookkeeping: freeze/unfreeze stuck-sensor readings.
        self.update_stuck_readings();
        // 1. Demand. Runs every tick: the demand generator owns the RNG
        //    stream, and consuming it identically is part of the parity
        //    contract with the legacy stepper.
        let spawns = {
            let _s = tsc_obs::span!("sim.ev.demand");
            self.demand.step(t, 1.0, &mut self.rng)
        };
        for flow_idx in spawns {
            self.spawn_vehicle(flow_idx);
        }
        // 2. Insertion from the backlog (skipped when provably empty).
        if self.backlog_len > 0 {
            let _s = tsc_obs::span!("sim.ev.backlog");
            self.insert_backlog_event()?;
        }
        // 3. Discharge: only lanes not parked on a signal / full link.
        {
            let _s = tsc_obs::span!("sim.ev.discharge");
            self.discharge_event()?;
        }
        // 4. Advance: only links with a due wake-up.
        {
            let _s = tsc_obs::span!("sim.ev.advance");
            self.advance_event()?;
        }
        // 5+6. Signal ticks (waits are implicit in join ticks; there is
        //      no per-vehicle accrual stage to run).
        self.tick_signals_event();
        // 7. Waiting-time sample, closed-form.
        let sample = self.wait_sample_event();
        self.metrics.record_wait_sample(sample);
        self.time += 1;
        Ok(())
    }

    /// Stage 2: moves backlog vehicles onto entry links with space.
    ///
    /// The legacy stepper iterates the backlog `HashMap` in hash order,
    /// which is benign only because per-link insertions are independent;
    /// the event core iterates entry links in ascending id order, making
    /// the determinism structural instead of incidental.
    fn insert_backlog_event(&mut self) -> Result<(), SimError> {
        let now = self.time;
        let ev = self.ev.as_mut().expect("event core state");
        let origins = std::mem::take(&mut ev.origin_links);
        for &link in &origins {
            let li = link.index();
            if self.links[li].count >= self.links[li].capacity {
                continue;
            }
            let Some(queue) = self.backlog.get_mut(&link) else {
                continue;
            };
            if queue.is_empty() {
                continue;
            }
            let length = ev.link_len[li];
            let mut inserted_any = false;
            while self.links[li].count < self.links[li].capacity {
                let Some(id) = queue.pop_front() else { break };
                let vi = id.index();
                self.vehicles[vi].mark_inserted(now, length);
                ev.pos_tick[vi] = i64::from(now) - 1;
                cache_entry(ev, &self.scenario.network, &self.vehicles[vi], vi, li)?;
                self.links[li].running.push(id);
                self.links[li].count += 1;
                self.backlog_len -= 1;
                self.active += 1;
                self.metrics.record_insert();
                inserted_any = true;
            }
            if inserted_any {
                schedule_entry_wake(
                    ev,
                    &self.links[li],
                    li,
                    now,
                    self.config.free_speed,
                    self.config.vehicle_gap,
                );
            }
        }
        ev.origin_links = origins;
        Ok(())
    }

    /// Stage 3: discharges queue heads through intersections, scanning
    /// only active lanes in flat (legacy) order.
    fn discharge_event(&mut self) -> Result<(), SimError> {
        let now = self.time;
        let rate = 1.0 / self.config.saturation_headway;
        let speed = self.config.free_speed;
        let gap = self.config.vehicle_gap;
        let ev = self.ev.as_mut().expect("event core state");
        // Wake lanes whose budget reaches 1.0 exactly this tick.
        let slot = now as usize % ev.recharge.len();
        if !ev.recharge[slot].is_empty() {
            let mut list = std::mem::take(&mut ev.recharge[slot]);
            for &f in &list {
                let f = f as usize;
                if ev.lane_mode[f] == LaneMode::Recharging {
                    ev.lane_mode[f] = LaneMode::Active;
                    ev.active.set(f);
                }
            }
            list.clear();
            ev.recharge[slot] = list;
        }
        let nwords = ev.active.words.len();
        for w in 0..nwords {
            // Cursor mask: lanes activated at positions at or before the
            // cursor mid-tick already had their legacy scan slot pass;
            // they keep their bit and are scanned next tick.
            let mut mask = !0u64;
            loop {
                let bits = ev.active.words[w] & mask;
                if bits == 0 {
                    break;
                }
                let b = bits.trailing_zeros();
                mask = if b >= 63 { 0 } else { !0u64 << (b + 1) };
                let f = (w << 6) | b as usize;
                let link_idx = ev.lane_link[f] as usize;
                let lane_idx = f - ev.lane_offset[link_idx] as usize;
                let link_id = LinkId(link_idx);
                let sig = ev.link_signal[link_idx];
                // Materialize the per-tick capped budget adds the legacy
                // stepper performed while this lane sat unscanned.
                {
                    let lane = &mut self.links[link_idx].lanes[lane_idx];
                    let pending = (now + 1).saturating_sub(lane.budget_tick);
                    for _ in 0..pending {
                        if lane.budget >= 1.0 {
                            break; // capped: further adds are a fixed point
                        }
                        lane.budget = (lane.budget + rate).min(1.0);
                    }
                    lane.budget_tick = now + 1;
                }
                let mut recharge_in = 0u32;
                let mode = loop {
                    let lane = &self.links[link_idx].lanes[lane_idx];
                    let Some(&head) = lane.vehicles.front() else {
                        break LaneMode::Idle;
                    };
                    if lane.budget < 1.0 {
                        // Count the exact capped per-tick adds until the
                        // budget reaches 1.0 again (the wake catch-up
                        // replays the same adds, so the tick is exact).
                        let mut b = lane.budget;
                        while b < 1.0 {
                            let nb = (b + rate).min(1.0);
                            if nb == b {
                                recharge_in = u32::MAX; // never recovers
                                break;
                            }
                            b = nb;
                            recharge_in += 1;
                        }
                        break LaneMode::Recharging;
                    }
                    let hv = head.index();
                    let nl = ev.next_link[hv];
                    if nl == NO_LINK {
                        // Exit at a boundary terminal: always free.
                        let lane = &mut self.links[link_idx].lanes[lane_idx];
                        lane.vehicles.pop_front();
                        lane.budget -= 1.0;
                        self.links[link_idx].count -= 1;
                        self.active -= 1;
                        let settled = now.saturating_sub(ev.join_tick[hv]);
                        let v = &mut self.vehicles[hv];
                        if settled > 0 {
                            v.accrue_wait(f64::from(settled));
                        }
                        v.mark_finished(now);
                        let tt = v.travel_time(now);
                        self.metrics.record_finish(tt);
                        ev.mark_dirty(sig);
                        ev.unstall_down(link_idx);
                    } else {
                        // Cached at link entry; exits never reach here,
                        // so this is the true movement.
                        let movement = Movement::ALL[ev.queued_move[hv] as usize];
                        if sig != NO_SIGNAL {
                            if !self.signals[sig as usize].permits(link_id, movement) {
                                break LaneMode::StalledSignal;
                            }
                            if forced_all_red_in(&self.chaos, now, ev.link_to[link_idx]) {
                                // The signal itself is willing; the
                                // chaos window closes by wall clock,
                                // so stay hot and re-check each tick.
                                break LaneMode::Active;
                            }
                        }
                        let ni = nl as usize;
                        if self.links[ni].count >= self.links[ni].capacity {
                            break LaneMode::StalledDown(nl);
                        }
                        let lane = &mut self.links[link_idx].lanes[lane_idx];
                        lane.vehicles.pop_front();
                        lane.budget -= 1.0;
                        self.links[link_idx].count -= 1;
                        let settled = now.saturating_sub(ev.join_tick[hv]);
                        let length = ev.link_len[ni];
                        let v = &mut self.vehicles[hv];
                        if settled > 0 {
                            v.accrue_wait(f64::from(settled));
                        }
                        v.advance_route();
                        v.set_running(length);
                        ev.pos_tick[hv] = i64::from(now) - 1;
                        cache_entry(ev, &self.scenario.network, &self.vehicles[hv], hv, ni)?;
                        self.links[ni].running.push(head);
                        self.links[ni].count += 1;
                        schedule_entry_wake(ev, &self.links[ni], ni, now, speed, gap);
                        ev.mark_dirty(sig);
                        ev.unstall_down(link_idx);
                    }
                };
                ev.lane_mode[f] = mode;
                match mode {
                    LaneMode::Active => {}
                    LaneMode::Idle => ev.active.clear(f),
                    LaneMode::StalledSignal => {
                        ev.active.clear(f);
                        ev.stalled_signal[sig as usize].push(f as u32);
                    }
                    LaneMode::StalledDown(d) => {
                        ev.active.clear(f);
                        ev.stalled_down[d as usize].push(f as u32);
                    }
                    LaneMode::Recharging => {
                        ev.active.clear(f);
                        if recharge_in != u32::MAX {
                            let len = ev.recharge.len();
                            let s = (now as usize + recharge_in as usize) % len;
                            ev.recharge[s].push(f as u32);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Stage 4: advances running vehicles on links with a due wake-up,
    /// joining queues at the back exactly as the legacy per-tick pass
    /// would.
    fn advance_event(&mut self) -> Result<(), SimError> {
        let now = self.time;
        let speed = self.config.free_speed;
        let gap = self.config.vehicle_gap;
        let ev = self.ev.as_mut().expect("event core state");
        while let Some(e) = ev.queue.pop_due(now) {
            ev.advance_due.set(e.key as usize);
        }
        let nwords = ev.advance_due.words.len();
        // Next-tick wakes bypass the heap entirely: merge the bitset
        // scheduled last tick into this tick's due set.
        for w in 0..nwords {
            let bits = ev.due_next.words[w];
            if bits != 0 {
                ev.advance_due.words[w] |= bits;
                ev.due_next.words[w] = 0;
            }
        }
        for w in 0..nwords {
            let mut bits = ev.advance_due.words[w];
            if bits == 0 {
                continue;
            }
            ev.advance_due.words[w] = 0;
            while bits != 0 {
                let li = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // This pass supersedes whatever wake was registered
                // (entry wakes can land a tick early via `due_next`, and
                // unstalls fire ahead of heap wakes); reset so the pass
                // below re-registers from current state. A superseded
                // heap event firing later is a harmless extra pass.
                ev.next_advance[li] = u32::MAX;
                if self.links[li].running.is_empty() {
                    continue;
                }
                let num_lanes = self.links[li].lanes.len();
                let mut running = std::mem::take(&mut self.links[li].running);
                let mut joined = false;
                let mut min_off = u32::MAX;
                // `running` is in entry order, and all vehicles on a
                // link share one length and speed, so effective
                // distances are nondecreasing along the vec. A vehicle
                // can only join the lane where its movement finds the
                // shortest queue, and every queue back sits at
                // `qlen * gap` at most `max_qb` from the stop line — so
                // once a vehicle is farther out than `max_qb`, no later
                // vehicle can join either and the pass stops, leaving
                // the tail lazily un-materialized.
                let mut max_qb = (0..num_lanes)
                    .map(|l| self.links[li].lanes[l].vehicles.len())
                    .max()
                    .unwrap_or(0) as f64
                    * gap;
                let mut cut = running.len();
                for (idx, &id) in running.iter().enumerate() {
                    let vi = id.index();
                    let VehiclePosition::Running { distance } = self.vehicles[vi].position() else {
                        debug_assert!(false, "queued vehicle left in running vec");
                        continue;
                    };
                    // Catch up the ticks this link sat unadvanced, with
                    // the legacy stepper's own per-tick subtraction so
                    // the float trajectory is bit-identical.
                    let behind = i64::from(now) - ev.pos_tick[vi];
                    let mut new_pos = distance;
                    for _ in 0..behind.max(0) {
                        new_pos -= speed;
                    }
                    if new_pos > max_qb {
                        // Beyond every queue: this vehicle and the whole
                        // tail keep free-flowing untouched. Earliest
                        // possible join: when it reaches the farthest
                        // queue back (an over-estimate of its own
                        // threshold, hence an under-estimate of the
                        // join time), minus one tick of ULP slack.
                        let j = ((new_pos - max_qb) / speed).ceil();
                        let off = if j.is_finite() && j >= 2.0 {
                            j.min(1e9) as u32 - 1
                        } else {
                            1
                        };
                        min_off = min_off.min(off);
                        cut = idx;
                        break;
                    }
                    // Movement and permitted lanes were cached when the
                    // vehicle entered this link.
                    let mask = ev.lane_mask[vi];
                    let candidate = (0..num_lanes)
                        .filter(|&l| mask & (1 << l) != 0)
                        .min_by_key(|&l| self.links[li].lanes[l].vehicles.len());
                    let lane_idx = candidate.unwrap_or(0);
                    let qlen = self.links[li].lanes[lane_idx].vehicles.len();
                    let queue_back = qlen as f64 * gap;
                    if new_pos <= queue_back {
                        self.links[li].lanes[lane_idx].vehicles.push_back(id);
                        self.vehicles[vi].set_queued(lane_idx);
                        ev.join_tick[vi] = now;
                        joined = true;
                        max_qb = max_qb.max((qlen + 1) as f64 * gap);
                        if qlen == 0 {
                            // New head on a previously empty (idle) lane.
                            let f = ev.lane_offset[li] as usize + lane_idx;
                            ev.lane_mode[f] = LaneMode::Active;
                            ev.active.set(f);
                            let sig = ev.link_signal[li];
                            ev.mark_dirty(sig);
                        }
                    } else {
                        self.vehicles[vi].set_running(new_pos);
                        ev.pos_tick[vi] = i64::from(now);
                        // Earliest possible join: ceil(lead / speed)
                        // ticks out, minus one tick of slack because the
                        // closed form and the iterated positions can
                        // disagree by a ULP at the threshold.
                        let j = ((new_pos - queue_back) / speed).ceil();
                        let off = if j.is_finite() && j >= 2.0 {
                            j.min(1e9) as u32 - 1
                        } else {
                            1
                        };
                        min_off = min_off.min(off);
                    }
                }
                // Compact in place: joiners (now queued) leave the
                // prefix, the untouched tail shifts up behind the kept
                // runners, preserving entry order throughout.
                if joined {
                    let len = running.len();
                    let mut w = 0;
                    for r in 0..cut {
                        let id = running[r];
                        if matches!(
                            self.vehicles[id.index()].position(),
                            VehiclePosition::Running { .. }
                        ) {
                            running[w] = id;
                            w += 1;
                        }
                    }
                    running.copy_within(cut..len, w);
                    running.truncate(w + len - cut);
                }
                self.links[li].running = running;
                if !self.links[li].running.is_empty() {
                    // Any join this pass lengthens queues and invalidates
                    // the lead-based bounds, so re-pass next tick.
                    let wake = if joined { now + 1 } else { now + min_off };
                    if wake < ev.next_advance[li] {
                        if wake == now + 1 {
                            ev.due_next.set(li);
                        } else {
                            ev.queue.schedule(wake, li as u64);
                        }
                        ev.next_advance[li] = wake;
                    }
                }
            }
        }
        Ok(())
    }

    /// Stage 6: ticks the signal machines, waking lanes parked on any
    /// signal whose yellow resolved to green.
    fn tick_signals_event(&mut self) {
        for i in 0..self.signals.len() {
            let was_yellow = self.signals[i].in_yellow();
            self.signals[i].tick();
            if was_yellow && !self.signals[i].in_yellow() {
                self.unstall_signal_permitted(i);
            }
        }
    }

    /// Wakes the lanes parked on signal `si` whose head movement the
    /// now-active phase actually permits; the rest stay parked until a
    /// later phase change. Sound because a parked lane's head cannot
    /// change (heads leave only through a discharge pop, and parked
    /// lanes are never scanned), so its cached movement — and hence the
    /// permit verdict the scan would reach — is fixed while parked.
    pub(crate) fn unstall_signal_permitted(&mut self, si: usize) {
        let links = &self.links;
        let signals = &self.signals;
        let Some(ev) = &mut self.ev else {
            return;
        };
        ev.unstall_signal_if(si, |ev, f| {
            let li = ev.lane_link[f] as usize;
            let lane_idx = f - ev.lane_offset[li] as usize;
            match links[li].lanes[lane_idx].vehicles.front() {
                Some(&head) => {
                    let movement = Movement::ALL[ev.queued_move[head.index()] as usize];
                    signals[si].permits(LinkId(li), movement)
                }
                // A headless lane has no business being parked on a
                // signal; wake it so the scan can reclassify it.
                None => true,
            }
        });
    }

    /// Stage 7: the mean-of-max-waits sample, in closed form.
    ///
    /// Every head wait is the integer `time + 1 - join_tick`, so the
    /// per-signal max is determined by the minimum join tick over its
    /// approach-lane heads and the mean is
    /// `(m * (t + 1) - sum_of_mins) / num_signals` with `m` the number
    /// of signals that have any head. All intermediate sums are exact
    /// integers far below 2^53, so the result is bit-identical to the
    /// legacy stepper's f64 accumulation.
    fn wait_sample_event(&mut self) -> f64 {
        if self.signals.is_empty() {
            return 0.0;
        }
        let ev = self.ev.as_mut().expect("event core state");
        let dirty = std::mem::take(&mut ev.dirty);
        for &siu in &dirty {
            let si = siu as usize;
            let mut new_min = u64::MAX;
            for &f in &ev.sig_lanes[si] {
                let f = f as usize;
                let li = ev.lane_link[f] as usize;
                let lane = f - ev.lane_offset[li] as usize;
                if let Some(&head) = self.links[li].lanes[lane].vehicles.front() {
                    new_min = new_min.min(u64::from(ev.join_tick[head.index()]));
                }
            }
            let old = ev.sig_min[si];
            if old != u64::MAX {
                ev.wait_m -= 1;
                ev.wait_j -= old;
            }
            if new_min != u64::MAX {
                ev.wait_m += 1;
                ev.wait_j += new_min;
            }
            ev.sig_min[si] = new_min;
            ev.sig_dirty[si] = false;
        }
        let mut dirty = dirty;
        dirty.clear();
        ev.dirty = dirty;
        let num = ev.wait_m * (u64::from(self.time) + 1) - ev.wait_j;
        num as f64 / self.signals.len() as f64
    }
}
