//! Differential parity harness: legacy tick stepper vs. event core.
//!
//! The discrete-event engine (DESIGN.md §12) replaces the per-second
//! hot loop but keeps the *observable* contract at the 1 s boundary
//! bit-for-bit: detector aggregates, rewards, metrics, chaos-fault
//! semantics and the RNG stream must all agree with the legacy stepper
//! retained behind the `legacy-oracle` feature. This harness runs both
//! engines in lockstep over every flow pattern, with and without chaos
//! plans, and asserts step-level agreement on every stream the rest of
//! the stack consumes — plus a proptest generator over random demand
//! programs, chaos plans and action schedules.
//!
//! Run it alone with `cargo test -p tsc-sim --test parity`.

#![cfg(feature = "legacy-oracle")]

use proptest::prelude::*;
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{
    ChaosPlan, DetectorConfig, Direction, FlowProfile, Lane, LinkId, LinkSel, NetworkBuilder,
    NodeSel, OdFlow, Scenario, SignalPlan, SimConfig, Simulation, Window,
};

const PATTERNS: [FlowPattern; 5] = [
    FlowPattern::One,
    FlowPattern::Two,
    FlowPattern::Three,
    FlowPattern::Four,
    FlowPattern::Five,
];

fn grid_scn(cols: usize, rows: usize, pattern: FlowPattern, cfg: &PatternConfig) -> Scenario {
    let grid = Grid::build(GridConfig {
        cols,
        rows,
        spacing: 200.0,
    })
    .unwrap();
    let f = flows(&grid, pattern, cfg).unwrap();
    grid.scenario("parity", f).unwrap()
}

/// Steps `legacy` and `event` in lockstep for `horizon` seconds with a
/// deterministic rotating phase schedule, asserting after every tick
/// that every externally observable stream is identical: full
/// [`tsc_sim::IntersectionObs`] vectors, reward bits, metrics counters
/// and averages (bit compare), vehicle counts, and per-link
/// queue/occupancy. Returns the longest link queue seen.
fn assert_lockstep(
    scenario: &Scenario,
    config: SimConfig,
    seed: u64,
    chaos: &ChaosPlan,
    horizon: u32,
    phase_period: u32,
) -> usize {
    let mut legacy = Simulation::with_chaos_legacy(scenario, config, seed, chaos.clone()).unwrap();
    let mut event = Simulation::with_chaos(scenario, config, seed, chaos.clone()).unwrap();
    assert!(!legacy.is_event_core());
    assert!(event.is_event_core());
    let agents = scenario.agents();
    let n_links = scenario.network.num_links();
    let mut longest_queue = 0;
    for t in 0..horizon {
        if t % phase_period == 0 {
            for (i, &node) in agents.iter().enumerate() {
                let phase =
                    ((t / phase_period) as usize + i) % scenario.signal_plans[i].num_phases();
                legacy.request_phase(node, phase).unwrap();
                event.request_phase(node, phase).unwrap();
            }
        }
        legacy.step().unwrap();
        event.step().unwrap();

        assert_eq!(legacy.time(), event.time());
        assert_eq!(
            legacy.active_vehicles(),
            event.active_vehicles(),
            "active vehicles diverged at t={t}"
        );
        assert_eq!(
            legacy.backlog_vehicles(),
            event.backlog_vehicles(),
            "backlog diverged at t={t}"
        );
        for li in 0..n_links {
            let id = LinkId(li);
            assert_eq!(
                legacy.link_queue(id),
                event.link_queue(id),
                "queue length diverged on link {li} at t={t}"
            );
            longest_queue = longest_queue.max(event.link_queue(id));
            assert_eq!(
                legacy.link_occupancy(id),
                event.link_occupancy(id),
                "occupancy diverged on link {li} at t={t}"
            );
        }

        let lo = legacy.observe_all();
        let eo = event.observe_all();
        assert_eq!(lo, eo, "observations diverged at t={t}");
        for (a, b) in lo.iter().zip(&eo) {
            assert_eq!(
                a.reward().to_bits(),
                b.reward().to_bits(),
                "reward bits diverged at t={t}"
            );
        }

        let (lm, em) = (legacy.metrics(), event.metrics());
        // Vehicle conservation on the event core: every spawned
        // vehicle is either finished or still active (on the network
        // or in the insertion backlog, which `active_vehicles`
        // includes).
        assert_eq!(
            em.spawned(),
            em.finished() + event.active_vehicles(),
            "vehicle conservation violated at t={t}"
        );
        assert_eq!(lm.spawned(), em.spawned(), "spawned diverged at t={t}");
        assert_eq!(lm.inserted(), em.inserted(), "inserted diverged at t={t}");
        assert_eq!(lm.finished(), em.finished(), "finished diverged at t={t}");
        assert_eq!(
            lm.avg_waiting_time().to_bits(),
            em.avg_waiting_time().to_bits(),
            "avg waiting time bits diverged at t={t}"
        );
        assert_eq!(
            legacy.avg_travel_time().to_bits(),
            event.avg_travel_time().to_bits(),
            "avg travel time bits diverged at t={t}"
        );
    }
    longest_queue
}

/// A plan layering every sensing and actuation fault kind so the
/// parity sweep exercises the chaos paths of both engines (comms
/// faults live above the simulator and are exercised elsewhere).
fn harsh_chaos(scenario: &Scenario) -> ChaosPlan {
    let node0 = scenario.agents()[0];
    ChaosPlan::default()
        .sensor_dropout(Window::new(30, 200), LinkSel::All, 0.3)
        .sensor_noise(Window::new(50, 250), LinkSel::All, 2.0)
        .sensor_bias(Window::new(0, 400), LinkSel::One(LinkId(0)), 3.0)
        .sensor_stuck(Window::new(100, 160), LinkSel::All)
        .command_loss(Window::new(40, 220), NodeSel::All, 0.5)
        .stuck_phase(Window::new(120, 180), NodeSel::One(node0))
        .all_red(Window::new(200, 230), NodeSel::All)
}

#[test]
fn parity_all_flow_patterns_fault_free() {
    for (i, pattern) in PATTERNS.into_iter().enumerate() {
        let scenario = grid_scn(6, 6, pattern, &PatternConfig::default());
        assert_lockstep(
            &scenario,
            SimConfig::default(),
            0xC0FFEE + i as u64,
            &ChaosPlan::default(),
            600,
            10,
        );
    }
}

#[test]
fn parity_all_flow_patterns_under_chaos() {
    for (i, pattern) in PATTERNS.into_iter().enumerate() {
        let scenario = grid_scn(4, 4, pattern, &PatternConfig::default());
        let chaos = harsh_chaos(&scenario);
        assert_lockstep(
            &scenario,
            SimConfig::default(),
            7 + i as u64,
            &chaos,
            400,
            7,
        );
    }
}

#[test]
fn parity_under_heavy_uniform_demand() {
    // Saturate a small grid so spillback, insertion backlog and
    // head-of-line blocking are all exercised, not just free flow.
    let cfg = PatternConfig {
        uniform_we: 900.0,
        uniform_sn: 700.0,
        ..PatternConfig::default()
    };
    let scenario = grid_scn(3, 3, FlowPattern::Five, &cfg);
    assert_lockstep(
        &scenario,
        SimConfig::default(),
        99,
        &ChaosPlan::default(),
        500,
        13,
    );
}

/// Five single-lane four-way crosses whose east and west links (in
/// and out) are cut to the lengths where a detector reading changes:
/// shorter than the range (sensed whole from the upstream end), the
/// range and one ULP either side of it, and the range plus one to four
/// ticks of travel, some one ULP off, where the entry-age thresholds
/// step. Demand is heavy enough to queue past the last sensed position.
fn detector_edge_scenario(config: &SimConfig) -> Scenario {
    let range = config.detector.range;
    let speed = config.free_speed;
    let up = |x: f64| f64::from_bits(x.to_bits() + 1);
    let down = |x: f64| f64::from_bits(x.to_bits() - 1);
    let lengths = [
        0.6 * range,
        range,
        down(range),
        up(range),
        range + speed,
        up(range + speed),
        range + 2.0 * speed,
        down(range + 2.0 * speed),
        range + 3.0 * speed,
        range + 4.0 * speed,
    ];
    let mut b = NetworkBuilder::new();
    let mut centers = Vec::new();
    let mut edges = Vec::new();
    let mut flows = Vec::new();
    let demand = |rate: f64| FlowProfile::constant(rate, 0.0, 600.0);
    for (i, pair) in lengths.chunks(2).enumerate() {
        // Each cross on its own row: the east and west links lie along
        // the x axis from a center at x = 0, so their lengths are exact.
        let y = 10_000.0 * i as f64;
        let c = b.add_node(0.0, y, true);
        let e = b.add_node(pair[0], y, false);
        let w = b.add_node(-pair[1], y, false);
        let n = b.add_node(0.0, y + 200.0, false);
        let s = b.add_node(0.0, y - 200.0, false);
        for (t, d) in [
            (n, Direction::South),
            (e, Direction::West),
            (s, Direction::North),
            (w, Direction::East),
        ] {
            let lanes = vec![Lane::all_movements()];
            let inbound = b.add_link(t, c, d, lanes.clone()).unwrap();
            let outbound = b.add_link(c, t, d.opposite(), lanes).unwrap();
            if t == e || t == w {
                let length = if t == e { pair[0] } else { pair[1] };
                edges.extend([(inbound, length), (outbound, length)]);
            }
        }
        centers.push(c);
        for (from, to, rate) in [
            (w, e, 1000.0),
            (e, w, 800.0),
            (n, s, 500.0),
            (s, n, 300.0),
            (w, n, 200.0),
            (e, s, 200.0),
            (s, e, 200.0),
        ] {
            flows.push(OdFlow::new(from, to, demand(rate)));
        }
    }
    let network = b.build().unwrap();
    for (l, length) in edges {
        assert_eq!(
            network.link(l).length().to_bits(),
            length.to_bits(),
            "{l} must be exactly {length:?} m long"
        );
    }
    let plans = centers
        .iter()
        .map(|&c| SignalPlan::four_phase(&network, c).unwrap())
        .collect();
    Scenario::new("detector-edges", network, plans, flows).unwrap()
}

/// Both engines agree reading links cut to the detector's edges, with
/// queues past the last sensed position, fault-free and through a
/// stuck-sensor window, under the default detector and one whose range
/// is a whole number of ticks of travel and gaps.
#[test]
fn parity_at_the_detector_edges() {
    let configs = [
        SimConfig::default(),
        SimConfig {
            free_speed: 10.0,
            vehicle_gap: 7.5,
            detector: DetectorConfig::with_range(30.0),
            ..SimConfig::default()
        },
    ];
    for (i, config) in configs.into_iter().enumerate() {
        let scenario = detector_edge_scenario(&config);
        let sensed = (0usize..)
            .take_while(|&p| (p as f64) * config.vehicle_gap <= config.detector.range)
            .count();
        let stuck = ChaosPlan::default().sensor_stuck(Window::new(100, 160), LinkSel::All);
        for chaos in [ChaosPlan::default(), stuck] {
            let longest = assert_lockstep(&scenario, config, 31 + i as u64, &chaos, 600, 9);
            assert!(
                longest > sensed,
                "queues must reach past the {sensed} sensed positions (longest {longest})"
            );
        }
    }
}

/// Regression: the legacy stepper drains the insertion backlog by
/// iterating a `HashMap` in hash order, which is only benign because
/// per-link insertions are independent; the event core drains entry
/// links in ascending id order instead. This pins the per-link backlog
/// evolution of both engines against each other on a scenario where
/// several entry links are backlogged *simultaneously*, so any hidden
/// cross-link coupling (shared capacity, RNG draws, metric updates)
/// in either drain order would diverge here.
#[test]
fn backlog_drain_order_is_immaterial() {
    // Short blocks -> tiny link capacity; heavy two-axis demand ->
    // multiple saturated entry links at once.
    let grid = Grid::build(GridConfig {
        cols: 3,
        rows: 3,
        spacing: 60.0,
    })
    .unwrap();
    let cfg = PatternConfig {
        uniform_we: 1200.0,
        uniform_sn: 1100.0,
        ..PatternConfig::default()
    };
    let f = flows(&grid, FlowPattern::Five, &cfg).unwrap();
    let scenario = grid.scenario("backlog-order", f).unwrap();

    let config = SimConfig::default();
    let mut legacy = Simulation::new_legacy(&scenario, config, 4242).unwrap();
    let mut event = Simulation::new(&scenario, config, 4242).unwrap();
    let n_links = scenario.network.num_links();
    let mut max_backlogged_links = 0;
    for t in 0..400u32 {
        legacy.step().unwrap();
        event.step().unwrap();
        let mut backlogged = 0;
        for li in 0..n_links {
            let id = LinkId(li);
            let lb = legacy.link_backlog(id);
            assert_eq!(
                lb,
                event.link_backlog(id),
                "per-link backlog diverged on link {li} at t={t}"
            );
            backlogged += usize::from(lb > 0);
        }
        max_backlogged_links = max_backlogged_links.max(backlogged);
        assert_eq!(legacy.metrics().inserted(), event.metrics().inserted());
        assert_eq!(legacy.backlog_vehicles(), event.backlog_vehicles());
    }
    assert!(
        max_backlogged_links >= 2,
        "scenario must backlog several entry links at once to exercise \
         drain-order independence (saw at most {max_backlogged_links})"
    );
}

#[test]
fn event_core_is_bit_reproducible() {
    let scenario = grid_scn(4, 4, FlowPattern::Three, &PatternConfig::default());
    let chaos = harsh_chaos(&scenario);
    let digest = |seed: u64| -> u64 {
        let mut sim =
            Simulation::with_chaos(&scenario, SimConfig::default(), seed, chaos.clone()).unwrap();
        let agents = scenario.agents();
        let mut bits = 0u64;
        for t in 0..400u32 {
            if t % 9 == 0 {
                for (i, &node) in agents.iter().enumerate() {
                    let phase = (t as usize / 9 + i) % scenario.signal_plans[i].num_phases();
                    sim.request_phase(node, phase).unwrap();
                }
            }
            sim.step().unwrap();
            for obs in sim.observe_all() {
                bits = bits
                    .rotate_left(7)
                    .wrapping_add(obs.reward().to_bits())
                    .wrapping_add(obs.incoming.len() as u64);
            }
        }
        bits.wrapping_add(sim.metrics().avg_waiting_time().to_bits())
    };
    assert_eq!(digest(5), digest(5));
    assert_ne!(digest(5), digest(6), "different seeds should diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized differential check: random demand program (pattern
    /// and rates), random seed, random action schedule and a random
    /// chaos plan, on a 2x2 grid. Any step-level divergence between
    /// the two engines fails the property.
    #[test]
    fn parity_random_demand_and_chaos(
        seed in 0u64..10_000,
        pat in 0usize..5,
        we in 100.0f64..1000.0,
        sn in 50.0f64..800.0,
        peak in 200.0f64..900.0,
        period in 3u32..20,
        chaos_kind in 0usize..4,
        p in 0.05f64..0.9,
        start in 0u32..150,
        len in 10u32..200,
    ) {
        let cfg = PatternConfig {
            uniform_we: we,
            uniform_sn: sn,
            peak_rate: peak,
            ..PatternConfig::default()
        };
        let scenario = grid_scn(2, 2, PATTERNS[pat], &cfg);
        let w = Window::new(start, start + len);
        let chaos = match chaos_kind {
            0 => ChaosPlan::default(),
            1 => ChaosPlan::default()
                .sensor_dropout(w, LinkSel::All, p)
                .sensor_noise(w, LinkSel::All, 3.0 * p),
            2 => ChaosPlan::default()
                .command_loss(w, NodeSel::All, p)
                .stuck_phase(Window::new(start + 20, start + len), NodeSel::All),
            _ => ChaosPlan::default()
                .all_red(Window::new(start, start + len.min(40)), NodeSel::All)
                .sensor_stuck(w, LinkSel::All),
        };
        assert_lockstep(&scenario, SimConfig::default(), seed, &chaos, 300, period);
    }
}
