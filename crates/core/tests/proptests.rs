//! Property-based tests for PairUpLight's observation encoding,
//! message regularizer, pairing rule, and fault-recovery determinism.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pairuplight::message::{bits_per_step, regularize};
use pairuplight::{FaultPlan, ObsEncoder, ObsNorm, PairUpLight, PairUpLightConfig, PairingTable};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{self, FlowPattern, PatternConfig};
use tsc_sim::{
    Approaches, Direction, EnvConfig, IntersectionObs, LinkId, LinkObs, NodeId, SimConfig, TscEnv,
};

fn grid_setup(cols: usize, rows: usize) -> (Grid, Vec<NodeId>, ObsEncoder, PairingTable) {
    let grid = Grid::build(GridConfig {
        cols,
        rows,
        spacing: 200.0,
    })
    .expect("grid");
    let agents = grid.network().signalized_nodes();
    let enc = ObsEncoder::new(grid.network(), &agents, 4, ObsNorm::default());
    let table = PairingTable::new(grid.network(), &agents, &enc);
    (grid, agents, enc, table)
}

fn arbitrary_obs(node: NodeId, halting: f64, wait: f64, phase: usize) -> IntersectionObs {
    let left = (halting / 3.0).floor();
    let right = (halting / 4.0).floor();
    let through = halting - left - right;
    IntersectionObs {
        node,
        time: 0,
        incoming: Approaches::from([LinkObs {
            link: LinkId(0),
            direction: Direction::East,
            count: halting + 1.0,
            halting,
            halting_by_movement: [left, through, right],
            head_wait: wait,
        }]),
        outgoing_counts: Approaches::from([0.5]),
        outgoing_links: Approaches::from([LinkId(1)]),
        current_phase: phase % 4,
        num_phases: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The regularizer always lands in (0, 1) for any input and σ.
    #[test]
    fn regularizer_output_in_unit_interval(
        raw in proptest::collection::vec(-50.0f32..50.0, 0..6),
        sigma in 0.0f32..3.0,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = regularize(&raw, sigma, &mut rng);
        prop_assert_eq!(out.len(), raw.len());
        for v in out {
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v.is_finite());
        }
    }

    /// Bit accounting is linear in bandwidth.
    #[test]
    fn bits_are_linear(bw in 0usize..64) {
        prop_assert_eq!(bits_per_step(bw), 32 * bw);
    }

    /// Local encodings always have the advertised dimension and finite
    /// entries, for any congestion level.
    #[test]
    fn encoding_dimension_is_stable(
        halting in 0.0f64..500.0,
        wait in 0.0f64..10_000.0,
        phase in 0usize..10,
    ) {
        let (_, agents, enc, _) = grid_setup(2, 2);
        let obs = arbitrary_obs(agents[0], halting.floor(), wait, phase);
        let v = enc.encode_local(&obs);
        prop_assert_eq!(v.len(), enc.local_dim());
        prop_assert!(v.iter().all(|x| x.is_finite()));
        let target = enc.message_target(&obs);
        prop_assert!((0.0..=1.0).contains(&(target as f64)) || (-1.0..=1.0).contains(&(target as f64)));
    }

    /// Partners are always valid agent indices, and always either the
    /// agent itself or one of its upstream neighbors.
    #[test]
    fn partners_are_upstream_or_self(
        congestion in proptest::collection::vec(0.0f64..50.0, 9),
        wait in 0.0f64..500.0,
    ) {
        let (_, agents, _, table) = grid_setup(3, 3);
        let obs: Vec<IntersectionObs> = agents
            .iter()
            .enumerate()
            .map(|(i, &n)| arbitrary_obs(n, congestion[i].floor(), wait, 0))
            .collect();
        let partners = table.partners(&obs);
        prop_assert_eq!(partners.len(), agents.len());
        for (a, &p) in partners.iter().enumerate() {
            prop_assert!(p < agents.len());
            prop_assert!(
                p == a || table.upstream(a).contains(&p),
                "agent {a} paired with non-upstream {p}"
            );
        }
    }

    /// Random pairing also stays within the upstream-or-self set.
    #[test]
    fn random_partners_are_upstream_or_self(seed in 0u64..300) {
        let (_, _agents, _, table) = grid_setup(3, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let partners = table.random_partners(&mut rng);
        for (a, &p) in partners.iter().enumerate() {
            prop_assert!(p == a || table.upstream(a).contains(&p));
        }
        let selfs = table.self_partners();
        for (a, &p) in selfs.iter().enumerate() {
            prop_assert_eq!(p, a);
        }
    }

    /// Critic encodings for different agents at the same joint state
    /// have identical length (padding works at edges and corners).
    #[test]
    fn critic_dims_uniform_across_agents(congestion in 0.0f64..40.0) {
        let (_, agents, enc, _) = grid_setup(3, 3);
        let obs: Vec<IntersectionObs> = agents
            .iter()
            .map(|&n| arbitrary_obs(n, congestion.floor(), 10.0, 1))
            .collect();
        for a in 0..agents.len() {
            prop_assert_eq!(enc.encode_critic(&obs, a).len(), enc.critic_dim());
        }
    }
}

fn train_env() -> TscEnv {
    let grid = Grid::build(GridConfig {
        cols: 2,
        rows: 2,
        spacing: 150.0,
    })
    .expect("grid");
    let scenario = patterns::grid_scenario(&grid, FlowPattern::Five, &PatternConfig::default())
        .expect("scenario");
    TscEnv::new(
        scenario,
        SimConfig::default(),
        EnvConfig {
            decision_interval: 5,
            episode_horizon: 140,
        },
        0,
    )
    .expect("env")
}

/// Trains 2 rounds x 2 parallel replicas with the given faults and
/// returns the final parameter bits.
fn train_with_faults(plan: FaultPlan) -> Vec<u32> {
    let mut cfg = PairUpLightConfig {
        hidden: 12,
        lstm_hidden: 12,
        num_envs: 2,
        ..Default::default()
    };
    cfg.ppo.epochs = 1;
    cfg.ppo.minibatch = 32;
    // Generous budget: the strategy may stack several panics on one
    // (round, env) point, each consuming one retry.
    cfg.max_round_retries = 5;
    let mut env = train_env();
    let model = PairUpLight::new(&env, cfg);
    model.inject_faults(plan);
    let mut model = model;
    model
        .train_checkpointed(&mut env, 4, 21, None, |_| {})
        .expect("training must survive injected worker panics");
    model
        .parameter_vector()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Fault-recovery determinism: worker panics injected at arbitrary
    /// (round, env) points never change the final parameters, because
    /// a panicked replica is retried with the same derived seed against
    /// a freshly reset environment.
    #[test]
    fn injected_worker_panics_never_change_final_parameters(
        points in proptest::collection::vec(0u64..4, 1..4),
    ) {
        let mut plan = FaultPlan::new();
        for &p in &points {
            // Decode each draw into (round 0..2, env replica 0..2).
            plan = plan.panic_worker(p / 2, (p % 2) as usize);
        }
        let faulted = train_with_faults(plan);
        let clean = train_with_faults(FaultPlan::new());
        prop_assert_eq!(faulted, clean);
    }
}
