//! Controller zoo: every controller in the repository — classic
//! traffic engineering (FixedTime, Actuated, MaxPressure) and the
//! trained RL models — evaluated head-to-head on the same workload.
//! Also demonstrates saving and reloading a trained policy.
//!
//! ```text
//! cargo run --release --example controller_zoo [--episodes N]
//! ```

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_baselines::{ActuatedController, FixedTimeController, MaxPressureController};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{self, FlowPattern, PatternConfig};
use tsc_sim::{Controller, EnvConfig, SimConfig, TscEnv};

fn evaluate(
    name: &str,
    env: &mut TscEnv,
    controller: &mut dyn Controller,
) -> Result<(), tsc_sim::SimError> {
    let stats = env.run_episode(controller, 4242)?;
    println!(
        "{name:<28} wait {:>8.2}s   travel {:>8.2}s   {:>5}/{} trips",
        stats.avg_waiting_time, stats.avg_travel_time, stats.finished, stats.spawned
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let episodes: usize = std::env::args()
        .skip_while(|a| a != "--episodes")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    let grid = Grid::build(GridConfig {
        cols: 4,
        rows: 4,
        spacing: 200.0,
    })?;
    let scenario = patterns::grid_scenario(&grid, FlowPattern::One, &PatternConfig::default())?;
    let env_cfg = EnvConfig {
        decision_interval: 5,
        episode_horizon: 2100,
    };
    let mut env = TscEnv::new(scenario, SimConfig::default(), env_cfg, 1)?;

    // Train PairUpLight, save it, and reload it into a fresh learner —
    // the evaluated controller comes from the *reloaded* model.
    let mut cfg = PairUpLightConfig {
        hidden: 32,
        lstm_hidden: 32,
        eps_decay_episodes: episodes / 2,
        ..Default::default()
    };
    cfg.ppo.epochs = 2;
    let mut model = PairUpLight::new(&env, cfg);
    eprintln!("training PairUpLight for {episodes} episodes …");
    for i in 0..episodes {
        let ep = model.train_episode(&mut env, i as u64)?;
        if i % 10 == 0 {
            eprintln!(
                "  episode {:>3}: wait {:>7.2}s",
                i, ep.stats.avg_waiting_time
            );
        }
    }
    let path = std::env::temp_dir().join("pairuplight_zoo_model.ckpt");
    model.save_checkpoint(&path, 0)?;
    let (reloaded, _) = PairUpLight::resume(&env, cfg, &path)?;
    std::fs::remove_file(&path).ok();
    eprintln!("policy saved and reloaded from disk\n");

    println!("controller                         avg wait     avg travel    completed");
    evaluate("FixedTime", &mut env, &mut FixedTimeController::default())?;
    evaluate(
        "Actuated (gap-out)",
        &mut env,
        &mut ActuatedController::default(),
    )?;
    evaluate(
        "MaxPressure",
        &mut env,
        &mut MaxPressureController::default(),
    )?;
    let mut rl = reloaded.controller();
    evaluate("PairUpLight (reloaded)", &mut env, &mut rl)?;
    Ok(())
}
