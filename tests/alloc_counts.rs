//! Exact work counters: heap allocations per operation, pinned.
//!
//! Wall time on a shared host is too noisy to gate a regression; an
//! allocation count is not. This binary installs a counting global
//! allocator that tallies allocations made by the calling thread (a
//! `const` thread-local, so counting itself never allocates and the
//! harness's other threads never leak into a count), and pins the count
//! of each measured operation exactly.
//!
//! The pins are a ratchet: a count above its pin fails, and a change
//! that lowers a count lowers the pin in the same diff. A toolchain bump
//! that moves a count re-pins it and says so in CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsc_baselines::MaxPressureController;
use tsc_nn::{Adam, Graph, LstmCell, Params, Tensor};
use tsc_scenario::{city_spec, compile};
use tsc_sim::{Controller, IntersectionObs, SimConfig, Simulation};

/// Counts allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and the
/// bytes they request on the calling thread, then defers to [`System`].
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    // `try_with`: an allocation during thread teardown goes uncounted
    // rather than aborting.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` unchanged; the counters
// are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes `f` makes on this thread.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

/// `observe_all` plus dropping its result makes exactly one allocation,
/// the outer `Vec`, at every decision step of a congesting half hour on
/// a ~200-signal compiled city: per-approach readings live inline in
/// each `IntersectionObs`.
#[test]
fn observe_all_allocates_once_per_call() {
    const PIN: u64 = 1;
    let compiled = compile(&city_spec(200, 42)).expect("city-200 compiles");
    let mut sim = Simulation::new(&compiled.scenario, SimConfig::default(), 42).expect("sim");
    let agents = sim.signalized();
    let mut controller = MaxPressureController::default();
    controller.reset();
    while sim.time() < 1800 {
        let t = sim.time();
        let (obs, allocs, bytes) = count(|| sim.observe_all());
        let actions = controller.decide(&obs);
        let ((), drop_allocs, _) = count(|| drop(obs));
        assert_eq!(
            allocs + drop_allocs,
            PIN,
            "observe_all allocations at t={t}"
        );
        assert_eq!(
            bytes as usize,
            agents.len() * std::mem::size_of::<IntersectionObs>(),
            "the one allocation is the outer Vec"
        );
        for (i, (&node, &a)) in agents.iter().zip(&actions).enumerate() {
            let phases = compiled.scenario.signal_plans[i].num_phases();
            sim.request_phase(node, a % phases).expect("valid phase");
        }
        for _ in 0..7 {
            sim.step().expect("step");
        }
    }
    assert!(
        sim.active_vehicles() > 1000,
        "the city is congested by then"
    );
}

/// The seven `Simulation::step`s of every decision step of the same
/// half hour allocate a pinned total: each spawn's route, and growth of
/// the per-vehicle arrays, lane queues, runner lists and insertion
/// backlog as the city fills. Nothing is allocated per tick or per
/// signal.
#[test]
fn sim_steps_allocate_a_pinned_total() {
    const PIN: u64 = 10_113;
    let compiled = compile(&city_spec(200, 42)).expect("city-200 compiles");
    let mut sim = Simulation::new(&compiled.scenario, SimConfig::default(), 42).expect("sim");
    let agents = sim.signalized();
    let mut controller = MaxPressureController::default();
    controller.reset();
    let mut total = 0;
    let mut decisions = 0;
    while sim.time() < 1800 {
        let obs = sim.observe_all();
        let actions = controller.decide(&obs);
        for (i, (&node, &a)) in agents.iter().zip(&actions).enumerate() {
            let phases = compiled.scenario.signal_plans[i].num_phases();
            sim.request_phase(node, a % phases).expect("valid phase");
        }
        let (result, allocs, _) = count(|| (0..7).try_for_each(|_| sim.step()));
        result.expect("step");
        total += allocs;
        decisions += 1;
    }
    assert_eq!(decisions, 258);
    assert_eq!(sim.metrics().spawned(), 5963);
    assert_eq!(total, PIN, "allocations in 7 steps x {decisions} decisions");
}

/// A steady-state `Adam::step` allocates nothing: it reads each
/// parameter's gradient in place while it writes the value, over an
/// LSTM cell's weights and bias plus a scalar.
#[test]
fn adam_step_allocates_nothing() {
    const PIN: u64 = 0;
    let mut rng = StdRng::seed_from_u64(5);
    let mut params = Params::new();
    let cell = LstmCell::new(&mut params, "lstm", 6, 8, &mut rng);
    let w = params.add("w", Tensor::full(1, 1, 0.5));
    let mut opt = Adam::new(&params, 1e-3);
    for step in 0..5 {
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(4, 6, 1.0, &mut rng));
        let h = g.input(Tensor::zeros(4, 8));
        let c = g.input(Tensor::zeros(4, 8));
        let (h_new, _) = cell.forward(&mut g, &params, x, h, c);
        let wv = g.param(&params, w);
        let s = g.sum(h_new);
        let loss = g.add(s, wv);
        g.backward(loss, &mut params);
        let ((), allocs, _) = count(|| opt.step(&mut params));
        assert_eq!(allocs, PIN, "Adam::step allocations at step {step}");
    }
}
