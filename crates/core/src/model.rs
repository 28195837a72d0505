//! The coordinated Actor and centralized Critic networks (paper Fig. 5).
//!
//! Both networks share the same shape — a fully-connected trunk into an
//! LSTM — and diverge at the heads: the actor emits an action
//! distribution *and* a raw outgoing message (Eq. 8); the critic emits
//! a scalar value (Eq. 9). As in the paper, actor and critic are fully
//! separate networks (no shared trunk). Hidden LSTM states are carried
//! by the caller and stored in the rollout buffer (Algorithm 1
//! line 20), giving truncated backpropagation-through-time of length 1.

use rand::Rng;

use tsc_nn::{Graph, Init, Linear, LstmCell, LstmScratch, LstmState, Params, Tensor, Var};
use tsc_sim::IntersectionObs;

use crate::obs::ObsEncoder;

/// Reusable activation buffers for the tape-free actor forward pass
/// ([`ActorNet::infer`]). All tensors are sized on first use and then
/// reused allocation-free; [`alloc_events`](Self::alloc_events) counts
/// (re)allocations so tests can assert a zero-allocation steady state.
/// Crate-private: [`ActorStep`] is the only way to run the actor.
#[derive(Debug)]
pub(crate) struct ActorBuffers {
    fc: Tensor,
    scratch: LstmScratch,
    /// Next LSTM hidden output `h'` (`batch × lstm_hidden`).
    pub h: Tensor,
    /// Next LSTM cell state `c'` (`batch × lstm_hidden`).
    pub c: Tensor,
    /// Policy logits (`batch × max_phases`).
    pub logits: Tensor,
    /// Raw outgoing messages (`batch × bandwidth`; left `0 × 0` when
    /// the communication module is ablated).
    pub message: Tensor,
    allocs: u64,
}

impl ActorBuffers {
    /// Empty buffers, sized lazily by the first [`ActorNet::infer`].
    pub fn new() -> Self {
        ActorBuffers {
            fc: Tensor::zeros(0, 0),
            scratch: LstmScratch::new(),
            h: Tensor::zeros(0, 0),
            c: Tensor::zeros(0, 0),
            logits: Tensor::zeros(0, 0),
            message: Tensor::zeros(0, 0),
            allocs: 0,
        }
    }

    /// Cumulative buffer (re)allocation count. Constant across steps
    /// once shapes have stabilized — the inference path's allocation
    /// probe.
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }
}

/// One decision step of the deployed actor for all `N` agents — the
/// single inference path behind rollout collection, the evaluation
/// controller and the serving runtime.
///
/// It owns the `N × (obs_dim + bandwidth)` input (row `a` is agent
/// `a`'s `[obs ⊕ partner message]`), the `N × lstm_hidden` recurrent
/// state, the activation buffers, and the `N × max_phases` policy
/// probabilities and `N × bandwidth` raw outgoing messages of the last
/// run. With one shared bundle [`run_all`](Self::run_all) is a single
/// `N`-row [`ActorNet::infer`]; otherwise it is one 1-row forward per
/// agent. Every kernel on the path is row-independent, so both give
/// bit-identical rows. Action choice and message squashing stay with
/// the callers.
#[derive(Debug)]
pub struct ActorStep {
    shared: bool,
    obs_dim: usize,
    x: Tensor,
    state: LstmState,
    probs: Tensor,
    message: Tensor,
    bufs: ActorBuffers,
    /// 1-row copies of one agent's input, state and probabilities for
    /// per-agent forwards.
    row_x: Tensor,
    row_state: LstmState,
    row_probs: Tensor,
}

impl ActorStep {
    /// Zero-state step for `num_agents` agents running `actor`'s shape;
    /// `shared` means every agent runs bundle 0.
    pub fn new(actor: &ActorNet, num_agents: usize, shared: bool) -> Self {
        let input_dim = actor.obs_dim + actor.bandwidth;
        let hidden = actor.lstm_hidden();
        let phases = actor.policy_head.out_dim();
        ActorStep {
            shared,
            obs_dim: actor.obs_dim,
            x: Tensor::zeros(num_agents, input_dim),
            state: LstmState::zeros(num_agents, hidden),
            probs: Tensor::zeros(num_agents, phases),
            message: Tensor::zeros(num_agents, actor.bandwidth),
            bufs: ActorBuffers::new(),
            row_x: Tensor::zeros(1, input_dim),
            row_state: LstmState::zeros(1, hidden),
            row_probs: Tensor::zeros(1, phases),
        }
    }

    /// Zeroes the recurrent state (start of an episode).
    pub fn reset(&mut self) {
        self.state.h.fill_zero();
        self.state.c.fill_zero();
    }

    /// Fills agent `a`'s input row from its observation and the partner
    /// message delivered to it (empty when communication is off).
    pub fn set_input(
        &mut self,
        a: usize,
        encoder: &ObsEncoder,
        obs: &IntersectionObs,
        message: &[f32],
    ) {
        let (local, msg) = self.x.row_mut(a).split_at_mut(self.obs_dim);
        encoder.encode_local_into(obs, local);
        msg.copy_from_slice(message);
    }

    /// Agent `a`'s input row `[obs ⊕ partner message]`.
    pub fn input(&self, a: usize) -> &[f32] {
        self.x.row(a)
    }

    /// Agent `a`'s input row, for actors whose input is not an encoded
    /// observation plus message (the MA2C baseline's).
    pub fn input_mut(&mut self, a: usize) -> &mut [f32] {
        self.x.row_mut(a)
    }

    /// The recurrent state the next run reads (`N × lstm_hidden`).
    pub fn state(&self) -> &LstmState {
        &self.state
    }

    /// Agent `a`'s policy probabilities from its last run.
    pub fn probs(&self, a: usize) -> &[f32] {
        self.probs.row(a)
    }

    /// Agent `a`'s raw outgoing message from its last run.
    pub fn message(&self, a: usize) -> &[f32] {
        self.message.row(a)
    }

    /// Runs every agent and advances their recurrent state. `net(b)`
    /// returns bundle `b`'s weights, where `b` is 0 when shared and the
    /// agent index otherwise.
    pub fn run_all<'n>(&mut self, net: impl Fn(usize) -> (&'n Params, &'n ActorNet)) {
        if !self.shared {
            for a in 0..self.x.rows() {
                self.run_one(a, &net);
            }
            return;
        }
        let (params, actor) = net(0);
        actor.infer(
            params,
            &self.x,
            &self.state.h,
            &self.state.c,
            &mut self.bufs,
        );
        tsc_nn::softmax_rows_into(&self.bufs.logits, &mut self.probs);
        self.state.h.copy_from(&self.bufs.h);
        self.state.c.copy_from(&self.bufs.c);
        if !self.message.is_empty() {
            self.message.copy_from(&self.bufs.message);
        }
    }

    /// Runs agent `a` alone (1-row forward) and advances its recurrent
    /// state; every other agent's row is untouched. `net` is as in
    /// [`run_all`](Self::run_all).
    pub fn run_one<'n>(&mut self, a: usize, net: impl Fn(usize) -> (&'n Params, &'n ActorNet)) {
        let (params, actor) = net(if self.shared { 0 } else { a });
        self.row_x.row_mut(0).copy_from_slice(self.x.row(a));
        let row = &mut self.row_state;
        row.h.row_mut(0).copy_from_slice(self.state.h.row(a));
        row.c.row_mut(0).copy_from_slice(self.state.c.row(a));
        actor.infer(params, &self.row_x, &row.h, &row.c, &mut self.bufs);
        tsc_nn::softmax_rows_into(&self.bufs.logits, &mut self.row_probs);
        self.probs.row_mut(a).copy_from_slice(self.row_probs.row(0));
        self.state.h.row_mut(a).copy_from_slice(self.bufs.h.row(0));
        self.state.c.row_mut(a).copy_from_slice(self.bufs.c.row(0));
        if !self.message.is_empty() {
            self.message
                .row_mut(a)
                .copy_from_slice(self.bufs.message.row(0));
        }
    }

    /// Activation-buffer (re)allocation count (see
    /// [`ActorBuffers::alloc_events`]); every other buffer is sized at
    /// construction.
    pub fn alloc_events(&self) -> u64 {
        self.bufs.alloc_events()
    }
}

/// Reusable activation buffers for [`CriticNet::infer`]; see
/// [`ActorBuffers`].
#[derive(Debug, Clone)]
pub struct CriticBuffers {
    fc: Tensor,
    scratch: LstmScratch,
    /// Next LSTM hidden output (`batch × lstm_hidden`).
    pub h: Tensor,
    /// Next LSTM cell state (`batch × lstm_hidden`).
    pub c: Tensor,
    /// State values (`batch × 1`).
    pub value: Tensor,
    allocs: u64,
}

impl CriticBuffers {
    /// Empty buffers, sized lazily by the first [`CriticNet::infer`].
    pub fn new() -> Self {
        CriticBuffers {
            fc: Tensor::zeros(0, 0),
            scratch: LstmScratch::new(),
            h: Tensor::zeros(0, 0),
            c: Tensor::zeros(0, 0),
            value: Tensor::zeros(0, 0),
            allocs: 0,
        }
    }

    /// Cumulative buffer (re)allocation count (see
    /// [`ActorBuffers::alloc_events`]).
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }
}

impl Default for CriticBuffers {
    fn default() -> Self {
        Self::new()
    }
}

/// The coordinated actor: `FC → LSTM → {policy head, message head}`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ActorNet {
    fc: Linear,
    lstm: LstmCell,
    policy_head: Linear,
    message_head: Option<Linear>,
    obs_dim: usize,
    bandwidth: usize,
}

/// Output of one actor forward pass (graph nodes).
#[derive(Debug, Clone, Copy)]
pub struct ActorOut {
    /// `batch × max_phases` policy logits.
    pub logits: Var,
    /// `batch × bandwidth` raw outgoing messages (`None` when the
    /// communication module is ablated).
    pub message: Option<Var>,
    /// LSTM hidden output (graph node), for further heads if needed.
    pub h: Var,
}

impl ActorNet {
    /// Builds an actor for `obs_dim`-dimensional local observations,
    /// `bandwidth` incoming/outgoing messages and `max_phases` actions.
    pub fn new<R: Rng>(
        params: &mut Params,
        obs_dim: usize,
        bandwidth: usize,
        hidden: usize,
        lstm_hidden: usize,
        max_phases: usize,
        rng: &mut R,
    ) -> Self {
        let input_dim = obs_dim + bandwidth;
        let fc = Linear::new(
            params,
            "actor.fc",
            input_dim,
            hidden,
            Init::Orthogonal { gain: 2f32.sqrt() },
            rng,
        );
        let lstm = LstmCell::new(params, "actor.lstm", hidden, lstm_hidden, rng);
        let policy_head = Linear::new(
            params,
            "actor.pi",
            lstm_hidden,
            max_phases,
            Init::Orthogonal { gain: 0.01 },
            rng,
        );
        let message_head = (bandwidth > 0).then(|| {
            Linear::new(
                params,
                "actor.msg",
                lstm_hidden,
                bandwidth,
                Init::Orthogonal { gain: 0.5 },
                rng,
            )
        });
        ActorNet {
            fc,
            lstm,
            policy_head,
            message_head,
            obs_dim,
            bandwidth,
        }
    }

    /// Local-observation dimension (message excluded).
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Message bandwidth.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// LSTM hidden width.
    pub fn lstm_hidden(&self) -> usize {
        self.lstm.hidden()
    }

    /// Forward pass from an already-assembled input
    /// `[obs ⊕ incoming message]` (`batch × (obs_dim + bandwidth)`)
    /// and explicit previous LSTM state vars.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        x: Var,
        h_prev: Var,
        c_prev: Var,
    ) -> (ActorOut, Var) {
        let z = self.fc.forward(g, params, x);
        let z = g.relu(z);
        let (h, c) = self.lstm.forward(g, params, z, h_prev, c_prev);
        let logits = self.policy_head.forward(g, params, h);
        let message = self
            .message_head
            .as_ref()
            .map(|mh| mh.forward(g, params, h));
        (ActorOut { logits, message, h }, c)
    }

    /// Tape-free forward pass, bit-identical to
    /// [`forward`](Self::forward) on the same inputs: `x` is the
    /// assembled `batch × (obs_dim + bandwidth)` input, `h_prev` /
    /// `c_prev` the previous LSTM state, and all activations land in
    /// `buf` (logits, raw message, next `h` / `c`). Records no autograd
    /// tape and allocates nothing once `buf`'s shapes have stabilized,
    /// which is what makes the serving hot loop and rollout collection
    /// cheap.
    pub(crate) fn infer(
        &self,
        params: &Params,
        x: &Tensor,
        h_prev: &Tensor,
        c_prev: &Tensor,
        buf: &mut ActorBuffers,
    ) {
        let mut allocs = self.fc.infer_into(params, x, &mut buf.fc);
        for v in buf.fc.data_mut() {
            *v = v.max(0.0);
        }
        allocs += self.lstm.infer_into(
            params,
            &buf.fc,
            h_prev,
            c_prev,
            &mut buf.scratch,
            &mut buf.h,
            &mut buf.c,
        );
        allocs += self.policy_head.infer_into(params, &buf.h, &mut buf.logits);
        if let Some(mh) = &self.message_head {
            allocs += mh.infer_into(params, &buf.h, &mut buf.message);
        }
        buf.allocs += allocs;
    }

    /// Convenience single-step forward from plain tensors: returns
    /// logits, raw message row-major data, and the next LSTM state.
    pub fn step(
        &self,
        g: &mut Graph,
        params: &Params,
        input: Tensor,
        state: &LstmState,
    ) -> (ActorOut, LstmState) {
        let x = g.input(input);
        let h_prev = g.input(state.h.clone());
        let c_prev = g.input(state.c.clone());
        let (out, c) = self.forward(g, params, x, h_prev, c_prev);
        let next = LstmState {
            h: g.value(out.h).clone(),
            c: g.value(c).clone(),
        };
        (out, next)
    }
}

/// The centralized critic: `FC → LSTM → value` (Eq. 9).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CriticNet {
    fc: Linear,
    lstm: LstmCell,
    value_head: Linear,
    input_dim: usize,
}

impl CriticNet {
    /// Builds a critic for `input_dim`-dimensional inputs (local or
    /// centralized, per [`CriticMode`](crate::config::CriticMode)).
    pub fn new<R: Rng>(
        params: &mut Params,
        input_dim: usize,
        hidden: usize,
        lstm_hidden: usize,
        rng: &mut R,
    ) -> Self {
        let fc = Linear::new(
            params,
            "critic.fc",
            input_dim,
            hidden,
            Init::Orthogonal { gain: 2f32.sqrt() },
            rng,
        );
        let lstm = LstmCell::new(params, "critic.lstm", hidden, lstm_hidden, rng);
        let value_head = Linear::new(
            params,
            "critic.v",
            lstm_hidden,
            1,
            Init::Orthogonal { gain: 1.0 },
            rng,
        );
        CriticNet {
            fc,
            lstm,
            value_head,
            input_dim,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// LSTM hidden width.
    pub fn lstm_hidden(&self) -> usize {
        self.lstm.hidden()
    }

    /// Forward pass with explicit previous-state vars; returns the
    /// `batch × 1` value node and the new `(h, c)` nodes.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        x: Var,
        h_prev: Var,
        c_prev: Var,
    ) -> (Var, Var, Var) {
        let z = self.fc.forward(g, params, x);
        let z = g.relu(z);
        let (h, c) = self.lstm.forward(g, params, z, h_prev, c_prev);
        let v = self.value_head.forward(g, params, h);
        (v, h, c)
    }

    /// Single-step forward from plain tensors.
    pub fn step(
        &self,
        g: &mut Graph,
        params: &Params,
        input: Tensor,
        state: &LstmState,
    ) -> (Var, LstmState) {
        let x = g.input(input);
        let h_prev = g.input(state.h.clone());
        let c_prev = g.input(state.c.clone());
        let (v, h, c) = self.forward(g, params, x, h_prev, c_prev);
        let next = LstmState {
            h: g.value(h).clone(),
            c: g.value(c).clone(),
        };
        (v, next)
    }

    /// Tape-free forward pass, bit-identical to
    /// [`forward`](Self::forward); see [`ActorNet::infer`].
    pub fn infer(
        &self,
        params: &Params,
        x: &Tensor,
        h_prev: &Tensor,
        c_prev: &Tensor,
        buf: &mut CriticBuffers,
    ) {
        let mut allocs = self.fc.infer_into(params, x, &mut buf.fc);
        for v in buf.fc.data_mut() {
            *v = v.max(0.0);
        }
        allocs += self.lstm.infer_into(
            params,
            &buf.fc,
            h_prev,
            c_prev,
            &mut buf.scratch,
            &mut buf.h,
            &mut buf.c,
        );
        allocs += self.value_head.infer_into(params, &buf.h, &mut buf.value);
        buf.allocs += allocs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn actor_emits_policy_and_message() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 20, 1, 32, 32, 4, &mut rng);
        let mut g = Graph::new();
        let state = LstmState::zeros(3, 32);
        let input = Tensor::zeros(3, 21);
        let (out, next) = actor.step(&mut g, &params, input, &state);
        assert_eq!(g.value(out.logits).shape(), (3, 4));
        assert_eq!(g.value(out.message.unwrap()).shape(), (3, 1));
        assert_eq!(next.h.shape(), (3, 32));
    }

    #[test]
    fn zero_bandwidth_actor_has_no_message_head() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 20, 0, 32, 32, 4, &mut rng);
        let mut g = Graph::new();
        let (out, _) = actor.step(
            &mut g,
            &params,
            Tensor::zeros(1, 20),
            &LstmState::zeros(1, 32),
        );
        assert!(out.message.is_none());
    }

    #[test]
    fn actor_policy_depends_on_incoming_message() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 4, 1, 16, 16, 4, &mut rng);
        let state = LstmState::zeros(1, 16);
        let run = |msg: f32| {
            let mut g = Graph::new();
            let mut input = Tensor::zeros(1, 5);
            input.set(0, 4, msg);
            let (out, _) = actor.step(&mut g, &params, input, &state);
            g.value(out.logits).clone()
        };
        assert_ne!(run(0.0), run(1.0), "message reaches the policy");
    }

    #[test]
    fn critic_value_is_scalar_per_row() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let critic = CriticNet::new(&mut params, 36, 32, 32, &mut rng);
        let mut g = Graph::new();
        let (v, next) = critic.step(
            &mut g,
            &params,
            Tensor::zeros(5, 36),
            &LstmState::zeros(5, 32),
        );
        assert_eq!(g.value(v).shape(), (5, 1));
        assert_eq!(next.c.shape(), (5, 32));
    }

    #[test]
    fn actor_infer_is_bit_identical_to_graph_step() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 8, 2, 16, 16, 4, &mut rng);
        let x = Tensor::randn(3, 10, 1.0, &mut rng);
        let state = LstmState {
            h: Tensor::randn(3, 16, 0.3, &mut rng),
            c: Tensor::randn(3, 16, 0.3, &mut rng),
        };
        let mut g = Graph::new();
        let (out, next) = actor.step(&mut g, &params, x.clone(), &state);
        let mut buf = ActorBuffers::new();
        actor.infer(&params, &x, &state.h, &state.c, &mut buf);
        assert_eq!(&buf.logits, g.value(out.logits));
        assert_eq!(&buf.message, g.value(out.message.unwrap()));
        assert_eq!(buf.h, next.h);
        assert_eq!(buf.c, next.c);
        // Steady state: repeating the same step allocates nothing.
        let after_first = buf.alloc_events();
        for _ in 0..10 {
            actor.infer(&params, &x, &state.h, &state.c, &mut buf);
        }
        assert_eq!(buf.alloc_events(), after_first);
    }

    #[test]
    fn critic_infer_is_bit_identical_to_graph_step() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = Params::new();
        let critic = CriticNet::new(&mut params, 12, 16, 16, &mut rng);
        let x = Tensor::randn(2, 12, 1.0, &mut rng);
        let state = LstmState {
            h: Tensor::randn(2, 16, 0.3, &mut rng),
            c: Tensor::randn(2, 16, 0.3, &mut rng),
        };
        let mut g = Graph::new();
        let (v, next) = critic.step(&mut g, &params, x.clone(), &state);
        let mut buf = CriticBuffers::new();
        critic.infer(&params, &x, &state.h, &state.c, &mut buf);
        assert_eq!(&buf.value, g.value(v));
        assert_eq!(buf.h, next.h);
        assert_eq!(buf.c, next.c);
        let after_first = buf.alloc_events();
        critic.infer(&params, &x, &state.h, &state.c, &mut buf);
        assert_eq!(buf.alloc_events(), after_first);
    }

    #[test]
    fn actor_and_critic_have_separate_parameters() {
        // Paper §V-A: completely separate networks.
        let mut rng = StdRng::seed_from_u64(4);
        let mut actor_params = Params::new();
        let _actor = ActorNet::new(&mut actor_params, 20, 1, 32, 32, 4, &mut rng);
        let mut critic_params = Params::new();
        let _critic = CriticNet::new(&mut critic_params, 36, 32, 32, &mut rng);
        assert!(actor_params.num_scalars() > 0);
        assert!(critic_params.num_scalars() > 0);
        // Separate Params sets: updating one cannot touch the other.
        assert_ne!(
            actor_params.num_scalars(),
            0,
            "actor owns its own parameters"
        );
    }
}
