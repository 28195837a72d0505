//! The message regularizer unit (Algorithm 1 line 16) and the partner
//! message channel.
//!
//! The actor's raw message output `m` is regularized before it crosses
//! the channel: `m̂ = Logistic(N(m, σ))` — Gaussian noise during
//! training (forcing the protocol to be robust and effectively
//! discretizing it, as in DIAL) followed by a logistic squash into
//! `(0, 1)`. At evaluation time σ = 0.
//!
//! [`MessageChannel`] models the physical channel the regularized
//! message crosses between paired intersections. In the fault-free case
//! it is a plain one-step mailbox (each agent reads the message its
//! partner published on the previous decision step, bit-identical to a
//! direct buffer swap). Under a [`CommsFault`] schedule it can drop,
//! delay, or corrupt deliveries deterministically — the controller-side
//! half of the chaos engine in `tsc_sim::chaos`.

use rand::Rng;
use tsc_sim::chaos::{chaos_uniform, fault_salt, CommsFault, CommsKind};

/// Applies the regularizer to a raw message vector.
///
/// With `sigma = 0` this is a plain logistic squash (evaluation mode).
pub fn regularize<R: Rng>(raw: &[f32], sigma: f32, rng: &mut R) -> Vec<f32> {
    let mut out = vec![0.0; raw.len()];
    regularize_into(raw, sigma, rng, &mut out);
    out
}

/// Applies the regularizer into a caller-owned slice (fully
/// overwritten), drawing exactly the same noise sequence as
/// [`regularize`] — the allocation-free variant used by the rollout
/// collection hot loop.
///
/// # Panics
///
/// Panics if `out.len() != raw.len()`.
pub fn regularize_into<R: Rng>(raw: &[f32], sigma: f32, rng: &mut R, out: &mut [f32]) {
    assert_eq!(out.len(), raw.len(), "regularize_into length");
    for (o, &m) in out.iter_mut().zip(raw) {
        *o = if sigma > 0.0 {
            m + gaussian(rng) * sigma
        } else {
            m
        };
    }
    tsc_nn::math::sigmoid_in_place(out);
}

/// The logistic function `1 / (1 + e^{-x})`: [`tsc_nn::math::sigmoid`],
/// the same bits as the batched squash in [`regularize_into`].
pub fn logistic(x: f32) -> f32 {
    tsc_nn::math::sigmoid(x)
}

fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    // Box–Muller.
    let u1: f32 = rng.gen::<f32>().max(1e-12);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Communication accounting for Table IV: bits transmitted per agent
/// per decision step given a message bandwidth (each message is one
/// 32-bit scalar).
pub fn bits_per_step(bandwidth: usize) -> usize {
    bandwidth * 32
}

/// What a receiver substitutes for a partner message that the channel
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MessageLossPolicy {
    /// Substitute the all-zero message (the channel's initial state).
    /// Conservative: a silent partner looks like an idle partner.
    #[default]
    ZeroFill,
    /// Hold the last message that *was* delivered to this receiver.
    /// Smooth: a short outage looks like a frozen partner.
    HoldLast,
}

/// A deterministic partner-message channel with optional scheduled
/// faults.
///
/// Agents `publish` their regularized messages once per decision step;
/// each receiver then asks the channel to `deliver_into` the message
/// from its partner. With no faults installed, delivery copies exactly
/// the bytes the sender published on the most recent `publish` — the
/// same values a plain double-buffer swap would read — so an empty
/// fault schedule is bit-identical to not having a channel at all.
///
/// Faults ([`CommsFault`], built via `ChaosPlan` in `tsc_sim::chaos`)
/// are applied in schedule order per delivery:
///
/// * `Delay { steps }` — read the message published `steps` publishes
///   ago (saturating at the channel's ring depth; older than history →
///   the zero message).
/// * `Drop { p }` — with hash-derived probability `p` the delivery is
///   lost and the receiver's [`MessageLossPolicy`] decides the
///   substitute. Decisions consume no RNG state and are keyed on
///   (fault, sender, receiver, step), so the same seed and schedule
///   always drop the same deliveries.
/// * `Corrupt { amp }` — add uniform noise in `[-amp, amp]` to each
///   element, clamped back into `[0, 1]` (messages are
///   post-regularizer).
#[derive(Debug, Clone)]
pub struct MessageChannel {
    num_agents: usize,
    bandwidth: usize,
    /// Ring of published message generations, flattened
    /// `[depth][agent][bandwidth]`. `head` indexes the most recent
    /// generation.
    ring: Vec<f32>,
    depth: usize,
    head: usize,
    /// Last successfully delivered message per receiver (for
    /// [`MessageLossPolicy::HoldLast`]).
    last_delivered: Vec<f32>,
    policy: MessageLossPolicy,
    faults: Vec<CommsFault>,
    seed: u64,
}

impl MessageChannel {
    /// Creates a fault-free channel for `num_agents` agents exchanging
    /// `bandwidth`-scalar messages. All buffers start at zero.
    pub fn new(num_agents: usize, bandwidth: usize, policy: MessageLossPolicy) -> Self {
        Self {
            num_agents,
            bandwidth,
            ring: vec![0.0; num_agents * bandwidth],
            depth: 1,
            head: 0,
            last_delivered: vec![0.0; num_agents * bandwidth],
            policy,
            faults: Vec::new(),
            seed: 0,
        }
    }

    /// Installs a fault schedule (replacing any previous one) and
    /// resets the channel. `seed` keys the hash-derived drop and
    /// corruption decisions. The ring is resized to hold enough
    /// history for the largest `Delay` in the schedule.
    pub fn set_faults(&mut self, faults: Vec<CommsFault>, seed: u64) {
        let max_delay = faults
            .iter()
            .map(|f| match f.kind {
                CommsKind::Delay { steps } => steps as usize,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        self.depth = 1 + max_delay;
        self.ring = vec![0.0; self.depth * self.num_agents * self.bandwidth];
        self.faults = faults;
        self.seed = seed;
        self.reset();
    }

    /// Clears all message history back to the all-zero initial state.
    /// The installed fault schedule is kept.
    pub fn reset(&mut self) {
        self.ring.iter_mut().for_each(|v| *v = 0.0);
        self.last_delivered.iter_mut().for_each(|v| *v = 0.0);
        self.head = 0;
    }

    /// Publishes one message per agent, starting a new generation.
    ///
    /// # Panics
    ///
    /// Panics if `messages` does not hold `num_agents` rows of
    /// `bandwidth` scalars each.
    pub fn publish(&mut self, messages: &[Vec<f32>]) {
        assert_eq!(messages.len(), self.num_agents, "publish agent count");
        self.head = (self.head + 1) % self.depth;
        let gen_base = self.head * self.num_agents * self.bandwidth;
        for (a, msg) in messages.iter().enumerate() {
            assert_eq!(msg.len(), self.bandwidth, "publish bandwidth");
            let base = gen_base + a * self.bandwidth;
            self.ring[base..base + self.bandwidth].copy_from_slice(msg);
        }
    }

    /// The message `agent` published in the most recent generation
    /// (zeros before the first publish) — what a fault-free receiver
    /// would read.
    pub fn latest(&self, agent: usize) -> &[f32] {
        let base = (self.head * self.num_agents + agent) * self.bandwidth;
        &self.ring[base..base + self.bandwidth]
    }

    /// Delivers the message from `sender` to `receiver` at decision
    /// step `time`, writing the post-fault result into `out`. Returns
    /// `true` if the delivery was dropped (in which case `out` holds
    /// the loss-policy substitute).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != bandwidth`.
    pub fn deliver_into(
        &mut self,
        receiver: usize,
        sender: usize,
        time: u32,
        out: &mut [f32],
    ) -> bool {
        assert_eq!(out.len(), self.bandwidth, "deliver_into bandwidth");
        let mut delay = 0usize;
        let mut dropped = false;
        let mut corrupt: Option<(usize, f64)> = None;
        for (fi, fault) in self.faults.iter().enumerate() {
            if !fault.window.contains(time) || !fault.receivers.matches(receiver) {
                continue;
            }
            match fault.kind {
                CommsKind::Delay { steps } => delay = (steps as usize).min(self.depth - 1),
                CommsKind::Drop { p } => {
                    // Fold the sender into the salt so each directed
                    // edge draws an independent decision stream.
                    let salt = fault_salt(self.seed, fi)
                        ^ (sender as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    if chaos_uniform(salt, time, receiver) < p {
                        dropped = true;
                    }
                }
                CommsKind::Corrupt { amp } => corrupt = Some((fi, amp)),
            }
        }
        if dropped {
            match self.policy {
                MessageLossPolicy::ZeroFill => out.iter_mut().for_each(|v| *v = 0.0),
                MessageLossPolicy::HoldLast => {
                    let base = receiver * self.bandwidth;
                    out.copy_from_slice(&self.last_delivered[base..base + self.bandwidth]);
                }
            }
            return true;
        }
        let slot = (self.head + self.depth - delay) % self.depth;
        let base = (slot * self.num_agents + sender) * self.bandwidth;
        out.copy_from_slice(&self.ring[base..base + self.bandwidth]);
        if let Some((fi, amp)) = corrupt {
            let salt = fault_salt(self.seed, fi);
            for (j, v) in out.iter_mut().enumerate() {
                let u = chaos_uniform(salt, time, receiver * self.bandwidth + j);
                *v = (*v as f64 + amp * (2.0 * u - 1.0)).clamp(0.0, 1.0) as f32;
            }
        }
        let base = receiver * self.bandwidth;
        self.last_delivered[base..base + self.bandwidth].copy_from_slice(out);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(0);
        let raw = [-100.0f32, -1.0, 0.0, 1.0, 100.0];
        for _ in 0..50 {
            for &v in &regularize(&raw, 0.5, &mut rng) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn zero_sigma_is_deterministic_logistic() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = regularize(&[0.0, 2.0], 0.0, &mut rng);
        assert_eq!(out[0], 0.5);
        assert!((out[1] - logistic(2.0)).abs() < 1e-7);
    }

    #[test]
    fn noise_perturbs_but_preserves_order_on_average() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 2000;
        let mut lo_sum = 0.0;
        let mut hi_sum = 0.0;
        for _ in 0..n {
            let out = regularize(&[-1.0, 1.0], 0.3, &mut rng);
            lo_sum += out[0];
            hi_sum += out[1];
        }
        assert!(hi_sum / n as f32 > lo_sum / n as f32 + 0.2);
    }

    #[test]
    fn table_iv_bit_accounting() {
        assert_eq!(bits_per_step(1), 32, "PairUpLight: one 32-bit message");
        assert_eq!(bits_per_step(2), 64);
        assert_eq!(bits_per_step(0), 0);
    }

    mod channel {
        use super::super::*;
        use tsc_sim::chaos::{AgentSel, ChaosPlan, Window};

        fn publish_round(ch: &mut MessageChannel, base: f32) {
            let msgs: Vec<Vec<f32>> = (0..2).map(|a| vec![base + a as f32 * 0.1]).collect();
            ch.publish(&msgs);
        }

        #[test]
        fn fault_free_delivery_matches_latest() {
            let mut ch = MessageChannel::new(2, 1, MessageLossPolicy::ZeroFill);
            let mut out = [9.0f32];
            assert!(!ch.deliver_into(0, 1, 0, &mut out));
            assert_eq!(out[0], 0.0, "pre-publish state is the zero message");
            publish_round(&mut ch, 0.5);
            assert!(!ch.deliver_into(0, 1, 1, &mut out));
            assert_eq!(out[0].to_bits(), ch.latest(1)[0].to_bits());
            assert_eq!(out[0], 0.6);
        }

        #[test]
        fn full_drop_applies_loss_policy() {
            // Drop everything from step 2 on; step 1 delivers clean so
            // HoldLast has a last-known-good message to fall back on.
            let plan = ChaosPlan::default().message_drop(Window::new(2, 100), AgentSel::All, 1.0);
            for (policy, expect_after_drop) in [
                (MessageLossPolicy::ZeroFill, 0.0f32),
                (MessageLossPolicy::HoldLast, 0.6),
            ] {
                let mut ch = MessageChannel::new(2, 1, policy);
                ch.set_faults(plan.comms().to_vec(), 7);
                publish_round(&mut ch, 0.5);
                let mut out = [0.0f32];
                assert!(!ch.deliver_into(0, 1, 1, &mut out), "outside the window");
                assert_eq!(out[0], 0.6);
                assert!(ch.deliver_into(0, 1, 2, &mut out), "p=1.0 always drops");
                assert_eq!(out[0], expect_after_drop);
            }
        }

        #[test]
        fn delay_reads_older_generation() {
            let plan = ChaosPlan::default().message_delay(Window::always(), AgentSel::All, 2);
            let mut ch = MessageChannel::new(2, 1, MessageLossPolicy::ZeroFill);
            ch.set_faults(plan.comms().to_vec(), 0);
            let mut out = [0.0f32];
            publish_round(&mut ch, 0.1); // gen 1
            publish_round(&mut ch, 0.2); // gen 2
            publish_round(&mut ch, 0.3); // gen 3
            assert!(!ch.deliver_into(0, 1, 3, &mut out));
            assert_eq!(out[0], 0.2, "delayed by 2 generations: 0.1 + 0.1 offset");
            assert_eq!(ch.latest(1)[0], 0.4, "latest is unaffected by delay");
        }

        #[test]
        fn corrupt_stays_in_unit_interval_and_is_deterministic() {
            let plan = ChaosPlan::default().message_corrupt(Window::always(), AgentSel::All, 0.5);
            let mut ch = MessageChannel::new(2, 1, MessageLossPolicy::ZeroFill);
            ch.set_faults(plan.comms().to_vec(), 11);
            publish_round(&mut ch, 0.5);
            let mut a = [0.0f32];
            let mut b = [0.0f32];
            assert!(!ch.deliver_into(0, 1, 4, &mut a));
            assert!(!ch.deliver_into(0, 1, 4, &mut b));
            assert_eq!(a[0].to_bits(), b[0].to_bits(), "hash-keyed, not stateful");
            assert!((0.0..=1.0).contains(&a[0]));
            assert_ne!(a[0], 0.6, "amp 0.5 at this key perturbs the value");
        }

        #[test]
        fn drop_decisions_differ_per_edge() {
            let plan = ChaosPlan::default().message_drop(Window::always(), AgentSel::All, 0.5);
            let mut ch = MessageChannel::new(8, 1, MessageLossPolicy::ZeroFill);
            ch.set_faults(plan.comms().to_vec(), 3);
            let msgs: Vec<Vec<f32>> = (0..8).map(|_| vec![1.0]).collect();
            ch.publish(&msgs);
            let mut out = [0.0f32];
            let mut drops = 0;
            for t in 0..64u32 {
                for r in 0..8 {
                    if ch.deliver_into(r, (r + 1) % 8, t, &mut out) {
                        drops += 1;
                    }
                }
            }
            assert!((150..350).contains(&drops), "p=0.5 over 512 draws: {drops}");
        }
    }
}
