//! # tsc-nn — minimal neural networks with exact reverse-mode autograd
//!
//! The neural substrate of the PairUpLight reproduction: dense tensors
//! ([`tensor`]), a tape autograd ([`graph`]) covering exactly the op set
//! PPO/A2C/DQN over MLP+LSTM networks require, layers ([`layers`]),
//! orthogonal initialization ([`init`], Algorithm 1 line 2 of the
//! paper), Adam ([`optim`]), and owned, batched `tanh`, `exp` and
//! sigmoid ([`math`]).
//!
//! Every gradient rule is validated by finite-difference checks in the
//! module tests.
//!
//! ## Quickstart
//!
//! ```
//! use tsc_nn::{Adam, Graph, Init, Linear, Params, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let layer = Linear::new(&mut params, "fc", 2, 1, Init::Orthogonal { gain: 1.0 }, &mut rng);
//! let mut opt = Adam::new(&params, 1e-2);
//! // One gradient step towards y = 1 for input [1, 0].
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_rows(&[&[1.0, 0.0]]));
//! let y = layer.forward(&mut g, &params, x);
//! let target = g.input(Tensor::from_rows(&[&[1.0]]));
//! let d = g.sub(y, target);
//! let sq = g.square(d);
//! let loss = g.mean(sq);
//! g.backward(loss, &mut params);
//! opt.step(&mut params);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod graph;
pub mod init;
pub mod io;
pub mod layers;
pub mod math;
pub mod optim;
pub mod params;
mod simd;
pub mod tensor;

pub use graph::{softmax_rows, softmax_rows_into, Graph, Var};
pub use init::{orthogonal, Init};
pub use io::{load_adam, load_params, save_adam, save_params, LoadError};
pub use layers::{Linear, LstmCell, LstmScratch, LstmState};
pub use optim::Adam;
pub use params::{ParamId, Params};
pub use tensor::Tensor;
