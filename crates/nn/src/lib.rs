//! # mlscale-nn — neural-network substrate for scalability modeling
//!
//! Everything the paper's deep-learning experiments need from a neural
//! network, built from scratch:
//!
//! * [`shape`] — tensor shapes and the paper's convolution output-size
//!   formula `c = (l − k + b)/s + 1`;
//! * [`ops`] — primitive layers with parameter counts and multiply-add
//!   costs (the paper's `2·n_i·m_i` dense and `n·(k·k·d·c·c)` conv
//!   formulas);
//! * [`network`] — composable cost graphs with Inception-style parallel
//!   branches and per-layer cost tables;
//! * [`zoo`] — the Table I configurations ([`zoo::mnist_fc`],
//!   [`zoo::inception_v3`]) plus the classics of the `ext-zoo` exhibit;
//! * [`tensor`] / [`train`] — a real, runnable mini-MLP trainer proving the
//!   modelled data-parallel gradient-descent schedule corresponds to an
//!   actual computation (sharded gradients == single-node batch update).
//!
//! ```
//! use mlscale_nn::zoo;
//! let net = zoo::mnist_fc();
//! assert_eq!(net.params(), 11_972_510);          // Table I: 12·10⁶
//! let flops = net.forward_flops() as f64;
//! assert!((flops - 24e6).abs() / 24e6 < 0.01);   // Table I: 24·10⁶
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod network;
pub mod ops;
pub mod shape;
pub mod tensor;
pub mod train;
pub mod zoo;

pub use network::{Network, Node};
pub use ops::{Activation, Op, PoolKind};
pub use shape::{Padding, Shape};
