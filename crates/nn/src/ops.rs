//! Primitive layer operations and their parameter / computation costs.
//!
//! Cost conventions (see the crate docs for the paper's mixed usage):
//!
//! * `forward_madds` counts **multiply-add pairs**: a dense layer with
//!   weight matrix `n×m` costs `n·m`; a convolutional layer costs
//!   `n_f·(k_h·k_w·d)·(c_h·c_w)` — the paper's `n·(k·k·d·c·c)`.
//! * `forward_flops = 2 · forward_madds` (multiply and add counted
//!   separately — the convention behind the paper's `2·n_i·m_i` per dense
//!   layer and the `6·W` training cost).
//! * Training (forward + error back-propagation + gradient computation)
//!   costs three passes: `train_madds = 3 · forward_madds`.

use crate::shape::{conv_out, Padding, Shape};

/// Elementwise activation function kinds (cost: one op per element, no
/// parameters — negligible next to the matrix work, but tracked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Softmax over the feature dimension.
    Softmax,
}

/// Pooling flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// A primitive network operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Fully-connected layer `in → out` with optional bias.
    Dense {
        /// Output width.
        out: usize,
        /// Whether a bias vector is used.
        bias: bool,
    },
    /// 2-D convolution with `out_channels` feature maps of size
    /// `kh × kw` over the input depth.
    Conv2d {
        /// Number of feature maps (`n` in the paper's formula).
        out_channels: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Stride (same in both dimensions).
        stride: usize,
        /// Padding convention.
        padding: Padding,
        /// Whether per-channel bias is used ("bias … is not commonly used
        /// for convolutional layers" — default false in the builders).
        bias: bool,
    },
    /// Spatial pooling window.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window side.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding convention.
        padding: Padding,
    },
    /// Global average pooling: collapses `h × w × c` to `1 × 1 × c`.
    GlobalAvgPool,
    /// Elementwise activation.
    Act(Activation),
    /// Flattens an image shape into a vector.
    Flatten,
    /// Dropout — no parameters, no inference cost (identity at cost level).
    Dropout,
}

impl Op {
    /// Output shape of the op applied to `input`.
    ///
    /// # Panics
    /// Panics when the op cannot accept the input shape (dense on image
    /// input must be explicitly flattened first; conv/pool need image
    /// input) — architecture bugs should fail loudly at build time.
    pub fn out_shape(&self, input: Shape) -> Shape {
        match *self {
            Op::Dense { out, .. } => match input {
                Shape::Flat(_) => Shape::Flat(out),
                Shape::Image { .. } => {
                    // lint: allow(panic-free-lib): shape contract — out_shape panics on malformed network descriptions at build time, before any evaluation
                    panic!("Dense requires a flat input; insert Op::Flatten before it")
                }
            },
            Op::Conv2d {
                out_channels,
                kh,
                kw,
                stride,
                padding,
                ..
            } => match input {
                Shape::Image { h, w, .. } => Shape::Image {
                    h: conv_out(h, kh, padding, stride),
                    w: conv_out(w, kw, padding, stride),
                    c: out_channels,
                },
                // lint: allow(panic-free-lib): shape contract — out_shape panics on malformed network descriptions at build time, before any evaluation
                Shape::Flat(_) => panic!("Conv2d requires an image input"),
            },
            Op::Pool {
                k, stride, padding, ..
            } => match input {
                Shape::Image { h, w, c } => Shape::Image {
                    h: conv_out(h, k, padding, stride),
                    w: conv_out(w, k, padding, stride),
                    c,
                },
                // lint: allow(panic-free-lib): shape contract — out_shape panics on malformed network descriptions at build time, before any evaluation
                Shape::Flat(_) => panic!("Pool requires an image input"),
            },
            Op::GlobalAvgPool => match input {
                Shape::Image { c, .. } => Shape::Image { h: 1, w: 1, c },
                // lint: allow(panic-free-lib): shape contract — out_shape panics on malformed network descriptions at build time, before any evaluation
                Shape::Flat(_) => panic!("GlobalAvgPool requires an image input"),
            },
            Op::Act(_) | Op::Dropout => input,
            Op::Flatten => input.flattened(),
        }
    }

    /// Number of trainable parameters.
    pub fn params(&self, input: Shape) -> u64 {
        match *self {
            Op::Dense { out, bias } => {
                let inp = input.elements() as u64;
                inp * out as u64 + if bias { out as u64 } else { 0 }
            }
            Op::Conv2d {
                out_channels,
                kh,
                kw,
                bias,
                ..
            } => {
                // lint: allow(panic-free-lib): out_shape has already rejected flat inputs to Conv2d, so channels() is Some
                let d = input.channels().expect("Conv2d requires an image input") as u64;
                // Paper: weights of a convolutional layer = n·(k·k·d);
                // optional bias adds one constant per output element of a
                // feature map (the paper's `c·c` term, "not commonly used").
                let weights = out_channels as u64 * (kh as u64 * kw as u64 * d);
                if bias {
                    let out = self.out_shape(input);
                    let (ch, cw) = match out {
                        Shape::Image { h, w, .. } => (h as u64, w as u64),
                        // lint: allow(panic-free-lib): the Conv2d arm of out_shape always returns Shape::Image
                        Shape::Flat(_) => unreachable!(),
                    };
                    weights + ch * cw
                } else {
                    weights
                }
            }
            Op::Pool { .. } | Op::GlobalAvgPool | Op::Act(_) | Op::Flatten | Op::Dropout => 0,
        }
    }

    /// Forward multiply-add pairs for one example.
    pub fn forward_madds(&self, input: Shape) -> u64 {
        match *self {
            Op::Dense { out, .. } => input.elements() as u64 * out as u64,
            Op::Conv2d {
                out_channels,
                kh,
                kw,
                ..
            } => {
                // lint: allow(panic-free-lib): out_shape has already rejected flat inputs to Conv2d, so channels() is Some
                let d = input.channels().expect("Conv2d requires an image input") as u64;
                let out = self.out_shape(input);
                let (ch, cw) = match out {
                    Shape::Image { h, w, .. } => (h as u64, w as u64),
                    // lint: allow(panic-free-lib): the Conv2d/Pool arms of out_shape always return Shape::Image
                    Shape::Flat(_) => unreachable!(),
                };
                // Paper: n·(k·k·d·c·c), generalised to rectangular kernels.
                out_channels as u64 * kh as u64 * kw as u64 * d * ch * cw
            }
            // One op per output element for pooling/activation; counted as
            // madd-equivalents (they are additions/comparisons).
            Op::Pool { k, .. } => {
                let out = self.out_shape(input).elements() as u64;
                out * (k as u64 * k as u64)
            }
            Op::GlobalAvgPool => input.elements() as u64,
            Op::Act(_) => input.elements() as u64,
            Op::Flatten | Op::Dropout => 0,
        }
    }

    /// Forward floating-point operations (2 per multiply-add pair).
    pub fn forward_flops(&self, input: Shape) -> u64 {
        2 * self.forward_madds(input)
    }

    /// Training multiply-adds: forward + backward + gradient ≈ 3 passes.
    pub fn train_madds(&self, input: Shape) -> u64 {
        3 * self.forward_madds(input)
    }

    /// Short label used in cost tables.
    pub fn label(&self) -> String {
        match *self {
            Op::Dense { out, .. } => format!("dense({out})"),
            Op::Conv2d {
                out_channels,
                kh,
                kw,
                stride,
                padding,
                ..
            } => format!(
                "conv{kh}x{kw}/{stride}{} ({out_channels})",
                match padding {
                    Padding::Valid => "v",
                    Padding::Same => "s",
                }
            ),
            Op::Pool {
                kind, k, stride, ..
            } => format!(
                "{}pool{k}x{k}/{stride}",
                match kind {
                    PoolKind::Max => "max",
                    PoolKind::Avg => "avg",
                }
            ),
            Op::GlobalAvgPool => "gavgpool".to_string(),
            Op::Act(a) => format!("{a:?}").to_lowercase(),
            Op::Flatten => "flatten".to_string(),
            Op::Dropout => "dropout".to_string(),
        }
    }
}

/// Builder shorthands used heavily by the model zoo.
pub mod dsl {
    use super::*;

    /// Dense layer with bias.
    pub fn dense(out: usize) -> Op {
        Op::Dense { out, bias: true }
    }

    /// Square convolution without bias (the common case: batch-norm nets).
    pub fn conv(out_channels: usize, k: usize, stride: usize, padding: Padding) -> Op {
        Op::Conv2d {
            out_channels,
            kh: k,
            kw: k,
            stride,
            padding,
            bias: false,
        }
    }

    /// Rectangular convolution (the factorised 1×7 / 7×1 Inception kernels).
    pub fn conv_rect(out_channels: usize, kh: usize, kw: usize, padding: Padding) -> Op {
        Op::Conv2d {
            out_channels,
            kh,
            kw,
            stride: 1,
            padding,
            bias: false,
        }
    }

    /// Max pooling.
    pub fn maxpool(k: usize, stride: usize, padding: Padding) -> Op {
        Op::Pool {
            kind: PoolKind::Max,
            k,
            stride,
            padding,
        }
    }

    /// Average pooling.
    pub fn avgpool(k: usize, stride: usize, padding: Padding) -> Op {
        Op::Pool {
            kind: PoolKind::Avg,
            k,
            stride,
            padding,
        }
    }

    /// Sigmoid activation.
    pub fn sigmoid() -> Op {
        Op::Act(Activation::Sigmoid)
    }

    /// ReLU activation.
    pub fn relu() -> Op {
        Op::Act(Activation::Relu)
    }

    /// Softmax activation.
    pub fn softmax() -> Op {
        Op::Act(Activation::Softmax)
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;

    #[test]
    fn dense_params_and_madds() {
        let op = dense(2500);
        let input = Shape::Flat(784);
        assert_eq!(op.params(input), 784 * 2500 + 2500);
        assert_eq!(op.forward_madds(input), 784 * 2500);
        assert_eq!(op.forward_flops(input), 2 * 784 * 2500);
        assert_eq!(op.train_madds(input), 3 * 784 * 2500);
        assert_eq!(op.out_shape(input), Shape::Flat(2500));
        let no_bias = Op::Dense {
            out: 2500,
            bias: false,
        };
        assert_eq!(no_bias.params(input), 784 * 2500);
    }

    #[test]
    fn conv_cost_matches_paper_formula() {
        // Paper: madds = n·(k·k·d·c·c); weights = n·k·k·d.
        let op = conv(32, 3, 2, Padding::Valid);
        let input = Shape::image(299, 299, 3);
        let c = 149u64; // (299-3)/2+1
        assert_eq!(op.out_shape(input), Shape::image(149, 149, 32));
        assert_eq!(op.forward_madds(input), 32 * 3 * 3 * 3 * c * c);
        assert_eq!(op.params(input), 32 * 3 * 3 * 3);
    }

    #[test]
    fn conv_bias_adds_cxc_per_paper() {
        // Paper: "Bias (the number of weights is c·c)".
        let op = Op::Conv2d {
            out_channels: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: Padding::Valid,
            bias: true,
        };
        let input = Shape::image(10, 10, 4);
        let c = 8u64;
        assert_eq!(op.params(input), 8 * 3 * 3 * 4 + c * c);
    }

    #[test]
    fn rect_conv_factorisation_cheaper_than_square() {
        // 1x7 then 7x1 vs a full 7x7: factorisation should cost ~2/7.
        let input = Shape::image(17, 17, 192);
        let square = conv(192, 7, 1, Padding::Same).forward_madds(input);
        let f1 = conv_rect(192, 1, 7, Padding::Same);
        let mid = f1.out_shape(input);
        let factored =
            f1.forward_madds(input) + conv_rect(192, 7, 1, Padding::Same).forward_madds(mid);
        assert!(
            factored * 3 < square,
            "factored {factored} vs square {square}"
        );
    }

    #[test]
    fn pool_preserves_channels() {
        let op = maxpool(3, 2, Padding::Valid);
        assert_eq!(
            op.out_shape(Shape::image(147, 147, 64)),
            Shape::image(73, 73, 64)
        );
        assert_eq!(op.params(Shape::image(147, 147, 64)), 0);
    }

    #[test]
    fn global_avg_pool_collapses_spatial() {
        assert_eq!(
            Op::GlobalAvgPool.out_shape(Shape::image(8, 8, 2048)),
            Shape::image(1, 1, 2048)
        );
    }

    #[test]
    fn activation_identity_shape_zero_params() {
        let input = Shape::Flat(100);
        assert_eq!(sigmoid().out_shape(input), input);
        assert_eq!(sigmoid().params(input), 0);
        assert_eq!(sigmoid().forward_madds(input), 100);
    }

    #[test]
    fn flatten_and_dropout_free() {
        let input = Shape::image(1, 1, 2048);
        assert_eq!(Op::Flatten.out_shape(input), Shape::Flat(2048));
        assert_eq!(Op::Flatten.forward_madds(input), 0);
        assert_eq!(Op::Dropout.forward_madds(input), 0);
    }

    #[test]
    #[should_panic(expected = "flat input")]
    fn dense_on_image_panics() {
        let _ = dense(10).out_shape(Shape::image(2, 2, 3));
    }

    #[test]
    #[should_panic(expected = "image input")]
    fn conv_on_flat_panics() {
        let _ = conv(8, 3, 1, Padding::Valid).out_shape(Shape::Flat(100));
    }

    #[test]
    fn labels_render() {
        assert_eq!(dense(10).label(), "dense(10)");
        assert_eq!(conv(32, 3, 2, Padding::Valid).label(), "conv3x3/2v (32)");
        assert_eq!(maxpool(3, 2, Padding::Valid).label(), "maxpool3x3/2");
    }
}
