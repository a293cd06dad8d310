//! Model zoo: the network configurations of the paper's Table I, plus the
//! classics (AlexNet, VGG-16, ResNet-50) that the `ext-zoo` exhibit sets
//! beside them.
//!
//! | Network (task) | Parameters | Computations (Table I) |
//! |---|---|---|
//! | Fully connected (MNIST) | `12·10⁶` | `24·10⁶` |
//! | Inception v3 (ImageNet) | `25·10⁶` | `5·10⁹` |
//!
//! Cost-convention note (see [`crate::ops`]): the paper's `24·10⁶` for the
//! fully-connected network counts multiply and add separately
//! (`2·W` = [`Network::forward_flops`]) while its `5·10⁹` for Inception v3
//! counts multiply-add pairs (`n·k²·d·c²` = [`Network::forward_madds`]).
//! Both accessors are provided; the Table I reproduction uses each row's
//! own convention, as the paper does.

use crate::network::{branches, chain, residual, seq, Network, Node};
use crate::ops::dsl::*;
use crate::ops::Op;
use crate::shape::{Padding, Shape};

/// The paper's fully-connected MNIST network: "five hidden layers (2500,
/// 2000, 1500, 1000, and 500 neurons), 784 inputs, and 10 outputs" — one of
/// the most accurate MNIST architectures (Cireșan et al. 2010).
///
/// `≈ 11.97·10⁶` weights (the paper's `12·10⁶`), `≈ 24·10⁶` forward flops.
pub fn mnist_fc() -> Network {
    Network::new(
        "mnist-fc",
        Shape::Flat(784),
        chain([
            dense(2500),
            sigmoid(),
            dense(2000),
            sigmoid(),
            dense(1500),
            sigmoid(),
            dense(1000),
            sigmoid(),
            dense(500),
            sigmoid(),
            dense(10),
            softmax(),
        ]),
    )
}

/// AlexNet (Krizhevsky et al. 2012) for 227×227×3 input — the network
/// that started the deep-learning-on-GPUs era; ≈61M parameters, most of
/// them in the fully-connected head, ≈0.7G forward multiply-adds. A
/// useful contrast to Inception v3 in the scalability model: far more
/// parameters (communication) per unit of computation.
pub fn alexnet() -> Network {
    Network::new(
        "alexnet",
        Shape::image(227, 227, 3),
        seq([
            chain([
                Op::Conv2d {
                    out_channels: 96,
                    kh: 11,
                    kw: 11,
                    stride: 4,
                    padding: Padding::Valid,
                    bias: false,
                },
                relu(),
                maxpool(3, 2, Padding::Valid),
            ]),
            chain([
                conv(256, 5, 1, Padding::Same),
                relu(),
                maxpool(3, 2, Padding::Valid),
            ]),
            chain([conv(384, 3, 1, Padding::Same), relu()]),
            chain([conv(384, 3, 1, Padding::Same), relu()]),
            chain([
                conv(256, 3, 1, Padding::Same),
                relu(),
                maxpool(3, 2, Padding::Valid),
            ]),
            chain([
                Op::Flatten,
                dense(4096),
                relu(),
                Op::Dropout,
                dense(4096),
                relu(),
                Op::Dropout,
                dense(1000),
                softmax(),
            ]),
        ]),
    )
}

/// VGG-16 (Simonyan & Zisserman 2014) for 224×224×3 input: ≈138M
/// parameters and ≈15.5G forward multiply-adds — the heavyweight end of
/// the era's architectures, stressing both axes of the scalability model.
pub fn vgg16() -> Network {
    let block = |channels: usize, convs: usize| {
        let mut ops = Vec::with_capacity(convs * 2 + 1);
        for _ in 0..convs {
            ops.push(conv(channels, 3, 1, Padding::Same));
            ops.push(relu());
        }
        ops.push(maxpool(2, 2, Padding::Valid));
        chain(ops)
    };
    Network::new(
        "vgg16",
        Shape::image(224, 224, 3),
        seq([
            block(64, 2),
            block(128, 2),
            block(256, 3),
            block(512, 3),
            block(512, 3),
            chain([
                Op::Flatten,
                dense(4096),
                relu(),
                Op::Dropout,
                dense(4096),
                relu(),
                Op::Dropout,
                dense(1000),
                softmax(),
            ]),
        ]),
    )
}

/// A ResNet bottleneck block: 1×1 reduce → 3×3 → 1×1 expand, summed with
/// the shortcut. When `stride > 1` or the channel count changes, the
/// shortcut is a projection (1×1 conv); otherwise it is the identity.
fn bottleneck(in_channels: usize, mid: usize, out: usize, stride: usize) -> Node {
    let main = chain([
        conv(mid, 1, 1, Padding::Same),
        relu(),
        conv(mid, 3, stride, Padding::Same),
        relu(),
        conv(out, 1, 1, Padding::Same),
    ]);
    let shortcut = if stride != 1 || in_channels != out {
        chain([conv(out, 1, stride, Padding::Same)])
    } else {
        seq([]) // identity
    };
    seq([residual([main, shortcut]), chain([relu()])])
}

/// A ResNet stage: one (possibly striding/projecting) bottleneck followed
/// by `blocks − 1` identity bottlenecks.
fn resnet_stage(in_channels: usize, mid: usize, out: usize, blocks: usize, stride: usize) -> Node {
    let mut nodes = Vec::with_capacity(blocks);
    nodes.push(bottleneck(in_channels, mid, out, stride));
    for _ in 1..blocks {
        nodes.push(bottleneck(out, mid, out, 1));
    }
    seq(nodes)
}

/// ResNet-50 (He et al. 2015) for 224×224×3 input: ≈25.5M parameters and
/// ≈3.9G forward multiply-adds — the residual-connection era, closing out
/// the zoo's architecture timeline.
pub fn resnet50() -> Network {
    Network::new(
        "resnet50",
        Shape::image(224, 224, 3),
        seq([
            // Stem: 7×7/2 conv, 3×3/2 pool → 56×56×64.
            chain([
                Op::Conv2d {
                    out_channels: 64,
                    kh: 7,
                    kw: 7,
                    stride: 2,
                    padding: Padding::Same,
                    bias: false,
                },
                relu(),
                maxpool(3, 2, Padding::Same),
            ]),
            resnet_stage(64, 64, 256, 3, 1),
            resnet_stage(256, 128, 512, 4, 2),
            resnet_stage(512, 256, 1024, 6, 2),
            resnet_stage(1024, 512, 2048, 3, 2),
            chain([Op::GlobalAvgPool, Op::Flatten, dense(1000), softmax()]),
        ]),
    )
}

/// One Inception-A module (35×35 grid): 1×1, 5×5, double-3×3 and pooled
/// branches concatenated to `64+64+96+pool_proj` channels.
fn inception_a(pool_proj: usize) -> Node {
    branches([
        chain([conv(64, 1, 1, Padding::Same)]),
        chain([conv(48, 1, 1, Padding::Same), conv(64, 5, 1, Padding::Same)]),
        chain([
            conv(64, 1, 1, Padding::Same),
            conv(96, 3, 1, Padding::Same),
            conv(96, 3, 1, Padding::Same),
        ]),
        chain([
            avgpool(3, 1, Padding::Same),
            conv(pool_proj, 1, 1, Padding::Same),
        ]),
    ])
}

/// Grid reduction 35×35 → 17×17 (the paper's "efficient grid size
/// reduction" module).
fn reduction_a() -> Node {
    branches([
        chain([conv(384, 3, 2, Padding::Valid)]),
        chain([
            conv(64, 1, 1, Padding::Same),
            conv(96, 3, 1, Padding::Same),
            conv(96, 3, 2, Padding::Valid),
        ]),
        chain([maxpool(3, 2, Padding::Valid)]),
    ])
}

/// One Inception-B module (17×17 grid) with factorised 1×7/7×1 kernels of
/// width `c7`.
fn inception_b(c7: usize) -> Node {
    branches([
        chain([conv(192, 1, 1, Padding::Same)]),
        chain([
            conv(c7, 1, 1, Padding::Same),
            conv_rect(c7, 1, 7, Padding::Same),
            conv_rect(192, 7, 1, Padding::Same),
        ]),
        chain([
            conv(c7, 1, 1, Padding::Same),
            conv_rect(c7, 7, 1, Padding::Same),
            conv_rect(c7, 1, 7, Padding::Same),
            conv_rect(c7, 7, 1, Padding::Same),
            conv_rect(192, 1, 7, Padding::Same),
        ]),
        chain([avgpool(3, 1, Padding::Same), conv(192, 1, 1, Padding::Same)]),
    ])
}

/// Grid reduction 17×17 → 8×8.
fn reduction_b() -> Node {
    branches([
        chain([
            conv(192, 1, 1, Padding::Same),
            conv(320, 3, 2, Padding::Valid),
        ]),
        chain([
            conv(192, 1, 1, Padding::Same),
            conv_rect(192, 1, 7, Padding::Same),
            conv_rect(192, 7, 1, Padding::Same),
            conv(192, 3, 2, Padding::Valid),
        ]),
        chain([maxpool(3, 2, Padding::Valid)]),
    ])
}

/// One Inception-C module (8×8 grid) with the expanded-filter-bank split
/// 1×3 / 3×1 branches.
fn inception_c() -> Node {
    branches([
        chain([conv(320, 1, 1, Padding::Same)]),
        seq([
            chain([conv(384, 1, 1, Padding::Same)]),
            branches([
                chain([conv_rect(384, 1, 3, Padding::Same)]),
                chain([conv_rect(384, 3, 1, Padding::Same)]),
            ]),
        ]),
        seq([
            chain([
                conv(448, 1, 1, Padding::Same),
                conv(384, 3, 1, Padding::Same),
            ]),
            branches([
                chain([conv_rect(384, 1, 3, Padding::Same)]),
                chain([conv_rect(384, 3, 1, Padding::Same)]),
            ]),
        ]),
        chain([avgpool(3, 1, Padding::Same), conv(192, 1, 1, Padding::Same)]),
    ])
}

/// Inception v3 (Szegedy et al., "Rethinking the Inception Architecture for
/// Computer Vision") for 299×299×3 ImageNet input, without the auxiliary
/// classifier: stem, 3× Inception-A, reduction, 4× Inception-B, reduction,
/// 2× Inception-C, global pooling and a 1000-way classifier.
///
/// Our exact counts — `≈ 23.6·10⁶` conv+fc weights and `≈ 5.7·10⁹` forward
/// multiply-adds — bracket the paper's rounded Table I values (`25·10⁶`
/// parameters, `5·10⁹` computations; the parameter figure in the paper
/// follows Chen et al.'s count, which includes auxiliary-head and
/// batch-norm parameters).
pub fn inception_v3() -> Network {
    Network::new(
        "inception-v3",
        Shape::image(299, 299, 3),
        seq([
            // Stem: 299×299×3 → 35×35×192.
            chain([
                conv(32, 3, 2, Padding::Valid),
                conv(32, 3, 1, Padding::Valid),
                conv(64, 3, 1, Padding::Same),
                maxpool(3, 2, Padding::Valid),
                conv(80, 1, 1, Padding::Valid),
                conv(192, 3, 1, Padding::Valid),
                maxpool(3, 2, Padding::Valid),
            ]),
            // 3 × Inception-A: 35×35×192 → 256 → 288 → 288.
            inception_a(32),
            inception_a(64),
            inception_a(64),
            // 35×35×288 → 17×17×768.
            reduction_a(),
            // 4 × Inception-B at 17×17×768.
            inception_b(128),
            inception_b(160),
            inception_b(160),
            inception_b(192),
            // 17×17×768 → 8×8×1280.
            reduction_b(),
            // 2 × Inception-C: 8×8×1280 → 2048 → 2048.
            inception_c(),
            inception_c(),
            // Classifier head.
            chain([
                Op::GlobalAvgPool,
                Op::Dropout,
                Op::Flatten,
                dense(1000),
                softmax(),
            ]),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_fc_matches_table_i_parameters() {
        // Paper Table I: 12·10⁶ parameters. Exact weight count
        // (with biases): 784·2500 + 2500·2000 + 2000·1500 + 1500·1000 +
        // 1000·500 + 500·10 + biases = 11,972,510.
        let net = mnist_fc();
        assert_eq!(net.params(), 11_972_510);
        assert!((net.params() as f64 - 12e6).abs() / 12e6 < 0.01);
    }

    #[test]
    fn mnist_fc_matches_table_i_computations() {
        // Paper Table I: 24·10⁶ computations for the forward pass
        // (2 ops per weight: multiply and add counted separately).
        let net = mnist_fc();
        let flops = net.forward_flops() as f64;
        assert!((flops - 24e6).abs() / 24e6 < 0.01, "got {flops:e}");
    }

    #[test]
    fn mnist_fc_training_cost_is_6w() {
        // "The computation time complexity … for fully-connected layers can
        // be estimated as 6·W."
        let net = mnist_fc();
        let w = net.params() as f64;
        let train = net.train_flops() as f64;
        assert!(
            (train - 6.0 * w).abs() / (6.0 * w) < 0.01,
            "train {train:e} vs 6W {:e}",
            6.0 * w
        );
    }

    #[test]
    fn mnist_fc_output_shape() {
        assert_eq!(mnist_fc().output(), Shape::Flat(10));
    }

    #[test]
    fn inception_v3_shapes_through_the_network() {
        let net = inception_v3();
        assert_eq!(net.output(), Shape::Flat(1000));
    }

    #[test]
    fn inception_v3_parameters_near_table_i() {
        // Paper Table I: 25·10⁶ parameters (Chen et al.'s count). Ours
        // counts conv + fc weights of the main tower: ≈ 23–24·10⁶.
        let net = inception_v3();
        let p = net.params() as f64;
        assert!(
            (22e6..26e6).contains(&p),
            "Inception v3 parameter count {p:e} out of Table I range"
        );
    }

    #[test]
    fn inception_v3_computations_near_table_i() {
        // Paper Table I: 5·10⁹ multiply-adds for the forward pass.
        let net = inception_v3();
        let m = net.forward_madds() as f64;
        assert!(
            (4.5e9..6.5e9).contains(&m),
            "Inception v3 forward madds {m:e} out of Table I range"
        );
    }

    #[test]
    fn inception_module_channel_arithmetic() {
        // A-modules: 64+64+96+proj.
        let a = inception_a(32);
        assert_eq!(
            a.out_shape(Shape::image(35, 35, 192)),
            Shape::image(35, 35, 256)
        );
        let a64 = inception_a(64);
        assert_eq!(
            a64.out_shape(Shape::image(35, 35, 256)),
            Shape::image(35, 35, 288)
        );
        // Reduction-A: 384 + 96 + 288.
        assert_eq!(
            reduction_a().out_shape(Shape::image(35, 35, 288)),
            Shape::image(17, 17, 768)
        );
        // B-modules keep 768.
        assert_eq!(
            inception_b(128).out_shape(Shape::image(17, 17, 768)),
            Shape::image(17, 17, 768)
        );
        // Reduction-B: 320 + 192 + 768 = 1280.
        assert_eq!(
            reduction_b().out_shape(Shape::image(17, 17, 768)),
            Shape::image(8, 8, 1280)
        );
        // C-modules: 320 + 768 + 768 + 192 = 2048.
        assert_eq!(
            inception_c().out_shape(Shape::image(8, 8, 1280)),
            Shape::image(8, 8, 2048)
        );
        assert_eq!(
            inception_c().out_shape(Shape::image(8, 8, 2048)),
            Shape::image(8, 8, 2048)
        );
    }

    #[test]
    fn alexnet_parameter_count_in_range() {
        // Literature: ≈ 61M parameters (single-tower variant), with the
        // dense head dominating.
        let net = alexnet();
        assert_eq!(net.output(), Shape::Flat(1000));
        let p = net.params() as f64;
        assert!((55e6..68e6).contains(&p), "AlexNet params {p:e}");
        // Forward madds ≈ 0.7G.
        let m = net.forward_madds() as f64;
        assert!((0.5e9..1.2e9).contains(&m), "AlexNet madds {m:e}");
    }

    #[test]
    fn vgg16_parameter_count_in_range() {
        // Literature: ≈ 138M parameters, ≈ 15.5G forward madds.
        let net = vgg16();
        assert_eq!(net.output(), Shape::Flat(1000));
        let p = net.params() as f64;
        assert!((130e6..145e6).contains(&p), "VGG-16 params {p:e}");
        let m = net.forward_madds() as f64;
        assert!((14e9..17e9).contains(&m), "VGG-16 madds {m:e}");
    }

    #[test]
    fn resnet50_counts_in_range() {
        // Literature: ≈ 25.5M params, ≈ 3.9G forward madds (stride-on-3x3
        // variant; the original stride-on-1x1 variant is a few % higher).
        let net = resnet50();
        assert_eq!(net.output(), Shape::Flat(1000));
        let p = net.params() as f64;
        assert!((23e6..28e6).contains(&p), "ResNet-50 params {p:e}");
        let m = net.forward_madds() as f64;
        assert!((3.2e9..5.0e9).contains(&m), "ResNet-50 madds {m:e}");
    }

    #[test]
    fn residual_identity_shortcut_is_free() {
        use crate::network::residual;
        let input = Shape::image(8, 8, 32);
        let main = chain([conv(32, 3, 1, Padding::Same)]);
        let main_params = main.params(input);
        let block = residual([main, seq([])]);
        assert_eq!(block.out_shape(input), input);
        assert_eq!(block.params(input), main_params, "identity adds no weights");
        // The sum itself costs one add per output element.
        let standalone = chain([conv(32, 3, 1, Padding::Same)]).forward_madds(input);
        assert_eq!(
            block.forward_madds(input),
            standalone + input.elements() as u64
        );
    }

    #[test]
    #[should_panic(expected = "branch shapes must match")]
    fn residual_shape_mismatch_panics() {
        use crate::network::residual;
        let block = residual([
            chain([conv(16, 3, 1, Padding::Same)]),
            chain([conv(32, 3, 1, Padding::Same)]),
        ]);
        let _ = block.out_shape(Shape::image(8, 8, 8));
    }

    #[test]
    fn params_per_madd_orders_architectures() {
        // The communication/computation ratio W/C that drives the
        // scalability model: AlexNet ≫ VGG-16 > Inception v3.
        let ratio = |net: &Network| net.params() as f64 / net.forward_madds() as f64;
        let a = ratio(&alexnet());
        let v = ratio(&vgg16());
        let i = ratio(&inception_v3());
        assert!(a > v, "AlexNet is parameter-heavy: {a:.4} vs {v:.4}");
        assert!(v > i, "VGG still denser than Inception: {v:.4} vs {i:.4}");
    }

    #[test]
    fn cost_table_renders_for_inception() {
        let t = inception_v3().cost_table();
        assert!(t.contains("TOTAL"));
        assert!(t.contains("module"));
    }
}
