//! Composable network cost graphs: sequences, parallel branches
//! (Inception-style modules with channel concatenation) and whole-network
//! cost reports.

use crate::ops::Op;
use crate::shape::Shape;

/// A node of a network cost graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A primitive operation.
    Op(Op),
    /// A sequential chain of nodes.
    Seq(Vec<Node>),
    /// Parallel branches whose image outputs are concatenated along the
    /// channel dimension (the Inception module pattern). All branches
    /// receive the same input and must produce outputs agreeing on the
    /// spatial dimensions.
    Branches(Vec<Node>),
    /// Residual addition (the ResNet pattern): all branches receive the
    /// same input and their outputs — which must have *identical* shapes —
    /// are summed elementwise. An empty-`Seq` branch is the identity
    /// shortcut.
    Residual(Vec<Node>),
}

impl Node {
    /// Output shape of this node for the given input.
    ///
    /// # Panics
    /// Panics on inconsistent branch outputs or ops applied to
    /// incompatible shapes.
    pub fn out_shape(&self, input: Shape) -> Shape {
        match self {
            Node::Op(op) => op.out_shape(input),
            Node::Seq(nodes) => nodes.iter().fold(input, |s, n| n.out_shape(s)),
            Node::Branches(branches) => {
                assert!(!branches.is_empty(), "Branches must not be empty");
                let outs: Vec<Shape> = branches.iter().map(|b| b.out_shape(input)).collect();
                let (h0, w0) = match outs[0] {
                    Shape::Image { h, w, .. } => (h, w),
                    // lint: allow(panic-free-lib): shape contract — a flat branch under Concat is a model-description bug, caught at build time
                    Shape::Flat(_) => panic!("branch outputs must be images to concatenate"),
                };
                let mut total_c = 0;
                for out in &outs {
                    match *out {
                        Shape::Image { h, w, c } => {
                            assert!(
                                h == h0 && w == w0,
                                "branch spatial dims disagree: {h}x{w} vs {h0}x{w0}"
                            );
                            total_c += c;
                        }
                        // lint: allow(panic-free-lib): shape contract — a flat branch under Concat is a model-description bug, caught at build time
                        Shape::Flat(_) => panic!("branch outputs must be images"),
                    }
                }
                Shape::Image {
                    h: h0,
                    w: w0,
                    c: total_c,
                }
            }
            Node::Residual(branches) => {
                assert!(!branches.is_empty(), "Residual must not be empty");
                let outs: Vec<Shape> = branches.iter().map(|b| b.out_shape(input)).collect();
                for out in &outs {
                    assert!(
                        *out == outs[0],
                        "residual branch shapes must match: {out} vs {}",
                        outs[0]
                    );
                }
                outs[0]
            }
        }
    }

    /// Trainable parameters of this node.
    pub fn params(&self, input: Shape) -> u64 {
        match self {
            Node::Op(op) => op.params(input),
            Node::Seq(nodes) => {
                let mut total = 0;
                let mut shape = input;
                for n in nodes {
                    total += n.params(shape);
                    shape = n.out_shape(shape);
                }
                total
            }
            Node::Branches(branches) | Node::Residual(branches) => {
                branches.iter().map(|b| b.params(input)).sum()
            }
        }
    }

    /// Forward multiply-add pairs for one example.
    pub fn forward_madds(&self, input: Shape) -> u64 {
        match self {
            Node::Op(op) => op.forward_madds(input),
            Node::Seq(nodes) => {
                let mut total = 0;
                let mut shape = input;
                for n in nodes {
                    total += n.forward_madds(shape);
                    shape = n.out_shape(shape);
                }
                total
            }
            Node::Branches(branches) => branches.iter().map(|b| b.forward_madds(input)).sum(),
            Node::Residual(branches) => {
                // Branch work plus one add per output element for the sum.
                let branch_madds: u64 = branches.iter().map(|b| b.forward_madds(input)).sum();
                let adds = self.out_shape(input).elements() as u64 * (branches.len() as u64 - 1);
                branch_madds + adds
            }
        }
    }
}

/// Residual-sum shorthand (identity shortcut = `seq([])`).
pub fn residual(nodes: impl IntoIterator<Item = Node>) -> Node {
    Node::Residual(nodes.into_iter().collect())
}

/// Sequential chain shorthand.
pub fn seq(nodes: impl IntoIterator<Item = Node>) -> Node {
    Node::Seq(nodes.into_iter().collect())
}

/// Parallel-branch (concat) shorthand.
pub fn branches(nodes: impl IntoIterator<Item = Node>) -> Node {
    Node::Branches(nodes.into_iter().collect())
}

impl From<Op> for Node {
    fn from(op: Op) -> Self {
        Node::Op(op)
    }
}

/// Builds a [`Node::Seq`] from primitive ops.
pub fn chain(ops: impl IntoIterator<Item = Op>) -> Node {
    Node::Seq(ops.into_iter().map(Node::Op).collect())
}

/// A complete network: an input shape plus a cost graph, with summary
/// accessors and a per-layer cost table.
#[derive(Debug, Clone)]
pub struct Network {
    /// Human-readable name (e.g. "mnist-fc", "inception-v3").
    pub name: String,
    /// Input shape of one example.
    pub input: Shape,
    /// The cost graph.
    pub graph: Node,
}

impl Network {
    /// Creates a network and validates the graph by propagating shapes
    /// through it once (panicking on inconsistencies).
    pub fn new(name: impl Into<String>, input: Shape, graph: Node) -> Self {
        let net = Self {
            name: name.into(),
            input,
            graph,
        };
        let _ = net.output(); // shape-checks the whole graph
        net
    }

    /// Output shape of the network.
    pub fn output(&self) -> Shape {
        self.graph.out_shape(self.input)
    }

    /// Total trainable parameters `W`.
    pub fn params(&self) -> u64 {
        self.graph.params(self.input)
    }

    /// Forward multiply-add pairs for one example.
    pub fn forward_madds(&self) -> u64 {
        self.graph.forward_madds(self.input)
    }

    /// Forward flops (2 per multiply-add).
    pub fn forward_flops(&self) -> u64 {
        2 * self.forward_madds()
    }

    /// Training multiply-adds per example: three passes (forward, error
    /// back-propagation, gradient computation).
    pub fn train_madds(&self) -> u64 {
        3 * self.forward_madds()
    }

    /// Training flops per example — the `6·W`-style cost used as `C` in the
    /// gradient-descent scalability model.
    pub fn train_flops(&self) -> u64 {
        2 * self.train_madds()
    }

    /// Per-top-level-node cost table (name, output shape, params, madds).
    pub fn cost_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>14} {:>16}",
            "layer", "output", "params", "fwd madds"
        );
        let mut shape = self.input;
        let rows: &[Node] = match &self.graph {
            Node::Seq(nodes) => nodes,
            other => std::slice::from_ref(other),
        };
        for (i, node) in rows.iter().enumerate() {
            let label = match node {
                Node::Op(op) => op.label(),
                Node::Seq(_) => format!("block-{i}"),
                Node::Branches(b) => format!("module-{i} ({} branches)", b.len()),
                Node::Residual(b) => format!("residual-{i} ({} branches)", b.len()),
            };
            let params = node.params(shape);
            let madds = node.forward_madds(shape);
            shape = node.out_shape(shape);
            let _ = writeln!(
                out,
                "{label:<24} {:>12} {params:>14} {madds:>16}",
                shape.to_string()
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>14} {:>16}",
            "TOTAL",
            self.output().to_string(),
            self.params(),
            self.forward_madds()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::dsl::*;
    use crate::shape::Padding;

    fn tiny_mlp() -> Network {
        Network::new(
            "tiny",
            Shape::Flat(4),
            chain([dense(8), sigmoid(), dense(2), softmax()]),
        )
    }

    #[test]
    fn seq_accumulates_params_and_madds() {
        let net = tiny_mlp();
        assert_eq!(net.params(), (4 * 8 + 8) + (8 * 2 + 2));
        // Dense madds plus one per activation element.
        assert_eq!(net.forward_madds(), 4 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(net.output(), Shape::Flat(2));
    }

    #[test]
    fn train_costs_are_multiples() {
        let net = tiny_mlp();
        assert_eq!(net.train_madds(), 3 * net.forward_madds());
        assert_eq!(net.train_flops(), 6 * net.forward_madds());
        assert_eq!(net.forward_flops(), 2 * net.forward_madds());
    }

    #[test]
    fn branches_concat_channels() {
        let module = branches([
            chain([conv(64, 1, 1, Padding::Same)]),
            chain([conv(48, 1, 1, Padding::Same), conv(64, 5, 1, Padding::Same)]),
            chain([avgpool(3, 1, Padding::Same), conv(32, 1, 1, Padding::Same)]),
        ]);
        let input = Shape::image(35, 35, 192);
        assert_eq!(module.out_shape(input), Shape::image(35, 35, 64 + 64 + 32));
        // Params sum over branches.
        let expected = 64 * 192 + (48 * 192 + 64 * 5 * 5 * 48) + 32 * 192;
        assert_eq!(module.params(input), expected as u64);
    }

    #[test]
    fn branch_madds_sum() {
        let input = Shape::image(8, 8, 16);
        let b1 = chain([conv(4, 1, 1, Padding::Same)]);
        let b2 = chain([conv(8, 3, 1, Padding::Same)]);
        let m1 = b1.forward_madds(input);
        let m2 = b2.forward_madds(input);
        let module = branches([b1, b2]);
        assert_eq!(module.forward_madds(input), m1 + m2);
    }

    #[test]
    #[should_panic(expected = "spatial dims disagree")]
    fn mismatched_branches_panic() {
        let module = branches([
            chain([conv(4, 3, 1, Padding::Same)]),
            chain([conv(4, 3, 2, Padding::Same)]),
        ]);
        let _ = module.out_shape(Shape::image(16, 16, 3));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_branches_panic() {
        let _ = branches([]).out_shape(Shape::Flat(1));
    }

    #[test]
    fn nested_seq_shapes_propagate() {
        let g = seq([
            chain([conv(8, 3, 2, Padding::Valid)]),
            chain([Op::GlobalAvgPool, Op::Flatten]),
            chain([dense(10)]),
        ]);
        let out = g.out_shape(Shape::image(33, 33, 3));
        assert_eq!(out, Shape::Flat(10));
    }

    #[test]
    fn cost_table_has_total_row() {
        let t = tiny_mlp().cost_table();
        assert!(t.contains("TOTAL"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    #[should_panic]
    fn invalid_network_fails_at_construction() {
        // Dense directly on an image input must panic inside Network::new.
        let _ = Network::new("bad", Shape::image(4, 4, 3), chain([dense(10)]));
    }
}
