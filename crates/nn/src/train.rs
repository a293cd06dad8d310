//! A runnable mini neural-network trainer: dense layers with sigmoid hidden
//! activations, a softmax cross-entropy head, batch gradient descent and a
//! data-parallel gradient helper.
//!
//! The scalability models in `mlscale-core` only need *cost counts*, but a
//! model of a computation is only credible if the computation exists. This
//! module implements the exact training loop the paper's Fig 2 experiment
//! models — forward pass, error back-propagation, gradient computation,
//! parameter update — so the tests can verify that (a) gradients are
//! correct (finite-difference check), (b) training reduces the loss, and
//! (c) data-parallel gradient averaging over `n` shards produces the same
//! update as single-node batch gradient descent, which is the premise of
//! the data-parallel speedup model.

use crate::tensor::Matrix;
use rand::Rng;

/// One dense layer with weights, bias, and sigmoid activation (except the
/// final layer, which feeds a softmax head).
#[derive(Debug, Clone)]
struct DenseLayer {
    w: Matrix,
    b: Vec<f32>,
}

/// A feed-forward network: sigmoid hidden layers and a softmax
/// cross-entropy output, trained with (mini-)batch gradient descent.
#[derive(Debug, Clone)]
pub struct MlpTrainer {
    layers: Vec<DenseLayer>,
    sizes: Vec<usize>,
}

/// Gradients for every layer, in layer order: `(dW, db)` pairs.
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<(Matrix, Vec<f32>)>,
    /// Number of examples these gradients were accumulated over.
    pub examples: usize,
}

impl Gradients {
    /// Sums another gradient set into this one (gradient aggregation on the
    /// master node of the data-parallel scheme).
    pub fn accumulate(&mut self, other: &Gradients) {
        assert_eq!(self.grads.len(), other.grads.len(), "layer count mismatch");
        for ((dw, db), (ow, ob)) in self.grads.iter_mut().zip(&other.grads) {
            dw.axpy(1.0, ow);
            for (a, &b) in db.iter_mut().zip(ob) {
                *a += b;
            }
        }
        self.examples += other.examples;
    }

    /// Total number of parameter gradients (equals the model's `W`).
    pub fn param_count(&self) -> usize {
        self.grads
            .iter()
            .map(|(w, b)| w.rows() * w.cols() + b.len())
            .sum()
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl MlpTrainer {
    /// Builds a trainer with the given layer sizes, e.g. `[784, 64, 10]`.
    ///
    /// # Panics
    /// Panics when fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| {
                let scale = (1.0 / w[0] as f32).sqrt();
                DenseLayer {
                    w: Matrix::random(w[0], w[1], scale, rng),
                    b: vec![0.0; w[1]],
                }
            })
            .collect();
        Self {
            layers,
            sizes: sizes.to_vec(),
        }
    }

    /// Layer sizes this trainer was built with.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Forward pass: returns per-layer activations, the last being softmax
    /// probabilities. `x` is `batch × input`.
    fn forward(&self, x: &Matrix) -> Vec<Matrix> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for (i, layer) in self.layers.iter().enumerate() {
            // lint: allow(panic-free-lib): acts starts with the input activation, so last() is always Some
            let mut z = acts.last().unwrap().matmul(&layer.w);
            z.add_row_broadcast(&layer.b);
            if i + 1 == self.layers.len() {
                z.softmax_rows_inplace();
            } else {
                z.map_inplace(sigmoid);
            }
            acts.push(z);
        }
        acts
    }

    /// Predicted class probabilities for a batch.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        self.forward(x)
            .pop()
            // lint: allow(panic-free-lib): forward returns layers + 1 activations, never an empty vec
            .expect("forward always returns activations")
    }

    /// Mean cross-entropy loss of predictions against one-hot `labels`.
    pub fn loss(&self, x: &Matrix, labels: &Matrix) -> f32 {
        let probs = self.predict(x);
        assert_eq!((probs.rows(), probs.cols()), (labels.rows(), labels.cols()));
        let mut total = 0.0;
        for r in 0..probs.rows() {
            for c in 0..probs.cols() {
                let y = labels.get(r, c);
                if y > 0.0 {
                    total -= y * probs.get(r, c).max(1e-12).ln();
                }
            }
        }
        total / probs.rows() as f32
    }

    /// Classification accuracy against one-hot labels.
    pub fn accuracy(&self, x: &Matrix, labels: &Matrix) -> f32 {
        let probs = self.predict(x);
        let mut correct = 0;
        for r in 0..probs.rows() {
            let pred = (0..probs.cols())
                .max_by(|&a, &b| probs.get(r, a).total_cmp(&probs.get(r, b)))
                // lint: allow(panic-free-lib): the output layer has at least one unit, so the argmax range is non-empty
                .unwrap();
            let truth = (0..labels.cols())
                .max_by(|&a, &b| labels.get(r, a).total_cmp(&labels.get(r, b)))
                // lint: allow(panic-free-lib): one-hot labels have at least one column, so the argmax range is non-empty
                .unwrap();
            if pred == truth {
                correct += 1;
            }
        }
        correct as f32 / probs.rows() as f32
    }

    /// Computes summed (not averaged) gradients over the batch via
    /// back-propagation: forward pass, output delta `p − y`, error
    /// back-propagation through each layer — the three passes behind the
    /// `6·W` cost estimate.
    pub fn gradients(&self, x: &Matrix, labels: &Matrix) -> Gradients {
        let acts = self.forward(x);
        let batch = x.rows();
        let mut grads: Vec<(Matrix, Vec<f32>)> = Vec::with_capacity(self.layers.len());

        // delta = softmax(z) − y  (cross-entropy + softmax shortcut).
        // lint: allow(panic-free-lib): acts holds layers + 1 activations, so last() is always Some
        let mut delta = acts.last().unwrap().clone();
        delta.axpy(-1.0, labels);

        for i in (0..self.layers.len()).rev() {
            let a_prev = &acts[i];
            // dW = a_prevᵀ · delta ; db = column sums of delta.
            let dw = a_prev.t_matmul(&delta);
            let db = delta.col_sums();
            if i > 0 {
                // delta_prev = (delta · Wᵀ) ⊙ a_prev ⊙ (1 − a_prev).
                let mut d_prev = delta.matmul_t(&self.layers[i].w);
                let mut gate = a_prev.clone();
                gate.map_inplace(|v| v * (1.0 - v));
                d_prev.hadamard_inplace(&gate);
                delta = d_prev;
            }
            grads.push((dw, db));
        }
        grads.reverse();
        Gradients {
            grads,
            examples: batch,
        }
    }

    /// Applies averaged gradients with learning rate `lr`.
    pub fn apply(&mut self, grads: &Gradients, lr: f32) {
        assert!(grads.examples > 0, "gradients cover no examples");
        let scale = -lr / grads.examples as f32;
        for (layer, (dw, db)) in self.layers.iter_mut().zip(&grads.grads) {
            layer.w.axpy(scale, dw);
            for (b, &g) in layer.b.iter_mut().zip(db) {
                *b += scale * g;
            }
        }
    }

    /// One batch-gradient-descent step on the full batch; returns the loss
    /// before the update.
    pub fn train_step(&mut self, x: &Matrix, labels: &Matrix, lr: f32) -> f32 {
        let loss = self.loss(x, labels);
        let grads = self.gradients(x, labels);
        self.apply(&grads, lr);
        loss
    }

    /// Data-parallel batch gradient descent step: the batch is split into
    /// `workers` contiguous shards, each shard's gradient is computed
    /// independently (in a real deployment, on its own node), the master
    /// accumulates them, and the averaged update is applied — the exact
    /// schedule the paper's gradient-descent model prices.
    ///
    /// Returns the loss before the update.
    pub fn train_step_data_parallel(
        &mut self,
        x: &Matrix,
        labels: &Matrix,
        workers: usize,
        lr: f32,
    ) -> f32 {
        assert!(workers >= 1);
        let loss = self.loss(x, labels);
        let mut total: Option<Gradients> = None;
        for (xs, ys) in shard_rows(x, labels, workers) {
            let g = self.gradients(&xs, &ys);
            match &mut total {
                None => total = Some(g),
                Some(t) => t.accumulate(&g),
            }
        }
        // lint: allow(panic-free-lib): shards is non-empty (one shard per worker, workers >= 1), so at least one gradient accumulates
        let total = total.expect("at least one shard");
        self.apply(&total, lr);
        loss
    }
}

/// Splits paired example/label matrices into `workers` contiguous row
/// shards (the last shard takes the remainder). Empty shards are skipped —
/// matching a scheduler that never launches zero-work tasks.
pub fn shard_rows(x: &Matrix, y: &Matrix, workers: usize) -> Vec<(Matrix, Matrix)> {
    assert_eq!(x.rows(), y.rows(), "example/label row mismatch");
    assert!(workers >= 1);
    let rows = x.rows();
    let base = rows / workers;
    let rem = rows % workers;
    let mut shards = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        if len == 0 {
            continue;
        }
        let xs = slice_rows(x, start, len);
        let ys = slice_rows(y, start, len);
        shards.push((xs, ys));
        start += len;
    }
    shards
}

fn slice_rows(m: &Matrix, start: usize, len: usize) -> Matrix {
    let cols = m.cols();
    let data = m.data()[start * cols..(start + len) * cols].to_vec();
    Matrix::from_vec(len, cols, data)
}

/// Generates a linearly-separable synthetic classification problem:
/// `classes` Gaussian-ish blobs in `features` dimensions with one-hot
/// labels. Deterministic given the RNG.
pub fn synthetic_blobs<R: Rng + ?Sized>(
    examples: usize,
    features: usize,
    classes: usize,
    rng: &mut R,
) -> (Matrix, Matrix) {
    assert!(classes >= 2 && features >= 1 && examples >= classes);
    let mut x = Matrix::zeros(examples, features);
    let mut y = Matrix::zeros(examples, classes);
    // Fixed, well-separated blob centres on coordinate axes.
    for i in 0..examples {
        let class = i % classes;
        for f in 0..features {
            let centre = if f % classes == class { 2.0 } else { -0.5 };
            x.set(i, f, centre + rng.gen_range(-0.4f32..0.4));
        }
        y.set(i, class, 1.0);
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn param_count_matches_formula() {
        let t = MlpTrainer::new(&[784, 64, 10], &mut rng());
        assert_eq!(t.param_count(), 784 * 64 + 64 + 64 * 10 + 10);
    }

    #[test]
    fn predictions_are_probability_rows() {
        let t = MlpTrainer::new(&[4, 8, 3], &mut rng());
        let (x, _) = synthetic_blobs(6, 4, 3, &mut rng());
        let p = t.predict(&x);
        for r in 0..p.rows() {
            let s: f32 = (0..p.cols()).map(|c| p.get(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn finite_difference_gradient_check() {
        // Perturb a handful of weights and compare the analytic gradient to
        // (L(w+eps) − L(w−eps)) / (2·eps).
        let mut r = rng();
        let t = MlpTrainer::new(&[3, 5, 2], &mut r);
        let (x, y) = synthetic_blobs(8, 3, 2, &mut r);
        let grads = t.gradients(&x, &y);
        let batch = x.rows() as f32;
        let eps = 1e-3f32;
        for (layer_idx, weight_idx) in [(0usize, 0usize), (0, 7), (1, 3), (1, 9)] {
            let analytic = grads.grads[layer_idx].0.data()[weight_idx] / batch;
            let mut plus = t.clone();
            plus.layers[layer_idx].w.data_mut()[weight_idx] += eps;
            let mut minus = t.clone();
            minus.layers[layer_idx].w.data_mut()[weight_idx] -= eps;
            let numeric = (plus.loss(&x, &y) - minus.loss(&x, &y)) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "layer {layer_idx} weight {weight_idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut r = rng();
        let mut t = MlpTrainer::new(&[6, 16, 3], &mut r);
        let (x, y) = synthetic_blobs(90, 6, 3, &mut r);
        let initial = t.loss(&x, &y);
        for _ in 0..150 {
            t.train_step(&x, &y, 0.5);
        }
        let final_loss = t.loss(&x, &y);
        assert!(final_loss < initial * 0.5, "loss {initial} → {final_loss}");
        assert!(t.accuracy(&x, &y) > 0.95, "accuracy {}", t.accuracy(&x, &y));
    }

    #[test]
    fn data_parallel_update_equals_single_node() {
        // The core premise of the data-parallel speedup model: sharded
        // gradient averaging is numerically the same computation.
        let mut r = rng();
        let (x, y) = synthetic_blobs(24, 5, 3, &mut r);
        let reference = MlpTrainer::new(&[5, 8, 3], &mut r);
        for workers in [1usize, 2, 3, 5, 8, 24] {
            let mut single = reference.clone();
            let mut parallel = reference.clone();
            single.train_step(&x, &y, 0.3);
            parallel.train_step_data_parallel(&x, &y, workers, 0.3);
            for (ls, lp) in single.layers.iter().zip(&parallel.layers) {
                for (a, b) in ls.w.data().iter().zip(lp.w.data()) {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "workers={workers}: weights diverged ({a} vs {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn more_workers_than_examples_is_fine() {
        let mut r = rng();
        let (x, y) = synthetic_blobs(4, 3, 2, &mut r);
        let mut t = MlpTrainer::new(&[3, 4, 2], &mut r);
        // 7 workers, 4 examples: three shards empty, skipped.
        let _ = t.train_step_data_parallel(&x, &y, 7, 0.1);
    }

    #[test]
    fn shard_rows_covers_everything_once() {
        let mut r = rng();
        let (x, y) = synthetic_blobs(10, 2, 2, &mut r);
        let shards = shard_rows(&x, &y, 3);
        let total: usize = shards.iter().map(|(xs, _)| xs.rows()).sum();
        assert_eq!(total, 10);
        // Row contents preserved in order.
        let mut row = 0;
        for (xs, _) in &shards {
            for rr in 0..xs.rows() {
                for c in 0..xs.cols() {
                    assert_eq!(xs.get(rr, c), x.get(row, c));
                }
                row += 1;
            }
        }
    }

    #[test]
    fn gradient_param_count_matches_trainer() {
        let mut r = rng();
        let t = MlpTrainer::new(&[4, 6, 2], &mut r);
        let (x, y) = synthetic_blobs(4, 4, 2, &mut r);
        assert_eq!(t.gradients(&x, &y).param_count(), t.param_count());
    }

    #[test]
    fn accumulate_sums_examples() {
        let mut r = rng();
        let t = MlpTrainer::new(&[4, 6, 2], &mut r);
        let (x, y) = synthetic_blobs(8, 4, 2, &mut r);
        let mut g1 = t.gradients(&x, &y);
        let g2 = t.gradients(&x, &y);
        g1.accumulate(&g2);
        assert_eq!(g1.examples, 16);
    }
}
