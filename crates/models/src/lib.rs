//! Loss models with hand-written gradients.
//!
//! The paper's experiments use a **multinomial logistic regression** for
//! the convex task and a **two-layer CNN** (McMahan et al.'s architecture)
//! for the non-convex task; its System Model section also names linear
//! regression and SVM losses as examples. All of them are implemented here
//! against the [`LossModel`] trait, which exposes exactly what Algorithm 1
//! consumes: per-sample losses `f_i(w)` and gradients `∇f_i(w)` over a
//! flat parameter vector `w ∈ R^l`.
//!
//! Gradients are verified against central finite differences in each
//! model's tests (`gradcheck`).

// fedlint: allow(clippy-allow-sync) — crate-wide: model construction is R1-exempt; shape mismatches are programming errors caught at build time
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod cnn;
pub mod estimate;
pub mod gradcheck;
pub mod linreg;
pub mod logistic;
pub mod mlp;
pub mod svm;

use fedprox_data::Dataset;
use rayon::prelude::*;
use std::any::Any;

pub use cnn::{Cnn, CnnSpec};
pub use linreg::LinearRegression;
pub use logistic::MultinomialLogistic;
pub use mlp::Mlp;
pub use svm::SmoothedSvm;

/// Reusable workspace for repeated gradient evaluations.
///
/// The inner loop of Algorithm 1 evaluates `O(τ)` batch gradients per
/// local solve; without a workspace each evaluation allocates its chunk
/// accumulators and per-sample forward/backward buffers from scratch.
/// Callers that loop (the optim estimator, the local solver) hold one
/// `GradScratch` and pass it to [`LossModel::batch_grad_in`] /
/// [`LossModel::full_grad_in`], making the loop O(1) allocations.
///
/// The buffer-reusing paths are **bit-identical** to the allocating ones:
/// they run the same floating-point operations in the same order, only
/// the buffers' provenance changes (verified by the differential tests in
/// `crates/optim/tests/differential.rs` and the workspace-reuse tests).
#[derive(Default)]
pub struct GradScratch {
    /// Index buffer reused by full-gradient evaluations.
    all_indices: Vec<usize>,
    /// Per-chunk accumulator for the default chunked batch reduction.
    chunk_acc: Vec<f64>,
    /// Model-specific forward/backward workspace (downcast on use).
    model_ws: Option<Box<dyn Any + Send>>,
}

impl GradScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        GradScratch::default()
    }

    /// Borrow the model-specific workspace, (re)building it when absent,
    /// of a different type (scratch reused across models), or rejected by
    /// `valid` (e.g. sized for different model dimensions).
    pub fn model_ws<T, B, V>(&mut self, build: B, valid: V) -> &mut T
    where
        T: Any + Send,
        B: FnOnce() -> T,
        V: Fn(&T) -> bool,
    {
        let rebuild = match self.model_ws.as_ref().and_then(|b| b.downcast_ref::<T>()) {
            Some(ws) => !valid(ws),
            None => true,
        };
        if rebuild {
            self.model_ws = Some(Box::new(build()));
        }
        match self.model_ws.as_mut().and_then(|b| b.downcast_mut::<T>()) {
            Some(ws) => ws,
            // A value of type T was installed on the line above.
            None => unreachable!("GradScratch::model_ws: workspace just installed"),
        }
    }
}

impl std::fmt::Debug for GradScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GradScratch")
            .field("all_indices", &self.all_indices.len())
            .field("chunk_acc", &self.chunk_acc.len())
            .field("model_ws", &self.model_ws.is_some())
            .finish()
    }
}

/// Cloning yields a *fresh* scratch: the buffers are pure caches, and the
/// model workspace is not itself cloneable (`Box<dyn Any>`).
impl Clone for GradScratch {
    fn clone(&self) -> Self {
        GradScratch::new()
    }
}

// `Box<dyn Any>` is not structurally unwind-safe, but a scratch observed
// after a panic cannot leak broken invariants: every buffer is overwritten
// before use and `model_ws` is validated (and rebuilt if stale) on every
// access, so asserting unwind safety is sound. Without these impls no
// holder of a scratch (e.g. `Estimator`) could cross `catch_unwind`,
// which the numeric-guard tests rely on.
impl std::panic::UnwindSafe for GradScratch {}
impl std::panic::RefUnwindSafe for GradScratch {}

/// Default seed used by examples/tests when initialising model parameters.
pub const MODEL_SEED: u64 = 0xF3D;

/// Batch size above which batch gradients fan out across rayon.
const BATCH_PAR_THRESHOLD: usize = 32;

/// Fixed chunk size for parallel batch reductions (fixed so the
/// combination order — and therefore the floating-point result — does not
/// depend on thread scheduling).
const BATCH_CHUNK: usize = 32;

/// [`LossModel::batch_loss`]'s reduction of per-sample losses
/// `losses[j] = f_{indices[j]}(w)` to their mean: fixed chunks of 32
/// combined in order when there are at least 32, one running sum
/// otherwise (0 for no samples). Overrides that collect the losses some
/// other way (from a gradient pass, through one reused workspace) reduce
/// them here, so their result stays bitwise the default's.
pub fn mean_in_batch_loss_order(losses: &[f64]) -> f64 {
    if losses.is_empty() {
        return 0.0;
    }
    let sum: f64 = if losses.len() >= BATCH_PAR_THRESHOLD {
        losses.chunks(BATCH_CHUNK).map(|chunk| chunk.iter().sum::<f64>()).sum()
    } else {
        losses.iter().sum()
    };
    sum / losses.len() as f64
}

/// A differentiable finite-sum loss `F_n(w) = (1/D_n) Σ_i f_i(w)` over a
/// [`Dataset`], exposed per sample as Algorithm 1 requires.
///
/// Implementations must be `Send + Sync`: devices evaluate gradients in
/// parallel during a federated round.
pub trait LossModel: Send + Sync {
    /// Length of the flat parameter vector `l`.
    fn dim(&self) -> usize;

    /// Initialise a parameter vector from `seed` (deterministic).
    fn init_params(&self, seed: u64) -> Vec<f64>;

    /// Loss of sample `i`: `f_i(w)`.
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64;

    /// Gradient of sample `i` **accumulated** into `out` scaled by
    /// `scale`: `out += scale · ∇f_i(w)`. Accumulation lets batch and
    /// full gradients avoid temporary buffers.
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]);

    /// Prediction for a raw feature vector: class index (as `f64`) for
    /// classifiers, value for regressors.
    fn predict(&self, w: &[f64], x: &[f64]) -> f64;

    /// Mean loss over the samples at `indices`, reduced by
    /// [`mean_in_batch_loss_order`] in **fixed-size chunks combined in
    /// order**: floating-point addition is not associative, and rayon's
    /// adaptive `fold`/`reduce` splitting would make results depend on
    /// thread scheduling. Deterministic chunking keeps the sequential,
    /// event-driven and networked training backends bit-identical.
    fn batch_loss(&self, w: &[f64], data: &Dataset, indices: &[usize]) -> f64 {
        let losses: Vec<f64> = indices.iter().map(|&i| self.sample_loss(w, data, i)).collect();
        mean_in_batch_loss_order(&losses)
    }

    /// Mean gradient over the samples at `indices`, written into `out`
    /// (overwritten). Parallel over fixed chunks for large batches; the
    /// per-chunk partial gradients are summed in chunk order (see
    /// [`Self::batch_loss`] on why the order is pinned).
    fn batch_grad(&self, w: &[f64], data: &Dataset, indices: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), self.dim(), "batch_grad: out length");
        out.fill(0.0);
        if indices.is_empty() {
            return;
        }
        let scale = 1.0 / indices.len() as f64;
        if indices.len() >= BATCH_PAR_THRESHOLD {
            let partials: Vec<Vec<f64>> = indices
                .par_chunks(BATCH_CHUNK)
                .map(|chunk| {
                    let mut acc = vec![0.0; self.dim()];
                    for &i in chunk {
                        self.sample_grad_accum(w, data, i, scale, &mut acc);
                    }
                    acc
                })
                .collect();
            for p in &partials {
                fedprox_tensor::vecops::add_assign(out, p);
            }
        } else {
            for &i in indices {
                self.sample_grad_accum(w, data, i, scale, out);
            }
        }
    }

    /// Like [`Self::batch_grad`], but reusing buffers from `scratch` so a
    /// loop of evaluations does O(1) allocations. Must be bit-identical
    /// to `batch_grad` — same operations, same order; the default mirrors
    /// the chunked reduction with one reused chunk accumulator (the
    /// chunks are combined in index order either way).
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        assert_eq!(out.len(), self.dim(), "batch_grad_in: out length");
        out.fill(0.0);
        if indices.is_empty() {
            return;
        }
        let scale = 1.0 / indices.len() as f64;
        if indices.len() >= BATCH_PAR_THRESHOLD {
            scratch.chunk_acc.resize(self.dim(), 0.0);
            for chunk in indices.chunks(BATCH_CHUNK) {
                scratch.chunk_acc.fill(0.0);
                for &i in chunk {
                    self.sample_grad_accum(w, data, i, scale, &mut scratch.chunk_acc);
                }
                fedprox_tensor::vecops::add_assign(out, &scratch.chunk_acc);
            }
        } else {
            for &i in indices {
                self.sample_grad_accum(w, data, i, scale, out);
            }
        }
    }

    /// Like [`Self::full_grad`], but reusing `scratch` (index buffer and
    /// model workspace). Bit-identical to `full_grad`.
    fn full_grad_in(&self, w: &[f64], data: &Dataset, out: &mut [f64], scratch: &mut GradScratch) {
        // Take the index buffer out so `scratch` can be passed down.
        let mut idx = std::mem::take(&mut scratch.all_indices);
        idx.clear();
        idx.extend(0..data.len());
        self.batch_grad_in(w, data, &idx, out, scratch);
        scratch.all_indices = idx;
    }

    /// [`Self::full_loss`] and [`Self::full_grad_in`] in one call: writes
    /// the full gradient `∇F_n(w)` into `out` and returns `F_n(w)`, each
    /// bitwise as those two methods compute it. The default runs them one
    /// after the other. A model whose gradient pass already has every
    /// sample's loss in hand (the CNN and the logistic model read it off
    /// the forward pass's logits) overrides this to skip the second
    /// forward pass; the loss must still be reduced in
    /// [`Self::batch_loss`]'s order (see [`mean_in_batch_loss_order`]).
    fn full_loss_and_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) -> f64 {
        let loss = self.full_loss(w, data);
        self.full_grad_in(w, data, out, scratch);
        loss
    }

    /// Mean loss over the whole dataset: `F_n(w)`.
    fn full_loss(&self, w: &[f64], data: &Dataset) -> f64 {
        let idx: Vec<usize> = (0..data.len()).collect();
        self.batch_loss(w, data, &idx)
    }

    /// Full gradient `∇F_n(w)` into `out`.
    fn full_grad(&self, w: &[f64], data: &Dataset, out: &mut [f64]) {
        let idx: Vec<usize> = (0..data.len()).collect();
        self.batch_grad(w, data, &idx, out);
    }

    /// Classification accuracy over `data` (fraction of samples whose
    /// [`Self::predict`] matches the label). For regressors this compares
    /// rounded predictions and is rarely meaningful.
    fn accuracy(&self, w: &[f64], data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct: usize = if data.len() >= BATCH_PAR_THRESHOLD {
            (0..data.len())
                .into_par_iter()
                .filter(|&i| self.predict(w, data.x(i)) == data.y(i))
                .count()
        } else {
            (0..data.len()).filter(|&i| self.predict(w, data.x(i)) == data.y(i)).count()
        };
        correct as f64 / data.len() as f64
    }
}

/// Boxed models (e.g. `Box<dyn LossModel>` from a config file) are
/// themselves models.
impl<M: LossModel + ?Sized> LossModel for Box<M> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn init_params(&self, seed: u64) -> Vec<f64> {
        (**self).init_params(seed)
    }
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        (**self).sample_loss(w, data, i)
    }
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        (**self).sample_grad_accum(w, data, i, scale, out)
    }
    fn batch_grad(&self, w: &[f64], data: &Dataset, indices: &[usize], out: &mut [f64]) {
        (**self).batch_grad(w, data, indices, out)
    }
    fn batch_loss(&self, w: &[f64], data: &Dataset, indices: &[usize]) -> f64 {
        (**self).batch_loss(w, data, indices)
    }
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        (**self).batch_grad_in(w, data, indices, out, scratch)
    }
    fn full_grad_in(&self, w: &[f64], data: &Dataset, out: &mut [f64], scratch: &mut GradScratch) {
        (**self).full_grad_in(w, data, out, scratch)
    }
    fn full_loss_and_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) -> f64 {
        (**self).full_loss_and_grad_in(w, data, out, scratch)
    }
    fn accuracy(&self, w: &[f64], data: &Dataset) -> f64 {
        (**self).accuracy(w, data)
    }
    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        (**self).predict(w, x)
    }
}

/// Blanket impl so `&M` satisfies [`LossModel`] call sites that take
/// generics.
impl<M: LossModel + ?Sized> LossModel for &M {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn init_params(&self, seed: u64) -> Vec<f64> {
        (**self).init_params(seed)
    }
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        (**self).sample_loss(w, data, i)
    }
    fn batch_loss(&self, w: &[f64], data: &Dataset, indices: &[usize]) -> f64 {
        (**self).batch_loss(w, data, indices)
    }
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        (**self).sample_grad_accum(w, data, i, scale, out)
    }
    fn batch_grad(&self, w: &[f64], data: &Dataset, indices: &[usize], out: &mut [f64]) {
        (**self).batch_grad(w, data, indices, out)
    }
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        (**self).batch_grad_in(w, data, indices, out, scratch)
    }
    fn full_grad_in(&self, w: &[f64], data: &Dataset, out: &mut [f64], scratch: &mut GradScratch) {
        (**self).full_grad_in(w, data, out, scratch)
    }
    fn full_loss_and_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) -> f64 {
        (**self).full_loss_and_grad_in(w, data, out, scratch)
    }
    fn accuracy(&self, w: &[f64], data: &Dataset) -> f64 {
        (**self).accuracy(w, data)
    }
    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        (**self).predict(w, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_tensor::Matrix;

    /// Trivial quadratic model for exercising the provided methods:
    /// f_i(w) = ½‖w − x_i‖².
    struct Quad {
        dim: usize,
    }

    impl LossModel for Quad {
        fn dim(&self) -> usize {
            self.dim
        }
        fn init_params(&self, _seed: u64) -> Vec<f64> {
            vec![0.0; self.dim]
        }
        fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
            fedprox_tensor::vecops::dist_sq(w, data.x(i)) / 2.0
        }
        fn sample_grad_accum(
            &self,
            w: &[f64],
            data: &Dataset,
            i: usize,
            scale: f64,
            out: &mut [f64],
        ) {
            for ((o, &wv), &xv) in out.iter_mut().zip(w).zip(data.x(i)) {
                *o += scale * (wv - xv);
            }
        }
        fn predict(&self, _w: &[f64], _x: &[f64]) -> f64 {
            0.0
        }
    }

    fn toy_data(n: usize, dim: usize) -> Dataset {
        let mut f = Matrix::zeros(n, dim);
        for i in 0..n {
            for j in 0..dim {
                f.row_mut(i)[j] = (i * dim + j) as f64 * 0.1;
            }
        }
        Dataset::new(f, vec![0.0; n], 1)
    }

    #[test]
    fn batch_grad_is_mean_of_sample_grads() {
        let m = Quad { dim: 3 };
        let d = toy_data(5, 3);
        let w = vec![1.0, -1.0, 0.5];
        let idx = [0, 2, 4];
        let mut got = vec![0.0; 3];
        m.batch_grad(&w, &d, &idx, &mut got);
        let mut want = vec![0.0; 3];
        for &i in &idx {
            m.sample_grad_accum(&w, &d, i, 1.0 / 3.0, &mut want);
        }
        for (g, wv) in got.iter().zip(&want) {
            assert!((g - wv).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let m = Quad { dim: 4 };
        let d = toy_data(200, 4);
        let w = vec![0.3; 4];
        let big: Vec<usize> = (0..200).collect();
        let mut par = vec![0.0; 4];
        m.batch_grad(&w, &d, &big, &mut par);
        let mut seq = vec![0.0; 4];
        for &i in &big {
            m.sample_grad_accum(&w, &d, i, 1.0 / 200.0, &mut seq);
        }
        for (a, b) in par.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-10);
        }
        // Loss too.
        let lp = m.batch_loss(&w, &d, &big);
        let ls: f64 =
            big.iter().map(|&i| m.sample_loss(&w, &d, i)).sum::<f64>() / big.len() as f64;
        assert!((lp - ls).abs() < 1e-10);
    }

    #[test]
    fn empty_batch_is_zero() {
        let m = Quad { dim: 2 };
        let d = toy_data(3, 2);
        let mut g = vec![9.0; 2];
        m.batch_grad(&[0.0, 0.0], &d, &[], &mut g);
        assert_eq!(g, vec![0.0, 0.0]);
        assert_eq!(m.batch_loss(&[0.0, 0.0], &d, &[]), 0.0);
    }

    #[test]
    fn full_grad_zero_at_minimizer() {
        let m = Quad { dim: 2 };
        let d = toy_data(4, 2);
        // Minimizer of Σ½‖w−x_i‖² is the mean of x_i.
        let mean = fedprox_data::stats::feature_mean(&d);
        let mut g = vec![0.0; 2];
        m.full_grad(&mean, &d, &mut g);
        assert!(fedprox_tensor::vecops::norm(&g) < 1e-12);
    }
}
