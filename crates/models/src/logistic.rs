//! Multinomial logistic regression — the paper's convex model
//! (used on Synthetic, MNIST and Fashion-MNIST with 100 devices).
//!
//! Parameters are a `classes x features` weight matrix plus a bias vector,
//! flattened row-major as `[W; b]`. The per-sample loss is cross-entropy
//! over the softmax of the logits, optionally with an L2 term.

use crate::{mean_in_batch_loss_order, GradScratch, LossModel};
use fedprox_data::Dataset;
use fedprox_tensor::activations::{cross_entropy_from_logits, cross_entropy_grad_from_logits};
use fedprox_tensor::{kernel, vecops};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Multinomial (softmax) logistic regression.
#[derive(Debug, Clone)]
pub struct MultinomialLogistic {
    features: usize,
    classes: usize,
    /// L2 penalty coefficient (applied to weights only, not biases).
    pub l2: f64,
}

impl MultinomialLogistic {
    /// Model over `features` inputs and `classes` outputs.
    pub fn new(features: usize, classes: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        MultinomialLogistic { features, classes, l2: 0.0 }
    }

    /// Add L2 regularisation on the weights.
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0);
        self.l2 = l2;
        self
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of input features.
    pub fn features(&self) -> usize {
        self.features
    }

    #[inline]
    fn weights_len(&self) -> usize {
        self.classes * self.features
    }

    /// Conservative smoothness bound for the per-sample softmax
    /// cross-entropy over `data`: the Hessian of CE w.r.t. the logits is
    /// bounded by ½·I, so `L ≤ max_i (‖x_i‖² + 1) / 2 + l2` (the +1 covers
    /// the bias coordinate). Used by the experiment harness to set the
    /// paper's step size η = 1/(βL) from data rather than by hand.
    pub fn smoothness_bound(&self, data: &Dataset) -> f64 {
        let mut max_sq = 0.0f64;
        for i in 0..data.len() {
            max_sq = max_sq.max(vecops::norm_sq(data.x(i)));
        }
        (max_sq + 1.0) / 2.0 + self.l2
    }

    /// Compute the logits `W x + b` into `out` (len = classes).
    pub fn logits(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(w.len(), self.dim());
        debug_assert_eq!(x.len(), self.features);
        debug_assert_eq!(out.len(), self.classes);
        let wl = self.weights_len();
        kernel::matvec_into(&w[..wl], self.classes, self.features, x, out);
        for (o, &b) in out.iter_mut().zip(&w[wl..]) {
            *o += b;
        }
    }

    /// Core of [`LossModel::sample_grad_accum`] with caller-held buffers
    /// (`logits`/`dlogits`, len = classes). Runs the exact operations of
    /// the allocating path in the same order — only buffer provenance
    /// differs.
    #[allow(clippy::too_many_arguments)]
    fn grad_into(
        &self,
        w: &[f64],
        x: &[f64],
        class: usize,
        scale: f64,
        out: &mut [f64],
        logits: &mut [f64],
        dlogits: &mut [f64],
    ) {
        self.logits(w, x, logits);
        cross_entropy_grad_from_logits(logits, class, dlogits);
        let wl = self.weights_len();
        let (dw, db) = out.split_at_mut(wl);
        for c in 0..self.classes {
            let g = scale * dlogits[c];
            if g != 0.0 {
                vecops::axpy(g, x, &mut dw[c * self.features..(c + 1) * self.features]);
            }
            db[c] += g;
        }
        if self.l2 > 0.0 {
            vecops::axpy(scale * self.l2, &w[..wl], dw);
        }
    }
}

/// Reusable forward/backward buffers for [`MultinomialLogistic`].
struct LogisticWs {
    /// Logits of one chunk of samples, `chunk × classes`.
    logits: Vec<f64>,
    /// One sample's `softmax − e_class`.
    dlogits: Vec<f64>,
    /// Scaled logit gradients of one chunk, `chunk × classes`.
    coeffs: Vec<f64>,
    /// Packing scratch of the gathered matvec.
    panel: Vec<f64>,
    /// Chunk accumulator for the fixed-chunk batch reduction.
    acc: Vec<f64>,
    /// Per-sample losses of the fused loss-and-gradient pass.
    losses: Vec<f64>,
}

impl LogisticWs {
    fn new(classes: usize, dim: usize) -> Self {
        let chunk = crate::BATCH_CHUNK * classes;
        LogisticWs {
            logits: Vec::with_capacity(chunk),
            dlogits: vec![0.0; classes],
            coeffs: Vec::with_capacity(chunk),
            panel: Vec::new(),
            acc: vec![0.0; dim],
            losses: Vec::new(),
        }
    }
}

impl MultinomialLogistic {
    /// The scratch-resident workspace, rebuilt when sized for another
    /// shape.
    fn scratch_ws<'s>(&self, scratch: &'s mut GradScratch) -> &'s mut LogisticWs {
        let (classes, dim) = (self.classes, self.dim());
        scratch.model_ws::<LogisticWs, _, _>(
            || LogisticWs::new(classes, dim),
            |ws| ws.dlogits.len() == classes && ws.acc.len() == dim,
        )
    }

    /// `sample_loss`'s L2 term: the same value for every sample.
    fn l2_loss_term(&self, w: &[f64]) -> Option<f64> {
        (self.l2 > 0.0).then(|| self.l2 / 2.0 * vecops::norm_sq(&w[..self.weights_len()]))
    }

    /// The logits `W x_i + b` of the samples `rows` (a chunk of at most
    /// 32) into `logits`, `classes` per sample in order: one gathered
    /// matvec over the chunk, then the biases — bitwise [`Self::logits`]
    /// per sample.
    fn chunk_logits(
        &self,
        w: &[f64],
        data: &Dataset,
        rows: &[usize],
        logits: &mut Vec<f64>,
        panel: &mut Vec<f64>,
    ) {
        let wl = self.weights_len();
        logits.resize(rows.len() * self.classes, 0.0);
        let x = data.features().as_slice();
        kernel::gather_matvec_into(&w[..wl], self.classes, self.features, x, rows, logits, panel);
        for lg in logits.chunks_exact_mut(self.classes) {
            for (o, &b) in lg.iter_mut().zip(&w[wl..]) {
                *o += b;
            }
        }
    }

    /// `into = scale · Σ_{i ∈ rows} ∇f_i(w)` (overwritten) for one chunk
    /// of samples: chunk logits, a softmax per sample (its loss pushed
    /// to `losses` in order, with `reg` added), then one gathered rank
    /// product that writes `dW` and carries each sample's L2 share. Every
    /// element of `into` takes the samples' terms in index order from
    /// 0.0 — bitwise [`Self::grad_into`] per sample into a zeroed `into`.
    #[allow(clippy::too_many_arguments)]
    fn grad_chunk(
        &self,
        w: &[f64],
        data: &Dataset,
        rows: &[usize],
        scale: f64,
        into: &mut [f64],
        ws: &mut LogisticWs,
        mut losses: Option<&mut Vec<f64>>,
        reg: Option<f64>,
    ) {
        let (classes, wl) = (self.classes, self.weights_len());
        self.chunk_logits(w, data, rows, &mut ws.logits, &mut ws.panel);
        ws.coeffs.resize(rows.len() * classes, 0.0);
        let (dw, db) = into.split_at_mut(wl);
        db.fill(0.0);
        let samples = rows.iter().zip(ws.logits.chunks_exact(classes));
        for ((&i, lg), gs) in samples.zip(ws.coeffs.chunks_exact_mut(classes)) {
            cross_entropy_grad_from_logits(lg, data.class_of(i), &mut ws.dlogits);
            if let Some(l) = losses.as_deref_mut() {
                let ce = cross_entropy_from_logits(lg, data.class_of(i));
                l.push(reg.map_or(ce, |r| ce + r));
            }
            for ((g, &dl), b) in gs.iter_mut().zip(&ws.dlogits).zip(db.iter_mut()) {
                *g = scale * dl;
                *b += *g;
            }
        }
        let decay = (self.l2 > 0.0).then(|| (scale * self.l2, &w[..wl]));
        let x = data.features().as_slice();
        kernel::gather_rank_update(dw, classes, self.features, x, rows, &ws.coeffs, decay);
    }

    /// The mean gradient over `indices` into `out` (overwritten), in
    /// fixed chunks combined in order once there are enough samples.
    /// With `losses`, each sample's loss is computed from the logits the
    /// gradient step uses and pushed in index order.
    fn grad_pass(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        ws: &mut LogisticWs,
        mut losses: Option<&mut Vec<f64>>,
    ) {
        if indices.is_empty() {
            out.fill(0.0);
            return;
        }
        let scale = 1.0 / indices.len() as f64;
        let reg = self.l2_loss_term(w);
        if indices.len() >= crate::BATCH_PAR_THRESHOLD {
            out.fill(0.0);
            let mut acc = std::mem::take(&mut ws.acc);
            for chunk in indices.chunks(crate::BATCH_CHUNK) {
                self.grad_chunk(w, data, chunk, scale, &mut acc, ws, losses.as_deref_mut(), reg);
                vecops::add_assign(out, &acc);
            }
            ws.acc = acc;
        } else {
            self.grad_chunk(w, data, indices, scale, out, ws, losses, reg);
        }
    }

    /// Index of the largest logit (the first on ties).
    fn argmax(logits: &[f64]) -> usize {
        let mut best = 0;
        for (c, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = c;
            }
        }
        best
    }
}

impl LossModel for MultinomialLogistic {
    fn dim(&self) -> usize {
        self.classes * (self.features + 1)
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = vec![0.0; self.dim()];
        let wl = self.weights_len();
        fedprox_tensor::init::xavier_uniform(&mut rng, &mut w[..wl], self.features, self.classes);
        // Biases start at zero.
        w
    }

    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        let mut logits = vec![0.0; self.classes];
        self.logits(w, data.x(i), &mut logits);
        let ce = cross_entropy_from_logits(&logits, data.class_of(i));
        self.l2_loss_term(w).map_or(ce, |r| ce + r)
    }

    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        let mut logits = vec![0.0; self.classes];
        let mut dlogits = vec![0.0; self.classes];
        self.grad_into(w, data.x(i), data.class_of(i), scale, out, &mut logits, &mut dlogits);
    }

    /// Chunks of 32 samples' logits, each one gathered matvec; the
    /// losses reduce as the default's do.
    fn batch_loss(&self, w: &[f64], data: &Dataset, indices: &[usize]) -> f64 {
        let reg = self.l2_loss_term(w);
        let mut losses = Vec::with_capacity(indices.len());
        let mut logits = Vec::new();
        let mut panel = Vec::new();
        for chunk in indices.chunks(crate::BATCH_CHUNK) {
            self.chunk_logits(w, data, chunk, &mut logits, &mut panel);
            for (&i, lg) in chunk.iter().zip(logits.chunks_exact(self.classes)) {
                let ce = cross_entropy_from_logits(lg, data.class_of(i));
                losses.push(reg.map_or(ce, |r| ce + r));
            }
        }
        mean_in_batch_loss_order(&losses)
    }

    /// [`Self::batch_grad_in`] with a fresh scratch.
    fn batch_grad(&self, w: &[f64], data: &Dataset, indices: &[usize], out: &mut [f64]) {
        self.batch_grad_in(w, data, indices, out, &mut GradScratch::new());
    }

    /// Chunks of 32 samples, each one gathered matvec for the logits and
    /// one gathered rank product for `dW`: the weights are streamed once
    /// per chunk rather than once per sample, and every element keeps
    /// the per-sample order (bitwise the `sample_grad_accum` sum).
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        assert_eq!(out.len(), self.dim(), "batch_grad_in: out length");
        let ws = self.scratch_ws(scratch);
        self.grad_pass(w, data, indices, out, ws, None);
    }

    /// One logits evaluation per sample serves both results.
    fn full_loss_and_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) -> f64 {
        assert_eq!(out.len(), self.dim(), "full_loss_and_grad_in: out length");
        let mut idx = std::mem::take(&mut scratch.all_indices);
        idx.clear();
        idx.extend(0..data.len());
        let ws = self.scratch_ws(scratch);
        let mut losses = std::mem::take(&mut ws.losses);
        losses.clear();
        self.grad_pass(w, data, &idx, out, ws, Some(&mut losses));
        let loss = mean_in_batch_loss_order(&losses);
        ws.losses = losses;
        scratch.all_indices = idx;
        loss
    }

    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        let mut logits = vec![0.0; self.classes];
        self.logits(w, x, &mut logits);
        Self::argmax(&logits) as f64
    }

    /// [`Self::predict`] over chunks of 32 samples' gathered logits.
    fn accuracy(&self, w: &[f64], data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let all: Vec<usize> = (0..data.len()).collect();
        let mut logits = Vec::new();
        let mut panel = Vec::new();
        let mut correct = 0usize;
        for chunk in all.chunks(crate::BATCH_CHUNK) {
            self.chunk_logits(w, data, chunk, &mut logits, &mut panel);
            for (&i, lg) in chunk.iter().zip(logits.chunks_exact(self.classes)) {
                correct += usize::from(Self::argmax(lg) as f64 == data.y(i));
            }
        }
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_ok;
    use fedprox_tensor::Matrix;

    /// Three well-separated Gaussian-ish clusters in 2-D.
    fn clusters() -> Dataset {
        let centers = [[4.0, 0.0], [-2.0, 3.5], [-2.0, -3.5]];
        let mut f = Matrix::zeros(30, 2);
        let mut y = Vec::new();
        for i in 0..30 {
            let c = i % 3;
            let jitter = [((i * 7 % 5) as f64 - 2.0) * 0.2, ((i * 13 % 5) as f64 - 2.0) * 0.2];
            f.row_mut(i)[0] = centers[c][0] + jitter[0];
            f.row_mut(i)[1] = centers[c][1] + jitter[1];
            y.push(c as f64);
        }
        Dataset::new(f, y, 3)
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let d = clusters();
        for l2 in [0.0, 0.1] {
            let model = MultinomialLogistic::new(2, 3).with_l2(l2);
            let w = model.init_params(7);
            assert_grad_ok(&model, &w, &d, &[0, 1, 2, 5, 10], 1e-4);
        }
    }

    #[test]
    fn fused_loss_and_grad_equals_separate_calls_bitwise() {
        let small = clusters();
        // 30 samples take the unchunked reductions, 60 the chunked ones.
        let big = Dataset::concat(&[&small, &small]);
        for l2 in [0.0, 0.1] {
            let model = MultinomialLogistic::new(2, 3).with_l2(l2);
            let w = model.init_params(3);
            let mut scratch = GradScratch::new();
            for data in [&small, &big] {
                let mut fused = vec![f64::NAN; model.dim()];
                let loss = model.full_loss_and_grad_in(&w, data, &mut fused, &mut scratch);
                let mut grad = vec![0.0; model.dim()];
                model.full_grad(&w, data, &mut grad);
                assert_eq!(loss.to_bits(), model.full_loss(&w, data).to_bits(), "l2 {l2}");
                let same = fused.iter().zip(&grad).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "l2 {l2}, n {}: fused gradient differs", data.len());
            }
        }
    }

    /// 37 samples, 12 features (columns 0 and 5 all zero), 4 classes;
    /// sample 1 is scaled up until its softmax underflows, so some of
    /// its logit-gradient coefficients are exactly 0.
    fn wide_data() -> Dataset {
        let (n, dim) = (37, 12);
        let mut f = Matrix::zeros(n, dim);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            for (j, v) in f.row_mut(i).iter_mut().enumerate() {
                if j != 0 && j != 5 {
                    *v = (((i * 31 + j * 17) % 23) as f64 - 11.0) / 7.0;
                }
            }
            y.push((i % 4) as f64);
        }
        for v in f.row_mut(1).iter_mut() {
            *v *= 4000.0;
        }
        Dataset::new(f, y, 4)
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The mean gradient over `indices` built from `sample_grad_accum`
    /// alone, chunked the way the trait's default `batch_grad_in` is.
    fn per_sample_grad(
        model: &MultinomialLogistic,
        w: &[f64],
        d: &Dataset,
        idx: &[usize],
    ) -> Vec<f64> {
        let mut out = vec![0.0; model.dim()];
        if idx.is_empty() {
            return out;
        }
        let scale = 1.0 / idx.len() as f64;
        if idx.len() >= crate::BATCH_PAR_THRESHOLD {
            for chunk in idx.chunks(crate::BATCH_CHUNK) {
                let mut acc = vec![0.0; model.dim()];
                for &i in chunk {
                    model.sample_grad_accum(w, d, i, scale, &mut acc);
                }
                vecops::add_assign(&mut out, &acc);
            }
        } else {
            for &i in idx {
                model.sample_grad_accum(w, d, i, scale, &mut out);
            }
        }
        out
    }

    #[test]
    fn batched_entries_equal_the_per_sample_composition_bitwise() {
        let data = wide_data();
        for l2 in [0.0, 0.1] {
            let model = MultinomialLogistic::new(12, 4).with_l2(l2);
            let w = model.init_params(11);
            // The scenario must contain a skipped (exactly zero) term.
            let mut logits = vec![0.0; 4];
            let mut dlogits = vec![0.0; 4];
            model.logits(&w, data.x(1), &mut logits);
            cross_entropy_grad_from_logits(&logits, data.class_of(1), &mut dlogits);
            assert!(dlogits.contains(&0.0), "no underflowed coefficient: {dlogits:?}");
            // One scratch across every size and entry, as the solver uses it.
            let mut scratch = GradScratch::new();
            for n in [1usize, 2, 4, 5, 31, 32, 33, 75] {
                let idx: Vec<usize> = (0..n).map(|i| (i * 5 + 1) % data.len()).collect();
                let ctx = format!("l2 {l2}, n {n}");
                let want = per_sample_grad(&model, &w, &data, &idx);
                let mut got = vec![f64::NAN; model.dim()];
                model.batch_grad_in(&w, &data, &idx, &mut got, &mut scratch);
                assert!(same_bits(&got, &want), "{ctx}: batch_grad_in");
                let mut got = vec![f64::NAN; model.dim()];
                model.batch_grad(&w, &data, &idx, &mut got);
                assert!(same_bits(&got, &want), "{ctx}: batch_grad");

                let losses: Vec<f64> =
                    idx.iter().map(|&i| model.sample_loss(&w, &data, i)).collect();
                let want_loss = mean_in_batch_loss_order(&losses).to_bits();
                assert_eq!(model.batch_loss(&w, &data, &idx).to_bits(), want_loss, "{ctx}");

                // The full passes over a shard made of exactly these rows.
                let shard = data.subset(&idx);
                let all: Vec<usize> = (0..n).collect();
                let want = per_sample_grad(&model, &w, &shard, &all);
                let mut got = vec![f64::NAN; model.dim()];
                let loss = model.full_loss_and_grad_in(&w, &shard, &mut got, &mut scratch);
                assert!(same_bits(&got, &want), "{ctx}: full_loss_and_grad_in gradient");
                assert_eq!(loss.to_bits(), want_loss, "{ctx}: full_loss_and_grad_in loss");
                let mut got = vec![f64::NAN; model.dim()];
                model.full_grad_in(&w, &shard, &mut got, &mut scratch);
                assert!(same_bits(&got, &want), "{ctx}: full_grad_in");
                assert_eq!(model.full_loss(&w, &shard).to_bits(), want_loss, "{ctx}");

                let hits = all.iter().filter(|&&i| model.predict(&w, shard.x(i)) == shard.y(i));
                let want_acc = hits.count() as f64 / n as f64;
                assert_eq!(model.accuracy(&w, &shard).to_bits(), want_acc.to_bits(), "{ctx}");
            }
        }
    }

    #[test]
    fn dim_layout() {
        let m = MultinomialLogistic::new(5, 3);
        assert_eq!(m.dim(), 3 * 6);
        assert_eq!(m.classes(), 3);
        assert_eq!(m.features(), 5);
    }

    #[test]
    fn learns_clusters() {
        let d = clusters();
        let model = MultinomialLogistic::new(2, 3);
        let mut w = model.init_params(1);
        let mut g = vec![0.0; model.dim()];
        for _ in 0..800 {
            model.full_grad(&w, &d, &mut g);
            vecops::axpy(-0.5, &g, &mut w);
        }
        assert_eq!(model.accuracy(&w, &d), 1.0);
        assert!(model.full_loss(&w, &d) < 0.2);
    }

    #[test]
    fn loss_at_zero_params_is_log_classes() {
        let d = clusters();
        let model = MultinomialLogistic::new(2, 3);
        let w = vec![0.0; model.dim()];
        assert!((model.full_loss(&w, &d) - 3.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn grad_bias_components_sum_to_zero_per_sample() {
        // Softmax gradient over logits sums to zero, so bias grads do too.
        let d = clusters();
        let model = MultinomialLogistic::new(2, 3);
        let w = model.init_params(3);
        let mut g = vec![0.0; model.dim()];
        model.sample_grad_accum(&w, &d, 0, 1.0, &mut g);
        let bias_sum: f64 = g[model.weights_len()..].iter().sum();
        assert!(bias_sum.abs() < 1e-12);
    }

    #[test]
    fn predict_returns_valid_class() {
        let d = clusters();
        let model = MultinomialLogistic::new(2, 3);
        let w = model.init_params(5);
        for i in 0..d.len() {
            let p = model.predict(&w, d.x(i));
            assert!((0.0..3.0).contains(&p) && p.fract() == 0.0);
        }
    }
}
