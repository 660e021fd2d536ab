//! Per-round client sampling: the layer that bounds memory by the
//! active set.
//!
//! Three schemes from the partial-participation literature sit behind
//! one [`Sampler`]:
//!
//! * **uniform-K** — K of N uniformly without replacement from one
//!   `(seed, round)` stream; the sequential backend's `participation < 1`
//!   runs exactly this sampler with `K = ⌈pN⌉`;
//! * **weighted-by-`n_k`** — inclusion probability ∝ sample count
//!   (FedProx, arXiv 1812.06127), via Efraimidis–Spirakis reservoir keys
//!   in O(N) time and O(K) memory, aggregated as a uniform 1/K average;
//! * **Bernoulli-p** — independent activation with probability p
//!   (arXiv 2210.14362), aggregated with 1/p reweighting and the
//!   residual weight left on the previous global model
//!   ([`bernoulli_reweight`]), which keeps the weight total at exactly
//!   the full-participation sum.
//!
//! Every draw is keyed by `(seed, round)` or `(seed, round, stable
//! device id)` only — never by position in a participant list — so
//! selection is identical across backends.

use crate::config::SamplerSpec;
use fedprox_faults::stream_rng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Seed-domain tags keeping the sampler streams disjoint from every
/// other stream family derived from the master seed.
const WEIGHTED_TAG: u64 = 0x574B_5A1F;
const BERNOULLI_TAG: u64 = 0xBE7A_0A11;

/// A per-round client sampler (see the module docs for the schemes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampler {
    spec: SamplerSpec,
}

impl Sampler {
    /// Wrap a [`SamplerSpec`].
    pub fn new(spec: SamplerSpec) -> Self {
        if let SamplerSpec::Bernoulli(p) = spec {
            assert!(p > 0.0 && p <= 1.0, "Bernoulli activation must be in (0, 1]");
        }
        Sampler { spec }
    }

    /// The wrapped spec.
    pub fn spec(&self) -> SamplerSpec {
        self.spec
    }

    /// Draw round `s`'s participant set (stable device ids) from a
    /// population of `n` devices. `size_of` resolves a device's sample
    /// count (consulted only by the weighted scheme).
    ///
    /// Uniform-K keeps the raw draw order of its sampling stream
    /// (aggregation order is part of the bitwise trajectory); the
    /// weighted and Bernoulli schemes return ascending stable ids.
    pub fn sample(
        &self,
        n: usize,
        s: usize,
        seed: u64,
        size_of: impl Fn(usize) -> usize,
    ) -> Vec<usize> {
        match self.spec {
            SamplerSpec::Full => (0..n).collect(),
            SamplerSpec::UniformK(k) => {
                let k = k.clamp(1, n);
                if k == n {
                    return (0..n).collect();
                }
                // The partial-participation stream, keyed by (seed, round).
                let mut rng =
                    fedprox_data::synthetic::device_rng(seed ^ 0x9A87, s as u64);
                rand::seq::index::sample(&mut rng, n, k).into_vec()
            }
            SamplerSpec::WeightedK(k) => weighted_k(n, k.clamp(1, n), s, seed, size_of),
            SamplerSpec::Bernoulli(p) => {
                if p >= 1.0 {
                    return (0..n).collect();
                }
                (0..n)
                    .filter(|&d| {
                        let mut rng =
                            stream_rng(seed ^ BERNOULLI_TAG, s as u64, d as u64);
                        rng.gen_range(0.0..1.0) < p
                    })
                    .collect()
            }
        }
    }
}

/// Efraimidis–Spirakis A-Res: each device draws `u^{1/w}` from its own
/// `(seed, round, id)` stream and the K largest keys win. One O(N) scan,
/// a K-entry min-heap — never a materialized weight vector.
fn weighted_k(
    n: usize,
    k: usize,
    s: usize,
    seed: u64,
    size_of: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let mut heap: BinaryHeap<std::cmp::Reverse<ResKey>> = BinaryHeap::with_capacity(k + 1);
    for d in 0..n {
        let w = size_of(d) as f64;
        let mut rng = stream_rng(seed ^ WEIGHTED_TAG, s as u64, d as u64);
        let u: f64 = rng.gen_range(0.0..1.0);
        // ln(u)/w is a monotone transform of u^{1/w}; it avoids powf
        // underflow for large weights. u = 0 maps to -inf (never wins).
        let key = ResKey { key: u.ln() / w, id: d };
        if heap.len() < k {
            heap.push(std::cmp::Reverse(key));
        } else if heap.peek().is_some_and(|min| key > min.0) {
            heap.pop();
            heap.push(std::cmp::Reverse(key));
        }
    }
    let mut ids: Vec<usize> = heap.into_iter().map(|e| e.0.id).collect();
    ids.sort_unstable();
    ids
}

/// A reservoir key ordered by (key, then lower id wins ties).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ResKey {
    key: f64,
    id: usize,
}

impl Eq for ResKey {}

impl Ord for ResKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal keys: the lower id ranks higher (compares greater), so
        // it survives the heap eviction — deterministic tie-breaking.
        self.key.total_cmp(&other.key).then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for ResKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The Bernoulli-p aggregation reweighting: each active device's
/// population weight `w_i = D_i/D` is scaled by `1/p` (it speaks for the
/// ~`1/p` devices its activation represents) and the residual
/// `1 − Σ w_i/p` stays on the previous global model, so the total is
/// exactly the full-participation weight sum of 1 and the update is an
/// unbiased estimate of the full aggregation (arXiv 2210.14362). The
/// residual is legitimately negative when the active set overshoots its
/// expected weight. `p = 1` short-circuits to the raw weights with a
/// zero residual — bitwise identical to full participation.
pub fn bernoulli_reweight(weights: &[f64], p: f64) -> (Vec<f64>, f64) {
    assert!(p > 0.0 && p <= 1.0, "Bernoulli activation must be in (0, 1]");
    if p >= 1.0 {
        return (weights.to_vec(), 0.0);
    }
    let scaled: Vec<f64> = weights.iter().map(|w| w / p).collect();
    let residual = 1.0 - scaled.iter().sum::<f64>();
    (scaled, residual)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_sizes(_d: usize) -> usize {
        50
    }

    /// Reference: the dense partial Fisher–Yates over a materialized
    /// `(0..n)` pool — the draws the sparse `index::sample` must repeat.
    fn dense_fisher_yates(rng: &mut impl Rng, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    #[test]
    fn uniform_k_matches_sequential_stream() {
        // The partial-participation draw over n devices: stream
        // (seed ^ 0x9A87, s), taken by `index::sample` — which must
        // reproduce the dense shuffle's values in order, including at
        // the edges of (n, k).
        let s = 3usize;
        let grid = [(1, 1), (10, 1), (10, 5), (10, 9), (10, 10), (37, 36), (1_000_000, 8)];
        for (n, k) in grid {
            for seed in [0u64, 7, 29] {
                let mut rng = fedprox_data::synthetic::device_rng(seed ^ 0x9A87, s as u64);
                let expect = dense_fisher_yates(&mut rng, n, k);
                let mut rng = fedprox_data::synthetic::device_rng(seed ^ 0x9A87, s as u64);
                let got = rand::seq::index::sample(&mut rng, n, k).into_vec();
                assert_eq!(got, expect, "n={n} k={k} seed={seed}");
                if k < n {
                    let got =
                        Sampler::new(SamplerSpec::UniformK(k)).sample(n, s, seed, uniform_sizes);
                    assert_eq!(got, expect, "sampler n={n} k={k} seed={seed}");
                }
            }
        }
    }

    #[test]
    fn full_and_saturated_samplers_cover_everyone() {
        for spec in [
            SamplerSpec::Full,
            SamplerSpec::UniformK(99),
            SamplerSpec::Bernoulli(1.0),
        ] {
            let got = Sampler::new(spec).sample(6, 1, 0, uniform_sizes);
            assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "{spec:?}");
        }
    }

    #[test]
    fn weighted_k_is_deterministic_and_biased_toward_big_shards() {
        // Device sizes grow with id; over many rounds large ids must be
        // selected far more often than small ones.
        let n = 200;
        let size_of = |d: usize| 10 + d * 5;
        let sampler = Sampler::new(SamplerSpec::WeightedK(20));
        let mut hits = vec![0usize; n];
        for s in 1..=100 {
            let sel = sampler.sample(n, s, 11, size_of);
            assert_eq!(sel.len(), 20);
            assert!(sel.windows(2).all(|w| w[0] < w[1]), "not ascending: {sel:?}");
            for d in sel {
                hits[d] += 1;
            }
        }
        let low: usize = hits[..50].iter().sum();
        let high: usize = hits[150..].iter().sum();
        assert!(high > 2 * low, "weighting had no effect: low {low}, high {high}");
        // Same (seed, round) → same set.
        assert_eq!(
            sampler.sample(n, 42, 11, size_of),
            sampler.sample(n, 42, 11, size_of)
        );
    }

    #[test]
    fn bernoulli_activates_at_about_p() {
        let n = 5000;
        let sampler = Sampler::new(SamplerSpec::Bernoulli(0.1));
        let sel = sampler.sample(n, 1, 3, uniform_sizes);
        assert!(sel.windows(2).all(|w| w[0] < w[1]));
        let frac = sel.len() as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.03, "activation fraction {frac}");
        // Selection is per-device-stream: independent of n.
        let sel_small: Vec<usize> = sampler
            .sample(100, 1, 3, uniform_sizes);
        assert_eq!(
            sel.iter().copied().filter(|&d| d < 100).collect::<Vec<_>>(),
            sel_small
        );
    }

    #[test]
    fn bernoulli_reweight_restores_full_weight_total() {
        let weights = [0.1, 0.25, 0.05, 0.2];
        let (scaled, residual) = bernoulli_reweight(&weights, 0.25);
        for (s, w) in scaled.iter().zip(&weights) {
            assert_eq!(s.to_bits(), (w / 0.25).to_bits());
        }
        let total = scaled.iter().sum::<f64>() + residual;
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
        // Overshooting active weight → negative residual, total still 1.
        let (scaled, residual) = bernoulli_reweight(&[0.4, 0.3], 0.5);
        assert!(residual < 0.0);
        assert!((scaled.iter().sum::<f64>() + residual - 1.0).abs() < 1e-12);
        // p = 1 is bitwise the raw weights.
        let (scaled, residual) = bernoulli_reweight(&weights, 1.0);
        assert_eq!(residual.to_bits(), 0.0f64.to_bits());
        for (s, w) in scaled.iter().zip(&weights) {
            assert_eq!(s.to_bits(), w.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn zero_activation_rejected() {
        let _ = Sampler::new(SamplerSpec::Bernoulli(0.0));
    }
}
