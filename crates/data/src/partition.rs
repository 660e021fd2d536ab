//! Device partitioners reproducing the paper's heterogeneity protocol:
//! power-law sample counts and **two of the ten labels per device**.

use crate::dataset::Dataset;
use crate::synthetic::device_rng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Draw per-device sample counts from a bounded discrete power law
/// (Pareto-like): `P(size = s) ∝ s^{-alpha}` over `[min_size, max_size]`.
/// The paper's per-dataset ranges ([37, 3277] Synthetic, [454, 3939] MNIST,
/// [37, 1350] Fashion-MNIST) are reproduced by choosing the bounds.
pub fn power_law_sizes(
    devices: usize,
    min_size: usize,
    max_size: usize,
    alpha: f64,
    seed: u64,
) -> Vec<usize> {
    assert!(min_size >= 1 && max_size >= min_size, "power_law_sizes: bad range");
    assert!(alpha > 0.0, "power_law_sizes: alpha must be positive");
    let dist = BoundedPareto::new(min_size, max_size, alpha);
    let mut rng = device_rng(seed, 0x51AE);
    (0..devices).map(|_| dist.quantile(rng.gen_range(0.0..1.0))).collect()
}

/// A bounded discrete power law `P(size = s) ∝ s^{-alpha}` over
/// `[min_size, max_size]`, sampled by inverse CDF (continuous bounded
/// Pareto, rounded). The `u`-independent terms are computed once, so a
/// per-device [`BoundedPareto::quantile`] is one `powf` (one `exp` when
/// `alpha == 1`).
#[derive(Debug, Clone, Copy)]
struct BoundedPareto {
    min_size: usize,
    max_size: usize,
    /// `alpha == 1`: the law is log-uniform.
    log_uniform: bool,
    /// `lo^a` (`ln lo` when log-uniform), with `a = 1 − alpha`.
    la: f64,
    /// `hi^a − lo^a` (`ln hi − ln lo` when log-uniform).
    span: f64,
    /// `1 / a` (unused when log-uniform).
    inv_a: f64,
}

impl BoundedPareto {
    fn new(min_size: usize, max_size: usize, alpha: f64) -> Self {
        let a = 1.0 - alpha;
        let (lo, hi) = (min_size as f64, max_size as f64);
        let log_uniform = a.abs() < 1e-9;
        let (la, span) = if log_uniform {
            (lo.ln(), hi.ln() - lo.ln())
        } else {
            (lo.powf(a), hi.powf(a) - lo.powf(a))
        };
        BoundedPareto { min_size, max_size, log_uniform, la, span, inv_a: 1.0 / a }
    }

    /// The size at quantile `u ∈ [0, 1)`.
    fn quantile(&self, u: f64) -> usize {
        let x = self.la + u * self.span;
        let s = if self.log_uniform { x.exp() } else { x.powf(self.inv_a) };
        (s.round() as usize).clamp(self.min_size, self.max_size)
    }
}

/// A lazily-indexable power-law (Zipf-like) device population: per-device
/// sample counts and a per-device compute-speed factor (hardware
/// heterogeneity spread), each drawn from an independent
/// [`device_rng`]`(seed, id)` stream keyed by the **stable device id**
/// only.
///
/// [`ZipfPopulation::size_of`] is O(1) and order-independent, so a
/// million-device federation never materializes its size vector — the
/// property the event-driven backend's samplers rely on to keep
/// per-round memory bounded by the active set. The one O(N) pass is the
/// construction-time total-sample sum (needed for aggregation weights
/// `D_n / D`).
#[derive(Debug, Clone)]
pub struct ZipfPopulation {
    devices: usize,
    sizes: BoundedPareto,
    compute_spread: f64,
    seed: u64,
    total: u64,
}

impl ZipfPopulation {
    /// Build a population of `devices` devices with sizes power-law
    /// distributed over `[min_size, max_size]` with exponent `alpha`,
    /// and compute-speed factors log-uniform in `[1, compute_spread]`.
    pub fn new(
        devices: usize,
        min_size: usize,
        max_size: usize,
        alpha: f64,
        compute_spread: f64,
        seed: u64,
    ) -> Self {
        assert!(devices > 0, "ZipfPopulation: empty population");
        assert!(min_size >= 1 && max_size >= min_size, "ZipfPopulation: bad size range");
        assert!(alpha > 0.0, "ZipfPopulation: alpha must be positive");
        assert!(compute_spread >= 1.0, "ZipfPopulation: compute_spread must be >= 1");
        let mut pop = ZipfPopulation {
            devices,
            sizes: BoundedPareto::new(min_size, max_size, alpha),
            compute_spread,
            seed,
            total: 0,
        };
        pop.total = (0..devices).map(|d| pop.size_of(d) as u64).sum();
        pop
    }

    fn stream(&self, device: usize) -> rand::rngs::StdRng {
        device_rng(self.seed ^ 0x21F0_715A, device as u64)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices
    }

    /// Always false (construction rejects empty populations).
    pub fn is_empty(&self) -> bool {
        self.devices == 0
    }

    /// Device `d`'s sample count `D_d` — O(1), stable across runs.
    pub fn size_of(&self, device: usize) -> usize {
        assert!(device < self.devices, "ZipfPopulation: device out of range");
        self.sizes.quantile(self.stream(device).gen_range(0.0..1.0))
    }

    /// Device `d`'s compute-speed multiplier, log-uniform in
    /// `[1, compute_spread]` (1.0 everywhere when the spread is 1) —
    /// models slow hardware in the event-driven timing layer.
    pub fn compute_factor_of(&self, device: usize) -> f64 {
        assert!(device < self.devices, "ZipfPopulation: device out of range");
        if self.compute_spread <= 1.0 {
            return 1.0;
        }
        let mut rng = self.stream(device);
        let _size_draw: f64 = rng.gen_range(0.0..1.0);
        let u: f64 = rng.gen_range(0.0..1.0);
        (u * self.compute_spread.ln()).exp()
    }

    /// Total federation sample count `D = Σ D_d`.
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Aggregation weight `D_d / D` (the same formula
    /// `fedprox_core::server::weights_from_sizes` applies densely).
    pub fn weight_of(&self, device: usize) -> f64 {
        self.size_of(device) as f64 / self.total as f64
    }

    /// Materialize the full size vector (small populations only).
    pub fn sizes(&self) -> Vec<usize> {
        (0..self.devices).map(|d| self.size_of(d)).collect()
    }
}

/// How a [`Partitioner`] assigns samples to devices.
#[derive(Debug, Clone)]
pub enum PartitionSpec {
    /// i.i.d.: shuffle and deal samples round-robin with power-law counts.
    Iid {
        /// Per-device sample counts.
        sizes: Vec<usize>,
    },
    /// Each device receives samples from exactly `labels_per_device`
    /// classes (the paper uses 2 of 10), with power-law sample counts.
    LabelShards {
        /// Per-device sample counts.
        sizes: Vec<usize>,
        /// How many distinct labels each device may hold.
        labels_per_device: usize,
    },
}

/// Splits a centralized [`Dataset`] into per-device shards.
#[derive(Debug, Clone)]
pub struct Partitioner {
    spec: PartitionSpec,
    seed: u64,
}

impl Partitioner {
    /// Create a partitioner with the given spec and seed.
    pub fn new(spec: PartitionSpec, seed: u64) -> Self {
        Partitioner { spec, seed }
    }

    /// Partition `data` into shards. Sample indices are drawn without
    /// replacement where supply allows and with replacement when a device
    /// requests more samples of a label than remain (the generators make
    /// this rare; it keeps requested power-law sizes exact).
    pub fn partition(&self, data: &Dataset) -> Vec<Dataset> {
        match &self.spec {
            PartitionSpec::Iid { sizes } => self.partition_iid(data, sizes),
            PartitionSpec::LabelShards { sizes, labels_per_device } => {
                self.partition_label_shards(data, sizes, *labels_per_device)
            }
        }
    }

    fn partition_iid(&self, data: &Dataset, sizes: &[usize]) -> Vec<Dataset> {
        let mut rng = device_rng(self.seed, 0x11D);
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(&mut rng);
        let mut cursor = 0usize;
        sizes
            .iter()
            .map(|&s| {
                let idx: Vec<usize> =
                    (0..s).map(|k| order[(cursor + k) % order.len()]).collect();
                cursor += s;
                data.subset(&idx)
            })
            .collect()
    }

    fn partition_label_shards(
        &self,
        data: &Dataset,
        sizes: &[usize],
        labels_per_device: usize,
    ) -> Vec<Dataset> {
        let classes = data.num_classes();
        assert!(classes > 0, "label shards require a classification dataset");
        assert!(
            labels_per_device >= 1 && labels_per_device <= classes,
            "labels_per_device out of range"
        );
        // Bucket sample indices per class, shuffled.
        let mut rng = device_rng(self.seed, 0x5AAD);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); classes];
        for i in 0..data.len() {
            buckets[data.class_of(i)].push(i);
        }
        for b in buckets.iter_mut() {
            b.shuffle(&mut rng);
        }
        let mut cursors = vec![0usize; classes];

        sizes
            .iter()
            .enumerate()
            .map(|(dev, &size)| {
                // Deterministic label pair assignment: device d takes
                // labels {d, d+1, …} mod classes — cycling so all labels
                // are used roughly equally across the federation.
                let labels: Vec<usize> =
                    (0..labels_per_device).map(|k| (dev + k) % classes).collect();
                let mut idx = Vec::with_capacity(size);
                for (j, &lab) in labels.iter().enumerate() {
                    // Split the device's quota across its labels.
                    let quota = size / labels.len()
                        + if j < size % labels.len() { 1 } else { 0 };
                    let bucket = &buckets[lab];
                    if bucket.is_empty() {
                        continue;
                    }
                    for _ in 0..quota {
                        // Without replacement until exhausted, then wrap.
                        let pos = cursors[lab] % bucket.len();
                        idx.push(bucket[pos]);
                        cursors[lab] += 1;
                    }
                }
                data.subset(&idx)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_tensor::Matrix;

    fn class_dataset(per_class: usize, classes: usize) -> Dataset {
        let n = per_class * classes;
        let mut f = Matrix::zeros(n, 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            f.row_mut(i)[0] = c as f64;
            f.row_mut(i)[1] = i as f64;
            labels.push(c as f64);
        }
        Dataset::new(f, labels, classes)
    }

    #[test]
    fn power_law_sizes_in_range_and_deterministic() {
        let s1 = power_law_sizes(100, 37, 3277, 1.5, 9);
        let s2 = power_law_sizes(100, 37, 3277, 1.5, 9);
        assert_eq!(s1, s2);
        assert!(s1.iter().all(|&s| (37..=3277).contains(&s)));
        // Power law: median well below midpoint.
        let mut sorted = s1.clone();
        sorted.sort_unstable();
        assert!(sorted[50] < (37 + 3277) / 2);
    }

    /// Reference: the inverse CDF evaluated from scratch at every call.
    fn bounded_pareto_ref(u: f64, min_size: usize, max_size: usize, alpha: f64) -> usize {
        let a = 1.0 - alpha;
        let (lo, hi) = (min_size as f64, max_size as f64);
        let s = if a.abs() < 1e-9 {
            (lo.ln() + u * (hi.ln() - lo.ln())).exp()
        } else {
            (lo.powf(a) + u * (hi.powf(a) - lo.powf(a))).powf(1.0 / a)
        };
        (s.round() as usize).clamp(min_size, max_size)
    }

    #[test]
    fn bounded_pareto_quantile_matches_the_per_call_formula() {
        for (lo, hi, alpha) in [(37, 3277, 1.5), (40, 120, 1.5), (10, 1000, 1.0), (5, 5, 0.5)] {
            let dist = BoundedPareto::new(lo, hi, alpha);
            for i in 0..1000 {
                let u = i as f64 / 1000.0 + 1e-4;
                assert_eq!(dist.quantile(u), bounded_pareto_ref(u, lo, hi, alpha), "u={u}");
            }
        }
    }

    #[test]
    fn power_law_alpha_one_is_log_uniform() {
        let s = power_law_sizes(50, 10, 1000, 1.0, 4);
        assert!(s.iter().all(|&x| (10..=1000).contains(&x)));
    }

    #[test]
    fn zipf_population_is_stable_and_order_independent() {
        let pop = ZipfPopulation::new(1000, 40, 400, 1.5, 4.0, 9);
        // O(1) lookups agree with the materialized vector…
        let sizes = pop.sizes();
        assert_eq!(sizes.len(), 1000);
        for &d in &[0usize, 999, 41, 500] {
            assert_eq!(pop.size_of(d), sizes[d]);
        }
        // …are in range, reproducible, and total-consistent.
        assert!(sizes.iter().all(|&s| (40..=400).contains(&s)));
        let pop2 = ZipfPopulation::new(1000, 40, 400, 1.5, 4.0, 9);
        assert_eq!(pop2.sizes(), sizes);
        assert_eq!(pop.total_samples(), sizes.iter().map(|&s| s as u64).sum::<u64>());
        // Power law: median well below the midpoint.
        let mut sorted = sizes;
        sorted.sort_unstable();
        assert!(sorted[500] < (40 + 400) / 2);
        // Weights sum to 1.
        let wsum: f64 = (0..1000).map(|d| pop.weight_of(d)).sum();
        assert!((wsum - 1.0).abs() < 1e-9, "weight sum {wsum}");
    }

    #[test]
    fn zipf_compute_factors_span_the_spread() {
        let pop = ZipfPopulation::new(500, 10, 20, 1.2, 8.0, 3);
        let factors: Vec<f64> = (0..500).map(|d| pop.compute_factor_of(d)).collect();
        assert!(factors.iter().all(|&f| (1.0..=8.0).contains(&f)));
        let lo = factors.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = factors.iter().cloned().fold(0.0f64, f64::max);
        assert!(hi / lo > 2.0, "spread collapsed: {lo}..{hi}");
        // Spread 1.0 means no heterogeneity.
        let flat = ZipfPopulation::new(10, 10, 20, 1.2, 1.0, 3);
        assert!((0..10).all(|d| flat.compute_factor_of(d) == 1.0));
        // The factor draw does not perturb the size draw.
        let sized = ZipfPopulation::new(500, 10, 20, 1.2, 1.0, 3);
        assert_eq!(sized.sizes(), pop.sizes());
    }

    #[test]
    fn iid_partition_sizes_exact() {
        let data = class_dataset(50, 10);
        let sizes = vec![30, 70, 10];
        let shards = Partitioner::new(PartitionSpec::Iid { sizes: sizes.clone() }, 3)
            .partition(&data);
        for (sh, &s) in shards.iter().zip(&sizes) {
            assert_eq!(sh.len(), s);
        }
    }

    #[test]
    fn label_shards_limit_labels_per_device() {
        let data = class_dataset(100, 10);
        let sizes = vec![40; 20];
        let shards = Partitioner::new(
            PartitionSpec::LabelShards { sizes, labels_per_device: 2 },
            17,
        )
        .partition(&data);
        for sh in &shards {
            let labs = sh.distinct_labels();
            assert!(labs.len() <= 2, "device has {} labels", labs.len());
            assert_eq!(sh.len(), 40);
        }
    }

    #[test]
    fn label_shards_cover_all_labels_across_federation() {
        let data = class_dataset(100, 10);
        let shards = Partitioner::new(
            PartitionSpec::LabelShards { sizes: vec![20; 10], labels_per_device: 2 },
            1,
        )
        .partition(&data);
        let mut seen = vec![false; 10];
        for sh in &shards {
            for l in sh.distinct_labels() {
                seen[l] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "labels covered: {seen:?}");
    }

    #[test]
    fn label_shards_with_scarce_supply_wrap_without_panicking() {
        let data = class_dataset(3, 4); // only 3 samples per class
        let shards = Partitioner::new(
            PartitionSpec::LabelShards { sizes: vec![10, 10], labels_per_device: 2 },
            5,
        )
        .partition(&data);
        assert_eq!(shards[0].len(), 10);
        assert_eq!(shards[1].len(), 10);
    }

    #[test]
    fn deterministic_partition() {
        let data = class_dataset(50, 10);
        let p = Partitioner::new(
            PartitionSpec::LabelShards { sizes: vec![25; 8], labels_per_device: 2 },
            99,
        );
        let a = p.partition(&data);
        let b = p.partition(&data);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }
}
