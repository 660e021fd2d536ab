//! Device populations: materialized (an explicit device slice) or
//! synthesized lazily per sampled device.

use crate::device::Device;
use fedprox_data::partition::ZipfPopulation;
use fedprox_data::synthetic::SyntheticPool;

/// A lazily synthesized power-law population: sample counts (and
/// compute-speed heterogeneity) from a [`ZipfPopulation`], shard
/// contents from a [`SyntheticPool`]. A device's shard is built when a
/// round samples it and dropped when the round ends, so resident memory
/// never scales with the population size.
#[derive(Debug, Clone)]
pub struct LazyPopulation {
    /// Per-device sample counts and compute factors (O(1) lookups).
    pub zipf: ZipfPopulation,
    /// Per-device shard synthesis (bitwise equal to eager generation).
    pub pool: SyntheticPool,
}

impl LazyPopulation {
    /// Bundle a size distribution with a shard generator. The pool's
    /// feature dimension must match the model the engine runs.
    pub fn new(zipf: ZipfPopulation, pool: SyntheticPool) -> Self {
        LazyPopulation { zipf, pool }
    }

    /// Synthesize device `d` (stable id preserved).
    pub fn device(&self, d: usize) -> Device {
        Device::new(d, self.pool.device_shard(d, self.zipf.size_of(d)))
    }
}

/// The population a [`crate::engine::RoundEngine`] runs over.
pub enum Population<'a> {
    /// Concrete devices, as [`crate::FederatedTrainer`] holds them.
    /// Supports full evaluation and FSVRG's global-gradient exchange.
    Materialized(&'a [Device]),
    /// Power-law synthetic population synthesized per sampled device
    /// (million-device scale; no full-population evaluation).
    Lazy(LazyPopulation),
}

impl<'a> Population<'a> {
    /// Number of devices `N`.
    pub fn len(&self) -> usize {
        match self {
            Population::Materialized(d) => d.len(),
            Population::Lazy(l) => l.zipf.len(),
        }
    }

    /// Whether the population is empty (the engine rejects this).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The device slice of a materialized population.
    pub fn devices(&self) -> Option<&'a [Device]> {
        match self {
            Population::Materialized(d) => Some(d),
            Population::Lazy(_) => None,
        }
    }

    /// Device `d`'s sample count `D_d`.
    pub fn size_of(&self, d: usize) -> usize {
        match self {
            Population::Materialized(devs) => devs[d].samples(),
            Population::Lazy(l) => l.zipf.size_of(d),
        }
    }

    /// Total federation sample count `D`.
    pub fn total_samples(&self) -> u64 {
        match self {
            Population::Materialized(devs) => {
                devs.iter().map(|d| d.samples() as u64).sum()
            }
            Population::Lazy(l) => l.zipf.total_samples(),
        }
    }

    /// Device `d`'s compute-speed multiplier (hardware heterogeneity;
    /// 1.0 for materialized populations).
    pub fn compute_factor_of(&self, d: usize) -> f64 {
        match self {
            Population::Materialized(_) => 1.0,
            Population::Lazy(l) => l.zipf.compute_factor_of(d),
        }
    }
}
