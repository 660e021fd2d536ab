//! The three workloads, each driven through the library's public entry
//! points. README.md records why each was chosen.

use crate::trace::{self, Layer, Traced};
use fedprox_bench::{fashion_federation, mnist_federation};
use fedprox_core::{
    eval, server, Algorithm, Device, FedConfig, FederatedTrainer, History, RunnerKind, SamplerSpec,
    SimRunnerOptions,
};
use fedprox_data::partition::{power_law_sizes, ZipfPopulation};
use fedprox_data::synthetic::{SyntheticConfig, SyntheticPool};
use fedprox_data::Dataset;
use fedprox_models::{Cnn, CnnSpec, LossModel, MultinomialLogistic};
use fedprox_optim::EstimatorKind;
use fedprox_sim::{LazyPopulation, Population, Sampler, SimEngine};
use fedprox_tensor::vecops;
use std::hint::black_box;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["fig2-convex", "fig3-cnn", "sim-4m-k64"];

/// The seed workload `name` hands the library for benchmark seed `seed`.
pub fn library_seed(name: &str, seed: u64) -> u64 {
    match name {
        "fig2-convex" => federation_seed(seed, FIG2_FED),
        "fig3-cnn" => federation_seed(seed, FIG3_FED),
        _ => seed,
    }
}

/// Fixed training length of one run, per workload.
const FIG2_ROUNDS: usize = 10;
const FIG3_ROUNDS: usize = 2;
const SIM_ROUNDS: usize = 10;

const SIM_DEVICES: usize = 4_000_000;
const SIM_K: usize = 64;
/// Population devices whose shards `final_loss` is computed over on
/// sim-4m-k64: every `SIM_DEVICES / SIM_PROBES`-th id.
const SIM_PROBES: usize = 256;

/// What one training run produced.
pub struct Run {
    /// The final global model.
    pub final_model: Vec<f64>,
    /// Whether the run diverged (non-finite model or loss guard).
    pub diverged: bool,
    /// Per-round sampled ids (sim-4m-k64 only; empty otherwise).
    pub sampled: Vec<Option<Vec<u32>>>,
}

/// A built workload, ready to train.
pub trait Fixture {
    /// One training run through the library's own round loop.
    fn train(&self) -> Result<Run, String>;
    /// The same run with every span recorded (the tracer must be armed).
    fn train_traced(&self) -> Result<Run, String>;
    /// The initial global model.
    fn initial_model(&self) -> &[f64];
    /// Training loss of `w`, the workload's `final_loss` definition.
    fn loss(&self, w: &[f64]) -> f64;
}

/// Device count, shard-size range and total shard size of the
/// fig2-convex and fig3-cnn federations.
const FIG2_FED: (usize, usize, usize, usize) = (20, 40, 150, 1530);
const FIG3_FED: (usize, usize, usize, usize) = (5, 100, 250, 830);

/// The library seed a federation is built from for benchmark seed
/// `seed`: the first of a sequence derived from `seed` whose power-law
/// shard sizes sum to the workload's total within 1%. Seeds then vary
/// the data's content but not its amount, so the work of a run, and its
/// time, do not swing with the seed.
fn federation_seed(seed: u64, (devices, lo, hi, total): (usize, usize, usize, usize)) -> u64 {
    let candidate = |j: u64| {
        let mut z = seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..100_000)
        .map(candidate)
        .find(|&s| {
            let sum: usize = power_law_sizes(devices, lo, hi, 1.5, s).iter().sum();
            100 * sum.abs_diff(total) <= total
        })
        .unwrap_or(seed)
}

/// Build workload `name` from library seed `seed` (see
/// [`library_seed`]): the federation or population and the initial
/// model. `None` for an unknown name.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Fixture>> {
    match name {
        "fig2-convex" => {
            let (devices, lo, hi, _) = FIG2_FED;
            let fed = fashion_federation(devices, lo, hi, seed);
            let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
                .with_beta(5.0)
                .with_tau(10)
                .with_mu(0.1)
                .with_batch_size(4)
                .with_smoothness(5.0)
                .with_rounds(FIG2_ROUNDS)
                .with_seed(seed)
                .with_eval_every(5);
            Some(Box::new(Fed::new(
                MultinomialLogistic::new(784, 10),
                fed.devices,
                fed.test,
                cfg,
            )))
        }
        "fig3-cnn" => {
            let (devices, lo, hi, _) = FIG3_FED;
            let fed = mnist_federation(devices, lo, hi, seed);
            let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
                .with_beta(5.0)
                .with_tau(10)
                .with_mu(0.01)
                .with_batch_size(16)
                .with_smoothness(4.0)
                .with_rounds(FIG3_ROUNDS)
                .with_seed(seed)
                .with_eval_every(10);
            Some(Box::new(Fed::new(
                Cnn::new(CnnSpec::small()),
                fed.devices,
                fed.test,
                cfg,
            )))
        }
        "sim-4m-k64" => Some(Box::new(Sim::new(seed))),
        _ => None,
    }
}

/// fig2-convex and fig3-cnn: a materialized federation trained by
/// `FederatedTrainer::run` (sequential runner, the default).
struct Fed<M> {
    model: M,
    devices: Vec<Device>,
    test: Dataset,
    cfg: FedConfig,
    w0: Vec<f64>,
}

impl<M: LossModel + Clone> Fed<M> {
    fn new(model: M, devices: Vec<Device>, test: Dataset, cfg: FedConfig) -> Self {
        let w0 = model.init_params(cfg.seed);
        Fed {
            model,
            devices,
            test,
            cfg,
            w0,
        }
    }

    /// One evaluation as the trainer makes it, each call in its own
    /// `core.eval` span. Returns the training loss.
    fn evaluate(&self, m: &Traced<M>, w: &[f64]) -> f64 {
        let loss = trace::span(Layer::Eval, || eval::global_loss(m, &self.devices, w));
        black_box(trace::span(Layer::Eval, || {
            eval::test_accuracy(m, &self.test, w)
        }));
        black_box(trace::span(Layer::Eval, || {
            eval::stationarity_gap(m, &self.devices, w)
        }));
        loss
    }
}

impl<M: LossModel + Clone> Fixture for Fed<M> {
    fn train(&self) -> Result<Run, String> {
        let h = FederatedTrainer::new(&self.model, &self.devices, &self.test, self.cfg.clone())
            .run()
            .map_err(|e| e.to_string())?;
        Ok(from_history(h))
    }

    /// The trainer's sequential loop for full participation without
    /// faults, rebuilt from the public calls it makes so each can sit in
    /// its own span. Any difference in arithmetic shows as a final model
    /// that is not bitwise the trainer's.
    fn train_traced(&self) -> Result<Run, String> {
        let cfg = &self.cfg;
        let traced = Traced(self.model.clone());
        let sizes: Vec<usize> = self.devices.iter().map(Device::samples).collect();
        let weights = server::weights_from_sizes(&sizes);
        let mut global = traced.init_params(cfg.seed);
        let mut agg = vec![0.0; global.len()];
        trace::set_round(0);
        self.evaluate(&traced, &global);
        let mut diverged = false;
        for s in 1..=cfg.rounds {
            trace::set_round(s as u64);
            trace::open(Layer::Round);
            let mut updates = Vec::with_capacity(self.devices.len());
            for d in &self.devices {
                let u = trace::span(Layer::DeviceUpdate, || {
                    d.local_update(&traced, &global, cfg, s - 1)
                });
                updates.push(u.map_err(|e| format!("round {s}, device {}: {e}", d.id))?);
            }
            let locals: Vec<(&[f64], f64)> = updates
                .iter()
                .zip(&weights)
                .map(|(u, &w)| (u.w.as_slice(), w))
                .collect();
            trace::span(Layer::Aggregate, || server::aggregate(&locals, &mut agg));
            std::mem::swap(&mut global, &mut agg);
            diverged = !vecops::all_finite(&global);
            if !diverged && (s.is_multiple_of(cfg.eval_every) || s == cfg.rounds) {
                let loss = self.evaluate(&traced, &global);
                diverged = !loss.is_finite() || loss > cfg.loss_guard;
            }
            trace::close(Layer::Round, 0, false);
            if diverged {
                break;
            }
        }
        Ok(Run {
            final_model: global,
            diverged,
            sampled: Vec::new(),
        })
    }

    fn initial_model(&self) -> &[f64] {
        &self.w0
    }

    fn loss(&self, w: &[f64]) -> f64 {
        eval::global_loss(&self.model, &self.devices, w)
    }
}

fn from_history(h: History) -> Run {
    Run {
        diverged: h.diverged(),
        sampled: h.participation.into_iter().map(|p| p.sampled).collect(),
        final_model: h.final_model,
    }
}

/// sim-4m-k64: `SimEngine::run_with` over a lazy Zipf population,
/// uniformly sampling K devices a round. Nothing is evaluated in the
/// run; `final_loss` is measured afterwards on a fixed set of devices.
struct Sim {
    model: MultinomialLogistic,
    lazy: LazyPopulation,
    cfg: FedConfig,
    w0: Vec<f64>,
}

impl Sim {
    fn new(seed: u64) -> Self {
        let zipf = ZipfPopulation::new(SIM_DEVICES, 40, 120, 1.5, 4.0, seed);
        let pool = SyntheticPool::new(SyntheticConfig {
            seed,
            ..Default::default()
        });
        let model = MultinomialLogistic::new(60, 10);
        let w0 = model.init_params(seed);
        // The runner must name the event-driven backend to carry the
        // sampler; every other option stays at its default.
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_tau(4)
            .with_batch_size(8)
            .with_mu(0.1)
            .with_rounds(SIM_ROUNDS)
            .with_seed(seed)
            .with_runner(RunnerKind::EventDriven(
                SimRunnerOptions::default().with_sampler(SamplerSpec::UniformK(SIM_K)),
            ));
        let lazy = LazyPopulation::new(zipf, pool);
        Sim {
            model,
            lazy,
            cfg,
            w0,
        }
    }
}

impl Fixture for Sim {
    fn train(&self) -> Result<Run, String> {
        let engine = SimEngine::new(
            &self.model,
            Population::Lazy(self.lazy.clone()),
            None,
            self.cfg.clone(),
        );
        let h = engine.run_with(|_| {}).map_err(|e| e.to_string())?;
        Ok(from_history(h))
    }

    /// The engine's round for a lazy population, uniform-K sampling and
    /// no faults, rebuilt from the public calls it makes. It replays the engine's exact `Sampler::sample` and
    /// `LazyPopulation::device` calls on the same (n, round, seed); the
    /// harness checks the sampled ids and final model against the
    /// engine's run.
    fn train_traced(&self) -> Result<Run, String> {
        let cfg = &self.cfg;
        let zipf = &self.lazy.zipf;
        let n = zipf.len();
        let total = zipf.total_samples() as f64;
        let sampler = Sampler::new(SamplerSpec::UniformK(SIM_K));
        let traced = Traced(self.model.clone());
        let mut global = traced.init_params(cfg.seed);
        let mut agg = vec![0.0; global.len()];
        let mut sampled = Vec::with_capacity(cfg.rounds);
        let mut diverged = false;
        for s in 1..=cfg.rounds {
            trace::set_round(s as u64);
            trace::open(Layer::Round);
            let ids = trace::span(Layer::Sample, || {
                sampler.sample(n, s, cfg.seed, |d| zipf.size_of(d))
            });
            let mut updates = Vec::with_capacity(ids.len());
            for &d in &ids {
                let dev = trace::span(Layer::Population, || self.lazy.device(d));
                let u = trace::span(Layer::DeviceUpdate, || {
                    dev.local_update(&traced, &global, cfg, s - 1)
                });
                updates.push(u.map_err(|e| format!("round {s}, device {d}: {e}"))?);
            }
            let locals: Vec<(&[f64], f64)> = updates
                .iter()
                .zip(&ids)
                .map(|(u, &d)| (u.w.as_slice(), zipf.size_of(d) as f64 / total))
                .collect();
            trace::span(Layer::Aggregate, || server::aggregate(&locals, &mut agg));
            std::mem::swap(&mut global, &mut agg);
            sampled.push(Some(ids.iter().map(|&d| d as u32).collect()));
            trace::close(Layer::Round, 0, false);
            diverged = !vecops::all_finite(&global);
            if diverged {
                break;
            }
        }
        Ok(Run {
            final_model: global,
            diverged,
            sampled,
        })
    }

    fn initial_model(&self) -> &[f64] {
        &self.w0
    }

    /// `eval::global_loss`'s sample-weighted mean over the probe
    /// devices, synthesizing one shard at a time so the check adds
    /// nothing to the peak memory of the run.
    fn loss(&self, w: &[f64]) -> f64 {
        let stride = SIM_DEVICES / SIM_PROBES;
        let (mut weighted, mut total) = (0.0, 0usize);
        for i in 0..SIM_PROBES {
            let dev = self.lazy.device(i * stride);
            weighted += dev.samples() as f64 * self.model.full_loss(w, &dev.data);
            total += dev.samples();
        }
        weighted / total as f64
    }
}
