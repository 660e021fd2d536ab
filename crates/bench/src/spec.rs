//! Declarative experiment specification for the `fedrun` CLI: a JSON
//! document describing dataset, model, algorithms and hyper-parameters,
//! runnable without writing Rust.

use crate::datasets::{fashion_federation, mnist_federation, synthetic_federation, Federation};
use fedprox_core::{Algorithm, FedConfig, History};
use fedprox_models::{Cnn, CnnSpec, LossModel, Mlp, MultinomialLogistic};
use fedprox_optim::estimator::EstimatorKind;
use serde::{Deserialize, Serialize};

/// Which dataset to build.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum DatasetSpec {
    /// Synthetic(α, β).
    Synthetic {
        /// Model-heterogeneity α.
        alpha: f64,
        /// Feature-heterogeneity β.
        beta: f64,
    },
    /// MNIST-like images (or real files from `data/mnist`).
    Mnist,
    /// Fashion-MNIST-like images.
    Fashion,
}

/// Which model to train.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ModelSpec {
    /// Multinomial logistic regression (dim inferred from the dataset).
    Logistic,
    /// One-hidden-layer MLP.
    Mlp {
        /// Hidden-layer width.
        hidden: usize,
    },
    /// The two-layer CNN; `preset` is "paper", "small", or "tiny".
    Cnn {
        /// Architecture preset name.
        preset: String,
    },
}

/// A full experiment specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Dataset to build.
    pub dataset: DatasetSpec,
    /// Model to train.
    pub model: ModelSpec,
    /// Algorithm names (see [`parse_algorithm`]).
    pub algorithms: Vec<String>,
    /// Number of devices.
    pub devices: usize,
    /// Smallest shard.
    pub min_size: usize,
    /// Largest shard.
    pub max_size: usize,
    /// Step-size parameter β.
    #[serde(default = "default_beta")]
    pub beta: f64,
    /// Smoothness estimate L.
    #[serde(default = "default_smoothness")]
    pub smoothness: f64,
    /// Local iterations τ.
    #[serde(default = "default_tau")]
    pub tau: usize,
    /// Proximal penalty μ.
    #[serde(default = "default_mu")]
    pub mu: f64,
    /// Mini-batch size B.
    #[serde(default = "default_batch")]
    pub batch: usize,
    /// Global rounds T.
    #[serde(default = "default_rounds")]
    pub rounds: usize,
    /// Master seed.
    #[serde(default)]
    pub seed: u64,
    /// Evaluation cadence.
    #[serde(default = "default_eval_every")]
    pub eval_every: usize,
    /// Device participation fraction.
    #[serde(default = "default_participation")]
    pub participation: f64,
}

fn default_beta() -> f64 {
    5.0
}
fn default_smoothness() -> f64 {
    5.0
}
fn default_tau() -> usize {
    10
}
fn default_mu() -> f64 {
    0.1
}
fn default_batch() -> usize {
    8
}
fn default_rounds() -> usize {
    50
}
fn default_eval_every() -> usize {
    5
}
fn default_participation() -> f64 {
    1.0
}

/// Parse an algorithm name as printed by [`Algorithm::name`].
pub fn parse_algorithm(name: &str) -> Option<Algorithm> {
    Some(match name {
        "fedavg" => Algorithm::FedAvg,
        "fedprox" => Algorithm::FedProx,
        "fsvrg" => Algorithm::Fsvrg,
        "fedproxvr-svrg" => Algorithm::FedProxVr(EstimatorKind::Svrg),
        "fedproxvr-sarah" => Algorithm::FedProxVr(EstimatorKind::Sarah),
        "fedproxvr-sgd" => Algorithm::FedProxVr(EstimatorKind::Sgd),
        "fedproxvr-gd" => Algorithm::FedProxVr(EstimatorKind::FullGd),
        _ => return None,
    })
}

impl ExperimentSpec {
    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Build the federation this spec describes.
    pub fn build_federation(&self) -> Federation {
        match &self.dataset {
            DatasetSpec::Synthetic { alpha, beta } => synthetic_federation(
                *alpha,
                *beta,
                self.devices,
                self.min_size,
                self.max_size,
                self.seed,
            ),
            DatasetSpec::Mnist => {
                mnist_federation(self.devices, self.min_size, self.max_size, self.seed)
            }
            DatasetSpec::Fashion => {
                fashion_federation(self.devices, self.min_size, self.max_size, self.seed)
            }
        }
    }

    /// Build the model (needs the dataset's feature dim / class count).
    pub fn build_model(&self, dim: usize, classes: usize) -> Box<dyn LossModel> {
        match &self.model {
            ModelSpec::Logistic => Box::new(MultinomialLogistic::new(dim, classes)),
            ModelSpec::Mlp { hidden } => Box::new(Mlp::new(dim, *hidden, classes)),
            ModelSpec::Cnn { preset } => {
                let spec = match preset.as_str() {
                    "paper" => CnnSpec::paper(),
                    "mcmahan" => CnnSpec::paper_mcmahan(),
                    "small" => CnnSpec::small(),
                    "tiny" => CnnSpec::tiny(),
                    "tiny-hidden" => CnnSpec::tiny_hidden(),
                    other => {
                        panic!("unknown CNN preset '{other}' (paper|mcmahan|small|tiny|tiny-hidden)")
                    }
                };
                assert_eq!(
                    spec.in_ch * spec.side * spec.side,
                    dim,
                    "CNN preset '{preset}' expects {} inputs, dataset has {dim}",
                    spec.in_ch * spec.side * spec.side
                );
                Box::new(Cnn::new(spec))
            }
        }
    }

    /// Run every listed algorithm; returns `(name, history)` pairs.
    pub fn run(&self) -> Vec<(String, History)> {
        let fed = self.build_federation();
        let dim = fed.test.dim();
        let classes = fed.test.num_classes();
        let model = self.build_model(dim, classes);
        self.algorithms
            .iter()
            .map(|name| {
                let alg = parse_algorithm(name)
                    .unwrap_or_else(|| panic!("unknown algorithm '{name}'"));
                let cfg = FedConfig::new(alg)
                    .with_beta(self.beta)
                    .with_smoothness(self.smoothness)
                    .with_tau(self.tau)
                    .with_mu(self.mu)
                    .with_batch_size(self.batch)
                    .with_rounds(self.rounds)
                    .with_seed(self.seed)
                    .with_eval_every(self.eval_every)
                    .with_participation(self.participation);
                let h =
                    fedprox_core::FederatedTrainer::new(&model, &fed.devices, &fed.test, cfg)
                        .run()
                        .unwrap_or_else(|e| panic!("running '{name}': {e}"));
                (name.clone(), h)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "dataset": {"kind": "synthetic", "alpha": 1.0, "beta": 1.0},
        "model": {"kind": "logistic"},
        "algorithms": ["fedavg", "fedproxvr-svrg"],
        "devices": 3,
        "min_size": 30,
        "max_size": 60,
        "rounds": 4,
        "eval_every": 2,
        "seed": 5
    }"#;

    #[test]
    fn parses_with_defaults() {
        let spec = ExperimentSpec::from_json(SPEC).unwrap();
        assert_eq!(spec.devices, 3);
        assert_eq!(spec.beta, 5.0); // default
        assert_eq!(spec.tau, 10); // default
        assert_eq!(spec.participation, 1.0);
    }

    #[test]
    fn runs_end_to_end() {
        let spec = ExperimentSpec::from_json(SPEC).unwrap();
        let results = spec.run();
        assert_eq!(results.len(), 2);
        for (name, h) in &results {
            assert!(!h.diverged(), "{name} diverged");
            assert_eq!(h.rounds_run, 4);
        }
    }

    #[test]
    fn algorithm_names_roundtrip() {
        for alg in [
            Algorithm::FedAvg,
            Algorithm::FedProx,
            Algorithm::Fsvrg,
            Algorithm::FedProxVr(EstimatorKind::Svrg),
            Algorithm::FedProxVr(EstimatorKind::Sarah),
        ] {
            assert_eq!(parse_algorithm(alg.name()), Some(alg));
        }
        assert_eq!(parse_algorithm("nope"), None);
    }

    #[test]
    fn rejects_unknown_algorithm() {
        let spec = ExperimentSpec {
            algorithms: vec!["bogus".into()],
            ..ExperimentSpec::from_json(SPEC).unwrap()
        };
        let r = std::panic::catch_unwind(|| spec.run());
        assert!(r.is_err());
    }

    #[test]
    fn mlp_spec_builds() {
        let mut spec = ExperimentSpec::from_json(SPEC).unwrap();
        spec.model = ModelSpec::Mlp { hidden: 8 };
        spec.rounds = 2;
        let results = spec.run();
        assert!(!results[0].1.diverged());
    }
}
