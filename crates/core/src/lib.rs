//! FedProxVR — the paper's primary contribution.
//!
//! * [`config`] — experiment configuration ([`config::FedConfig`]),
//! * [`device`] / [`server`] — the two actors of Algorithm 1,
//! * [`algorithm`] — the [`algorithm::FederatedTrainer`] driving global
//!   iterations for FedProxVR (SVRG / SARAH) and the FedAvg baseline on
//!   the in-process engine or the networked actor runtime,
//! * [`engine`] — the [`engine::RoundEngine`], the one in-process round
//!   loop (sample, fault-filter, quorum-gate, local solves, aggregate,
//!   evaluate) behind the sequential and event-driven runners,
//! * [`population`] — materialized or lazily synthesized device
//!   populations the engine runs over,
//! * [`sampler`] — per-round client sampling (full, uniform-K,
//!   weighted-K, Bernoulli-p),
//! * [`error`] — typed run failures ([`error::FedError`]): contract
//!   violations and transport errors, as values instead of panics,
//! * [`eval`] — global loss / accuracy / gradient-norm / σ̄² measurement,
//! * [`metrics`] — per-round records and JSON/CSV export,
//! * [`health`] — the [`health::HealthMonitor`] behind `fedobs health`:
//!   per-round convergence diagnostics and typed anomaly rules,
//! * [`theory`] — Lemma 1 bounds, Theorem 1's federated factor Θ,
//!   Corollary 1's iteration bound,
//! * [`paramopt`] — the Section 4.3 training-time minimisation
//!   (problem (23)) via grid + Nelder–Mead,
//! * [`search`] — the random hyper-parameter search behind Tables 1–2.

#![warn(missing_docs)]

pub mod algorithm;
pub mod autotune;
pub mod config;
pub mod device;
pub mod engine;
pub mod error;
pub mod eval;
pub mod health;
pub mod metrics;
pub mod paramopt;
pub mod population;
pub mod sampler;
pub mod search;
pub mod server;
pub mod theory;

pub use algorithm::{Algorithm, FederatedTrainer};
pub use config::{FedConfig, RunnerKind, SamplerSpec, SimRunnerOptions};
pub use device::Device;
pub use engine::{RoundEngine, RoundStats};
pub use error::FedError;
pub use health::{HealthConfig, HealthMonitor};
pub use metrics::{DivergenceCause, History, RoundRecord};
pub use population::{LazyPopulation, Population};
pub use sampler::Sampler;
