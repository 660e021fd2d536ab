//! # FedProxVR — facade crate
//!
//! Single entry point re-exporting the whole workspace API. See the README
//! for a tour; the typical import is:
//!
//! ```
//! use fedprox::prelude::*;
//! ```
//!
//! Sub-crates (also usable directly):
//!
//! * [`tensor`] — dense linear algebra and CNN kernels,
//! * [`data`] — synthetic + image-like federated datasets and partitioners,
//! * [`models`] — loss models with hand-written gradients,
//! * [`optim`] — SGD/SVRG/SARAH estimators and the proximal inner solver,
//! * [`faults`] — deterministic fault schedules and graceful-degradation
//!   policies (deadlines, quorum, retry/backoff),
//! * [`net`] — simulated federated network runtime (actors, delays, clock),
//! * [`core`] — the FedProxVR algorithm, baselines, the in-process round
//!   engine (sequential and event-driven, with per-round client sampling
//!   over million-device populations), theory, and parameter
//!   optimization,
//! * [`sim`] — the event-driven engine under its `fedprox_sim` names
//!   (`SimEngine` is `core::RoundEngine`).

pub use fedprox_core as core;
pub use fedprox_data as data;
pub use fedprox_faults as faults;
pub use fedprox_models as models;
pub use fedprox_net as net;
pub use fedprox_optim as optim;
pub use fedprox_sim as sim;
pub use fedprox_tensor as tensor;

/// Convenient glob-import surface covering the common experiment workflow.
pub mod prelude {
    pub use fedprox_core::algorithm::{Algorithm, FederatedTrainer};
    pub use fedprox_core::config::{FedConfig, RunnerKind, SamplerSpec, SimRunnerOptions};
    pub use fedprox_core::device::Device;
    pub use fedprox_core::metrics::{History, RoundRecord};
    pub use fedprox_core::theory::{self, Lemma1, TheoryParams};
    pub use fedprox_data::partition::{PartitionSpec, Partitioner};
    pub use fedprox_data::{Dataset, FederatedDataset};
    pub use fedprox_faults::{
        DeviceOutcome, FaultPlan, QuorumPolicy, Resilience, RetryPolicy, RoundParticipation,
    };
    pub use fedprox_models::{LossModel, MODEL_SEED};
    pub use fedprox_optim::estimator::EstimatorKind;
    pub use fedprox_sim::{LazyPopulation, Population, SimEngine};
}
