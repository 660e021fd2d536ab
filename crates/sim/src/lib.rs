//! fedsim — compatibility re-exports of the event-driven backend.
//!
//! The round engine, populations and samplers live in `fedprox-core`
//! ([`fedprox_core::engine`], [`fedprox_core::population`],
//! [`fedprox_core::sampler`]), where `FederatedTrainer` runs the same
//! loop for its in-process runners. This crate keeps the paths
//! downstream code imports — `fedprox_sim::{SimEngine, Population,
//! LazyPopulation, Sampler}` — pointing at them.

#![warn(missing_docs)]

pub use fedprox_core::engine::{RoundEngine as SimEngine, RoundStats};
pub use fedprox_core::population::{LazyPopulation, Population};
pub use fedprox_core::sampler::Sampler;
pub use fedprox_core::{engine, population, sampler};
