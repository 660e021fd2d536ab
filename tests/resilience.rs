//! End-to-end fedresil tests over the local backends: fault plans and
//! quorum gates ride through `FedConfig`, the `History` documents
//! participation, retry backoff is charged to the simulated clock, and
//! the `participation_gap` health rule watches the responder fraction.

use fedprox::core::config::NetRunnerOptions;
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::data::Dataset;
use fedprox::models::MultinomialLogistic;
use fedprox::net::NetOptions;
use fedprox::prelude::*;

fn federation(seed: u64) -> (Vec<Device>, Dataset) {
    let shards =
        generate(&SyntheticConfig { seed, ..Default::default() }, &[70, 100, 50, 80]);
    let (train, test) = split_federation(&shards, seed);
    (train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect(), test)
}

fn cfg(runner: RunnerKind) -> FedConfig {
    FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(6)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(8)
        .with_seed(5)
        .with_runner(runner)
}

fn plan() -> FaultPlan {
    FaultPlan::new().crash(3, 4).offline(1, 2, 3)
}

#[test]
fn sequential_and_event_driven_agree_under_faults() {
    let (devices, test) = federation(21);
    let model = MultinomialLogistic::new(60, 10);
    let seq = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Sequential).with_resilience(Resilience::with_plan(plan())),
    )
    .run().expect("run");
    let sim = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::EventDriven(SimRunnerOptions::default()))
            .with_resilience(Resilience::with_plan(plan())),
    )
    .run().expect("run");
    assert!(!seq.diverged() && !sim.diverged());
    assert_eq!(seq.records.len(), sim.records.len());
    for (a, b) in seq.records.iter().zip(&sim.records) {
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "round {}", a.round);
        assert_eq!(a.grad_norm_sq.to_bits(), b.grad_norm_sq.to_bits());
    }
    assert_eq!(seq.participation, sim.participation);
    // The plan left its footprint: device 1 offline for rounds 2–3,
    // device 3 crashed from round 4 on.
    assert_eq!(seq.participation[1].outcomes[1], DeviceOutcome::Offline);
    assert_eq!(seq.participation[3].outcomes[1], DeviceOutcome::Responded);
    assert_eq!(seq.participation[7].outcomes[3], DeviceOutcome::Crashed);
}

#[test]
fn history_json_carries_participation_records() {
    let (devices, test) = federation(22);
    let model = MultinomialLogistic::new(60, 10);
    let h = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Sequential).with_resilience(Resilience::with_plan(plan())),
    )
    .run().expect("run");
    assert_eq!(h.participation.len(), 8);
    let back = History::from_json(&h.to_json()).expect("serialized History must parse");
    assert_eq!(back.participation, h.participation);
    assert_eq!(back.records, h.records);
}

#[test]
fn retry_backoff_is_charged_to_the_simulated_clock() {
    let (devices, test) = federation(23);
    let model = MultinomialLogistic::new(60, 10);
    let run_with = |retry: RetryPolicy| {
        let opts = NetRunnerOptions {
            net: NetOptions { drop_prob: 0.4, seed: 3, retry, ..Default::default() },
            ..Default::default()
        };
        FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg(RunnerKind::Network(opts)),
        )
        .run()
        .expect("run")
    };
    let plain = run_with(RetryPolicy::default());
    let backoff = run_with(RetryPolicy::exponential(1000, 0.05, 1.0));
    // Identical math — backoff only delays retransmissions…
    for (a, b) in plain.records.iter().zip(&backoff.records) {
        assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "round {}", a.round);
    }
    // …so the same drops cost strictly more simulated time.
    assert!(
        backoff.total_sim_time > plain.total_sim_time,
        "backoff {} vs plain {}",
        backoff.total_sim_time,
        plain.total_sim_time
    );
}

#[cfg(feature = "telemetry")]
#[test]
fn participation_gap_fires_once_for_a_sustained_shortfall() {
    use fedprox_telemetry::event::{AnomalyRule, Event};
    let (devices, test) = federation(24);
    let model = MultinomialLogistic::new(60, 10);
    // Three of four devices sit out rounds 2–7: the responder fraction
    // (0.25) stays below the default 0.5 floor, so the rule fires at the
    // third consecutive shortfall — and only there.
    let resil = Resilience::with_plan(
        FaultPlan::new().offline(0, 2, 7).offline(1, 2, 7).offline(2, 2, 7),
    );
    fedprox_telemetry::collector::reset();
    fedprox_telemetry::collector::arm();
    let h = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Sequential).with_resilience(resil),
    )
    .run().expect("run");
    let events = fedprox_telemetry::collector::drain();
    fedprox_telemetry::collector::disarm();
    assert!(!h.diverged());
    let gap_rounds: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            Event::Anomaly { round, rule: AnomalyRule::ParticipationGap, value, limit, .. } => {
                assert!(*value < *limit, "anomaly must carry the shortfall: {value} vs {limit}");
                Some(*round)
            }
            _ => None,
        })
        .collect();
    assert_eq!(gap_rounds, vec![4], "gap must fire once, at the third shortfall round");
}
