//! Exact-count telemetry regression: for a small deterministic run the
//! instrumentation must report *precisely* the work the algorithm
//! performs — R round spans, R·N local solves, R·N·τ inner steps,
//! R·N·(τ+1) proximal applications — not merely "some events". Any
//! off-by-one here means an instrumentation site moved, double-fires, or
//! silently stopped firing.
//!
//! The whole file is gated on the `telemetry` feature; without it the
//! macros compile to no-ops and there is nothing to count.

#![cfg(feature = "telemetry")]
// Module-level helpers below sit outside #[test] fns, where
// clippy.toml's allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use fedprox::core::config::NetRunnerOptions;
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::data::Dataset;
use fedprox::models::MultinomialLogistic;
use fedprox::prelude::*;
use fedprox_telemetry::event::Event;
use fedprox_telemetry::{collector, jsonl};

/// The collector is process-global; these tests arm/reset/drain it, so
/// they must not interleave.
static COLLECTOR_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const DEVICES: usize = 3;
const ROUNDS: usize = 4;
const TAU: usize = 5;
const EVAL_EVERY: usize = 2;

fn federation(seed: u64) -> (Vec<Device>, Dataset) {
    let shards = generate(&SyntheticConfig { seed, ..Default::default() }, &[50, 70, 40]);
    let (train, test) = split_federation(&shards, seed);
    (train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect(), test)
}

fn cfg(runner: RunnerKind) -> FedConfig {
    FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(TAU)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(ROUNDS)
        .with_eval_every(EVAL_EVERY)
        .with_seed(11)
        .with_runner(runner)
}

/// Arm the collector, run one training job, and return (history, events).
fn traced_run(runner: RunnerKind) -> (History, Vec<Event>) {
    let (devices, test) = federation(9);
    let model = MultinomialLogistic::new(60, 10);
    collector::reset();
    collector::arm();
    let h = FederatedTrainer::new(&model, &devices, &test, cfg(runner)).run().expect("run");
    let events = collector::drain();
    collector::disarm();
    (h, events)
}

fn counter(events: &[Event], which: &str) -> u64 {
    events
        .iter()
        .find_map(|e| match e {
            Event::Counter { name, value } if name == which => Some(*value),
            _ => None,
        })
        .unwrap_or_else(|| panic!("counter {which} missing from trace"))
}

fn span_count(events: &[Event], which_layer: &str, which_name: &str) -> u64 {
    events
        .iter()
        .find_map(|e| match e {
            Event::SpanStat { layer, name, count, .. }
                if layer == which_layer && name == which_name =>
            {
                Some(*count)
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("span {which_layer}/{which_name} missing from trace"))
}

#[test]
fn sequential_run_produces_exact_aggregate_counts() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (h, events) = traced_run(RunnerKind::Sequential);
    assert!(!h.diverged());

    let r = ROUNDS as u64;
    let rn = (ROUNDS * DEVICES) as u64;
    // One round span per round; one device-update span and one local
    // solve (with its anchor full gradient) per device per round.
    assert_eq!(span_count(&events, "core", "round"), r);
    assert_eq!(span_count(&events, "core", "device_update"), rn);
    assert_eq!(span_count(&events, "optim", "local_solve"), rn);
    assert_eq!(counter(&events, "optim.anchor_full_grad"), rn);
    // τ inner steps per solve; τ+1 prox applications (lines 4 and 5–9 of
    // Algorithm 1: the anchor step plus one per inner iteration).
    assert_eq!(counter(&events, "optim.inner_step"), rn * TAU as u64);
    assert_eq!(counter(&events, "optim.prox_apply"), rn * (TAU as u64 + 1));
    // Round 0 baseline + one evaluation per eval_every boundary.
    assert_eq!(span_count(&events, "core", "evaluate"), h.records.len() as u64);
    // The estimator's own gradient accounting is the History's: the
    // counter must agree bit-for-bit with the final cumulative total.
    assert_eq!(
        counter(&events, "optim.grad_evals"),
        h.records.last().expect("no records").grad_evals,
    );
}

#[test]
fn event_driven_and_sequential_runs_count_identically() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, seq) = traced_run(RunnerKind::Sequential);
    let (_, sim) = traced_run(RunnerKind::EventDriven(SimRunnerOptions::default()));
    for name in ["optim.inner_step", "optim.prox_apply", "optim.anchor_full_grad", "optim.grad_evals"] {
        assert_eq!(counter(&seq, name), counter(&sim, name), "{name} drifted across runners");
    }
    assert_eq!(
        span_count(&seq, "core", "device_update"),
        span_count(&sim, "core", "device_update"),
    );
}

#[test]
fn networked_run_emits_per_round_simulation_events() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (h, events) = traced_run(RunnerKind::Network(NetRunnerOptions::default()));
    assert!(!h.diverged());

    let r = ROUNDS as u64;
    let rn = (ROUNDS * DEVICES) as u64;
    let device_rounds =
        events.iter().filter(|e| matches!(e, Event::DeviceRound { .. })).count() as u64;
    let byte_events = events.iter().filter(|e| matches!(e, Event::Bytes { .. })).count() as u64;
    let round_ends = events.iter().filter(|e| matches!(e, Event::RoundEnd { .. })).count() as u64;
    assert_eq!(device_rounds, rn, "one DeviceRound per device per round");
    assert_eq!(byte_events, 2 * r, "down + up traffic per round");
    assert_eq!(round_ends, r, "one RoundEnd per round");

    // DeviceRound timings are virtual-clock-derived: finish must be the
    // component sum, and per round exactly one median device has lag 0.
    for e in &events {
        if let Event::DeviceRound { download_s, compute_s, upload_s, finish_s, .. } = e {
            assert!((download_s + compute_s + upload_s - finish_s).abs() < 1e-12);
        }
    }
    // RoundEnd times are non-decreasing in simulated time.
    let ends: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            Event::RoundEnd { sim_time_s, .. } => Some(*sim_time_s),
            _ => None,
        })
        .collect();
    assert!(ends.windows(2).all(|w| w[0] <= w[1]), "sim time went backwards: {ends:?}");
}

fn path_count(events: &[Event], which: &str) -> u64 {
    events
        .iter()
        .find_map(|e| match e {
            Event::PathStat { path, count, .. } if path == which => Some(*count),
            _ => None,
        })
        .unwrap_or_else(|| panic!("path {which} missing from trace"))
}

/// The span tree must mirror the algorithm's call structure *exactly*:
/// R `round` roots, R·N `device_update` children, one `local_solve`
/// under each, and one tensor-layer `softmax` leaf per sample gradient
/// computed inside the solves — with the flat per-op aggregates and the
/// path aggregates describing the same spans.
#[test]
fn span_tree_paths_nest_exactly() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (h, events) = traced_run(RunnerKind::Sequential);
    assert!(!h.diverged());

    let r = ROUNDS as u64;
    let rn = (ROUNDS * DEVICES) as u64;
    // The 4-level chain round ⊃ device_update ⊃ local_solve ⊃ softmax
    // (softmax is the tensor leaf the logistic model reaches: one call
    // per sample-gradient, inside cross_entropy_grad_from_logits).
    assert_eq!(path_count(&events, "round"), r);
    assert_eq!(path_count(&events, "round/device_update"), rn);
    assert_eq!(path_count(&events, "round/device_update/local_solve"), rn);
    assert_eq!(
        path_count(&events, "round/device_update/local_solve/softmax"),
        counter(&events, "optim.grad_evals"),
        "one tensor softmax per sample gradient inside the solves"
    );
    // Evaluations: the round-0 baseline runs before any round span
    // opens (a root path); every later evaluation nests under its round.
    assert_eq!(path_count(&events, "evaluate"), 1);
    assert_eq!(path_count(&events, "round/evaluate"), h.records.len() as u64 - 1);

    // Path aggregates and flat span stats must describe the same spans:
    // summing a span's counts over every path it terminates equals its
    // flat per-op count.
    for (layer, name) in [
        ("core", "round"),
        ("core", "device_update"),
        ("optim", "local_solve"),
        ("core", "evaluate"),
        ("tensor", "softmax"),
    ] {
        let suffix = format!("/{name}");
        let from_paths: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::PathStat { path, count, .. }
                    if path == name || path.ends_with(&suffix) =>
                {
                    Some(*count)
                }
                _ => None,
            })
            .sum();
        assert_eq!(
            from_paths,
            span_count(&events, layer, name),
            "path-tree and flat counts disagree for {layer}/{name}"
        );
    }

    // Structural invariants on every path: self ⊆ total for both time
    // and allocation columns, max ≤ total, and no orphans (every
    // non-root path's parent was also observed).
    let mut max_depth = 0;
    for e in &events {
        let Event::PathStat {
            path,
            total_micros,
            self_micros,
            max_micros,
            total_bytes,
            self_bytes,
            total_allocs,
            self_allocs,
            ..
        } = e
        else {
            continue;
        };
        max_depth = max_depth.max(path.split('/').count());
        assert!(
            *self_micros >= 0.0 && self_micros <= total_micros,
            "self time out of range on {path}"
        );
        assert!(*max_micros <= *total_micros + 1e-9, "max > total on {path}");
        assert!(self_bytes <= total_bytes, "self bytes > total on {path}");
        assert!(self_allocs <= total_allocs, "self allocs > total on {path}");
        if let Some((parent, _)) = path.rsplit_once('/') {
            assert!(
                events.iter().any(
                    |p| matches!(p, Event::PathStat { path: pp, .. } if pp == parent)
                ),
                "orphan path {path}: parent {parent} never recorded"
            );
        }
    }
    assert!(max_depth >= 4, "span tree flattened to {max_depth} levels");
}

/// Overflowing the raw span buffer *without* a streaming sink must
/// surface exactly one `TraceTruncated` marker carrying the exact
/// dropped count — never zero markers (silent loss) and never two
/// (double accounting) — while the aggregates keep counting every span.
#[test]
fn span_cap_without_sink_yields_exactly_one_truncation_marker() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const EXTRA: usize = 9;
    let (devices, test) = federation(9);
    let model = MultinomialLogistic::new(60, 10);
    collector::reset();
    collector::arm();
    let h = FederatedTrainer::new(&model, &devices, &test, cfg(RunnerKind::Sequential))
        .run()
        .expect("run");
    // The training run stays under the cap; this filler pushes the
    // buffer exactly EXTRA-plus-run-spans past it.
    for _ in 0..collector::SPAN_EVENT_CAP + EXTRA {
        let _s = collector::SpanGuard::begin("test", "filler", &[]);
    }
    let events = collector::drain();
    collector::disarm();
    assert!(!h.diverged());
    // Aggregates see every span, raw records stop at the cap, and the
    // difference is precisely what the single marker reports.
    let total: u64 = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStat { count, .. } => Some(*count),
            _ => None,
        })
        .sum();
    let raw = events.iter().filter(|e| matches!(e, Event::Span { .. })).count();
    assert_eq!(raw, collector::SPAN_EVENT_CAP, "raw records must stop at the cap");
    let markers: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::TraceTruncated { dropped_spans } => Some(*dropped_spans),
            _ => None,
        })
        .collect();
    assert_eq!(
        markers,
        vec![total - collector::SPAN_EVENT_CAP as u64],
        "exactly one TraceTruncated marker with the exact dropped count"
    );
}

/// The same overflow *with* a sink attached must spill every raw span
/// to the file instead of truncating: no `TraceTruncated` marker
/// anywhere, and the streamed file plus drained tail together hold
/// every span recorded.
#[test]
fn span_cap_with_sink_spills_every_span_without_truncation() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const EXTRA: usize = 9;
    let path = std::env::temp_dir().join("fedprox_test_span_spill.jsonl");
    collector::reset();
    collector::arm();
    collector::stream_to(path.to_str().expect("utf8 temp path")).expect("attach sink");
    let n = collector::SPAN_EVENT_CAP + EXTRA;
    for _ in 0..n {
        let _s = collector::SpanGuard::begin("test", "filler", &[]);
    }
    let tail = collector::drain();
    collector::disarm();
    let text = std::fs::read_to_string(&path).expect("read streamed trace");
    std::fs::remove_file(&path).ok();
    let streamed = jsonl::parse(&text).expect("streamed trace parses");
    let raw_total =
        streamed.iter().chain(&tail).filter(|e| matches!(e, Event::Span { .. })).count();
    assert_eq!(raw_total, n, "a streaming run must keep every raw span");
    assert!(
        streamed.iter().chain(&tail).all(|e| !matches!(e, Event::TraceTruncated { .. })),
        "a streaming run spills — it must never emit a truncation marker"
    );
}

/// The flight-recorder ring holds exactly the most recent structured
/// run events, and — because everything in it derives from the virtual
/// clock and seeded streams, never wall time — its contents are bitwise
/// identical across same-seed runs.
#[test]
fn flight_ring_holds_most_recent_events_bitwise_deterministically() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ring_run = || {
        let (devices, test) = federation(9);
        let model = MultinomialLogistic::new(60, 10);
        collector::reset();
        collector::arm();
        let h = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg(RunnerKind::Network(NetRunnerOptions::default())),
        )
        .run()
        .expect("run");
        let ring = collector::flight_snapshot();
        let events = collector::drain();
        collector::disarm();
        (h, ring, events)
    };
    let (ha, ra, ea) = ring_run();
    let (hb, rb, _) = ring_run();
    assert!(!ha.diverged() && !hb.diverged());
    assert!(!ra.is_empty() && ra.len() <= collector::FLIGHT_RING_CAP);
    // This run is small enough that nothing was evicted: the ring is
    // exactly the structured run-event prefix of the drain, in order.
    assert_eq!(
        ra.as_slice(),
        &ea[..ra.len()],
        "ring does not match the run-event stream"
    );
    // Bitwise determinism, both in memory and through the codec.
    assert_eq!(ra, rb, "same-seed flight rings differ");
    assert_eq!(jsonl::to_jsonl(&ra), jsonl::to_jsonl(&rb));
    // Overflow the ring with a deterministic tail: it must keep exactly
    // the most recent FLIGHT_RING_CAP events.
    collector::reset();
    collector::arm();
    let extra = 17u32;
    let total = collector::FLIGHT_RING_CAP as u32 + extra;
    for i in 0..total {
        collector::record_event(Event::RoundEnd { round: i, sim_time_s: f64::from(i) });
    }
    let ring = collector::flight_snapshot();
    collector::drain();
    collector::disarm();
    assert_eq!(ring.len(), collector::FLIGHT_RING_CAP);
    assert!(matches!(ring[0], Event::RoundEnd { round, .. } if round == extra));
    assert!(
        matches!(ring[ring.len() - 1], Event::RoundEnd { round, .. } if round == total - 1)
    );
}

#[test]
fn drained_events_roundtrip_through_jsonl() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, events) = traced_run(RunnerKind::Sequential);
    assert!(!events.is_empty());
    let text = jsonl::to_jsonl(&events);
    let parsed = jsonl::parse(&text).expect("serialized trace failed to parse");
    assert_eq!(events, parsed, "JSONL encode/decode is not lossless");
}
