//! `fedresil` — run a seeded fault-injection scenario and report how the
//! run degraded: per-round participation, skipped rounds, crashed
//! devices, and the usual convergence curve.
//!
//! ```sh
//! cargo run --release -p fedprox-bench --bin fedresil -- \
//!     --devices 4 --rounds 6 --seed 11 --crash 1:3 --flaky 2:0.2:1:6
//! ```
//!
//! Fault flags are repeatable and use 1-based global rounds, matching
//! the fault-schedule DSL:
//!
//! * `--crash DEV:ROUND` — device dies permanently at ROUND,
//! * `--offline DEV:FROM:TO` — device sits out rounds FROM..=TO,
//! * `--slow DEV:MULT:FROM:TO` — compute multiplier over a window,
//! * `--flaky DEV:PROB:FROM:TO` — per-attempt link drop probability,
//! * `--random-plan` — a seeded random plan over the whole horizon.
//!
//! `--expect-crashed N` / `--expect-skipped N` turn the run into a
//! check: the process exits non-zero when the recorded participation
//! disagrees, which is how CI's `fedobs-smoke` stage uses it.


// CLI binary: aborting with context on a broken invocation or run is
// the intended error policy (fedlint exempts src/bin targets too).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use fedprox_bench::report::write_json;
use fedprox_bench::spec::parse_algorithm;
use fedprox_bench::{synthetic_federation, RunInfo, TraceSession};
use fedprox_core::config::NetRunnerOptions;
use fedprox_core::{FedConfig, RunnerKind};
use fedprox_faults::{summarize, FaultPlan, FaultRates, QuorumPolicy, Resilience, RetryPolicy};
use fedprox_models::MultinomialLogistic;
use fedprox_net::NetOptions;

// Exiting with a diagnostic is the intended CLI behaviour here, not a
// disguised panic path.
#[allow(clippy::exit)]
fn fail(msg: &str) -> ! {
    eprintln!("fedresil: {msg}");
    std::process::exit(2);
}

#[allow(clippy::exit)]
fn usage() -> ! {
    eprintln!(
        "usage: fedresil [--devices N] [--rounds T] [--seed S] [--algorithm NAME]\n\
         \x20               [--backend net|sequential] [--sec-per-grad-eval S]\n\
         \x20               [--crash DEV:ROUND]... [--offline DEV:FROM:TO]...\n\
         \x20               [--slow DEV:MULT:FROM:TO]... [--flaky DEV:PROB:FROM:TO]...\n\
         \x20               [--random-plan] [--drop-prob P] [--deadline SECONDS]\n\
         \x20               [--quorum-weight F] [--quorum-count N]\n\
         \x20               [--retries N] [--backoff BASE:CAP]\n\
         \x20               [--out DIR] [--obs PATH] [--expect-crashed N] [--expect-skipped N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    match s.parse::<T>() {
        Ok(v) => v,
        Err(_) => fail(&format!("cannot parse {what} from '{s}'")),
    }
}

fn parts<'a>(spec: &'a str, n: usize, what: &str) -> Vec<&'a str> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != n {
        fail(&format!("{what} wants {n} ':'-separated fields, got '{spec}'"));
    }
    parts
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(v) => v,
        None => fail(&format!("{flag} needs a value")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut devices = 4usize;
    let mut rounds = 8usize;
    let mut seed = 0u64;
    let mut algorithm = String::from("fedproxvr-svrg");
    let mut backend = String::from("net");
    let mut sec_per_grad_eval = 1e-6f64;
    let mut plan = FaultPlan::new();
    let mut random_plan = false;
    let mut drop_prob = 0.0f64;
    let mut deadline = None;
    let mut quorum = QuorumPolicy::default();
    let mut retry = RetryPolicy::default();
    let mut out = None;
    let mut obs_path = None;
    let mut expect_crashed = None;
    let mut expect_skipped = None;

    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--devices" => devices = parse(&next_value(&mut args, "--devices"), "device count"),
            "--rounds" => rounds = parse(&next_value(&mut args, "--rounds"), "round count"),
            "--seed" => seed = parse(&next_value(&mut args, "--seed"), "seed"),
            "--algorithm" => algorithm = next_value(&mut args, "--algorithm"),
            "--backend" => backend = next_value(&mut args, "--backend"),
            "--sec-per-grad-eval" => {
                sec_per_grad_eval =
                    parse(&next_value(&mut args, "--sec-per-grad-eval"), "seconds")
            }
            "--crash" => {
                let v = next_value(&mut args, "--crash");
                let p = parts(&v, 2, "--crash");
                plan = plan.crash(parse(p[0], "device"), parse(p[1], "round"));
            }
            "--offline" => {
                let v = next_value(&mut args, "--offline");
                let p = parts(&v, 3, "--offline");
                plan = plan.offline(
                    parse(p[0], "device"),
                    parse(p[1], "from-round"),
                    parse(p[2], "to-round"),
                );
            }
            "--slow" => {
                let v = next_value(&mut args, "--slow");
                let p = parts(&v, 4, "--slow");
                plan = plan.slow(
                    parse(p[0], "device"),
                    parse(p[1], "multiplier"),
                    parse(p[2], "from-round"),
                    parse(p[3], "to-round"),
                );
            }
            "--flaky" => {
                let v = next_value(&mut args, "--flaky");
                let p = parts(&v, 4, "--flaky");
                plan = plan.flaky(
                    parse(p[0], "device"),
                    parse(p[1], "drop probability"),
                    parse(p[2], "from-round"),
                    parse(p[3], "to-round"),
                );
            }
            "--random-plan" => random_plan = true,
            "--drop-prob" => {
                drop_prob = parse(&next_value(&mut args, "--drop-prob"), "probability")
            }
            "--deadline" => {
                deadline = Some(parse(&next_value(&mut args, "--deadline"), "deadline"))
            }
            "--quorum-weight" => {
                quorum.min_weight =
                    parse(&next_value(&mut args, "--quorum-weight"), "weight fraction")
            }
            "--quorum-count" => {
                quorum.min_responders =
                    parse(&next_value(&mut args, "--quorum-count"), "responder count")
            }
            "--retries" => {
                retry.max_retries = parse(&next_value(&mut args, "--retries"), "retry count")
            }
            "--backoff" => {
                let v = next_value(&mut args, "--backoff");
                let p = parts(&v, 2, "--backoff");
                retry.base_backoff_s = parse(p[0], "base backoff");
                retry.max_backoff_s = parse(p[1], "backoff cap");
            }
            "--out" => out = Some(next_value(&mut args, "--out")),
            "--obs" => obs_path = Some(next_value(&mut args, "--obs")),
            "--expect-crashed" => {
                expect_crashed =
                    Some(parse::<usize>(&next_value(&mut args, "--expect-crashed"), "count"))
            }
            "--expect-skipped" => {
                expect_skipped =
                    Some(parse::<usize>(&next_value(&mut args, "--expect-skipped"), "count"))
            }
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown flag '{other}' (try --help)")),
        }
    }
    if devices == 0 || rounds == 0 {
        fail("--devices and --rounds must be positive");
    }
    if random_plan {
        if !plan.faults.is_empty() {
            fail("--random-plan cannot be combined with explicit fault flags");
        }
        plan = FaultPlan::random(seed, devices, rounds, &FaultRates::default());
    }

    // The ledger's fault digest covers the *expanded* plan, so a
    // `--random-plan` run and its explicit-flag replay hash the same.
    let info = RunInfo::new(
        format!(
            "fedresil devices={devices} rounds={rounds} seed={seed} \
             algorithm={algorithm} backend={backend} drop_prob={drop_prob}"
        ),
        seed,
    )
    .with_faults(format!("{:?}", plan.faults));
    let trace = TraceSession::start(obs_path.as_deref(), &info);

    let Some(alg) = parse_algorithm(&algorithm) else {
        fail(&format!("unknown algorithm '{algorithm}'"));
    };
    let mut resilience = Resilience::with_plan(plan).with_quorum(quorum);
    if let Some(d) = deadline {
        resilience = resilience.with_deadline(d);
    }
    let runner = match backend.as_str() {
        "net" => RunnerKind::Network(NetRunnerOptions {
            net: NetOptions { drop_prob, retry, seed, ..NetOptions::default() },
            sec_per_grad_eval,
        }),
        "sequential" => RunnerKind::Sequential,
        other => fail(&format!("unknown backend '{other}' (net|sequential)")),
    };

    let fed = synthetic_federation(1.0, 1.0, devices, 40, 120, seed);
    let model = MultinomialLogistic::new(fed.test.dim(), fed.test.num_classes());
    let cfg = FedConfig::new(alg)
        .with_rounds(rounds)
        .with_seed(seed)
        .with_resilience(resilience)
        .with_runner(runner);
    let h = fedprox_core::FederatedTrainer::new(&model, &fed.devices, &fed.test, cfg).run().expect("run");

    println!("== fedresil: {} devices, {} rounds, seed {seed} ==", devices, rounds);
    println!(
        "{:>6} | {:>9} {:>7} {:>7} {:>13} {:>11} | {:>7} | skipped",
        "round", "responded", "crashed", "offline", "deadline_miss", "link_failed", "weight"
    );
    for p in &h.participation {
        println!(
            "{:>6} | {:>9} {:>7} {:>7} {:>13} {:>11} | {:>7.4} | {}",
            p.round,
            p.responders(),
            p.count(fedprox_faults::DeviceOutcome::Crashed),
            p.count(fedprox_faults::DeviceOutcome::Offline),
            p.count(fedprox_faults::DeviceOutcome::DeadlineMiss),
            p.count(fedprox_faults::DeviceOutcome::LinkFailed),
            p.responder_weight,
            if p.skipped { "yes" } else { "" },
        );
    }
    let s = summarize(&h.participation);
    println!(
        "-- {} rounds: {} skipped, {} crashed device(s), mean responding weight {:.4}, \
         {} deadline miss(es), {} link failure(s)",
        s.rounds,
        s.skipped_rounds,
        s.crashed_devices,
        s.mean_responder_weight,
        s.deadline_misses,
        s.link_failures
    );
    println!(
        "-- final loss {}, best acc {:.2}%, diverged: {}, sim time {:.3}s",
        h.final_loss().map_or("n/a".into(), |l| format!("{l:.5}")),
        h.best_accuracy() * 100.0,
        h.diverged(),
        h.total_sim_time
    );

    if let Some(dir) = out {
        write_json(&dir, &format!("fedresil_seed{seed}"), &h);
    }
    trace.finish();

    let mut bad = false;
    if let Some(want) = expect_crashed {
        if s.crashed_devices != want {
            eprintln!("fedresil: expected {want} crashed device(s), recorded {}", s.crashed_devices);
            bad = true;
        }
    }
    if let Some(want) = expect_skipped {
        if s.skipped_rounds != want {
            eprintln!("fedresil: expected {want} skipped round(s), recorded {}", s.skipped_rounds);
            bad = true;
        }
    }
    if h.diverged() {
        eprintln!("fedresil: run diverged");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
}
