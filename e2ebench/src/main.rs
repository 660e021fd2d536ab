//! `fedprox-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it repeats untraced training runs until `--seconds`
//! have been spent in them, setting the workload up again at even steps,
//! and reports the end-to-end metrics: median set-up time, fastest
//! training run, peak resident memory and the final model's training
//! loss. With `--trace 1` it alternates untraced and traced runs for the
//! same time and reports the per-layer metrics. The last line of stdout
//! is one JSON object; README.md explains every metric.

mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;
use trace::Layer;
use workloads::{Fixture, Run};

/// Set-ups per untraced invocation; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest training runs an invocation makes, whatever `--seconds` says.
const MIN_RUNS: u64 = 3;
/// Fewest untraced/traced run pairs a traced invocation makes.
const MIN_TRACED_PAIRS: u64 = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The fastest of repeated runs of identical work: what the run costs
/// when nothing else on the host slows it (interference only adds time).
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bitwise equality of two models.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The output checks of one untraced run: no error, no divergence, the
/// same final model as the invocation's first run, and for that first
/// model a finite training loss below the initial model's. Returns the
/// final loss (bitwise-equal models share the first run's).
fn check_run(
    fixture: &dyn Fixture,
    run: Result<Run, String>,
    initial_loss: f64,
    reference: &mut Option<(Vec<f64>, f64)>,
) -> Result<f64, String> {
    let run = run?;
    if run.diverged {
        return Err("run diverged".into());
    }
    if let Some((model, loss)) = reference {
        if !same_bits(model, &run.final_model) {
            return Err("same-seed runs produced different final models".into());
        }
        return Ok(*loss);
    }
    let loss = fixture.loss(&run.final_model);
    if !loss.is_finite() || loss >= initial_loss {
        return Err(format!(
            "final loss {loss} is not below the initial {initial_loss}"
        ));
    }
    *reference = Some((run.final_model, loss));
    Ok(loss)
}

fn unknown(workload: &str) -> String {
    format!(
        "unknown workload {workload}; one of {}",
        workloads::NAMES.join(", ")
    )
}

type Metric = (&'static str, f64, &'static str);

struct Report {
    attempted: u64,
    failed: u64,
    /// The figures the JSON result carries.
    metrics: Vec<Metric>,
    /// Context printed beside them, not part of the result.
    info: Vec<Metric>,
}

/// Build the workload, appending the time it took to `setup_s`.
fn timed_setup(
    workload: &str,
    seed: u64,
    setup_s: &mut Vec<f64>,
) -> Result<Box<dyn Fixture>, String> {
    let t0 = Instant::now();
    let fixture = workloads::setup(workload, seed).ok_or_else(|| unknown(workload));
    setup_s.push(t0.elapsed().as_secs_f64());
    fixture
}

fn untraced(args: &Args) -> Result<Report, String> {
    let seed = workloads::library_seed(&args.workload, args.seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut fixture = timed_setup(&args.workload, seed, &mut setup_s)?;
    let initial_loss = fixture.loss(fixture.initial_model());

    let mut train_s = Vec::new();
    let mut final_loss = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference = None;
    let mut spent = 0.0;
    while spent < args.seconds || attempted < MIN_RUNS {
        // Set up again at even steps through the measured time, so the
        // set-ups see the same host as the runs. A rebuilt workload must
        // train to the same final model.
        let setups = setup_s.len();
        if setups < SETUP_REPS && spent >= setups as f64 * args.seconds / SETUP_REPS as f64 {
            drop(fixture);
            fixture = timed_setup(&args.workload, seed, &mut setup_s)?;
        }
        attempted += 1;
        let t0 = Instant::now();
        let run = fixture.train();
        let dt = t0.elapsed().as_secs_f64();
        spent += dt;
        match check_run(fixture.as_ref(), run, initial_loss, &mut reference) {
            Ok(loss) => {
                train_s.push(dt);
                final_loss.push(loss);
            }
            Err(e) => {
                eprintln!("run {attempted} failed: {e}");
                failed += 1;
            }
        }
    }
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setup_s), "s"),
            ("train_s", fastest(&train_s), "s"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
            ("final_loss", median(&final_loss), "nats"),
        ],
        info: vec![
            ("train_s.median", median(&train_s), "s"),
            ("train_s.runs", train_s.len() as f64, "count"),
        ],
    })
}

/// The round-time percentile with at least ten rounds beyond it, and
/// its rank as a percentage; the median when there are not eleven.
fn tail(sorted_ms: &[f64]) -> (f64, f64) {
    let n = sorted_ms.len();
    if n < 11 {
        return (median(sorted_ms), 50.0);
    }
    let i = n - 11;
    (sorted_ms[i], 100.0 * i as f64 / (n - 1) as f64)
}

fn traced(args: &Args) -> Result<Report, String> {
    let seed = workloads::library_seed(&args.workload, args.seed);
    let fixture = workloads::setup(&args.workload, seed).ok_or_else(|| unknown(&args.workload))?;
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    trace::arm();
    let mut spent = 0.0;
    while spent < args.seconds || attempted < 2 * MIN_TRACED_PAIRS {
        // Untraced reference run, then the traced run it must match.
        attempted += 2;
        let t0 = Instant::now();
        let plain = fixture.train();
        let dt_plain = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let traced = fixture.train_traced();
        let dt_traced = t0.elapsed().as_secs_f64();
        trace::drop_open();
        spent += dt_plain + dt_traced;
        let outcome = plain
            .and_then(|p| traced.map(|t| (p, t)))
            .and_then(|(p, t)| {
                if !same_bits(&p.final_model, &t.final_model) {
                    return Err("traced run's final model differs from the untraced run's".into());
                }
                if p.sampled != t.sampled {
                    return Err("replayed sampled ids differ from the engine's".into());
                }
                if p.diverged || t.diverged {
                    return Err("run diverged".into());
                }
                Ok(())
            });
        match outcome {
            Ok(()) => {
                plain_s.push(dt_plain);
                traced_s.push(dt_traced);
            }
            Err(e) => {
                eprintln!("traced pair failed: {e}");
                failed += 2;
            }
        }
    }
    let t = trace::disarm();
    if t.round_id_violations > 0 {
        // The trace's attribution is broken: count every traced run failed.
        eprintln!(
            "{} spans carried another round id than their parent",
            t.round_id_violations
        );
        failed = failed.max(attempted / 2);
    }

    // Every traced run left spans, the failed ones too.
    let runs = (attempted / 2).max(1) as f64;
    let mut round_ms: Vec<f64> = t.rounds.iter().map(|r| r.ns as f64 / 1e6).collect();
    round_ms.sort_by(f64::total_cmp);
    let (tail_ms, tail_pct) = tail(&round_ms);
    let n_rounds = t.rounds.len().max(1) as f64;
    let round_self_ms = t.rounds.iter().map(|r| r.self_ns as f64).sum::<f64>() / n_rounds / 1e6;
    let round_alloc = t.rounds.iter().map(|r| r.alloc_bytes as f64).sum::<f64>() / n_rounds / MIB;

    let per_call = |x: u64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            x as f64 / calls as f64
        }
    };
    let per_run_s = |ns: u64| ns as f64 / runs / 1e9;
    let du = t.layer(Layer::DeviceUpdate);
    let grad = t.layer(Layer::Grad);
    let eval = t.layer(Layer::Eval);
    let sample = t.layer(Layer::Sample);
    let pop = t.layer(Layer::Population);
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("core.round.p50_ms", median(&round_ms), "ms"),
            ("core.round.tail_ms", tail_ms, "ms"),
            ("core.round.tail_pct", tail_pct, "%"),
            ("core.round.n", t.rounds.len() as f64, "count"),
            ("core.round.self_ms", round_self_ms, "ms"),
            ("core.round.alloc_mib", round_alloc, "MiB"),
            ("core.device_update.calls", du.calls as f64 / runs, "count"),
            ("core.device_update.total_s", per_run_s(du.total_ns), "s"),
            (
                "core.device_update.self_ms",
                per_call(du.self_ns, du.calls) / 1e6,
                "ms",
            ),
            (
                "core.device_update.alloc_kib",
                per_call(du.alloc_bytes, du.calls) / 1024.0,
                "KiB",
            ),
            (
                "core.device_update.allocs",
                per_call(du.alloc_calls, du.calls),
                "count",
            ),
            (
                "core.aggregate.total_s",
                per_run_s(t.layer(Layer::Aggregate).total_ns),
                "s",
            ),
            ("core.eval.total_s", per_run_s(eval.total_ns), "s"),
            ("core.eval.self_s", per_run_s(eval.self_ns), "s"),
            ("models.grad.total_s", per_run_s(grad.total_ns), "s"),
            ("models.grad.samples", grad.samples as f64 / runs, "count"),
            (
                "models.grad.ns_per_sample",
                per_call(grad.total_ns, grad.samples),
                "ns",
            ),
            (
                "models.grad.anchor_share",
                per_call(grad.anchor_samples, grad.train_samples),
                "ratio",
            ),
            (
                "models.loss.total_s",
                per_run_s(t.layer(Layer::Loss).total_ns),
                "s",
            ),
            (
                "sim.sample.ms_per_call",
                per_call(sample.total_ns, sample.calls) / 1e6,
                "ms",
            ),
            (
                "sim.sample.alloc_mib_per_call",
                per_call(sample.alloc_bytes, sample.calls) / MIB,
                "MiB",
            ),
            (
                "sim.population.ms_per_round",
                pop.total_ns as f64 / n_rounds / 1e6,
                "ms",
            ),
            (
                "sim.population.alloc_mib_per_round",
                pop.alloc_bytes as f64 / n_rounds / MIB,
                "MiB",
            ),
            (
                "trace.overhead",
                fastest(&traced_s) / fastest(&plain_s) - 1.0,
                "ratio",
            ),
        ],
        info: vec![("traced_runs", traced_s.len() as f64, "count")],
    })
}

const MIB: f64 = 1024.0 * 1024.0;

fn json(report: &Report) -> String {
    let correct = report.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fedprox-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match report {
        Ok(r) => {
            for (name, value, unit) in r.metrics.iter().chain(&r.info) {
                println!(
                    "{:<38} {value:>16.6} {unit}",
                    format!("{}/{name}", args.workload)
                );
            }
            println!(
                "{:<38} {:>16} of {} failed",
                format!("{}/runs", args.workload),
                r.failed,
                r.attempted
            );
            println!("{}", json(&r));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fedprox-e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
