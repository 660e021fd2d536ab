//! `fedrun` — run a federated-learning experiment from a JSON spec.
//!
//! ```sh
//! cargo run --release -p fedprox-bench --bin fedrun -- spec.json [--out DIR]
//! ```
//!
//! Example spec:
//!
//! ```json
//! {
//!   "dataset": {"kind": "synthetic", "alpha": 1.0, "beta": 1.0},
//!   "model": {"kind": "logistic"},
//!   "algorithms": ["fedavg", "fedproxvr-svrg", "fedproxvr-sarah"],
//!   "devices": 10, "min_size": 40, "max_size": 150,
//!   "beta": 5.0, "tau": 10, "mu": 0.1, "batch": 8, "rounds": 60
//! }
//! ```

use fedprox_bench::report::{print_histories, write_json};
use fedprox_bench::spec::ExperimentSpec;
use fedprox_bench::{RunInfo, TraceSession};
use fedprox_core::History;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: fedrun SPEC.json [--out DIR] [--obs PATH]");
        std::process::exit(2);
    };
    let mut out = None;
    let mut obs_path = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next(),
            "--obs" => obs_path = args.next(),
            other => {
                eprintln!("fedrun: unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    // Spec parsing happens before the trace session starts so the run
    // ledger can digest the full spec text (it IS the configuration).
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("fedrun: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let spec = ExperimentSpec::from_json(&text).unwrap_or_else(|e| {
        eprintln!("fedrun: invalid spec: {e}");
        std::process::exit(2);
    });
    let info = RunInfo::new(format!("fedrun {text}"), spec.seed);
    let trace = TraceSession::start(obs_path.as_deref(), &info);

    let results = spec.run();
    let refs: Vec<(String, &History)> =
        results.iter().map(|(n, h)| (n.clone(), h)).collect();
    print_histories(&format!("fedrun: {path}"), &refs);

    if let Some(dir) = out {
        for (name, h) in &results {
            write_json(&dir, &format!("fedrun_{name}"), h);
        }
    }
    trace.finish();
}
