//! `fedobs`: read the one FedProxVR `--obs` stream — summary tables,
//! algorithm health, span-tree profiles, run ledgers, round timelines,
//! eq. (19) critical paths and post-mortem bundles.
//!
//! ```text
//! fedobs summary <run.jsonl> [--top N]            slowest ops, devices, bytes, counters
//! fedobs health [report] <run.jsonl> [--strict]   health summary + per-round timeline
//! fedobs health check <run.jsonl>                 health schema validation
//! fedobs health diff <base.jsonl> <cand.jsonl>    health regression view
//! fedobs prof report|flame <run.jsonl>            span-tree table / collapsed stacks
//! fedobs prof agg <run.jsonl>... [--check-deterministic]
//! fedobs ledger <run.jsonl>...                    list each file's run-ledger header
//! fedobs ledger diff <a.jsonl> <b.jsonl>          compare two runs' identities
//! fedobs timeline <run.jsonl>                     per-round per-device timeline
//! fedobs critpath <run.jsonl> [--json]            gating device + comm/compute split
//! fedobs postmortem <run.jsonl>                   bundle around the first trigger
//! ```
//!
//! Every view reads the same file and skips the event kinds it does not
//! use. Exit codes are CI-gateable: `health check` fails on schema
//! violations, `health diff` when the candidate raises anomalies the
//! baseline lacks, `health --strict` when any anomaly is present, `prof
//! agg --check-deterministic` when the deterministic columns (activation
//! counts, allocation totals) differ across runs, `ledger diff` when the
//! runs are not provably joinable, `ledger` on a file with no header,
//! and `postmortem` when the stream carries no trigger marker. Needs no
//! cargo features.

// CLI binary: aborting with context on a broken invocation or file is
// the intended error policy (fedlint exempts src/bin targets too).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use fedprox_obs::postmortem::{PostmortemBundle, POSTMORTEM_WINDOW};
use fedprox_obs::{RunLedger, Timeline};
use fedprox_telemetry::event::Event;
use fedprox_telemetry::jsonl;
use fedprox_telemetry::profile::{AggReport, ProfileReport};
use fedprox_telemetry::scope::{self, HealthReport};
use fedprox_telemetry::summary::TelemetryReport;
use std::process::ExitCode;

const USAGE: &str = "usage: fedobs summary <run.jsonl> [--top N]\n\
                     \u{20}      fedobs health [report] <run.jsonl> [--strict]\n\
                     \u{20}      fedobs health check <run.jsonl>\n\
                     \u{20}      fedobs health diff <baseline.jsonl> <candidate.jsonl>\n\
                     \u{20}      fedobs prof report|flame <run.jsonl>\n\
                     \u{20}      fedobs prof agg <run.jsonl>... [--check-deterministic]\n\
                     \u{20}      fedobs ledger <run.jsonl>...\n\
                     \u{20}      fedobs ledger diff <a.jsonl> <b.jsonl>\n\
                     \u{20}      fedobs timeline <run.jsonl>\n\
                     \u{20}      fedobs critpath <run.jsonl> [--json]\n\
                     \u{20}      fedobs postmortem <run.jsonl>";

enum Cmd {
    Summary { path: String, top: usize },
    Health { path: String, strict: bool },
    HealthCheck { path: String },
    HealthDiff { baseline: String, candidate: String },
    ProfReport { path: String },
    ProfFlame { path: String },
    ProfAgg { paths: Vec<String>, check: bool },
    Ledger { paths: Vec<String> },
    LedgerDiff { a: String, b: String },
    Timeline { path: String },
    Critpath { path: String, json: bool },
    Postmortem { path: String },
}

fn parse_args(argv: &[String]) -> Result<Cmd, String> {
    let mut flags: Vec<&str> = Vec::new();
    let mut top = 10usize;
    let mut words: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--top" => {
                let v = it.next().ok_or("--top requires a value")?;
                top = v.parse().map_err(|_| format!("bad --top value `{v}`"))?;
                flags.push("--top");
            }
            flag @ ("--json" | "--strict" | "--check-deterministic") => flags.push(flag),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"));
            }
            other => words.push(other),
        }
    }
    let has = |flag: &str| flags.contains(&flag);
    let owned = |paths: &[&str]| paths.iter().map(|p| p.to_string()).collect::<Vec<_>>();
    // Each subcommand with the flags it accepts.
    let (cmd, accepts): (Cmd, &[&str]) = match words.as_slice() {
        ["summary", path] => (Cmd::Summary { path: path.to_string(), top }, &["--top"]),
        ["health", "check", path] => (Cmd::HealthCheck { path: path.to_string() }, &[]),
        ["health", "diff", a, b] => {
            (Cmd::HealthDiff { baseline: a.to_string(), candidate: b.to_string() }, &[])
        }
        ["health", "report", path] => {
            (Cmd::Health { path: path.to_string(), strict: has("--strict") }, &["--strict"])
        }
        ["health", path] if !matches!(*path, "report" | "check" | "diff") => {
            (Cmd::Health { path: path.to_string(), strict: has("--strict") }, &["--strict"])
        }
        ["prof", "report", path] => (Cmd::ProfReport { path: path.to_string() }, &[]),
        ["prof", "flame", path] => (Cmd::ProfFlame { path: path.to_string() }, &[]),
        ["prof", "agg", paths @ ..] if paths.len() >= 2 => (
            Cmd::ProfAgg { paths: owned(paths), check: has("--check-deterministic") },
            &["--check-deterministic"],
        ),
        ["ledger", "diff", a, b] => (Cmd::LedgerDiff { a: a.to_string(), b: b.to_string() }, &[]),
        ["ledger", paths @ ..] if paths.first().is_some_and(|p| *p != "diff") => {
            (Cmd::Ledger { paths: owned(paths) }, &[])
        }
        ["timeline", path] => (Cmd::Timeline { path: path.to_string() }, &[]),
        ["critpath", path] => {
            (Cmd::Critpath { path: path.to_string(), json: has("--json") }, &["--json"])
        }
        ["postmortem", path] => (Cmd::Postmortem { path: path.to_string() }, &[]),
        _ => return Err(USAGE.to_string()),
    };
    match flags.iter().find(|flag| !accepts.contains(flag)) {
        Some(flag) => Err(format!("`{flag}` does not apply to this subcommand\n{USAGE}")),
        None => Ok(cmd),
    }
}

fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    jsonl::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(cmd: Cmd) -> Result<ExitCode, String> {
    match cmd {
        Cmd::Summary { path, top } => {
            print!("{}", TelemetryReport::from_events(&load(&path)?).render(top));
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Health { path, strict } => {
            let report = HealthReport::from_events(&load(&path)?);
            print!("{}", report.render());
            if strict && !report.anomalies.is_empty() {
                eprintln!("fedobs: --strict and {} anomalies present", report.anomalies.len());
                return Ok(ExitCode::FAILURE);
            }
            Ok(ExitCode::SUCCESS)
        }
        Cmd::HealthCheck { path } => {
            let report = HealthReport::from_events(&load(&path)?);
            let problems = report.validate();
            if problems.is_empty() {
                println!(
                    "health check: ok ({} samples, {} anomalies)",
                    report.samples.len(),
                    report.anomalies.len()
                );
                Ok(ExitCode::SUCCESS)
            } else {
                for p in &problems {
                    eprintln!("health check: {p}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        Cmd::HealthDiff { baseline, candidate } => {
            let base = HealthReport::from_events(&load(&baseline)?);
            let cand = HealthReport::from_events(&load(&candidate)?);
            let d = scope::diff(&base, &cand);
            print!("{}", d.render());
            Ok(if d.has_regression() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
        Cmd::ProfReport { path } => {
            print!("{}", ProfileReport::from_events(&load(&path)?).render_tree());
            Ok(ExitCode::SUCCESS)
        }
        Cmd::ProfFlame { path } => {
            print!("{}", ProfileReport::from_events(&load(&path)?).render_flame());
            Ok(ExitCode::SUCCESS)
        }
        Cmd::ProfAgg { paths, check } => {
            let profiles = paths
                .iter()
                .map(|p| load(p).map(|events| ProfileReport::from_events(&events)))
                .collect::<Result<Vec<_>, _>>()?;
            let agg = AggReport::from_profiles(&profiles);
            print!("{}", agg.render());
            if check {
                let bad = agg.deterministic_mismatches();
                if !bad.is_empty() {
                    eprintln!(
                        "fedobs: deterministic columns differ across runs on {} path(s):",
                        bad.len()
                    );
                    for row in bad {
                        eprintln!("  {} (in {}/{} runs)", row.path, row.runs, agg.runs);
                    }
                    return Ok(ExitCode::FAILURE);
                }
                println!("deterministic columns identical across {} runs", agg.runs);
            }
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Ledger { paths } => {
            let mut missing = false;
            for path in &paths {
                match RunLedger::from_events(&load(path)?) {
                    Some(l) => println!("{path}: {}", l.render_line()),
                    None => {
                        println!("{path}: no run-ledger header");
                        missing = true;
                    }
                }
            }
            Ok(if missing { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
        Cmd::LedgerDiff { a, b } => {
            let la = RunLedger::from_events(&load(&a)?)
                .ok_or_else(|| format!("{a}: no run-ledger header"))?;
            let lb = RunLedger::from_events(&load(&b)?)
                .ok_or_else(|| format!("{b}: no run-ledger header"))?;
            let diff = la.diff(&lb);
            if diff.is_empty() {
                println!("identical: {}", la.render_line());
                Ok(ExitCode::SUCCESS)
            } else {
                println!("runs differ on {} field(s):", diff.len());
                for (field, va, vb) in diff {
                    println!("  {field}: {va} != {vb}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        Cmd::Timeline { path } => {
            let t = Timeline::from_events(&load(&path)?);
            print!("{}", t.render_timeline());
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Critpath { path, json } => {
            let t = Timeline::from_events(&load(&path)?);
            if json {
                println!("{}", t.to_json());
            } else {
                print!("{}", t.render_critpath());
            }
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Postmortem { path } => {
            match PostmortemBundle::from_events(&load(&path)?, POSTMORTEM_WINDOW) {
                Some(b) => {
                    print!("{}", b.render());
                    Ok(ExitCode::SUCCESS)
                }
                None => Err(format!("{path}: no post-mortem marker in stream")),
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&argv) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(cmd) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fedobs: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_every_subcommand() {
        assert!(matches!(
            parse_args(&args(&["summary", "a.jsonl"])),
            Ok(Cmd::Summary { path, top: 10 }) if path == "a.jsonl"
        ));
        assert!(matches!(
            parse_args(&args(&["summary", "a.jsonl", "--top", "3"])),
            Ok(Cmd::Summary { top: 3, .. })
        ));
        assert!(matches!(
            parse_args(&args(&["health", "h.jsonl"])),
            Ok(Cmd::Health { path, strict: false }) if path == "h.jsonl"
        ));
        assert!(matches!(
            parse_args(&args(&["health", "report", "h.jsonl", "--strict"])),
            Ok(Cmd::Health { strict: true, .. })
        ));
        assert!(matches!(
            parse_args(&args(&["health", "check", "h.jsonl"])),
            Ok(Cmd::HealthCheck { path }) if path == "h.jsonl"
        ));
        assert!(matches!(
            parse_args(&args(&["health", "diff", "a.jsonl", "b.jsonl"])),
            Ok(Cmd::HealthDiff { baseline, candidate })
                if baseline == "a.jsonl" && candidate == "b.jsonl"
        ));
        assert!(matches!(
            parse_args(&args(&["prof", "report", "t.jsonl"])),
            Ok(Cmd::ProfReport { path }) if path == "t.jsonl"
        ));
        assert!(matches!(
            parse_args(&args(&["prof", "flame", "t.jsonl"])),
            Ok(Cmd::ProfFlame { path }) if path == "t.jsonl"
        ));
        assert!(matches!(
            parse_args(&args(&["prof", "agg", "a.jsonl", "b.jsonl", "--check-deterministic"])),
            Ok(Cmd::ProfAgg { paths, check: true }) if paths == ["a.jsonl", "b.jsonl"]
        ));
        assert!(matches!(
            parse_args(&args(&["ledger", "a.jsonl", "b.jsonl"])),
            Ok(Cmd::Ledger { paths }) if paths.len() == 2
        ));
        assert!(matches!(
            parse_args(&args(&["ledger", "diff", "a.jsonl", "b.jsonl"])),
            Ok(Cmd::LedgerDiff { .. })
        ));
        assert!(matches!(
            parse_args(&args(&["timeline", "a.jsonl"])),
            Ok(Cmd::Timeline { .. })
        ));
        assert!(matches!(
            parse_args(&args(&["critpath", "a.jsonl"])),
            Ok(Cmd::Critpath { json: false, .. })
        ));
        assert!(matches!(
            parse_args(&args(&["critpath", "a.jsonl", "--json"])),
            Ok(Cmd::Critpath { json: true, .. })
        ));
        assert!(matches!(
            parse_args(&args(&["postmortem", "a.jsonl"])),
            Ok(Cmd::Postmortem { .. })
        ));
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            &[][..],
            &["--nope"],
            &["frobnicate", "a.jsonl"],
            &["summary"],
            &["summary", "a", "b"],
            &["summary", "t", "--top", "x"],
            &["summary", "t", "--top"],
            &["health"],
            &["health", "check"],
            &["health", "check", "a", "b"],
            &["health", "diff", "a.jsonl"],
            &["health", "report", "a", "b"],
            &["prof", "nope", "t"],
            &["prof", "report"],
            &["prof", "report", "a", "b"],
            &["prof", "agg", "only-one.jsonl"],
            &["prof", "agg", "a", "b", "--nope"],
            &["ledger"],
            &["timeline"],
            &["timeline", "a", "b"],
            &["critpath", "a.jsonl", "--wat"],
            // A flag another subcommand owns is refused, not ignored.
            &["timeline", "a.jsonl", "--json"],
            &["health", "check", "a.jsonl", "--strict"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn ledger_diff_needs_exactly_two_files() {
        assert!(parse_args(&args(&["ledger", "diff", "a.jsonl"])).is_err());
        // Three positionals after `diff` do not silently truncate.
        assert!(parse_args(&args(&["ledger", "diff", "a", "b", "c"])).is_err());
    }
}
