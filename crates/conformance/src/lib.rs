//! `fedlint`: a dependency-free static conformance pass over the
//! FedProxVR workspace sources.
//!
//! The pass walks `crates/*/src/**.rs`, scans each file with a
//! string/comment-aware lexer ([`lexer`]), and enforces the workspace
//! rules R1–R5 (see [`Rule`]). Justified exceptions are annotated in
//! source as:
//!
//! ```text
//! // fedlint: allow(no-panic) — channel lifetime is scoped above
//! ```
//!
//! on the offending line or the line directly above it. The annotation
//! requires a rule id and a non-empty reason after an em dash (`—`) or
//! double hyphen (`--`). Allowed sites are counted and reported, never
//! silently dropped.

pub mod callgraph;
pub mod engine;
pub mod json;
pub mod lexer;
pub mod manifest;
pub mod parser;

use lexer::ScannedFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// The workspace conformance rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1 `no-panic`: no `unwrap()` / `expect()` / `panic!` / `todo!` /
    /// `unimplemented!` in library code.
    NoPanic,
    /// R2 `no-ambient-entropy`: no `thread_rng()` / `from_entropy()` /
    /// `SystemTime::now()` — all randomness and time must be injected.
    NoAmbientEntropy,
    /// R3 `no-debug-print`: no `println!` / `eprintln!` / `dbg!` in
    /// library code (binaries and the bench harness are exempt).
    NoDebugPrint,
    /// R4 `safety-comment`: every `unsafe` must be preceded by a
    /// `// SAFETY:` comment.
    SafetyComment,
    /// R5 `lossy-cast`: no `as f32` / `as usize` narrowing casts in
    /// tensor hot paths unless annotated.
    LossyCast,
    /// R6 `no-wall-clock`: no `std::time::Instant` / `SystemTime` outside
    /// the telemetry collector and the net backend's virtual clock — wall
    /// time anywhere else silently breaks bitwise reproducibility.
    WallClock,
    /// D1 `unordered-iteration`: `HashMap` / `HashSet` in strict-path
    /// crates — iteration order is seeded per-process, so any float
    /// reduction or ordered output over them breaks bitwise replay. Use
    /// `BTreeMap` / `BTreeSet` or sorted keys.
    UnorderedIteration,
    /// D2 `spawn-ordering`: a `spawn(...)` call in a strict-path crate —
    /// results collected from threads in completion order are
    /// nondeterministic; collection must be keyed by a stable id.
    SpawnOrdering,
    /// D3 `unordered-float-reduction`: a float reduction (`sum` / `fold`
    /// / `product`) over an unordered container's iterator inside a
    /// function that handles `HashMap` / `HashSet` — float addition is
    /// non-associative, so the result depends on iteration order.
    UnorderedFloatReduction,
    /// P1 `panic-path`: a panic site (`unwrap` / `expect` / `panic!` /
    /// `todo!` / `unimplemented!`) *reachable from a public API* of a
    /// strict-path crate, reported with the shortest call chain. Unlike
    /// R1's line-local view, an unreachable panic site is not flagged.
    PanicPath,
    /// P2 `index-panic`: slice/collection indexing (`x[i]`) reachable
    /// from a public API in `net` / `core` — an out-of-bounds index
    /// panics across the device-actor boundary instead of surfacing a
    /// typed `NetError`.
    IndexPanic,
    /// F1 `unknown-feature`: a `cfg(feature = "…")` name that does not
    /// exist in the owning crate's `Cargo.toml` — the gated code is
    /// silently dead.
    UnknownFeature,
    /// F2 `feature-chain`: a `Cargo.toml` feature entry that references a
    /// missing dependency or a feature the dependency does not define —
    /// the facade→crate forwarding chain is broken.
    FeatureChain,
    /// F3 `clippy-allow-sync`: an `#[allow(clippy::unwrap_used)]` /
    /// `#[allow(clippy::expect_used)]` in library code without an
    /// adjacent `fedlint: allow(no-panic)` annotation — the two
    /// escape-hatch grammars must stay in sync so every allowance
    /// carries a written justification.
    ClippyAllowSync,
    /// F4 `telemetry-gate`: a runtime collector call (`collector::arm`,
    /// `collector::drain`, probe installs, …) in non-telemetry library
    /// code without an enclosing `feature = "telemetry"` cfg gate —
    /// profiling hooks (`--obs` wiring, alloc probes, streaming sinks)
    /// must compile out of default builds entirely, not linger
    /// half-armed behind a runtime flag alone.
    TelemetryGate,
    /// F5 `event-fixture-sync`: an `Event` variant in
    /// `crates/telemetry/src/event.rs` with no `Event::<Variant>`
    /// construction inside `fn sample_events` in `jsonl.rs` — the codec
    /// round-trip suite exercises exactly the fixture list, so a variant
    /// missing from it ships with an untested serializer/parser pair.
    EventFixtureSync,
}

/// Every rule, in stable report order.
pub const ALL_RULES: [Rule; 16] = [
    Rule::NoPanic,
    Rule::NoAmbientEntropy,
    Rule::NoDebugPrint,
    Rule::SafetyComment,
    Rule::LossyCast,
    Rule::WallClock,
    Rule::UnorderedIteration,
    Rule::SpawnOrdering,
    Rule::UnorderedFloatReduction,
    Rule::PanicPath,
    Rule::IndexPanic,
    Rule::UnknownFeature,
    Rule::FeatureChain,
    Rule::ClippyAllowSync,
    Rule::TelemetryGate,
    Rule::EventFixtureSync,
];

impl Rule {
    /// The stable rule id used in reports and allow annotations.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::NoAmbientEntropy => "no-ambient-entropy",
            Rule::NoDebugPrint => "no-debug-print",
            Rule::SafetyComment => "safety-comment",
            Rule::LossyCast => "lossy-cast",
            Rule::WallClock => "no-wall-clock",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::SpawnOrdering => "spawn-ordering",
            Rule::UnorderedFloatReduction => "unordered-float-reduction",
            Rule::PanicPath => "panic-path",
            Rule::IndexPanic => "index-panic",
            Rule::UnknownFeature => "unknown-feature",
            Rule::FeatureChain => "feature-chain",
            Rule::ClippyAllowSync => "clippy-allow-sync",
            Rule::TelemetryGate => "telemetry-gate",
            Rule::EventFixtureSync => "event-fixture-sync",
        }
    }

    /// Parse an id as written inside `allow(...)`.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }
}

/// A set of enabled rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleSet {
    rules: [bool; ALL_RULES.len()],
}

impl RuleSet {
    /// The empty set.
    pub fn none() -> Self {
        RuleSet::default()
    }

    /// Every rule enabled. (The line-local [`check_source`] pass acts
    /// only on R1–R6; the D/P/F families are evaluated by the
    /// [`engine`], which scopes them itself.)
    pub fn all() -> Self {
        RuleSet { rules: [true; ALL_RULES.len()] }
    }

    /// Add a rule (builder style).
    pub fn with(mut self, rule: Rule) -> Self {
        self.rules[Self::idx(rule)] = true;
        self
    }

    /// Remove a rule (builder style).
    pub fn without(mut self, rule: Rule) -> Self {
        self.rules[Self::idx(rule)] = false;
        self
    }

    /// Whether a rule is enabled.
    pub fn contains(&self, rule: Rule) -> bool {
        self.rules[Self::idx(rule)]
    }

    fn idx(rule: Rule) -> usize {
        // ALL_RULES is tiny and const; a linear scan keeps the enum and
        // the index in sync by construction.
        ALL_RULES.iter().position(|r| *r == rule).unwrap_or(0)
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// Path as reported (workspace-relative when walking a workspace).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description of the match.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}:{}: {}", self.rule.id(), self.file, self.line, self.message)
    }
}

/// An annotated (allowed) site: a would-be violation justified in source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedSite {
    /// The rule the annotation suppresses.
    pub rule: Rule,
    /// Path as reported.
    pub file: String,
    /// 1-indexed line of the suppressed site.
    pub line: usize,
    /// The justification text after the dash.
    pub reason: String,
}

/// Result of checking one file or a whole workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Hard violations (fail the run).
    pub violations: Vec<Violation>,
    /// Annotated sites that were suppressed.
    pub allowed: Vec<AllowedSite>,
    /// Malformed `fedlint:` annotations (fail the run too — a typo in an
    /// annotation must not silently re-enable a violation).
    pub bad_annotations: Vec<Violation>,
}

impl Report {
    /// Whether the checked sources are clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.bad_annotations.is_empty()
    }

    fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.allowed.extend(other.allowed);
        self.bad_annotations.extend(other.bad_annotations);
    }
}

/// Rules that apply to a crate's library sources, by crate directory name.
///
/// * `tensor` carries every rule including the hot-path cast rule R5.
/// * `net`, `core`, `optim`, `conformance` are panic-free library crates.
/// * `data`, `models` predate the no-panic conversion and carry R2–R4.
/// * `bench` is an experiment harness (it prints and seeds by design):
///   only the `unsafe` hygiene rule applies.
/// * `telemetry` is the one place allowed to read the wall clock (its
///   span guards time real work), so it drops R6; `net`'s virtual-clock
///   module gets a per-file R6 exemption in [`check_workspace`].
pub fn rules_for_crate(crate_dir: &str) -> RuleSet {
    match crate_dir {
        "tensor" => RuleSet::all(),
        "net" | "core" | "optim" | "conformance" => RuleSet::all().without(Rule::LossyCast),
        "telemetry" => RuleSet::all().without(Rule::LossyCast).without(Rule::WallClock),
        "data" | "models" => {
            RuleSet::none()
                .with(Rule::NoAmbientEntropy)
                .with(Rule::NoDebugPrint)
                .with(Rule::SafetyComment)
                .with(Rule::WallClock)
        }
        "bench" => RuleSet::none().with(Rule::SafetyComment).with(Rule::WallClock),
        // The benchmark harness must read the wall clock (that is its job)
        // and casts timing/alloc counters to f64 by design; the allocator
        // wrapper's `unsafe` still requires SAFETY comments.
        "perfbench" => {
            RuleSet::none()
                .with(Rule::NoAmbientEntropy)
                .with(Rule::NoDebugPrint)
                .with(Rule::SafetyComment)
        }
        // Unknown crates get the conservative library default.
        _ => RuleSet::all().without(Rule::LossyCast),
    }
}

// ---------------------------------------------------------------------------
// Annotation parsing
// ---------------------------------------------------------------------------

/// A parsed `fedlint: allow(rule) — reason` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Annotation {
    rule: Rule,
    reason: String,
}

/// Parse an annotation out of a comment's text, if present.
/// Returns `Some(Err(msg))` for a malformed annotation.
fn parse_annotation(comment: &str) -> Option<Result<Annotation, String>> {
    let rest = comment.trim().strip_prefix("fedlint:")?.trim_start();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Some(Err("expected `allow(<rule>)` after `fedlint:`".to_string()));
    };
    let Some(close) = args.find(')') else {
        return Some(Err("unclosed `allow(` in fedlint annotation".to_string()));
    };
    let rule_id = args[..close].trim();
    let Some(rule) = Rule::from_id(rule_id) else {
        return Some(Err(format!("unknown rule `{rule_id}` in fedlint annotation")));
    };
    let after = args[close + 1..].trim_start();
    let reason = after
        .strip_prefix('\u{2014}') // em dash
        .or_else(|| after.strip_prefix("--"))
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        return Some(Err(format!(
            "fedlint allow({rule_id}) requires a reason after `—` (or `--`)"
        )));
    }
    Some(Ok(Annotation { rule, reason: reason.to_string() }))
}

// ---------------------------------------------------------------------------
// Word-level matching helpers (operate on masked code)
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of whole-word occurrences of `word` in `line`.
fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let start = from + rel;
        let end = start + word.len();
        let before_ok = line[..start].chars().next_back().is_none_or(|c| !is_ident_char(c));
        let after_ok = line[end..].chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            out.push(start);
        }
        from = end;
    }
    out
}

/// Whether `word` at `pos` is a method call: preceded (modulo spaces) by
/// `.` and followed (modulo spaces) by `(`.
fn is_method_call(line: &str, pos: usize, word: &str) -> bool {
    let before = line[..pos].trim_end();
    let after = line[pos + word.len()..].trim_start();
    before.ends_with('.') && after.starts_with('(')
}

/// Whether `word` at `pos` is a macro invocation (`word!`).
fn is_macro_call(line: &str, pos: usize, word: &str) -> bool {
    line[pos + word.len()..].trim_start().starts_with('!')
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` item skipping
// ---------------------------------------------------------------------------

/// Mark lines belonging to `#[cfg(test)]` items (inline test modules and
/// test-only functions). Returns a per-line boolean, 0-indexed. Works on
/// masked lines so braces inside strings/comments cannot desynchronise
/// the match.
fn test_item_lines(masked_lines: &[&str]) -> Vec<bool> {
    let mut skip = vec![false; masked_lines.len()];
    let mut i = 0;
    while i < masked_lines.len() {
        if masked_lines[i].trim() == "#[cfg(test)]" {
            // Skip attribute lines, then the item with its brace block.
            let mut j = i;
            skip[j] = true;
            j += 1;
            // Further attributes between cfg(test) and the item.
            while j < masked_lines.len() && masked_lines[j].trim_start().starts_with("#[") {
                skip[j] = true;
                j += 1;
            }
            // Find the opening brace, then its match.
            let mut depth = 0i64;
            let mut opened = false;
            while j < masked_lines.len() {
                skip[j] = true;
                for c in masked_lines[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && depth == 0 => {
                            // e.g. `#[cfg(test)] use …;` — item ends here.
                            opened = true;
                            depth = 0;
                        }
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    skip
}

// ---------------------------------------------------------------------------
// The per-file check
// ---------------------------------------------------------------------------

/// Check one file's source text against a rule set. `display_path` is
/// used verbatim in the report.
pub fn check_source(display_path: &str, source: &str, rules: RuleSet) -> Report {
    let scanned: ScannedFile = lexer::scan(source);
    let lines = scanned.masked_lines();
    let in_test_item = test_item_lines(&lines);

    // Collect annotations by the line they cover (their own line, and the
    // line after — an annotation on its own line covers the next line).
    let mut annotations: Vec<(usize, Annotation)> = Vec::new();
    let mut report = Report::default();
    for comment in &scanned.comments {
        match parse_annotation(&comment.text) {
            None => {}
            Some(Ok(ann)) => annotations.push((comment.line, ann)),
            Some(Err(msg)) => report.bad_annotations.push(Violation {
                rule: Rule::NoPanic, // placeholder rule; message carries the detail
                file: display_path.to_string(),
                line: comment.line,
                message: format!("malformed fedlint annotation: {msg}"),
            }),
        }
    }

    let push = |rule: Rule, line: usize, message: String, report: &mut Report| {
        // A matching annotation on the same line or the line above
        // converts the violation into an allowed site.
        if let Some((_, ann)) = annotations
            .iter()
            .find(|(l, a)| (*l == line || *l + 1 == line) && a.rule == rule)
        {
            report.allowed.push(AllowedSite {
                rule,
                file: display_path.to_string(),
                line,
                reason: ann.reason.clone(),
            });
        } else {
            report.violations.push(Violation {
                rule,
                file: display_path.to_string(),
                line,
                message,
            });
        }
    };

    for (idx, raw_line) in lines.iter().enumerate() {
        if in_test_item[idx] {
            continue;
        }
        let line_no = idx + 1;
        let line = *raw_line;

        if rules.contains(Rule::NoPanic) {
            for word in ["unwrap", "expect"] {
                for pos in word_positions(line, word) {
                    if is_method_call(line, pos, word) {
                        push(
                            Rule::NoPanic,
                            line_no,
                            format!("`.{word}()` in library code"),
                            &mut report,
                        );
                    }
                }
            }
            for mac in ["panic", "todo", "unimplemented"] {
                for pos in word_positions(line, mac) {
                    if is_macro_call(line, pos, mac) {
                        push(
                            Rule::NoPanic,
                            line_no,
                            format!("`{mac}!` in library code"),
                            &mut report,
                        );
                    }
                }
            }
        }

        if rules.contains(Rule::NoAmbientEntropy) {
            for word in ["thread_rng", "from_entropy"] {
                for _pos in word_positions(line, word) {
                    push(
                        Rule::NoAmbientEntropy,
                        line_no,
                        format!("`{word}` draws ambient entropy; inject a seeded RNG"),
                        &mut report,
                    );
                }
            }
            for pos in word_positions(line, "SystemTime") {
                if line[pos..].starts_with("SystemTime::now") {
                    push(
                        Rule::NoAmbientEntropy,
                        line_no,
                        "`SystemTime::now()` breaks reproducibility; use the virtual clock"
                            .to_string(),
                        &mut report,
                    );
                }
            }
        }

        if rules.contains(Rule::NoDebugPrint) {
            for mac in ["println", "eprintln", "dbg"] {
                for pos in word_positions(line, mac) {
                    if is_macro_call(line, pos, mac) {
                        push(
                            Rule::NoDebugPrint,
                            line_no,
                            format!("`{mac}!` in library code"),
                            &mut report,
                        );
                    }
                }
            }
        }

        if rules.contains(Rule::SafetyComment) {
            for _pos in word_positions(line, "unsafe") {
                let has_safety = scanned
                    .comments
                    .iter()
                    .any(|c| {
                        (c.line + 1 == line_no || c.line == line_no)
                            && c.text.trim_start().starts_with("SAFETY:")
                    });
                if !has_safety {
                    push(
                        Rule::SafetyComment,
                        line_no,
                        "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
                        &mut report,
                    );
                }
            }
        }

        if rules.contains(Rule::WallClock) {
            for word in ["Instant", "SystemTime"] {
                for _pos in word_positions(line, word) {
                    push(
                        Rule::WallClock,
                        line_no,
                        format!(
                            "`{word}` reads the wall clock; only fedprox-telemetry and the \
                             net virtual clock may (everything else uses simulated time)"
                        ),
                        &mut report,
                    );
                }
            }
        }

        if rules.contains(Rule::LossyCast) {
            for target in ["f32", "usize"] {
                for pos in word_positions(line, target) {
                    let before = line[..pos].trim_end();
                    if before.ends_with("as")
                        && before[..before.len() - 2]
                            .chars()
                            .next_back()
                            .is_none_or(|c| !is_ident_char(c))
                    {
                        push(
                            Rule::LossyCast,
                            line_no,
                            format!("lossy `as {target}` cast in tensor hot path"),
                            &mut report,
                        );
                    }
                }
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d)?;
        for entry in entries {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Check every `crates/*/src/**.rs` under `workspace_root`. Test files
/// (`tests/`, `benches/`, `examples/`) are out of scope by construction;
/// binaries under `src/bin/` are exempt from the debug-print rule.
pub fn check_workspace(workspace_root: &Path) -> std::io::Result<Report> {
    let crates_dir = workspace_root.join("crates");
    let mut report = Report::default();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let base_rules = rules_for_crate(&name);
        for file in rust_files(&src)? {
            let mut rules = base_rules;
            // Binaries own their stdout: they may print.
            if file.strip_prefix(&src).is_ok_and(|rel| rel.starts_with("bin")) {
                rules = rules.without(Rule::NoDebugPrint);
            }
            // The virtual clock is the net backend's one sanctioned
            // time module (it defines simulated time itself).
            if name == "net"
                && file.strip_prefix(&src).is_ok_and(|rel| rel == Path::new("clock.rs"))
            {
                rules = rules.without(Rule::WallClock);
            }
            let source = std::fs::read_to_string(&file)?;
            let display = file
                .strip_prefix(workspace_root)
                .unwrap_or(&file)
                .to_string_lossy()
                .into_owned();
            report.merge(check_source(&display, &source, rules));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_grammar() {
        let ok = parse_annotation("fedlint: allow(no-panic) — scoped above").unwrap().unwrap();
        assert_eq!(ok.rule, Rule::NoPanic);
        assert_eq!(ok.reason, "scoped above");
        let ok2 = parse_annotation("fedlint: allow(lossy-cast) -- bounded index").unwrap().unwrap();
        assert_eq!(ok2.rule, Rule::LossyCast);
        assert!(parse_annotation("fedlint: allow(no-panic)").unwrap().is_err());
        assert!(parse_annotation("fedlint: allow(nope) — x").unwrap().is_err());
        assert!(parse_annotation("fedlint: deny(no-panic)").unwrap().is_err());
        assert!(parse_annotation("just a comment").is_none());
    }

    #[test]
    fn rule_ids_roundtrip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("not-a-rule"), None);
    }

    #[test]
    fn telemetry_crate_is_exempt_from_wall_clock() {
        assert!(!rules_for_crate("telemetry").contains(Rule::WallClock));
        assert!(rules_for_crate("telemetry").contains(Rule::NoPanic));
        for lib_crate in ["tensor", "net", "core", "optim", "data", "models", "bench"] {
            assert!(
                rules_for_crate(lib_crate).contains(Rule::WallClock),
                "{lib_crate} must carry no-wall-clock"
            );
        }
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "\
fn lib() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { Some(1).unwrap(); }\n\
}\n";
        let report = check_source("x.rs", src, RuleSet::all());
        assert!(report.is_clean(), "{:?}", report.violations);
    }
}
