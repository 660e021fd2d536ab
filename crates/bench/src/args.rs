//! Minimal CLI argument handling shared by the experiment binaries.

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Shape-preserving reduction: few devices, short horizon; finishes
    /// in seconds. The default.
    Small,
    /// The paper's sizes (100 devices for convex, 10 for CNN, T ≈ 800+).
    Paper,
}

/// Options common to all experiment binaries.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Scale preset.
    pub scale: Scale,
    /// Override the number of global rounds (applies after the preset).
    pub rounds: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Directory for JSON output (created if missing); `None` = print only.
    pub out: Option<String>,
    /// Stream the run's observability record (run-ledger header, every
    /// raw event, then the aggregate tail; read by the `fedobs` binary)
    /// to this path. Requires the `telemetry` feature; warns and stays
    /// off otherwise. Default off.
    pub obs: Option<String>,
    /// Run on the simulated-network backend instead of the in-process
    /// parallel runner. Math is bit-identical (see
    /// `tests/bit_identical_backends`-style guarantees); the networked
    /// substrate additionally produces per-device timing, straggler-lag
    /// and wire-byte telemetry. Default off.
    pub net: bool,
    /// Tensor kernel selected by `--kernel` (`None` = leave the process
    /// default, tiled-par). All kernels are bitwise interchangeable, so
    /// this only changes speed — pair it with `--obs` to profile the
    /// same run under the naive reference and the tiled kernels.
    pub kernel: Option<fedprox_tensor::kernel::Kernel>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: Scale::Small,
            rounds: None,
            seed: 1,
            out: None,
            obs: None,
            net: false,
            kernel: None,
        }
    }
}

impl CommonArgs {
    /// The runner these flags select: the sequential in-process backend
    /// by default, the simulated network with `--net`.
    pub fn runner(&self) -> fedprox_core::RunnerKind {
        if self.net {
            fedprox_core::RunnerKind::Network(fedprox_core::config::NetRunnerOptions::default())
        } else {
            fedprox_core::RunnerKind::Sequential
        }
    }

    /// Canonical description of this invocation for the run ledger's
    /// config digest: every field that shapes the trajectory, in a
    /// fixed order. Two invocations with equal descriptions produce
    /// bitwise-identical runs (output paths deliberately excluded).
    pub fn describe(&self, program: &str) -> String {
        format!(
            "{program} scale={:?} rounds={:?} seed={} net={}",
            self.scale, self.rounds, self.seed, self.net
        )
    }
}

/// Parse `--scale small|paper`, `--rounds N`, `--seed N`, `--out DIR`,
/// `--obs PATH`, `--net`, and
/// `--kernel reference|tiled|tiled-par` from an iterator of CLI
/// arguments (`--kernel` also applies the selection, process-wide).
/// Unknown flags abort with a usage message naming `program`.
// Exiting with a usage message is the intended CLI behaviour here, not
// a disguised panic path.
#[allow(clippy::exit)]
pub fn parse_args(program: &str, argv: impl Iterator<Item = String>) -> CommonArgs {
    let mut args = CommonArgs::default();
    let mut it = argv.peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{program}: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--scale" => {
                args.scale = match value("--scale").as_str() {
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => {
                        eprintln!("{program}: unknown scale '{other}' (small|paper)");
                        std::process::exit(2);
                    }
                }
            }
            "--rounds" => {
                args.rounds = Some(value("--rounds").parse().unwrap_or_else(|_| {
                    eprintln!("{program}: --rounds must be an integer");
                    std::process::exit(2);
                }))
            }
            "--seed" => {
                args.seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("{program}: --seed must be an integer");
                    std::process::exit(2);
                })
            }
            "--out" => args.out = Some(value("--out")),
            "--kernel" => {
                use fedprox_tensor::kernel::Kernel;
                let k = match value("--kernel").as_str() {
                    "reference" => Kernel::Reference,
                    "tiled" => Kernel::Tiled,
                    "tiled-par" => Kernel::TiledParallel,
                    other => {
                        eprintln!(
                            "{program}: unknown kernel '{other}' (reference|tiled|tiled-par)"
                        );
                        std::process::exit(2);
                    }
                };
                // Applied immediately: the selector is process-global and
                // every experiment binary should honour the flag without
                // per-binary wiring.
                fedprox_tensor::kernel::set_kernel(k);
                args.kernel = Some(k);
            }
            "--obs" => args.obs = Some(value("--obs")),
            "--net" => args.net = true,
            "--help" | "-h" => {
                println!(
                    "usage: {program} [--scale small|paper] [--rounds N] [--seed N] [--out DIR] \
                     [--obs PATH] [--net] [--kernel reference|tiled|tiled-par]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("{program}: unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> CommonArgs {
        parse_args("test", v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.rounds, None);
        assert_eq!(a.seed, 1);
        assert!(a.out.is_none());
        assert!(a.obs.is_none(), "--obs must default to off");
        assert!(!a.net, "--net must default to off");
        assert!(matches!(a.runner(), fedprox_core::RunnerKind::Sequential));
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "--scale", "paper", "--rounds", "42", "--seed", "9", "--out", "/tmp/x", "--obs",
            "/tmp/o.jsonl", "--net",
        ]);
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.rounds, Some(42));
        assert_eq!(a.seed, 9);
        assert_eq!(a.out.as_deref(), Some("/tmp/x"));
        assert_eq!(a.obs.as_deref(), Some("/tmp/o.jsonl"));
        assert!(a.net);
        assert!(matches!(a.runner(), fedprox_core::RunnerKind::Network(_)));
    }

    #[test]
    fn kernel_flag_selects_and_applies() {
        use fedprox_tensor::kernel::{self, Kernel};
        let before = kernel::active();
        let a = parse(&["--kernel", "reference"]);
        assert_eq!(a.kernel, Some(Kernel::Reference));
        assert_eq!(kernel::active(), Kernel::Reference);
        kernel::set_kernel(before);
    }
}
