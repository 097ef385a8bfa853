//! Hand-rolled argument parsing (keeps the dependency surface to the
//! approved crate set — no clap).

use fedsu_repro::scenario::{ModelKind, StrategyKind};
use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one experiment.
    Run(RunArgs),
    /// Run every strategy on one workload and print a comparison table.
    Compare(RunArgs),
    /// Sweep `T_R` or `T_S` over a value list.
    Sweep {
        /// Shared workload options.
        base: RunArgs,
        /// Which threshold to sweep (`t_r` or `t_s`).
        param: SweepParam,
        /// The values to sweep.
        values: Vec<f64>,
    },
    /// Print available models/strategies.
    Info,
    /// Print usage.
    Help,
}

/// The sweepable FedSU thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Linearity threshold `T_R`.
    TR,
    /// Error-feedback threshold `T_S`.
    TS,
}

/// Workload options shared by the run-like commands.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Architecture/dataset pair.
    pub model: ModelKind,
    /// Strategy (ignored by `compare`/`sweep`).
    pub strategy: StrategyKind,
    /// Number of clients.
    pub clients: usize,
    /// Number of rounds.
    pub rounds: usize,
    /// Dirichlet concentration.
    pub alpha: f64,
    /// Master seed.
    pub seed: u64,
    /// Per-round probability that a selected client drops out mid-round.
    pub fault_dropout: f64,
    /// Per-round probability that a surviving client's upload is corrupted.
    pub fault_corrupt: f64,
    /// Seed for the deterministic fault plan (independent of `seed`).
    pub fault_seed: u64,
    /// Optional CSV output path for per-round records.
    pub csv: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            model: ModelKind::Cnn,
            strategy: StrategyKind::FedSuCalibrated,
            clients: 8,
            rounds: 40,
            alpha: 1.0,
            seed: 42,
            fault_dropout: 0.0,
            fault_corrupt: 0.0,
            fault_seed: 0xFA17,
            csv: None,
        }
    }
}

/// Parse errors, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_model(s: &str) -> Result<ModelKind, ParseError> {
    match s {
        "cnn" => Ok(ModelKind::Cnn),
        "resnet18" | "resnet" => Ok(ModelKind::ResNet18),
        "densenet" => Ok(ModelKind::DenseNet),
        "mlp" => Ok(ModelKind::Mlp),
        other => Err(ParseError(format!("unknown model `{other}` (cnn, resnet18, densenet, mlp)"))),
    }
}

fn parse_strategy(s: &str) -> Result<StrategyKind, ParseError> {
    match s {
        "fedavg" => Ok(StrategyKind::FedAvg),
        "cmfl" => Ok(StrategyKind::Cmfl),
        "apf" => Ok(StrategyKind::ApfCalibrated),
        "apf-paper" => Ok(StrategyKind::Apf),
        "qsgd" => Ok(StrategyKind::Qsgd),
        "fedsu" => Ok(StrategyKind::FedSuCalibrated),
        "fedsu-paper" => Ok(StrategyKind::FedSu),
        other => Err(ParseError(format!(
            "unknown strategy `{other}` (fedavg, cmfl, apf, apf-paper, qsgd, fedsu, fedsu-paper)"
        ))),
    }
}

fn collect_flags(args: Vec<String>) -> Result<BTreeMap<String, String>, ParseError> {
    let mut flags = BTreeMap::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| ParseError(format!("expected a --flag, got `{arg}`")))?
            .to_string();
        let value = args
            .next()
            .ok_or_else(|| ParseError(format!("flag --{key} needs a value")))?;
        flags.insert(key, value);
    }
    Ok(flags)
}

fn parse_prob(value: &str, flag: &str) -> Result<f64, ParseError> {
    let p: f64 =
        value.parse().map_err(|_| ParseError(format!("bad --{flag} `{value}`")))?;
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return Err(ParseError(format!("--{flag} must be a probability in [0, 1], got `{value}`")));
    }
    Ok(p)
}

fn run_args(flags: &BTreeMap<String, String>) -> Result<RunArgs, ParseError> {
    let mut args = RunArgs::default();
    for (key, value) in flags {
        match key.as_str() {
            "model" => args.model = parse_model(value)?,
            "strategy" => args.strategy = parse_strategy(value)?,
            "clients" => {
                args.clients =
                    value.parse().map_err(|_| ParseError(format!("bad --clients `{value}`")))?
            }
            "rounds" => {
                args.rounds =
                    value.parse().map_err(|_| ParseError(format!("bad --rounds `{value}`")))?
            }
            "alpha" => {
                args.alpha =
                    value.parse().map_err(|_| ParseError(format!("bad --alpha `{value}`")))?
            }
            "seed" => {
                args.seed = value.parse().map_err(|_| ParseError(format!("bad --seed `{value}`")))?
            }
            "fault-dropout" => {
                args.fault_dropout = parse_prob(value, "fault-dropout")?;
            }
            "fault-corrupt" => {
                args.fault_corrupt = parse_prob(value, "fault-corrupt")?;
            }
            "fault-seed" => {
                args.fault_seed =
                    value.parse().map_err(|_| ParseError(format!("bad --fault-seed `{value}`")))?
            }
            "csv" => args.csv = Some(value.clone()),
            "param" | "values" => {} // handled by sweep
            other => return Err(ParseError(format!("unknown flag --{other}"))),
        }
    }
    Ok(args)
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] with a user-facing message.
pub fn parse(mut args: Vec<String>) -> Result<Command, ParseError> {
    if args.is_empty() {
        return Ok(Command::Help);
    }
    let rest = args.split_off(1);
    let cmd = args.pop().unwrap_or_default();
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => Ok(Command::Info),
        "run" => Ok(Command::Run(run_args(&collect_flags(rest)?)?)),
        "compare" => Ok(Command::Compare(run_args(&collect_flags(rest)?)?)),
        "sweep" => {
            let flags = collect_flags(rest)?;
            let base = run_args(&flags)?;
            let param = match flags.get("param").map(String::as_str) {
                Some("t_r") | Some("tr") => SweepParam::TR,
                Some("t_s") | Some("ts") => SweepParam::TS,
                Some(other) => return Err(ParseError(format!("unknown --param `{other}` (t_r, t_s)"))),
                None => return Err(ParseError("sweep needs --param t_r|t_s".to_string())),
            };
            let values = flags
                .get("values")
                .ok_or_else(|| ParseError("sweep needs --values a,b,c".to_string()))?
                .split(',')
                .map(|v| v.trim().parse::<f64>().map_err(|_| ParseError(format!("bad value `{v}`"))))
                .collect::<Result<Vec<f64>, _>>()?;
            if values.is_empty() {
                return Err(ParseError("sweep needs at least one value".to_string()));
            }
            Ok(Command::Sweep { base, param, values })
        }
        other => Err(ParseError(format!("unknown command `{other}` (run, compare, sweep, info, help)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(Vec::new()).unwrap(), Command::Help);
        assert_eq!(parse(s(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn run_with_defaults() {
        let cmd = parse(s(&["run"])).unwrap();
        assert_eq!(cmd, Command::Run(RunArgs::default()));
    }

    #[test]
    fn run_with_flags() {
        let cmd = parse(s(&["run", "--model", "mlp", "--strategy", "apf", "--rounds", "5", "--seed", "9"])).unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.model, ModelKind::Mlp);
                assert_eq!(a.strategy, StrategyKind::ApfCalibrated);
                assert_eq!(a.rounds, 5);
                assert_eq!(a.seed, 9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sweep_parses_values() {
        let cmd = parse(s(&["sweep", "--model", "mlp", "--param", "t_s", "--values", "1,10,100"])).unwrap();
        match cmd {
            Command::Sweep { param, values, .. } => {
                assert_eq!(param, SweepParam::TS);
                assert_eq!(values, vec![1.0, 10.0, 100.0]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fault_flags_parse() {
        let cmd = parse(s(&[
            "run",
            "--fault-dropout",
            "0.15",
            "--fault-corrupt",
            "0.02",
            "--fault-seed",
            "99",
        ]))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert!((a.fault_dropout - 0.15).abs() < 1e-12);
                assert!((a.fault_corrupt - 0.02).abs() < 1e-12);
                assert_eq!(a.fault_seed, 99);
            }
            other => panic!("{other:?}"),
        }
        // Defaults are fault-free.
        let d = RunArgs::default();
        assert_eq!(d.fault_dropout, 0.0);
        assert_eq!(d.fault_corrupt, 0.0);
    }

    #[test]
    fn fault_probabilities_are_range_checked() {
        assert!(parse(s(&["run", "--fault-dropout", "1.5"]))
            .unwrap_err()
            .0
            .contains("probability"));
        assert!(parse(s(&["run", "--fault-corrupt", "-0.1"]))
            .unwrap_err()
            .0
            .contains("probability"));
        assert!(parse(s(&["run", "--fault-dropout", "nan"])).is_err());
    }

    #[test]
    fn errors_are_friendly() {
        assert!(parse(s(&["frobnicate"])).unwrap_err().0.contains("unknown command"));
        assert!(parse(s(&["run", "--model", "vgg"])).unwrap_err().0.contains("unknown model"));
        assert!(parse(s(&["run", "--rounds"])).unwrap_err().0.contains("needs a value"));
        assert!(parse(s(&["sweep", "--values", "1"])).unwrap_err().0.contains("--param"));
        assert!(parse(s(&["sweep", "--param", "t_r"])).unwrap_err().0.contains("--values"));
        assert!(parse(s(&["run", "--bogus", "1"])).unwrap_err().0.contains("unknown flag"));
        // No carrier sends frames under `fedsu run`, so it takes no wire-fault knobs.
        assert!(parse(s(&["run", "--wire-drop", "0.2"])).unwrap_err().0.contains("unknown flag"));
        // Kernels are serial and the client fan-out follows the core count: no thread flag.
        assert!(parse(s(&["run", "--kernel-threads", "4"])).unwrap_err().0.contains("unknown flag"));
    }
}
