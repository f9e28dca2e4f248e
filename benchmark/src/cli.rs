//! Command lines of the two bins.
//!
//! ```text
//! sa-benchmark[-traced] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke]
//! sa-benchmark[-traced] suite --seeds <a,b,…> --out <file.json> [--seconds <s>] [--smoke]
//! sa-benchmark compare <a.json> <b.json>
//! ```

use crate::spec::{workload, Workload, WORKLOADS};
use std::path::PathBuf;

/// The seed used when `--seed` is not given, and for the committed
/// same-code baseline pair.
pub const DEFAULT_SEED: u64 = 42;
/// Measured seconds per run when `--seconds` is not given; matches
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// One workload, one fresh process.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of the base stream and of every engine seed derived from it.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Tiny stream, one rep, no result files.
    pub smoke: bool,
}

/// What the process was asked to do.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run one workload.
    Run(RunArgs),
    /// Run every workload once per seed, each in a fresh process, and
    /// gather the results into one set file.
    Suite {
        /// One run per workload per entry; repeat a seed for same-code sets.
        seeds: Vec<u64>,
        /// Where the set is written.
        out: PathBuf,
        /// Measured seconds per run.
        seconds: f64,
        /// Pass `--smoke` to every run.
        smoke: bool,
    },
    /// Compare two result sets row by row against the bounds in
    /// `BENCHMARK.json`.
    Compare {
        /// The base set.
        a: PathBuf,
        /// The set held against it.
        b: PathBuf,
    },
}

fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses the arguments after the program name. `traced` is which bin is
/// asking: `--trace` must agree with it, because the per-layer run lives
/// in its own binary.
///
/// # Errors
///
/// A usage message.
pub fn parse(args: &[String], traced: bool) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("usage: sa-benchmark compare <a.json> <b.json>".to_string()),
        };
    }
    let suite = args.first().map(String::as_str) == Some("suite");
    let mut name = None;
    let mut seed = DEFAULT_SEED;
    let mut seeds = vec![DEFAULT_SEED];
    let mut out = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut smoke = false;
    let mut i = usize::from(suite);
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => name = Some(value(args, &mut i, flag)?.to_string()),
            "--seed" => {
                seed = value(args, &mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seeds" => {
                seeds = value(args, &mut i, flag)?
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "--seeds takes whole numbers separated by commas".to_string())?;
            }
            "--out" => out = Some(PathBuf::from(value(args, &mut i, flag)?)),
            "--seconds" => {
                seconds = value(args, &mut i, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?;
            }
            "--trace" => {
                let asked = match value(args, &mut i, flag)? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
                if asked != traced {
                    return Err(format!(
                        "--trace {} is served by the `{}` bin (benchmark/run.sh picks it for you)",
                        u8::from(asked),
                        if asked {
                            "sa-benchmark-traced"
                        } else {
                            "sa-benchmark"
                        }
                    ));
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if suite {
        let out = out.ok_or_else(|| "suite needs --out <file.json>".to_string())?;
        return Ok(Command::Suite {
            seeds,
            out,
            seconds,
            smoke,
        });
    }
    let names = || {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let name = name.ok_or_else(|| format!("--workload is required (one of: {})", names()))?;
    let workload =
        workload(&name).ok_or_else(|| format!("unknown workload {name} (one of: {})", names()))?;
    Ok(Command::Run(RunArgs {
        workload,
        seed,
        seconds,
        smoke,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cmd = parse(
            &args("--workload agg-dense-f20 --seed 7 --seconds 3 --trace 0"),
            false,
        )
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("not a run")
        };
        assert_eq!(run.workload.name, "agg-dense-f20");
        assert_eq!((run.seed, run.seconds, run.smoke), (7, 3.0, false));
    }

    #[test]
    fn trace_flag_must_match_the_bin() {
        assert!(parse(&args("--workload agg-dense-f20 --trace 1"), false).is_err());
        assert!(parse(&args("--workload agg-dense-f20 --trace 1"), true).is_ok());
        assert!(parse(&args("--workload nope"), false).is_err());
        assert!(parse(&args("--seed 1"), false).is_err());
    }

    #[test]
    fn parses_suite_and_compare() {
        let Command::Suite { seeds, smoke, .. } =
            parse(&args("suite --seeds 1,2,2 --out x.json --smoke"), false).unwrap()
        else {
            panic!("not a suite")
        };
        assert_eq!(seeds, vec![1, 2, 2]);
        assert!(smoke);
        assert!(matches!(
            parse(&args("compare a.json b.json"), false),
            Ok(Command::Compare { .. })
        ));
        assert!(parse(&args("compare a.json"), false).is_err());
    }
}
