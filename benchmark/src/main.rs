//! `peakperf-benchmark`: the repository's benchmark, measured from
//! outside the program. See `benchmark/README.md`.

mod agree;
mod api;
mod json;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::RunArgs;

const USAGE: &str = "\
usage:
  peakperf-benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
                         [--check] [--out-dir <dir>]
      Run one workload (or, without --workload, all four, each in its own
      process) and print every metric by name and unit. --trace gives the
      per-layer metrics and writes <out-dir>/trace-<workload>.json.
      --check is a smoke mode: every 4th item, one round.
  peakperf-benchmark agree <a.json> <b.json>
      Compare two result documents against the bounds in ./BENCHMARK.json.
  peakperf-benchmark setup --workload <name> [--seed <n>] [--check]
      Perform a workload's set-up and exit (what `setup_s` times).

workloads: sgemm_sweep, micro_sweep, toolchain, service_mix
Paths default to the repository root as working directory: results go
to benchmark/out/.";

struct Cli {
    run: RunArgs,
    all_workloads: bool,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: 30.0,
            trace: false,
            check: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
        all_workloads: true,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                cli.run.workload = value("--workload")?;
                cli.all_workloads = false;
            }
            "--seed" => {
                cli.run.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                cli.run.seconds = seconds;
            }
            "--trace" => {
                // `--trace 1`, `--trace 0`, or a bare `--trace`.
                cli.run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check" => cli.run.check = true,
            "--out-dir" => cli.run.out_dir = PathBuf::from(value("--out-dir")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or("no subcommand")?;
    let cli = parse(rest)?;
    match command.as_str() {
        "run" | "setup" if !cli.positional.is_empty() => {
            Err(format!("unexpected argument `{}`", cli.positional[0]))
        }
        "run" if cli.all_workloads => run::run_all(&cli.run),
        "run" => run::run_workload(&cli.run),
        "setup" if cli.all_workloads => Err("setup needs --workload".to_owned()),
        "setup" => run::setup_only(&cli.run).map(|()| true),
        "agree" => match cli.positional.as_slice() {
            [a, b] => agree::agree(a.as_ref(), b.as_ref(), "BENCHMARK.json".as_ref()),
            _ => Err("agree takes exactly two result documents".to_owned()),
        },
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // Output checks failed or documents disagree; details are printed.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("peakperf-benchmark: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let cli = parse(&args(&[
            "--workload",
            "toolchain",
            "--seed",
            "42",
            "--seconds",
            "30",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(cli.run.workload, "toolchain");
        assert_eq!(
            (cli.run.seed, cli.run.seconds, cli.run.trace),
            (42, 30.0, false)
        );
        assert!(!cli.all_workloads);
    }

    #[test]
    fn trace_takes_an_optional_value() {
        assert!(parse(&args(&["--trace", "1"])).unwrap().run.trace);
        assert!(parse(&args(&["--trace"])).unwrap().run.trace);
        assert!(parse(&args(&["--trace", "--check"])).unwrap().run.check);
        assert!(!parse(&args(&["--trace", "0"])).unwrap().run.trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&args(&["--seed", "x"])).is_err());
        assert!(parse(&args(&["--seconds", "0"])).is_err());
        assert!(parse(&args(&["--seconds"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
        assert!(dispatch(&args(&["run", "--workload", "nope"])).is_err());
        assert!(dispatch(&args(&["agree", "only-one.json"])).is_err());
    }
}
