//! `phpbench`: the repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! phpbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! phpbench [--seed N] [--smoke] [--aa]                     the whole suite, for a person
//! phpbench --print-spec                                    the text of BENCHMARK.json
//! ```

mod adapter;
mod client;
mod layers;
mod mix;
mod probe;
mod procfs;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Everything the command line can say.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    trial: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: f64,
    out: PathBuf,
    smoke: bool,
    aa: bool,
    print_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        scale: 1.0,
        out: PathBuf::from("benchmark/out"),
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--trial" => args.trial = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {v}"))?;
            }
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--scale" => args.scale = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    if args.seconds.is_some_and(|s| !(0.0..=60.0).contains(&s)) {
        return Err("--seconds must be in 0..=60".into());
    }
    Ok(args)
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let spec = spec::spec(&adapter::corpus_names(), &adapter::app_names());
    spec::validate(&spec)?;
    if args.print_spec {
        print!("{}", spec::to_json(&spec));
        return Ok(true);
    }
    // Everything measured runs on one CPU (`pin_to_one_cpu` says why); the
    // trial processes started from here inherit it.
    if procfs::pin_to_one_cpu().is_none() {
        eprintln!("phpbench: cannot confine itself to one CPU: host-clock numbers will spread");
    }
    if let Some(name) = &args.trial {
        return run::trial_child(workload_named(name)?, args.seed, args.scale);
    }
    if let Some(name) = &args.workload {
        let workload = workload_named(name)?;
        let seconds = args.seconds.unwrap_or(f64::from(spec.run_seconds));
        let result = if args.trace {
            run::traced_run(&spec, workload, args.seed, args.scale, &args.out)
        } else {
            run::timed_run(&spec, workload, args.seed, seconds, args.scale)?
        };
        result.print();
        return Ok(result.correct);
    }
    suite::run(&spec, args.seed, args.smoke, args.aa, &args.out)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("phpbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse(&[
            "--workload",
            "http_churn",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("http_churn"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), true));
        assert!(workload_named("http_churn").is_ok());
        assert!(workload_named("nope").is_err());
    }

    #[test]
    fn bad_command_lines_are_errors() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--seconds", "61"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
