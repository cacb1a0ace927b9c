//! The wormcast benchmark. See `benchmark/README.md`.
//!
//! ```text
//! wormcast-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! wormcast-benchmark all [--seed N] [--seconds S] [--reps R]         every workload, then the layer runs
//! wormcast-benchmark compare A.json B.json                           two result files against the bounds
//! wormcast-benchmark manifest                                        print BENCHMARK.json
//! ```

mod all;
mod clock;
mod compare;
mod decorator;
mod layers;
mod point;
mod run;
mod schema;
mod spans;
mod stat;
mod workloads;

use std::process::ExitCode;

/// `--key value` pairs after the subcommand, plus positional arguments.
pub(crate) struct Args {
    flags: Vec<(String, String)>,
    pub(crate) positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// An unsigned number, decimal or `0x` hexadecimal.
    pub(crate) fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        let Some(text) = self.get(key) else {
            return Ok(default);
        };
        let parsed = match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        };
        parsed.map_err(|e| format!("--{key} {text}: {e}"))
    }
}

/// One run in the driver's form. The last line of standard output is the
/// result object.
fn one_run(args: &Args) -> Result<bool, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let w = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seed = args.number("seed", workloads::DEFAULT_SEED)?;
    let seconds = args.number("seconds", schema::NOMINAL_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: 1 to 60"));
    }
    let result = match args.number("trace", 0)? {
        0 => run::end_to_end(&w, seed, seconds),
        1 => layers::layer_run(&w, seed, args.get("out").unwrap_or(all::OUT_DIR))?,
        t => return Err(format!("--trace {t}: 0 or 1")),
    };
    for f in &result.failures {
        eprintln!("FAILED CHECK {}: {f}", w.name);
    }
    println!("{}", result.table(w.name));
    println!("{}", result.result_line(args.number("ungated", 0)? == 1));
    Ok(result.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match argv.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match sub {
        "run" => one_run(&args),
        "all" => all::all(&args),
        "compare" => compare::compare(&args),
        "manifest" => {
            print!("{}", schema::manifest_text());
            Ok(true)
        }
        other => Err(format!("unknown subcommand {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
