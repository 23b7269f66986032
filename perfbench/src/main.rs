//! Command-line entry point; see the crate docs.

use sphinx_perfbench::bench;
use sphinx_perfbench::workload::{Workload, NAMES};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: sphinx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; known: {}", NAMES.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = bench::run(
        &args.workload,
        args.seed,
        Duration::from_secs_f64(args.seconds),
        args.trace,
    );
    eprintln!(
        "{} seed={} trace={} repeats={} attempted={} failed={}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        result.repeats,
        result.attempted,
        result.failed
    );
    for note in &result.notes {
        eprintln!("note: {note}");
    }
    for problem in &result.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    for m in &result.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", bench::to_json(&result));
    ExitCode::SUCCESS
}
