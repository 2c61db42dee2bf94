//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints diagnostics on stderr and, as the last line of
//! stdout, one JSON object with the run's verdict and metrics.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::runner;
use perfbench::spec::{Scale, WorkloadId};
use std::process::ExitCode;

struct Args {
    workload: WorkloadId,
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
                workload = Some(
                    WorkloadId::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} {} on {} host threads",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (result, declared) = if args.trace {
        (runner::traced(args.workload, Scale::Bench, args.seed), &PER_LAYER[..])
    } else {
        (runner::untraced(args.workload, Scale::Bench, args.seed, args.seconds), &END_TO_END[..])
    };
    let out = match result.and_then(|o| o.complete(declared).map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in &out.metrics {
        eprintln!("  {name:<40} {value}");
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
