//! `contig-hostbench --workload <translate|fault|churn> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds`, prints a human-readable summary, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits non-zero if any op or output check failed.

use std::process::ExitCode;

use contig_hostbench::report::run;
use contig_hostbench::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("contig-hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(args.workload, args.seed, args.seconds, args.trace);
    let outcome = result.outcome(args.trace);
    println!(
        "# workload {} seed {} trace {}: {} reps",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        result.reps.len()
    );
    for (i, (traced, rep)) in result.reps.iter().enumerate() {
        println!(
            "# rep {i:>3} {:<8} setup {:>9.3} ms  phase {:>9.3} ms  cpu {:>9.3} ms  {:>14.1} ops/s",
            if *traced { "traced" } else { "untraced" },
            rep.setup_ns as f64 / 1e6,
            rep.wall_ns as f64 / 1e6,
            rep.cpu_ns as f64 / 1e6,
            rep.ops as f64 / (rep.wall_ns as f64 / 1e9),
        );
    }
    println!(
        "# best time of a rep's {} segments: {:.3} ms",
        result.segments(),
        result.best_ns() as f64 / 1e6
    );
    for (m, v) in &outcome.metrics {
        println!("# {:<28} {:>18.4} {}", m.name, v, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("contig-hostbench: check failed: {f}");
    }
    println!("{}", outcome.json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
