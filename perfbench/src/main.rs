//! `perfbench`: end-to-end and per-layer benchmark of the SR2201 routing
//! workspace. See `perfbench/README.md` for the workloads, metrics and
//! checks.
//!
//! ```text
//! perfbench --workload <sweep-faults|stream-2048|serve-mix> --seed N
//!           --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the exit code
//! is 0 only when every output check passed.

mod alloc;
mod expected;
mod gen;
mod layers;
mod report;
mod serve;
mod stream;
mod sweep;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed baselines are measured on.
pub const BASELINE_SEED: u64 = 1;
/// The seed kept out of tuning, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(BASELINE_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Worker threads the campaign runner fans out on.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep-faults|stream-2048|serve-mix> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "sweep-faults" => sweep::run(&args),
        "stream-2048" => stream::run(&args),
        "serve-mix" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    for line in &out.notes {
        println!("{line}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "checks: {} failed of {} attempted (failed_share {})",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "model: unvalidated. The repository holds no SR2201 hardware \
         measurements, so no model error figure is given."
    );
    let catalogue: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    for (name, unit) in catalogue {
        if let Some(v) = out.metrics.get(*name) {
            println!("  {name:<36} {v:>16.6} {unit}");
        }
    }
    println!("{}", out.result_line(args.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
