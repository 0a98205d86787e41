//! The repository benchmark: four workloads driven through the public API
//! from one client process, end-to-end metrics with tracing off, and a
//! traced run for per-layer metrics.  See `README.md` in this directory.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--trace [0|1]] [--workload NAME]... [NAME ...]
//! ```
//!
//! Prints one line per metric, then (as the last line) one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  Exits with code 1 when
//! a check fails and 2 on a usage error.

mod alloc;
mod layers;
mod pins;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::{Effort, Run, NAMES};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics of an untraced run: those that repeat within
/// their bound over ten seeds on the reference machine.
fn end_to_end(run: &Run) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", run.setup_s, "s"),
        Metric::new("exact_ratio", run.exact_ratio(), "fraction"),
        Metric::new("answered_ratio", run.answered_ratio(), "fraction"),
        Metric::new("peak_heap_mb", run.peak_heap_mb, "MiB"),
    ]
}

/// The untraced run's wall-clock metrics.  They move between runs of the
/// same code by more than a 10% bound on the reference machine (README.md,
/// "Bounds"), so they are per-layer diagnostics: printed as table rows by
/// an untraced run and reported by the traced one.
pub fn wall_clock(run: &Run) -> Vec<Metric> {
    vec![
        Metric::new("goodput_rps", run.goodput_rps, "1/s"),
        Metric::new("latency_p50_us", run.latency_p50_us, "us"),
        Metric::new("latency_p99_us", run.latency_p99_us, "us"),
    ]
}

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    workloads: Vec<String>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seed: pins::DEFAULT_SEED,
        seconds: pins::DEFAULT_SECONDS,
        trace: false,
        workloads: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--workload" => parsed.workloads.push(value("--workload")?),
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => {
                parsed.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.workloads.push(arg),
        }
    }
    if let Some(unknown) = parsed
        .workloads
        .iter()
        .find(|w| !NAMES.contains(&w.as_str()))
    {
        return Err(format!(
            "unknown workload {unknown} (known: {})",
            NAMES.join(", ")
        ));
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = NAMES.iter().map(|w| w.to_string()).collect();
    }
    Ok(parsed)
}

/// A value for the table: four decimals, or four significant digits when
/// it is below 0.01.
fn human(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.3e}")
    } else {
        format!("{value:.4}")
    }
}

/// A number as JSON (non-finite values cannot be encoded and fail the run).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let effort = Effort {
        seconds: args.seconds,
        tiny: false,
    };
    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut fields = Vec::new();
    for name in &args.workloads {
        let (run, metrics, rows) = if args.trace {
            let (run, metrics) = layers::traced(name, args.seed, effort);
            (run, metrics, Vec::new())
        } else {
            let (run, _) = workloads::run_untraced(name, args.seed, effort);
            let (metrics, rows) = (end_to_end(&run), wall_clock(&run));
            (run, metrics, rows)
        };
        println!(
            "# {name}: seed {} attempted {} failed {} digest {:#018x}",
            args.seed, run.attempted, run.failed, run.digest
        );
        for (label, value, unit) in &run.notes {
            println!("{name:<15} {label:<32} {:>16} {unit}", human(*value));
        }
        for row in &rows {
            println!(
                "{name:<15} {:<32} {:>16} {}",
                row.name,
                human(row.value),
                row.unit
            );
        }
        for metric in &metrics {
            println!(
                "{name:<15} {:<32} {:>16} {}",
                metric.name,
                human(metric.value),
                metric.unit
            );
            if !metric.value.is_finite() {
                correct = false;
                eprintln!("benchmark: {name}: {} is not finite", metric.name);
            }
            let key = if single {
                metric.name.clone()
            } else {
                format!("{name}.{}", metric.name)
            };
            fields.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(metric.value),
                metric.unit
            ));
        }
        for problem in &run.problems {
            eprintln!("benchmark: {name}: check failed: {problem}");
        }
        correct &= run.problems.is_empty();
        attempted += run.attempted;
        failed += run.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
