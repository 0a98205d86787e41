//! Prints the experiment tables (summarised in the README's "Paper results
//! reproduced").
//!
//! Usage:
//!   cargo run --release -p fsw-bench --bin experiments            # all experiments
//!   cargo run --release -p fsw-bench --bin experiments -- e1 e3   # a subset
//!
//! Wall-clock acceptance bounds: `e10 ≤ 0.25 s` (now including the uniform
//! MINLATENCY critical-path-floor case) and `e13 ≤ 4.84 s` (the PR-5 e13
//! baseline, now covering the n = 12–13 rows *and* the exhaustive uniform
//! n = 14 rows) are asserted after the run; set `FSW_BENCH_NO_WALL_ASSERT=1`
//! to print the timings without failing on slower hardware.

use std::time::Instant;

use fsw_bench::{run_all, run_experiment, ExperimentRow};

/// `(experiment id, wall-clock bound in seconds)` asserted after a run.
const WALL_BOUNDS: [(&str, f64); 2] = [("e10", 0.25), ("e13", 4.84)];

fn print_table(title: &str, rows: &[ExperimentRow]) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.chars().count()));
    println!("{:<72} {:>12} {:>12}", "measurement", "paper", "measured");
    for row in rows {
        let paper = row
            .paper
            .map(|p| format!("{p:.4}"))
            .unwrap_or_else(|| "-".to_string());
        println!("{:<72} {:>12} {:>12.4}", row.label, paper, row.measured);
    }
}

fn check_wall(id: &str, wall_seconds: f64) {
    let Some(&(_, bound)) = WALL_BOUNDS.iter().find(|(b, _)| *b == id) else {
        return;
    };
    println!("{id}: wall {wall_seconds:.3} s (bound {bound} s)");
    if std::env::var_os("FSW_BENCH_NO_WALL_ASSERT").is_some() {
        return;
    }
    assert!(
        wall_seconds <= bound,
        "{id} took {wall_seconds:.3} s, above its {bound} s acceptance bound \
         (set FSW_BENCH_NO_WALL_ASSERT=1 to skip on slower hardware)"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        for (title, rows) in run_all() {
            print_table(title, &rows);
        }
        return;
    }
    let mut unknown = false;
    for id in &args {
        let started = Instant::now();
        match run_experiment(id) {
            Some((title, rows)) => {
                let wall_seconds = started.elapsed().as_secs_f64();
                print_table(title, &rows);
                check_wall(id, wall_seconds);
            }
            None => {
                unknown = true;
                eprintln!("unknown experiment id: {id} (expected e1..e17, e10s, e16s or e17s)");
            }
        }
    }
    if unknown {
        std::process::exit(2);
    }
}
