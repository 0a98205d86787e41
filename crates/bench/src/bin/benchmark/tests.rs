//! Tests of the benchmark itself, at test scale (about 1% of the work):
//! `cargo test -p fsw-bench --bin benchmark`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{nearest_rank, LatencyHistogram};
use crate::workloads::{run_untraced, Effort, Inputs, NAMES};

const TINY: Effort = Effort {
    seconds: 1.0,
    tiny: true,
};

/// Same seed: same request stream and digest; other seed: another stream;
/// and every check of the workload passes.
fn repeatable_and_correct(name: &str) {
    let (first, first_inputs) = run_untraced(name, 11, TINY);
    let (second, second_inputs) = run_untraced(name, 11, TINY);
    let (_, other_inputs) = run_untraced(name, 12, TINY);
    for run in [&first, &second] {
        assert!(run.problems.is_empty(), "{name}: {:?}", run.problems);
        assert!(run.attempted > 0 && run.failed == 0, "{name}");
        assert!(run.goodput_rps > 0.0 && run.latency_p99_us >= run.latency_p50_us);
    }
    let stream = |inputs: &Inputs| (inputs.apps.clone(), inputs.requests.clone());
    assert_eq!(
        stream(&first_inputs),
        stream(&second_inputs),
        "{name}: same seed"
    );
    assert_eq!(
        first.digest, second.digest,
        "{name}: same seed, same digest"
    );
    assert_ne!(
        stream(&first_inputs),
        stream(&other_inputs),
        "{name}: other seed"
    );
}

#[test]
fn serve_hot_is_repeatable_and_correct() {
    repeatable_and_correct(NAMES[0]);
}

#[test]
fn serve_overload_is_repeatable_and_correct() {
    repeatable_and_correct(NAMES[1]);
}

#[test]
fn serve_churn_is_repeatable_and_correct() {
    repeatable_and_correct(NAMES[2]);
}

#[test]
fn solve_exact_is_repeatable_and_correct() {
    repeatable_and_correct(NAMES[3]);
}

/// The textbook nearest-rank definition, by counting.
fn oracle(sample: &[f64], p: f64) -> f64 {
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    *sorted
        .iter()
        .find(|&&v| {
            let at_or_below = sorted.iter().filter(|&&w| w <= v).count();
            at_or_below as f64 >= p / 100.0 * sorted.len() as f64
        })
        .expect("p <= 100")
}

#[test]
fn percentiles_match_the_sorted_vector_oracle() {
    let mut rng = StdRng::seed_from_u64(5);
    for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
        let sample: Vec<f64> = (0..len).map(|_| (rng.gen::<f64>() * 1e6).floor()).collect();
        let mut sorted = sample.clone();
        sorted.sort_by(f64::total_cmp);
        let mut histogram = LatencyHistogram::new();
        for &v in &sample {
            histogram.record(v as u64);
        }
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let want = oracle(&sample, p);
            assert_eq!(nearest_rank(&sorted, p), want, "len {len} p {p}");
            let got = histogram.quantile(p);
            assert!(
                (got - want).abs() <= (want / 128.0).max(1.0),
                "histogram len {len} p {p}: {got} vs {want}"
            );
        }
    }
}
