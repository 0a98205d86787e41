//! Small statistics helpers: a fixed-size latency histogram, the
//! nearest-rank percentile, and the order-independent decision digest.

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of an ascending slice:
/// the smallest value with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank `p`-th percentile of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear sub-buckets per power of two: relative resolution 1/128.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact region; values up to 2^44 ns (~4.9 h).
const OCTAVES: u64 = 44 - SUB_BITS as u64;
const BUCKETS: usize = ((OCTAVES + 1) * SUB) as usize;

/// Latency histogram over nanoseconds in constant memory: exact below 128
/// ns, then 128 linear buckets per power of two.  Allocated once, so
/// recording never allocates.
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() as u64 - SUB_BITS as u64;
        let sub = (ns >> octave) - SUB;
        (((octave + 1) * SUB + sub) as usize).min(BUCKETS - 1)
    }

    /// `[low, high)` nanoseconds covered by bucket `index`.
    fn range(index: usize) -> (f64, f64) {
        let index = index as u64;
        if index < SUB {
            return (index as f64, index as f64 + 1.0);
        }
        let octave = index / SUB - 1;
        let low = (SUB + index % SUB) << octave;
        (low as f64, (low + (1 << octave)) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `p`-th percentile in nanoseconds, interpolated
    /// linearly inside its bucket (so it is within 1/128 of the sorted
    /// sample's value).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && below + count >= rank {
                let (low, high) = Self::range(index);
                let within = (rank - below) as f64 - 0.5;
                return low + (high - low) * within / count as f64;
            }
            below += count;
        }
        unreachable!("rank {rank} beyond the {} samples", self.total)
    }
}

/// The splitmix64 finaliser: a cheap, well-mixed 64-bit hash step.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent digest of a decision stream: the wrapping sum of one
/// hash per `(ordinal, outcome kind, value bits, logical latency)`, so
/// completions may arrive in any order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn fold(&mut self, ordinal: u64, kind: u64, value_bits: u64, latency: u64) {
        let h = mix(mix(mix(mix(ordinal) ^ kind) ^ value_bits) ^ latency);
        self.0 = self.0.wrapping_add(h);
    }
}
