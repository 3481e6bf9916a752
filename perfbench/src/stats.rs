//! Sample statistics, the seeded input generator and fingerprints.
//!
//! Every latency percentile the benchmark prints comes from the raw
//! samples by exact nearest rank; nothing is interpolated.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p_milli / 1000` percent of the samples at or below it.
/// `p_milli` is in thousandths of a percent (99th percentile = 99_000),
/// so the rank is computed in integers and never suffers float rounding.
///
/// # Panics
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p_milli: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len() as u64;
    let rank = (p_milli * n).div_ceil(100_000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Tail percentiles tried from the top; the first one with at least ten
/// samples above its rank is the reported tail.
const TAIL_CANDIDATES_MILLI: [u64; 5] = [99_900, 99_000, 95_000, 90_000, 75_000];

/// A timing distribution reduced the way the benchmark reports it: the
/// median, the highest percentile that still has ten samples beyond it
/// (the maximum when there are too few samples for any), and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Percentile of [`Summary::tail`] in thousandths of a percent;
    /// 100_000 means the maximum.
    pub tail_milli: u64,
    /// The tail value.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (tail_milli, tail) = TAIL_CANDIDATES_MILLI
            .iter()
            .map(|&p| (p, (p * n as u64).div_ceil(100_000) as usize))
            .find(|&(_, rank)| n - rank >= 10)
            .map_or((100_000, sorted[n - 1]), |(p, _)| {
                (p, nearest_rank(&sorted, p))
            });
        Some(Summary {
            n,
            p50: nearest_rank(&sorted, 50_000),
            tail_milli,
            tail,
        })
    }

    /// The tail's label: `p99`, `p99.9`, … or `max`.
    pub fn tail_label(&self) -> String {
        if self.tail_milli >= 100_000 {
            "max".to_string()
        } else if self.tail_milli.is_multiple_of(1000) {
            format!("p{}", self.tail_milli / 1000)
        } else {
            format!("p{}", self.tail_milli as f64 / 1000.0)
        }
    }
}

/// Nearest-rank median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// splitmix64: the benchmark's only source of generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Folds the exact bits of every value into an FNV-1a hash.
pub fn fnv_f64s(hash: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(hash, |h, v| fnv(h, &v.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition_on_a_known_vector() {
        // 1..=20: the p-th percentile by nearest rank is the ceil(p·n/100)-th value.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50_000), 10.0);
        assert_eq!(nearest_rank(&v, 5_000), 1.0);
        assert_eq!(nearest_rank(&v, 25_000), 5.0);
        assert_eq!(nearest_rank(&v, 95_000), 19.0);
        assert_eq!(nearest_rank(&v, 99_000), 20.0);
        assert_eq!(nearest_rank(&v, 100_000), 20.0);
        assert_eq!(nearest_rank(&v, 0), 1.0);
        // 0.99 · 1000 is 990.0000000000001 in floating point; the integer
        // rank keeps it at 990.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 99_000), 990.0);
        assert_eq!(nearest_rank(&w, 99_900), 999.0);
    }

    #[test]
    fn summary_reports_the_highest_percentile_with_ten_samples_beyond() {
        let w: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&w).unwrap();
        assert_eq!((s.n, s.p50), (1000, 500.0));
        // p99.9 leaves only one sample beyond it; p99 leaves ten.
        assert_eq!((s.tail_label().as_str(), s.tail), ("p99", 990.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        let s = Summary::of(&few).unwrap();
        assert_eq!((s.tail_label().as_str(), s.tail, s.p50), ("max", 5.0, 3.0));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = Summary::of(&forty).unwrap();
        assert_eq!((s.tail_label().as_str(), s.tail), ("p75", 30.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_across_seeds() {
        let take = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 1), take(7, 1));
        assert_ne!(take(7, 1), take(8, 1));
        assert_ne!(take(7, 1), take(7, 2));
    }
}
