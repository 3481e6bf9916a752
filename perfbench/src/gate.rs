//! The output-correctness gate: reference fingerprints and the checks
//! that compare a run's outputs against them.
//!
//! The Fig. 4–9 totals are the paper-input constants recorded in
//! `BENCH_pipeline.json` (`sweep.fig*.total`). The synthetic workloads
//! are checked two ways: invariants that hold for every input
//! (efficiency, an independent exact Shapley, run-to-run bit identity),
//! and the exact fingerprint of their shares — for `synthetic-n200` with
//! its confidence intervals and formation trajectory, for the seeds
//! listed in `reference.tsv`.

use fedval_coalition::{Coalition, CoalitionalGame};
use fedval_policy::PolicyReport;

/// `sweep.fig4.total` … `sweep.fig9.total` from `BENCH_pipeline.json`.
pub const FIG_TOTALS: [(&str, f64); 6] = [
    ("fig4", 55.0),
    ("fig5", 50.0),
    ("fig6", 55.0),
    ("fig7", 42.0),
    ("fig8", 61.0),
    ("fig9", 4_989_650.262238),
];

/// Scenario points in one Fig. 4–9 sweep (`sweep.points`).
pub const SWEEP_POINTS: u64 = 188;

/// Recorded fingerprints, one `workload<TAB>seed<TAB>hex` per line.
pub const REFERENCE: &str = include_str!("../reference.tsv");

/// How a fingerprint compared with the reference table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The table lists this seed and the fingerprint matches.
    Match,
    /// The table does not list this seed; only the invariants apply.
    Unlisted,
    /// The table lists this seed with a different fingerprint.
    Mismatch {
        /// The recorded fingerprint.
        expected: u64,
    },
}

impl Verdict {
    /// False only for a mismatch.
    pub fn ok(self) -> bool {
        !matches!(self, Verdict::Mismatch { .. })
    }

    /// One-word description for the result lines.
    pub fn describe(self) -> String {
        match self {
            Verdict::Match => "match".to_string(),
            Verdict::Unlisted => "unlisted-seed".to_string(),
            Verdict::Mismatch { expected } => format!("MISMATCH (expected {expected:016x})"),
        }
    }
}

/// Looks `workload`/`seed` up in `table` and compares `got` with it.
pub fn check_fingerprint(table: &str, workload: &str, seed: u64, got: u64) -> Verdict {
    let expected = table.lines().find_map(|line| {
        let mut fields = line.split('\t');
        let (w, s, hex) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    });
    match expected {
        None => Verdict::Unlisted,
        Some(e) if e == got => Verdict::Match,
        Some(e) => Verdict::Mismatch { expected: e },
    }
}

/// Whether `got` matches a recorded figure total, which is printed to
/// six decimals.
pub fn fig_total_ok(id: &str, got: f64) -> bool {
    FIG_TOTALS
        .iter()
        .find(|(fig, _)| *fig == id)
        .is_some_and(|&(_, want)| (got - want).abs() <= 1e-6)
}

/// Normalized exact Shapley shares straight from the definition,
/// `φᵢ = Σ_{S ∌ i} |S|!(n−|S|−1)!/n! · (V(S∪i) − V(S))`, divided by
/// `V(N)` — an implementation independent of the coalition crate's.
pub fn shapley_by_definition<G: CoalitionalGame>(game: &G) -> Vec<f64> {
    let n = game.n_players();
    let fact: Vec<f64> = (0..=n)
        .scan(1.0, |acc, k| {
            if k > 0 {
                *acc *= k as f64;
            }
            Some(*acc)
        })
        .collect();
    let mut phi = vec![0.0; n];
    for s in Coalition::all(n).filter(|s| s.len() < n) {
        let weight = fact[s.len()] * fact[n - s.len() - 1] / fact[n];
        let v = game.value(s);
        for (i, slot) in phi.iter_mut().enumerate() {
            if !s.contains(i) {
                *slot += weight * (game.value(s.with(i)) - v);
            }
        }
    }
    let grand = game.value(Coalition::grand(n));
    if grand.abs() < 1e-12 {
        return vec![0.0; n];
    }
    phi.iter().map(|p| p / grand).collect()
}

/// A report's shares under `scheme` (empty when the scheme is absent).
pub fn scheme_shares<'r>(report: &'r PolicyReport, scheme: &str) -> &'r [f64] {
    report
        .assessments
        .iter()
        .find(|a| a.scheme == scheme)
        .map_or(&[], |a| a.shares.as_slice())
}

/// Largest absolute difference between two share vectors (∞ on a
/// length mismatch).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Whether shares are finite and sum to one.
pub fn efficient(shares: &[f64]) -> bool {
    shares.iter().all(|s| s.is_finite()) && (shares.iter().sum::<f64>() - 1.0).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_coalition::TableGame;

    const TABLE: &str = "stability-n7\t3\t00000000000000ff\nsynthetic-n200\t3\t0000000000000abc\n";

    #[test]
    fn gate_accepts_the_reference_and_rejects_a_perturbed_one() {
        assert_eq!(
            check_fingerprint(TABLE, "stability-n7", 3, 0xff),
            Verdict::Match
        );
        assert_eq!(
            check_fingerprint(TABLE, "stability-n7", 3, 0xfe),
            Verdict::Mismatch { expected: 0xff }
        );
        let perturbed = TABLE.replace("abc", "abd");
        assert!(check_fingerprint(TABLE, "synthetic-n200", 3, 0xabc).ok());
        assert!(!check_fingerprint(&perturbed, "synthetic-n200", 3, 0xabc).ok());
        assert_eq!(
            check_fingerprint(TABLE, "stability-n7", 4, 0xff),
            Verdict::Unlisted
        );
    }

    #[test]
    fn figure_totals_reject_a_perturbed_sweep() {
        assert!(fig_total_ok("fig9", 4_989_650.262238));
        assert!(fig_total_ok("fig9", 4_989_650.2622384));
        assert!(!fig_total_ok("fig9", 4_989_650.262240));
        assert!(!fig_total_ok("fig4", 55.001));
        assert!(!fig_total_ok("fig10", 55.0));
    }

    #[test]
    fn shapley_by_definition_matches_the_crates_exact_shapley() {
        // Any superadditive 3-player table; the crate's exact Shapley is
        // the comparison.
        let values = vec![0.0, 0.0, 0.0, 500.0, 800.0, 900.0, 1200.0, 1300.0];
        let table = TableGame::from_values(3, values);
        let phi = shapley_by_definition(&table);
        let exact = fedval_coalition::shapley_normalized(&table);
        assert!(max_abs_diff(&phi, &exact) < 1e-12);
        assert!(efficient(&phi));
    }
}
