//! Parallel-vs-sequential equivalence guards (DESIGN.md §9).
//!
//! The determinism contract of this workspace's parallel paths is *bit
//! equality*, not approximate equality: `shapley_parallel` must return
//! exactly `shapley`'s floats for every thread count, and
//! [`fedval_bench::run_sweep`]-generated figure data must render to
//! identical bytes at threads=1 and threads=4. Anything weaker would let
//! thread count leak into committed figure CSVs and
//! BENCH_pipeline.json's deterministic section.

use fedval::{paper_facilities, synthetic_scenario, Demand, ExperimentClass, FederationScenario};
use fedval_bench::{run_sweep, set_sweep_threads};
use fedval_coalition::{shapley, shapley_normalized, shapley_parallel, ShapleyEstimate, TableGame};
use proptest::prelude::*;

/// Random small `TableGame`: 2–6 players, arbitrary finite values with
/// `V(∅) = 0`. The vector strategy draws the max table size (64) and
/// truncates to `2^n` (the vendored proptest has no `prop_flat_map`).
fn table_game_strategy() -> impl Strategy<Value = TableGame> {
    (
        2usize..=6,
        prop::collection::vec(-100.0f64..100.0, 64),
    )
        .prop_map(|(n, mut values)| {
            values.truncate(1 << n);
            values[0] = 0.0; // V(∅) = 0 convention
            TableGame::from_values(n, values)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shapley_parallel_is_bit_identical(game in table_game_strategy()) {
        let sequential = shapley(&game);
        for threads in 1..=8 {
            let parallel = shapley_parallel(&game, threads);
            // Bit-for-bit: each player's sum runs in the same order on
            // exactly one worker, so even float rounding must agree.
            prop_assert_eq!(
                &sequential,
                &parallel,
                "threads={} diverged",
                threads
            );
        }
    }

    #[test]
    fn run_sweep_is_thread_count_invariant(points in prop::collection::vec(-1000i64..1000, 1..80)) {
        let eval = |&p: &i64| (p as f64).sin() * (p as f64);
        let sequential = run_sweep(&points, eval, 1);
        for threads in [2usize, 3, 4, 8] {
            let parallel = run_sweep(&points, eval, threads);
            prop_assert_eq!(&sequential, &parallel, "threads={} diverged", threads);
        }
    }
}

/// End-to-end: a real figure generator produces byte-identical CSV at
/// threads=1 and threads=4 (the same equality `bench_pipeline` commits
/// to BENCH_pipeline.json and ci.sh re-checks via `repro --csv` diffs).
#[test]
fn figure_data_is_thread_invariant() {
    set_sweep_threads(1);
    let sequential = fedval_bench::fig4_threshold().to_csv();
    set_sweep_threads(4);
    let parallel = fedval_bench::fig4_threshold().to_csv();
    set_sweep_threads(0);
    assert_eq!(
        sequential, parallel,
        "fig4 CSV differs between threads=1 and threads=4"
    );
}

/// One normalization: on the exact path, `ShapleyEstimate::shares` is
/// `shapley_normalized` bit for bit, at one thread and at four.
#[test]
fn exact_estimate_shares_match_shapley_normalized() {
    let scenarios: [fn() -> FederationScenario; 2] = [
        || {
            FederationScenario::new(
                paper_facilities([1, 1, 1]),
                Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
            )
        },
        || synthetic_scenario(8, 42),
    ];
    for build in scenarios {
        let expected = shapley_normalized(build().try_game().expect("table fits"));
        for threads in [1, 4] {
            let estimate = build()
                .with_threads(threads)
                .shapley_estimate()
                .expect("exact path solves");
            assert!(matches!(estimate, ShapleyEstimate::Exact { .. }));
            let shares = estimate.shares();
            assert_eq!(shares.len(), expected.len());
            for (a, b) in shares.iter().zip(&expected) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }
}
