//! The Shapley value (eq. 4 of the paper) — the exact runner.
//!
//! The Shapley value of player `i` is the expected marginal contribution of
//! `i` over a uniformly random ordering of the players:
//!
//! ```text
//! ϕᵢ(N, V) = Σ_{S ⊆ N∖{i}}  |S|!·(n−|S|−1)!/n! · [V(S ∪ {i}) − V(S)]
//! ```
//!
//! The paper uses ϕ and its normalization ϕ̂ᵢ = ϕᵢ / V(N) (eq. 5) as the
//! profit-sharing weights `sᵢ`. Past the `2^n` wall the sampled estimators
//! in [`approx`](crate::approx) take over.

use crate::coalition::{Coalition, PlayerId};
use crate::game::CoalitionalGame;

/// Exact Shapley values of all players, on the calling thread.
pub fn shapley<G: CoalitionalGame>(game: &G) -> Vec<f64> {
    let n = game.n_players();
    let _span = fedval_obs::span_with("coalition.shapley.exact", || format!("n={n}"));
    let weights = subset_weights(n);
    (0..n).map(|i| player_sum(game, &weights, i)).collect()
}

/// Exact Shapley values of all players, with the per-player sums spread
/// over up to `threads` scoped workers.
///
/// Worth it when `n` is large enough that `2^n` characteristic-function
/// evaluations dominate, or when the characteristic function itself is
/// expensive (allocation optimizer, simulation). The characteristic
/// function must be `Sync`, which [`CoalitionalGame`] requires. Each
/// player's sum runs on exactly one worker in the same order, so the
/// result is bit-identical at every thread count; a game with no players
/// yields `[]`.
pub fn shapley_parallel<G: CoalitionalGame>(game: &G, threads: usize) -> Vec<f64> {
    let n = game.n_players();
    let threads = threads.clamp(1, n.max(1));
    // One span name for exact Shapley at any thread count, so a trace
    // does not depend on the host's core count.
    let _span = fedval_obs::span_with("coalition.shapley.exact", || {
        format!("n={n} threads={threads}")
    });
    // Every player's sum uses the same weights: compute them once.
    let weights = subset_weights(n);
    let mut phi = vec![0.0; n];
    for_each_slot(&mut phi, threads, |i, slot| {
        *slot = player_sum(game, &weights, i);
    });
    phi
}

/// Player `i`'s subset sum `Σ_{S ⊆ N∖{i}} w(|S|)·[V(S ∪ {i}) − V(S)]`,
/// over `2^(n−1)` marginals; `weights` comes from [`subset_weights`].
fn player_sum<G: CoalitionalGame>(game: &G, weights: &[f64], i: PlayerId) -> f64 {
    let others = Coalition::grand(weights.len()).without(i);
    let mut phi = 0.0;
    for s in others.subsets() {
        phi += weights[s.len()] * game.marginal(i, s);
    }
    phi
}

/// Runs `work(k, &mut slots[k])` for every slot on up to `threads` scoped
/// workers, each owning one contiguous chunk. Slot `k` always gets index
/// `k`, so what lands in a slot never depends on the thread count. An
/// empty slice spawns nothing; a worker's panic is re-raised with its
/// original payload.
///
/// One chunk still gets its own worker rather than running inline. On a
/// shared 2-vCPU host, running it inline doubled the run-to-run spread
/// of the n = 200 report-plus-formation timing (middle half of ten runs
/// 3.4 ms against 1.4 ms): the scheduler places each fresh worker anew,
/// while a long-lived calling thread keeps the CPU it started on.
pub(crate) fn for_each_slot<T, F>(slots: &mut [T], threads: usize, work: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let per = slots.len().div_ceil(threads.max(1)).max(1);
    let work = &work;
    let outcome = crossbeam::thread::scope(|scope| {
        for (c, chunk) in slots.chunks_mut(per).enumerate() {
            scope.spawn(move |_| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    work(c * per + k, slot);
                }
            });
        }
    });
    if let Err(payload) = outcome {
        // A worker panicked (characteristic function blew up): propagate
        // the original panic rather than masking it with a new one.
        std::panic::resume_unwind(payload);
    }
}

/// Normalized Shapley values ϕ̂ᵢ = ϕᵢ / V(N) (eq. 5 of the paper).
///
/// Returns all zeros when `V(N) = 0` (an inessential federation generates no
/// value to share).
pub fn shapley_normalized<G: CoalitionalGame>(game: &G) -> Vec<f64> {
    normalize(shapley(game), game.grand_value())
}

/// `vᵢ / total` for every entry, or all zeros when `|total| < 1e-12` — the
/// one place ϕ̂ = ϕ/V(N) is computed.
pub(crate) fn normalize(phi: Vec<f64>, total: f64) -> Vec<f64> {
    if total.abs() < 1e-12 {
        vec![0.0; phi.len()]
    } else {
        phi.into_iter().map(|v| v / total).collect()
    }
}

/// Weight `w[s] = s!·(n−1−s)!/n! = 1/(n·C(n−1,s))` for each predecessor-set
/// size `s ∈ 0..n` (empty for `n = 0`). Computed as `1 / (n · C(n−1, s))`,
/// which stays in `f64` range for any `n ≤ 64`.
fn subset_weights(n: usize) -> Vec<f64> {
    let mut w = Vec::with_capacity(n);
    // C(n−1, s) built incrementally: C(n−1,0)=1; C(n−1,s+1)=C·(n−1−s)/(s+1).
    let mut binom = 1.0f64;
    for s in 0..n {
        w.push(1.0 / (n as f64 * binom));
        binom *= (n - 1 - s) as f64 / (s + 1) as f64;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{FnGame, TableGame};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn weights_sum_over_subsets_to_one() {
        // Σ_{S⊆N∖i} w(|S|) = Σ_s C(n−1,s)·w(s) = 1 for any n.
        for n in 1..=10 {
            let w = subset_weights(n);
            let mut total = 0.0;
            let mut binom = 1.0f64;
            #[allow(clippy::needless_range_loop)]
            for s in 0..n {
                total += binom * w[s];
                binom *= (n - 1 - s) as f64 / (s + 1) as f64;
            }
            assert_close(total, 1.0, 1e-12);
        }
    }

    #[test]
    fn additive_game_gives_singleton_values() {
        // V(S) = Σ_{i∈S} aᵢ ⟹ ϕᵢ = aᵢ.
        let a = [3.0, 5.0, 7.0, 11.0];
        let g = FnGame::new(4, move |c: Coalition| {
            c.players().map(|p| a[p]).sum::<f64>()
        });
        let phi = shapley(&g);
        for (i, &ai) in a.iter().enumerate() {
            assert_close(phi[i], ai, 1e-12);
        }
    }

    #[test]
    fn symmetric_players_get_equal_shares() {
        let g = FnGame::new(5, |c: Coalition| (c.len() as f64).powi(2));
        let phi = shapley(&g);
        for i in 1..5 {
            assert_close(phi[i], phi[0], 1e-12);
        }
        assert_close(phi.iter().sum::<f64>(), 25.0, 1e-9); // efficiency
    }

    #[test]
    fn glove_game_three_players() {
        // Players {0} left glove, {1, 2} right gloves; a pair is worth 1.
        // Known Shapley: ϕ_left = 2/3, ϕ_right = 1/6 each.
        let g = FnGame::new(3, |c: Coalition| {
            let left = c.contains(0) as usize;
            let right = c.contains(1) as usize + c.contains(2) as usize;
            left.min(right) as f64
        });
        let phi = shapley(&g);
        assert_close(phi[0], 2.0 / 3.0, 1e-12);
        assert_close(phi[1], 1.0 / 6.0, 1e-12);
        assert_close(phi[2], 1.0 / 6.0, 1e-12);
    }

    #[test]
    fn paper_worked_example_threshold_500() {
        // §4.1: L = (100, 400, 800), l = 500, single experiment, d = 1.
        // Eq. (1) uses a *strict* threshold (u = x^d iff x > l), so
        // V({1})=0, V({2})=0, V({3})=800, V({1,2})=0 (500 ≯ 500),
        // V({1,3})=900, V({2,3})=1200, V(N)=1300 — which reproduces the
        // paper's ϕ̂₂ = 2/13 exactly. (The paper's in-text "V({1,2})=500,
        // V({2,3})=1300" list is inconsistent with its own 2/13; see
        // EXPERIMENTS.md.)
        let l_contrib = [100.0, 400.0, 800.0];
        let g = FnGame::new(3, move |c: Coalition| {
            let total: f64 = c.players().map(|p| l_contrib[p]).sum();
            if total > 500.0 {
                total
            } else {
                0.0
            }
        });
        let phi_hat = shapley_normalized(&g);
        assert_close(phi_hat[1], 2.0 / 13.0, 1e-12);
        assert_close(phi_hat.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn efficiency_axiom_on_random_table() {
        let g = TableGame::try_from_fn(6, |c| {
            // Deterministic pseudo-random values.
            let x = c.0.wrapping_mul(0x9E3779B97F4A7C15);
            (x >> 40) as f64 / 1e3
        }).expect("table fits");
        // Force V(∅)=0 for the axiom.
        let mut g = g;
        g.set(Coalition::EMPTY, 0.0);
        let phi = shapley(&g);
        assert_close(phi.iter().sum::<f64>(), g.grand_value(), 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = TableGame::try_from_fn(8, |c| (c.len() as f64).sqrt() * c.0 as f64 % 17.0)
            .expect("table fits");
        let seq = shapley(&g);
        for threads in [1, 2, 3, 8, 64] {
            let par = shapley_parallel(&g, threads);
            for i in 0..8 {
                assert_close(par[i], seq[i], 1e-12);
            }
        }
    }

    #[test]
    fn empty_game_has_empty_shapley_at_any_thread_count() {
        let g = FnGame::new(0, |_: Coalition| 0.0);
        for threads in [1, 4] {
            assert_eq!(shapley_parallel(&g, threads), Vec::<f64>::new());
        }
        assert_eq!(shapley(&g), Vec::<f64>::new());
    }

    #[test]
    fn normalization_handles_zero_grand_value() {
        let g = FnGame::new(3, |_| 0.0);
        assert_eq!(shapley_normalized(&g), vec![0.0; 3]);
    }
}
