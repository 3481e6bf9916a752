//! The (non-normalized and normalized) Banzhaf index.
//!
//! The Banzhaf value weights every coalition equally instead of weighting
//! by ordering probability as the Shapley value does:
//!
//! ```text
//! βᵢ = 1/2^(n−1) · Σ_{S ⊆ N∖{i}} [V(S ∪ {i}) − V(S)]
//! ```
//!
//! It is included as an additional contribution measure for the policy
//! comparison benches: like the Shapley value it captures marginal
//! contribution, but it is not efficient (the βᵢ need not sum to `V(N)`),
//! which is exactly why the paper's profit-sharing use case prefers Shapley.

use crate::coalition::Coalition;
use crate::game::CoalitionalGame;

/// Raw Banzhaf values of all players.
pub fn banzhaf<G: CoalitionalGame>(game: &G) -> Vec<f64> {
    (0..game.n_players())
        .map(|i| banzhaf_player(game, i))
        .collect()
}

/// Raw Banzhaf value of player `i < n`: the mean of its `2^(n−1)`
/// marginals.
fn banzhaf_player<G: CoalitionalGame>(game: &G, i: usize) -> f64 {
    let n = game.n_players();
    let others = Coalition::grand(n).without(i);
    let mut total = 0.0;
    for s in others.subsets() {
        total += game.marginal(i, s);
    }
    total / (1u64 << (n - 1)) as f64
}

/// Banzhaf values rescaled to sum to one (the *normalized* Banzhaf index),
/// suitable as sharing weights. All zeros if the raw values sum to ~0.
pub fn banzhaf_normalized<G: CoalitionalGame>(game: &G) -> Vec<f64> {
    let raw = banzhaf(game);
    let total: f64 = raw.iter().sum();
    crate::shapley::normalize(raw, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::FnGame;

    #[test]
    fn additive_game_banzhaf_is_singleton_value() {
        let a = [1.0, 2.0, 3.0];
        let g = FnGame::new(3, move |c: Coalition| {
            c.players().map(|p| a[p]).sum::<f64>()
        });
        let b = banzhaf(&g);
        for i in 0..3 {
            assert!((b[i] - a[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn three_player_majority_voting() {
        // V(S)=1 iff |S| ≥ 2. Swings per player: S ∈ {{j},{k}} → 2 of 4.
        let g = FnGame::new(3, |c: Coalition| (c.len() >= 2) as u64 as f64);
        let b = banzhaf(&g);
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            assert!((b[i] - 0.5).abs() < 1e-12);
        }
        let bn = banzhaf_normalized(&g);
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            assert!((bn[i] - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dictator_takes_everything_normalized() {
        // Player 0 is a dictator: V(S)=1 iff 0 ∈ S.
        let g = FnGame::new(4, |c: Coalition| c.contains(0) as u64 as f64);
        let bn = banzhaf_normalized(&g);
        assert!((bn[0] - 1.0).abs() < 1e-12);
        #[allow(clippy::needless_range_loop)]
        for i in 1..4 {
            assert!(bn[i].abs() < 1e-12);
        }
    }
}
