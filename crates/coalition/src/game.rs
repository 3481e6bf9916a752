//! Game representations: the [`CoalitionalGame`] trait, dense tables, and
//! memoizing wrappers.

use crate::coalition::{Coalition, PlayerId};
use crate::error::GameError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use fedval_obs::OrderedMutex;
use std::sync::Condvar;

/// A transferable-utility coalitional game `(N, V)`.
///
/// Implementors provide the number of players and the characteristic
/// function `V : 2^N → ℝ`. The convention `V(∅) = 0` is assumed by every
/// solution concept in this crate; [`check_zero_normalized_empty`] can be
/// used in tests to validate custom implementations.
///
/// Implementations should be cheap to call repeatedly — the solution
/// concepts evaluate `value` up to `O(2^n)` times. Expensive characteristic
/// functions (e.g. ones that run an allocation optimizer or a simulation)
/// should be wrapped in a [`CachedGame`] or materialized into a
/// [`TableGame`] via [`TableGame::try_from_game`].
pub trait CoalitionalGame: Sync {
    /// Number of players `n = |N|`.
    fn n_players(&self) -> usize;

    /// The characteristic function `V(S)`.
    fn value(&self, coalition: Coalition) -> f64;

    /// Value of the grand coalition `V(N)`.
    fn grand_value(&self) -> f64 {
        self.value(Coalition::grand(self.n_players()))
    }

    /// Marginal contribution of player `i` to coalition `S` (with `i ∉ S`):
    /// `Δᵢ(V, S) = V(S ∪ {i}) − V(S)`.
    fn marginal(&self, i: PlayerId, coalition: Coalition) -> f64 {
        debug_assert!(!coalition.contains(i));
        self.value(coalition.with(i)) - self.value(coalition)
    }
}

/// Asserts `V(∅) = 0` (within `tol`); helper for tests of custom games.
pub fn check_zero_normalized_empty<G: CoalitionalGame>(game: &G, tol: f64) -> bool {
    game.value(Coalition::EMPTY).abs() <= tol
}

/// A game materialized as a dense table of `2^n` values.
///
/// This is the workhorse representation: exact solution concepts touch every
/// coalition anyway, so paying `O(2^n)` space makes each lookup one array
/// access. Practical for `n ≤ ~25`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableGame {
    n: usize,
    values: Vec<f64>,
}

impl TableGame {
    /// Largest player count a dense table supports: `2^25` f64 values is
    /// 256 MiB; anything bigger must stay lazy (see [`CachedGame`]).
    pub const MAX_PLAYERS: usize = 25;

    /// Builds a table game by evaluating `f` on every coalition.
    ///
    /// # Errors
    /// [`GameError::TooManyPlayers`] when `n > TableGame::MAX_PLAYERS` —
    /// materialize lazily with [`CachedGame`] instead.
    pub fn try_from_fn(n: usize, f: impl Fn(Coalition) -> f64) -> Result<TableGame, GameError> {
        if n > TableGame::MAX_PLAYERS {
            return Err(GameError::TooManyPlayers {
                n,
                max: TableGame::MAX_PLAYERS,
                solver: "table_game",
            });
        }
        let values = Coalition::all(n)
            .map(|c| {
                // One span per coalition evaluation: with the scenario
                // characteristic function each of these is one LP solve,
                // which is exactly the per-coalition cost the trace exists
                // to expose.
                let _eval = fedval_obs::span_with("coalition.game.eval", || format!("mask={}", c.0));
                f(c)
            })
            .collect();
        Ok(TableGame { n, values })
    }

    /// Materializes any [`CoalitionalGame`] into a dense table.
    ///
    /// # Errors
    /// [`GameError::TooManyPlayers`] when the game exceeds
    /// [`TableGame::MAX_PLAYERS`].
    pub fn try_from_game<G: CoalitionalGame>(game: &G) -> Result<TableGame, GameError> {
        TableGame::try_from_fn(game.n_players(), |c| game.value(c))
    }

    /// Builds directly from a value vector indexed by coalition mask.
    ///
    /// # Panics
    /// Panics if `values.len() != 2^n`.
    pub fn from_values(n: usize, values: Vec<f64>) -> TableGame {
        assert_eq!(values.len(), 1usize << n, "need exactly 2^n values");
        TableGame { n, values }
    }

    /// Immutable access to the raw table (indexed by `Coalition::index`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sets `V(S)`.
    pub fn set(&mut self, coalition: Coalition, value: f64) {
        self.values[coalition.index()] = value;
    }

    /// The zero-normalized version of this game:
    /// `V₀(S) = V(S) − Σ_{i∈S} V({i})`.
    ///
    /// `self` already holds a validated `n ≤ MAX_PLAYERS`, so the values
    /// are filled directly.
    pub fn zero_normalized(&self) -> TableGame {
        let singles: Vec<f64> = (0..self.n)
            .map(|i| self.values[Coalition::singleton(i).index()])
            .collect();
        let values = Coalition::all(self.n)
            .map(|c| self.values[c.index()] - c.players().map(|p| singles[p]).sum::<f64>())
            .collect();
        TableGame { n: self.n, values }
    }
}

impl CoalitionalGame for TableGame {
    fn n_players(&self) -> usize {
        self.n
    }

    fn value(&self, coalition: Coalition) -> f64 {
        self.values[coalition.index()]
    }
}

/// One memo-table entry: a finished value, or a marker that some thread is
/// currently evaluating this coalition (single-flight).
enum Slot {
    /// The characteristic function finished; the value is cached.
    Ready(f64),
    /// A thread is evaluating this coalition right now; wait, don't re-run.
    Pending,
}

/// Memoizing wrapper for games with expensive characteristic functions
/// (allocation optimizers, simulations).
///
/// Thread-safe *and single-flight*: concurrent solution-concept code (e.g.
/// the parallel Shapley pass or the sweep engine) may share one
/// `CachedGame` across threads, and concurrent misses on the *same*
/// coalition run the inner evaluation exactly once — the losers of the
/// race block on a condvar until the winner publishes, instead of
/// silently re-running an expensive LP solve. Misses on *different*
/// coalitions still evaluate in parallel (the inner call runs outside the
/// map lock).
///
/// Counters: `coalition.cache.hits` / `coalition.cache.misses` count
/// served-from-cache vs evaluated-by-this-call; `coalition.cache.duplicate_evals`
/// counts races where a second thread missed on an in-flight coalition —
/// each of those was a duplicated inner evaluation before the fix, and is
/// a blocked wait after it.
///
/// The memo table is a `BTreeMap` keyed by coalition mask: iteration (and
/// any future snapshot/export of the cache) visits coalitions in ascending
/// mask order, so nothing downstream can ever observe hash-seed-dependent
/// ordering (fedval-lint rule `nondeterministic-iteration`).
pub struct CachedGame<G> {
    inner: G,
    /// An [`OrderedMutex`] so every test run validates the workspace
    /// lock-acquisition order dynamically (DESIGN.md §12). Poison
    /// recovery lives inside the wrapper: the map only ever holds
    /// coherent Ready/Pending entries (a panicking inner evaluation
    /// cleans its sentinel up via `EvalGuard` before the lock drops).
    cache: OrderedMutex<BTreeMap<u64, Slot>>,
    ready: Condvar,
}

impl<G: CoalitionalGame> CachedGame<G> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: G) -> CachedGame<G> {
        CachedGame {
            inner,
            cache: OrderedMutex::new("coalition.cache", BTreeMap::new()),
            ready: Condvar::new(),
        }
    }

    /// Number of memoized (finished) coalition values.
    pub fn cached_len(&self) -> usize {
        self.cache
            .lock()
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// The inner game, for evaluations that bypass the memo.
    pub fn inner(&self) -> &G {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner game.
    pub fn into_inner(self) -> G {
        self.inner
    }

    /// Evaluates **every** coalition of the game, populating the memo
    /// table so later callers always hit. `threads > 1` shards the
    /// `2^n` evaluations across scoped workers; the single-flight
    /// machinery already makes concurrent misses safe, so workers need
    /// no extra coordination. Returns the number of coalitions cached
    /// afterwards (always `2^n`).
    ///
    /// This is the warm-up path of long-lived services (`fedval-serve`
    /// pre-warms its scenario cache at startup so the first client
    /// request is as fast as the millionth).
    pub fn prewarm(&self, threads: usize) -> usize {
        let n = self.inner.n_players();
        let total: u64 = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        let threads = threads.max(1).min(n.max(1) * 8);
        let _span = fedval_obs::span_with("coalition.cache.prewarm", || {
            format!("n={n} threads={threads}")
        });
        if threads == 1 {
            for c in Coalition::all(n) {
                let _ = self.value(c);
            }
        } else {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        // Strided sharding: worker t evaluates masks
                        // t, t+threads, t+2·threads, …
                        let mut mask = t as u64;
                        while mask <= total {
                            let _ = self.value(Coalition(mask));
                            match mask.checked_add(threads as u64) {
                                Some(next) => mask = next,
                                None => break,
                            }
                        }
                    });
                }
            });
        }
        self.cached_len()
    }

}

/// Removes the `Pending` sentinel if the inner evaluation unwinds before
/// publishing, and wakes waiters either way — a blocked thread then finds
/// the slot empty and retries the evaluation itself rather than hanging.
struct EvalGuard<'a, G: CoalitionalGame> {
    game: &'a CachedGame<G>,
    key: u64,
}

impl<G: CoalitionalGame> Drop for EvalGuard<'_, G> {
    fn drop(&mut self) {
        let mut cache = self.game.cache.lock();
        if matches!(cache.get(&self.key), Some(Slot::Pending)) {
            cache.remove(&self.key);
        }
        drop(cache);
        self.game.ready.notify_all();
    }
}

impl<G: CoalitionalGame> CoalitionalGame for CachedGame<G> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }

    fn value(&self, coalition: Coalition) -> f64 {
        let key = coalition.0;
        {
            let mut cache = self.cache.lock();
            let mut raced = false;
            loop {
                match cache.get(&key) {
                    Some(Slot::Ready(v)) => {
                        let v = *v;
                        drop(cache);
                        fedval_obs::counter_add("coalition.cache.hits", 1);
                        return v;
                    }
                    Some(Slot::Pending) => {
                        if !raced {
                            raced = true;
                            // A concurrent miss on an in-flight coalition:
                            // before the single-flight fix this re-ran the
                            // inner evaluation.
                            fedval_obs::counter_add("coalition.cache.duplicate_evals", 1);
                        }
                        cache = self.cache.wait(&self.ready, cache);
                    }
                    None => {
                        cache.insert(key, Slot::Pending);
                        break;
                    }
                }
            }
        }
        fedval_obs::counter_add("coalition.cache.misses", 1);
        let guard = EvalGuard { game: self, key };
        let v = self.inner.value(coalition);
        {
            let mut cache = self.cache.lock();
            cache.insert(key, Slot::Ready(v));
        }
        // The guard finds the slot Ready (nothing to clean up) and
        // notifies the waiters blocked on this coalition.
        drop(guard);
        v
    }
}

/// A game defined by a closure; convenient for tests and ad-hoc models.
pub struct FnGame<F> {
    n: usize,
    f: F,
}

impl<F: Fn(Coalition) -> f64 + Sync> FnGame<F> {
    /// Wraps a closure as a game over `n` players.
    pub fn new(n: usize, f: F) -> FnGame<F> {
        FnGame { n, f }
    }
}

impl<F: Fn(Coalition) -> f64 + Sync> CoalitionalGame for FnGame<F> {
    fn n_players(&self) -> usize {
        self.n
    }

    fn value(&self, coalition: Coalition) -> f64 {
        (self.f)(coalition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cardinality_game(n: usize) -> TableGame {
        TableGame::try_from_fn(n, |c| c.len() as f64).expect("table fits")
    }

    #[test]
    fn table_from_fn_round_trips() {
        let g = cardinality_game(4);
        assert_eq!(g.n_players(), 4);
        assert_eq!(g.value(Coalition::EMPTY), 0.0);
        assert_eq!(g.value(Coalition::grand(4)), 4.0);
        assert_eq!(g.value(Coalition::from_players([1, 3])), 2.0);
        assert!(check_zero_normalized_empty(&g, 0.0));
    }

    #[test]
    fn marginal_contribution() {
        let g = TableGame::try_from_fn(3, |c| (c.len() * c.len()) as f64).expect("table fits");
        // Δ_0({1}) = V({0,1}) − V({1}) = 4 − 1 = 3.
        assert_eq!(g.marginal(0, Coalition::singleton(1)), 3.0);
    }

    #[test]
    fn zero_normalization_subtracts_singletons() {
        let g = TableGame::try_from_fn(3, |c| if c.is_empty() { 0.0 } else { 10.0 })
            .expect("table fits");
        let z = g.zero_normalized();
        assert_eq!(z.value(Coalition::singleton(0)), 0.0);
        assert_eq!(z.value(Coalition::grand(3)), 10.0 - 30.0);
    }

    #[test]
    fn from_values_checks_length() {
        let g = TableGame::from_values(2, vec![0.0, 1.0, 2.0, 5.0]);
        assert_eq!(g.value(Coalition::grand(2)), 5.0);
    }

    #[test]
    #[should_panic(expected = "2^n")]
    fn from_values_rejects_bad_length() {
        let _ = TableGame::from_values(2, vec![0.0; 3]);
    }

    #[test]
    fn cached_game_memoizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let g = FnGame::new(3, |c: Coalition| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            c.len() as f64
        });
        let cached = CachedGame::new(g);
        let c = Coalition::from_players([0, 1]);
        assert_eq!(cached.value(c), 2.0);
        assert_eq!(cached.value(c), 2.0);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
        assert_eq!(cached.cached_len(), 1);
    }

    #[test]
    fn table_clone_preserves_values() {
        let g = cardinality_game(3);
        let g2 = g.clone();
        assert_eq!(g.values(), g2.values());
    }

    #[test]
    fn try_from_fn_rejects_oversized_games() {
        let err = TableGame::try_from_fn(TableGame::MAX_PLAYERS + 1, |c| c.len() as f64)
            .expect_err("26 players must not materialize");
        match &err {
            GameError::TooManyPlayers { n, max, solver } => {
                assert_eq!(*n, TableGame::MAX_PLAYERS + 1);
                assert_eq!(*max, TableGame::MAX_PLAYERS);
                assert_eq!(*solver, "table_game");
            }
            other => panic!("wrong error variant: {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("26"), "error must name the player count: {msg}");
    }

    #[test]
    fn try_from_game_matches_the_game() {
        let g = FnGame::new(3, |c: Coalition| (c.len() * 2) as f64);
        let table = TableGame::try_from_game(&g).expect("3 players fit");
        assert!(Coalition::all(3).all(|c| table.value(c) == g.value(c)));
    }

    /// Regression test for the concurrent-miss race: before the
    /// single-flight fix, threads missing on the same coalition all ran
    /// the inner evaluation. With the fix, inner evals must equal the
    /// number of distinct coalitions no matter how many threads race.
    #[test]
    fn cached_game_single_flight_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        const N: usize = 5; // 32 distinct coalitions
        const THREADS: usize = 8;
        const ROUNDS: usize = 3;

        let evals = AtomicUsize::new(0);
        let cached = CachedGame::new(FnGame::new(N, |c: Coalition| {
            evals.fetch_add(1, Ordering::SeqCst);
            // Widen the race window so concurrent misses overlap.
            std::thread::sleep(std::time::Duration::from_millis(1));
            c.len() as f64
        }));
        let barrier = Barrier::new(THREADS);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cached = &cached;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        for c in Coalition::all(N) {
                            // Stagger start offsets so threads collide on
                            // different keys, not just in lockstep.
                            let mask = (c.0 + (t + round) as u64) % (1 << N);
                            let shifted = Coalition(mask);
                            assert_eq!(cached.value(shifted), shifted.len() as f64);
                        }
                    }
                });
            }
        });

        assert_eq!(
            evals.load(Ordering::SeqCst),
            1 << N,
            "inner evaluations must equal distinct coalitions (single-flight)"
        );
        assert_eq!(cached.cached_len(), 1 << N);
    }

    /// Pre-warming fills the cache completely (sequential and sharded
    /// paths agree), and warm lookups never re-enter the inner game.
    #[test]
    fn prewarm_fills_the_cache_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 4] {
            let evals = AtomicUsize::new(0);
            let cached = CachedGame::new(FnGame::new(6, |c: Coalition| {
                evals.fetch_add(1, Ordering::SeqCst);
                c.len() as f64
            }));
            assert_eq!(cached.prewarm(threads), 1 << 6, "threads={threads}");
            assert_eq!(evals.load(Ordering::SeqCst), 1 << 6);
            // Every post-warm read is a pure cache hit.
            for c in Coalition::all(6) {
                assert_eq!(cached.value(c), c.len() as f64);
            }
            assert_eq!(evals.load(Ordering::SeqCst), 1 << 6);
        }
    }

    /// A panicking inner evaluation must clean up its Pending sentinel so
    /// waiters retry instead of hanging, and later calls succeed.
    #[test]
    fn cached_game_recovers_from_panicking_eval() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let cached = CachedGame::new(FnGame::new(2, |c: Coalition| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first evaluation fails");
            }
            c.len() as f64
        }));
        let c = Coalition::from_players([0, 1]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cached.value(c)));
        assert!(unwound.is_err());
        // The sentinel was removed on unwind: the retry evaluates afresh.
        assert_eq!(cached.value(c), 2.0);
        assert_eq!(cached.cached_len(), 1);
    }
}
