//! The timing adapter: a game that forwards every `V(S)` call to the
//! game it wraps and records the call, its wall time and `|S|`.
//!
//! The coalition and formation layers take any [`CoalitionalGame`] or
//! [`WideGame`], so handing them a [`Timed`] game measures the core
//! `V(S)` layer from outside without touching program code.

use fedval_coalition::{Coalition, CoalitionalGame, WideGame};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Totals of the `V(S)` calls a [`Timed`] game has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VsTotals {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside the wrapped game, ns.
    pub busy_ns: u64,
    /// Sum of `|S|` over the calls.
    pub members: u64,
}

impl VsTotals {
    /// Wall time per coalition member, ns (0 when no member was priced).
    pub fn ns_per_member(self) -> f64 {
        if self.members == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.members as f64
        }
    }
}

/// Wraps a game and times each `V(S)` call. The counters are relaxed
/// atomics: they publish no other data, and the game stays `Sync`.
pub struct Timed<G> {
    inner: G,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    members: AtomicU64,
}

impl<G> Timed<G> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: G) -> Timed<G> {
        Timed {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            members: AtomicU64::new(0),
        }
    }

    /// The totals so far.
    pub fn totals(&self) -> VsTotals {
        VsTotals {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            members: self.members.load(Ordering::Relaxed),
        }
    }

    fn timed(&self, members: usize, f: impl FnOnce(&G) -> f64) -> f64 {
        let start = Instant::now();
        let value = f(&self.inner);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.members.fetch_add(members as u64, Ordering::Relaxed);
        value
    }
}

impl<G: CoalitionalGame> CoalitionalGame for Timed<G> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }

    fn value(&self, coalition: Coalition) -> f64 {
        self.timed(coalition.len(), |g| g.value(coalition))
    }
}

impl<G: WideGame> WideGame for Timed<G> {
    fn n_players(&self) -> usize {
        self.inner.n_players()
    }

    fn value_members(&self, members: &[usize]) -> f64 {
        self.timed(members.len(), |g| g.value_members(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::FederationGame;

    #[test]
    fn adapter_returns_the_wrapped_games_values_bit_for_bit() {
        let (facilities, demand) = fedval_testbed::synthetic_federation(9, 5);
        let game = FederationGame::new(&facilities, &demand);
        let timed = Timed::new(FederationGame::new(&facilities, &demand));
        for c in Coalition::all(9) {
            assert_eq!(
                CoalitionalGame::value(&timed, c).to_bits(),
                CoalitionalGame::value(&game, c).to_bits()
            );
            let members: Vec<usize> = c.players().collect();
            assert_eq!(
                timed.value_members(&members).to_bits(),
                game.value_members(&members).to_bits()
            );
        }
        let totals = timed.totals();
        assert_eq!(totals.calls, 2 * 512);
        assert_eq!(totals.members, 2 * 9 * 256);
        assert!(totals.busy_ns > 0);
    }
}
