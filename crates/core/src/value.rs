//! The federation game: facilities + demand → a coalitional game (§3).
//!
//! In the commercial scenario the value of a coalition `S` is the maximum
//! total user utility its pooled infrastructure can generate (eq. 2), with
//! profit `P = µ·ΣU`; since µ only rescales every sharing vector we take
//! µ = 1 as the paper does in §4.

use crate::allocation::{solve, ProfileSolution, SolveError};
use crate::experiment::Demand;
use crate::facility::{Facility, ProfileBuilder, ProfileIndex};
use crate::location::CapacityProfile;
use fedval_coalition::approx::WideGame;
use fedval_coalition::{Coalition, CoalitionError, CoalitionalGame, PlayerId, TableGame};
use std::borrow::Cow;
use std::sync::OnceLock;

/// The coalitional game induced by a set of facilities facing a demand
/// profile (commercial scenario).
///
/// `value(S)` runs the allocation optimizer on the coalition's capacity
/// profile. The profile comes from a [`ProfileIndex`] built on the first
/// evaluation and kept for the game's lifetime: with pairwise-disjoint
/// offers it is a sum of per-facility histograms, otherwise a location
/// merge. For repeated solution-concept computations, call
/// [`FederationGame::table`] once and use the materialized game.
///
/// The game either borrows its facilities and demand
/// ([`FederationGame::new`]) or owns them ([`FederationGame::owned`], the
/// form scenarios, formation runs and the server keep). It is usable at
/// two widths: up to 64 facilities it is a [`CoalitionalGame`] (bitset
/// coalitions, every exact solution concept); at any size it is a
/// [`WideGame`], which is what the sampled Shapley estimators
/// ([`fedval_coalition::shapley_auto_wide`]) consume. Those solvers
/// reject facility counts past their own caps.
#[derive(Debug, Clone)]
pub struct FederationGame<'a> {
    facilities: Cow<'a, [Facility]>,
    demand: Cow<'a, Demand>,
    index: OnceLock<ProfileIndex>,
}

impl<'a> FederationGame<'a> {
    /// Creates the game over borrowed facilities and demand.
    pub fn new(facilities: &'a [Facility], demand: &'a Demand) -> FederationGame<'a> {
        FederationGame {
            facilities: Cow::Borrowed(facilities),
            demand: Cow::Borrowed(demand),
            index: OnceLock::new(),
        }
    }

    /// Creates the game owning its facilities and demand.
    pub fn owned(facilities: Vec<Facility>, demand: Demand) -> FederationGame<'static> {
        FederationGame {
            facilities: Cow::Owned(facilities),
            demand: Cow::Owned(demand),
            index: OnceLock::new(),
        }
    }

    /// The facilities (players), in player-id order.
    pub fn facilities(&self) -> &[Facility] {
        &self.facilities
    }

    /// The demand profile.
    pub fn demand(&self) -> &Demand {
        &self.demand
    }

    /// The facilities' histogram index, built on first use.
    fn profile_index(&self) -> &ProfileIndex {
        self.index.get_or_init(|| ProfileIndex::new(&self.facilities))
    }

    /// Full allocation solution for a coalition (not just its value).
    ///
    /// # Errors
    /// Any [`SolveError`] from the analytic optimizer when the demand profile
    /// is outside its supported cases.
    pub fn solve_coalition(&self, coalition: Coalition) -> Result<ProfileSolution, SolveError> {
        solve(&self.profile_of(coalition.players()), &self.demand)
    }

    /// Full allocation solution for the coalition whose members are
    /// `members` (player ids in `0..n`, no duplicates) — the wide-game
    /// counterpart of [`FederationGame::solve_coalition`], not limited to
    /// 64 facilities.
    ///
    /// # Errors
    /// Any [`SolveError`] from the analytic optimizer when the demand
    /// profile is outside its supported cases.
    pub fn solve_members(&self, members: &[usize]) -> Result<ProfileSolution, SolveError> {
        solve(&self.profile_of(members.iter().copied()), &self.demand)
    }

    fn builder(&self) -> ProfileBuilder<'_> {
        ProfileBuilder::new(&self.facilities, self.profile_index())
    }

    fn profile_of(&self, members: impl Iterator<Item = usize>) -> CapacityProfile {
        let mut builder = self.builder();
        for p in members {
            builder.add(p);
        }
        builder.profile()
    }

    /// `V` of a built profile.
    ///
    /// # Panics
    /// Panics if the demand profile is outside the analytic optimizer's
    /// supported cases (see [`SolveError`]).
    fn value_of(&self, profile: &CapacityProfile) -> f64 {
        match solve(profile, &self.demand) {
            Ok(solution) => solution.total_utility,
            // lint: allow(no-panic-path) — the CoalitionalGame and WideGame
            // traits are infallible; `# Panics` documents this on both
            // impls, and callers validate via solve_coalition/solve_members.
            Err(e) => panic!("FederationGame: unsupported demand: {e}"),
        }
    }

    /// Materializes all `2^n` coalition values into a [`TableGame`].
    ///
    /// # Panics
    /// Panics where [`FederationGame::try_table`] would return an error
    /// (more than [`TableGame::MAX_PLAYERS`] facilities).
    pub fn table(&self) -> TableGame {
        match self.try_table() {
            Ok(table) => table,
            // lint: allow(no-panic-path) — documented `# Panics` convenience
            // wrapper for the paper's n ≤ 3 scenarios; fallible callers use
            // try_table.
            Err(e) => panic!("FederationGame::table: {e}"),
        }
    }

    /// Fallible form of [`FederationGame::table`].
    ///
    /// # Errors
    /// [`CoalitionError::TooManyPlayers`](fedval_coalition::CoalitionError)
    /// when the facility count exceeds what a dense table supports.
    pub fn try_table(&self) -> Result<TableGame, CoalitionError> {
        TableGame::try_from_game(self)
    }
}

impl CoalitionalGame for FederationGame<'_> {
    fn n_players(&self) -> usize {
        self.facilities.len()
    }

    /// `V(S)` — the optimal total utility of coalition `S`.
    ///
    /// # Panics
    /// Panics if the demand profile is outside the analytic optimizer's
    /// supported cases (see [`SolveError`]); validate demand up front with
    /// [`FederationGame::solve_coalition`].
    fn value(&self, coalition: Coalition) -> f64 {
        self.value_of(&self.profile_of(coalition.players()))
    }
}

impl WideGame for FederationGame<'_> {
    fn n_players(&self) -> usize {
        self.facilities.len()
    }

    /// `V(S)` over member slices — the entry point for the sampled Shapley
    /// estimators at any facility count.
    ///
    /// # Panics
    /// Panics if the demand profile is outside the analytic optimizer's
    /// supported cases, exactly like the [`CoalitionalGame`] impl; validate
    /// demand up front with [`FederationGame::solve_members`].
    fn value_members(&self, members: &[PlayerId]) -> f64 {
        self.value_of(&self.profile_of(members.iter().copied()))
    }

    /// Every prefix value of `order` from one running profile: each
    /// step adds one member's histogram (or offer) instead of rebuilding
    /// the coalition. Bit-identical to the default.
    ///
    /// # Panics
    /// As [`WideGame::value_members`].
    fn prefix_values(&self, order: &[PlayerId], out: &mut Vec<f64>) {
        out.clear();
        let mut builder = self.builder();
        for &p in order {
            builder.add(p);
            out.push(self.value_of(&builder.profile()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentClass;
    use crate::facility::paper_facilities;
    use fedval_coalition::{shapley_normalized, Coalition};

    #[test]
    fn worked_example_values_and_shapley() {
        // §4.1: single experiment, l = 500, d = 1, L = (100, 400, 800).
        let facilities = paper_facilities([1, 1, 1]);
        let demand = Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0));
        let game = FederationGame::new(&facilities, &demand);

        assert_eq!(game.value(Coalition::singleton(0)), 0.0);
        assert_eq!(game.value(Coalition::singleton(1)), 0.0);
        assert_eq!(game.value(Coalition::singleton(2)), 800.0);
        assert_eq!(game.value(Coalition::from_players([0, 1])), 0.0); // strict
        assert_eq!(game.value(Coalition::from_players([0, 2])), 900.0);
        assert_eq!(game.value(Coalition::from_players([1, 2])), 1200.0);
        assert_eq!(game.grand_value(), 1300.0);

        let table = game.table();
        let phi_hat = shapley_normalized(&table);
        assert!((phi_hat[1] - 2.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn zero_threshold_shares_are_proportional() {
        // Paper: "for l = 0, each ϕ̂ᵢ and π̂ᵢ are equal".
        let facilities = paper_facilities([1, 1, 1]);
        let demand = Demand::one_experiment(ExperimentClass::simple("e", 0.0, 1.0));
        let game = FederationGame::new(&facilities, &demand);
        let phi_hat = shapley_normalized(&game.table());
        assert!((phi_hat[0] - 100.0 / 1300.0).abs() < 1e-9);
        assert!((phi_hat[1] - 400.0 / 1300.0).abs() < 1e-9);
        assert!((phi_hat[2] - 800.0 / 1300.0).abs() < 1e-9);
    }

    #[test]
    fn fig6_game_values_with_resources() {
        // Fig. 6 at l = 299: R = (80, 20, 10). Checked against DESIGN.md's
        // derivation for coalition {1,2}: V = 12000.
        let facilities = paper_facilities([80, 20, 10]);
        let demand = Demand::capacity_filling(ExperimentClass::simple("e", 299.0, 1.0));
        let game = FederationGame::new(&facilities, &demand);
        assert_eq!(game.value(Coalition::from_players([0, 1])), 12_000.0);
        // Facility 1 alone: only 100 locations < 300 required ⇒ 0.
        assert_eq!(game.value(Coalition::singleton(0)), 0.0);
        // Facility 3 alone: 800 locations, cap 10 ⇒ B(10) = 8000 (m=10,
        // sizes 800 each ≥ 300 ✓).
        assert_eq!(game.value(Coalition::singleton(2)), 8000.0);
    }
}

/// Differential tests of the histogram-sum and running-prefix paths
/// against the per-location merge ([`crate::facility::coalition_profile`]).
#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::experiment::{ExperimentClass, Volume};
    use crate::facility::coalition_profile;
    use crate::location::{LocationId, LocationOffer};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// One facility: scattered or contiguous, first location, stride
    /// between scattered locations, per-location capacities.
    type FacilitySpec = (bool, u32, u32, Vec<u64>);

    fn facility_strategy() -> impl Strategy<Value = FacilitySpec> {
        (
            any::<bool>(),
            0u32..30,
            2u32..=4,
            prop::collection::vec(1u64..=8, 1..=10),
        )
    }

    /// Lays the facilities out in private 1000-id regions (disjoint) or
    /// all from location 0 (overlapping wherever their ids meet).
    fn build(specs: &[FacilitySpec], shared_region: bool) -> Vec<Facility> {
        specs
            .iter()
            .enumerate()
            .map(|(i, (scattered, start, stride, caps))| {
                let base = if shared_region {
                    0
                } else {
                    1000 * i as LocationId
                };
                let step = if *scattered { *stride } else { 1 };
                let mut offer = LocationOffer::new();
                for (j, &cap) in caps.iter().enumerate() {
                    offer.add(base + start + step * j as LocationId, cap);
                }
                Facility::new(format!("f{i}"), offer)
            })
            .collect()
    }

    fn demand(threshold: f64, shape: f64, volume: u64) -> Demand {
        let class = ExperimentClass::simple("e", threshold, shape);
        match volume {
            0 => Demand::capacity_filling(class),
            1 => Demand::one_experiment(class),
            k => Demand::single(class, Volume::Count(k)),
        }
    }

    fn oracle(facilities: &[Facility], demand: &Demand, members: &[usize]) -> f64 {
        let profile = coalition_profile(members.iter().map(|&p| &facilities[p]));
        solve(&profile, demand)
            .expect("single-class demand solves")
            .total_utility
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// V(S) and every permutation prefix equal the merge oracle bit
        /// for bit, on both paths; the index flags overlap exactly.
        #[test]
        fn histogram_sums_match_the_merge_oracle(
            specs in prop::collection::vec(facility_strategy(), 1..=6),
            shared_region in any::<bool>(),
            mask in any::<u64>(),
            seed in any::<u64>(),
            threshold in 0u64..40,
            shape in 0usize..3,
            volume in 0u64..4,
        ) {
            let facilities = build(&specs, shared_region);
            let demand = demand(threshold as f64, [0.5, 1.0, 2.0][shape], volume);
            let game = FederationGame::new(&facilities, &demand);

            let mut seen = BTreeSet::new();
            let overlapping = facilities
                .iter()
                .flat_map(|f| f.offer.iter().map(|(l, _)| l))
                .any(|l| !seen.insert(l));
            prop_assert_eq!(game.profile_index().is_disjoint(), !overlapping);

            let n = facilities.len();
            let members: Vec<usize> = (0..n).filter(|&p| mask >> p & 1 == 1).collect();
            prop_assert_eq!(
                game.value_members(&members).to_bits(),
                oracle(&facilities, &demand, &members).to_bits()
            );
            let coalition = Coalition::from_players(members.iter().copied());
            prop_assert_eq!(
                game.value(coalition).to_bits(),
                oracle(&facilities, &demand, &members).to_bits()
            );

            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut StdRng::seed_from_u64(seed));
            let mut values = Vec::new();
            game.prefix_values(&order, &mut values);
            prop_assert_eq!(values.len(), n);
            for (k, v) in values.iter().enumerate() {
                let mut prefix = order[..=k].to_vec();
                prefix.sort_unstable();
                prop_assert_eq!(
                    v.to_bits(),
                    oracle(&facilities, &demand, &prefix).to_bits()
                );
            }
        }
    }

    #[test]
    fn the_default_prefix_evaluator_agrees() {
        // The trait default (sorted insertion + value_members) is what
        // every other WideGame runs; the override must match it.
        struct Plain<'g>(&'g FederationGame<'g>);
        impl WideGame for Plain<'_> {
            fn n_players(&self) -> usize {
                WideGame::n_players(self.0)
            }
            fn value_members(&self, members: &[PlayerId]) -> f64 {
                self.0.value_members(members)
            }
        }
        let facilities = crate::facility::paper_facilities([80, 20, 10]);
        let demand = demand(299.0, 1.0, 0);
        let game = FederationGame::new(&facilities, &demand);
        let (mut fast, mut plain) = (Vec::new(), Vec::new());
        game.prefix_values(&[2, 0, 1], &mut fast);
        Plain(&game).prefix_values(&[2, 0, 1], &mut plain);
        assert_eq!(fast, plain);
        assert_eq!(fast.len(), 3);
        assert_eq!(fast[0], 8000.0, "V({{3}}) from the Fig. 6 test above");
    }
}
