//! High-level scenario façade tying the model together.

use crate::cost::CostModel;
use crate::experiment::Demand;
use crate::facility::Facility;
use crate::sharing;
use crate::value::FederationGame;
use fedval_coalition::{
    analyze, is_core_nonempty, shapley, shapley_auto_wide, shapley_parallel, try_nucleolus,
    ApproxConfig, AsWide, Coalition, CoalitionError, CoalitionalGame, GameProperties,
    ShapleyEstimate, TableGame,
};

/// A measured game's player count disagrees with the facility list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayerCountMismatch {
    /// Facilities supplied.
    pub facilities: usize,
    /// Players in the measured table.
    pub players: usize,
}

impl std::fmt::Display for PlayerCountMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "measured game has {} players for {} facilities",
            self.players, self.facilities
        )
    }
}

impl std::error::Error for PlayerCountMismatch {}

/// A complete federation scenario: facilities + demand (+ cost model),
/// with every solution concept one call away.
///
/// The coalition-value table is materialized lazily on first use and
/// reused by every subsequent query.
///
/// A scenario is intentionally *not* `Sync` (the lazy table cell is
/// single-threaded); parallel sweeps build one scenario per worker. The
/// [`with_threads`](FederationScenario::with_threads) knob instead
/// parallelizes *within* one scenario's Shapley computation — useful for
/// larger player counts where the `O(2^n)` pass dominates.
pub struct FederationScenario {
    game: FederationGame<'static>,
    cost: CostModel,
    threads: usize,
    approx: ApproxConfig,
    table: std::cell::OnceCell<TableGame>,
}

impl FederationScenario {
    /// Creates a scenario with the default cost model.
    pub fn new(facilities: Vec<Facility>, demand: Demand) -> FederationScenario {
        FederationScenario {
            game: FederationGame::owned(facilities, demand),
            cost: CostModel::paper_default(),
            threads: 1,
            approx: ApproxConfig::default(),
            table: std::cell::OnceCell::new(),
        }
    }

    /// Overrides the cost model (builder style).
    pub fn with_cost(mut self, cost: CostModel) -> FederationScenario {
        self.cost = cost;
        self
    }

    /// Sets the worker-thread count for the Shapley computation (builder
    /// style). `1` (the default) keeps everything on the calling thread;
    /// any value yields bit-identical shares (see DESIGN.md §9).
    pub fn with_threads(mut self, threads: usize) -> FederationScenario {
        self.threads = threads.max(1);
        self
    }

    /// The configured Shapley worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the sampled-Shapley budget, seed, confidence level, and the
    /// `--approx` force flag (builder style). The thread count still comes
    /// from [`with_threads`](FederationScenario::with_threads).
    pub fn with_approx(mut self, approx: ApproxConfig) -> FederationScenario {
        self.approx = approx;
        self
    }

    /// The configured sampled-Shapley parameters.
    pub fn approx_config(&self) -> &ApproxConfig {
        &self.approx
    }

    /// Builds a scenario around an *externally measured* coalition-value
    /// table (e.g. `fedval-testbed`'s empirical game) instead of the
    /// closed-form model. The facilities still drive the proportional and
    /// consumption benchmarks; the game queries use `game` as-is.
    ///
    /// # Errors
    /// [`PlayerCountMismatch`] when the measured table's player count differs
    /// from the facility count.
    pub fn try_from_measured(
        facilities: Vec<Facility>,
        demand: Demand,
        game: TableGame,
    ) -> Result<FederationScenario, PlayerCountMismatch> {
        if game.n_players() != facilities.len() {
            return Err(PlayerCountMismatch {
                facilities: facilities.len(),
                players: game.n_players(),
            });
        }
        let table = std::cell::OnceCell::new();
        let _ = table.set(game);
        Ok(FederationScenario {
            game: FederationGame::owned(facilities, demand),
            cost: CostModel::paper_default(),
            threads: 1,
            approx: ApproxConfig::default(),
            table,
        })
    }

    /// The facilities, in player order.
    pub fn facilities(&self) -> &[Facility] {
        self.game.facilities()
    }

    /// The demand profile.
    pub fn demand(&self) -> &Demand {
        self.game.demand()
    }

    /// The closed-form federation game (owned, with its lazily built
    /// profile index). Measured scenarios answer share queries from
    /// their table instead.
    pub fn federation_game(&self) -> &FederationGame<'static> {
        &self.game
    }

    /// `V(S)` for an arbitrary member subset (ascending player ids), at
    /// any federation width — the enumeration-free
    /// [`WideGame`](fedval_coalition::WideGame) view of the scenario.
    /// This is the hook the formation engine (`fedval-form`) prices
    /// candidate coalitions through: no `2^n` table is materialized.
    pub fn value_of_members(&self, members: &[usize]) -> f64 {
        use fedval_coalition::WideGame as _;
        self.game.value_members(members)
    }

    /// The cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The coalition-value table, materialized on first call and cached.
    /// Every table-backed query below goes through it.
    ///
    /// # Errors
    /// [`CoalitionError::TooManyPlayers`] when the facility count exceeds
    /// [`TableGame::MAX_PLAYERS`]; the scenario stays usable (the next
    /// call retries) and the proportional/consumption benchmarks — which
    /// never enumerate coalitions — keep working.
    pub fn try_game(&self) -> Result<&TableGame, CoalitionError> {
        if let Some(table) = self.table.get() {
            return Ok(table);
        }
        let built = {
            let _span = fedval_obs::span_with("core.scenario.table_build", || {
                format!("n={}", self.facilities().len())
            });
            TableGame::try_from_game(&self.game)?
        };
        Ok(self.table.get_or_init(|| built))
    }

    /// `V(S)` for an explicit coalition.
    ///
    /// # Errors
    /// As [`try_game`](FederationScenario::try_game).
    pub fn value(&self, coalition: Coalition) -> Result<f64, CoalitionError> {
        Ok(self.try_game()?.value(coalition))
    }

    /// `V(N)` — total value to share.
    ///
    /// # Errors
    /// As [`try_game`](FederationScenario::try_game).
    pub fn grand_value(&self) -> Result<f64, CoalitionError> {
        Ok(self.try_game()?.grand_value())
    }

    /// Normalized Shapley shares ϕ̂ (eq. 5).
    ///
    /// Always exact, whatever [`with_approx`](FederationScenario::with_approx)
    /// says. Runs on the calling thread at one thread, on
    /// [`threads`](FederationScenario::threads) workers otherwise; the
    /// result is bit-identical for every thread count.
    ///
    /// # Errors
    /// As [`try_game`](FederationScenario::try_game).
    pub fn shapley_shares(&self) -> Result<Vec<f64>, CoalitionError> {
        let game = self.try_game()?;
        let phi = if self.threads > 1 {
            shapley_parallel(game, self.threads)
        } else {
            shapley(game)
        };
        Ok(ShapleyEstimate::Exact {
            phi,
            grand_value: game.grand_value(),
        }
        .shares())
    }

    /// Shapley values through the solver-selection layer: exact unless
    /// [`ApproxConfig::samples_at`] picks the seeded sampled estimator
    /// (with its confidence-interval certificate) — the entry point that
    /// makes a 200-authority scenario answerable instead of a
    /// `TooManyPlayers` error.
    ///
    /// Uses the measured table when one was supplied
    /// ([`try_from_measured`](FederationScenario::try_from_measured)), the lazily
    /// cached closed-form table below the cap, and the un-materialized
    /// wide federation game above it. Sampling parameters come from
    /// [`with_approx`](FederationScenario::with_approx); results are
    /// byte-identical per seed at any thread count.
    ///
    /// # Errors
    /// [`CoalitionError::NoPlayers`] / [`CoalitionError::NoSamples`] /
    /// [`CoalitionError::BadConfidence`] for malformed inputs, and
    /// [`CoalitionError::TooManyPlayers`] past the sampled path's own
    /// sanity cap ([`fedval_coalition::MAX_SAMPLED_PLAYERS`]).
    pub fn shapley_estimate(&self) -> Result<ShapleyEstimate, CoalitionError> {
        let cfg = ApproxConfig {
            threads: self.threads,
            ..self.approx
        };
        // Measured scenarios must answer from their table (the
        // closed-form model does not reproduce measured values); the
        // exact path builds it.
        if self.table.get().is_some() || !cfg.samples_at(self.facilities().len()) {
            return shapley_auto_wide(&AsWide(self.try_game()?), &cfg);
        }
        shapley_auto_wide(&self.game, &cfg)
    }

    /// Proportional (contribution-based) shares π̂ (eq. 6).
    pub fn proportional_shares(&self) -> Vec<f64> {
        sharing::proportional_shares(self.facilities())
    }

    /// Consumption-based shares ρ̂ (eq. 7).
    pub fn consumption_shares(&self) -> Vec<f64> {
        sharing::consumption_shares(self.facilities(), self.demand())
    }

    /// Nucleolus shares (allocation / V(N)).
    ///
    /// # Errors
    /// As [`try_game`](FederationScenario::try_game), plus
    /// [`try_nucleolus`]'s errors (above
    /// [`NUCLEOLUS_MAX_PLAYERS`](fedval_coalition::NUCLEOLUS_MAX_PLAYERS)
    /// facilities, or a malformed LP).
    pub fn nucleolus_shares(&self) -> Result<Vec<f64>, CoalitionError> {
        let game = self.try_game()?;
        let grand = game.grand_value();
        if grand.abs() < 1e-12 {
            return Ok(vec![0.0; self.facilities().len()]);
        }
        Ok(try_nucleolus(game)?.into_iter().map(|v| v / grand).collect())
    }

    /// Structural properties of the induced game (superadditivity,
    /// convexity, …) — §3.2.1's core-existence diagnostics.
    ///
    /// # Errors
    /// As [`try_game`](FederationScenario::try_game).
    pub fn properties(&self) -> Result<GameProperties, CoalitionError> {
        Ok(analyze(self.try_game()?, 1e-7))
    }

    /// Whether the core is non-empty.
    ///
    /// # Errors
    /// As [`try_game`](FederationScenario::try_game), plus
    /// [`try_least_core`](fedval_coalition::try_least_core)'s errors (above
    /// [`LEAST_CORE_MAX_PLAYERS`](fedval_coalition::LEAST_CORE_MAX_PLAYERS)
    /// facilities, or a malformed LP).
    pub fn core_nonempty(&self) -> Result<bool, CoalitionError> {
        is_core_nonempty(self.try_game()?)
    }

    /// Monetary payoff vector for a normalized share vector.
    ///
    /// # Errors
    /// As [`try_game`](FederationScenario::try_game).
    pub fn payoffs(&self, shares: &[f64]) -> Result<Vec<f64>, CoalitionError> {
        let v = self.grand_value()?;
        Ok(shares.iter().map(|s| s * v).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentClass;
    use crate::facility::paper_facilities;

    fn worked_example() -> FederationScenario {
        FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
        )
    }

    #[test]
    fn scenario_round_trip() {
        let s = worked_example();
        assert_eq!(s.grand_value().expect("n = 3"), 1300.0);
        let phi = s.shapley_shares().expect("n = 3");
        assert!((phi[1] - 2.0 / 13.0).abs() < 1e-12);
        assert!((phi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let pi = s.proportional_shares();
        assert!((pi[1] - 4.0 / 13.0).abs() < 1e-12);
        let payoffs = s.payoffs(&phi).expect("n = 3");
        assert!((payoffs.iter().sum::<f64>() - 1300.0).abs() < 1e-9);
    }

    #[test]
    fn nucleolus_shares_equal_when_only_grand_coalition_works() {
        // l = 1250: only the grand coalition can serve; the nucleolus (like
        // Shapley) splits equally — the paper's "in the grand coalition all
        // facilities receive an equal share even if their resource
        // contributions are very different!".
        let s = FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 1250.0, 1.0)),
        );
        let nu = s.nucleolus_shares().expect("n = 3");
        let phi = s.shapley_shares().expect("n = 3");
        for v in nu.iter().chain(&phi) {
            assert!((v - 1.0 / 3.0).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn properties_of_worked_example() {
        let s = worked_example();
        let p = s.properties().expect("n = 3");
        assert!(p.superadditive);
        assert!(p.monotone);
        assert!(p.essential);
    }

    #[test]
    fn measured_scenarios_use_the_supplied_table() {
        let closed_form = worked_example();
        let table = closed_form.try_game().expect("n = 3").clone();
        let measured = FederationScenario::try_from_measured(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
            table,
        )
        .expect("player counts match");
        assert_eq!(measured.grand_value(), Ok(1300.0));
        assert_eq!(measured.shapley_shares(), closed_form.shapley_shares());
        // Mismatched player counts are rejected, not ground through.
        let bad = FederationScenario::try_from_measured(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
            TableGame::try_from_fn(2, |_| 0.0).expect("table fits"),
        );
        assert_eq!(
            bad.err(),
            Some(PlayerCountMismatch {
                facilities: 3,
                players: 2
            })
        );
    }

    #[test]
    fn table_is_cached() {
        let s = worked_example();
        let a = s.try_game().expect("n = 3") as *const _;
        let b = s.try_game().expect("n = 3") as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn threads_do_not_change_shares() {
        let sequential = worked_example().shapley_shares().expect("n = 3");
        for t in [2, 4, 8] {
            let parallel = worked_example().with_threads(t).shapley_shares().expect("n = 3");
            assert_eq!(sequential, parallel, "t={t} must be bit-identical");
        }
        // threads=0 is clamped to 1, not a panic.
        assert_eq!(worked_example().with_threads(0).threads(), 1);
    }

    #[test]
    fn shapley_estimate_selects_exact_on_small_scenarios() {
        let s = worked_example();
        match s.shapley_estimate().expect("worked example must solve") {
            ShapleyEstimate::Exact { phi, grand_value } => {
                assert!((phi.iter().sum::<f64>() - 1300.0).abs() < 1e-9);
                assert_eq!(grand_value, 1300.0);
            }
            ShapleyEstimate::Approx(_) => panic!("n=3 must select exact"),
        }
        let shares = s.shapley_estimate().expect("shares").shares();
        assert_eq!(Ok(shares), s.shapley_shares());
    }

    #[test]
    fn shapley_estimate_samples_past_the_exact_cap() {
        use crate::facility::Facility;
        // 40 facilities: exact enumeration (2^40) is out of reach, the
        // estimator must answer with a certificate instead of erroring.
        let facilities: Vec<Facility> = (0..40u32)
            .map(|i| Facility::uniform(format!("f{i}"), 16 * i, 4 + (i % 5), 1))
            .collect();
        let s = FederationScenario::new(
            facilities,
            Demand::one_experiment(ExperimentClass::simple("e", 50.0, 1.0)),
        )
        .with_approx(ApproxConfig {
            samples: 64,
            seed: 7,
            ..ApproxConfig::default()
        })
        .with_threads(4);
        let est = s.shapley_estimate().expect("sampled path must answer");
        let approx = est.as_approx().expect("n=40 must sample");
        assert_eq!(approx.phi.len(), 40);
        assert_eq!(approx.samples, 64);
        assert!(approx.grand_value > 0.0);
        // Efficiency after normalization.
        let total: f64 = approx.shares().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // Deterministic across repeat calls and thread counts.
        let again = s.shapley_estimate().expect("repeat");
        assert_eq!(est, again);
    }

    #[test]
    fn try_game_rejects_oversized_federations() {
        use crate::facility::Facility;
        let facilities: Vec<Facility> = (0..26)
            .map(|i| Facility::uniform(format!("f{i}"), i, 1, 1))
            .collect();
        let s = FederationScenario::new(
            facilities,
            Demand::one_experiment(ExperimentClass::simple("e", 1.0, 1.0)),
        );
        let err = s.try_game().expect_err("26 facilities must not materialize");
        assert!(matches!(err, CoalitionError::TooManyPlayers { n: 26, .. }));
        // Every table-backed query reports the same error.
        assert_eq!(s.grand_value(), Err(err.clone()));
        assert_eq!(s.shapley_shares(), Err(err));
        // Non-enumerating benchmarks keep working on the same scenario.
        let pi = s.proportional_shares();
        assert_eq!(pi.len(), 26);
    }
}
