//! Scheme comparison metrics: stability, incentive alignment, distance.

use crate::scheme::SharingScheme;
use fedval_coalition::{excess, is_in_core, Coalition, CoalitionError, CoalitionalGame, TableGame};
use fedval_core::FederationScenario;

/// How one scheme behaves on one scenario.
#[derive(Debug, Clone)]
pub struct SchemeAssessment {
    /// Scheme display name.
    pub scheme: String,
    /// Normalized shares.
    pub shares: Vec<f64>,
    /// Whether the payoff vector lies in the core (stable against
    /// secession) — `None` when the scenario's core is empty.
    pub in_core: Option<bool>,
    /// Largest coalition excess at the payoff vector (≤ 0 means in-core).
    pub max_excess: f64,
    /// L1 distance of shares from the proportional benchmark.
    pub distance_from_proportional: f64,
}

/// Assesses the τ-value (Tijs) alongside the schemes, when the game is
/// quasi-balanced; returns `Ok(None)` otherwise.
///
/// # Errors
/// The scenario's table and core-emptiness errors (see
/// [`FederationScenario::core_nonempty`]).
pub fn assess_tau(
    scenario: &FederationScenario,
) -> Result<Option<SchemeAssessment>, CoalitionError> {
    let game = scenario.try_game()?;
    let grand = game.grand_value();
    let Some(payoffs) = fedval_coalition::tau_value(game) else {
        return Ok(None);
    };
    let shares: Vec<f64> = if grand.abs() < 1e-12 {
        vec![0.0; payoffs.len()]
    } else {
        payoffs.iter().map(|p| p / grand).collect()
    };
    let pi = scenario.proportional_shares();
    let core_nonempty = scenario.core_nonempty()?;
    Ok(Some(assess("tau", game, &shares, &payoffs, core_nonempty, &pi)))
}

/// Assesses every given scheme on a scenario.
///
/// # Errors
/// The first error of [`FederationScenario::core_nonempty`] or of any
/// scheme's [`SharingScheme::payoffs`].
pub fn compare_schemes(
    scenario: &FederationScenario,
    schemes: &[SharingScheme],
) -> Result<Vec<SchemeAssessment>, CoalitionError> {
    let game = scenario.try_game()?;
    let core_nonempty = scenario.core_nonempty()?;
    let pi = scenario.proportional_shares();
    schemes
        .iter()
        .map(|scheme| {
            let shares = scheme.shares(scenario)?;
            let payoffs = scenario.payoffs(&shares)?;
            Ok(assess(scheme.name(), game, &shares, &payoffs, core_nonempty, &pi))
        })
        .collect()
}

/// One scheme's assessment from its shares and monetary payoffs.
fn assess(
    scheme: &str,
    game: &TableGame,
    shares: &[f64],
    payoffs: &[f64],
    core_nonempty: bool,
    pi: &[f64],
) -> SchemeAssessment {
    let n = game.n_players();
    let grand = Coalition::grand(n);
    let max_excess = Coalition::all(n)
        .filter(|&s| !s.is_empty() && s != grand)
        .map(|s| excess(game, payoffs, s))
        .fold(f64::NEG_INFINITY, f64::max);
    SchemeAssessment {
        scheme: scheme.to_string(),
        shares: shares.to_vec(),
        in_core: core_nonempty.then(|| is_in_core(game, payoffs, 1e-7)),
        max_excess,
        distance_from_proportional: shares.iter().zip(pi).map(|(a, b)| (a - b).abs()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::{paper_facilities, Demand, ExperimentClass};

    fn scenario(l: f64) -> FederationScenario {
        FederationScenario::new(
            paper_facilities([1, 1, 1]),
            Demand::one_experiment(ExperimentClass::simple("e", l, 1.0)),
        )
    }

    #[test]
    fn tau_assessment_on_worked_example() {
        let s = scenario(500.0);
        let tau = assess_tau(&s).expect("n = 3").expect("quasi-balanced");
        assert_eq!(tau.scheme, "tau");
        let total: f64 = tau.shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // On this game τ coincides with Shapley: (1/26, 2/13, 21/26).
        assert!((tau.shares[1] - 2.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_has_zero_self_distance() {
        let s = scenario(500.0);
        let a = compare_schemes(&s, &[SharingScheme::Proportional]).expect("n = 3");
        assert!(a[0].distance_from_proportional.abs() < 1e-12);
    }

    #[test]
    fn shapley_departs_from_proportional_at_positive_threshold() {
        // The paper's headline: thresholds make ϕ̂ ≠ π̂.
        let with_threshold =
            compare_schemes(&scenario(500.0), &[SharingScheme::Shapley]).expect("n = 3");
        assert!(with_threshold[0].distance_from_proportional > 0.1);
        let without = compare_schemes(&scenario(0.0), &[SharingScheme::Shapley]).expect("n = 3");
        assert!(without[0].distance_from_proportional < 1e-9);
    }

    #[test]
    fn nucleolus_is_in_core_when_core_nonempty() {
        // l = 1250: only the grand coalition works; core non-empty.
        let s = scenario(1250.0);
        assert!(s.core_nonempty().expect("n = 3"));
        let a = compare_schemes(&s, &[SharingScheme::Nucleolus]).expect("n = 3");
        assert_eq!(a[0].in_core, Some(true));
        assert!(a[0].max_excess <= 1e-7);
    }

    #[test]
    fn max_excess_flags_unstable_schemes() {
        // At l = 500 the core requires facility 3 to get ≥ 800/1300 ≈ 0.615
        // …actually ≥ V({3}) = 800. Equal split gives 433: coalition {3}
        // has positive excess.
        let s = scenario(500.0);
        let a = compare_schemes(&s, &[SharingScheme::Equal]).expect("n = 3");
        assert!(a[0].max_excess > 0.0);
        if let Some(in_core) = a[0].in_core {
            assert!(!in_core);
        }
    }
}
