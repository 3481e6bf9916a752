//! The P2P scenario (eq. 3): value is shared through resource allocation
//! to the facilities' own users, under individual-rationality constraints.
//!
//! Unlike the commercial scenario — maximize total utility, then split the
//! profit by a side payment — the P2P scenario has no money: each facility
//! `i` receives locations `xᵢ` for its affiliated experiments, and the
//! allocation itself must leave every facility at least as well off as
//! standing alone (`ufᵢ(xᵢ) ≥ ufᵢ(Lᵢ)`, the second constraint of eq. 3).
//!
//! We implement the two-level scheme the formulation implies:
//!
//! 1. **Pooled optimum**: solve eq. 2 over the union profile, with each
//!    facility's demand as separate classes, and read off per-facility
//!    utility.
//! 2. If a facility lands below its stand-alone utility, fall back to the
//!    **protected** allocation: every facility first serves its own demand
//!    on its own infrastructure (stand-alone optimum — IR holds by
//!    construction), then facilities' residual unserved demand is optimized
//!    over the residual pooled capacity and added on top.
//!
//! The paper notes incentive compatibility "might force a coalition to a
//! suboptimal solution in terms of total utility" — the `protected` mode is
//! precisely that suboptimal-but-stable outcome, and
//! [`P2pOutcome::efficiency_loss`] quantifies the gap.

use crate::allocation::{realize_usage, solve, SolveError};
use crate::experiment::{Demand, DemandComponent};
use crate::facility::{coalition_profile, Facility};
use crate::location::{CapacityProfile, LocationOffer};

/// Which allocation mode produced the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P2pMode {
    /// The unconstrained pooled optimum already satisfied every facility's
    /// individual-rationality constraint.
    Pooled,
    /// Own-infrastructure-first fallback was needed.
    Protected,
}

/// Result of the P2P-scenario allocation.
#[derive(Debug, Clone)]
pub struct P2pOutcome {
    /// Utility delivered to each facility's users.
    pub utility: Vec<f64>,
    /// Stand-alone utility of each facility (the IR floor).
    pub standalone: Vec<f64>,
    /// Mode used.
    pub mode: P2pMode,
    /// Total utility of the unconstrained pooled optimum, for comparison.
    pub pooled_total: f64,
}

impl P2pOutcome {
    /// Total utility delivered.
    pub fn total(&self) -> f64 {
        self.utility.iter().sum()
    }

    /// Fraction of the pooled optimum lost to the IR constraints
    /// (0 when the pooled optimum was itself incentive-compatible).
    pub fn efficiency_loss(&self) -> f64 {
        if self.pooled_total <= 0.0 {
            0.0
        } else {
            1.0 - self.total() / self.pooled_total
        }
    }

    /// Whether every facility meets its IR floor (should always hold).
    pub fn individually_rational(&self, tol: f64) -> bool {
        self.utility
            .iter()
            .zip(&self.standalone)
            .all(|(&u, &s)| u >= s - tol)
    }

    /// The induced sharing vector `sᵢ = ufᵢ(xᵢ*) / Σⱼ ufⱼ(xⱼ*)` (eq. 3's
    /// value-sharing interpretation).
    pub fn shares(&self) -> Vec<f64> {
        crate::sharing::normalized(self.utility.clone())
    }
}

/// Runs the P2P allocation for facilities with per-facility demand.
///
/// `demands[i]` is the demand of facility `i`'s affiliated users. All
/// classes across facilities must share the same utility shape and
/// resources-per-location (the analytic optimizer's requirements).
///
/// # Errors
/// Propagates the first [`SolveError`] from any per-facility or pooled
/// allocation solve (unsupported demand mixes, oversized scans).
pub fn p2p_allocate(facilities: &[Facility], demands: &[Demand]) -> Result<P2pOutcome, SolveError> {
    assert_eq!(facilities.len(), demands.len());
    let n = facilities.len();

    // Stand-alone utilities (IR floors).
    let mut standalone = Vec::with_capacity(n);
    for (f, d) in facilities.iter().zip(demands) {
        standalone.push(solve(&f.profile(), d)?.total_utility);
    }

    // Pooled optimum: all demand classes on the union profile, tagged by
    // facility.
    let mut tagged_components: Vec<(usize, DemandComponent)> = Vec::new();
    for (i, d) in demands.iter().enumerate() {
        for c in &d.components {
            tagged_components.push((i, c.clone()));
        }
    }
    let pooled_demand = Demand {
        components: tagged_components.iter().map(|(_, c)| c.clone()).collect(),
    };
    let union_profile = coalition_profile(facilities);
    let pooled = solve(&union_profile, &pooled_demand)?;
    let mut pooled_utility = vec![0.0; n];
    for ((facility, component), alloc) in tagged_components.iter().zip(&pooled.per_class) {
        let u: f64 = alloc
            .sizes
            .iter()
            .map(|&x| component.class.utility_of(x))
            .sum();
        pooled_utility[*facility] += u;
    }
    let pooled_total = pooled.total_utility;

    let ir_ok = pooled_utility
        .iter()
        .zip(&standalone)
        .all(|(&u, &s)| u >= s - 1e-9);
    if ir_ok {
        return Ok(P2pOutcome {
            utility: pooled_utility,
            standalone,
            mode: P2pMode::Pooled,
            pooled_total,
        });
    }

    // Protected fallback: self-serve first, then pool the residual.
    let mut residual_offer = LocationOffer::new();
    let mut utility = standalone.clone();
    let mut leftover_components: Vec<(usize, DemandComponent)> = Vec::new();
    for (i, (f, d)) in facilities.iter().zip(demands).enumerate() {
        let own = solve(&f.profile(), d)?;
        // Realize own allocation to compute residual capacity.
        let sizes: Vec<u64> = own.sizes_desc().iter().map(|&(_, s)| s).collect();
        let r = d
            .components
            .first()
            .map_or(1, |c| c.class.resources_per_location);
        let scaled = scale_offer(&f.offer, r);
        let capacities: Vec<u64> = scaled.iter().map(|(_, cap)| cap).collect();
        if let Some(usage) = realize_usage(&capacities, &sizes) {
            for ((loc, cap), used) in scaled.iter().zip(usage) {
                if cap > used {
                    residual_offer.add(loc, (cap - used) * r);
                }
            }
        }
        // Unserved demand carries over to the pooled residual stage.
        for (c, alloc) in d.components.iter().zip(&own.per_class) {
            let unserved = match c.volume {
                crate::experiment::Volume::Count(k) => k.saturating_sub(alloc.admitted),
                crate::experiment::Volume::CapacityFilling => u64::MAX,
            };
            if unserved > 0 {
                let mut comp = c.clone();
                comp.volume = match c.volume {
                    crate::experiment::Volume::Count(_) => {
                        crate::experiment::Volume::Count(unserved)
                    }
                    v => v,
                };
                leftover_components.push((i, comp));
            }
        }
        let _ = i;
    }
    if !leftover_components.is_empty() {
        let residual_demand = Demand {
            components: leftover_components.iter().map(|(_, c)| c.clone()).collect(),
        };
        let residual_profile = CapacityProfile::from_offer(&residual_offer);
        if residual_profile.n_locations() > 0 {
            let extra = solve(&residual_profile, &residual_demand)?;
            for ((facility, component), alloc) in leftover_components.iter().zip(&extra.per_class) {
                let u: f64 = alloc
                    .sizes
                    .iter()
                    .map(|&x| component.class.utility_of(x))
                    .sum();
                utility[*facility] += u;
            }
        }
    }

    Ok(P2pOutcome {
        utility,
        standalone,
        mode: P2pMode::Protected,
        pooled_total,
    })
}

fn scale_offer(offer: &LocationOffer, r: u64) -> LocationOffer {
    if r == 1 {
        return offer.clone();
    }
    let mut o = LocationOffer::new();
    for (l, c) in offer.iter() {
        if c / r > 0 {
            o.add(l, c / r);
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentClass, Volume};
    use crate::facility::paper_facilities;

    #[test]
    fn pooled_mode_when_capacity_plentiful() {
        // Each location hosts up to 3 experiments (R = 3), so all three
        // facilities' experiments can span all 1300 locations at once:
        // pooling helps everyone and IR holds at the pooled optimum.
        let facilities = paper_facilities([3, 3, 3]);
        let demands = vec![
            Demand::one_experiment(ExperimentClass::simple("a", 50.0, 1.0)),
            Demand::one_experiment(ExperimentClass::simple("b", 50.0, 1.0)),
            Demand::one_experiment(ExperimentClass::simple("c", 50.0, 1.0)),
        ];
        let out = p2p_allocate(&facilities, &demands).unwrap();
        assert_eq!(out.mode, P2pMode::Pooled);
        assert!(out.individually_rational(1e-9));
        // Everybody's experiment now spans up to 1300 locations.
        for (u, s) in out.utility.iter().zip(&out.standalone) {
            assert!(u >= s);
        }
        assert!(out.efficiency_loss().abs() < 1e-9);
    }

    #[test]
    fn federation_unlocks_blocked_experiments() {
        // Facility 1's experiment needs 500 locations — impossible alone
        // (100 locations), possible in federation because facilities 2 and
        // 3 have spare per-location capacity (R = 2) after self-serving.
        let facilities = paper_facilities([1, 2, 2]);
        let demands = vec![
            Demand::one_experiment(ExperimentClass::simple("meas", 500.0, 1.0)),
            Demand::one_experiment(ExperimentClass::simple("p2p", 40.0, 1.0)),
            Demand::one_experiment(ExperimentClass::simple("p2p", 40.0, 1.0)),
        ];
        let out = p2p_allocate(&facilities, &demands).unwrap();
        assert!(out.individually_rational(1e-9));
        assert_eq!(out.standalone[0], 0.0);
        assert!(out.utility[0] > 0.0, "federation unblocked the experiment");
    }

    #[test]
    fn protected_mode_preserves_ir_under_contention() {
        // Saturated system: facility 1 (small) brings capacity-filling
        // demand with a low threshold; facility 2's users need many
        // locations. Pooled optimum may starve someone; protected never
        // drops anyone below stand-alone.
        let facilities = vec![
            crate::facility::Facility::uniform("small", 0, 10, 2),
            crate::facility::Facility::uniform("big", 10, 50, 2),
        ];
        let demands = vec![
            Demand::single(
                ExperimentClass::simple("greedy", 0.0, 1.0),
                Volume::Count(200),
            ),
            Demand::single(
                ExperimentClass::simple("modest", 0.0, 1.0),
                Volume::Count(1),
            ),
        ];
        let out = p2p_allocate(&facilities, &demands).unwrap();
        assert!(out.individually_rational(1e-9));
        assert!(out.total() > 0.0);
        assert!(out.efficiency_loss() >= -1e-9);
    }

    #[test]
    fn shares_sum_to_one() {
        let facilities = paper_facilities([1, 1, 1]);
        let demands = vec![
            Demand::one_experiment(ExperimentClass::simple("a", 0.0, 1.0)),
            Demand::one_experiment(ExperimentClass::simple("b", 0.0, 1.0)),
            Demand::one_experiment(ExperimentClass::simple("c", 0.0, 1.0)),
        ];
        let out = p2p_allocate(&facilities, &demands).unwrap();
        let s: f64 = out.shares().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
