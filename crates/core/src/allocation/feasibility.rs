//! Degree-sequence feasibility and size-vector construction.
//!
//! An allocation assigns each admitted experiment a set of **distinct**
//! locations; a location of capacity `c` can serve at most `c` experiments.
//! Viewing experiments and locations as the two sides of a bipartite graph,
//! a vector of experiment sizes `x₁ ≥ x₂ ≥ … ≥ x_m` is realizable iff the
//! Gale–Ryser condition holds:
//!
//! ```text
//! Σ_{j ≤ k} xⱼ ≤ B(k) = Σ_ℓ min(c_ℓ, k)        for every k ≤ m
//! ```
//!
//! (`B` is provided by [`CapacityProfile::usable_slots`].) All optimizers in
//! this module reason over sorted size vectors through this condition and
//! only construct explicit location usage at the end ([`realize_usage`],
//! the constructive half of Gale–Ryser).

use crate::location::CapacityProfile;
#[cfg(test)]
use crate::location::{LocationId, LocationOffer};

/// Checks the Gale–Ryser condition for a **descending** size vector.
///
/// Also checks `xⱼ ≤ n_locations` (an experiment cannot use more distinct
/// locations than exist), which is the `k = 1` condition combined with
/// sortedness, and therefore implied — asserted here for clarity only.
pub fn is_realizable(sizes_desc: &[u64], profile: &CapacityProfile) -> bool {
    debug_assert!(
        sizes_desc.windows(2).all(|w| w[0] >= w[1]),
        "must be sorted"
    );
    let mut prefix = 0u64;
    for (k, &x) in sizes_desc.iter().enumerate() {
        if x > profile.n_locations() {
            return false;
        }
        prefix += x;
        if prefix > profile.usable_slots(k as u64 + 1) {
            return false;
        }
    }
    true
}

/// Maximum achievable total `Σ xⱼ` over descending vectors with
/// per-position bounds `lb ≤ x ≤ ub` (both descending) that satisfy
/// Gale–Ryser. Returns the maximizing vector, or `None` if even `lb` is
/// infeasible.
///
/// Greedy from the largest position with *reservation*: when fixing `xⱼ`
/// we must leave enough budget for the lower bounds of every later
/// position, i.e. for all `k > j`: `P_j + Σ_{i=j+1..k} lbᵢ ≤ B(k)`.
/// Because the prefix constraints form a chain (a polymatroid), this
/// greedy is exact. The caps for every `k` at once come from one suffix
/// minimum, so the greedy is O(m·g) for `m` positions and `g` capacity
/// groups (`docs/derivations.md` §5).
pub fn max_total_sizes(profile: &CapacityProfile, lb: &[u64], ub: &[u64]) -> Option<Vec<u64>> {
    let mut x = Vec::with_capacity(lb.len());
    max_total_with(profile, lb, ub, &mut MaxTotalScratch::default(), |v| {
        x.push(v)
    })?;
    debug_assert!(is_realizable(&x, profile));
    Some(x)
}

/// Reusable buffers for [`max_total_with`], so a scan over many bound
/// vectors allocates once.
#[derive(Debug, Default)]
pub(crate) struct MaxTotalScratch {
    reserve: Vec<u64>,
    tight: Vec<u64>,
}

/// The greedy of [`max_total_sizes`]: hands each fixed `xⱼ` to `emit`, in
/// position order, and returns the total `Σ xⱼ` (`None` if `lb` is
/// infeasible).
///
/// With `reserve[j] = Σ_{i ≥ j} lbᵢ` and `aₖ = B(k+1) + reserve[k+1]`, the
/// cap on `xⱼ` from the prefix constraint `k ≥ j` is
/// `max(0, aₖ − (P + reserve[j+1]))`, `P` the prefix fixed so far. The
/// offset does not depend on `k`, and `min_k max(0, aₖ − c) =
/// max(0, min_k aₖ − c)`, so the cap over every `k ≥ j` is
/// `tight[j] − (P + reserve[j+1])` saturated at 0, where `tight[j] =
/// min_{k ≥ j} aₖ` is one suffix minimum. The same minimum checks `lb`:
/// its prefix sums fit under `B` iff `reserve[0] ≤ tight[0]`.
pub(crate) fn max_total_with(
    profile: &CapacityProfile,
    lb: &[u64],
    ub: &[u64],
    scratch: &mut MaxTotalScratch,
    mut emit: impl FnMut(u64),
) -> Option<u64> {
    let m = lb.len();
    if ub.len() != m {
        // Mismatched bound vectors have no feasible interpretation.
        return None;
    }
    debug_assert!(lb.windows(2).all(|w| w[0] >= w[1]), "lb must be descending");
    let n_locations = profile.n_locations();
    let MaxTotalScratch { reserve, tight } = scratch;
    reserve.clear();
    reserve.resize(m + 1, 0);
    for j in (0..m).rev() {
        reserve[j] = reserve[j + 1] + lb[j];
    }
    tight.clear();
    tight.resize(m + 1, u64::MAX);
    for k in (0..m).rev() {
        tight[k] = tight[k + 1].min(profile.usable_slots(k as u64 + 1) + reserve[k + 1]);
    }
    // `is_realizable(lb)`, from the suffix minimum.
    if reserve[0] > tight[0] || lb.iter().any(|&l| l > n_locations) {
        return None;
    }

    let mut prefix = 0u64;
    let mut prev = u64::MAX;
    for j in 0..m {
        let cap = tight[j].saturating_sub(prefix + reserve[j + 1]);
        let upper = ub[j].min(n_locations).min(prev);
        let val = cap.min(upper).max(lb[j]);
        if val > upper {
            // lb[j] exceeds its upper bound (`ub < lb` at this position).
            return None;
        }
        emit(val);
        prev = val;
        prefix += val;
    }
    Some(prefix)
}

/// Splits `total` into `m` parts as evenly as possible (descending).
pub fn balanced_partition(total: u64, m: u64) -> Vec<u64> {
    if m == 0 {
        return Vec::new();
    }
    let q = total / m;
    let r = total % m;
    let mut parts = Vec::with_capacity(m as usize);
    for j in 0..m {
        parts.push(if j < r { q + 1 } else { q });
    }
    parts
}

/// Constructively realizes a feasible size vector on concrete locations
/// (the algorithmic half of Gale–Ryser): each experiment, in the given
/// order, takes the locations with the most remaining capacity, ties
/// broken by position. Returns the slots used at each location, aligned
/// with `capacities` (given in offer order), or `None` if some experiment
/// does not fit.
///
/// The residual capacity is kept as runs of consecutive positions with
/// equal residual, sorted by residual (descending), then start. An
/// experiment takes runs from the front of that order — exactly the
/// prefix of a stable sort of the positions by residual — and splits at
/// most the last one. Every taken run loses one unit, which keeps the
/// taken runs in order among themselves, so the new order is one merge of
/// the taken and the untaken runs; runs that meet with the same residual
/// coalesce on the way. O(m·runs + L) for `m` experiments on `L`
/// locations.
pub fn realize_usage(capacities: &[u64], sizes: &[u64]) -> Option<Vec<u64>> {
    let mut runs: Vec<Run> = Vec::new();
    for (start, &residual) in capacities.iter().enumerate() {
        push_run(
            &mut runs,
            Run {
                residual,
                start,
                len: 1,
            },
        );
    }
    runs.sort_unstable_by_key(Run::order);

    let mut taken: Vec<Run> = Vec::new();
    let mut next: Vec<Run> = Vec::with_capacity(runs.len() + 1);
    for &x in sizes {
        if x > capacities.len() as u64 {
            return None;
        }
        taken.clear();
        let mut need = x as usize;
        let mut untaken = 0;
        while need > 0 {
            let run = runs.get_mut(untaken)?;
            if run.residual == 0 {
                return None;
            }
            let t = run.len.min(need);
            taken.push(Run {
                residual: run.residual - 1,
                start: run.start,
                len: t,
            });
            need -= t;
            if t == run.len {
                untaken += 1;
            } else {
                run.start += t;
                run.len -= t;
            }
        }
        next.clear();
        let (mut a, mut b) = (taken.iter().peekable(), runs[untaken..].iter().peekable());
        loop {
            let run = match (a.peek(), b.peek()) {
                (Some(p), Some(q)) if q.order() < p.order() => b.next(),
                (Some(_), _) => a.next(),
                (None, _) => b.next(),
            };
            let Some(&run) = run else { break };
            push_run(&mut next, run);
        }
        std::mem::swap(&mut runs, &mut next);
    }

    let mut usage = vec![0u64; capacities.len()];
    for run in &runs {
        let span = run.start..run.start + run.len;
        for (used, &cap) in usage[span.clone()].iter_mut().zip(&capacities[span]) {
            *used = cap - run.residual;
        }
    }
    Some(usage)
}

/// Positions `start..start + len`, all with residual capacity `residual`.
#[derive(Debug, Clone, Copy)]
struct Run {
    residual: u64,
    start: usize,
    len: usize,
}

impl Run {
    /// Selection order: most residual first, then lowest position.
    fn order(&self) -> (std::cmp::Reverse<u64>, usize) {
        (std::cmp::Reverse(self.residual), self.start)
    }
}

/// Appends `run`, coalescing it into the last run when it continues that
/// run's positions at the same residual.
fn push_run(runs: &mut Vec<Run>, run: Run) {
    match runs.last_mut() {
        Some(last) if last.residual == run.residual && last.start + last.len == run.start => {
            last.len += run.len;
        }
        _ => runs.push(run),
    }
}

/// The per-experiment greedy that [`realize_usage`] replaces: a stable
/// sort of every location by residual for each experiment. Kept as the
/// test oracle.
#[cfg(test)]
pub(crate) fn realize_assignment(offer: &LocationOffer, sizes_desc: &[u64]) -> Option<Assignment> {
    let mut residual: Vec<(LocationId, u64)> = offer.iter().collect();
    let mut experiments = Vec::with_capacity(sizes_desc.len());
    for &x in sizes_desc {
        if x as usize > residual.len() {
            return None;
        }
        // Pick the x locations with the largest residual capacity.
        let mut order: Vec<usize> = (0..residual.len()).collect();
        order.sort_by(|&a, &b| residual[b].1.cmp(&residual[a].1));
        let chosen: Vec<usize> = order.into_iter().take(x as usize).collect();
        if chosen.iter().any(|&i| residual[i].1 == 0) {
            return None;
        }
        let mut locs = Vec::with_capacity(x as usize);
        for &i in &chosen {
            residual[i].1 -= 1;
            locs.push(residual[i].0);
        }
        locs.sort_unstable();
        experiments.push(locs);
    }
    let usage: Vec<(LocationId, u64)> = offer
        .iter()
        .zip(&residual)
        .map(|((id, cap), &(rid, rem))| {
            debug_assert_eq!(id, rid);
            (id, cap - rem)
        })
        .collect();
    Some(Assignment { experiments, usage })
}

/// An explicit realization of an allocation.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct Assignment {
    /// Location ids used by each experiment (sorted), in the order the
    /// size vector was given.
    pub experiments: Vec<Vec<LocationId>>,
    /// `(location, slots used)` for every offered location.
    pub usage: Vec<(LocationId, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(groups: &[(u64, u64)]) -> CapacityProfile {
        CapacityProfile::from_groups(groups.to_vec())
    }

    #[test]
    fn gale_ryser_basics() {
        // 3 locations of capacity 2: B(1)=3, B(2)=6.
        let p = profile(&[(2, 3)]);
        assert!(is_realizable(&[3, 3], &p));
        assert!(is_realizable(&[3, 2, 1], &p));
        assert!(!is_realizable(&[4], &p)); // more than 3 locations
        assert!(!is_realizable(&[3, 3, 1], &p)); // total 7 > 6
    }

    #[test]
    fn gale_ryser_prefix_binds() {
        // Locations caps {10, 1}: B(1)=2, B(2)=3. Sizes (2,2): prefix₂=4>3.
        let p = profile(&[(10, 1), (1, 1)]);
        assert!(is_realizable(&[2, 1], &p));
        assert!(!is_realizable(&[2, 2], &p));
    }

    #[test]
    fn max_total_without_lower_bounds() {
        let p = profile(&[(80, 100), (20, 400)]); // Fig. 6 coalition {1,2}
        let m = 40;
        let lb = vec![1u64; m];
        let ub = vec![p.n_locations(); m];
        let x = max_total_sizes(&p, &lb, &ub).unwrap();
        let total: u64 = x.iter().sum();
        assert_eq!(total, p.usable_slots(m as u64)); // B(40) = 12000
    }

    #[test]
    fn max_total_with_threshold_lower_bounds() {
        // Single class with s_min = 501 on the Fig. 6 {1,2} coalition:
        // m·501 ≤ B(m) ⇒ m ≤ 8000/(501−100)·… checked against theory:
        // feasible m ≤ ⌊8000/401⌋ = 19 (for m ≤ 20, B(m) = 500m ≥ 501m is
        // false!) — recompute: for m ≤ 20, B(m) = 500m < 501m ⇒ infeasible
        // for every m ≥ 1? B(1) = 500 < 501 ⇒ even one experiment cannot
        // get 501 distinct locations… n_locations = 500 < 501. Infeasible.
        let p = profile(&[(80, 100), (20, 400)]);
        assert_eq!(max_total_sizes(&p, &[501], &[p.n_locations()]), None);
    }

    #[test]
    fn max_total_respects_reservations() {
        // Caps {1,1,1}: B(k) = 3. lb = (2,1): greedy must hold x₁ to 2.
        let p = profile(&[(1, 3)]);
        let x = max_total_sizes(&p, &[2, 1], &[3, 3]).unwrap();
        assert_eq!(x.iter().sum::<u64>(), 3);
        assert!(x[0] >= 2 && x[1] >= 1);
    }

    #[test]
    fn balanced_partition_shapes() {
        assert_eq!(balanced_partition(10, 3), vec![4, 3, 3]);
        assert_eq!(balanced_partition(9, 3), vec![3, 3, 3]);
        assert_eq!(balanced_partition(0, 2), vec![0, 0]);
        assert!(balanced_partition(5, 0).is_empty());
    }

    #[test]
    fn realization_matches_sizes_and_capacity() {
        let offer = LocationOffer::merge([
            &LocationOffer::contiguous(0, 3, 2),
            &LocationOffer::contiguous(3, 2, 1),
        ]);
        // 5 locations, caps (2,2,2,1,1). Sizes (5,3): B(1)=5 ✓, B(2)=8 ✓.
        let a = realize_assignment(&offer, &[5, 3]).unwrap();
        assert_eq!(a.experiments[0].len(), 5);
        assert_eq!(a.experiments[1].len(), 3);
        // Distinctness within an experiment.
        let mut e0 = a.experiments[0].clone();
        e0.dedup();
        assert_eq!(e0.len(), 5);
        // No location over capacity.
        for &(id, used) in &a.usage {
            assert!(used <= offer.capacity_at(id));
        }
        // Total usage equals total size.
        let used: u64 = a.usage.iter().map(|&(_, u)| u).sum();
        assert_eq!(used, 8);
    }

    #[test]
    fn realization_rejects_infeasible() {
        let offer = LocationOffer::contiguous(0, 2, 1);
        assert!(realize_assignment(&offer, &[2, 2]).is_none());
    }

    #[test]
    fn max_total_zero_experiments() {
        let p = profile(&[(2, 2)]);
        assert_eq!(max_total_sizes(&p, &[], &[]), Some(vec![]));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    /// The O(m²·g) greedy that [`max_total_sizes`] replaced: every position
    /// rescans every later prefix constraint.
    fn max_total_sizes_reference(
        profile: &CapacityProfile,
        lb: &[u64],
        ub: &[u64],
    ) -> Option<Vec<u64>> {
        let m = lb.len();
        if ub.len() != m {
            return None;
        }
        if m == 0 {
            return Some(Vec::new());
        }
        if !is_realizable(lb, profile) {
            return None;
        }
        let mut reserve = vec![0u64; m + 1];
        for j in (0..m).rev() {
            reserve[j] = reserve[j + 1] + lb[j];
        }
        let mut x = vec![0u64; m];
        let mut prefix = 0u64;
        for j in 0..m {
            let mut cap = u64::MAX;
            for k in j..m {
                let b = profile.usable_slots(k as u64 + 1);
                let reserved_between = reserve[j + 1] - reserve[k + 1];
                cap = cap.min(b.saturating_sub(prefix + reserved_between));
            }
            let upper =
                ub[j]
                    .min(profile.n_locations())
                    .min(if j > 0 { x[j - 1] } else { u64::MAX });
            let val = cap.min(upper).max(lb[j]);
            if val < lb[j] || val > upper {
                return None;
            }
            x[j] = val;
            prefix += val;
        }
        Some(x)
    }

    /// Up to 60 offers of capacity 1..=6 on location ids 0..40 (times a
    /// `spread` that scatters them); offers at one id overlap and add up.
    fn scattered_offer_strategy() -> impl Strategy<Value = LocationOffer> {
        (
            prop::collection::vec((0u32..40, 1u64..=6), 1..=60),
            1u32..=3,
        )
            .prop_map(|(entries, spread)| {
                let mut offer = LocationOffer::new();
                for (id, cap) in entries {
                    offer.add(id * spread, cap);
                }
                offer
            })
    }

    fn offer_strategy() -> impl Strategy<Value = LocationOffer> {
        prop::collection::vec(1u64..=4, 1..=8).prop_map(|caps| {
            let mut offer = LocationOffer::new();
            for (i, c) in caps.into_iter().enumerate() {
                offer.add(i as u32, c);
            }
            offer
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The analytical condition and the constructive algorithm must
        /// agree on every instance: `is_realizable` ⟺ `realize_assignment`
        /// succeeds.
        #[test]
        fn gale_ryser_matches_construction(
            offer in offer_strategy(),
            mut sizes in prop::collection::vec(1u64..=8, 1..=6),
        ) {
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            let profile = CapacityProfile::from_offer(&offer);
            let predicted = is_realizable(&sizes, &profile);
            let constructed = realize_assignment(&offer, &sizes);
            prop_assert_eq!(
                predicted,
                constructed.is_some(),
                "GR says {} but construction {} for sizes {:?} on {:?}",
                predicted,
                constructed.is_some(),
                sizes,
                profile.groups()
            );
            if let Some(a) = constructed {
                // Realization respects capacities and distinctness.
                for (&(id, used), (id2, cap)) in a.usage.iter().zip(offer.iter()) {
                    prop_assert_eq!(id, id2);
                    prop_assert!(used <= cap);
                }
                for (locs, &want) in a.experiments.iter().zip(&sizes) {
                    prop_assert_eq!(locs.len() as u64, want);
                    let mut dedup = locs.clone();
                    dedup.dedup();
                    prop_assert_eq!(dedup.len(), locs.len());
                }
            }
        }

        /// The suffix-minimum greedy returns exactly the quadratic loop's
        /// `Option`, feasible or not: 1–4 capacity groups, capacities
        /// 1..=80, m ≤ 80, descending bounds, `ub` sometimes below `lb`.
        #[test]
        fn max_total_matches_quadratic_reference(
            groups in prop::collection::vec((1u64..=80, 1u64..=120), 1..=4),
            bounds in prop::collection::vec((0u64..=1000, 0u64..=1000), 0..=80),
            lb_scale in 1u64..=400,
            ub_scale in 1u64..=600,
        ) {
            let profile = CapacityProfile::from_groups(groups);
            let mut lb: Vec<u64> = bounds.iter().map(|&(l, _)| l % (lb_scale + 1)).collect();
            let mut ub: Vec<u64> = bounds.iter().map(|&(_, u)| u % (ub_scale + 1)).collect();
            lb.sort_unstable_by(|a, b| b.cmp(a));
            ub.sort_unstable_by(|a, b| b.cmp(a));
            prop_assert_eq!(
                max_total_sizes(&profile, &lb, &ub),
                max_total_sizes_reference(&profile, &lb, &ub),
                "lb {:?} ub {:?} on {:?}",
                lb,
                ub,
                profile.groups()
            );
        }

        /// Run-length realization uses every location exactly as the
        /// per-experiment stable sort does, and fails on the same inputs.
        #[test]
        fn realize_usage_matches_assignment_oracle(
            offer in scattered_offer_strategy(),
            raw_sizes in prop::collection::vec(0u64..=60, 0..=30),
            size_scale in 1u64..=40,
            descending in prop::bool::ANY,
        ) {
            let capacities: Vec<u64> = offer.iter().map(|(_, cap)| cap).collect();
            let mut sizes: Vec<u64> = raw_sizes.iter().map(|&x| x % (size_scale + 1)).collect();
            if descending {
                sizes.sort_unstable_by(|a, b| b.cmp(a));
            }
            let oracle = realize_assignment(&offer, &sizes)
                .map(|a| a.usage.iter().map(|&(_, used)| used).collect::<Vec<u64>>());
            prop_assert_eq!(
                realize_usage(&capacities, &sizes),
                oracle,
                "sizes {:?} on capacities {:?}",
                sizes,
                capacities
            );
        }

        /// The greedy max-total vector is never beaten by any balanced
        /// partition of a larger total (soundness of the maximum).
        #[test]
        fn max_total_is_a_true_maximum(
            offer in offer_strategy(),
            m in 1usize..5,
            lb in 1u64..3,
        ) {
            let profile = CapacityProfile::from_offer(&offer);
            let lbs = vec![lb; m];
            let ubs = vec![profile.n_locations(); m];
            if let Some(sizes) = max_total_sizes(&profile, &lbs, &ubs) {
                let total: u64 = sizes.iter().sum();
                // No feasible vector with total + 1 exists: check all
                // balanced candidates (the easiest-to-pack shape).
                let probe = balanced_partition(total + 1, m as u64);
                let mut sorted = probe.clone();
                sorted.sort_unstable_by(|a, b| b.cmp(a));
                let bigger_possible = sorted.iter().all(|&x| x >= lb)
                    && sorted.iter().all(|&x| x <= profile.n_locations())
                    && is_realizable(&sorted, &profile);
                prop_assert!(
                    !bigger_possible,
                    "balanced {:?} beats greedy {:?}",
                    sorted,
                    sizes
                );
            }
        }
    }
}
