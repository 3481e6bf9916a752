//! Integration: market baselines vs coalitional sharing, plus market
//! invariants under random books.

use fedval::market::{clear_double_auction, run_combinatorial_auction, Ask, Bid, Order};
use fedval::{paper_facilities, Demand, ExperimentClass, FederationScenario};
use proptest::prelude::*;

fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[test]
fn market_shares_are_near_proportional_and_far_from_shapley() {
    // The §5 claim, quantified on the pivotal-experiment scenario.
    let facilities = paper_facilities([1, 1, 1]);
    let bids = vec![Bid::new("global", 1201, 2600.0)];
    let market = run_combinatorial_auction(&facilities, &bids).revenue_shares();

    let scenario = FederationScenario::new(
        facilities,
        Demand::one_experiment(ExperimentClass::simple("e", 1200.0, 1.0)),
    );
    let shapley = scenario.shapley_shares().expect("n = 3");
    let proportional = scenario.proportional_shares();

    let to_pi = l1(&market, &proportional);
    let to_phi = l1(&market, &shapley);
    assert!(
        to_pi < 0.1 && to_phi > 0.4,
        "market {market:?} should track pi (d={to_pi:.3}) not phi (d={to_phi:.3})"
    );
}

#[test]
fn spot_market_with_flat_reserves_is_exactly_proportional() {
    let facilities = paper_facilities([80, 60, 20]);
    let asks: Vec<Ask> = facilities
        .iter()
        .map(|f| Ask {
            quantity: f.total_slots(),
            reserve: 0.0,
        })
        .collect();
    let orders = [Order {
        quantity: 1_000_000, // ample demand clears everything
        limit: 1.0,
    }];
    let out = clear_double_auction(&asks, &orders);
    let shares = out.revenue_shares();
    let scenario = FederationScenario::new(
        facilities,
        Demand::one_experiment(ExperimentClass::simple("e", 0.0, 1.0)),
    );
    let pi = scenario.proportional_shares();
    assert!(l1(&shares, &pi) < 1e-9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn double_auction_invariants(
        ask_specs in prop::collection::vec((1u64..50, 0u32..10), 1..6),
        order_specs in prop::collection::vec((1u64..50, 0u32..10), 1..6),
    ) {
        let asks: Vec<Ask> = ask_specs
            .iter()
            .map(|&(q, r)| Ask { quantity: q, reserve: f64::from(r) })
            .collect();
        let orders: Vec<Order> = order_specs
            .iter()
            .map(|&(q, l)| Order { quantity: q, limit: f64::from(l) })
            .collect();
        let out = clear_double_auction(&asks, &orders);

        // Conservation: sold sums to traded, bounded by both books.
        let sold: u64 = out.sold.iter().sum();
        prop_assert_eq!(sold, out.traded);
        let supply: u64 = asks.iter().map(|a| a.quantity).sum();
        let demand: u64 = orders.iter().map(|o| o.quantity).sum();
        prop_assert!(out.traded <= supply.min(demand));

        // Individual rationality for sellers: no ask sells below reserve.
        for (ask, &q) in asks.iter().zip(&out.sold) {
            if q > 0 {
                prop_assert!(out.price >= ask.reserve - 1e-9);
            }
        }
        // Price bounded by the most generous order.
        if out.traded > 0 {
            let best_limit = orders
                .iter()
                .map(|o| o.limit)
                .fold(f64::MIN, f64::max);
            prop_assert!(out.price <= best_limit + 1e-9);
        }
        // Budget balance: seller revenue = price × traded = buyer payments.
        let revenue: f64 = out.revenue.iter().sum();
        prop_assert!((revenue - out.price * out.traded as f64).abs() < 1e-6);
    }

    #[test]
    fn auction_winners_are_always_packable(
        bundle_sizes in prop::collection::vec(1u64..8, 1..6),
        amounts in prop::collection::vec(1u32..100, 1..6),
        n_locations in 2u32..10,
    ) {
        let n = bundle_sizes.len().min(amounts.len());
        let facilities = vec![fedval::Facility::uniform("f", 0, n_locations, 2)];
        let bids: Vec<Bid> = (0..n)
            .map(|i| Bid::new(format!("b{i}"), bundle_sizes[i], f64::from(amounts[i])))
            .collect();
        let out = run_combinatorial_auction(&facilities, &bids);
        // Winner bundles must fit within the capacity profile.
        let mut sizes: Vec<u64> = out.winners.iter().map(|&i| bids[i].min_locations).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let profile = fedval::core::coalition_profile(&facilities);
        prop_assert!(fedval::core::allocation::is_realizable(&sizes, &profile));
        // Revenue equals the sum of winning bids.
        let expect: f64 = out.winners.iter().map(|&i| bids[i].amount).sum();
        prop_assert!((out.revenue - expect).abs() < 1e-9);
        // Facility attribution never exceeds total revenue.
        let attributed: f64 = out.facility_revenue.iter().sum();
        prop_assert!(attributed <= out.revenue + 1e-6);
    }
}
