//! `stability-n7`: the synthetic federation of `fedval report
//! --synthetic 7` given the full policy report — every scheme, core and
//! least core, nucleolus. The nucleolus and its simplex solves take
//! nearly all the time; `V(S)` is 128 calls in set-up.
//!
//! The inputs are fixed, so the seed changes nothing here: over
//! federations drawn from a seed, one run's median report took 1.96 s
//! and its slowest 2.74 s, and that input spread, not the program,
//! would decide the run-to-run spread.
//!
//! Op: one `try_policy_report` on a scenario whose table is built.

use crate::cal;
use crate::gate;
use crate::out::Outcome;
use crate::probe::{self, Delta};
use crate::stats::{fnv_f64s, median, Summary, FNV_OFFSET};
use crate::timed::Timed;
use crate::{Ctx, Phase};
use fedval_coalition::{shapley, try_nucleolus, TableGame};
use fedval_core::{FederationGame, FederationScenario};
use fedval_obs::RecordingSink;
use fedval_policy::{try_policy_report, PolicyReport};
use std::time::Instant;

pub const NAME: &str = "stability-n7";
const N: usize = 7;
/// The generator seed of the federation (the CLI's default).
const FEDERATION_SEED: u64 = 42;
/// Set-ups timed per run (the median is reported).
const SETUP_REPS: usize = 100;
/// Fingerprint of the report's Shapley and nucleolus share bits.
pub const FINGERPRINT: u64 = 0xb28d_55cd_2499_bc37;

/// Generates the federation and builds its table.
fn setup() -> FederationScenario {
    let scenario = fedval_testbed::synthetic_scenario(N, FEDERATION_SEED).with_threads(1);
    let _ = scenario.try_game();
    scenario
}

/// Checks one report; returns failed checks of 4. Shapley must equal
/// the definition, the nucleolus must be efficient and (when the core
/// is non-empty) in the core, and the share bits must be the recorded
/// ones.
fn check(scenario: &FederationScenario, report: &PolicyReport) -> u64 {
    let Ok(table) = scenario.try_game() else {
        return 4;
    };
    let nucleolus_in_core = report
        .assessments
        .iter()
        .find(|a| a.scheme == "nucleolus")
        .is_some_and(|a| !report.core_nonempty || a.in_core == Some(true));
    [
        gate::max_abs_diff(
            gate::scheme_shares(report, "shapley"),
            &gate::shapley_by_definition(table),
        ) < 1e-9,
        gate::efficient(gate::scheme_shares(report, "nucleolus")),
        nucleolus_in_core,
        fingerprint(report) == FINGERPRINT,
    ]
    .iter()
    .filter(|ok| !**ok)
    .count() as u64
}

/// The bits of the report's Shapley and nucleolus shares.
pub fn fingerprint(report: &PolicyReport) -> u64 {
    fnv_f64s(
        fnv_f64s(FNV_OFFSET, gate::scheme_shares(report, "shapley")),
        gate::scheme_shares(report, "nucleolus"),
    )
}

/// The fingerprint of a fresh report, for recording in [`FINGERPRINT`].
pub fn reference_fingerprint() -> Result<u64, String> {
    try_policy_report(&setup())
        .map(|r| fingerprint(&r))
        .map_err(|e| e.to_string())
}

/// One report, timed and checked. Returns its raw wall time in ns and
/// the factor that scales it to the reference speed.
fn one(out: &mut Outcome) -> Option<(u64, f64)> {
    let scenario = setup();
    let (report, wall, factor) = cal::scaled(1, || try_policy_report(&scenario));
    match report {
        Ok(report) => {
            out.checked("stability report", 4, check(&scenario, &report));
            Some((probe::ns(wall), factor))
        }
        Err(e) => {
            out.line(format!("report failed: {e}"));
            out.checked("stability report", 1, 1);
            None
        }
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    out.line("threads: shapley=1 (nucleolus and simplex are single-threaded)");
    match ctx.phase {
        Phase::Untraced => untraced(ctx, out),
        Phase::Traced => traced(ctx, out),
    }
}

fn untraced(ctx: &Ctx, out: &mut Outcome) {
    let (setup_raw, setup) = cal::setup_s(SETUP_REPS, || {
        setup();
    });
    let (mut reports_ms, mut scaled) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while reports_ms.is_empty() || start.elapsed() < ctx.seconds {
        let Some((ns, factor)) = one(out) else {
            break;
        };
        reports_ms.push(ns as f64 / 1e6);
        scaled.push(ns as f64 / 1e6 * factor);
    }
    let Some(s) = Summary::of(&reports_ms) else {
        return;
    };
    let total_s = reports_ms.iter().sum::<f64>() / 1e3;
    let op = median(&scaled);
    out.set("setup_s", setup);
    out.set("op_p50_ms", op);
    out.line(format!(
        "e2e setup_s = {setup:.6} s scaled ({setup_raw:.6} s raw, median of {SETUP_REPS} set-ups)"
    ));
    out.line(format!(
        "e2e report_s = {:.4} s (p50, {} {:.4} s, n={}; {:.4} reports/s; p50 {:.4} s scaled)",
        s.p50 / 1e3,
        s.tail_label(),
        s.tail / 1e3,
        s.n,
        reports_ms.len() as f64 / total_s,
        op / 1e3
    ));
}

fn traced(ctx: &Ctx, out: &mut Outcome) {
    // Untraced and traced reports alternate, so a change in the host's
    // speed falls on both sides of the overhead ratio alike.
    let sink = RecordingSink::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut layer: Vec<[f64; 12]> = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < ctx.seconds {
        untraced.push(one(out).map_or(0.0, |(ns, _)| ns as f64));
        probe::record(&sink);
        let row = traced_report(out, &mut traced);
        fedval_obs::shutdown();
        layer.extend(row);
    }
    let col = |i: usize| median(&layer.iter().map(|row| row[i]).collect::<Vec<_>>());
    out.set(
        "obs.trace_overhead_ratio",
        probe::ratio(median(&traced), median(&untraced)),
    );
    out.set("core.vs.calls", col(0));
    out.set("core.vs.busy_s", col(1));
    out.set("core.vs.ns_per_member", col(2));
    out.set("core.table.build_s", col(3));
    out.set("coalition.shapley_exact.busy_s", col(4));
    out.set("coalition.nucleolus.busy_s", col(5));
    out.set("coalition.nucleolus.lp_solves", col(6));
    out.set("coalition.nucleolus.stages", col(7));
    out.set("simplex.solves", col(8));
    out.set("simplex.pivots", col(9));
    out.set("simplex.busy_s", col(10));
    out.set("simplex.us_per_pivot", probe::ratio(col(10) * 1e6, col(9)));
    out.set("policy.report.self_s", col(11));
}

/// One traced report, then the same game's layers called directly:
/// the table through the timing adapter, exact Shapley and the
/// nucleolus on that table. Returns the layer row in `PER_LAYER` order.
fn traced_report(out: &mut Outcome, traced: &mut Vec<f64>) -> Option<[f64; 12]> {
    let scenario = setup();
    let before = fedval_obs::metrics_fold();
    let (report, wall) = probe::timed(|| try_policy_report(&scenario));
    let after = fedval_obs::metrics_fold();
    let report_delta = Delta::new(&before, &after);
    traced.push(probe::ns(wall) as f64);
    if let Ok(report) = &report {
        out.checked("stability report", 4, check(&scenario, report));
    }

    let federation = fedval_testbed::synthetic_federation(N, FEDERATION_SEED);
    let game = Timed::new(FederationGame::new(&federation.0, &federation.1));
    let (table, build) = probe::timed(|| TableGame::try_from_game(&game));
    let Ok(table) = table else {
        out.checked("adapter table", 1, 1);
        return None;
    };
    let same = scenario.try_game().is_ok_and(|t| {
        t.values()
            .iter()
            .zip(table.values())
            .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    out.checked("adapter table", 1, u64::from(!same));
    let (_, shap) = probe::timed(|| shapley(&table));
    let before = fedval_obs::metrics_fold();
    let (_, nuc) = probe::timed(|| try_nucleolus(&table));
    let after = fedval_obs::metrics_fold();
    let nuc_delta = Delta::new(&before, &after);
    let vs = game.totals();
    let simplex_in_nucleolus = nuc_delta.histogram_sum_ns("simplex.solver.solve_ns");
    Some([
        vs.calls as f64,
        vs.busy_ns as f64 / 1e9,
        vs.ns_per_member(),
        probe::secs(build),
        probe::secs(shap),
        probe::secs(nuc),
        nuc_delta.counter("coalition.nucleolus.lp_solves") as f64,
        nuc_delta.counter("coalition.nucleolus.stages") as f64,
        report_delta.counter("simplex.solver.solves") as f64,
        report_delta.counter("simplex.solver.pivots") as f64,
        report_delta.histogram_sum_ns("simplex.solver.solve_ns") as f64 / 1e9,
        probe::report_self_ns(probe::ns(wall), &report_delta, simplex_in_nucleolus) as f64 / 1e9,
    ])
}
