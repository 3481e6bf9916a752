//! `paper-sweep`: the paper's own inputs — the §4.1 worked example
//! (three facilities, 1300 locations) as a full policy report, the Fig.
//! 2–9 generators, and every figure check. The inputs are fixed by the
//! paper, so the seed changes nothing here.
//!
//! Op: one `all_figures()` call at one sweep thread (188 scenario points).

use crate::cal;
use crate::gate::{self, FIG_TOTALS, SWEEP_POINTS};
use crate::out::Outcome;
use crate::probe::{self, Delta};
use crate::stats::{median, Summary};
use crate::timed::Timed;
use crate::{Ctx, Phase};
use fedval_bench::checks::{
    check_fig2, check_fig4, check_fig5, check_fig6, check_fig7, check_fig8, check_fig9,
    check_table_e1,
};
use fedval_bench::{all_figures, table_e1, Figure};
use fedval_coalition::{shapley, try_nucleolus, CoalitionalGame as _, TableGame};
use fedval_core::{paper_facilities, Demand, ExperimentClass, FederationGame, FederationScenario};
use fedval_obs::RecordingSink;
use fedval_policy::{try_policy_report, PolicyReport};
use std::time::Instant;

/// Set-ups timed per run (the median is reported).
const SETUP_REPS: usize = 100;

/// The §4.1 scenario: L = (100, 400, 800), R = 1, ℓ = 500, d = 1, one
/// experiment; its table built, as every query needs it.
fn worked_example() -> FederationScenario {
    let scenario = FederationScenario::new(
        paper_facilities([1, 1, 1]),
        Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0)),
    )
    .with_threads(1);
    let _ = scenario.try_game();
    scenario
}

/// Checks one worked-example report; returns the number of failed checks.
fn check_report(scenario: &FederationScenario, report: &PolicyReport) -> u64 {
    let Ok(table) = scenario.try_game() else {
        return 3;
    };
    let exact = gate::shapley_by_definition(table);
    let worked = table_e1();
    [
        report.grand_value == 1300.0,
        gate::max_abs_diff(gate::scheme_shares(report, "shapley"), &exact) < 1e-12
            && gate::max_abs_diff(&worked.shapley_hat, &exact) < 1e-12,
        gate::efficient(gate::scheme_shares(report, "nucleolus")),
    ]
    .iter()
    .filter(|ok| !**ok)
    .count() as u64
}

/// One of `fedval_bench::checks`' figure checks.
type Check = fn(&Figure) -> fedval_bench::CheckResult;

fn fig_points(fig: &Figure) -> u64 {
    let xs = fig.series.first().map_or(0, |s| s.points.len());
    let curves = if fig.id == "fig9" {
        fig.series.len() / 2
    } else {
        1
    };
    (xs * curves) as u64
}

fn fig_total(fig: &Figure) -> f64 {
    fig.series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(_, y)| y))
        .sum()
}

/// Runs the paper's checks on one generation of the figures; returns
/// (checks attempted, failed).
fn check_figures(figs: &[Figure]) -> (u64, u64) {
    let find = |id: &str| figs.iter().find(|f| f.id == id);
    let mut failed = 0u64;
    let checks: [(&str, Check); 7] = [
        ("fig2", check_fig2),
        ("fig4", check_fig4),
        ("fig5", check_fig5),
        ("fig6", check_fig6),
        ("fig7", check_fig7),
        ("fig8", check_fig8),
        ("fig9", check_fig9),
    ];
    for (id, check) in checks {
        if !find(id).is_some_and(|f| check(f).passed()) {
            failed += 1;
        }
    }
    if !check_table_e1(&table_e1()).passed() {
        failed += 1;
    }
    for (id, _) in FIG_TOTALS {
        if !find(id).is_some_and(|f| gate::fig_total_ok(id, fig_total(f))) {
            failed += 1;
        }
    }
    let points: u64 = FIG_TOTALS
        .iter()
        .filter_map(|(id, _)| find(id).map(fig_points))
        .sum();
    if points != SWEEP_POINTS {
        failed += 1;
    }
    (15, failed)
}

/// One iteration: the worked-example report, then the timed sweep, then
/// the checks. Returns the sweep's raw wall time in ns and the factor
/// that scales it to the reference speed.
fn iteration(out: &mut Outcome) -> (u64, f64) {
    let scenario = worked_example();
    match try_policy_report(&scenario) {
        Ok(report) => {
            let bad = check_report(&scenario, &report);
            out.checked("worked example", 3, bad);
        }
        Err(e) => {
            out.line(format!("worked example report failed: {e}"));
            out.checked("worked example", 3, 3);
        }
    }
    let (figs, wall, factor) = cal::scaled(1, all_figures);
    let (attempted, failed) = check_figures(&figs);
    out.checked("figures", attempted, failed);
    (probe::ns(wall), factor)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    fedval_bench::set_sweep_threads(1);
    out.line("threads: sweep=1 shapley=1");
    // Warm-up: the first generation pays page faults and lazy statics.
    let mut discard = Outcome::default();
    iteration(&mut discard);
    out.checked("warm-up", discard.attempted, discard.failed);

    match ctx.phase {
        Phase::Untraced => {
            let (setup_raw, setup) = cal::setup_s(SETUP_REPS, || {
                worked_example();
            });
            let start = Instant::now();
            let (mut sweeps, mut scaled) = (Vec::new(), Vec::new());
            while sweeps.is_empty() || start.elapsed() < ctx.seconds {
                let (ns, factor) = iteration(out);
                sweeps.push(ns as f64 / 1e6);
                scaled.push(ns as f64 / 1e6 * factor);
            }
            let total_s: f64 = sweeps.iter().sum::<f64>() / 1e3;
            let s = Summary::of(&sweeps).expect("the loop runs at least once");
            let op = median(&scaled);
            out.set("setup_s", setup);
            out.set("op_p50_ms", op);
            let points_per_s = (SWEEP_POINTS * sweeps.len() as u64) as f64 / total_s;
            out.line(format!(
                "e2e setup_s = {setup:.6} s scaled ({setup_raw:.6} s raw, median of {SETUP_REPS} set-ups)"
            ));
            out.line(format!(
                "e2e sweep_points_per_s = {points_per_s:.2} 1/s (sweep p50 {:.3} ms, {} {:.3} ms, n={}; p50 {op:.3} ms scaled)",
                s.p50,
                s.tail_label(),
                s.tail,
                s.n
            ));
        }
        Phase::Traced => traced(ctx, out),
    }
}

fn traced(ctx: &Ctx, out: &mut Outcome) {
    // Untraced and traced sweeps alternate, so a change in the host's
    // speed falls on both sides of the overhead ratio alike.
    let sink = RecordingSink::new();
    let (mut untraced, mut traced, mut self_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut evals, mut eval_ns, mut points) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < ctx.seconds {
        untraced.push(iteration(out).0 as f64);
        probe::record(&sink);
        let before = fedval_obs::metrics_fold();
        let (figs, wall) = probe::timed(all_figures);
        let after = fedval_obs::metrics_fold();
        fedval_obs::shutdown();
        let d = Delta::new(&before, &after);
        let (attempted, failed) = check_figures(&figs);
        out.checked("figures", attempted, failed);
        traced.push(probe::ns(wall) as f64);
        let span_ns = d.span_ns("coalition.game.eval");
        self_ns.push(probe::ns(wall).saturating_sub(span_ns) as f64);
        evals += d.span_count("coalition.game.eval");
        eval_ns += span_ns;
        points += d.counter("bench.sweep.points");
    }
    let sweeps = traced.len() as f64;
    out.set(
        "obs.trace_overhead_ratio",
        probe::ratio(median(&traced), median(&untraced)),
    );
    out.set("sweep.points", points as f64 / sweeps);
    out.set("sweep.self_s", median(&self_ns) / 1e9);
    out.set("core.vs.calls", evals as f64 / sweeps);
    out.set("core.vs.busy_s", eval_ns as f64 / sweeps / 1e9);
    out.set("core.vs.ns_per_member", ns_per_member(&sink.records()));

    probe::record(&sink);
    worked_example_layers(out);
    fedval_obs::shutdown();
    // The serve layer in-process, on the same §4.1 scenario: the
    // benchmark's open-loop serve workload is too noisy on a shared host
    // to be in BENCHMARK.json, so its in-process layers are measured here.
    crate::serve::execution_layers(ctx.seed, out);
}

/// `V(S)` time per member over the recorded `coalition.game.eval` spans
/// (the sweep records one point in eight; the mask gives `|S|`).
fn ns_per_member(records: &[fedval_obs::Record]) -> f64 {
    use fedval_obs::Record;
    let mut members = std::collections::BTreeMap::new();
    let (mut ns, mut total_members) = (0u64, 0u64);
    for r in records {
        match r {
            Record::SpanStart {
                id,
                name,
                detail: Some(detail),
                ..
            } if name == "coalition.game.eval" => {
                if let Some(mask) = detail
                    .strip_prefix("mask=")
                    .and_then(|m| m.parse::<u64>().ok())
                {
                    members.insert(*id, u64::from(mask.count_ones()));
                }
            }
            Record::SpanEnd { id, dur_ns, .. } => {
                if let Some(m) = members.remove(id) {
                    ns += dur_ns;
                    total_members += m;
                }
            }
            _ => {}
        }
    }
    probe::ratio(ns as f64, total_members as f64)
}

/// The worked example's layers, timed from outside: table build through
/// the timing adapter, exact Shapley and nucleolus on that table, and
/// the report's own time.
fn worked_example_layers(out: &mut Outcome) {
    const REPS: usize = 20;
    let facilities = paper_facilities([1, 1, 1]);
    let demand = Demand::one_experiment(ExperimentClass::simple("e", 500.0, 1.0));
    let (mut build, mut shap, mut nuc, mut report_self, mut simplex) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counts = (0u64, 0u64, 0u64, 0u64);
    for _ in 0..REPS {
        let game = Timed::new(FederationGame::new(&facilities, &demand));
        let (table, t) = probe::timed(|| TableGame::try_from_game(&game));
        let Ok(table) = table else {
            out.checked("worked example table", 1, 1);
            return;
        };
        build.push(probe::secs(t));
        let (phi, t) = probe::timed(|| shapley(&table));
        shap.push(probe::secs(t));
        let exact = gate::shapley_by_definition(&table);
        let grand = table.grand_value();
        let phi_hat: Vec<f64> = phi.iter().map(|p| p / grand).collect();
        out.checked(
            "adapter table",
            1,
            u64::from(gate::max_abs_diff(&phi_hat, &exact) > 1e-12),
        );

        let before = fedval_obs::metrics_fold();
        let (_, t) = probe::timed(|| try_nucleolus(&table));
        let after = fedval_obs::metrics_fold();
        let d = Delta::new(&before, &after);
        nuc.push(probe::secs(t));
        let nucleolus_simplex = d.histogram_sum_ns("simplex.solver.solve_ns");
        counts.0 = d.counter("coalition.nucleolus.lp_solves");
        counts.1 = d.counter("coalition.nucleolus.stages");

        let scenario = worked_example();
        let before = fedval_obs::metrics_fold();
        let (report, wall) = probe::timed(|| try_policy_report(&scenario));
        let after = fedval_obs::metrics_fold();
        let d = Delta::new(&before, &after);
        out.checked("worked example", 1, u64::from(report.is_err()));
        report_self
            .push(probe::report_self_ns(probe::ns(wall), &d, nucleolus_simplex) as f64 / 1e9);
        simplex.push(d.histogram_sum_ns("simplex.solver.solve_ns") as f64 / 1e9);
        counts.2 = d.counter("simplex.solver.solves");
        counts.3 = d.counter("simplex.solver.pivots");
    }
    out.set("core.table.build_s", median(&build));
    out.set("coalition.shapley_exact.busy_s", median(&shap));
    out.set("coalition.nucleolus.busy_s", median(&nuc));
    out.set("coalition.nucleolus.lp_solves", counts.0 as f64);
    out.set("coalition.nucleolus.stages", counts.1 as f64);
    out.set("policy.report.self_s", median(&report_self));
    let simplex_s = median(&simplex);
    out.set("simplex.solves", counts.2 as f64);
    out.set("simplex.pivots", counts.3 as f64);
    out.set("simplex.busy_s", simplex_s);
    out.set(
        "simplex.us_per_pivot",
        probe::ratio(simplex_s * 1e6, counts.3 as f64),
    );
}
