//! `synthetic-n200`: the seeded synthetic federation at n = 200. One op
//! is what `fedval report --synthetic 200 --approx-seed SEED --threads 1`
//! computes (sampled permutation Shapley at the default 256 samples,
//! 51 200 `V(S)` calls at a mean |S| near 100), followed by what
//! `fedform --synthetic 200 --seed SEED --threads 1` computes on the same
//! federation (merge/split formation under churn, its `V(S)` cache and
//! the desim clock).
//!
//! The run seed draws the sampled permutations, the churn schedule and
//! the merge/split rule; the federation is the generator's default one
//! (seed 42), as in `fedval report --synthetic 200`. The report took
//! 7.2–7.5 s on the federation of generator seed 2 and 9.0–10.8 s on
//! that of seed 4, a spread that would swamp the benchmark's bounds.

use crate::cal;
use crate::gate::{self, REFERENCE};
use crate::out::Outcome;
use crate::probe::{self, Delta};
use crate::stats::{fnv, fnv_f64s, median, FNV_OFFSET};
use crate::timed::Timed;
use crate::{Ctx, Phase};
use fedval_coalition::{shapley_auto_wide, ApproxConfig, ShapleyEstimate};
use fedval_core::{FederationGame, FederationScenario};
use fedval_form::{
    ChurnSchedule, FormationConfig, FormationEngine, FormationGame, FormationOutcome,
};
use fedval_policy::{try_policy_report, PolicyReport};
use std::time::Instant;

pub const NAME: &str = "synthetic-n200";
const N: usize = 200;
/// The generator seed of the federation (the CLI's default).
const FEDERATION_SEED: u64 = 42;
/// Set-ups timed per run (the median is reported).
const SETUP_REPS: usize = 100;

/// Everything one op needs, generated from the seed.
pub struct Inputs {
    pub scenario: FederationScenario,
    pub game: FormationGame,
    pub schedule: ChurnSchedule,
    pub config: FormationConfig,
}

/// `fedform`'s defaults, with the thread count pinned to one.
pub fn setup(seed: u64) -> Inputs {
    let config = FormationConfig {
        seed,
        threads: 1,
        ..FormationConfig::default()
    };
    let horizon = config.max_rounds as f64 * config.round_dt;
    let approx = ApproxConfig {
        seed,
        ..ApproxConfig::default()
    };
    Inputs {
        scenario: fedval_testbed::synthetic_scenario(N, FEDERATION_SEED)
            .with_threads(1)
            .with_approx(approx),
        game: FormationGame::synthetic(N, FEDERATION_SEED),
        schedule: ChurnSchedule::seeded(N, seed, horizon, N.div_ceil(2), N / 16),
        config,
    }
}

/// The checked outputs of one op.
struct Op {
    report: PolicyReport,
    formation: FormationOutcome,
    report_ns: u64,
    form_ns: u64,
}

impl Op {
    /// Share bits, CI bits and the formation's combined fingerprint.
    fn fingerprint(&self) -> u64 {
        let (shares, ci) = self
            .report
            .approx
            .as_ref()
            .map_or((Vec::new(), Vec::new()), |a| (a.shares(), a.ci_shares()));
        let h = fnv_f64s(fnv_f64s(FNV_OFFSET, &shares), &ci);
        fnv(h, &self.formation.combined_fingerprint().to_le_bytes())
    }

    /// Invariants for every seed; returns failed checks of 3.
    fn failures(&self) -> u64 {
        let approx_ok = self.report.approx.as_ref().is_some_and(|a| {
            a.samples == 256
                && a.phi.len() == N
                && gate::efficient(&a.shares())
                && a.ci_shares().iter().all(|c| c.is_finite() && *c >= 0.0)
        });
        let form_ok = self.formation.rounds.len() <= FormationConfig::default().max_rounds
            && self.formation.payoff_error.is_none();
        [approx_ok, form_ok, self.report.grand_value > 0.0]
            .iter()
            .filter(|ok| !**ok)
            .count() as u64
    }
}

fn op(inputs: &Inputs) -> Result<Op, String> {
    let (report, report_t) = probe::timed(|| try_policy_report(&inputs.scenario));
    let (formation, form_t) = probe::timed(|| {
        FormationEngine::new(&inputs.game, inputs.config.clone()).run(&inputs.schedule)
    });
    Ok(Op {
        report: report.map_err(|e| e.to_string())?,
        formation,
        report_ns: probe::ns(report_t),
        form_ns: probe::ns(form_t),
    })
}

/// The fingerprint of `seed`, for recording in `reference.tsv`.
pub fn reference_fingerprint(seed: u64) -> Result<u64, String> {
    op(&setup(seed)).map(|o| o.fingerprint())
}

/// Runs and checks one op; every op of a run must print the same bits.
fn checked_op(out: &mut Outcome, inputs: &Inputs, first: &mut Option<u64>) -> Option<Op> {
    match op(inputs) {
        Ok(o) => {
            let fp = o.fingerprint();
            let repeat_ok = first.get_or_insert(fp) == &fp;
            out.checked(
                "synthetic invariants",
                4,
                o.failures() + u64::from(!repeat_ok),
            );
            Some(o)
        }
        Err(e) => {
            out.line(format!("op failed: {e}"));
            out.checked("synthetic op", 1, 1);
            None
        }
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    out.line("threads: shapley=1 formation=1");
    let inputs = setup(ctx.seed);
    let mut first = None;
    match ctx.phase {
        Phase::Untraced => {
            let (setup_raw, setup) = cal::setup_s(SETUP_REPS, || {
                setup(ctx.seed);
            });
            let (mut ops, mut reports, mut forms) = (Vec::new(), Vec::new(), Vec::new());
            let start = Instant::now();
            while ops.is_empty() || start.elapsed() < ctx.seconds {
                let Some(o) = checked_op(out, &inputs, &mut first) else {
                    break;
                };
                reports.push(o.report_ns as f64 / 1e9);
                forms.push(o.form_ns as f64 / 1e9);
                ops.push((o.report_ns + o.form_ns) as f64 / 1e6);
            }
            let op = median(&ops);
            out.set("setup_s", setup);
            out.set("op_p50_ms", op);
            out.line(format!(
                "e2e setup_s = {setup:.6} s scaled ({setup_raw:.6} s raw, median of {SETUP_REPS} set-ups)"
            ));
            // Raw, not scaled: an op this long averages the host's fast
            // and slow phases itself, and calibrations at its two ends
            // only add noise (see README.md).
            out.line(format!("op p50 = {op:.1} ms raw (n={})", ops.len()));
            out.line(format!(
                "e2e report_s = {:.4} s (p50, n={})",
                median(&reports),
                reports.len()
            ));
            out.line(format!(
                "e2e form_s = {:.4} s (p50, n={})",
                median(&forms),
                forms.len()
            ));
        }
        Phase::Traced => traced(out, &inputs, &mut first),
    }
    if let Some(fp) = first {
        let verdict = gate::check_fingerprint(REFERENCE, NAME, ctx.seed, fp);
        out.checked("reference fingerprint", 1, u64::from(!verdict.ok()));
        out.line(format!(
            "gate shares+formation fingerprint {fp:016x}: {}",
            verdict.describe()
        ));
    }
}

fn traced(out: &mut Outcome, inputs: &Inputs, first: &mut Option<u64>) {
    let Some(untraced) = checked_op(out, inputs, first) else {
        return;
    };
    probe::record(&fedval_obs::RecordingSink::new());

    // The report as the program runs it, with its counters and spans.
    let before = fedval_obs::metrics_fold();
    let (report, report_t) = probe::timed(|| try_policy_report(&inputs.scenario));
    let after = fedval_obs::metrics_fold();
    let report_delta = Delta::new(&before, &after);
    let Ok(report) = report else {
        out.checked("synthetic report", 1, 1);
        return;
    };

    // Formation over the timing adapter: the same game, each V(S) timed.
    let (facilities, demand) = fedval_testbed::synthetic_federation(N, FEDERATION_SEED);
    let form_game = Timed::new(FederationGame::new(&facilities, &demand));
    let engine = FormationEngine::new(&form_game, inputs.config.clone());
    let before = fedval_obs::metrics_fold();
    let (formation, form_t) = probe::timed(|| engine.run(&inputs.schedule));
    let after = fedval_obs::metrics_fold();
    let form_delta = Delta::new(&before, &after);
    let traced = Op {
        report,
        formation,
        report_ns: probe::ns(report_t),
        form_ns: probe::ns(form_t),
    };
    let same = traced.fingerprint() == untraced.fingerprint();
    out.checked("traced op equals untraced op", 1, u64::from(!same));

    // The sampled estimator over the timing adapter, with the report's
    // own configuration: its shares must be the report's, bit for bit.
    let approx_game = Timed::new(FederationGame::new(&facilities, &demand));
    let config = ApproxConfig {
        threads: inputs.scenario.threads(),
        ..*inputs.scenario.approx_config()
    };
    let (estimate, approx_t) = probe::timed(|| shapley_auto_wide(&approx_game, &config));
    let same = match (&estimate, &traced.report.approx) {
        (Ok(ShapleyEstimate::Approx(a)), Some(b)) => {
            fnv_f64s(fnv_f64s(FNV_OFFSET, &a.phi), &a.ci_half_width)
                == fnv_f64s(fnv_f64s(FNV_OFFSET, &b.phi), &b.ci_half_width)
        }
        _ => false,
    };
    out.checked("adapter estimate equals report", 1, u64::from(!same));

    let approx_vs = approx_game.totals();
    let form_vs = form_game.totals();
    let vs_calls = approx_vs.calls + form_vs.calls;
    let vs_ns = approx_vs.busy_ns + form_vs.busy_ns;
    let vs_members = approx_vs.members + form_vs.members;
    let (hits, misses) = engine.cache_stats();
    let rounds = form_delta.span_count("form.round");
    let events = form_delta.counter("desim.engine.delivered");
    out.set(
        "obs.trace_overhead_ratio",
        probe::ratio(
            (traced.report_ns + traced.form_ns) as f64,
            (untraced.report_ns + untraced.form_ns) as f64,
        ),
    );
    out.set("core.vs.calls", vs_calls as f64);
    out.set("core.vs.busy_s", vs_ns as f64 / 1e9);
    out.set(
        "core.vs.ns_per_member",
        probe::ratio(vs_ns as f64, vs_members as f64),
    );
    out.set(
        "coalition.approx.permutations",
        report_delta.counter("coalition.approx.permutations") as f64,
    );
    out.set(
        "coalition.approx.evals",
        report_delta.counter("coalition.approx.evals") as f64,
    );
    out.set(
        "coalition.approx.self_s",
        probe::secs(approx_t) - approx_vs.busy_ns as f64 / 1e9,
    );
    out.set(
        "policy.report.self_s",
        probe::report_self_ns(traced.report_ns, &report_delta, 0) as f64 / 1e9,
    );
    out.set("form.rounds", traced.formation.rounds.len() as f64);
    out.set("form.merges", traced.formation.total_merges as f64);
    out.set("form.splits", traced.formation.total_splits as f64);
    out.set(
        "form.round_ms",
        probe::ratio(form_delta.span_ns("form.round") as f64 / 1e6, rounds as f64),
    );
    out.set(
        "form.vs_cache_hit_ratio",
        probe::ratio(hits as f64, (hits + misses) as f64),
    );
    out.set("form.vs.calls", form_vs.calls as f64);
    out.set("desim.events", events as f64);
    out.set(
        "desim.events_per_s",
        probe::ratio(events as f64, traced.form_ns as f64 / 1e9),
    );
}
