//! `fedval` — command-line front end for federation policy design.
//!
//! Build a scenario from flags, then print coalition values, shares under
//! every scheme, and the stability report:
//!
//! ```text
//! fedval report --locations 100,400,800 --threshold 500
//! fedval shares --locations 100,400,800 --capacities 80,60,20 \
//!               --threshold 250 --volume 40 --scheme shapley
//! fedval values --locations 100,400,800 --threshold 500
//! ```
//!
//! Defaults reproduce the paper's §4.1 worked example.

use fedval::coalition::{hoeffding_samples, NUCLEOLUS_MAX_PLAYERS};
use fedval::policy::try_policy_report;
use fedval::{
    ApproxConfig, Coalition, CoalitionalGame, FederationScenario, SharingScheme,
    EXACT_SHAPLEY_MAX_PLAYERS,
};
use fedval_obs::{is_broken_pipe, CliObservability};
use fedval_serve::{parse_approx_flag, ScenarioSpec};
use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    command: String,
    spec: ScenarioSpec,
    scheme: String,
    threads: usize,
    approx: ApproxConfig,
    trace: Option<String>,
    metrics: bool,
}

fn usage() -> &'static str {
    "usage: fedval <report|shares|values> [options]\n\
     \n\
     options:\n\
       --locations  L1,L2,...   locations per facility   (default 100,400,800)\n\
       --capacities R1,R2,...   capacity per location    (default 1,1,...)\n\
       --threshold  l           diversity threshold      (default 500)\n\
       --shape      d           utility exponent         (default 1)\n\
       --volume     K           number of experiments; omit for one,\n\
                                'fill' for capacity-filling demand\n\
       --scheme     name        shapley|proportional|consumption|\n\
                                nucleolus|equal          (default shapley)\n\
       --threads    N           worker threads for the Shapley pass\n\
                                (default: available hardware parallelism;\n\
                                any N gives identical shares)\n\
       --trace      path        write a JSONL observability trace (spans,\n\
                                counters, events) to this file\n\
       --metrics                print the run report (per-phase timings,\n\
                                counter totals) after the command output\n\
       --synthetic  N[:SEED]    use the seeded large-n synthetic federation\n\
                                (overrides --locations/--capacities/\n\
                                --threshold; default seed 42)\n\
     \n\
     sampled Shapley (automatic past 16 facilities):\n\
       --approx                 force the sampled estimator even below the\n\
                                exact cap\n\
       --epsilon        E       target error radius on normalized shares;\n\
                                the sampling budget is Hoeffding-planned\n\
                                from E and --confidence\n\
       --approx-seed    S       RNG seed; same seed, same output (default 42)\n\
       --approx-method  M       permutation|stratified  (default permutation)\n\
       --confidence     C       CI confidence level in (0,1) (default 0.95)\n\
     \n\
     expert overrides (instead of --epsilon):\n\
       --approx-samples N       explicit sampling budget  (default 256);\n\
                                wins over --epsilon when both are given\n"
}

/// Default worker-thread count: the available hardware parallelism
/// (floor 1). Shares are identical for any thread count — the repro
/// suite diffs t=1 against t=4 to enforce it — so defaulting to the
/// hardware is free throughput. `--threads` overrides.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: args.first().cloned().ok_or_else(|| usage().to_string())?,
        // Capacities default to one per location once the flags are in.
        spec: ScenarioSpec {
            capacities: Vec::new(),
            ..ScenarioSpec::paper_4_1()
        },
        scheme: "shapley".to_string(),
        threads: default_threads(),
        approx: ApproxConfig::default(),
        trace: None,
        metrics: false,
    };
    if !matches!(opts.command.as_str(), "report" | "shares" | "values") {
        return Err(format!("unknown command '{}'\n\n{}", opts.command, usage()));
    }
    // `--epsilon` plans the budget from the Hoeffding bound, but an
    // explicit `--approx-samples` wins; resolved after the flag loop so
    // order on the command line never matters.
    let mut epsilon: Option<f64> = None;
    let mut samples_overridden = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        // Valueless switches are matched before the generic value grab.
        if flag == "--metrics" {
            opts.metrics = true;
            continue;
        }
        if flag == "--approx" {
            opts.approx.force = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        if opts.spec.parse_flag(flag, value)? || parse_approx_flag(&mut opts.approx, flag, value)? {
            // An explicit budget wins over `--epsilon`.
            samples_overridden |= flag == "--approx-samples";
            continue;
        }
        match flag.as_str() {
            "--scheme" => {
                opts.scheme = value.clone();
            }
            "--threads" => {
                let n: usize = value.parse().map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.threads = n;
            }
            "--trace" => {
                opts.trace = Some(value.clone());
            }
            "--epsilon" => {
                let e: f64 = value.parse().map_err(|e| format!("--epsilon: {e}"))?;
                if !(e > 0.0 && e.is_finite()) {
                    return Err("--epsilon must be a positive finite number".to_string());
                }
                epsilon = Some(e);
            }
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    opts.spec.finish_flags()?;
    if let Some(epsilon) = epsilon {
        if !samples_overridden {
            // Normalized shares live in [0, 1], so `range = 1`; the
            // Hoeffding bound turns (ε, 1 − confidence) into the budget.
            let delta = 1.0 - opts.approx.confidence;
            let samples = hoeffding_samples(1.0, epsilon, delta);
            if samples == usize::MAX {
                return Err(format!(
                    "--epsilon {epsilon} with --confidence {} needs an unbounded budget",
                    opts.approx.confidence
                ));
            }
            // The estimator's floor (32) still applies downstream.
            opts.approx.samples = samples.max(1);
        }
    }
    Ok(opts)
}

fn build_scenario(opts: &Options) -> FederationScenario {
    FederationScenario::new(opts.spec.facilities(), opts.spec.demand())
        .with_threads(opts.threads)
        .with_approx(opts.approx)
}

/// Prints the `shares` table for a sampled Shapley estimate, with the
/// per-facility CI half-width column and the certificate header.
fn print_sampled_shapley(
    out: &mut dyn Write,
    scenario: &FederationScenario,
    n: usize,
) -> Result<(), Box<dyn Error>> {
    let estimate = scenario.shapley_estimate()?;
    // The caller and the scenario ask the same `ApproxConfig::samples_at`,
    // so this path always gets a sampled estimate.
    let Some(approx) = estimate.as_approx() else {
        return Err("shares: solver selection returned exact Shapley on the sampled path".into());
    };
    let shares = approx.shares();
    let ci = approx.ci_shares();
    writeln!(
        out,
        "scheme: shapley (sampled: {}, {} samples, seed {}, {:.0}% CI) — V(N) = {:.2}",
        approx.method.as_str(),
        approx.samples,
        approx.seed,
        approx.confidence * 100.0,
        approx.grand_value
    )?;
    writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>14}",
        "facility", "share", "±ci", "payoff"
    )?;
    for i in 0..n {
        writeln!(
            out,
            "{:>10} {:>10.4} {:>10.4} {:>14.2}",
            i + 1,
            shares[i],
            ci[i],
            shares[i] * approx.grand_value
        )?;
    }
    Ok(())
}

fn scheme_from_name(name: &str) -> Result<SharingScheme, String> {
    Ok(match name {
        "shapley" => SharingScheme::Shapley,
        "proportional" => SharingScheme::Proportional,
        "consumption" => SharingScheme::Consumption,
        "nucleolus" => SharingScheme::Nucleolus,
        "equal" => SharingScheme::Equal,
        other => return Err(format!("unknown scheme '{other}'")),
    })
}

fn execute(opts: &Options, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let scenario = {
        let _span = fedval_obs::span("fedval.cli.scenario");
        build_scenario(opts)
    };
    let n = scenario.facilities().len();
    let _command_span = fedval_obs::span_with("fedval.cli.command", || opts.command.clone());

    match opts.command.as_str() {
        "values" => {
            if n > EXACT_SHAPLEY_MAX_PLAYERS {
                return Err(format!(
                    "values enumerates all 2^n coalitions and supports at most \
                     {EXACT_SHAPLEY_MAX_PLAYERS} facilities (got {n}); use 'shares' or \
                     'report' — past the cap they answer from the sampled estimator"
                )
                .into());
            }
            writeln!(out, "{:>16} {:>14}", "coalition", "V(S)")?;
            let game = scenario.try_game()?;
            for c in Coalition::all(n).filter(|c| !c.is_empty()) {
                let label: Vec<String> = c.players().map(|p| (p + 1).to_string()).collect();
                writeln!(
                    out,
                    "{:>16} {:>14.2}",
                    format!("{{{}}}", label.join(",")),
                    game.value(c)
                )?;
            }
        }
        "shares" => {
            let scheme = scheme_from_name(&opts.scheme)?;
            if matches!(scheme, SharingScheme::Nucleolus) && n > NUCLEOLUS_MAX_PLAYERS {
                return Err(format!(
                    "the nucleolus supports at most {NUCLEOLUS_MAX_PLAYERS} facilities \
                     (got {n}) and has no sampled fallback; use --scheme shapley"
                )
                .into());
            }
            let sampled = opts.approx.samples_at(n);
            if sampled && matches!(scheme, SharingScheme::Shapley) {
                return print_sampled_shapley(out, &scenario, n);
            }
            let shares = scheme.shares(&scenario)?;
            // Enumeration-free schemes at large n: V(N) comes from one
            // wide-game evaluation instead of the 2^n table.
            let grand = if sampled {
                scenario.value_of_members(&(0..n).collect::<Vec<_>>())
            } else {
                scenario.grand_value()?
            };
            writeln!(out, "scheme: {} — V(N) = {grand:.2}", scheme.name())?;
            writeln!(out, "{:>10} {:>10} {:>14}", "facility", "share", "payoff")?;
            for (i, s) in shares.iter().enumerate() {
                writeln!(out, "{:>10} {:>10.4} {:>14.2}", i + 1, s, s * grand)?;
            }
        }
        // "report": parse() admits no other command.
        _ => write!(out, "{}", try_policy_report(&scenario)?.render())?,
    }
    Ok(())
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args)?;
    let obs = CliObservability::install(opts.trace.as_deref(), opts.metrics)?;

    let outcome = execute(&opts, out);

    // Finish observability (completing the trace file) before the
    // `--metrics` run report, which follows the command output.
    let report = obs.finish().map_or(Ok(()), |report| write!(out, "{report}"));
    outcome?;
    report?;
    Ok(out.flush()?)
}

fn main() -> ExitCode {
    match run(&mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if is_broken_pipe(e.as_ref()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval::ApproxMethod;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_reproduce_worked_example() {
        let opts = parse(&args(&["shares"])).unwrap();
        let scenario = build_scenario(&opts);
        assert_eq!(scenario.grand_value(), Ok(1300.0));
        assert!((scenario.shapley_shares().expect("n = 3")[1] - 2.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn parses_all_flags() {
        let opts = parse(&args(&[
            "report",
            "--locations",
            "10,20,30",
            "--capacities",
            "2,2,2",
            "--threshold",
            "25",
            "--shape",
            "0.8",
            "--volume",
            "fill",
            "--scheme",
            "nucleolus",
        ]))
        .unwrap();
        assert_eq!(opts.spec.locations, vec![10, 20, 30]);
        assert_eq!(opts.spec.capacities, vec![2, 2, 2]);
        assert_eq!(opts.spec.threshold, 25.0);
        assert_eq!(opts.spec.shape, 0.8);
        assert_eq!(opts.spec.volume, None);
        assert!(scheme_from_name(&opts.scheme).is_ok());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["shares", "--locations"])).is_err());
        assert!(parse(&args(&["shares", "--locations", "1,x"])).is_err());
        assert!(parse(&args(&["shares", "--capacities", "1,2"])).is_err());
        assert!(parse(&args(&["shares", "--capacities", "0,1,1"])).is_err());
        for bad in ["-5", "nan", "inf"] {
            assert!(parse(&args(&["shares", "--threshold", bad])).is_err());
        }
        for bad in ["nan", "-1", "0", "inf"] {
            assert!(parse(&args(&["shares", "--shape", bad])).is_err());
        }
        assert!(scheme_from_name("venetian").is_err());
        assert!(parse(&args(&[])).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let opts = parse(&args(&[
            "report", "--metrics", "--trace", "out.jsonl", "--threshold", "250",
        ]))
        .unwrap();
        assert!(opts.metrics);
        assert_eq!(opts.trace.as_deref(), Some("out.jsonl"));
        assert_eq!(opts.spec.threshold, 250.0);
        // --metrics takes no value; --trace requires one.
        let bare = parse(&args(&["values", "--metrics"])).unwrap();
        assert!(bare.metrics && bare.trace.is_none());
        assert!(parse(&args(&["values", "--trace"])).is_err());
    }

    #[test]
    fn capacity_default_matches_facility_count() {
        let opts = parse(&args(&["values", "--locations", "5,6,7,8"])).unwrap();
        assert_eq!(opts.spec.capacities, vec![1; 4]);
    }

    #[test]
    fn parses_threads_flag() {
        assert_eq!(parse(&args(&["shares"])).unwrap().threads, default_threads());
        assert!(default_threads() >= 1);
        let opts = parse(&args(&["shares", "--threads", "4"])).unwrap();
        assert_eq!(opts.threads, 4);
        assert!(parse(&args(&["shares", "--threads", "0"])).is_err());
        assert!(parse(&args(&["shares", "--threads", "x"])).is_err());
        assert!(parse(&args(&["shares", "--threads"])).is_err());
    }

    #[test]
    fn parses_approx_and_synthetic_flags() {
        let opts = parse(&args(&[
            "shares",
            "--approx",
            "--approx-samples",
            "64",
            "--approx-seed",
            "5",
            "--approx-method",
            "stratified",
            "--confidence",
            "0.9",
        ]))
        .unwrap();
        assert!(opts.approx.force);
        assert_eq!(opts.approx.samples, 64);
        assert_eq!(opts.approx.seed, 5);
        assert_eq!(opts.approx.method, ApproxMethod::Stratified);
        assert!((opts.approx.confidence - 0.9).abs() < 1e-12);
        assert!(parse(&args(&["shares", "--approx-samples", "0"])).is_err());
        assert!(parse(&args(&["shares", "--confidence", "1"])).is_err());
        assert!(parse(&args(&["shares", "--approx-method", "x"])).is_err());

        let syn = parse(&args(&["report", "--synthetic", "40:7"])).unwrap();
        assert_eq!(syn.spec.locations.len(), 40);
        assert_eq!(syn.spec.capacities.len(), 40);
        let again = parse(&args(&["report", "--synthetic", "40:7"])).unwrap();
        assert_eq!(syn.spec.locations, again.spec.locations);
        assert!(parse(&args(&["report", "--synthetic", "0"])).is_err());
        assert!(parse(&args(&["report", "--synthetic", "1000"])).is_err());
        // The old 12-facility wall is gone.
        let many: Vec<&str> = vec!["4"; 40];
        assert!(parse(&args(&["shares", "--locations", &many.join(",")])).is_ok());
    }

    #[test]
    fn epsilon_plans_the_sampling_budget() {
        // ε = 0.1 at the default 95% confidence: ⌈ln(40)/0.02⌉ = 185.
        let opts = parse(&args(&["shares", "--epsilon", "0.1"])).unwrap();
        assert_eq!(opts.approx.samples, hoeffding_samples(1.0, 0.1, 0.05));
        assert_eq!(opts.approx.samples, 185);

        // Tighter confidence raises the planned budget; flag order on
        // the command line must not matter.
        let tight = parse(&args(&["shares", "--confidence", "0.99", "--epsilon", "0.1"])).unwrap();
        let tight_rev =
            parse(&args(&["shares", "--epsilon", "0.1", "--confidence", "0.99"])).unwrap();
        assert_eq!(tight.approx.samples, tight_rev.approx.samples);
        assert!(tight.approx.samples > opts.approx.samples);

        // An explicit --approx-samples is the expert override and wins
        // over --epsilon regardless of position.
        let explicit = parse(&args(&[
            "shares",
            "--epsilon",
            "0.1",
            "--approx-samples",
            "64",
        ]))
        .unwrap();
        assert_eq!(explicit.approx.samples, 64);
        let explicit_rev = parse(&args(&[
            "shares",
            "--approx-samples",
            "64",
            "--epsilon",
            "0.1",
        ]))
        .unwrap();
        assert_eq!(explicit_rev.approx.samples, 64);

        assert!(parse(&args(&["shares", "--epsilon", "0"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "-0.5"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "inf"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon", "x"])).is_err());
        assert!(parse(&args(&["shares", "--epsilon"])).is_err());
    }

    #[test]
    fn sampled_shares_and_report_run_on_large_federations() {
        let mut opts = parse(&args(&["shares", "--synthetic", "40:7"])).unwrap();
        opts.approx.samples = 32;
        let scenario = build_scenario(&opts);
        assert!(print_sampled_shapley(&mut std::io::sink(), &scenario, 40).is_ok());
        let report = try_policy_report(&scenario).expect("degraded report");
        assert!(report.approx.is_some());
    }

    #[test]
    fn threads_do_not_change_cli_shares() {
        let sequential = build_scenario(&parse(&args(&["shares"])).unwrap());
        let parallel =
            build_scenario(&parse(&args(&["shares", "--threads", "4"])).unwrap());
        assert_eq!(sequential.shapley_shares(), parallel.shapley_shares());
    }
}
