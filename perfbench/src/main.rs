//! The fedval benchmark: one command, four workloads, end-to-end metrics
//! untraced and per-layer metrics traced, every layer measured from
//! outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs the four workloads one after another, each in a
//! process of its own. `--reference` prints the fingerprint the
//! correctness gate expects (a `reference.tsv` line for synthetic-n200,
//! `stability::FINGERPRINT` for stability-n7) instead of measuring.
//! See `README.md` for the workloads and the metrics.

mod cal;
mod gate;
mod out;
mod paper;
mod probe;
mod serve;
mod stability;
mod stats;
mod synthetic;
mod timed;

use out::Outcome;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["paper-sweep", synthetic::NAME, stability::NAME, serve::NAME];

/// Tracing off (end-to-end metrics) or on (per-layer metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Untraced,
    Traced,
}

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub phase: Phase,
    pub reference: bool,
}

const USAGE: &str =
    "usage: fedval-perfbench --workload <paper-sweep|synthetic-n200|stability-n7|serve-mixed|all> \
--seed N --seconds S --trace <0|1> [--reference]";

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        phase: Phase::Untraced,
        reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            ctx.reference = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                ctx.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                ctx.phase = match value.as_str() {
                    "0" => Phase::Untraced,
                    "1" => Phase::Traced,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if ctx.workload != "all" && !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("unknown workload '{}'\n{USAGE}", ctx.workload));
    }
    Ok(ctx)
}

/// Host and build facts every result carries.
fn stamp(ctx: &Ctx) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "stamp: workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" git_rev={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds.as_secs_f64(),
        u8::from(ctx.phase == Phase::Traced),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
    )
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak RSS) and passes their output through.
fn run_all(ctx: &Ctx, args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut common: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            common.push(a);
        }
    }
    let mut all_correct = true;
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(&common)
            .args(["--workload", workload])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let text = String::from_utf8_lossy(&output.stdout);
        for line in text.lines() {
            println!("[{workload}] {line}");
        }
        let last = text.lines().last().unwrap_or("");
        all_correct &= output.status.success() && last.starts_with("{\"correct\": true");
    }
    println!("all workloads correct: {all_correct} (seed {})", ctx.seed);
    Ok(all_correct)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = parse(&args)?;
    if ctx.workload == "all" {
        return run_all(&ctx, &args);
    }
    if ctx.reference {
        let fp = match ctx.workload.as_str() {
            synthetic::NAME => synthetic::reference_fingerprint(ctx.seed)?,
            stability::NAME => stability::reference_fingerprint()?,
            other => return Err(format!("{other} has no reference fingerprint")),
        };
        println!("{}\t{}\t{fp:016x}", ctx.workload, ctx.seed);
        return Ok(true);
    }
    let mut outcome = Outcome::default();
    outcome.line(stamp(&ctx));
    match ctx.workload.as_str() {
        "paper-sweep" => paper::run(&ctx, &mut outcome),
        synthetic::NAME => synthetic::run(&ctx, &mut outcome),
        stability::NAME => stability::run(&ctx, &mut outcome),
        _ => serve::run(&ctx, &mut outcome),
    }
    if ctx.phase == Phase::Untraced {
        let rss = out::peak_rss_mb();
        outcome.set("peak_rss_mb", rss);
        outcome.line(format!("e2e peak_rss_mb = {rss:.2} MB"));
        let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.line(format!(
            "e2e failed_ratio = {ratio} ({} of {} checked operations)",
            outcome.failed, outcome.attempted
        ));
    }
    let text = outcome.render(ctx.phase == Phase::Traced);
    println!("{text}");
    Ok(text
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": true")))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn seeded_inputs_repeat_per_seed_and_change_across_seeds() {
        // The generator behind every synthetic federation.
        let federation = |seed| fedval_testbed::synthetic_profile(200, seed);
        assert_eq!(federation(4), federation(4));
        assert_ne!(federation(4), federation(5));
        // synthetic-n200: the churn schedule and the sampler's seed.
        let n200 = |seed| {
            let inputs = crate::synthetic::setup(seed);
            (
                inputs.schedule.events().to_vec(),
                inputs.scenario.approx_config().seed,
            )
        };
        assert_eq!(n200(4), n200(4));
        assert_ne!(n200(4).0, n200(5).0);
        assert_ne!(n200(4).1, n200(5).1);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ctx = super::parse(&args(
            "--workload serve-mixed --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ctx.seed, ctx.seconds.as_secs_f64(), ctx.phase),
            (9, 2.5, super::Phase::Traced)
        );
        assert!(super::parse(&args("--workload nope --seed 1")).is_err());
        assert!(super::parse(&args("--workload all --trace 2")).is_err());
        assert!(super::parse(&args("--workload all --seconds 0")).is_err());
    }
}
