//! Host-speed calibration.
//!
//! On a shared host the CPU's speed drifts: on the 2-vCPU machine this
//! benchmark was built on, one fixed computation ran up to 1.4× slower,
//! switching within seconds and drifting over minutes. Such a drift
//! moves every raw timing alike, so end-to-end times of short work are
//! reported scaled to a reference speed: each raw time is multiplied by
//! `NOMINAL_NS / c`, where `c` is the time a fixed computation owned by
//! the benchmark took right before and after it. The raw times are
//! printed alongside. The calibration calls no fedval code, so a change
//! to the program cannot move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The calibration's time at the reference speed, ns. Scaled times are
/// the times the work would have taken on a host where the calibration
/// takes this long.
pub const NOMINAL_NS: f64 = 1e7;

/// One run of the fixed computation (sorting, hashing and floating-point
/// work on a few hundred KB), in ns.
fn calibration_ns() -> f64 {
    let start = Instant::now();
    let mut keys: Vec<u64> = (0..20_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    for round in 0..12u64 {
        keys.sort_unstable_by_key(|k| k.rotate_left(round as u32) ^ round);
        black_box(&keys);
    }
    let mut acc = 0.0f64;
    for i in 0..150_000u32 {
        acc += f64::from(i).sqrt().sin();
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64
}

/// Median of `reps` calibrations.
fn calibrate(reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1)).map(|_| calibration_ns()).collect();
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// Runs `f` between two calibrations of `reps` runs each. Returns its
/// result, its raw wall time and the factor that scales it to the
/// reference speed.
pub fn scaled<T>(reps: usize, f: impl FnOnce() -> T) -> (T, Duration, f64) {
    let before = calibrate(reps);
    let start = Instant::now();
    let value = f();
    let wall = start.elapsed();
    let after = calibrate(reps);
    (value, wall, 2.0 * NOMINAL_NS / (before + after))
}

/// Set-ups timed between one pair of calibrations.
const SETUP_ROUND: usize = 5;

/// Times at least `reps` runs of a set-up, five at a time between
/// calibrations, so each is scaled by the host's speed within a few
/// milliseconds of it. Returns the raw median and the scaled median,
/// both in seconds.
pub fn setup_s(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let (mut raw, mut scaled_s) = (Vec::new(), Vec::new());
    while raw.len() < reps {
        let (times, _, factor) = scaled(1, || {
            (0..SETUP_ROUND)
                .map(|_| {
                    let start = Instant::now();
                    f();
                    start.elapsed().as_secs_f64()
                })
                .collect::<Vec<f64>>()
        });
        scaled_s.extend(times.iter().map(|t| t * factor));
        raw.extend(times);
    }
    (crate::stats::median(&raw), crate::stats::median(&scaled_s))
}
