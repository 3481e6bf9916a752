//! Stamps the binary with the compiler version and the source revision,
//! so every result line says what produced it.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Checkouts exported without git metadata have no revision to report.
    let rev = first_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    // Re-stamp when the checked-out commit moves.
    if let Ok(head) = std::fs::read_to_string("../.git/HEAD") {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        if let Some(reference) = head.trim().strip_prefix("ref: ") {
            println!("cargo:rerun-if-changed=../.git/{reference}");
        }
    }
}
