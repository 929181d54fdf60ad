//! The `simstudy` binary's exit code: 0 when every claim reproduces, 1
//! when one does not, 2 on a usage error.

use std::process::Command;

fn simstudy(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_simstudy"))
        .args(args)
        .output()
        .expect("run simstudy");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into(),
    )
}

#[test]
fn a_claim_that_fails_exits_one() {
    // Too narrow an alpha interval for Table 1's claims at this scale.
    let (code, out) = simstudy(&["table1", "--hi", "0.05", "--trials", "50", "--max-log", "9"]);
    assert!(out.contains("claims[table1]: 1 violation(s)"), "{out}");
    assert_eq!(code, Some(1));
}

#[test]
fn reproduced_claims_exit_zero_and_usage_errors_exit_two() {
    let (code, out) = simstudy(&["tightness"]);
    assert!(out.contains("claims[tightness]: all reproduced"), "{out}");
    assert_eq!(code, Some(0));
    assert_eq!(simstudy(&["table1", "--trials", "0"]).0, Some(2));
    assert_eq!(simstudy(&["bogus"]).0, Some(2));
}
