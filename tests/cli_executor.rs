//! `--executor` parsing at the `experiments` binary: the removed `auto`
//! is rejected loudly (exit 2, the list of valid values), so a stale
//! script fails instead of silently running something else.

use std::process::Command;

#[test]
fn executor_auto_is_rejected_with_the_valid_choices() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--experiment", "e6", "--sizes", "8", "--executor", "auto"])
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: bad --executor `auto` (expected `replay`, `stepping` or `decide`)"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {}", String::from_utf8_lossy(&out.stdout));
}
