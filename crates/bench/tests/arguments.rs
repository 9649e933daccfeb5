//! `experiments` refuses an argument it does not understand before it
//! runs anything or touches `--out`.

use std::path::PathBuf;
use std::process::Command;

/// Runs `experiments --out DIR args…` and returns its stderr after
/// checking that it failed with one `error:` line and left DIR alone.
fn refused(tag: &str, args: &[&str]) -> String {
    let out: PathBuf =
        std::env::temp_dir().join(format!("experiments_{tag}_{}", std::process::id()));
    let o = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--out")
        .arg(&out)
        .args(args)
        .output()
        .expect("experiments runs");
    let err = String::from_utf8_lossy(&o.stderr).into_owned();
    assert_eq!(o.status.code(), Some(1), "{args:?}: {err}");
    assert!(
        err.starts_with("error: ") && err.lines().count() == 1,
        "{args:?}: {err}"
    );
    assert!(o.stdout.is_empty(), "{args:?}");
    assert!(!out.exists(), "{args:?} created {}", out.display());
    err
}

#[test]
fn unknown_experiment_is_an_error() {
    let err = refused("name", &["fig10", "figX"]);
    assert!(err.contains("unknown experiment `figX`"), "{err}");
}

#[test]
fn step_must_be_a_positive_integer() {
    for step in ["abc", "0", "-1"] {
        let err = refused("step", &["--quick", "--step", step, "fig10"]);
        assert!(err.contains("--step must be a positive integer"), "{err}");
    }
    let err = refused("step", &["fig10", "--step"]);
    assert!(
        err.contains("--step must be a positive integer, got ``"),
        "{err}"
    );
}
