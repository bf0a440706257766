//! Command-line surface of the `experiments` binary: `-h`/`--help` print
//! the usage and succeed; any other unrecognised `--flag` prints the same
//! usage and exits 2 instead of being mistaken for an experiment name.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!(
        "nadino-cli-{}-{}",
        std::process::id(),
        args.join("_").replace('-', "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("experiments binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["-h", "--help"] {
        let out = run(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag} exit status");
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        assert!(stdout.contains("experiments --jobs N"), "{flag}: {stdout}");
        assert!(stdout.contains("experiments report"), "{flag}: {stdout}");
    }
}

#[test]
fn unknown_flag_prints_usage_and_exits_two() {
    let out = run(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("--no-such-flag"), "{stderr}");
    assert!(stderr.contains("experiments --jobs N"), "{stderr}");
    assert!(!stderr.contains("unknown experiment"), "{stderr}");
}
