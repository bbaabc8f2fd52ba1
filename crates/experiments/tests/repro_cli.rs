//! The `repro` binary's command line: `--only` selection, CSV output and
//! exit statuses.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn only_runs_the_named_artifacts_in_report_order() {
    let dir = std::env::temp_dir().join(format!("sda-repro-only-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Tables 1 and 2 run no simulation.
    let out = repro(&[
        "--scale",
        "quick",
        "--only",
        "table2,table1",
        "--out",
        dir.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let table1 = text.find("## Table 1:").expect("table1 printed");
    let table2 = text.find("## Table 2:").expect("table2 printed");
    assert!(table1 < table2, "report order, not argument order:\n{text}");

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("--out directory exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, ["table1.csv", "table2.csv"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    for (argv, needle) in [
        (&["--only", "fig8"][..], "a10_burstiness"),
        (&["--scale", "galactic"][..], "galactic"),
        (&["--scael", "paper"][..], "--scael"),
    ] {
        let out = repro(argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{argv:?}: {err}");
    }
}
