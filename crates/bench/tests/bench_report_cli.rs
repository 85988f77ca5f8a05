//! `bench_report` checks its output path before it measures anything.

use std::process::Command;

#[test]
fn a_missing_output_directory_fails_before_measuring() {
    let dir = std::env::temp_dir().join(format!("bench_report_missing_{}", std::process::id()));
    assert!(!dir.exists(), "{} must not exist", dir.display());
    let path = dir.join("BENCH_norm.json");

    let output = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .arg(&path)
        .output()
        .expect("bench_report starts");

    assert!(!output.status.success(), "a bad output path must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&*path.to_string_lossy()),
        "the error should name {}, got: {stderr}",
        path.display()
    );
    assert!(
        output.stdout.is_empty(),
        "no report may be printed, got: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}
