//! Runs the built binary's `smoke`: every workload at 1/100 size through
//! both the end-to-end run and the traced ladder, with the emitted
//! metric names, units and values and the workload table checked against
//! the repository's `BENCHMARK.json`. Slow without `--release`.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_passes_and_names_match_benchmark_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench/ sits in the repository root");
    let status = Command::new(env!("CARGO_BIN_EXE_stackbench"))
        .arg("smoke")
        .current_dir(root)
        .status()
        .expect("run stackbench smoke");
    assert!(status.success(), "stackbench smoke: {status}");
}
