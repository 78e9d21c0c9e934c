//! Guard for the benchmark's API: `pibench/` is a package of its own, not
//! a workspace member, so nothing above compiles it. It calls `pi-exec`,
//! `pi-tpch`, `patchindex` and the other crates through their public
//! items; a signature change that breaks it must fail `cargo test`, not
//! only the CI `pibench-compat` job. This test reads `pibench/`, it never
//! edits it.

use std::process::Command;

#[test]
fn pibench_still_compiles_against_the_workspace_crates() {
    // CARGO points at the exact cargo running this test; the manifest dir
    // of pi-integration is <workspace>/tests. The check gets a target
    // directory of its own so it neither waits on nor invalidates the
    // build this test runs from.
    let cargo = env!("CARGO");
    let workspace_root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let output = Command::new(cargo)
        .args(["check", "--quiet", "--offline", "--locked"])
        .args(["--manifest-path", "pibench/Cargo.toml"])
        .args(["--target-dir", "target/pibench-compat"])
        .current_dir(workspace_root)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo check for pibench: {e}"));
    assert!(
        output.status.success(),
        "pibench no longer compiles against the workspace crates ({:?})\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
}
