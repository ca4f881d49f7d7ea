//! `licomkpp run` on a 2-rank world: every rank builds its own execution
//! space (on SwAthread its own core group), and the diagnostics printed
//! at the end match the Serial reference line for line.

use std::process::Command;

fn diagnostics(backend: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_licomkpp"))
        .args(["run", "--scale", "10", "--nz", "6", "--days", "0.1"])
        .args(["--ranks", "2", "--backend", backend])
        .output()
        .expect("failed to launch licomkpp");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "licomkpp run --backend {backend} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find(|l| l.starts_with("mean SST "))
        .unwrap_or_else(|| panic!("no diagnostics line:\n{stdout}"))
        .to_string()
}

#[test]
fn swathread_two_ranks_prints_the_serial_diagnostics() {
    let serial = diagnostics("serial");
    assert_eq!(diagnostics("swathread"), serial);
    assert_eq!(diagnostics("threads"), serial);
}
