//! The `licomkpp run --restart-dir` round trip through the real binary:
//! a second run resumes from the first run's checkpoint, and a damaged
//! checkpoint is rejected by its CRC so the run starts fresh instead.

use std::path::Path;
use std::process::Command;

use licomkpp::model::checkpoint::slot_file_name;

fn run(dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_licomkpp"))
        .args(["run", "--scale", "8", "--nz", "6", "--days", "0.1"])
        .args(["--backend", "serial", "--restart-dir"])
        .arg(dir)
        .output()
        .expect("failed to launch licomkpp");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "licomkpp run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The step number of the "resumed from … at step N" line, if any.
fn resumed_step(stdout: &str) -> Option<u64> {
    stdout
        .lines()
        .find(|l| l.starts_with("resumed from "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
}

#[test]
fn restart_dir_resumes_and_a_corrupt_slot_starts_fresh() {
    let dir = std::env::temp_dir().join(format!("licomkpp_cli_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first = run(&dir);
    assert!(first.contains("starting fresh"), "{first}");

    let second = run(&dir);
    let step = resumed_step(&second).unwrap_or_else(|| panic!("no resume line:\n{second}"));
    assert!(step > 0, "resumed at step {step}");

    // Flip one payload bit: the field CRC no longer verifies.
    let slot = dir.join(slot_file_name(0, 0));
    let mut bytes = std::fs::read(&slot).unwrap();
    let n = bytes.len();
    bytes[n - 5] ^= 0x10;
    std::fs::write(&slot, bytes).unwrap();

    let third = run(&dir);
    assert_eq!(resumed_step(&third), None, "{third}");
    assert!(third.contains("starting fresh"), "{third}");
    let _ = std::fs::remove_dir_all(&dir);
}
