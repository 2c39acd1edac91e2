//! The binary's behaviour when its standard output cannot take the
//! output: a reader that went away is a clean exit, any other write
//! failure is a one-line error.

use std::process::{Command, Output, Stdio};

fn lukewarm(args: &[&str], stdout: impl Into<Stdio>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lukewarm"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("lukewarm starts")
}

#[test]
fn closed_pipe_exits_zero_and_silent() {
    for args in [&["help"][..], &["list"]] {
        // The read end is gone before the child starts, so its first
        // write fails with EPIPE however the two processes are scheduled.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = lukewarm(args, writer);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn failed_write_is_a_one_line_error() {
    // Every write to /dev/full fails with ENOSPC.
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let out = lukewarm(&["help"], full);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code();
    assert!(
        code.is_some_and(|c| c != 0 && c != 101),
        "{code:?}: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
}
