//! A reader that goes away (`v2v drift ... | head -1`) must cost an error
//! line and a non-zero exit, never a panic with a backtrace.

use std::process::{Command, Stdio};

#[test]
fn drift_into_a_closed_pipe_is_an_error_not_a_panic() {
    let emb = std::env::temp_dir().join(format!("v2v_closed_stdout_{}.txt", std::process::id()));
    std::fs::write(&emb, "3 2\n0 1.0 0.0\n1 0.0 1.0\n2 -1.0 0.5\n").unwrap();

    // Close the read end before the child starts: its first write to
    // stdout fails with EPIPE.
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_v2v"))
        .args(["drift", "--a", emb.to_str().unwrap(), "--b", emb.to_str().unwrap(), "--k", "1"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run v2v drift");

    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{err}");
    assert!(err.contains("cannot write to stdout"), "stderr:\n{err}");
    assert!(!err.contains("panicked"), "stderr:\n{err}");
}
