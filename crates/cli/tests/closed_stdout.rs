//! A reader that goes away (`v2v drift ... | head -1`) must cost an error
//! line and a non-zero exit, never a panic with a backtrace.

use std::process::{Command, Stdio};

#[test]
fn writing_into_a_closed_pipe_is_an_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("v2v_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, text: &str| -> String {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let emb = file("emb.txt", "3 2\n0 1.0 0.0\n1 0.0 1.0\n2 -1.0 0.5\n");
    let edges = file("edges.txt", "0 1\n1 2\n2 0\n");
    let profile = file(
        "profile.json",
        "{\"v2v_profile\": 1, \"hz\": 100, \"wall_secs\": 1.0, \"samples\": {\"forward\": 3}}",
    );

    let cases: [&[&str]; 5] = [
        &["help"],
        &["drift", "--a", &emb, "--b", &emb, "--k", "1"],
        &["stats", "--input", &edges],
        &["quality", "--input", &edges, "--embedding", &emb, "--walks", "2", "--length", "5"],
        &["profile", "--input", &profile],
    ];
    for args in cases {
        // Close the read end before the child starts: its first write to
        // stdout fails with EPIPE.
        let (reader, writer) = std::io::pipe().expect("create pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_v2v"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("run v2v");

        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} stderr:\n{err}");
        assert!(err.contains("cannot write to stdout"), "{args:?} stderr:\n{err}");
        assert!(!err.contains("panicked"), "{args:?} stderr:\n{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
