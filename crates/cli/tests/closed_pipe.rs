//! A reader that closes `wsyn`'s stdout early (`wsyn families | head -1`)
//! gets a quiet exit 0 from every command, never a broken-pipe panic.

#![cfg(unix)]

use std::path::Path;
use std::process::{Command, Stdio};

/// The write end of a pipe whose read end is already closed: the read
/// end belonged to `true`, which has exited.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn `true`");
    let write_end = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("`true` exits");
    Stdio::from(write_end)
}

/// Runs `wsyn` with `args` and its stdout on a closed pipe; asserts a
/// clean exit.
fn run_closed(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_wsyn"))
        .args(args)
        .stdout(closed_pipe())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn wsyn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
}

#[test]
fn every_command_exits_zero_on_a_closed_stdout() {
    let dir = std::env::temp_dir().join(format!("wsyn-closed-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (data, syn) = (path("data.txt"), path("syn.json"));

    run_closed(&["families"]);
    run_closed(&["help"]);
    run_closed(&[
        "generate", "--kind", "zipf", "--n", "64", "--seed", "3", "--out", &data,
    ]);
    run_closed(&["transform", "--input", &data]);
    run_closed(&[
        "build", "--input", &data, "--budget", "8", "--metric", "abs", "--out", &syn,
    ]);
    // The command still finishes its work after its reader has gone.
    assert!(Path::new(&syn).exists());
    run_closed(&["eval", "--synopsis", &syn, "--input", &data]);
    run_closed(&["query", "--synopsis", &syn, "point", "5"]);
    run_closed(&["query", "--synopsis", &syn, "range", "0", "32"]);
    std::fs::remove_dir_all(&dir).unwrap();
}
