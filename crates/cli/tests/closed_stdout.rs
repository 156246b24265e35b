//! A reader that closes `pta`'s stdout early (`pta … | head -1`) ends
//! the process quietly: status 0 and nothing on stderr.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// `livc.c` prints well over a pipe buffer of output, so `pta` is still
/// writing when the reader goes away.
const LIVC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../benchsuite/programs/livc.c");

/// Runs `pta args`, reads its first line, closes the pipe, and checks
/// the exit.
fn read_one_line_then_close(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pta"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pta");
    let mut line = String::new();
    {
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        out.read_line(&mut line).expect("read the first line");
    } // the read end closes here
    let done = child.wait_with_output().expect("wait for pta");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(
        !stderr.contains("panicked"),
        "pta {args:?} panicked:\n{stderr}"
    );
    assert!(stderr.is_empty(), "pta {args:?} wrote to stderr:\n{stderr}");
    assert_eq!(done.status.code(), Some(0), "pta {args:?}: {}", done.status);
    line
}

#[test]
fn closed_stdout_ends_the_default_driver_quietly() {
    let first = read_one_line_then_close(&["--simple", "--points-to", LIVC]);
    assert_eq!(first, "== SIMPLE form ==\n");
}

#[test]
fn closed_stdout_ends_trace_quietly() {
    let first = read_one_line_then_close(&["trace", LIVC]);
    assert!(first.starts_with("{\"ev\":\"analysis_start\""), "{first}");
}
