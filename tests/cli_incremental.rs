//! End-to-end tests of the incremental CLI flows: `specan analyze
//! --incremental` replays byte-identical output for unchanged programs, and
//! `specan scan --session-dir` re-analyses only the programs whose
//! structural fingerprints changed — with a merged report byte-identical to
//! a fresh scan either way.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn specan_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specan"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("specan runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

/// Zeroes the timing fields of `analyze --json` output — the only
/// non-deterministic bytes — mirroring what the CI gate's `sed` does.
fn strip_timing(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for line in json.lines() {
        if let Some(at) = line.find("\"time_secs\": ") {
            out.push_str(&line[..at]);
            out.push_str("\"time_secs\": 0");
            out.push_str(line[at..].find('}').map_or("", |_| "}"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

/// A scratch copy of the example bundle; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "specan-incremental-cli-{}-{}",
            std::process::id(),
            SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["victim.spec", "ct_sbox.spec", "cold_lookup.spec"] {
            std::fs::copy(Path::new("examples/programs").join(name), dir.join(name)).unwrap();
        }
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn analyze_incremental_replays_and_tracks_edits() {
    let scratch = Scratch::new();
    let args = [
        "analyze",
        "victim.spec",
        "--cache-lines",
        "8",
        "--json",
        "--incremental",
        "--session-dir",
        "session",
    ];

    // Cold: analysed and stored.
    let first = specan_in(&scratch.0, &args);
    assert_eq!(first.status.code(), Some(0));
    assert!(stderr_of(&first).contains("session: analysed `victim.spec`"));

    // Warm: replayed byte-for-byte (timing included — it is the stored
    // rendering).
    let second = specan_in(&scratch.0, &args);
    assert_eq!(second.status.code(), Some(0));
    assert!(stderr_of(&second).contains("session: replayed `victim.spec`"));
    assert_eq!(stdout_of(&first), stdout_of(&second));

    // The replay equals a fresh session-free run after the timing strip.
    let fresh = specan_in(
        &scratch.0,
        &["analyze", "victim.spec", "--cache-lines", "8", "--json"],
    );
    assert_eq!(
        strip_timing(&stdout_of(&second)),
        strip_timing(&stdout_of(&fresh))
    );

    // A flag change must not replay the stored rendering.
    let other_flags = specan_in(
        &scratch.0,
        &[
            "analyze",
            "victim.spec",
            "--cache-lines",
            "8",
            "--json",
            "--baseline",
            "--incremental",
            "--session-dir",
            "session",
        ],
    );
    assert!(stderr_of(&other_flags).contains("session: analysed"));

    // Edit the file in place: re-analysed, and equal to fresh post-strip.
    let source = std::fs::read_to_string(scratch.0.join("victim.spec")).unwrap();
    std::fs::write(
        scratch.0.join("victim.spec"),
        source.replace("load sbox[0]", "load sbox[0]\n  load sbox[64]"),
    )
    .unwrap();
    let edited = specan_in(&scratch.0, &args);
    assert!(stderr_of(&edited).contains("session: analysed `victim.spec`"));
    let fresh = specan_in(
        &scratch.0,
        &["analyze", "victim.spec", "--cache-lines", "8", "--json"],
    );
    assert_eq!(
        strip_timing(&stdout_of(&edited)),
        strip_timing(&stdout_of(&fresh))
    );
    assert_ne!(
        stdout_of(&edited),
        stdout_of(&first),
        "the edit must change the analysis output"
    );
}

#[test]
fn scan_session_reuses_unchanged_programs_byte_identically() {
    let scratch = Scratch::new();
    let session_args = ["scan", ".", "--json", "--session-dir", "session"];
    let fresh_args = ["scan", ".", "--json"];

    let cold = specan_in(&scratch.0, &session_args);
    assert_eq!(cold.status.code(), Some(1), "cold_lookup leaks: exit 1");
    assert!(stderr_of(&cold).contains("session: 0 program(s) reused, 3 analysed"));

    let warm = specan_in(&scratch.0, &session_args);
    assert_eq!(warm.status.code(), Some(1));
    assert!(stderr_of(&warm).contains("session: 3 program(s) reused, 0 analysed"));

    let fresh = specan_in(&scratch.0, &fresh_args);
    assert_eq!(stdout_of(&cold), stdout_of(&fresh));
    assert_eq!(stdout_of(&warm), stdout_of(&fresh));

    // Renames are structurally invisible: only labels change, everything
    // replays, and the report still matches a fresh scan (whose output
    // never contains block or region labels).
    let source = std::fs::read_to_string(scratch.0.join("ct_sbox.spec")).unwrap();
    assert!(source.contains("block main entry:"), "fixture changed?");
    std::fs::write(
        scratch.0.join("ct_sbox.spec"),
        source
            .replace("block main entry:", "block main_renamed entry:")
            .replace("jump main", "jump main_renamed"),
    )
    .unwrap();
    let renamed = specan_in(&scratch.0, &session_args);
    assert!(stderr_of(&renamed).contains("session: 3 program(s) reused, 0 analysed"));
    assert_eq!(stdout_of(&renamed), stdout_of(&fresh));

    // A real edit re-analyses exactly the touched program.
    let source = std::fs::read_to_string(scratch.0.join("victim.spec")).unwrap();
    std::fs::write(
        scratch.0.join("victim.spec"),
        source.replace("load sbox[0]", "load sbox[0]\n  load sbox[64]"),
    )
    .unwrap();
    let edited = specan_in(&scratch.0, &session_args);
    assert!(stderr_of(&edited).contains("session: 2 program(s) reused, 1 analysed"));
    let fresh = specan_in(&scratch.0, &fresh_args);
    assert_eq!(stdout_of(&edited), stdout_of(&fresh));
}

#[test]
fn incremental_flag_validation() {
    let scratch = Scratch::new();
    // --session-dir without --incremental is a usage error on analyze...
    let out = specan_in(
        &scratch.0,
        &["analyze", "victim.spec", "--session-dir", "s"],
    );
    assert_eq!(out.status.code(), Some(2));
    // ...--incremental does not apply to scan (--session-dir alone does)...
    let out = specan_in(&scratch.0, &["scan", ".", "--incremental"]);
    assert_eq!(out.status.code(), Some(2));
    // ...and neither flag applies to leaks.
    let out = specan_in(&scratch.0, &["leaks", "victim.spec", "--session-dir", "s"]);
    assert_eq!(out.status.code(), Some(2));
}
