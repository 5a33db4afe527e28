//! End-to-end tests of the incremental CLI flows: `specan analyze
//! --incremental` resolves prepared sessions through its artifact store
//! (warm, or summary-seeded after an edit), and `specan scan --session-dir`
//! re-analyses only the programs whose structural fingerprints changed —
//! with output equal to a fresh run either way.

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

/// Zeroes the numeric value of every `"key": N` field named in `keys`.
/// `time_secs` is the only non-deterministic field of `analyze --json`
/// output; `iterations` is zeroed too where a summary-seeded solve
/// legitimately pops fewer worklist items than a cold one.
fn zero_fields(json: &str, keys: &[&str]) -> String {
    let mut out = json.to_string();
    for key in keys {
        let needle = format!("\"{key}\": ");
        let mut zeroed = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(at) = rest.find(&needle) {
            let value = at + needle.len();
            zeroed.push_str(&rest[..value]);
            zeroed.push('0');
            let tail = &rest[value..];
            let end = tail
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-')))
                .unwrap_or(tail.len());
            rest = &tail[end..];
        }
        zeroed.push_str(rest);
        out = zeroed;
    }
    out
}

fn strip_timing(json: &str) -> String {
    zero_fields(json, &["time_secs"])
}

static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

/// A scratch copy of some example programs; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    /// The three-program example bundle.
    fn new() -> Self {
        Self::with(&[
            "examples/programs/victim.spec",
            "examples/programs/ct_sbox.spec",
            "examples/programs/cold_lookup.spec",
        ])
    }

    fn with(files: &[&str]) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "specan-incremental-cli-{}-{}",
            std::process::id(),
            SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for file in files {
            let file = Path::new(file);
            std::fs::copy(file, dir.join(file.file_name().unwrap())).unwrap();
        }
        Self(dir)
    }

    /// Rewrites `file` in place with `from` replaced by `to`.
    fn edit(&self, file: &str, from: &str, to: &str) {
        let path = self.0.join(file);
        let source = std::fs::read_to_string(&path).unwrap();
        assert!(source.contains(from), "fixture changed?");
        std::fs::write(&path, source.replace(from, to)).unwrap();
    }

    /// Number and summed size of the `*.artifact` files under `dir`.
    fn artifact_bytes(&self, dir: &str) -> (usize, u64) {
        let mut count = 0;
        let mut bytes = 0;
        for entry in std::fs::read_dir(self.0.join(dir)).unwrap().flatten() {
            if entry.file_name().to_string_lossy().ends_with(".artifact") {
                count += 1;
                bytes += entry.metadata().unwrap().len();
            }
        }
        (count, bytes)
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
    ];
    let fresh = || {
        specan_in(
            &scratch.0,
            &["analyze", "victim.spec", "--cache-lines", "8", "--json"],
        )
    };

    // Cold: prepared and written to the default session directory.
    let first = specan_in(&scratch.0, &args);
    assert_eq!(first.status.code(), Some(0));
    assert!(stderr_of(&first).contains("session: prepared `victim.spec`"));

    // Warm: a new process loads the prepared session from the store, and
    // its output equals the cold run and a fresh session-free run after the
    // timing strip.
    let second = specan_in(&scratch.0, &args);
    assert_eq!(second.status.code(), Some(0));
    assert!(stderr_of(&second).contains("session: store `victim.spec`"));
    assert_eq!(
        strip_timing(&stdout_of(&second)),
        strip_timing(&stdout_of(&first))
    );
    assert_eq!(
        strip_timing(&stdout_of(&second)),
        strip_timing(&stdout_of(&fresh()))
    );

    // A prepared session is flag-independent: a flag change still loads
    // it, and renders what a fresh run under the new flags renders.
    let mut baseline_args = args.to_vec();
    baseline_args.push("--baseline");
    let other_flags = specan_in(&scratch.0, &baseline_args);
    assert!(stderr_of(&other_flags).contains("session: store `victim.spec`"));
    let fresh_baseline = specan_in(
        &scratch.0,
        &[
            "analyze",
            "victim.spec",
            "--cache-lines",
            "8",
            "--json",
            "--baseline",
        ],
    );
    assert_eq!(
        strip_timing(&stdout_of(&other_flags)),
        strip_timing(&stdout_of(&fresh_baseline))
    );

    // Edit the file in place: re-prepared, and equal to fresh post-strip
    // (iterations included: the edit may seed the solve from the donor).
    scratch.edit(
        "victim.spec",
        "load sbox[0]",
        "load sbox[0]\n  load sbox[64]",
    );
    let edited = specan_in(&scratch.0, &args);
    assert!(stderr_of(&edited).contains("session: prepared `victim.spec`"));
    let solver_free = |out: &Output| zero_fields(&stdout_of(out), &["time_secs", "iterations"]);
    assert_eq!(solver_free(&edited), solver_free(&fresh()));
    assert_ne!(
        solver_free(&edited),
        solver_free(&first),
        "the edit must change the analysis output"
    );

    // What the session directory holds is a valid artifact store.
    let verify = specan_in(
        &scratch.0,
        &["artifacts", "verify", "--artifact-dir", ".specan-session"],
    );
    assert_eq!(verify.status.code(), Some(0), "{}", stdout_of(&verify));
}

#[test]
fn analyze_incremental_edit_seeds_summaries_from_the_store() {
    // A one-block edit at the tail of the pipeline, re-analysed by a
    // separate process: the donor summaries travel through the artifact
    // store's name index, not process memory.
    let scratch = Scratch::with(&["examples/compositional/pipeline.spec"]);
    let args = [
        "analyze",
        "pipeline.spec",
        "--cache-lines",
        "16",
        "--json",
        "--incremental",
        "--session-dir",
        "session",
    ];
    let cold = specan_in(&scratch.0, &args);
    assert_eq!(cold.status.code(), Some(0), "{}", stderr_of(&cold));
    assert!(stderr_of(&cold).contains("session: prepared `pipeline.spec`"));

    scratch.edit("pipeline.spec", "load table_c[256]", "load table_c[512]");
    let edited = specan_in(&scratch.0, &args);
    assert_eq!(edited.status.code(), Some(0), "{}", stderr_of(&edited));
    let log = stderr_of(&edited);
    let hits: u64 = log
        .split("session: summaries ")
        .nth(1)
        .and_then(|rest| rest.split('h').next())
        .and_then(|count| count.parse().ok())
        .unwrap_or_else(|| panic!("no summary accounting line: {log}"));
    assert!(hits > 0, "the edit must reuse donor summaries: {log}");

    // The summary-seeded report equals a fresh one.  It differs from the
    // cold report: this edit keeps every verdict (`table_c[512]` misses
    // like `table_c[256]`), so the difference is the seeded solve's
    // smaller, deterministic iteration count.
    let fresh = specan_in(
        &scratch.0,
        &["analyze", "pipeline.spec", "--cache-lines", "16", "--json"],
    );
    let solver_free = |out: &Output| zero_fields(&stdout_of(out), &["time_secs", "iterations"]);
    assert_eq!(solver_free(&edited), solver_free(&fresh));
    assert_ne!(
        strip_timing(&stdout_of(&edited)),
        strip_timing(&stdout_of(&cold)),
        "the edit must change the analysis report"
    );
}

#[test]
fn analyze_store_stays_within_max_session_bytes() {
    let scratch = Scratch::new();
    const BUDGET: u64 = 16_000;
    let run = |dir: &str, budget: Option<u64>| {
        let budget = budget.map(|bytes| bytes.to_string());
        let mut args = vec![
            "analyze",
            "victim.spec",
            "--cache-lines",
            "8",
            "--json",
            "--incremental",
            "--session-dir",
            dir,
        ];
        if let Some(bytes) = &budget {
            args.extend(["--max-session-bytes", bytes.as_str()]);
        }
        let out = specan_in(&scratch.0, &args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        out
    };
    let mut previous = "load sbox[0]".to_string();
    for offset in [64, 128, 192] {
        let bounded = run("bounded", Some(BUDGET));
        run("unbounded", None);
        let (count, bytes) = scratch.artifact_bytes("bounded");
        assert!(
            bytes <= BUDGET,
            "{bytes} stored bytes exceed the {BUDGET}-byte budget"
        );
        assert!(count >= 1, "the latest artifact fits and is kept");
        let fresh = specan_in(
            &scratch.0,
            &["analyze", "victim.spec", "--cache-lines", "8", "--json"],
        );
        assert_eq!(
            zero_fields(&stdout_of(&bounded), &["time_secs", "iterations"]),
            zero_fields(&stdout_of(&fresh), &["time_secs", "iterations"])
        );
        let next = format!("load sbox[{offset}]");
        scratch.edit("victim.spec", &previous, &next);
        previous = next;
    }
    let (_, unbounded) = scratch.artifact_bytes("unbounded");
    assert!(
        unbounded > BUDGET,
        "without the budget the same edits store {unbounded} bytes"
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
fn scan_session_file_is_the_scan_report() {
    let scratch = Scratch::new();
    let scan = specan_in(
        &scratch.0,
        &["scan", ".", "--json", "--session-dir", "session"],
    );
    assert_eq!(scan.status.code(), Some(1), "cold_lookup leaks: exit 1");
    let stored = std::fs::read_to_string(scratch.0.join("session/scan-session.json")).unwrap();
    assert_eq!(
        stored,
        stdout_of(&scan),
        "the session file is the --json report"
    );

    // ...so it is a whole-bundle artifact `merge` verifies and reproduces.
    let merged = specan_in(
        &scratch.0,
        &["merge", "session/scan-session.json", "--json"],
    );
    assert_eq!(merged.status.code(), Some(1), "{}", stderr_of(&merged));
    assert_eq!(stdout_of(&merged), stdout_of(&scan));
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
    // ...--session-dir is an alias of --artifact-dir on analyze, so both
    // at once is ambiguous...
    let out = specan_in(
        &scratch.0,
        &[
            "analyze",
            "victim.spec",
            "--incremental",
            "--session-dir",
            "a",
            "--artifact-dir",
            "b",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    // ...and neither flag applies to leaks.
    let out = specan_in(&scratch.0, &["leaks", "victim.spec", "--session-dir", "s"]);
    assert_eq!(out.status.code(), Some(2));
}
