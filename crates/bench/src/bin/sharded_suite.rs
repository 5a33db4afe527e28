//! Sharded-vs-threaded panel execution: how should a multi-program panel
//! be parallelised?
//!
//! The session API fans one program's configurations out across threads;
//! the batch layer fans the *programs* out across threads.  This harness
//! times the same panel (N generated programs × the standard comparison
//! configurations) three ways — one thread, configurations across threads
//! per program, programs across threads — and checks that every strategy
//! produces the same deterministic report.
//!
//! Knobs (environment):
//!
//! * `SPEC_BENCH_CACHE_LINES`  — cache/workload scale (default 128);
//! * `SPEC_BENCH_SCAN_PROGRAMS` — bundle size (default 6);
//! * `SPEC_BENCH_SCAN_JOBS`   — programs at once (default: available
//!   parallelism).
//!
//! Pass `--json` to emit a machine-readable report (the CI bench-smoke job
//! uploads it as an artifact).

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use spec_bench::{bench_cache_lines, fmt_secs, print_table};
use spec_core::batch::{run_bundle, PanelKind, PanelSpec};
use spec_core::session::Analyzer;
use spec_core::BatchReport;
use spec_workloads::ete_suite;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(default)
}

/// Writes `count` uniquely named copies of the e2e workload programs into a
/// scratch directory and returns their paths in bundle order.  The textual
/// IR round-trips, so renaming is a header-line rewrite.
fn write_bundle(dir: &PathBuf, count: usize, cache_lines: u64) -> Vec<PathBuf> {
    let suite = ete_suite(cache_lines);
    std::fs::create_dir_all(dir).expect("scratch dir");
    let mut paths = Vec::with_capacity(count);
    for i in 0..count {
        let workload = &suite[i % suite.len()];
        let text = workload.program.to_string();
        let (header, body) = text.split_once('\n').expect("program header");
        let name = header.strip_prefix("program ").expect("program header");
        let renamed = format!("program scan{i:03}_{name}\n{body}");
        let path = dir.join(format!("scan{i:03}_{}.spec", workload.name()));
        std::fs::write(&path, renamed).expect("write program");
        paths.push(path);
    }
    paths
}

struct Mode {
    name: &'static str,
    wall: Duration,
    report: BatchReport,
}

fn timed(name: &'static str, run: impl FnOnce() -> BatchReport) -> Mode {
    let start = Instant::now();
    let report = run();
    Mode {
        name,
        wall: start.elapsed(),
        report,
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cache_lines = bench_cache_lines();
    let programs = env_usize("SPEC_BENCH_SCAN_PROGRAMS", 6);
    let jobs = env_usize(
        "SPEC_BENCH_SCAN_JOBS",
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    );
    let panel = PanelSpec {
        kind: PanelKind::Comparison,
        cache_lines: cache_lines as usize,
    };

    let dir = std::env::temp_dir().join(format!("spec-bench-sharded-{}", std::process::id()));
    let bundle = write_bundle(&dir, programs, cache_lines);

    let mut modes = Vec::new();

    // One process, one thread: the in-order reference everything else must
    // reproduce bit-for-bit.
    modes.push(timed("sequential", || {
        run_bundle(&bundle, panel, 1).expect("sequential run")
    }));

    // The session API's axis: per-program, configurations across threads.
    modes.push(timed("suite-threads", || {
        let configs = panel.configs().expect("panel");
        let programs: Vec<spec_ir::Program> = bundle
            .iter()
            .map(|path| {
                let source = std::fs::read_to_string(path).expect("read program");
                spec_ir::text::parse_program(&source).expect("bundle programs round-trip")
            })
            .collect();
        // Stamp each per-program report as a one-program slice so the
        // merged result carries the same bundle checksum as `run_bundle`.
        let fingerprints: Vec<_> = programs
            .iter()
            .map(spec_ir::fingerprint::program_fingerprint)
            .collect();
        let shards = programs.iter().enumerate().map(|(start, program)| {
            let prepared = Analyzer::new().prepare(program);
            BatchReport {
                panel,
                stamp: spec_core::BundleStamp::new(panel, fingerprints.iter().copied(), start),
                programs: vec![spec_core::batch::ProgramVerdict::run(&prepared, &configs)],
            }
        });
        BatchReport::merge(shards).expect("merge")
    }));

    // The batch layer's axis: programs across threads.
    modes.push(timed("sharded-threads", || {
        run_bundle(&bundle, panel, jobs).expect("sharded run")
    }));

    // Every strategy is an execution detail: the merged reports must agree.
    for mode in &modes[1..] {
        assert_eq!(
            mode.report, modes[0].report,
            "mode `{}` diverged from the sequential reference",
            mode.name
        );
    }

    let baseline = modes[0].wall;
    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cache_lines\": {cache_lines},\n"));
        out.push_str(&format!("  \"programs\": {programs},\n"));
        out.push_str(&format!("  \"jobs\": {jobs},\n"));
        out.push_str(&format!("  \"leaks\": {},\n", modes[0].report.leak_count()));
        out.push_str("  \"reports_identical\": true,\n");
        out.push_str("  \"modes\": [\n");
        for (i, mode) in modes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"wall_secs\": {:.6}, \"speedup\": {:.3}}}{}\n",
                mode.name,
                mode.wall.as_secs_f64(),
                baseline.as_secs_f64() / mode.wall.as_secs_f64().max(1e-9),
                if i + 1 == modes.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}");
        println!("{out}");
    } else {
        let rows: Vec<Vec<String>> = modes
            .iter()
            .map(|mode| {
                vec![
                    mode.name.to_string(),
                    fmt_secs(mode.wall),
                    format!(
                        "{:.2}x",
                        baseline.as_secs_f64() / mode.wall.as_secs_f64().max(1e-9)
                    ),
                    mode.report.leak_count().to_string(),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Sharded vs. threaded panel execution ({programs} programs x \
                 {} configs, {jobs} jobs, {cache_lines}-line cache)",
                panel.configs().expect("panel").len()
            ),
            &["Mode", "Wall (s)", "Speedup", "Leaks"],
            &rows,
        );
        println!("\nAll modes produced bit-identical merged reports.");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
