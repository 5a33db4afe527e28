//! The repository benchmark.  See `perfbench/README.md` for the metric
//! catalogue, the workloads and how to run it; `perfbench/run.py` builds
//! this binary and `specan`, then calls it as
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --specan <path>
//! perfbench record-digests
//! ```
//!
//! An untraced run prints the end-to-end metrics of one workload; a traced
//! run prints its per-layer metrics, the self time of every span and the
//! tracing overhead.  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod inproc;
mod layers;
mod served;
mod sources;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use calib::Calibration;
use layers::Layers;
use stats::Metrics;
use trace::Span;

/// Where every run writes its traces and scratch files, relative to the
/// directory it runs in.
const OUT_DIR: &str = ".bench_out";

/// The spans the benchmark records, each reported as `self.<name>_ms`.
const SPAN_NAMES: [&str; 17] = [
    "op",
    "core.run_suite",
    "core.run",
    "service.call",
    "check",
    "probe",
    "ir.parse",
    "ir.diff",
    "ir.unroll",
    "cache.address_map",
    "vcfg.build",
    "domain.replay",
    "render.report",
    "service.analyze_output",
    "session.update",
    "analysis.detect_leaks",
    "sim.run",
];

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub specan: PathBuf,
    pub out_dir: PathBuf,
    /// The time origin every tracer of the run shares.
    pub origin: Instant,
}

/// What an untraced run measured end to end.  Every sample is stamped with
/// the seconds since the run's origin at which it was taken, so that the
/// calibration can scale it to the reference speed.
pub struct EndToEnd {
    /// Every set-up repetition's duration, in seconds.
    pub setups: Vec<(f64, f64)>,
    /// Per-op latencies, in ms, in completion order.
    pub latencies: Vec<(f64, f64)>,
    /// Ops per p50 segment: one pass or round of the workload's inputs,
    /// each input once.  The p50 is the median over the run's full segments
    /// of each segment's median.  Over the whole run, with every input seen
    /// equally often, the median would fall between the samples of two
    /// inputs: the slowest run of one against the fastest of the next.
    pub p50_segment: usize,
    /// Ops per tail segment.  The tail is taken per segment of this many
    /// consecutive ops and its median over the run's full segments is
    /// reported.  A fixed segment size fixes the tail's percentile: over a
    /// whole timed window, a faster program would complete more ops and
    /// so be judged at a higher percentile.
    pub tail_segment: usize,
    /// Wall time of the measured window, in seconds, without the
    /// calibration samples taken in it.
    pub window_s: f64,
    pub peak_rss_mb: f64,
    pub calibration: Calibration,
}

impl EndToEnd {
    pub fn new(run: &Run, p50_segment: usize, tail_segment: usize) -> Self {
        Self {
            p50_segment,
            setups: Vec::new(),
            latencies: Vec::new(),
            tail_segment,
            window_s: 0.0,
            peak_rss_mb: 0.0,
            calibration: Calibration::new(run.origin),
        }
    }
}

/// What a traced run measured per layer.
pub struct Traced {
    pub layers: Layers,
    pub spans: Vec<Vec<Span>>,
    /// Op time of the same schedule without and with tracing, in seconds.
    pub untraced_s: f64,
    pub traced_s: f64,
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub measured: Measured,
}

pub enum Measured {
    EndToEnd(EndToEnd),
    Traced(Box<Traced>),
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <ete_panel|leak_scan|warm_serve|edit_serve> --seed <n> \
         --seconds <s> --trace <0|1> --specan <path>\n       perfbench record-digests"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record-digests") {
        print!("{}", inproc::record_digests());
        return;
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut specan = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--specan" => specan = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    let run = Run {
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        specan: specan.unwrap_or_else(|| PathBuf::from(".bench_build/release/specan")),
        out_dir: PathBuf::from(OUT_DIR),
        origin: Instant::now(),
    };
    std::fs::create_dir_all(&run.out_dir).expect("the output directory can be created");
    let outcome = match workload.as_str() {
        "ete_panel" => inproc::ete_panel(&run),
        "leak_scan" => inproc::leak_scan(&run),
        "warm_serve" => served::warm_serve(&run),
        "edit_serve" => served::edit_serve(&run),
        _ => usage(),
    };
    report(&workload, &run, outcome);
}

/// Prints the human-readable lines, then the result object as the last
/// line of standard output.
fn report(workload: &str, run: &Run, outcome: Outcome) {
    let mut metrics = Metrics::default();
    match &outcome.measured {
        Measured::EndToEnd(e2e) => {
            let cal = &e2e.calibration;
            let ops = e2e.latencies.len();
            let raw = |samples: &[(f64, f64)]| samples.iter().map(|s| s.1).collect::<Vec<_>>();
            let scaled = |samples: &[(f64, f64)]| {
                samples
                    .iter()
                    .map(|(at, value)| value * cal.factor_at(*at))
                    .collect::<Vec<_>>()
            };
            let (raw_latencies, latencies) = (raw(&e2e.latencies), scaled(&e2e.latencies));
            // The window at the reference speed: scaled as the ops in it.
            let scale = latencies.iter().sum::<f64>() / raw_latencies.iter().sum::<f64>();
            let window_s = e2e.window_s * if scale.is_finite() { scale } else { 1.0 };
            // The median over a run's full segments of a statistic of each.
            // A run shorter than one segment is one short segment.
            let per_segment = |latencies: &[f64], segment: usize, of: fn(&[f64]) -> f64| {
                let segment = segment.clamp(1, ops.max(1));
                let values: Vec<f64> = latencies.chunks_exact(segment).map(of).collect();
                (stats::median(&values), values.len())
            };
            let segment = e2e.tail_segment.clamp(1, ops.max(1));
            let tail = |latencies: &[f64]| per_segment(latencies, segment, stats::tail);
            let p50 = |latencies: &[f64]| per_segment(latencies, e2e.p50_segment, stats::median).0;
            let (tail_ms, segments) = tail(&latencies);
            metrics.put("setup_s", stats::median(&scaled(&e2e.setups)), "s");
            metrics.put("throughput_ops_s", ops as f64 / window_s, "1/s");
            metrics.put("latency_p50_ms", p50(&latencies), "ms");
            metrics.put("latency_tail_ms", tail_ms, "ms");
            metrics.put("peak_rss_mb", e2e.peak_rss_mb, "MiB");
            let pct = stats::tail_percentile(segment);
            println!(
                "# {workload} seed {}: {ops} ops in {:.3} s; tail is p{pct:.2} of each {} \
                 consecutive ops, median of {segments} segments; {} set-ups",
                run.seed,
                e2e.window_s,
                segment,
                e2e.setups.len()
            );
            println!(
                "# host: calibration kernel median {:.4} ms over {} samples ({:.3} of the \
                 reference speed, {} ms)",
                cal.median_ms(),
                cal.len(),
                calib::REFERENCE_MS / cal.median_ms(),
                calib::REFERENCE_MS
            );
            println!(
                "# raw, unscaled: setup_s {:.6} throughput_ops_s {:.6} latency_p50_ms {:.6} \
                 latency_tail_ms {:.6}",
                stats::median(&raw(&e2e.setups)),
                ops as f64 / e2e.window_s,
                p50(&raw_latencies),
                tail(&raw_latencies).0
            );
        }
        Measured::Traced(traced) => {
            traced.layers.emit(&mut metrics);
            let self_ns = trace::self_times(&traced.spans);
            for name in SPAN_NAMES {
                let ns = self_ns.get(name).copied().unwrap_or(0);
                metrics.put(format!("self.{name}_ms"), ns as f64 / 1e6, "ms");
            }
            let overhead = if traced.untraced_s > 0.0 {
                (traced.traced_s / traced.untraced_s - 1.0) * 100.0
            } else {
                0.0
            };
            metrics.put("trace.overhead_pct", overhead, "%");
            let spans: usize = traced.spans.iter().map(Vec::len).sum();
            metrics.put("trace.spans", spans as f64, "count");
            let path = run
                .out_dir
                .join(format!("trace-{workload}-seed{}.jsonl", run.seed));
            match trace::write_spans(&path, &traced.spans) {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(err) => println!("# spans not written: {err}"),
            }
            let counts: Vec<String> = traced
                .layers
                .counts()
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            println!("# counts {}", counts.join(" "));
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "# failed_ratio {failed_ratio} ({} of {} ops)",
        outcome.failed, outcome.attempted
    );
    for (name, value, unit) in metrics.iter() {
        println!("{name} {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json()
    );
}
