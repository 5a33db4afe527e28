//! The in-process workloads: `ete_panel` and `leak_scan`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::time::Duration;

use spec_analysis::{detect_leaks, SideChannelComparison};
use spec_bench::service_harness::Rng;
use spec_cache::CacheConfig;
use spec_core::service::AnalyzeConfig;
use spec_core::session::comparison_configs;
use spec_core::{AnalysisOptions, AnalysisResult, Analyzer, PreparedProgram, Suite};
use spec_ir::Program;
use spec_sim::{PredictorKind, SimConfig, SimInput, Simulator};

use crate::layers::{timed, Layers};
use crate::sources::{self, CRYPTO_LINES, ETE_LINES, LEAKY};
use crate::stats::{fnv64, peak_rss_mb};
use crate::trace::Tracer;
use crate::{EndToEnd, Measured, Outcome, Run, Traced};

/// The stripped-report digests of the cold ETE panel, recorded with
/// `perfbench record-digests`.
const ETE_DIGESTS: &str = include_str!("../reference/ete_panel.digests");

/// Simulator runs per ETE program in the soundness sample.
const SIM_SAMPLES: u64 = 4;

/// Seeded passes over the crypto suite in a traced `leak_scan` run.
const LEAK_TRACED_PASSES: usize = 3;

/// Secrets the leak confirmation tries, as `confirm_leak_empirically`.
const CONFIRM_SECRETS: u64 = 64;

fn one_thread() -> NonZeroUsize {
    NonZeroUsize::new(1).expect("one is not zero")
}

/// Builds a workload's inputs and returns them with the seconds it took.
/// The in-process workloads repeat the build after every op of the
/// measured window, outside the op timing, and report the median as
/// `setup_s`.  The build takes about a millisecond, and on a shared host
/// its speed follows the host's load from one second to the next, so
/// samples spread over the window see the conditions the window's other
/// figures see, where a burst of repetitions at start-up would see only
/// that moment.
fn set_up<T>(build: impl Fn() -> T) -> (T, f64) {
    let (built, took) = timed(build);
    (built, took.as_secs_f64())
}

/// Lets the threads the last op started finish exiting, outside the op
/// timing.  The run is pinned to one core (see `run.py`), and
/// `std::thread::scope` returns once its threads' closures are done, before
/// each thread has handed its malloc arena back; without a pause the next
/// op's thread could take a fresh arena, which grew peak RSS by a
/// seed-dependent 30-50%.
fn settle() {
    std::thread::sleep(Duration::from_millis(1));
}

/// The cold comparison panel of one program: a fresh analyzer with one
/// suite thread, as a user's first `compare` run pays for it.
/// The prepared program is handed back so that it is dropped outside the
/// caller's timing.
fn cold_panel(
    program: &Program,
    configs: &[(String, AnalysisOptions)],
) -> (Suite, PreparedProgram) {
    let prepared = Analyzer::new()
        .max_suite_threads(one_thread())
        .prepare(program);
    (prepared.run_suite(configs), prepared)
}

fn panel_digest(suite: &Suite) -> u64 {
    fnv64(suite.report().without_timing().to_json().as_bytes())
}

/// The digest file: one `<program> <digest>` line per ETE program.
pub fn record_digests() -> String {
    let configs = comparison_configs(sources::ete_cache());
    let mut out = String::new();
    for source in sources::ete_sources() {
        let (suite, _) = cold_panel(&source.program, &configs);
        let _ = writeln!(out, "{} {:016x}", source.name, panel_digest(&suite));
    }
    out
}

fn reference_digests() -> BTreeMap<&'static str, u64> {
    ETE_DIGESTS
        .lines()
        .filter_map(|line| {
            let (name, hex) = line.split_once(' ')?;
            Some((name, u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// Runs the seeded simulator sample against a speculative result and
/// returns the number of committed accesses classified must-hit that
/// missed.
fn unsound_accesses(
    t: &mut Tracer,
    layers: &mut Layers,
    result: &AnalysisResult,
    cache: CacheConfig,
    rng: &mut Rng,
) -> usize {
    let mut unsound = 0;
    for sample in 0..SIM_SAMPLES {
        let predictor = if sample % 2 == 0 {
            PredictorKind::AlwaysWrong
        } else {
            PredictorKind::TwoBit
        };
        let input = SimInput::new(rng.below(16), rng.below(16));
        let simulator = Simulator::new(
            SimConfig::default()
                .with_cache(cache)
                .with_predictor(predictor),
        );
        let (report, took) = t.span("sim.run", |_| {
            timed(|| simulator.run(&result.program, &input))
        });
        layers.sim_run_ms.add_duration(took, 1e3);
        unsound += report
            .committed_events()
            .filter(|event| !event.hit)
            .filter(|event| {
                result
                    .access_at(event.block, event.inst_index)
                    .is_some_and(|access| access.observable_hit)
            })
            .count();
    }
    unsound
}

/// `ete_panel`: the cold comparison panel per ETE program, in a seeded
/// order, in whole passes over the ten programs.  An op is one (program,
/// configuration) analysis.
pub fn ete_panel(run: &Run) -> Outcome {
    let (sources, first_setup) = set_up(sources::ete_sources);
    let cache = sources::ete_cache();
    let configs = comparison_configs(cache);
    let references = reference_digests();
    let mut rng = Rng::new(run.seed);
    let mut notes = Vec::new();
    // Programs whose panel digest or soundness sample failed, with why.
    let mut failing: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut ops_of = BTreeMap::new();

    // The digest each program's panel last had.
    let panels = std::cell::RefCell::new(BTreeMap::new());
    let check = |suite: &Suite, name: &str, failing: &mut BTreeMap<String, Vec<String>>| {
        let digest = panel_digest(suite);
        panels.borrow_mut().insert(name.to_string(), digest);
        if references.get(name) != Some(&digest) {
            failing.entry(name.to_string()).or_default().push(format!(
                "panel digest {digest:016x} differs from the recorded one"
            ));
        }
    };

    let measured = if run.trace {
        let order = sources::shuffled(sources.len(), &mut rng);
        let mut t = Tracer::new(true, run.origin, 0);
        let mut layers = Layers::default();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        let options: Vec<AnalysisOptions> = configs.iter().map(|(_, o)| *o).collect();
        for (op, &index) in order.iter().enumerate() {
            let source = &sources[index];
            // The same op untraced, before or after the traced one by
            // turns, so that drift in the machine's speed falls on both
            // sides of the tracing-overhead comparison.
            let untraced = |untraced_s: &mut f64| {
                let ((suite, _), took) = timed(|| cold_panel(&source.program, &configs));
                *untraced_s += took.as_secs_f64();
                suite
            };
            let before = (!op.is_multiple_of(2)).then(|| untraced(&mut untraced_s));
            t.set_op(op as u64 + 1);
            let ((suite, prepared), took) = t.span("op", |t| {
                t.span("core.run_suite", |_| {
                    timed(|| cold_panel(&source.program, &configs))
                })
            });
            traced_s += took.as_secs_f64();
            let after = op.is_multiple_of(2).then(|| untraced(&mut untraced_s));
            t.span("check", |_| {
                for suite in before.iter().chain(&after).chain([&suite]) {
                    check(suite, &source.name, &mut failing);
                    *ops_of.entry(source.name.clone()).or_insert(0) += suite.runs.len() as u64;
                }
            });
            t.span("probe", |t| {
                layers.probe_front_end(t, &source.text, &source.program);
                let prep = layers.probe_artifacts(t, &source.program, &options);
                layers.prep_s += prep.as_secs_f64();
                for suite_run in &suite.runs {
                    layers.record_run(&suite_run.result);
                    layers.cold_s += suite_run.result.elapsed.as_secs_f64();
                }
                let runs: Vec<(&str, &AnalysisResult)> = suite
                    .runs
                    .iter()
                    .map(|r| (r.label.as_str(), &r.result))
                    .collect();
                layers.probe_results(t, &prepared, &runs, &[sources::edit_config()]);
                let speculative = &suite.get("speculative").expect("in the panel").result;
                let unsound = unsound_accesses(t, &mut layers, speculative, cache, &mut rng);
                if unsound > 0 {
                    failing
                        .entry(source.name.clone())
                        .or_default()
                        .push(format!(
                            "{unsound} must-hit accesses missed in the simulator"
                        ));
                }
            });
        }
        Measured::Traced(Box::new(Traced {
            layers,
            spans: vec![t.into_spans()],
            untraced_s,
            traced_s,
        }))
    } else {
        // Two passes over the panel, so the tail is their p90: the
        // eleventh-slowest op of a hundred, which is always one of the
        // pair of the same merge-at-rollback run.  Over one pass the p80
        // falls in a gap between unrelated ops, and noise reorders them.
        let pass = sources.len() * configs.len();
        let mut e2e = EndToEnd::new(run, pass, 2 * pass);
        let cal = &mut e2e.calibration;
        cal.tick();
        e2e.setups.push((cal.now_s(), first_setup));
        let mut busy = Duration::ZERO;
        while busy.as_secs_f64() < run.seconds {
            for index in sources::shuffled(sources.len(), &mut rng) {
                let source = &sources[index];
                let ((suite, _prepared), took) = timed(|| cold_panel(&source.program, &configs));
                busy += took;
                let at = cal.now_s();
                e2e.latencies.extend(
                    suite
                        .runs
                        .iter()
                        .map(|r| (at, r.result.elapsed.as_secs_f64() * 1e3)),
                );
                *ops_of.entry(source.name.clone()).or_insert(0) += suite.runs.len() as u64;
                check(&suite, &source.name, &mut failing);
                e2e.setups
                    .push((cal.now_s(), set_up(sources::ete_sources).1));
                cal.tick();
                settle();
            }
        }
        e2e.window_s = busy.as_secs_f64();
        e2e.peak_rss_mb = peak_rss_mb("self");
        // The soundness sample, outside the measured window.
        let speculative = configs
            .iter()
            .find(|(label, _)| label == "speculative")
            .expect("in the panel")
            .1;
        let mut t = Tracer::new(false, run.origin, 0);
        let mut layers = Layers::default();
        for source in &sources {
            let result = Analyzer::new().prepare(&source.program).run(&speculative);
            let unsound = unsound_accesses(&mut t, &mut layers, &result, cache, &mut rng);
            if unsound > 0 {
                failing
                    .entry(source.name.clone())
                    .or_default()
                    .push(format!(
                        "{unsound} must-hit accesses missed in the simulator"
                    ));
            }
        }
        Measured::EndToEnd(e2e)
    };

    let mut digests = String::new();
    for (name, digest) in panels.borrow().iter() {
        let _ = write!(digests, "{name}:{digest:016x};");
    }
    notes.push(format!("digest panels={:016x}", fnv64(digests.as_bytes())));
    let attempted = ops_of.values().sum();
    let failed = failing
        .keys()
        .map(|name| ops_of.get(name).copied().unwrap_or(0))
        .sum();
    for (name, why) in &failing {
        notes.push(format!("FAILED {name}: {}", why.join("; ")));
    }
    notes.push(format!(
        "ete_panel: {} programs at {ETE_LINES} lines, {} configurations each",
        sources.len(),
        configs.len()
    ));
    Outcome {
        attempted,
        failed,
        notes,
        measured,
    }
}

/// One leak verdict: the baseline and speculative findings and, for a
/// speculative leak, whether the simulator confirms it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Verdict {
    nonspec_leak: bool,
    spec_leak: bool,
    confirmed: Option<bool>,
}

/// The known Table 7 split: no baseline leaks, five speculative ones.
fn verdict_is_right(name: &str, verdict: &Verdict) -> bool {
    !verdict.nonspec_leak && verdict.spec_leak == LEAKY.contains(&name)
}

/// A leak verdict made through the layers' public calls one by one, as
/// `SideChannelComparison::run` makes it, so each can carry a span.
fn traced_verdict(
    t: &mut Tracer,
    layers: &mut Layers,
    program: &Program,
    comparison_options: &[AnalysisOptions; 2],
    cache: CacheConfig,
) -> (Verdict, [AnalysisResult; 2]) {
    let prepared = Analyzer::new().prepare(program);
    let base = t.span("core.run", |_| prepared.run(&comparison_options[0]));
    let spec = t.span("core.run", |_| prepared.run(&comparison_options[1]));
    let (base_report, took) = t.span("analysis.detect_leaks", |_| timed(|| detect_leaks(&base)));
    layers.detect_leaks_us.add_duration(took, 1e6);
    let (spec_report, took) = t.span("analysis.detect_leaks", |_| timed(|| detect_leaks(&spec)));
    layers.detect_leaks_us.add_duration(took, 1e6);
    let confirmed = spec_report.leak_detected().then(|| {
        let simulator = Simulator::new(
            SimConfig::default()
                .with_cache(cache)
                .with_predictor(PredictorKind::AlwaysWrong),
        );
        let mut observed = None;
        for secret in 0..CONFIRM_SECRETS {
            let (report, took) = t.span("sim.run", |_| {
                timed(|| simulator.run(program, &SimInput::new(1, secret)))
            });
            layers.sim_run_ms.add_duration(took, 1e3);
            let misses = report.observable_miss_count();
            match observed {
                None => observed = Some(misses),
                Some(previous) if previous != misses => return true,
                Some(_) => {}
            }
        }
        false
    });
    let verdict = Verdict {
        nonspec_leak: base_report.leak_detected(),
        spec_leak: spec_report.leak_detected(),
        confirmed,
    };
    (verdict, [base, spec])
}

/// `leak_scan`: the Table 7 comparison with simulator confirmation over
/// the crypto suite, in whole seeded passes.  An op is one program's
/// verdict.
pub fn leak_scan(run: &Run) -> Outcome {
    let (suite, first_setup) = set_up(sources::crypto_sources);
    let cache = CacheConfig::fully_associative(CRYPTO_LINES as usize, 64);
    let comparison = SideChannelComparison::new(cache);
    let options = [
        AnalysisOptions::builder()
            .baseline()
            .cache(cache)
            .build()
            .expect("valid baseline"),
        AnalysisOptions::builder()
            .cache(cache)
            .build()
            .expect("valid speculative options"),
    ];
    let mut rng = Rng::new(run.seed);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let mut verdicts = BTreeMap::new();
    let mut judge = |name: &str, verdict: Verdict, notes: &mut Vec<String>| {
        attempted += 1;
        if !verdict_is_right(name, &verdict) {
            failed += 1;
            notes.push(format!("FAILED {name}: verdict {verdict:?}"));
        }
        if let Some(previous) = verdicts.insert(name.to_string(), verdict) {
            if previous != verdict {
                failed += 1;
                notes.push(format!("FAILED {name}: verdict changed between passes"));
            }
        }
    };

    let measured = if run.trace {
        let order: Vec<usize> = (0..LEAK_TRACED_PASSES)
            .flat_map(|_| sources::shuffled(suite.len(), &mut rng))
            .collect();
        let mut untraced = Tracer::new(false, run.origin, 0);
        let mut untraced_layers = Layers::default();
        let mut t = Tracer::new(true, run.origin, 0);
        let mut layers = Layers::default();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        for (op, &index) in order.iter().enumerate() {
            let (source, _) = &suite[index];
            // As in `ete_panel`: the untraced copy of the op runs before or
            // after the traced one by turns.
            let mut plain = || {
                let ((verdict, _), took) = timed(|| {
                    traced_verdict(
                        &mut untraced,
                        &mut untraced_layers,
                        &source.program,
                        &options,
                        cache,
                    )
                });
                untraced_s += took.as_secs_f64();
                verdict
            };
            let before = (!op.is_multiple_of(2)).then(&mut plain);
            t.set_op(op as u64 + 1);
            let ((verdict, results), took) = t.span("op", |t| {
                timed(|| traced_verdict(t, &mut layers, &source.program, &options, cache))
            });
            traced_s += took.as_secs_f64();
            let after = op.is_multiple_of(2).then(&mut plain);
            t.span("check", |_| {
                for verdict in before.into_iter().chain(after).chain([verdict]) {
                    judge(&source.name, verdict, &mut notes);
                }
            });
            t.span("probe", |t| {
                layers.probe_front_end(t, &source.text, &source.program);
                let prep = layers.probe_artifacts(t, &source.program, &options);
                layers.prep_s += prep.as_secs_f64();
                for result in &results {
                    layers.record_run(result);
                    layers.cold_s += result.elapsed.as_secs_f64();
                }
                let prepared = Analyzer::new().prepare(&source.program);
                t.span("core.run", |_| prepared.run(&options[1]));
                let runs = [("baseline", &results[0]), ("speculative", &results[1])];
                let output = AnalyzeConfig {
                    cache_lines: CRYPTO_LINES as usize,
                    ..AnalyzeConfig::default()
                };
                layers.probe_results(t, &prepared, &runs, &[output]);
            });
        }
        if untraced_layers.sim_run_ms.count != layers.sim_run_ms.count {
            failed += 1;
            notes.push("FAILED simulator run counts differ between the two passes".into());
        }
        Measured::Traced(Box::new(Traced {
            layers,
            spans: vec![t.into_spans()],
            untraced_s,
            traced_s,
        }))
    } else {
        // Twenty passes over the suite, so the tail is their p95: about the
        // median verdict time of the slowest program.  Over ten passes the
        // p90 is the slowest run of the second-slowest program.
        let mut e2e = EndToEnd::new(run, suite.len(), 20 * suite.len());
        let cal = &mut e2e.calibration;
        cal.tick();
        e2e.setups.push((cal.now_s(), first_setup));
        let mut busy = Duration::ZERO;
        while busy.as_secs_f64() < run.seconds {
            for index in sources::shuffled(suite.len(), &mut rng) {
                let (source, buffer) = &suite[index];
                let (row, took) = timed(|| comparison.run(&source.program, *buffer));
                busy += took;
                e2e.latencies.push((cal.now_s(), took.as_secs_f64() * 1e3));
                let verdict = Verdict {
                    nonspec_leak: row.nonspec_leak,
                    spec_leak: row.spec_leak,
                    confirmed: row.empirically_confirmed,
                };
                judge(&source.name, verdict, &mut notes);
                e2e.setups
                    .push((cal.now_s(), set_up(sources::crypto_sources).1));
                cal.tick();
                settle();
            }
        }
        e2e.window_s = busy.as_secs_f64();
        e2e.peak_rss_mb = peak_rss_mb("self");
        Measured::EndToEnd(e2e)
    };

    let mut digest_input = String::new();
    for (name, verdict) in &verdicts {
        let _ = write!(digest_input, "{name}:{verdict:?};");
    }
    let leaks = verdicts.values().filter(|v| v.spec_leak).count();
    notes.push(format!(
        "leak_scan: {leaks}/{} speculative leaks at {CRYPTO_LINES} lines",
        verdicts.len()
    ));
    notes.push(format!(
        "digest verdicts={:016x}",
        fnv64(digest_input.as_bytes())
    ));
    Outcome {
        attempted,
        failed,
        notes,
        measured,
    }
}
