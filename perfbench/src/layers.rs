//! Per-layer measurements, each taken from outside by timing a call into
//! the layer's public functions on the workload's own inputs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use spec_absint::JoinSemiLattice as _;
use spec_analysis::detect_leaks;
use spec_cache::{AddressMap, CacheAccess};
use spec_core::service::{analyze_output, AnalyzeConfig};
use spec_core::{AnalysisOptions, AnalysisResult, PreparedProgram, Report};
use spec_ir::text::parse_program;
use spec_ir::transform::unroll_counted_loops;
use spec_ir::{Program, ProgramDiff};
use spec_vcfg::{SpeculationConfig, Vcfg};

use crate::stats::{Mean, Metrics};
use crate::trace::Tracer;

/// Accesses replayed per analysis result by [`Layers::replay_domain`].
const DOMAIN_SAMPLE: usize = 256;

/// Accumulated per-layer figures of one traced pass.
#[derive(Default)]
pub struct Layers {
    pub parse_us: Mean,
    pub diff_us: Mean,
    pub unroll_us: Mean,
    pub address_map_us: Mean,
    pub vcfg_build_us: Mean,
    pub vcfg_nodes: Mean,
    pub vcfg_colors: Mean,
    /// Run time of every analysis the pass made, in ms.
    pub run_ms: Mean,
    /// Run time of the cold reference analyses of `edit_serve`, in ms.
    pub cold_run_ms: Mean,
    /// Time of the artifacts a cold run builds before its fixpoint
    /// (unroll, address map, VCFG), and the cold run time it is part of.
    pub prep_s: f64,
    pub cold_s: f64,
    pub visits: u64,
    pub updates: u64,
    pub rounds: u64,
    pub access_ns: Mean,
    pub join_ns: Mean,
    pub clone_ns: Mean,
    pub live_colors: Mean,
    pub must_entries: Mean,
    pub report_us: Mean,
    pub analyze_output_us: Mean,
    pub detect_leaks_us: Mean,
    pub sim_run_ms: Mean,
    pub session_update_ms: Mean,
    pub summary_hits: u64,
    pub summary_misses: u64,
    /// Server-side figures, from `metrics` scrape deltas.
    pub served: Option<Served>,
}

/// Scrape deltas of the `specan serve` child over a traced pass.
#[derive(Default)]
pub struct Served {
    pub l0: f64,
    pub l1: f64,
    pub store: f64,
    pub cold: f64,
    pub acquire_s: f64,
    pub requests: f64,
    pub request_s: f64,
    pub queue_wait_s: f64,
    pub phase_acquire_s: f64,
    pub phase_run_s: f64,
    pub phase_persist_s: f64,
    pub persist_count: f64,
    pub persist_s: f64,
    pub persist_bytes: f64,
    pub gc_count: f64,
    pub gc_s: f64,
    pub summary_reuse: f64,
    /// Mean client-side latency of the same requests, in seconds.
    pub client_s: f64,
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The speculation structure a run of `options` analyses under (the
/// baseline collapses every window to zero).
fn effective_speculation(options: &AnalysisOptions) -> SpeculationConfig {
    if options.speculative {
        options.speculation
    } else {
        options.speculation.with_depths(0, 0)
    }
}

impl Layers {
    /// Parses `text` and diffs the result against `previous`, the version
    /// the program had before (itself, on workloads that do not edit).
    pub fn probe_front_end(&mut self, t: &mut Tracer, text: &str, previous: &Program) -> Program {
        let (parsed, took) = t.span("ir.parse", |_| timed(|| parse_program(text)));
        self.parse_us.add_duration(took, 1e6);
        let parsed = parsed.expect("generated sources parse");
        let (diff, took) = t.span("ir.diff", |_| {
            timed(|| ProgramDiff::between(previous, &parsed))
        });
        self.diff_us.add_duration(took, 1e6);
        black_box(diff);
        parsed
    }

    /// Probes the layers that consume analysis results: the domain on each
    /// converged result, the leak check, report rendering, and the service
    /// render path of `prepared` under each of `outputs`, whose outputs are
    /// returned.
    pub fn probe_results(
        &mut self,
        t: &mut Tracer,
        prepared: &PreparedProgram,
        runs: &[(&str, &AnalysisResult)],
        outputs: &[AnalyzeConfig],
    ) -> Vec<String> {
        for (_, result) in runs {
            self.replay_domain(t, result);
            let (report, took) =
                t.span("analysis.detect_leaks", |_| timed(|| detect_leaks(result)));
            self.detect_leaks_us.add_duration(took, 1e6);
            black_box(report);
        }
        let name = prepared.program().name();
        let (json, took) = t.span("render.report", |_| {
            timed(|| Report::from_runs(name, runs.iter().copied()).to_json())
        });
        self.report_us.add_duration(took, 1e6);
        black_box(json);
        outputs
            .iter()
            .map(|config| {
                let (out, took) = t.span("service.analyze_output", |_| {
                    timed(|| analyze_output(prepared, config))
                });
                self.analyze_output_us.add_duration(took, 1e6);
                out.expect("valid configuration")
            })
            .collect()
    }

    /// Builds, once each, the artifacts a cold analysis of `program` under
    /// `configs` needs before its fixpoint: the unrolled program per
    /// unrolling setting, the address map per geometry and the VCFG per
    /// speculation structure.  Returns the time they took together.
    pub fn probe_artifacts(
        &mut self,
        t: &mut Tracer,
        program: &Program,
        configs: &[AnalysisOptions],
    ) -> Duration {
        let mut total = Duration::ZERO;
        let mut caches = Vec::new();
        let mut variants: Vec<(bool, spec_ir::transform::UnrollOptions, Program)> = Vec::new();
        let mut vcfgs = Vec::new();
        for options in configs {
            if !caches.contains(&options.cache) {
                caches.push(options.cache);
                let (amap, took) = t.span("cache.address_map", |_| {
                    timed(|| AddressMap::new(program, &options.cache))
                });
                black_box(amap);
                self.address_map_us.add_duration(took, 1e6);
                total += took;
            }
            let variant = (options.unroll_loops, options.unroll);
            let analyzed = match variants.iter().find(|(l, u, _)| (*l, *u) == variant) {
                Some((_, _, analyzed)) => analyzed.clone(),
                None => {
                    let analyzed = if options.unroll_loops {
                        let ((unrolled, _report), took) = t.span("ir.unroll", |_| {
                            timed(|| unroll_counted_loops(program, options.unroll))
                        });
                        self.unroll_us.add_duration(took, 1e6);
                        total += took;
                        unrolled
                    } else {
                        program.clone()
                    };
                    variants.push((variant.0, variant.1, analyzed.clone()));
                    analyzed
                }
            };
            let spec = effective_speculation(options);
            let key = (variant, spec.depth_on_miss, spec.merge_strategy);
            if !vcfgs.contains(&key) {
                vcfgs.push(key);
                let (vcfg, took) = t.span("vcfg.build", |_| timed(|| Vcfg::build(&analyzed, spec)));
                self.vcfg_build_us.add_duration(took, 1e6);
                self.vcfg_nodes.add(vcfg.graph().len() as f64);
                self.vcfg_colors.add(vcfg.num_colors() as f64);
                total += took;
            }
        }
        total
    }

    /// Records one analysis result's solver counters and run time.
    pub fn record_run(&mut self, result: &AnalysisResult) {
        self.run_ms.add_duration(result.elapsed, 1e3);
        self.visits += result.stats.node_visits;
        self.updates += result.stats.state_updates;
        self.rounds += u64::from(result.rounds);
    }

    /// Replays the abstract domain's operations on a converged result:
    /// clones the `SpecState` at each sampled access, applies the access
    /// to every cache state in the clone (`AbstractCacheState::access`),
    /// and joins each clone into a copy of its predecessor in the sample
    /// (`join_in_place`, one call per component).
    pub fn replay_domain(&mut self, t: &mut Tracer, result: &AnalysisResult) {
        t.span("domain.replay", |_| {
            let accesses = result.accesses();
            if accesses.is_empty() {
                return;
            }
            let stride = accesses.len().div_ceil(DOMAIN_SAMPLE);
            let sample: Vec<_> = accesses.iter().step_by(stride).collect();
            let states = &result.states;
            for access in &sample {
                let state = &states[access.node.index()];
                self.live_colors.add(state.live_spec_count() as f64);
                self.must_entries.add(state.normal.must_hit_count() as f64);
            }

            let (mut clones, took) = timed(|| {
                sample
                    .iter()
                    .map(|access| states[access.node.index()].clone())
                    .collect::<Vec<_>>()
            });
            self.clone_ns
                .add_n(took.as_secs_f64() * 1e9, sample.len() as u64);

            let map = &result.address_map;
            let ((), took) = timed(|| {
                for (state, access) in clones.iter_mut().zip(&sample) {
                    let op = map
                        .resolve_static(&access.mem)
                        .map_or(CacheAccess::AnyOf(access.mem.region), CacheAccess::Precise);
                    state.normal.access(&result.cache, &op, |b| map.set_of(b));
                    for spec in state.spec.values_mut() {
                        spec.access(&result.cache, &op, |b| map.set_of(b));
                    }
                }
            });
            let calls: usize = clones.iter().map(|s| 1 + s.spec.len()).sum();
            self.access_ns.add_n(took.as_secs_f64() * 1e9, calls as u64);

            let mut into = clones[..clones.len() - 1].to_vec();
            let joins: usize = clones[1..].iter().map(|s| 1 + s.spec.len()).sum();
            let ((), took) = timed(|| {
                for (state, next) in into.iter_mut().zip(&clones[1..]) {
                    black_box(state.join_in_place(next));
                }
            });
            self.join_ns.add_n(took.as_secs_f64() * 1e9, joins as u64);
            black_box((into, clones));
        });
    }

    pub fn emit(&self, metrics: &mut Metrics) {
        metrics.put("ir.parse_us", self.parse_us.value(), "us");
        metrics.put("ir.diff_us", self.diff_us.value(), "us");
        metrics.put("ir.unroll_us", self.unroll_us.value(), "us");
        metrics.put("cache.address_map_us", self.address_map_us.value(), "us");
        metrics.put("vcfg.build_us", self.vcfg_build_us.value(), "us");
        metrics.put("vcfg.nodes", self.vcfg_nodes.value(), "count");
        metrics.put("vcfg.colors", self.vcfg_colors.value(), "count");
        metrics.put("core.run_ms", self.run_ms.value(), "ms");
        metrics.put("core.cold_run_ms", self.cold_run_ms.value(), "ms");
        let share = if self.cold_s > 0.0 {
            1.0 - self.prep_s / self.cold_s
        } else {
            0.0
        };
        metrics.put("core.fixpoint_share", share, "ratio");
        metrics.put("solver.visits", self.visits as f64, "count");
        metrics.put("solver.updates", self.updates as f64, "count");
        metrics.put("solver.rounds", self.rounds as f64, "count");
        let per_visit = if self.visits > 0 {
            self.run_ms.sum * 1e3 / self.visits as f64
        } else {
            0.0
        };
        metrics.put("solver.us_per_visit", per_visit, "us");
        metrics.put("domain.access_ns", self.access_ns.value(), "ns");
        metrics.put("domain.join_ns", self.join_ns.value(), "ns");
        metrics.put("domain.clone_ns", self.clone_ns.value(), "ns");
        metrics.put("domain.live_colors", self.live_colors.value(), "count");
        metrics.put("domain.must_entries", self.must_entries.value(), "count");
        metrics.put("render.report_us", self.report_us.value(), "us");
        metrics.put(
            "service.analyze_output_us",
            self.analyze_output_us.value(),
            "us",
        );

        let served = self.served.as_ref();
        let get = |f: fn(&Served) -> f64| served.map_or(0.0, f);
        let per = |total: f64, count: f64, scale: f64| {
            if count > 0.0 {
                total / count * scale
            } else {
                0.0
            }
        };
        let acquires = get(|s| s.l0 + s.l1 + s.store + s.cold);
        metrics.put("acquire.l0", get(|s| s.l0), "count");
        metrics.put("acquire.l1", get(|s| s.l1), "count");
        metrics.put("acquire.store", get(|s| s.store), "count");
        metrics.put("acquire.cold", get(|s| s.cold), "count");
        metrics.put(
            "acquire.hit_ratio",
            per(get(|s| s.l0 + s.l1 + s.store), acquires, 1.0),
            "ratio",
        );
        metrics.put("acquire.us", per(get(|s| s.acquire_s), acquires, 1e6), "us");
        let requests = get(|s| s.requests);
        metrics.put(
            "service.queue_wait_ms",
            per(get(|s| s.queue_wait_s), requests, 1e3),
            "ms",
        );
        metrics.put(
            "service.phase_acquire_ms",
            per(get(|s| s.phase_acquire_s), requests, 1e3),
            "ms",
        );
        metrics.put(
            "service.phase_run_ms",
            per(get(|s| s.phase_run_s), requests, 1e3),
            "ms",
        );
        metrics.put(
            "service.phase_persist_ms",
            per(get(|s| s.phase_persist_s), requests, 1e3),
            "ms",
        );
        let request_ms = per(get(|s| s.request_s), requests, 1e3);
        metrics.put("service.request_ms", request_ms, "ms");
        let wire_ms = if requests > 0.0 {
            get(|s| s.client_s) * 1e3 - request_ms
        } else {
            0.0
        };
        metrics.put("service.wire_ms", wire_ms, "ms");

        let summaries = (self.summary_hits + self.summary_misses) as f64;
        metrics.put("summary.hits", self.summary_hits as f64, "count");
        metrics.put("summary.misses", self.summary_misses as f64, "count");
        metrics.put(
            "summary.hit_ratio",
            per(self.summary_hits as f64, summaries, 1.0),
            "ratio",
        );
        metrics.put("summary.server_reuse", get(|s| s.summary_reuse), "count");
        metrics.put("session.update_ms", self.session_update_ms.value(), "ms");
        metrics.put(
            "store.persist_ms",
            per(get(|s| s.persist_s), get(|s| s.persist_count), 1e3),
            "ms",
        );
        metrics.put("store.persist_bytes", get(|s| s.persist_bytes), "bytes");
        metrics.put(
            "store.gc_ms",
            per(get(|s| s.gc_s), get(|s| s.gc_count), 1e3),
            "ms",
        );
        metrics.put("sim.runs", self.sim_run_ms.count as f64, "count");
        metrics.put("sim.run_ms", self.sim_run_ms.value(), "ms");
        metrics.put(
            "analysis.detect_leaks_us",
            self.detect_leaks_us.value(),
            "us",
        );
    }

    /// The counts that must repeat exactly across runs with one seed.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let served = self.served.as_ref();
        let get = |f: fn(&Served) -> f64| served.map_or(0, |s| f(s) as u64);
        vec![
            ("solver.visits", self.visits),
            ("solver.updates", self.updates),
            ("solver.rounds", self.rounds),
            ("summary.hits", self.summary_hits),
            ("summary.misses", self.summary_misses),
            ("store.persist_bytes", get(|s| s.persist_bytes)),
            ("acquire.warm", get(|s| s.l0 + s.l1)),
            ("acquire.store", get(|s| s.store)),
            ("acquire.cold", get(|s| s.cold)),
            ("sim.runs", self.sim_run_ms.count),
        ]
    }
}
