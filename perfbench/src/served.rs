//! The served workloads: `warm_serve` and `edit_serve`, driven against a
//! real `specan serve` child through `spec_bench::service_harness`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spec_bench::service_harness::{strip_analyze_timing, Rng, ServeProcess};
use spec_core::service::{analyze_output, AnalyzeConfig, Request, Response, ServiceClient};
use spec_core::{AnalysisResult, Analyzer, SessionCache};
use spec_ir::text::parse_program;
use spec_ir::Program;

use crate::calib::Calibration;
use crate::layers::{timed, Layers, Served};
use crate::sources::{self, EditSchedule, Source};
use crate::stats::{fnv64, peak_rss_mb};
use crate::trace::Tracer;
use crate::{EndToEnd, Measured, Outcome, Run, Traced};

/// Worker threads of the server: one per core of the two-core machine the
/// benchmark was sized on.
const JOBS: usize = 2;

/// Set-up repetitions of the served workloads; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Requests per `warm_serve` p50 and tail segment, so the tail is their
/// p99.
const WARM_TAIL_SEGMENT: usize = 1000;

/// Requests in a traced `warm_serve` run, each sent twice (`send_pair`).
const WARM_TRACED_REQUESTS: u64 = 1000;

/// Rounds of `edit_serve` edits (one per program) per tail segment.
const EDIT_TAIL_ROUNDS: usize = 10;

/// Edits in a traced `edit_serve` pass.
const EDIT_TRACED_STEPS: u64 = 60;

fn analyze(source: &str, config: AnalyzeConfig) -> Request {
    Request::Analyze {
        source: source.to_string(),
        config,
    }
}

fn connect(server: &ServeProcess) -> ServiceClient {
    ServiceClient::connect(server.addr()).expect("the server accepts connections")
}

/// An `analyze` output without its execution-describing figures:
/// `strip_analyze_timing` for JSON, and the same two fields — fixpoint
/// iterations and analysis time — on the text report's statistics line.
fn strip_output(output: &str) -> String {
    let mut out = String::with_capacity(output.len());
    for line in strip_analyze_timing(output).lines() {
        match line.find("   fixpoint iterations: ") {
            Some(at) => out.push_str(&line[..at]),
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn output_digest(output: &str) -> u64 {
    fnv64(strip_output(output).as_bytes())
}

/// The digest a response is checked by: its stripped output.
fn response_digest(response: &Response) -> Option<u64> {
    response.ok.then(|| output_digest(&response.output))
}

/// The digest of the same analysis made cold, in process.
fn reference_digest(program: &Program, config: &AnalyzeConfig) -> u64 {
    let prepared = Analyzer::new().prepare(program);
    output_digest(&analyze_output(&prepared, config).expect("valid configuration"))
}

/// The pid of the live `specan` child of this process.
fn server_pid() -> Option<String> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut found = None;
    for task in tasks.flatten() {
        let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
        for pid in children.split_whitespace() {
            let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
            if comm.trim() == "specan" {
                found = Some(pid.to_string());
            }
        }
    }
    found
}

/// The server's metrics registry as `series → value`.
fn scrape(server: &ServeProcess) -> BTreeMap<String, f64> {
    let response = connect(server)
        .call(&Request::Metrics)
        .expect("the server answers a metrics scrape");
    response
        .output
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Adds the change of every series between two scrapes to `total`.
fn add_delta(
    total: &mut BTreeMap<String, f64>,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) {
    for (series, value) in after {
        *total.entry(series.clone()).or_insert(0.0) +=
            value - before.get(series).copied().unwrap_or(0.0);
    }
}

/// Server-side figures from the change of every series (see `add_delta`).
fn served_delta(delta: &BTreeMap<String, f64>, client_s: f64) -> Served {
    let d = |series: &str| delta.get(series).copied().unwrap_or(0.0);
    let tier = |suffix: &str| {
        ["l0", "l1", "store", "cold"].map(|t| {
            d(&format!(
                "spec_cache_acquire_seconds_{suffix}{{tier=\"{t}\"}}"
            ))
        })
    };
    let [l0, l1, store, cold] = tier("count");
    let queue_count = d("spec_queue_wait_seconds_count");
    let requests = d("spec_request_seconds_count{kind=\"analyze\"}");
    Served {
        l0,
        l1,
        store,
        cold,
        acquire_s: tier("sum").iter().sum(),
        requests,
        request_s: d("spec_request_seconds_sum{kind=\"analyze\"}"),
        // Per queued request, rescaled to the analyze requests the other
        // server figures are divided by.
        queue_wait_s: if queue_count > 0.0 {
            d("spec_queue_wait_seconds_sum") / queue_count * requests
        } else {
            0.0
        },
        phase_acquire_s: d("spec_phase_seconds_sum{phase=\"acquire\"}"),
        phase_run_s: d("spec_phase_seconds_sum{phase=\"run\"}"),
        phase_persist_s: d("spec_phase_seconds_sum{phase=\"persist\"}"),
        persist_count: d("spec_store_io_seconds_count{op=\"persist\"}"),
        persist_s: d("spec_store_io_seconds_sum{op=\"persist\"}"),
        persist_bytes: d("spec_store_io_bytes_total{op=\"persist\"}"),
        gc_count: d("spec_store_io_seconds_count{op=\"gc\"}"),
        gc_s: d("spec_store_io_seconds_sum{op=\"gc\"}"),
        summary_reuse: d("spec_summary_reuse_total"),
        client_s,
    }
}

/// Compares the counters of two servers that were sent the same schedule.
fn same_server_counts(a: &Served, b: &Served) -> bool {
    (a.l0 + a.l1, a.store, a.cold, a.persist_bytes)
        == (b.l0 + b.l1, b.store, b.cold, b.persist_bytes)
}

/// One answered request: which input it was for, when it was answered
/// (seconds since the run's origin), its client-side latency and its
/// digest (`None` for an error response).
struct Answer {
    key: (usize, AnalyzeConfig),
    at_s: f64,
    latency: Duration,
    digest: Option<u64>,
}

/// Spawns the server and warms every (program, configuration) of the mix
/// over two connections.
fn start_warm(run: &Run) -> (Vec<Source>, ServeProcess) {
    let sources = sources::ete_sources();
    let server = ServeProcess::start(&run.specan, JOBS);
    let mut work = Vec::new();
    for index in 0..sources.len() {
        for config in sources::warm_configs() {
            work.push((index, config));
        }
    }
    std::thread::scope(|scope| {
        for half in work.chunks(work.len().div_ceil(2)) {
            let (sources, server) = (&sources, &server);
            scope.spawn(move || {
                let mut client = connect(server);
                for (index, config) in half {
                    let response = client
                        .call(&analyze(&sources[*index].text, *config))
                        .expect("the server answers");
                    assert!(response.ok, "pre-warm request failed: {:?}", response.error);
                }
            });
        }
    });
    (sources, server)
}

/// Runs a served workload's set-up [`SETUP_REPS`] times, each given its
/// repetition number, with calibration samples around each, and keeps the
/// last.  Each earlier one is dropped (its server stopped) before the next
/// starts.
fn set_up_repeatedly<T>(e2e: &mut EndToEnd, start: impl Fn(usize) -> T) -> T {
    let mut started = None;
    for rep in 0..SETUP_REPS {
        drop(started.take());
        e2e.calibration.tick();
        let (s, took) = timed(|| start(rep));
        e2e.setups
            .push((e2e.calibration.now_s(), took.as_secs_f64()));
        started = Some(s);
        e2e.calibration.tick();
    }
    started.expect("at least one set-up")
}

/// Sends `request` on `client` and times the round trip.
fn send(client: &mut ServiceClient, request: &Request) -> (Response, Duration) {
    timed(|| client.call(request).expect("the server answers"))
}

/// Sends one request twice through `send` — untraced (`send(false)`) and
/// inside spans (`send(true)`) — in an order that alternates with `op`, so
/// that drift in the machine's speed falls on both sides of the
/// tracing-overhead comparison.  Returns the untraced answer first.
fn send_pair(
    t: &mut Tracer,
    op: u64,
    mut send: impl FnMut(bool) -> (Response, Duration),
) -> [(Response, Duration); 2] {
    t.set_op(op);
    if op.is_multiple_of(2) {
        let traced = t.span("op", |t| t.span("service.call", |_| send(true)));
        [send(false), traced]
    } else {
        let plain = send(false);
        [
            plain,
            t.span("op", |t| t.span("service.call", |_| send(true))),
        ]
    }
}

/// The closed `warm_serve` loop on one connection, drawing requests from
/// the seeded stream until `stop` says so.  With a tracer, each request is
/// sent twice on the connection (see `send_pair`), and the traced answers
/// come back second.  With a calibration, the host's speed is sampled
/// between requests.
fn warm_loop(
    run: &Run,
    server: &ServeProcess,
    sources: &[Source],
    mut tracer: Option<&mut Tracer>,
    mut cal: Option<&mut Calibration>,
    stop: &dyn Fn(u64, Instant) -> bool,
) -> (Vec<Answer>, Vec<Answer>) {
    let mut client = connect(server);
    let mut rng = Rng::new(run.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut sent = 0;
    while !stop(sent, start) {
        let key = sources::warm_request(&mut rng, sources.len());
        let request = analyze(&sources[key.0].text, key.1);
        sent += 1;
        let at_s = run.origin.elapsed().as_secs_f64();
        let answer = |(response, latency): (Response, Duration)| Answer {
            key,
            at_s,
            latency,
            digest: response_digest(&response),
        };
        match tracer.as_deref_mut() {
            None => plain.push(answer(send(&mut client, &request))),
            Some(t) => {
                let [a, b] = send_pair(t, sent, |_| send(&mut client, &request));
                plain.push(answer(a));
                traced.push(answer(b));
            }
        }
        if let Some(cal) = cal.as_deref_mut() {
            cal.tick();
        }
    }
    (plain, traced)
}

/// Checks every answer against the cold in-process reference of its
/// input.  Returns the number that differ or failed.
fn check_answers(
    answers: &[Answer],
    program_of: &dyn Fn(usize) -> Program,
    notes: &mut Vec<String>,
) -> u64 {
    let mut references = BTreeMap::new();
    let mut failed = 0;
    for answer in answers {
        let reference = *references
            .entry((
                answer.key.0,
                answer.key.1.json,
                answer.key.1.baseline,
                answer.key.1.shadow,
                answer.key.1.unroll,
            ))
            .or_insert_with(|| reference_digest(&program_of(answer.key.0), &answer.key.1));
        if answer.digest != Some(reference) {
            failed += 1;
            if failed <= 3 {
                notes.push(format!(
                    "FAILED request for input {}: {:?}",
                    answer.key.0, answer.key.1
                ));
            }
        }
    }
    failed
}

/// One digest over the response digests of a fixed schedule, in order.
fn answers_digest<'a>(answers: impl IntoIterator<Item = &'a Answer>) -> u64 {
    let mut all = Vec::new();
    for answer in answers {
        all.extend(answer.digest.unwrap_or(0).to_le_bytes());
    }
    fnv64(&all)
}

fn latencies_ms(answers: &[Answer]) -> Vec<(f64, f64)> {
    answers
        .iter()
        .map(|a| (a.at_s, a.latency.as_secs_f64() * 1e3))
        .collect()
}

/// `warm_serve`: one closed-loop connection sending a seeded mix of
/// `analyze` requests over the ten ETE programs, every one of them warm.
/// An op is one request.
pub fn warm_serve(run: &Run) -> Outcome {
    let mut notes = Vec::new();
    let mut e2e = EndToEnd::new(run, WARM_TAIL_SEGMENT, WARM_TAIL_SEGMENT);
    let (sources, server) = set_up_repeatedly(&mut e2e, |_| start_warm(run));
    let program_of = |index: usize| sources[index].program.clone();

    let (attempted, failed, measured) = if run.trace {
        let fixed = |sent: u64, _: Instant| sent >= WARM_TRACED_REQUESTS;
        let mut t = Tracer::new(true, run.origin, 0);
        let before = scrape(&server);
        let (untraced, answers) = warm_loop(run, &server, &sources, Some(&mut t), None, &fixed);
        let mut delta = BTreeMap::new();
        add_delta(&mut delta, &before, &scrape(&server));
        let all: Vec<&Answer> = untraced.iter().chain(&answers).collect();
        let client_s = all.iter().map(|a| a.latency.as_secs_f64()).sum::<f64>() / all.len() as f64;
        let failed = check_answers(&untraced, &program_of, &mut notes)
            + check_answers(&answers, &program_of, &mut notes);
        notes.push(format!(
            "digest responses={:016x}",
            answers_digest(&answers)
        ));
        let mut layers = Layers::default();
        t.set_op(0);
        t.span("probe", |t| probe_warm(t, &mut layers, &sources));
        layers.served = Some(served_delta(&delta, client_s));
        let traced = Traced {
            layers,
            spans: vec![t.into_spans()],
            untraced_s: untraced.iter().map(|a| a.latency.as_secs_f64()).sum(),
            traced_s: answers.iter().map(|a| a.latency.as_secs_f64()).sum(),
        };
        let attempted = (untraced.len() + answers.len()) as u64;
        (attempted, failed, Measured::Traced(Box::new(traced)))
    } else {
        let seconds = run.seconds;
        let window = |_: u64, start: Instant| start.elapsed().as_secs_f64() >= seconds;
        let start = Instant::now();
        let spent = e2e.calibration.spent();
        let cal = Some(&mut e2e.calibration);
        let (answers, _) = warm_loop(run, &server, &sources, None, cal, &window);
        e2e.window_s = (start.elapsed() - (e2e.calibration.spent() - spent)).as_secs_f64();
        e2e.peak_rss_mb = server_pid().map_or(0.0, |pid| peak_rss_mb(&pid));
        let failed = check_answers(&answers, &program_of, &mut notes);
        e2e.latencies = latencies_ms(&answers);
        (answers.len() as u64, failed, Measured::EndToEnd(e2e))
    };
    drop(server);
    notes.push(format!(
        "warm_serve: {} programs x {} configurations warmed; one connection, \
         serve --jobs {JOBS}",
        sources.len(),
        sources::warm_configs().len()
    ));
    Outcome {
        attempted,
        failed,
        notes,
        measured,
    }
}

/// The in-process layer probes of `warm_serve`: every (program,
/// configuration) the set-up pass warmed, analysed cold (the fixpoint
/// work set-up pays), plus the per-request layers a warm hit still runs.
fn probe_warm(t: &mut Tracer, layers: &mut Layers, sources: &[Source]) {
    let configs = sources::warm_configs();
    let options: Vec<_> = configs
        .iter()
        .map(|c| c.options().expect("valid configuration"))
        .collect();
    let outputs: Vec<AnalyzeConfig> = configs
        .iter()
        .flat_map(|c| [false, true].map(|json| AnalyzeConfig { json, ..*c }))
        .collect();
    for source in sources {
        layers.probe_front_end(t, &source.text, &source.program);
        let prep = layers.probe_artifacts(t, &source.program, &options);
        layers.prep_s += prep.as_secs_f64();
        let prepared = Analyzer::new().prepare(&source.program);
        let results: Vec<AnalysisResult> = options
            .iter()
            .map(|o| t.span("core.run", |_| prepared.run(o)))
            .collect();
        for result in &results {
            layers.record_run(result);
            layers.cold_s += result.elapsed.as_secs_f64();
        }
        let runs: Vec<(&str, &AnalysisResult)> = configs
            .iter()
            .zip(&results)
            .map(|(c, r)| (c.label(), r))
            .collect();
        layers.probe_results(t, &prepared, &runs, &outputs);
        // A resubmission of an unchanged program through the session layer.
        let mut session = SessionCache::new();
        session.update(&source.program);
        let (update, took) = t.span("session.update", |_| {
            timed(|| session.update(&source.program))
        });
        layers.session_update_ms.add_duration(took, 1e3);
        assert!(update.reused, "an unchanged program is reused");
    }
}

/// A fresh artifact directory for one `edit_serve` server.
struct ArtifactDir(PathBuf);

impl ArtifactDir {
    fn new(run: &Run, label: usize) -> Self {
        let dir = run
            .out_dir
            .join(format!("artifacts-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the artifact directory can be created");
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ArtifactDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spawns `serve --artifact-dir` and analyses each base program once.
fn start_edit(run: &Run, label: usize) -> (Vec<Source>, ServeProcess, ArtifactDir) {
    let sources = sources::ete_sources();
    let dir = ArtifactDir::new(run, label);
    let path = dir.path().to_str().expect("the output path is UTF-8");
    let server = ServeProcess::start_with_args(&run.specan, JOBS, &["--artifact-dir", path]);
    let mut client = connect(&server);
    for source in &sources {
        let response = client
            .call(&analyze(&source.text, sources::edit_config()))
            .expect("the server answers");
        assert!(response.ok, "pre-warm request failed: {:?}", response.error);
    }
    (sources, server, dir)
}

/// One `edit_serve` step: the edited program, its source, and the answer
/// (with the traced twin's answer second, in a traced run).
struct Step {
    program: Program,
    previous: Program,
    text: String,
    answers: Vec<Answer>,
}

/// The closed edit loop: each step edits one block of a seeded program in
/// place and sends the new version.  With a traced twin — a second server
/// fed the same schedule — each step also goes to the twin inside spans
/// (see `send_pair`).
fn edit_loop(
    run: &Run,
    server: &ServeProcess,
    sources: &[Source],
    mut twin: Option<(&ServeProcess, &mut Tracer)>,
    mut cal: Option<&mut Calibration>,
    stop: &dyn Fn(u64, Instant) -> bool,
) -> Vec<Step> {
    let mut client = connect(server);
    let mut twin_client = twin.as_ref().map(|(server, _)| connect(server));
    let mut current: Vec<Program> = sources.iter().map(|s| s.program.clone()).collect();
    let mut schedule = EditSchedule::new(&current, run.seed);
    let mut steps = Vec::new();
    let start = Instant::now();
    let mut sent = 0;
    while !stop(sent, start) {
        let (index, program) = schedule.next(&current);
        let text = program.to_string();
        let request = analyze(&text, sources::edit_config());
        sent += 1;
        let replies = match (twin.as_mut(), twin_client.as_mut()) {
            (Some((_, t)), Some(twin_client)) => send_pair(t, sent, |traced| {
                if traced {
                    send(twin_client, &request)
                } else {
                    send(&mut client, &request)
                }
            })
            .to_vec(),
            _ => vec![send(&mut client, &request)],
        };
        let at_s = run.origin.elapsed().as_secs_f64();
        let previous = std::mem::replace(&mut current[index], program.clone());
        let answers = replies
            .into_iter()
            .map(|(response, latency)| Answer {
                key: (index, sources::edit_config()),
                at_s,
                latency,
                digest: response_digest(&response),
            })
            .collect();
        steps.push(Step {
            program,
            previous,
            text,
            answers,
        });
        if let Some(cal) = cal.as_deref_mut() {
            cal.tick();
        }
    }
    steps
}

/// Checks each step's answers against a cold in-process analysis of the
/// source the step sent.
fn check_steps(steps: &[Step], notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for step in steps {
        let program = parse_program(&step.text).expect("generated sources parse");
        let reference = reference_digest(&program, &sources::edit_config());
        for answer in &step.answers {
            if answer.digest != Some(reference) {
                failed += 1;
                if failed <= 3 {
                    notes.push(format!("FAILED edit of `{}`", program.name()));
                }
            }
        }
    }
    failed
}

/// `edit_serve`: one closed-loop client applying seeded one-block edits to
/// the ETE programs on a server with an artifact store.  An op is one edit
/// and its `analyze`.
pub fn edit_serve(run: &Run) -> Outcome {
    let mut notes = Vec::new();
    let (attempted, failed, measured) = if run.trace {
        let fixed = |sent: u64, _: Instant| sent >= EDIT_TRACED_STEPS;
        // Two fresh servers take the same schedule step by step, one
        // untraced and one traced.
        let (sources, server, dir) = start_edit(run, 0);
        let (_, twin, twin_dir) = start_edit(run, 1);
        let (before, twin_before) = (scrape(&server), scrape(&twin));
        let mut t = Tracer::new(true, run.origin, 0);
        let steps = edit_loop(run, &server, &sources, Some((&twin, &mut t)), None, &fixed);
        let (mut delta, mut twin_delta) = (BTreeMap::new(), BTreeMap::new());
        add_delta(&mut delta, &before, &scrape(&server));
        add_delta(&mut twin_delta, &twin_before, &scrape(&twin));
        drop((server, dir, twin, twin_dir));
        let total_s = |i: usize| {
            steps
                .iter()
                .map(|s| s.answers[i].latency.as_secs_f64())
                .sum::<f64>()
        };
        let (untraced_s, traced_s) = (total_s(0), total_s(1));
        let served_a = served_delta(&delta, untraced_s / steps.len() as f64);
        let served_b = served_delta(&twin_delta, traced_s / steps.len() as f64);
        let mut failed = check_steps(&steps, &mut notes);
        if !same_server_counts(&served_a, &served_b) {
            failed += 1;
            notes.push("FAILED the two servers' counts differ".into());
        }
        notes.push(format!(
            "digest responses={:016x}",
            answers_digest(steps.iter().map(|s| &s.answers[1]))
        ));
        let mut layers = Layers::default();
        t.set_op(0);
        failed += t.span("probe", |t| probe_edits(t, &mut layers, &sources, &steps));
        layers.served = Some(served_b);
        let traced = Traced {
            layers,
            spans: vec![t.into_spans()],
            untraced_s,
            traced_s,
        };
        let attempted = 2 * steps.len() as u64;
        (attempted, failed, Measured::Traced(Box::new(traced)))
    } else {
        // Ten rounds over the ten programs, so the tail is their p90: the
        // eleventh-slowest of the twenty edits of the two programs that
        // take 130-200 ms an edit, against under 60 ms for the other eight.
        // That sits in the middle of those two programs' edits, where the
        // seed's choice of blocks moves it least, and a run has about four
        // segments to take the median of.
        let round = sources::ete_sources().len();
        let mut e2e = EndToEnd::new(run, round, EDIT_TAIL_ROUNDS * round);
        let (sources, server, dir) = set_up_repeatedly(&mut e2e, |label| start_edit(run, label));
        let seconds = run.seconds;
        let window = |_: u64, start: Instant| start.elapsed().as_secs_f64() >= seconds;
        let start = Instant::now();
        let spent = e2e.calibration.spent();
        let cal = Some(&mut e2e.calibration);
        let steps = edit_loop(run, &server, &sources, None, cal, &window);
        e2e.window_s = (start.elapsed() - (e2e.calibration.spent() - spent)).as_secs_f64();
        e2e.peak_rss_mb = server_pid().map_or(0.0, |pid| peak_rss_mb(&pid));
        drop((server, dir));
        let failed = check_steps(&steps, &mut notes);
        let answers: Vec<Answer> = steps.into_iter().flat_map(|s| s.answers).collect();
        e2e.latencies = latencies_ms(&answers);
        (answers.len() as u64, failed, Measured::EndToEnd(e2e))
    };
    notes.push(format!(
        "edit_serve: one-block edits of the ETE programs at {} lines; serve --jobs {JOBS} \
         --artifact-dir",
        sources::ETE_LINES
    ));
    Outcome {
        attempted,
        failed,
        notes,
        measured,
    }
}

/// Mirrors the server's edit path in process — `SessionCache::update`
/// seeding each edit from the previous version, then the run — beside a
/// cold analysis of the same version, and probes the layers on both.
/// Returns the number of steps whose mirrored output differs from the
/// server's.
fn probe_edits(t: &mut Tracer, layers: &mut Layers, sources: &[Source], steps: &[Step]) -> u64 {
    let config = sources::edit_config();
    let options = config.options().expect("valid configuration");
    let mut session = SessionCache::new();
    for source in sources {
        session.update(&source.program).prepared.run(&options);
    }
    let mut failed = 0;
    for step in steps {
        layers.probe_front_end(t, &step.text, &step.previous);
        let (update, took) = t.span("session.update", |_| {
            timed(|| session.update(&step.program))
        });
        layers.session_update_ms.add_duration(took, 1e3);
        let seeded = t.span("core.run", |_| update.prepared.run(&options));
        layers.record_run(&seeded);
        let stats = update.prepared.cache_stats();
        layers.summary_hits += stats.summary_hits;
        layers.summary_misses += stats.summary_misses;
        let outputs =
            layers.probe_results(t, &update.prepared, &[("speculative", &seeded)], &[config]);
        if step.answers[0].digest != Some(output_digest(&outputs[0])) {
            failed += 1;
        }

        let prep = layers.probe_artifacts(t, &step.program, &[options]);
        layers.prep_s += prep.as_secs_f64();
        let cold = t.span("core.run", |_| {
            Analyzer::new().prepare(&step.program).run(&options)
        });
        layers.cold_run_ms.add_duration(cold.elapsed, 1e3);
        layers.cold_s += cold.elapsed.as_secs_f64();
    }
    failed
}
