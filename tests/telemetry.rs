//! Property suite for the telemetry layer: histogram quantile estimates
//! against a sorted-vector oracle, the Prometheus text exposition parsed
//! back line by line, lock-free recording reconciled across threads, and a
//! live `specan serve` whose `metrics` scrape must agree with its `status`
//! document after a pipelined burst.
//!
//! Telemetry is a side channel: nothing here asserts on response bytes,
//! and the equivalence suites prove those stay identical with it enabled.

use std::path::Path;
use std::time::Duration;

use spec_bench::service_harness::{random_program_text, Rng, ServeProcess};
use spec_core::batch::{PanelKind, PanelSpec};
use spec_core::service::{Request, ServiceClient};
use spec_telemetry::{Histogram, Registry};

fn specan() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_specan"))
}

/// The value of one exact series line (`name{labels}`) in an exposition.
fn series_value(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("exposition lacks `{series}`:\n{exposition}"))
        .parse()
        .expect("series value parses as a float")
}

/// A named counter out of a `status` JSON document.
fn status_counter(status: &str, name: &str) -> u64 {
    status
        .split(&format!("\"{name}\": "))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("status reports `{name}`: {status}"))
}

#[test]
fn histogram_quantiles_bracket_the_sorted_oracle() {
    // Log-uniform durations over 1 µs .. 10 s — the full range the serve
    // phases actually produce — recorded into one histogram and into a
    // plain vector.  The log₂-bucket estimate must bracket the oracle:
    // never below the true quantile, never more than 2× above it.
    let mut rng = Rng::new(0x07e1_e3e7);
    let histogram = Histogram::default();
    let mut nanos: Vec<u64> = Vec::new();
    for _ in 0..5_000 {
        let log = rng.below(1_000_000) as f64 / 1_000_000.0 * 7.0;
        let value = (1e3 * 10f64.powf(log)) as u64;
        nanos.push(value);
        histogram.record(Duration::from_nanos(value));
    }
    nanos.sort_unstable();
    let snapshot = histogram.snapshot();
    assert_eq!(snapshot.count, 5_000);
    assert_eq!(snapshot.sum_nanos, nanos.iter().sum::<u64>());
    for q in [0.5, 0.9, 0.99, 1.0] {
        let rank = ((q * nanos.len() as f64).ceil() as usize).max(1);
        let oracle = nanos[rank - 1] as f64 * 1e-9;
        let estimate = snapshot.quantile(q);
        assert!(
            estimate >= oracle - 1e-12,
            "q={q}: estimate {estimate} under-reports the oracle {oracle}"
        );
        assert!(
            estimate <= oracle * 2.0,
            "q={q}: estimate {estimate} exceeds 2x the oracle {oracle}"
        );
    }
}

#[test]
fn exposition_renders_escapes_and_parses_back() {
    let registry = Registry::new();
    let hits = registry.counter(
        "demo_hits_total",
        "Hits by tag.",
        &[("tag", "wei\"rd\nva\\lue")],
    );
    hits.add(3);
    let depth = registry.gauge("demo_depth", "A signed level.", &[]);
    depth.set(-2.5);
    let latency = registry.histogram("demo_seconds", "Demo latency.", &[("op", "x")]);
    for micros in [5u64, 50, 500, 5_000, 50_000] {
        latency.record(Duration::from_micros(micros));
    }
    let exposition = registry.snapshot().render();

    // Family metadata, one HELP/TYPE pair per family.
    for family in ["demo_hits_total", "demo_depth", "demo_seconds"] {
        assert_eq!(
            exposition
                .lines()
                .filter(|l| l.starts_with(&format!("# HELP {family} ")))
                .count(),
            1,
            "{exposition}"
        );
        assert_eq!(
            exposition
                .lines()
                .filter(|l| l.starts_with(&format!("# TYPE {family} ")))
                .count(),
            1,
            "{exposition}"
        );
    }
    // Label escaping: backslash, quote and newline all round-trip.
    assert!(
        exposition.contains("demo_hits_total{tag=\"wei\\\"rd\\nva\\\\lue\"} 3"),
        "{exposition}"
    );
    assert!(exposition.contains("demo_depth -2.5"), "{exposition}");

    // Every series line parses: `name` or `name{...}`, one space, a float.
    for line in exposition.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("series line has a value");
        assert!(!series.is_empty(), "{line}");
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "{line}");
            assert!(open > 0, "{line}");
        }
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable value in `{line}`"
        );
    }

    // The histogram's cumulative buckets are nondecreasing, the +Inf
    // bucket equals _count, and _sum carries the recorded total.
    let buckets: Vec<u64> = exposition
        .lines()
        .filter(|l| l.starts_with("demo_seconds_bucket{op=\"x\",le="))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(!buckets.is_empty(), "{exposition}");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    assert_eq!(*buckets.last().unwrap(), 5, "+Inf bucket counts everything");
    assert_eq!(
        series_value(&exposition, "demo_seconds_count{op=\"x\"}"),
        5.0
    );
    let sum = series_value(&exposition, "demo_seconds_sum{op=\"x\"}");
    let expected = (5 + 50 + 500 + 5_000 + 50_000) as f64 * 1e-6;
    assert!((sum - expected).abs() < 1e-9, "sum {sum} != {expected}");
}

#[test]
fn concurrent_recording_reconciles_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = Registry::new();
    let counter = registry.counter("reconcile_total", "Increments.", &[]);
    let histogram = registry.histogram("reconcile_seconds", "Recorded values.", &[]);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = counter.clone();
            let histogram = histogram.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    histogram.record(Duration::from_micros((i % 64) + 1));
                }
            });
        }
    });
    let per_thread_nanos: u64 = (0..PER_THREAD).map(|i| ((i % 64) + 1) * 1_000).sum();
    assert_eq!(counter.get(), THREADS * PER_THREAD);
    let snapshot = histogram.snapshot();
    assert_eq!(snapshot.count, THREADS * PER_THREAD);
    assert_eq!(snapshot.sum_nanos, THREADS * per_thread_nanos);
    assert_eq!(snapshot.buckets.iter().sum::<u64>(), snapshot.count);
}

#[test]
fn live_server_metrics_reconcile_with_status() {
    const SCANS: u64 = 20;
    let mut rng = Rng::new(0x11e_7e1);
    let sources: Vec<String> = (0..2)
        .map(|i| random_program_text(&mut rng, &format!("tel{i:02}")))
        .collect();
    let server = ServeProcess::start(specan(), 2);
    let mut client = ServiceClient::connect(server.addr()).expect("server connects");

    let scan = |i: u64| Request::Scan {
        sources: vec![sources[(i % 2) as usize].clone()],
        panel: PanelSpec {
            kind: PanelKind::LeakCheck,
            cache_lines: 8,
        },
        json: true,
    };
    // Warm both programs sequentially first, so exactly two cold prepares
    // happen (a concurrent duplicate prepare would blur the tier counts).
    for i in 0..2 {
        let response = client.call(&scan(i)).expect("warmup scan");
        assert!(response.ok, "{:?}", response.error);
    }
    // Then a pipelined burst: every request in flight before the first
    // answer is read, exercising the queue-wait histogram and the
    // concurrent count-at-completion path.
    let mut ids = Vec::new();
    for i in 2..SCANS {
        ids.push(client.send(&scan(i)).expect("scan submits"));
    }
    for _ in &ids {
        let response = client.recv().expect("scan answers");
        assert!(response.ok, "{:?}", response.error);
    }

    let metrics = client.call(&Request::Metrics).expect("metrics scrapes");
    assert!(metrics.ok);
    let exposition = metrics.output;
    // The ledger: every scan completed ok, and the scrape counted itself
    // before rendering.
    assert_eq!(
        series_value(
            &exposition,
            "spec_requests_total{kind=\"scan\",outcome=\"ok\"}"
        ),
        SCANS as f64
    );
    assert_eq!(
        series_value(
            &exposition,
            "spec_requests_total{kind=\"metrics\",outcome=\"ok\"}"
        ),
        1.0
    );
    // Phase histograms saw every queued request.
    for series in [
        "spec_request_seconds_count{kind=\"scan\"}",
        "spec_phase_seconds_count{phase=\"run\"}",
        "spec_queue_wait_seconds_count",
    ] {
        assert_eq!(series_value(&exposition, series), SCANS as f64, "{series}");
    }
    // Cache tiers: 2 distinct programs prepared cold, the rest warm hits
    // from the shared L1, whichever worker prepared them.
    assert_eq!(
        series_value(
            &exposition,
            "spec_cache_acquire_seconds_count{tier=\"cold\"}"
        ),
        2.0
    );
    assert_eq!(
        series_value(&exposition, "spec_cache_acquire_seconds_count{tier=\"l1\"}"),
        (SCANS - 2) as f64
    );

    // The whole exposition stays parseable under load.
    for line in exposition.lines().filter(|l| !l.starts_with('#')) {
        let value = line.rsplit_once(' ').map(|(_, v)| v).unwrap_or("");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in `{line}`"
        );
    }

    // `status` reads the same ledger through the same snapshot: the scans,
    // the metrics scrape, and the status request itself.
    let status = client.call(&Request::Status).expect("status answers");
    assert!(status.ok);
    assert_eq!(status_counter(&status.output, "requests"), SCANS + 2);
    assert_eq!(status_counter(&status.output, "errors"), 0);
}
