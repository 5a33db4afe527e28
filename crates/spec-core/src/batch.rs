//! Batch scanning: analyse a *bundle* of programs under a labelled
//! configuration panel, fanned out across threads, with mergeable reports.
//!
//! [`crate::session`] scales one program across threads of one process; this
//! module scales a **panel** — programs × labelled configurations — across
//! programs.  The unit of exchange between machines is a deterministic JSON
//! report ([`BatchReport`], timing stripped via
//! [`Report::without_timing`]), so the merged result of a sharded run is
//! **bit-identical** to an in-order run of the same panel, no matter how the
//! panel was split or which program finished first.  That determinism is
//! what makes the reports CI-friendly: they can be diffed, cached, asserted
//! against and merged across machines.
//!
//! The pipeline:
//!
//! 1. [`discover_programs`] expands directories into a sorted, de-duplicated
//!    list of `.spec` files — the *bundle*;
//! 2. [`parse_bundle`] reads, parses, name-checks and fingerprints every
//!    file of the bundle exactly once; the programs it returns are the
//!    programs analysed, and their fingerprints are what the
//!    [`BundleStamp`] checksum folds over;
//! 3. [`run_bundle_slice`] (or [`run_bundle`] for the whole bundle) runs the
//!    panel over its slice through [`fan_out_catching`] — a dynamic work
//!    queue of scoped threads that turns a panic into an error naming the
//!    program — with [`ProgramVerdict::run`] as the per-program step, the
//!    one every bundle path (cold scan, `scan --session-dir`, `serve`)
//!    shares;
//! 4. [`BatchReport::merge`] recombines per-machine slice reports in bundle
//!    order — verifying, via the [`BundleStamp`] every report carries (the
//!    [`panel_checksum`] over the full bundle's program fingerprints plus
//!    the slice position), that the inputs are complete, compatible,
//!    non-overlapping slices of one bundle — and the result serializes with
//!    [`BatchReport::to_json`] / parses back with [`BatchReport::from_json`].
//!    `specan merge` is this fan-in as a CLI step for artifacts produced on
//!    different machines.
//!
//! # Example
//!
//! ```rust
//! use spec_core::batch::{run_bundle, BatchReport, PanelKind, PanelSpec};
//!
//! let dir = std::env::temp_dir().join("spec-batch-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tiny.spec");
//! std::fs::write(&path, "program tiny\nregion t 64\nblock main entry:\n  load t[0]\n  ret\n").unwrap();
//!
//! let panel = PanelSpec { kind: PanelKind::LeakCheck, cache_lines: 8 };
//! let report = run_bundle(&[path], panel, 1).unwrap();
//! assert_eq!(report.programs.len(), 1);
//! assert!(!report.any_leak());
//! // The JSON round-trips losslessly — the merge protocol depends on it.
//! let parsed = BatchReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(parsed, report);
//! ```

use std::collections::HashSet;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use spec_cache::CacheConfig;
use spec_ir::fingerprint::{combined_fingerprint, program_fingerprint, Fingerprint};
use spec_ir::text::parse_program;
use spec_ir::Program;

use crate::cache_session::relock;
use crate::json::{self, JsonValue};
use crate::options::AnalysisOptions;
use crate::session::{
    comparison_configs, Analyzer, MergeError, PreparedProgram, Report, ReportRow,
};

/// The label of the row a program's leak verdict is read from: every panel
/// kind includes the paper's full speculative configuration under this
/// label, and a program *leaks* iff that row has a nonzero
/// `unsafe_secret_accesses` count.
pub const VERDICT_LABEL: &str = "speculative";

/// Which labelled configuration panel a scan runs per program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanelKind {
    /// The two-row leak panel: non-speculative `baseline` vs. the paper's
    /// full `speculative` configuration.  The cheap CI gate.
    LeakCheck,
    /// The standard five-row comparison panel of
    /// [`comparison_configs`] — the paper's tables.
    Comparison,
}

impl PanelKind {
    fn as_str(self) -> &'static str {
        match self {
            PanelKind::LeakCheck => "leak-check",
            PanelKind::Comparison => "comparison",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "leak-check" => Some(PanelKind::LeakCheck),
            "comparison" => Some(PanelKind::Comparison),
            _ => None,
        }
    }
}

/// The serializable description of a panel: which configuration family to
/// run and on what cache geometry.  Carried inside every [`BatchReport`]
/// so slice reports are self-describing and a merge can reject slices that
/// ran different panels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PanelSpec {
    /// The configuration family.
    pub kind: PanelKind,
    /// Cache size in 64-byte lines (fully associative, the paper's model).
    pub cache_lines: usize,
}

impl PanelSpec {
    /// Expands the spec into the labelled configurations every program of
    /// the bundle is analysed under.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::InvalidPanel`] when the cache geometry is
    /// degenerate (e.g. zero lines).
    pub fn configs(&self) -> Result<Vec<(String, AnalysisOptions)>, BatchError> {
        let cache = CacheConfig::fully_associative(self.cache_lines, 64);
        let check = |builder: crate::options::AnalysisOptionsBuilder| {
            builder
                .cache(cache)
                .build()
                .map_err(|err| BatchError::InvalidPanel(err.to_string()))
        };
        match self.kind {
            PanelKind::LeakCheck => Ok(vec![
                (
                    "baseline".to_string(),
                    check(AnalysisOptions::builder().baseline())?,
                ),
                (
                    VERDICT_LABEL.to_string(),
                    check(AnalysisOptions::builder())?,
                ),
            ]),
            PanelKind::Comparison => {
                check(AnalysisOptions::builder())?; // validate the geometry once
                Ok(comparison_configs(cache))
            }
        }
    }

    /// The stable signature folded into every bundle checksum: a checksum
    /// only matches across runs of the *same* configuration family on the
    /// same geometry.
    fn signature(&self) -> String {
        format!("specan-panel:{}:{}", self.kind.as_str(), self.cache_lines)
    }

    pub(crate) fn to_json(self) -> String {
        format!(
            "{{\"kind\": {}, \"cache_lines\": {}}}",
            json::string(self.kind.as_str()),
            self.cache_lines
        )
    }

    pub(crate) fn from_json(value: &JsonValue) -> Result<Self, BatchError> {
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .and_then(PanelKind::parse)
            .ok_or_else(|| BatchError::malformed("panel kind"))?;
        let cache_lines = value
            .get("cache_lines")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| BatchError::malformed("panel cache_lines"))?
            as usize;
        Ok(PanelSpec { kind, cache_lines })
    }
}

/// Where a report's programs sit inside the full panel — the integrity
/// stamp that lets a cross-machine fan-in ([`BatchReport::merge`]) verify
/// it is combining **complete, compatible** slices.
///
/// The `checksum` is [`panel_checksum`] over the *whole* bundle (every
/// program's structural fingerprint, in bundle order, folded with the
/// panel signature), so every slice of one `--shard K/N` matrix carries the
/// same checksum while any other bundle — an extra file, an edited program,
/// a different panel — carries a different one.  `start`/`total` place the
/// slice: concatenating slices whose starts tile `0..total` reproduces the
/// bundle, and anything else (overlap, gap, missing machine) is detected
/// before a merged report exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleStamp {
    /// [`panel_checksum`] of the full bundle this report slices.
    pub checksum: Fingerprint,
    /// Number of programs in the full bundle.
    pub total: usize,
    /// Bundle index of this report's first program.
    pub start: usize,
}

impl BundleStamp {
    /// The stamp of the slice starting at bundle index `start`, given the
    /// fingerprints of the *whole* bundle in bundle order.
    pub fn new(
        panel: PanelSpec,
        fingerprints: impl ExactSizeIterator<Item = Fingerprint>,
        start: usize,
    ) -> Self {
        let total = fingerprints.len();
        BundleStamp {
            checksum: panel_checksum(panel, fingerprints),
            total,
            start,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"checksum\": {}, \"total\": {}, \"start\": {}}}",
            json::string(&self.checksum.to_hex()),
            self.total,
            self.start
        )
    }

    fn from_json(value: &JsonValue) -> Result<Self, BatchError> {
        let checksum = value
            .get("checksum")
            .and_then(JsonValue::as_str)
            .and_then(Fingerprint::from_hex)
            .ok_or_else(|| BatchError::malformed("bundle checksum"))?;
        let field = |key: &str| -> Result<usize, BatchError> {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| BatchError::malformed(&format!("bundle {key}")))
        };
        Ok(BundleStamp {
            checksum,
            total: field("total")?,
            start: field("start")?,
        })
    }
}

/// The checksum of one panel over an ordered list of program fingerprints
/// — the value a [`BundleStamp`] carries.  Reuses the stable FNV core of
/// [`spec_ir::fingerprint`], so checksums survive disk, sockets and
/// process boundaries.
pub fn panel_checksum(
    panel: PanelSpec,
    fingerprints: impl IntoIterator<Item = Fingerprint>,
) -> Fingerprint {
    combined_fingerprint(&panel.signature(), fingerprints)
}

/// One program of a bundle, read and parsed once by [`parse_bundle`].
#[derive(Debug)]
pub struct BundleProgram {
    /// The file the program was read from.
    pub path: PathBuf,
    /// The parsed program — the very program that is analysed.
    pub program: Program,
    /// Its structural fingerprint (what the bundle checksum folds over).
    pub fingerprint: Fingerprint,
}

/// Reads, parses and fingerprints every file of `files` (the full bundle,
/// in bundle order) exactly once, rejecting duplicate program names.
///
/// Every bundle command analyses the programs this pass returns, so a file
/// saved while a scan runs can never pair the stamp's fingerprint of one
/// content with verdicts of another.  Each machine of a `--shard K/N`
/// matrix parses the whole bundle, so its slice is stamped against the
/// same full-bundle checksum; parsing is cheap next to analysis.
///
/// # Errors
///
/// Returns [`BatchError::Io`]/[`BatchError::Parse`] for unreadable or
/// invalid files and [`BatchError::DuplicateProgram`] when two files
/// declare the same program name.
pub fn parse_bundle(files: &[PathBuf]) -> Result<Vec<BundleProgram>, BatchError> {
    let mut names: HashSet<String> = HashSet::with_capacity(files.len());
    let mut bundle = Vec::with_capacity(files.len());
    for path in files {
        let source = std::fs::read_to_string(path).map_err(|error| BatchError::Io {
            path: path.clone(),
            error,
        })?;
        let program = parse_program(&source).map_err(|err| BatchError::Parse {
            path: path.clone(),
            message: err.to_string(),
        })?;
        if !names.insert(program.name().to_string()) {
            return Err(BatchError::DuplicateProgram {
                name: program.name().to_string(),
            });
        }
        bundle.push(BundleProgram {
            path: path.clone(),
            fingerprint: program_fingerprint(&program),
            program,
        });
    }
    Ok(bundle)
}

/// Errors of the batch layer.
#[derive(Debug)]
pub enum BatchError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A program file failed to parse.
    Parse {
        /// The offending file.
        path: PathBuf,
        /// The parser's message.
        message: String,
    },
    /// No `.spec` files were found.
    NoPrograms,
    /// A discovered path is not valid UTF-8.  `analyze` reads and names
    /// programs through the path's `display()` string, which would be
    /// lossy — and could name another file — for such a path.
    NonUtf8Path {
        /// The offending path (lossily rendered).
        path: PathBuf,
    },
    /// Two bundle files declare the same program name, which would make the
    /// merged report ambiguous.
    DuplicateProgram {
        /// The duplicated program name.
        name: String,
    },
    /// The panel configuration is invalid.
    InvalidPanel(String),
    /// The analysis of one program panicked.
    Panicked {
        /// The program's file.
        path: PathBuf,
        /// The panic's message.
        message: String,
    },
    /// A report is not valid JSON.
    Json(json::JsonError),
    /// A report is valid JSON but not a valid report.
    MalformedReport(String),
    /// Shard reports could not be merged.
    Merge(MergeError),
    /// Shard reports ran different panels.
    PanelMismatch,
    /// Shard reports disagree about the bundle they slice: different
    /// checksums or totals.
    StampMismatch,
    /// Two shard reports cover the same bundle position.
    OverlappingShards {
        /// The first doubly-covered bundle index.
        index: usize,
    },
    /// The shard reports do not cover the whole bundle.
    IncompleteBundle {
        /// Programs covered by the supplied slices.
        covered: usize,
        /// Programs in the full bundle.
        total: usize,
    },
    /// The merged verdicts do not reproduce the bundle checksum the shards
    /// claim — a slice was tampered with or belongs to a different bundle.
    ChecksumMismatch,
}

impl BatchError {
    fn malformed(what: &str) -> Self {
        BatchError::MalformedReport(format!("missing or malformed {what}"))
    }
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            BatchError::Parse { path, message } => write!(f, "{}: {message}", path.display()),
            BatchError::NoPrograms => write!(f, "no .spec programs found"),
            BatchError::NonUtf8Path { path } => write!(
                f,
                "`{}` is not valid UTF-8 (program paths must be UTF-8: programs \
                 are read and reported through their rendered path)",
                path.display()
            ),
            BatchError::DuplicateProgram { name } => {
                write!(f, "program `{name}` appears more than once in the bundle")
            }
            BatchError::InvalidPanel(message) => write!(f, "invalid panel: {message}"),
            BatchError::Panicked { path, message } => {
                write!(f, "{}: analysis panicked: {message}", path.display())
            }
            BatchError::Json(err) => write!(f, "{err}"),
            BatchError::MalformedReport(message) => write!(f, "malformed report: {message}"),
            BatchError::Merge(err) => write!(f, "{err}"),
            BatchError::PanelMismatch => write!(f, "shard reports ran different panels"),
            BatchError::StampMismatch => write!(
                f,
                "shard reports do not slice the same bundle (bundle checksum \
                 or total differs)"
            ),
            BatchError::OverlappingShards { index } => write!(
                f,
                "shard reports overlap: bundle position {index} is covered twice"
            ),
            BatchError::IncompleteBundle { covered, total } => write!(
                f,
                "shard reports cover only {covered} of {total} bundle programs \
                 (a slice is missing)"
            ),
            BatchError::ChecksumMismatch => write!(
                f,
                "merged programs do not reproduce the claimed bundle checksum"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<json::JsonError> for BatchError {
    fn from(err: json::JsonError) -> Self {
        BatchError::Json(err)
    }
}

impl From<MergeError> for BatchError {
    fn from(err: MergeError) -> Self {
        BatchError::Merge(err)
    }
}

/// Expands files and directories into the bundle's program list:
/// directories are walked recursively for `*.spec` files, explicit files
/// are taken as-is, and the result is sorted and de-duplicated — the
/// canonical panel order every sharding of the bundle reproduces.
///
/// # Errors
///
/// Returns [`BatchError::Io`] for unreadable paths and
/// [`BatchError::NoPrograms`] when the expansion comes up empty.
pub fn discover_programs(paths: &[PathBuf]) -> Result<Vec<PathBuf>, BatchError> {
    // Directory symlink loops (`sub/back -> ..`) would recurse forever;
    // tracking each directory's canonical form visits every real directory
    // once, loop or no loop.
    fn walk(
        dir: &Path,
        out: &mut Vec<PathBuf>,
        visited: &mut Vec<PathBuf>,
    ) -> Result<(), BatchError> {
        let io_err = |error| BatchError::Io {
            path: dir.to_path_buf(),
            error,
        };
        let canonical = std::fs::canonicalize(dir).map_err(io_err)?;
        if visited.contains(&canonical) {
            return Ok(());
        }
        visited.push(canonical);
        let entries = std::fs::read_dir(dir).map_err(io_err)?;
        for entry in entries {
            let path = entry.map_err(io_err)?.path();
            if path.is_dir() {
                walk(&path, out, visited)?;
            } else if path.extension().is_some_and(|ext| ext == "spec") {
                // Programs are read and reported through their rendered
                // path; reject a lossy one here, where the error can name
                // the file, instead of failing opaquely later.
                if path.to_str().is_none() {
                    return Err(BatchError::NonUtf8Path { path });
                }
                out.push(path);
            }
        }
        Ok(())
    }

    let mut programs = Vec::new();
    let mut visited = Vec::new();
    for path in paths {
        if path.is_dir() {
            walk(path, &mut programs, &mut visited)?;
        } else if path.is_file() {
            // Explicit files get the same UTF-8 guard as discovered ones.
            if path.to_str().is_none() {
                return Err(BatchError::NonUtf8Path { path: path.clone() });
            }
            programs.push(path.clone());
        } else {
            return Err(BatchError::Io {
                path: path.clone(),
                error: std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
            });
        }
    }
    programs.sort();
    programs.dedup();
    if programs.is_empty() {
        return Err(BatchError::NoPrograms);
    }
    Ok(programs)
}

/// The K-th (1-based) of exactly `n` contiguous, near-even slices of
/// `n_items` (the first `n_items % n` slices hold one extra item).  Slices
/// may be empty when `n > n_items` — a CI fleet is allowed more machines
/// than programs.  This is the split arithmetic of the CLI's `--shard K/N`.
///
/// # Panics
///
/// Panics unless `1 <= k <= n`.
pub fn shard_slice(n_items: usize, k: usize, n: usize) -> Range<usize> {
    assert!(k >= 1 && k <= n, "shard index {k} out of 1..={n}");
    let base = n_items / n;
    let extra = n_items % n;
    let start = (k - 1) * base + (k - 1).min(extra);
    start..start + base + usize::from(k - 1 < extra)
}

/// Runs a whole bundle `jobs`-wide and returns its report.
///
/// `programs` is the bundle in panel order (normally the output of
/// [`discover_programs`]).  The report is bit-identical whatever `jobs` is
/// — parallelism is an execution detail, not a semantic one.
///
/// # Errors
///
/// Everything [`run_bundle_slice`] raises.
pub fn run_bundle(
    programs: &[PathBuf],
    panel: PanelSpec,
    jobs: usize,
) -> Result<BatchReport, BatchError> {
    run_bundle_slice(programs, 0..programs.len(), panel, jobs)
}

/// Runs the `slice` of a bundle `jobs`-wide and returns the **slice
/// report**, stamped against the full bundle: its [`BundleStamp`] carries
/// the checksum over *all* of `bundle`, so per-machine artifacts of a
/// `--shard K/N` matrix recombine — and verify — through
/// [`BatchReport::merge`].  An empty slice is legal (a CI fleet may have
/// more machines than programs) and yields a stamped, program-free report.
///
/// The whole bundle is parsed once ([`parse_bundle`]); the slice's programs
/// are then prepared and run from that parse, `jobs` at a time, each on one
/// suite thread so `jobs` programs never fan out into `jobs × configs`
/// threads.  A prepared program is dropped as soon as its verdict exists.
///
/// # Errors
///
/// [`BatchError::NoPrograms`] for an empty *bundle* (not an empty slice),
/// [`BatchError::InvalidPanel`] for a degenerate panel, [`parse_bundle`]'s
/// errors, and [`BatchError::Panicked`] naming a program whose analysis
/// panicked.
pub fn run_bundle_slice(
    bundle: &[PathBuf],
    slice: Range<usize>,
    panel: PanelSpec,
    jobs: usize,
) -> Result<BatchReport, BatchError> {
    if bundle.is_empty() {
        return Err(BatchError::NoPrograms);
    }
    let configs = panel.configs()?;
    let parsed = parse_bundle(bundle)?;
    let stamp = BundleStamp::new(panel, parsed.iter().map(|p| p.fingerprint), slice.start);
    let programs: Vec<&BundleProgram> = parsed[slice].iter().collect();
    Ok(BatchReport {
        panel,
        stamp,
        programs: run_cold(&programs, &configs, jobs)?,
    })
}

/// Prepares and runs every program of `programs` `jobs`-wide, returning
/// their verdicts in input order.  Each program is prepared cold on one
/// suite thread and dropped once its verdict exists.
pub(crate) fn run_cold(
    programs: &[&BundleProgram],
    configs: &[(String, AnalysisOptions)],
    jobs: usize,
) -> Result<Vec<ProgramVerdict>, BatchError> {
    // Largest programs first, with instruction count standing in for
    // analysis cost: a big program late in bundle order would otherwise
    // start last and stretch the whole scan by its run.
    let mut queue: Vec<usize> = (0..programs.len()).collect();
    queue.sort_by_key(|&i| std::cmp::Reverse(programs[i].program.instruction_count()));
    let slots = fan_out_catching(&queue, jobs, |&i| {
        let prepared = Analyzer::new()
            .max_suite_threads(NonZeroUsize::MIN)
            .prepare(&programs[i].program);
        ProgramVerdict::run(&prepared, configs)
    });
    let mut slots: Vec<(usize, Result<ProgramVerdict, String>)> =
        queue.into_iter().zip(slots).collect();
    slots.sort_by_key(|(i, _)| *i);
    slots
        .into_iter()
        .map(|(i, slot)| {
            slot.map_err(|message| BatchError::Panicked {
                path: programs[i].path.clone(),
                message,
            })
        })
        .collect()
}

/// Renders a `catch_unwind` payload as the panic's message (the common
/// `&str`/`String` payloads verbatim, a placeholder otherwise).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Fans `work` out over `items` across at most `threads` workers (the
/// calling thread plus scoped threads) pulling from one dynamic queue, and
/// returns the results in input order.  Per-item panics are caught: a
/// poisoned item lands in its slot as `Err(message)` instead of unwinding
/// the pool — which, inside `serve`'s worker threads, would kill the entire
/// server, and in a CLI scan would end the process without naming the
/// program.
pub fn fan_out_catching<T, R, F>(items: &[T], threads: usize, work: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<R, String>>>> =
        Mutex::new(items.iter().map(|_| None).collect());
    let worker = || loop {
        let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(item) = items.get(index) else {
            break;
        };
        // AssertUnwindSafe: a panicking `work` may leave `item`'s interior
        // caches half-updated, but every shared structure it can reach is
        // lock-protected and re-acquired through `relock`, and the item's
        // result is discarded as an error.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(item)))
            .map_err(|payload| panic_message(payload.as_ref()));
        relock(&slots)[index] = Some(outcome);
    };
    // The calling thread is one of the workers: `threads == 1` spawns
    // nothing, and one stream of items keeps the caller's malloc arena.
    std::thread::scope(|scope| {
        for _ in 1..threads.min(items.len()) {
            scope.spawn(worker);
        }
        worker();
    });
    slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        // Every index below `items.len()` is claimed by some worker, and
        // the guarded region cannot unwind past the slot write.
        .map(|slot| slot.expect("every item fills its slot"))
        .collect()
}

/// One program's slice of a [`BatchReport`]: its per-configuration report,
/// its structural fingerprint (the [`spec_ir::fingerprint`] value the
/// bundle checksum folds over), and the leak verdict derived from the
/// [`VERDICT_LABEL`] row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramVerdict {
    /// `true` iff the program has a secret-indexed access that is not
    /// provably timing-neutral under the full speculative configuration.
    pub leak: bool,
    /// The structural fingerprint of the analysed program.
    pub fingerprint: Fingerprint,
    /// The program's labelled (timing-stripped) report.
    pub report: Report,
}

impl ProgramVerdict {
    /// Runs the panel's `configs` on `prepared` and derives its verdict —
    /// the per-program step every bundle path shares, which is why their
    /// reports agree byte for byte.
    pub fn run(prepared: &PreparedProgram, configs: &[(String, AnalysisOptions)]) -> Self {
        let report = prepared.run_suite(configs).report().without_timing();
        Self::from_report(report, prepared.fingerprint())
    }

    /// Derives the leak verdict from the report's [`VERDICT_LABEL`] row —
    /// the one place the "leaks iff `unsafe_secret_accesses > 0` under the
    /// full speculative configuration" rule lives.
    pub fn from_report(report: Report, fingerprint: Fingerprint) -> Self {
        let leak = report
            .rows
            .iter()
            .find(|row| row.label == VERDICT_LABEL)
            .is_some_and(|row| row.unsafe_secret_accesses > 0);
        Self {
            leak,
            fingerprint,
            report,
        }
    }
}

/// The deterministic merged report of a batch scan: one
/// [`ProgramVerdict`] per program, in panel order, under one panel, with
/// the [`BundleStamp`] placing the covered programs inside the full
/// bundle.
///
/// Equal panels over equal programs produce equal reports (`PartialEq`,
/// and bit-identical [`BatchReport::to_json`]) regardless of sharding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// The panel every program was analysed under.
    pub panel: PanelSpec,
    /// The slice's place in the full bundle.
    pub stamp: BundleStamp,
    /// Per-program results, in panel (bundle) order.
    pub programs: Vec<ProgramVerdict>,
}

impl BatchReport {
    /// Combines shard reports into the **complete** bundle report,
    /// verifying that they are compatible slices of one bundle and that
    /// together they cover it exactly.  This is the cross-machine fan-in
    /// behind `specan merge`: it refuses to fabricate a "green" merged
    /// artifact out of mismatched, overlapping or incomplete slices.
    ///
    /// Inputs are sorted by their bundle position and verified: same panel,
    /// same checksum and total, contiguous non-overlapping coverage of the
    /// whole bundle; the checksum is then recomputed from the merged
    /// program fingerprints and compared against the claim.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::Merge`] for an empty input,
    /// [`BatchError::PanelMismatch`]/[`BatchError::StampMismatch`] for
    /// incompatible shards, [`BatchError::OverlappingShards`] when two
    /// slices cover the same bundle position,
    /// [`BatchError::IncompleteBundle`] for a gap or a missing slice,
    /// [`BatchError::ChecksumMismatch`] when the merge does not reproduce
    /// the claimed checksum, and [`BatchError::DuplicateProgram`] /
    /// duplicate-label [`BatchError::Merge`] for ambiguous contents.
    pub fn merge(shards: impl IntoIterator<Item = BatchReport>) -> Result<Self, BatchError> {
        let mut shards: Vec<BatchReport> = shards.into_iter().collect();
        let first = shards.first().ok_or(BatchError::Merge(MergeError::Empty))?;
        let (panel, reference) = (first.panel, first.stamp);
        for shard in &shards {
            if shard.panel != panel {
                return Err(BatchError::PanelMismatch);
            }
            if shard.stamp.checksum != reference.checksum || shard.stamp.total != reference.total {
                return Err(BatchError::StampMismatch);
            }
        }
        // Slices in bundle order; verify they tile `0..total` without
        // overlap or gap.  Program-free slices cover nothing, so they play
        // no part in the tiling walk — wherever their start happens to sit
        // (a legal empty slice of a small bundle can share a start with a
        // populated one).
        shards.sort_by_key(|shard| shard.stamp.start);
        let covered: usize = shards.iter().map(|shard| shard.programs.len()).sum();
        let incomplete = BatchError::IncompleteBundle {
            covered,
            total: reference.total,
        };
        let mut position = 0;
        for shard in shards.iter().filter(|shard| !shard.programs.is_empty()) {
            if shard.stamp.start < position {
                return Err(BatchError::OverlappingShards {
                    index: shard.stamp.start,
                });
            }
            if shard.stamp.start > position {
                return Err(incomplete);
            }
            position += shard.programs.len();
        }
        if position > reference.total {
            return Err(BatchError::StampMismatch);
        }
        if position < reference.total {
            return Err(incomplete);
        }
        // Absorb every shard — the first included — through the duplicate
        // checks: a parsed foreign artifact may carry internal duplicates.
        let mut merged = BatchReport {
            panel,
            stamp: BundleStamp {
                start: 0,
                ..reference
            },
            programs: Vec::with_capacity(covered),
        };
        for shard in shards {
            for verdict in shard.programs {
                if merged
                    .programs
                    .iter()
                    .any(|p| p.report.program == verdict.report.program)
                {
                    return Err(BatchError::DuplicateProgram {
                        name: verdict.report.program,
                    });
                }
                for (i, row) in verdict.report.rows.iter().enumerate() {
                    if verdict.report.rows[..i]
                        .iter()
                        .any(|r| r.label == row.label)
                    {
                        return Err(BatchError::Merge(MergeError::DuplicateLabel {
                            label: row.label.clone(),
                        }));
                    }
                }
                merged.programs.push(verdict);
            }
        }
        // The merge must reproduce the claimed checksum from the verdicts
        // it actually absorbed.
        let recomputed = panel_checksum(panel, merged.programs.iter().map(|p| p.fingerprint));
        if recomputed != reference.checksum {
            return Err(BatchError::ChecksumMismatch);
        }
        Ok(merged)
    }

    /// Number of leaking programs.
    pub fn leak_count(&self) -> usize {
        self.programs.iter().filter(|p| p.leak).count()
    }

    /// `true` iff at least one program leaks — the scan's exit-1 condition.
    pub fn any_leak(&self) -> bool {
        self.programs.iter().any(|p| p.leak)
    }

    /// Serializes the report.  The output contains only deterministic
    /// fields (no wall-clock times), so equal panels serialize to equal
    /// bytes and shard outputs can be merged, cached and diffed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"panel\": {},\n", self.panel.to_json()));
        out.push_str(&format!("  \"bundle\": {},\n", self.stamp.to_json()));
        out.push_str(&format!("  \"leaks\": {},\n", self.leak_count()));
        out.push_str("  \"programs\": [\n");
        for (i, verdict) in self.programs.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"program\": {},\n",
                json::string(&verdict.report.program)
            ));
            out.push_str(&format!(
                "      \"fingerprint\": {},\n",
                json::string(&verdict.fingerprint.to_hex())
            ));
            out.push_str(&format!("      \"leak\": {},\n", verdict.leak));
            out.push_str("      \"runs\": [\n");
            for (j, row) in verdict.report.rows.iter().enumerate() {
                out.push_str("        {");
                out.push_str(&format!("\"label\": {}, ", json::string(&row.label)));
                out.push_str(&format!("\"accesses\": {}, ", row.accesses));
                out.push_str(&format!("\"must_hits\": {}, ", row.must_hits));
                out.push_str(&format!("\"misses\": {}, ", row.misses));
                out.push_str(&format!(
                    "\"speculative_misses\": {}, ",
                    row.speculative_misses
                ));
                out.push_str(&format!("\"secret_accesses\": {}, ", row.secret_accesses));
                out.push_str(&format!(
                    "\"unsafe_secret_accesses\": {}, ",
                    row.unsafe_secret_accesses
                ));
                out.push_str(&format!(
                    "\"speculated_branches\": {}, ",
                    row.speculated_branches
                ));
                out.push_str(&format!("\"iterations\": {}, ", row.iterations));
                out.push_str(&format!("\"rounds\": {}", row.rounds));
                out.push_str(if j + 1 == verdict.report.rows.len() {
                    "}\n"
                } else {
                    "},\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 == self.programs.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }

    /// Parses a report back from [`BatchReport::to_json`] output (e.g. a
    /// `specan scan --shard K/N --json` artifact).
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::Json`] for invalid JSON and
    /// [`BatchError::MalformedReport`] for a structurally wrong document,
    /// including one without a bundle stamp.
    pub fn from_json(input: &str) -> Result<Self, BatchError> {
        let value = JsonValue::parse(input)?;
        let panel = PanelSpec::from_json(
            value
                .get("panel")
                .ok_or_else(|| BatchError::malformed("report panel"))?,
        )?;
        let stamp = BundleStamp::from_json(value.get("bundle").ok_or_else(|| {
            BatchError::MalformedReport(
                "no bundle stamp: regenerate the artifact with this specan \
                 version (unstamped reports cannot be verified)"
                    .to_string(),
            )
        })?)?;
        let mut programs = Vec::new();
        for entry in value
            .get("programs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| BatchError::malformed("report programs"))?
        {
            let program = entry
                .get("program")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| BatchError::malformed("program name"))?
                .to_string();
            let fingerprint = entry
                .get("fingerprint")
                .and_then(JsonValue::as_str)
                .and_then(Fingerprint::from_hex)
                .ok_or_else(|| BatchError::malformed("program fingerprint"))?;
            let leak = entry
                .get("leak")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| BatchError::malformed("program leak flag"))?;
            let mut rows = Vec::new();
            for run in entry
                .get("runs")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| BatchError::malformed("program runs"))?
            {
                rows.push(parse_row(run)?);
            }
            programs.push(ProgramVerdict {
                leak,
                fingerprint,
                report: Report {
                    program,
                    elapsed: None,
                    cache: None,
                    rows,
                },
            });
        }
        Ok(BatchReport {
            panel,
            stamp,
            programs,
        })
    }
}

fn parse_row(run: &JsonValue) -> Result<ReportRow, BatchError> {
    let label = run
        .get("label")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| BatchError::malformed("run label"))?
        .to_string();
    let raw = |key: &str| -> Result<u64, BatchError> {
        run.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| BatchError::malformed(&format!("run {key}")))
    };
    // Checked narrowing: an out-of-range count is corruption and must fail
    // loudly, not wrap into a plausible-looking small number.
    let count = |key: &str| -> Result<usize, BatchError> {
        raw(key)?
            .try_into()
            .map_err(|_| BatchError::malformed(&format!("run {key}")))
    };
    Ok(ReportRow {
        label,
        accesses: count("accesses")?,
        must_hits: count("must_hits")?,
        misses: count("misses")?,
        speculative_misses: count("speculative_misses")?,
        secret_accesses: count("secret_accesses")?,
        unsafe_secret_accesses: count("unsafe_secret_accesses")?,
        speculated_branches: count("speculated_branches")?,
        iterations: raw("iterations")?,
        rounds: raw("rounds")?
            .try_into()
            .map_err(|_| BatchError::malformed("run rounds"))?,
        time: Duration::ZERO,
    })
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scanned {} program(s), {} leaking",
            self.programs.len(),
            self.leak_count()
        )?;
        for verdict in &self.programs {
            writeln!(
                f,
                "\n`{}`: {}",
                verdict.report.program,
                if verdict.leak { "LEAK" } else { "leak-free" }
            )?;
            writeln!(
                f,
                "{:<20} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7}",
                "configuration", "accesses", "must-hit", "misses", "sp-miss", "secret", "unsafe"
            )?;
            for row in &verdict.report.rows {
                writeln!(
                    f,
                    "{:<20} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7}",
                    row.label,
                    row.accesses,
                    row.must_hits,
                    row.misses,
                    row.speculative_misses,
                    row.secret_accesses,
                    row.unsafe_secret_accesses
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

    /// A scratch directory holding the given `(file_stem, program_name)`
    /// pairs as minimal leak-free programs; removed on drop.
    struct Scratch {
        dir: PathBuf,
        files: Vec<PathBuf>,
    }

    impl Scratch {
        fn new(programs: &[(&str, &str)]) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "spec-batch-test-{}-{}",
                std::process::id(),
                SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let files = programs
                .iter()
                .map(|(stem, name)| {
                    let path = dir.join(format!("{stem}.spec"));
                    std::fs::write(
                        &path,
                        format!(
                            "program {name}\nregion t 64\nblock main entry:\n  load t[0]\n  ret\n"
                        ),
                    )
                    .unwrap();
                    path
                })
                .collect();
            Self { dir, files }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn leak_panel() -> PanelSpec {
        PanelSpec {
            kind: PanelKind::LeakCheck,
            cache_lines: 8,
        }
    }

    #[test]
    fn shard_slice_allows_more_machines_than_programs() {
        // 3 items over 5 machines: the first three slices hold one each,
        // the rest are legally empty.
        let sizes: Vec<usize> = (1..=5).map(|k| shard_slice(3, k, 5).len()).collect();
        assert_eq!(sizes, [1, 1, 1, 0, 0]);
        assert_eq!(shard_slice(3, 4, 5), 3..3);
        // Slices tile the input contiguously.
        let mut covered = 0;
        for k in 1..=5 {
            let range = shard_slice(3, k, 5);
            assert_eq!(range.start, covered);
            covered = range.end;
        }
        assert_eq!(covered, 3);
    }

    #[test]
    fn discovery_sorts_and_recurses() {
        let scratch = Scratch::new(&[("b", "beta"), ("a", "alpha")]);
        let nested = scratch.dir.join("sub");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(
            nested.join("c.spec"),
            "program gamma\nregion t 64\nblock main entry:\n  load t[0]\n  ret\n",
        )
        .unwrap();
        std::fs::write(nested.join("ignored.txt"), "not a program").unwrap();
        let found = discover_programs(std::slice::from_ref(&scratch.dir)).unwrap();
        let stems: Vec<String> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(stems, ["a.spec", "b.spec", "c.spec"]);
        // Passing a file and the directory containing it dedups.
        let again = discover_programs(&[scratch.files[0].clone(), scratch.dir.clone()]).unwrap();
        assert_eq!(again.len(), 3);
        assert!(matches!(
            discover_programs(&[]),
            Err(BatchError::NoPrograms)
        ));
    }

    #[cfg(unix)]
    #[test]
    fn discovery_rejects_non_utf8_paths() {
        use std::os::unix::ffi::OsStrExt as _;
        let scratch = Scratch::new(&[("ok", "ok")]);
        let bad_name = std::ffi::OsStr::from_bytes(b"bad\xff.spec");
        std::fs::write(
            scratch.dir.join(bad_name),
            "program bad\nregion t 64\nblock main entry:\n  load t[0]\n  ret\n",
        )
        .unwrap();
        // A lossy rendered path could name another file; fail up front.
        assert!(matches!(
            discover_programs(std::slice::from_ref(&scratch.dir)),
            Err(BatchError::NonUtf8Path { .. })
        ));
    }

    #[cfg(unix)]
    #[test]
    fn discovery_survives_directory_symlink_loops() {
        let scratch = Scratch::new(&[("a", "alpha")]);
        let nested = scratch.dir.join("sub");
        std::fs::create_dir_all(&nested).unwrap();
        // `sub/back` points at the scratch root: a cycle.
        std::os::unix::fs::symlink(&scratch.dir, nested.join("back")).unwrap();
        let found = discover_programs(std::slice::from_ref(&scratch.dir)).unwrap();
        // The loop terminates and the real file is found exactly once.
        assert_eq!(found.len(), 1);
        assert!(found[0].ends_with("a.spec"));
    }

    #[test]
    fn merge_keeps_shard_order_and_rejects_duplicates() {
        let scratch = Scratch::new(&[("a", "alpha"), ("b", "beta"), ("c", "gamma")]);
        let slice =
            |range: Range<usize>| run_bundle_slice(&scratch.files, range, leak_panel(), 1).unwrap();
        let first = slice(0..2);
        let second = slice(2..3);
        let merged = BatchReport::merge([second.clone(), first.clone()]).unwrap();
        let names: Vec<&str> = merged
            .programs
            .iter()
            .map(|p| p.report.program.as_str())
            .collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        // A duplicate *inside* a slice (e.g. a corrupted foreign artifact
        // fed through from_json) is ambiguous, even where it tiles.
        let mut corrupt = first.clone();
        corrupt.programs.push(corrupt.programs[0].clone());
        assert!(matches!(
            BatchReport::merge([corrupt]),
            Err(BatchError::DuplicateProgram { name }) if name == "alpha"
        ));
        // Shards from different panels don't merge.
        let mut foreign = second;
        foreign.panel.cache_lines = 16;
        assert!(matches!(
            BatchReport::merge([first, foreign]),
            Err(BatchError::PanelMismatch)
        ));
        assert!(matches!(
            BatchReport::merge(std::iter::empty()),
            Err(BatchError::Merge(MergeError::Empty))
        ));
    }

    #[test]
    fn duplicate_program_names_within_a_shard_are_rejected() {
        let scratch = Scratch::new(&[("one", "same"), ("two", "same")]);
        let result = run_bundle(&scratch.files, leak_panel(), 2);
        assert!(matches!(
            result,
            Err(BatchError::DuplicateProgram { name }) if name == "same"
        ));
    }

    #[test]
    fn batch_report_json_round_trips() {
        let scratch = Scratch::new(&[("x", "with \"quotes\""), ("y", "plain")]);
        let panel = PanelSpec {
            kind: PanelKind::Comparison,
            cache_lines: 8,
        };
        let report = run_bundle(&scratch.files, panel, 1).unwrap();
        let json = report.to_json();
        let parsed = BatchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
        // Serialization is deterministic: re-emitting the parse is identical.
        assert_eq!(parsed.to_json(), json);
        assert!(BatchReport::from_json("{\"panel\": {}}").is_err());
    }

    #[test]
    fn every_report_row_field_survives_the_worker_protocol() {
        // A synthetic row with pairwise-distinct values pins each field of
        // the serialize/parse pair: a field dropped from (or miswired in)
        // BatchReport::to_json/parse_row breaks this equality even though
        // a scan and a merge of its own slices would still agree.
        let row = ReportRow {
            label: "pin".to_string(),
            accesses: 1,
            must_hits: 2,
            misses: 3,
            speculative_misses: 4,
            secret_accesses: 5,
            unsafe_secret_accesses: 6,
            speculated_branches: 7,
            iterations: 8,
            rounds: 9,
            time: std::time::Duration::ZERO,
        };
        let report = BatchReport {
            panel: leak_panel(),
            stamp: BundleStamp {
                checksum: Fingerprint(11),
                total: 12,
                start: 10,
            },
            programs: vec![ProgramVerdict {
                leak: true,
                fingerprint: Fingerprint(13),
                report: Report {
                    program: "pinned".to_string(),
                    elapsed: None,
                    cache: None,
                    rows: vec![row],
                },
            }],
        };
        assert_eq!(BatchReport::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn sharded_bundle_is_bit_identical_to_in_order_run() {
        let scratch = Scratch::new(&[
            ("a", "alpha"),
            ("b", "beta"),
            ("c", "gamma"),
            ("d", "delta"),
            ("e", "epsilon"),
        ]);
        let reference = run_bundle(&scratch.files, leak_panel(), 1).unwrap();
        for jobs in [2, 3, 5, 8] {
            let sharded = run_bundle(&scratch.files, leak_panel(), jobs).unwrap();
            assert_eq!(sharded, reference, "jobs={jobs} diverged");
            assert_eq!(sharded.to_json(), reference.to_json());
        }
    }

    #[test]
    fn stamped_slices_merge_back_to_the_unsharded_report() {
        let scratch = Scratch::new(&[("a", "alpha"), ("b", "beta"), ("c", "gamma")]);
        let full = run_bundle(&scratch.files, leak_panel(), 2).unwrap();
        let stamp = full.stamp;
        assert_eq!((stamp.start, stamp.total), (0, 3));
        let slice =
            |range: Range<usize>| run_bundle_slice(&scratch.files, range, leak_panel(), 1).unwrap();
        let first = slice(0..2);
        let second = slice(2..3);
        assert_eq!(first.stamp.start, 0);
        assert_eq!(second.stamp.start, 2);
        assert_eq!(second.stamp.checksum, stamp.checksum);
        // Order-independent fan-in, byte-identical to the unsharded run.
        let merged = BatchReport::merge([second.clone(), first.clone()]).unwrap();
        assert_eq!(merged, full);
        assert_eq!(merged.to_json(), full.to_json());
        // The same holds through the JSON artifacts a CI fleet exchanges.
        let merged = BatchReport::merge([
            BatchReport::from_json(&first.to_json()).unwrap(),
            BatchReport::from_json(&second.to_json()).unwrap(),
        ])
        .unwrap();
        assert_eq!(merged.to_json(), full.to_json());
        // An empty slice (more machines than programs) merges in silently —
        // wherever its start sits, including one shared with a populated
        // slice (the sort may then place it between populated slices).
        let empty = slice(3..3);
        assert!(empty.programs.is_empty());
        let merged = BatchReport::merge([empty, first.clone(), second.clone()]).unwrap();
        assert_eq!(merged, full);
        let zero_width = slice(0..0);
        assert_eq!(zero_width.stamp.start, 0);
        let merged = BatchReport::merge([first, zero_width, second]).unwrap();
        assert_eq!(merged, full);
    }

    #[test]
    fn merge_rejects_overlapping_incomplete_and_mismatched_slices() {
        let scratch = Scratch::new(&[("a", "alpha"), ("b", "beta"), ("c", "gamma")]);
        let slice =
            |range: Range<usize>| run_bundle_slice(&scratch.files, range, leak_panel(), 1).unwrap();
        let first = slice(0..2);
        let second = slice(2..3);

        // The same slice twice covers bundle positions twice.
        assert!(matches!(
            BatchReport::merge([first.clone(), first.clone()]),
            Err(BatchError::OverlappingShards { index: 0 })
        ));
        // A missing slice (a machine's artifact never arrived) is refused.
        assert!(matches!(
            BatchReport::merge([first.clone()]),
            Err(BatchError::IncompleteBundle {
                covered: 2,
                total: 3
            })
        ));
        // So is a gap *between* the supplied slices.
        assert!(matches!(
            BatchReport::merge([slice(0..1), second.clone()]),
            Err(BatchError::IncompleteBundle {
                covered: 2,
                total: 3
            })
        ));
        // A slice of a *different* bundle (one program structurally edited)
        // cannot sneak in: its full-bundle checksum differs.  (Fingerprints
        // are name-free, so the edit must be structural, not a rename.)
        let other = Scratch::new(&[("a", "alpha"), ("b", "beta"), ("c", "gamma")]);
        std::fs::write(
            &other.files[2],
            "program gamma\nregion t 64\nblock main entry:\n  load t[0]\n  load t[0]\n  ret\n",
        )
        .unwrap();
        let foreign = run_bundle_slice(&other.files, 2..3, leak_panel(), 1).unwrap();
        assert!(matches!(
            BatchReport::merge([first.clone(), foreign]),
            Err(BatchError::StampMismatch)
        ));
        // A report without a bundle stamp cannot be verified, so it does
        // not even parse.
        let json = second.to_json();
        let unstamped: Vec<&str> = json
            .lines()
            .filter(|line| !line.trim_start().starts_with("\"bundle\""))
            .collect();
        assert_eq!(unstamped.len() + 1, json.lines().count());
        assert!(matches!(
            BatchReport::from_json(&unstamped.join("\n")),
            Err(BatchError::MalformedReport(message)) if message.contains("no bundle stamp")
        ));
        // Tampered contents under a matching stamp fail the recompute.
        let mut tampered = second.clone();
        tampered.programs[0].fingerprint = Fingerprint(0x1234);
        assert!(matches!(
            BatchReport::merge([first.clone(), tampered]),
            Err(BatchError::ChecksumMismatch)
        ));
        // The honest pair still merges after all those rejections.
        assert!(BatchReport::merge([first, second]).is_ok());
    }

    #[test]
    fn merge_rejects_duplicate_labels_within_a_slice() {
        let row = |label: &str| ReportRow {
            label: label.to_string(),
            accesses: 1,
            must_hits: 1,
            misses: 0,
            speculative_misses: 0,
            secret_accesses: 0,
            unsafe_secret_accesses: 0,
            speculated_branches: 0,
            iterations: 1,
            rounds: 1,
            time: Duration::ZERO,
        };
        // A foreign artifact whose rows duplicate a configuration label is
        // ambiguous — which "speculative" row is the verdict's?
        let doubled = BatchReport {
            panel: leak_panel(),
            stamp: BundleStamp::new(leak_panel(), [Fingerprint(1)].into_iter(), 0),
            programs: vec![ProgramVerdict {
                leak: false,
                fingerprint: Fingerprint(1),
                report: Report {
                    program: "dup".to_string(),
                    elapsed: None,
                    cache: None,
                    rows: vec![row("speculative"), row("speculative")],
                },
            }],
        };
        assert!(matches!(
            BatchReport::merge([doubled]),
            Err(BatchError::Merge(MergeError::DuplicateLabel { label })) if label == "speculative"
        ));
    }

    #[test]
    fn invalid_panels_and_unreadable_programs_error_cleanly() {
        let panel = PanelSpec {
            kind: PanelKind::LeakCheck,
            cache_lines: 0,
        };
        assert!(matches!(panel.configs(), Err(BatchError::InvalidPanel(_))));
        let missing = [PathBuf::from("/nonexistent/x.spec")];
        assert!(matches!(
            run_bundle(&missing, leak_panel(), 1),
            Err(BatchError::Io { .. })
        ));
        let scratch = Scratch::new(&[("ok", "ok")]);
        std::fs::write(scratch.dir.join("bad.spec"), "this is not a program").unwrap();
        let bad = [scratch.files[0].clone(), scratch.dir.join("bad.spec")];
        assert!(matches!(
            run_bundle(&bad, leak_panel(), 1),
            Err(BatchError::Parse { .. })
        ));
    }

    #[test]
    fn fan_out_contains_a_poisoned_slot() {
        // One poisoned item (its work panics) must land as that slot's
        // error while every other item completes — uncaught, the panic
        // would unwind the scoped pool and kill `serve` or the scan.
        let items: Vec<u32> = (0..8).collect();
        let slots = fan_out_catching(&items, 3, |&n| {
            assert!(n != 5, "slot 5 is poisoned");
            n * 2
        });
        assert_eq!(slots.len(), items.len());
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                Ok(doubled) => {
                    assert_ne!(i, 5);
                    assert_eq!(*doubled, items[i] * 2);
                }
                Err(message) => {
                    assert_eq!(i, 5, "only the poisoned slot errors");
                    assert!(message.contains("slot 5 is poisoned"), "{message}");
                }
            }
        }
        // More threads than items, and no items at all, are both fine.
        assert_eq!(fan_out_catching(&items[..2], 16, |&n| n).len(), 2);
        assert!(fan_out_catching(&[] as &[u32], 4, |&n| n).is_empty());
    }
}
