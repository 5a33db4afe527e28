//! Incremental diff-aware sessions: re-analyze only what changed.
//!
//! [`crate::session`] amortizes artifacts across *configurations* of one
//! program; this module amortizes them across *edits* of a workload.  The
//! paper's evaluation — and any tool living inside a developer's
//! modify-and-recheck loop — analyses the same programs over and over as
//! the code evolves, and before this module every edit threw the whole
//! session away.
//!
//! Two layers, both built on the structural fingerprints of
//! [`spec_ir::fingerprint`]:
//!
//! * [`SessionCache`] — the in-memory core.  It holds one
//!   [`PreparedProgram`] per program name; [`SessionCache::update`]
//!   fingerprints the newly parsed program and either **rebinds** the
//!   previous session wholesale (fingerprint unchanged: every memoized
//!   unroll variant, address map, VCFG and fixpoint round survives) or
//!   re-prepares it, reporting *where* the program changed as a
//!   [`ProgramDiff`] and rebinding the address maps whenever the edit left
//!   the region table untouched (the memory layout is a pure function of
//!   the regions).  In a multi-program session, editing one program leaves
//!   every other program's artifacts bound — the [`SessionStats`] counters
//!   prove it.  A long-lived holder bounds the session with
//!   [`SessionCache::max_session_bytes`]: resident entries are byte-
//!   accounted through [`spec_ir::heap::HeapSize`] and whole programs are
//!   evicted least-recently-used first, which trades re-preparation for
//!   memory but never changes a result.  An optional on-disk
//!   [`PreparedStore`] ([`SessionCache::artifact_store`]) sits below the
//!   entries: it is the one persistence format for prepared sessions, used
//!   by `specan serve --artifact-dir` and `specan analyze --incremental`
//!   alike (the latter through a [`crate::cache_session::CacheSession`]).
//! * [`scan_bundle_incremental`] — verdict reuse for `specan scan
//!   --session-dir`.  The session directory holds the previous scan's
//!   [`BatchReport`], exactly as `scan --json` printed it; the next scan
//!   re-analyses only the programs whose fingerprints no longer match their
//!   stored verdicts and splices the untouched verdicts back into bundle
//!   order.  A verdict is a few hundred bytes where a prepared artifact is
//!   tens of kilobytes to megabytes, so scans do not go through the store.
//!
//! # The bit-identical guarantee
//!
//! Every reuse path returns results that serialize to **exactly the bytes**
//! a fresh analysis would produce, once the execution-describing fields
//! (wall clocks and cache counters, see [`Report::without_timing`]) are
//! stripped: rebinding reuses values that are pure functions of the
//! (structurally unchanged) program, and recomputation shares the one
//! deterministic solver with the fresh path.  The `incremental_equivalence`
//! property suite and the CLI tests in `tests/cli_incremental.rs` hold this
//! line.
//!
//! [`Report::without_timing`]: crate::session::Report::without_timing
//!
//! # Example
//!
//! ```rust
//! use spec_core::incremental::SessionCache;
//! use spec_core::session::comparison_configs;
//! use spec_cache::CacheConfig;
//! use spec_ir::builder::ProgramBuilder;
//! use spec_ir::IndexExpr;
//!
//! let build = |offset| {
//!     let mut b = ProgramBuilder::new("tiny");
//!     let t = b.region("t", 128, false);
//!     let entry = b.entry_block("entry");
//!     b.load(entry, t, IndexExpr::Const(offset));
//!     b.ret(entry);
//!     b.finish().unwrap()
//! };
//!
//! let mut session = SessionCache::new();
//! let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
//! let first = session.update(&build(0));
//! first.prepared.run_suite(&configs);
//! // Re-parsing an unchanged program rebinds the whole session...
//! assert!(session.update(&build(0)).reused);
//! // ...while an edit re-prepares it and localises the change.
//! let edited = session.update(&build(64));
//! assert!(!edited.reused);
//! assert_eq!(edited.diff.unwrap().changed_blocks.len(), 1);
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spec_ir::fingerprint::{program_fingerprint, regions_fingerprint, Fingerprint, ProgramDiff};
use spec_ir::heap::HeapSize;
use spec_ir::Program;

use crate::artifact::PreparedStore;
use crate::batch::{
    parse_bundle, run_cold, BatchError, BatchReport, BundleProgram, BundleStamp, PanelSpec,
    ProgramVerdict,
};
use crate::session::{Analyzer, CacheStats, PreparedProgram};

/// Sentinel for "never measured/persisted at any stamp".
const STAMP_NEVER: u64 = u64::MAX;

/// One program's slot in a [`SessionCache`].
struct SessionEntry {
    /// Structural fingerprint of the prepared program.
    fingerprint: Fingerprint,
    /// Fingerprint of the region table alone (decides address-map reuse).
    regions: Fingerprint,
    /// Monotonic use tick: bumped by every lookup, reuse and install, so a
    /// byte budget evicts the least recently *used* program first.
    tick: u64,
    prepared: Arc<PreparedProgram>,
    /// Memoized [`SessionEntry::resident_bytes`] result, valid while the
    /// prepared session's growth stamp equals `size_stamp`.  Atomics (not a
    /// plain field) because measurement happens behind `&self` on the
    /// status/stats read path.
    size_bytes: AtomicU64,
    /// The [`PreparedProgram::growth_stamp`] at which `size_bytes` was
    /// measured ([`STAMP_NEVER`] = not yet measured).
    size_stamp: AtomicU64,
    /// The growth stamp at which this entry was last written to the
    /// artifact store; `None` means never persisted by this process.
    /// Dirty tracking for [`SessionCache::persist_dirty`].
    persisted: Option<u64>,
}

impl SessionEntry {
    fn new(
        fingerprint: Fingerprint,
        regions: Fingerprint,
        tick: u64,
        prepared: Arc<PreparedProgram>,
        persisted: Option<u64>,
    ) -> Self {
        Self {
            fingerprint,
            regions,
            tick,
            prepared,
            size_bytes: AtomicU64::new(0),
            size_stamp: AtomicU64::new(STAMP_NEVER),
            persisted,
        }
    }

    /// The deterministic [`HeapSize`] estimate of everything this slot
    /// keeps alive: the slot itself, its key string, and the prepared
    /// session with every memoized artifact.
    ///
    /// The walk over the memo tables is the expensive part, and a resident
    /// entry only grows when a run populates an artifact cache — which is
    /// exactly when its [`PreparedProgram::growth_stamp`] moves.  So the
    /// measurement is memoized per stamp: entries whose caches did not grow
    /// since the last enforcement point answer from the memo, entries that
    /// did are re-walked.  The measurement function itself is unchanged, so
    /// the `session: N bytes` accounting is identical to an unmemoized
    /// re-measure.
    fn resident_bytes(&self, name: &str) -> u64 {
        let stamp = self.prepared.growth_stamp();
        if self.size_stamp.load(Ordering::Acquire) == stamp {
            return self.size_bytes.load(Ordering::Relaxed);
        }
        let bytes = (std::mem::size_of::<Self>() + name.len() + self.prepared.heap_size()) as u64;
        // Benign race: the measurement is a pure function of the stamp, so
        // concurrent writers store identical values.  Release/Acquire on
        // the stamp orders it after its bytes.
        self.size_bytes.store(bytes, Ordering::Relaxed);
        self.size_stamp.store(stamp, Ordering::Release);
        bytes
    }
}

/// Which tier served a session lookup hit (the tier behind
/// [`crate::cache_session::CacheOutcome::WarmHit`] and
/// [`crate::cache_session::CacheOutcome::StoreHit`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionTier {
    /// The in-memory entry table (a warm reuse).
    Memory,
    /// The on-disk artifact store (deserialized, now resident in memory).
    Store,
}

/// Lifetime counters of a [`SessionCache`] — the evidence that an edit to
/// one program did not disturb the others.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Updates that rebound an existing session wholesale (fingerprint
    /// unchanged — renames and formatting included).
    pub reused: u64,
    /// Updates that re-prepared a program because its structure changed.
    pub invalidated: u64,
    /// Updates that introduced a program the session had not seen.
    pub inserted: u64,
    /// Address-map tables rebound across an invalidation because the edit
    /// left the region table structurally unchanged.
    pub amaps_adopted: u64,
    /// Whole [`PreparedProgram`]s evicted by the byte budget
    /// ([`SessionCache::max_session_bytes`]), least recently used first.
    /// Replacements of an entry under the same name are *not* evictions —
    /// so `inserted - session_evictions` (minus explicit removals) is the
    /// number of resident entries, the invariant the eviction-equivalence
    /// suite reconciles.
    pub session_evictions: u64,
    /// Resident bytes at snapshot time: the summed [`HeapSize`] estimate
    /// of every held entry.  After an enforcement point this never exceeds
    /// the configured budget.
    pub session_bytes: u64,
    /// Cache misses answered by deserializing a prepared session from the
    /// on-disk artifact store instead of a cold preparation.
    pub store_hits: u64,
    /// Store lookups that found no usable artifact (missing file, rejected
    /// file, or a fingerprint collision under different names) and fell
    /// through to a cold preparation.  Zero when no store is configured.
    pub store_misses: u64,
    /// Total payload bytes deserialized across every store hit.
    pub store_loaded_bytes: u64,
    /// Acquires served by the shared in-memory L1 tier (a warm rebind under
    /// the lock) through a [`crate::cache_session::CacheSession`].  Zero
    /// for directly driven sessions, whose warm rebinds count as
    /// [`SessionStats::reused`] only.
    pub l1_hits: u64,
}

/// What [`SessionCache::update`] did for one program.
pub struct SessionUpdate {
    /// The session to run configurations against — rebound or freshly
    /// prepared.
    pub prepared: Arc<PreparedProgram>,
    /// `true` iff the previous session survived the update wholesale.
    pub reused: bool,
    /// Where the program changed relative to the previous snapshot.
    /// `None` for programs the session had not seen before; for reused
    /// updates the diff exists and [`ProgramDiff::is_identical`] holds.
    pub diff: Option<ProgramDiff>,
}

/// A multi-program analysis session that survives edits: prepared artifacts
/// are invalidated per program, by structural fingerprint, instead of being
/// discarded with every re-parse.  See the module docs.
pub struct SessionCache {
    analyzer: Analyzer,
    entries: HashMap<String, SessionEntry>,
    stats: SessionStats,
    /// Byte budget over the summed [`HeapSize`] estimates of every entry;
    /// `None` is unbounded (the pre-budget behaviour).
    max_bytes: Option<u64>,
    /// Monotonic source of the entries' use ticks.
    tick: u64,
    /// Coarse tick of the last [`SessionCache::enforce_budget`] pass that
    /// left the session within budget: `(entry count, summed growth
    /// stamps)`.  Growth stamps are monotone and resident sizes are pure
    /// functions of them, so an unchanged tick over an unchanged entry set
    /// proves the sizes did not move — the enforcement pass (sort plus
    /// re-measure) is skipped.  Cleared by every entry-set mutation.
    budget_mark: Option<(usize, u64)>,
    /// Optional on-disk tier below the in-memory entries: misses try a
    /// fingerprint-keyed artifact load before falling back to a cold
    /// preparation, installs write through, and evictions persist dirty
    /// entries first.
    store: Option<PreparedStore>,
}

impl SessionCache {
    /// An empty session with default [`Analyzer`] settings.
    pub fn new() -> Self {
        Self::with_analyzer(Analyzer::new())
    }

    /// An empty session whose programs are prepared by `analyzer` (thread
    /// caps, round-cache bounds).
    pub fn with_analyzer(analyzer: Analyzer) -> Self {
        Self {
            analyzer,
            entries: HashMap::new(),
            stats: SessionStats::default(),
            max_bytes: None,
            tick: 0,
            budget_mark: None,
            store: None,
        }
    }

    /// The analyzer this cache prepares programs with.
    pub(crate) fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Forgets the coarse budget tick: the entry set is about to change, so
    /// the next [`SessionCache::enforce_budget`] must run a full pass.
    fn touch_entries(&mut self) {
        self.budget_mark = None;
    }

    /// Attaches an on-disk artifact store as a second tier below memory.
    /// Misses consult the store before a cold preparation
    /// ([`SessionCache::update`], `CacheSession::acquire`), installs write
    /// through, and budget evictions persist dirty entries
    /// before dropping them.  The store never changes results: a load is
    /// accepted only when the decoded program compares equal to the
    /// requested one, and every rejected or missing artifact falls back to
    /// the cold path.
    pub fn artifact_store(mut self, store: PreparedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// `true` iff an on-disk artifact tier is configured.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&PreparedStore> {
        self.store.as_ref()
    }

    /// Bounds the session to at most `bytes` resident bytes (the
    /// deterministic [`HeapSize`] estimate — see `spec_ir::heap` for what
    /// it counts), evicting whole [`PreparedProgram`]s in least recently
    /// used order whenever an enforcement point finds the session over
    /// budget.  Enforcement points are [`SessionCache::update`], every
    /// install of a cold preparation, and the request-boundary
    /// [`crate::cache_session::CacheSession::checkpoint`] (which long-running
    /// holders call after every request, because running configurations
    /// grows the memoized artifacts of a resident entry).
    ///
    /// Eviction never changes results: an evicted program is simply
    /// re-prepared on its next sighting, and the one deterministic solver
    /// reproduces every artifact bit-identically.  A budget smaller than a
    /// single entry degenerates to re-preparing on every request — slow,
    /// never wrong.
    pub fn max_session_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.max_bytes
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The summed byte estimate of every resident entry, re-measured now.
    pub fn resident_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(name, entry)| entry.resident_bytes(name))
            .sum()
    }

    /// Re-measures every entry and evicts the least recently used whole
    /// programs until the session fits its byte budget (a no-op without
    /// one).  Returns the number of entries evicted by this call.
    ///
    /// Measurement happens here — not at install time — because a resident
    /// entry keeps growing as requests populate its memoized unrolls,
    /// VCFGs and fixpoint rounds; budget holders therefore call this after
    /// every request, and the resident-bytes invariant holds at every
    /// request boundary.
    ///
    /// The full pass (sort every entry, re-measure the grown ones) is
    /// skipped when a coarse tick proves nothing could have changed: the
    /// entry set is untouched since the last in-budget pass and no entry's
    /// growth stamp moved, so every resident size — a pure function of the
    /// stamp — is exactly what the last pass already verified fits.
    pub(crate) fn enforce_budget(&mut self) -> u64 {
        let Some(budget) = self.max_bytes else {
            return 0;
        };
        let coarse_tick = |entries: &HashMap<String, SessionEntry>| {
            let stamps: u64 = entries
                .values()
                .map(|entry| entry.prepared.growth_stamp())
                .sum();
            (entries.len(), stamps)
        };
        if self.budget_mark == Some(coarse_tick(&self.entries)) {
            return 0;
        }
        let mut sizes: Vec<(u64, u64, String)> = self
            .entries
            .iter()
            .map(|(name, entry)| (entry.tick, entry.resident_bytes(name), name.clone()))
            .collect();
        // Oldest tick first; the most recently used entry is the last
        // eviction candidate (and is evicted too when it alone overflows
        // the budget — the bound is strict).
        sizes.sort();
        let mut resident: u64 = sizes.iter().map(|(_, bytes, _)| bytes).sum();
        let mut evicted = 0;
        for (_, bytes, name) in &sizes {
            if resident <= budget {
                break;
            }
            // An evicted entry's memoized artifacts are about to leave
            // memory; flush them to the store tier first (when one is
            // configured and the entry grew since its last write) so the
            // next sighting loads instead of re-preparing.  A failed write
            // is not an error — the cold path reproduces everything.
            if let (Some(store), Some(entry)) = (self.store.as_ref(), self.entries.get(name)) {
                if entry.persisted != Some(entry.prepared.growth_stamp()) {
                    let _ = store.save(&entry.prepared);
                }
            }
            self.entries.remove(name);
            resident -= bytes;
            evicted += 1;
        }
        self.stats.session_evictions += evicted;
        self.budget_mark = Some(coarse_tick(&self.entries));
        evicted
    }

    /// Brings the session up to date with (a freshly parsed version of)
    /// `program` and returns the prepared session to run against.
    ///
    /// Programs are identified by name.  If the program is identical to
    /// the previous snapshot (fingerprint filter plus full comparison —
    /// the fingerprint alone is name-free and would rebind across a pure
    /// rename, serving stale names), the existing [`PreparedProgram`] —
    /// with every memoized artifact — is rebound; otherwise the program is
    /// re-prepared, and when the region table is structurally unchanged
    /// the previous session's address maps are adopted wholesale and its
    /// fixpoint summaries are offered as per-block seeds (unchanged blocks
    /// transplant their converged states; edited blocks and their
    /// transitive dependents re-solve — see `spec_core::summary`).
    pub fn update(&mut self, program: &Program) -> SessionUpdate {
        self.update_inner(program, true)
    }

    /// First half of the two-phase resolve for lock-averse callers: the
    /// warm session when the structural fingerprint matches the snapshot
    /// (counted as a reuse), `None` otherwise.  On a miss the caller runs
    /// the expensive [`Analyzer::prepare`] **outside** its lock and offers
    /// the result back through [`SessionCache::install`] — the analysis
    /// service's worker pool must not serialize every request behind one
    /// cold preparation.
    ///
    /// Crate-internal since the `CacheSession` redesign: external callers
    /// sequence the two-phase resolve through
    /// [`crate::cache_session::CacheSession::acquire`] instead.
    pub(crate) fn lookup_warm(
        &mut self,
        program: &Program,
        fingerprint: Fingerprint,
    ) -> Option<Arc<PreparedProgram>> {
        let tick = self.next_tick();
        match self.entries.get_mut(program.name()) {
            // Matched by the name-free structural fingerprint: a pure
            // rename (same structure, different region or block names)
            // still answers warm here.  Callers that need name-exact
            // resolution compare the returned session's program themselves
            // — `CacheSession::acquire` classifies a mismatch as a
            // `renamed` miss, and [`SessionCache::update`] rebinds the
            // entry to the renamed program (adopting its artifacts) — so
            // the structural tier keeps serving rename-insensitive outputs
            // without leaking stale names into name-exact ones.
            Some(entry) if entry.fingerprint == fingerprint => {
                self.stats.reused += 1;
                entry.tick = tick;
                Some(entry.prepared.clone())
            }
            _ => None,
        }
    }

    /// Two-tier resolve: the in-memory warm session first (exactly
    /// [`SessionCache::lookup_warm`]), then — when an artifact store is
    /// configured — a fingerprint-keyed disk load, deserialized, verified
    /// against the requested program and installed as a resident entry.
    /// Returns which tier answered; `None` means the caller must prepare
    /// cold and [`SessionCache::install`] the result.
    ///
    /// The store is keyed by the name-free structural fingerprint while a
    /// prepared session embeds names, so a load is accepted only when the
    /// decoded program compares equal to `program` — a rename falls
    /// through to the cold path instead of serving stale names.
    ///
    /// Crate-internal since the `CacheSession` redesign (see
    /// [`SessionCache::lookup_warm`]).
    pub(crate) fn lookup_tiered(
        &mut self,
        program: &Program,
        fingerprint: Fingerprint,
    ) -> Option<(Arc<PreparedProgram>, SessionTier)> {
        if let Some(prepared) = self.lookup_warm(program, fingerprint) {
            return Some((prepared, SessionTier::Memory));
        }
        self.store.as_ref()?;
        let (prepared, stamp) = self.load_from_store(program, fingerprint)?;
        let prepared = self.install_with(prepared, Some(stamp));
        Some((prepared, SessionTier::Store))
    }

    /// Attempts a store load for `program`, counting hits/misses and
    /// loaded bytes.  Returns the deserialized session plus its growth
    /// stamp (its "already persisted at" mark — the on-disk bytes are what
    /// we just read).  Does not install.
    fn load_from_store(
        &mut self,
        program: &Program,
        fingerprint: Fingerprint,
    ) -> Option<(Arc<PreparedProgram>, u64)> {
        let store = self.store.as_ref()?;
        match store.load(&self.analyzer, fingerprint) {
            Some((prepared, bytes)) if prepared.program() == program => {
                self.stats.store_hits += 1;
                self.stats.store_loaded_bytes += bytes;
                let stamp = prepared.growth_stamp();
                Some((Arc::new(prepared), stamp))
            }
            _ => {
                self.stats.store_misses += 1;
                None
            }
        }
    }

    /// Writes `prepared` to the store tier now, returning the growth stamp
    /// the write captured (`None` when no store is configured or the write
    /// failed — the entry then stays dirty for a later attempt).
    fn persist_now(&self, prepared: &PreparedProgram) -> Option<u64> {
        let store = self.store.as_ref()?;
        let stamp = prepared.growth_stamp();
        store.save(prepared).ok()?;
        Some(stamp)
    }

    /// Writes every resident entry whose memoized artifacts grew since its
    /// last store write back to the artifact store.  Long-running holders
    /// call this at request boundaries (next to
    /// [`SessionCache::enforce_budget`]) so a restart finds warm artifacts
    /// on disk.  Returns the number of entries written; a no-op without a
    /// configured store.  External holders reach it through
    /// `CacheSession::checkpoint`.
    pub(crate) fn persist_dirty(&mut self) -> u64 {
        let SessionCache { store, entries, .. } = self;
        let Some(store) = store.as_ref() else {
            return 0;
        };
        let mut wrote = 0;
        for entry in entries.values_mut() {
            let stamp = entry.prepared.growth_stamp();
            if entry.persisted == Some(stamp) {
                continue;
            }
            if store.save(&entry.prepared).is_ok() {
                entry.persisted = Some(stamp);
                wrote += 1;
            }
        }
        wrote
    }

    /// Second half of the two-phase resolve: installs an externally
    /// prepared session, replacing whatever the name currently maps to
    /// (adopting the predecessor's address maps when the region table is
    /// structurally unchanged, exactly like [`SessionCache::update`] — a
    /// rename-only replacement qualifies trivially).  Every replacement
    /// counts as an invalidation, renames included, so the counters show a
    /// re-preparation happened even when the structural fingerprint did
    /// not move.  Last-writer-wins by design: racing cold preparations of
    /// one program produce interchangeable sessions, and the
    /// name-sensitive service path relies on replacement to retire a
    /// rebound entry whose *names* went stale.
    ///
    /// With an artifact store configured the installed session is written
    /// through to disk, so a later restart loads it instead of preparing.
    ///
    /// Crate-internal since the `CacheSession` redesign: external callers
    /// commit cold preparations through `PrepareGuard::commit` (see
    /// [`SessionCache::lookup_warm`]).
    pub(crate) fn install(&mut self, prepared: Arc<PreparedProgram>) -> Arc<PreparedProgram> {
        // The donor lookup must precede the write-through: persisting
        // repoints the store's name index at the incoming session itself.
        if !self.entries.contains_key(prepared.program().name()) {
            self.adopt_store_donor(&prepared);
        }
        let persisted = self.persist_now(&prepared);
        self.install_with(prepared, persisted)
    }

    /// Cross-restart compositional reuse: a fresh-name install may still
    /// have a *predecessor* on the store tier — the artifact last persisted
    /// under this program's name, found through the store's name index
    /// (fingerprints alone are name-free, so after an edit nothing else
    /// connects the new program to its donor).  A region-table-preserving
    /// predecessor donates address maps and fixpoint summaries exactly like
    /// an in-memory one; the per-block structural gates at seeding time
    /// keep a stale or colliding index harmless.
    fn adopt_store_donor(&mut self, prepared: &Arc<PreparedProgram>) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        let Some(donor) = store.donor(
            &self.analyzer,
            prepared.program().name(),
            prepared.fingerprint(),
        ) else {
            return;
        };
        if regions_fingerprint(donor.program().regions())
            == regions_fingerprint(prepared.program().regions())
        {
            self.stats.amaps_adopted += prepared.adopt_address_maps(&donor);
            prepared.adopt_summaries(&donor);
        }
    }

    fn install_with(
        &mut self,
        prepared: Arc<PreparedProgram>,
        persisted: Option<u64>,
    ) -> Arc<PreparedProgram> {
        let fingerprint = prepared.fingerprint();
        let regions = regions_fingerprint(prepared.program().regions());
        let name = prepared.program().name().to_string();
        let tick = self.next_tick();
        self.touch_entries();
        match self.entries.get_mut(&name) {
            Some(entry) => {
                self.stats.invalidated += 1;
                if entry.regions == regions {
                    self.stats.amaps_adopted += prepared.adopt_address_maps(&entry.prepared);
                    // Same gate for the fixpoint summaries: the donor's
                    // converged states embed its memory layout, so only a
                    // region-table-preserving replacement may seed from
                    // them.  Block-level invalidation happens later, when
                    // the matching unroll variant is built.
                    prepared.adopt_summaries(&entry.prepared);
                }
                *entry = SessionEntry::new(fingerprint, regions, tick, prepared.clone(), persisted);
            }
            None => {
                self.stats.inserted += 1;
                self.entries.insert(
                    name,
                    SessionEntry::new(fingerprint, regions, tick, prepared.clone(), persisted),
                );
            }
        }
        self.enforce_budget();
        prepared
    }

    fn update_inner(&mut self, program: &Program, want_diff: bool) -> SessionUpdate {
        let fingerprint = program_fingerprint(program);
        let regions = regions_fingerprint(program.regions());
        let name = program.name().to_string();
        let tick = self.next_tick();
        if let Some(entry) = self.entries.get_mut(&name) {
            if entry.fingerprint == fingerprint {
                entry.tick = tick;
                let diff =
                    want_diff.then(|| ProgramDiff::between(entry.prepared.program(), program));
                // The fingerprint is name-free, so an equal print does not
                // mean an equal program: serving the cached handle across a
                // pure rename would leak the pre-edit region and block
                // names into classification output.  Rebind a fresh session
                // to the renamed program instead and transplant the
                // artifacts — address maps verbatim (the region table is
                // structurally identical) and every block summary as a
                // fixpoint seed — so the next run re-derives *names*, not
                // fixpoints.
                let renamed = entry.prepared.program() != program;
                let adopted = if renamed {
                    let rebound = Arc::new(entry.prepared.rebound(program));
                    let adopted = rebound.adopt_address_maps(&entry.prepared);
                    rebound.adopt_summaries(&entry.prepared);
                    entry.prepared = rebound;
                    adopted
                } else {
                    0
                };
                let prepared = entry.prepared.clone();
                self.stats.reused += 1;
                self.stats.amaps_adopted += adopted;
                return SessionUpdate {
                    prepared,
                    reused: true,
                    diff,
                };
            }
        }
        // Structural miss: diff against the predecessor (if any) first,
        // then resolve the new session — from the store tier when it has a
        // matching artifact, by cold preparation otherwise (written
        // through to the store so the next miss loads).
        let diff = match self.entries.get(&name) {
            Some(entry) => {
                want_diff.then(|| ProgramDiff::between(entry.prepared.program(), program))
            }
            None => None,
        };
        let (prepared, persisted) = match self.load_from_store(program, fingerprint) {
            Some((prepared, stamp)) => (prepared, Some(stamp)),
            None => {
                let prepared = Arc::new(self.analyzer.prepare(program));
                // No previous snapshot in memory: the store tier may still
                // hold this name's predecessor as a summary donor (and the
                // lookup must precede the write-through below, which
                // repoints the name index at the fresh session).
                if !self.entries.contains_key(&name) {
                    self.adopt_store_donor(&prepared);
                }
                let persisted = self.persist_now(&prepared);
                (prepared, persisted)
            }
        };
        self.touch_entries();
        match self.entries.get_mut(&name) {
            Some(entry) => {
                self.stats.invalidated += 1;
                if entry.regions == regions {
                    self.stats.amaps_adopted += prepared.adopt_address_maps(&entry.prepared);
                    // The compositional-reuse handoff (see the same call in
                    // `install_with`): the re-prepared session seeds the
                    // unchanged blocks' fixpoint states from the replaced
                    // snapshot, localised per block by the same structural
                    // identity `ProgramDiff` reports — only edited blocks
                    // and their transitive dependents re-solve.
                    prepared.adopt_summaries(&entry.prepared);
                }
                *entry = SessionEntry::new(fingerprint, regions, tick, prepared.clone(), persisted);
            }
            None => {
                self.stats.inserted += 1;
                self.entries.insert(
                    name,
                    SessionEntry::new(fingerprint, regions, tick, prepared.clone(), persisted),
                );
            }
        }
        self.enforce_budget();
        SessionUpdate {
            prepared,
            reused: false,
            diff,
        }
    }

    /// The prepared session of a program, if it is cached.
    pub fn get(&self, name: &str) -> Option<&Arc<PreparedProgram>> {
        self.entries.get(name).map(|entry| &entry.prepared)
    }

    /// Number of programs currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no program is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The session's lifetime reuse/invalidation counters, with
    /// [`SessionStats::session_bytes`] measured at call time.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            session_bytes: self.resident_bytes(),
            ..self.stats
        }
    }

    /// Aggregated artifact-cache counters across every held program — the
    /// per-program [`PreparedProgram::cache_stats`] summed up.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for entry in self.entries.values() {
            let s = entry.prepared.cache_stats();
            total.core_hits += s.core_hits;
            total.core_misses += s.core_misses;
            total.amap_hits += s.amap_hits;
            total.amap_misses += s.amap_misses;
            total.amap_adopted += s.amap_adopted;
            total.vcfg_hits += s.vcfg_hits;
            total.vcfg_misses += s.vcfg_misses;
            total.round_hits += s.round_hits;
            total.round_misses += s.round_misses;
            total.round_evictions += s.round_evictions;
            total.summary_hits += s.summary_hits;
            total.summary_misses += s.summary_misses;
            total.summaries_invalidated += s.summaries_invalidated;
        }
        total.session_evictions = self.stats.session_evictions;
        total.session_bytes = self.resident_bytes();
        total.store_hits = self.stats.store_hits;
        total.store_misses = self.stats.store_misses;
        total.store_loaded_bytes = self.stats.store_loaded_bytes;
        // `l1_hits` stays zero here: that counter lives in front of this
        // cache (inside `CacheSession`), which overlays it on this snapshot.
        total
    }
}

impl Default for SessionCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The file an incremental scan keeps under its session directory: the
/// previous scan's [`BatchReport`], byte for byte what `specan scan --json`
/// printed.  Each [`ProgramVerdict`] carries the structural fingerprint it
/// was computed from, so the report alone keys verdict reuse.
const SCAN_SESSION_FILE: &str = "scan-session.json";

/// Loads the previous scan's verdicts under `dir`, keyed by program name.
/// Any defect — a missing file, malformed JSON, a panel mismatch — yields
/// `None` (a cold start), never an error: the session is an accelerator,
/// and the fallback is a full re-analysis with identical results.
fn load_scan_session(dir: &Path, panel: PanelSpec) -> Option<HashMap<String, ProgramVerdict>> {
    let text = std::fs::read_to_string(dir.join(SCAN_SESSION_FILE)).ok()?;
    let report = BatchReport::from_json(&text).ok()?;
    if report.panel != panel {
        return None;
    }
    Some(
        report
            .programs
            .into_iter()
            .map(|verdict| (verdict.report.program.clone(), verdict))
            .collect(),
    )
}

/// Persists `report` under `dir`, replacing the previous one atomically
/// (temp file + rename): a crashed scan leaves the old session intact.
fn store_scan_session(dir: &Path, report: &BatchReport) -> Result<(), BatchError> {
    let io_err = |path: &Path| {
        let path = path.to_path_buf();
        move |error| BatchError::Io { path, error }
    };
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let target = dir.join(SCAN_SESSION_FILE);
    let temp = dir.join(format!("{SCAN_SESSION_FILE}.tmp.{}", std::process::id()));
    std::fs::write(&temp, format!("{}\n", report.to_json())).map_err(io_err(&temp))?;
    std::fs::rename(&temp, &target).map_err(io_err(&target))
}

/// What an incremental scan did, alongside its (deterministic) report.
pub struct ScanOutcome {
    /// The merged bundle report — byte-identical to what a fresh
    /// [`crate::batch::run_bundle`] over the same files produces.
    pub report: BatchReport,
    /// Programs whose verdicts were spliced in from the stored session.
    pub reused: usize,
    /// Programs that were (re-)analysed this scan.
    pub analyzed: usize,
    /// The error that prevented the refreshed session from being written,
    /// if any.  Non-fatal by design: the report above is complete and
    /// correct either way, only the *next* scan loses its warm start.
    pub store_error: Option<BatchError>,
}

/// Runs a bundle scan against the report stored under `session_dir` by the
/// previous scan: programs whose structural fingerprints match their stored
/// verdicts reuse them wholesale; only the changed (or new) programs are
/// analysed — `jobs`-wide, through the same cold per-program step as a
/// fresh scan — and the new report is written back.
///
/// The returned report is **bit-identical** to a fresh
/// [`crate::batch::run_bundle`] over the same files: stored verdicts are
/// timing-free pure functions of (program structure, panel), fresh ones run
/// the exact per-program pipeline of a fresh shard, and renames — which the
/// fingerprint ignores — cannot appear in a [`BatchReport`], whose only
/// name, the program name, is the session key itself.
///
/// Files saved *while the scan runs* cannot poison the session: the
/// programs parsed by [`crate::batch::parse_bundle`] are the programs
/// analysed — the file is never read twice — so a stored verdict's
/// fingerprint always hashes exactly the content it was computed from.
///
/// # Errors
///
/// [`BatchError::Io`]/[`BatchError::Parse`] for unreadable or invalid
/// files, [`BatchError::DuplicateProgram`] for a repeated program name and
/// [`BatchError::InvalidPanel`] for a degenerate panel and
/// [`BatchError::Panicked`] naming a program whose analysis panicked.
/// Session defects are never errors: a missing or corrupt session degrades
/// to a cold scan, and a session that cannot be written back (read-only
/// cache volume, full disk) is reported through [`ScanOutcome::store_error`]
/// while the completed report — and with it the CI leak verdict — is still
/// returned.
pub fn scan_bundle_incremental(
    files: &[PathBuf],
    panel: PanelSpec,
    jobs: usize,
    session_dir: &Path,
) -> Result<ScanOutcome, BatchError> {
    if files.is_empty() {
        return Err(BatchError::NoPrograms);
    }
    // Parse and fingerprint the bundle once.  The parsed programs feed the
    // analysis below directly, so a file saved mid-scan can never pair this
    // pass's fingerprint with a verdict of newer content.
    let bundle = parse_bundle(files)?;
    let configs = panel.configs()?;
    let stored = load_scan_session(session_dir, panel).unwrap_or_default();
    let hit = |entry: &BundleProgram| {
        stored
            .get(entry.program.name())
            .filter(|verdict| verdict.fingerprint == entry.fingerprint)
    };
    let misses: Vec<&BundleProgram> = bundle.iter().filter(|entry| hit(entry).is_none()).collect();
    let mut fresh = run_cold(&misses, &configs, jobs)?.into_iter();

    // Splice stored and fresh verdicts back into bundle order.
    let programs = bundle
        .iter()
        .map(|entry| match hit(entry) {
            Some(verdict) => verdict.clone(),
            None => fresh.next().expect("one fresh verdict per miss"),
        })
        .collect();
    // Stamp against the full bundle, exactly as a fresh `run_bundle` would:
    // the checksum folds the fingerprint pass this scan already ran.
    let report = BatchReport {
        panel,
        stamp: BundleStamp::new(panel, bundle.iter().map(|entry| entry.fingerprint), 0),
        programs,
    };
    let store_error = store_scan_session(session_dir, &report).err();
    Ok(ScanOutcome {
        report,
        reused: bundle.len() - misses.len(),
        analyzed: misses.len(),
        store_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{run_bundle, PanelKind};
    use crate::session::comparison_configs;
    use spec_cache::CacheConfig;
    use spec_ir::builder::ProgramBuilder;
    use spec_ir::IndexExpr;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn program(name: &str, offset: u64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let t = b.region("t", 256, false);
        let k = b.secret_region("k", 8);
        let entry = b.entry_block("entry");
        b.load(entry, t, IndexExpr::Const(offset));
        b.load(entry, k, IndexExpr::Const(0));
        b.ret(entry);
        b.finish().unwrap()
    }

    #[test]
    fn unchanged_programs_rebind_and_edits_invalidate() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));

        let a0 = session.update(&program("a", 0));
        assert!(!a0.reused);
        assert!(a0.diff.is_none(), "first sighting has no previous snapshot");
        a0.prepared.run_suite(&configs);
        let b0 = session.update(&program("b", 0));
        b0.prepared.run_suite(&configs);
        assert_eq!(session.len(), 2);

        // Re-parse of `a`, unchanged: the same session object comes back,
        // with all its memoized rounds.
        let a1 = session.update(&program("a", 0));
        assert!(a1.reused);
        assert!(Arc::ptr_eq(&a1.prepared, &a0.prepared));
        assert!(a1.diff.unwrap().is_identical());

        // Edit `a`: invalidated, diff localised; `b` is untouched.
        let a2 = session.update(&program("a", 64));
        assert!(!a2.reused);
        assert!(!Arc::ptr_eq(&a2.prepared, &a0.prepared));
        let diff = a2.diff.unwrap();
        assert_eq!(diff.changed_blocks.len(), 1);
        assert!(!diff.regions_changed);
        assert!(session.update(&program("b", 0)).reused);

        let stats = session.stats();
        assert_eq!(stats.inserted, 2);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.invalidated, 1);
    }

    #[test]
    fn region_preserving_edits_adopt_address_maps() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        session
            .update(&program("a", 0))
            .prepared
            .run_suite(&configs);
        let edited = session.update(&program("a", 128));
        assert!(!edited.reused);
        assert_eq!(session.stats().amaps_adopted, 1);
        // The adopted map serves the re-run without a rebuild.
        edited.prepared.run_suite(&configs);
        let stats = edited.prepared.cache_stats();
        assert_eq!(stats.amap_adopted, 1);
        assert_eq!(stats.amap_misses, 0, "no address map was rebuilt");

        // A region-table edit must not adopt.
        let mut grown = ProgramBuilder::new("a");
        let t = grown.region("t", 512, false);
        let entry = grown.entry_block("entry");
        grown.load(entry, t, IndexExpr::Const(0));
        grown.ret(entry);
        let update = session.update(&grown.finish().unwrap());
        assert!(update.diff.unwrap().regions_changed);
        assert_eq!(session.stats().amaps_adopted, 1, "unchanged");
    }

    #[test]
    fn two_phase_resolve_adopts_maps_and_counts_rename_installs() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let p = program("a", 0);
        assert!(
            session.lookup_warm(&p, program_fingerprint(&p)).is_none(),
            "cold lookup misses"
        );

        let installed = session.install(Arc::new(Analyzer::new().prepare(&p)));
        installed.run_suite(&configs); // builds the address map to adopt
        assert!(
            session.lookup_warm(&p, program_fingerprint(&p)).is_some(),
            "installed entry is warm"
        );

        // A rename-only variant: same structural fingerprint, new names.
        let mut renamed = ProgramBuilder::new("a");
        let t = renamed.region("t_renamed", 256, false);
        let k = renamed.secret_region("k_renamed", 8);
        let entry = renamed.entry_block("entry");
        renamed.load(entry, t, IndexExpr::Const(0));
        renamed.load(entry, k, IndexExpr::Const(0));
        renamed.ret(entry);
        let renamed = renamed.finish().unwrap();
        assert_eq!(program_fingerprint(&renamed), program_fingerprint(&p));

        let fresh = Arc::new(Analyzer::new().prepare(&renamed));
        let swapped = session.install(fresh.clone());
        assert!(Arc::ptr_eq(&swapped, &fresh), "install is last-writer-wins");
        let stats = session.stats();
        assert_eq!(stats.inserted, 1);
        assert_eq!(
            stats.invalidated, 1,
            "a same-fingerprint replacement still counts as an invalidation"
        );
        assert_eq!(stats.reused, 1, "one warm lookup");
        assert_eq!(
            stats.amaps_adopted, 1,
            "the rename left the region table structurally unchanged"
        );
        assert_eq!(swapped.cache_stats().amap_adopted, 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_programs() {
        // Probe one entry's (un-run) footprint; `a`, `b` and `c` are
        // structurally identical with equal-length names, so they account
        // identically.
        let mut probe = SessionCache::new();
        probe.update(&program("a", 0));
        let one = probe.resident_bytes();
        assert!(one > 0);
        assert_eq!(probe.stats().session_bytes, one);

        let mut session = SessionCache::new().max_session_bytes(one * 2 + one / 2);
        session.update(&program("a", 0));
        session.update(&program("b", 0));
        // Touching `a` demotes `b` to least recently used...
        assert!(session.update(&program("a", 0)).reused);
        // ...so the third insert evicts `b`, not `a`.
        session.update(&program("c", 0));
        assert!(session.get("a").is_some(), "recently used survives");
        assert!(session.get("b").is_none(), "the LRU entry is the victim");
        assert!(session.get("c").is_some(), "the newcomer is resident");
        let stats = session.stats();
        assert_eq!(stats.session_evictions, 1);
        assert_eq!(
            stats.inserted - stats.session_evictions,
            session.len() as u64,
            "installs minus evictions is the resident population"
        );
        assert!(stats.session_bytes <= one * 2 + one / 2, "the bound holds");

        // An evicted program's next sighting is a plain re-insert — never
        // a stale rebind.
        let back = session.update(&program("b", 0));
        assert!(!back.reused);
        assert!(
            back.diff.is_none(),
            "the session kept nothing to diff against"
        );
    }

    #[test]
    fn store_tier_restores_sessions_across_cache_instances() {
        let scratch = Scratch::new();
        let store_dir = scratch.0.join("artifacts");
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let p = program("a", 0);

        // First life: cold prepare (the store has nothing), run, persist.
        let mut first = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        assert!(
            first.lookup_tiered(&p, program_fingerprint(&p)).is_none(),
            "empty store misses"
        );
        let installed = first.install(Arc::new(Analyzer::new().prepare(&p)));
        let baseline = installed.run_suite(&configs).report().without_timing();
        assert_eq!(first.stats().store_misses, 1);
        assert_eq!(first.stats().store_hits, 0);
        assert!(first.persist_dirty() >= 1, "grown entry is flushed");
        assert_eq!(first.persist_dirty(), 0, "second flush finds nothing dirty");

        // Second life: a fresh cache over the same directory answers from
        // disk — no preparation, warm fixpoint rounds, identical report.
        let mut second = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        let (restored, tier) = second
            .lookup_tiered(&p, program_fingerprint(&p))
            .expect("store tier hit");
        assert_eq!(tier, SessionTier::Store);
        let stats = second.stats();
        assert_eq!((stats.store_hits, stats.store_misses), (1, 0));
        assert!(stats.store_loaded_bytes > 0);
        let report = restored.run_suite(&configs).report().without_timing();
        assert_eq!(report.to_json(), baseline.to_json());
        assert_eq!(
            restored.cache_stats().round_misses,
            0,
            "every fixpoint round replayed from the restored memo tables"
        );
        // The disk load is now a resident memory entry.
        assert_eq!(
            second.lookup_tiered(&p, program_fingerprint(&p)).unwrap().1,
            SessionTier::Memory,
            "second resolve is a warm rebind"
        );
        assert_eq!(
            second.cache_stats().store_hits,
            1,
            "cache_stats carries store counters"
        );

        // A rename-only variant shares the fingerprint but not the names:
        // the store must not serve it.
        let mut renamed = ProgramBuilder::new("a");
        let t = renamed.region("t_renamed", 256, false);
        let k = renamed.secret_region("k_renamed", 8);
        let entry = renamed.entry_block("entry");
        renamed.load(entry, t, IndexExpr::Const(0));
        renamed.load(entry, k, IndexExpr::Const(0));
        renamed.ret(entry);
        let renamed = renamed.finish().unwrap();
        assert_eq!(program_fingerprint(&renamed), program_fingerprint(&p));
        let mut third = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        assert!(
            third
                .lookup_tiered(&renamed, program_fingerprint(&renamed))
                .is_none(),
            "a rename falls through to the cold path"
        );
        assert_eq!(third.stats().store_misses, 1);
    }

    #[test]
    fn budget_eviction_flushes_dirty_entries_to_the_store() {
        let scratch = Scratch::new();
        let store_dir = scratch.0.join("artifacts");
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));

        // Probe one run entry's footprint so the budget holds exactly one.
        let mut probe = SessionCache::new();
        probe.update(&program("a", 0)).prepared.run_suite(&configs);
        let one = probe.resident_bytes();

        let mut session = SessionCache::new()
            .max_session_bytes(one + one / 2)
            .artifact_store(PreparedStore::open(&store_dir));
        session
            .update(&program("a", 0))
            .prepared
            .run_suite(&configs);
        // `a` has grown since its install-time write; growing `b` to the
        // same footprint pushes the session over budget, so the next
        // enforcement point evicts `a` (the LRU entry) — which must flush
        // its grown artifacts first.
        session
            .update(&program("b", 0))
            .prepared
            .run_suite(&configs);
        session.enforce_budget();
        assert!(session.get("a").is_none(), "`a` was evicted");
        assert_eq!(session.stats().session_evictions, 1);

        // Its next sighting loads the *grown* session from disk: the
        // memoized rounds replay instead of being re-solved.
        let a = program("a", 0);
        let (restored, tier) = session
            .lookup_tiered(&a, program_fingerprint(&a))
            .expect("store hit");
        assert_eq!(tier, SessionTier::Store);
        restored.run_suite(&configs);
        assert_eq!(
            restored.cache_stats().round_misses,
            0,
            "the eviction-time flush captured the memoized rounds"
        );
    }

    #[test]
    fn memoized_byte_accounting_tracks_growth() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let update = session.update(&program("a", 0));
        let before = session.resident_bytes();
        assert_eq!(
            session.resident_bytes(),
            before,
            "memoized answer is stable"
        );
        update.prepared.run_suite(&configs);
        let after = session.resident_bytes();
        assert!(
            after > before,
            "a grown round cache invalidates the per-entry size memo"
        );
        assert_eq!(session.stats().session_bytes, after);
    }

    static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            let dir = std::env::temp_dir().join(format!(
                "spec-incremental-test-{}-{}",
                std::process::id(),
                SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn write(&self, name: &str, contents: &str) -> PathBuf {
            let path = self.0.join(name);
            std::fs::write(&path, contents).unwrap();
            path
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    const CLEAN: &str = "program {name}\nregion t 64\nblock main entry:\n  load t[{off}]\n  ret\n";

    fn spec_source(name: &str, off: u64) -> String {
        CLEAN
            .replace("{name}", name)
            .replace("{off}", &off.to_string())
    }

    fn leak_panel() -> PanelSpec {
        PanelSpec {
            kind: PanelKind::LeakCheck,
            cache_lines: 8,
        }
    }

    #[test]
    fn incremental_scan_reuses_unchanged_programs_and_matches_fresh() {
        let scratch = Scratch::new();
        let a = scratch.write("a.spec", &spec_source("alpha", 0));
        let b = scratch.write("b.spec", &spec_source("beta", 0));
        let files = vec![a.clone(), b.clone()];
        let session = scratch.0.join("session");

        let cold = scan_bundle_incremental(&files, leak_panel(), 1, &session).unwrap();
        assert_eq!((cold.reused, cold.analyzed), (0, 2));

        // No edits: everything replays, and the report is byte-identical to
        // a fresh bundle run.
        let warm = scan_bundle_incremental(&files, leak_panel(), 1, &session).unwrap();
        assert_eq!((warm.reused, warm.analyzed), (2, 0));
        let fresh = run_bundle(&files, leak_panel(), 1).unwrap();
        assert_eq!(warm.report, fresh);
        assert_eq!(warm.report.to_json(), fresh.to_json());

        // Edit one file in place: only it re-analyses; bundle order holds.
        scratch.write("a.spec", &spec_source("alpha", 32));
        let edited = scan_bundle_incremental(&files, leak_panel(), 1, &session).unwrap();
        assert_eq!((edited.reused, edited.analyzed), (1, 1));
        let fresh = run_bundle(&files, leak_panel(), 1).unwrap();
        assert_eq!(edited.report.to_json(), fresh.to_json());
        let names: Vec<&str> = edited
            .report
            .programs
            .iter()
            .map(|p| p.report.program.as_str())
            .collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn panel_changes_and_corrupt_sessions_cold_start() {
        let scratch = Scratch::new();
        let a = scratch.write("a.spec", &spec_source("alpha", 0));
        let files = vec![a];
        let session = scratch.0.join("session");
        scan_bundle_incremental(&files, leak_panel(), 1, &session).unwrap();

        // A different panel must not reuse leak-check verdicts.
        let other = PanelSpec {
            kind: PanelKind::Comparison,
            cache_lines: 8,
        };
        let outcome = scan_bundle_incremental(&files, other, 1, &session).unwrap();
        assert_eq!((outcome.reused, outcome.analyzed), (0, 1));

        // Corrupt the stored session: the next scan degrades to cold.
        std::fs::write(session.join(SCAN_SESSION_FILE), "not json").unwrap();
        let outcome = scan_bundle_incremental(&files, other, 1, &session).unwrap();
        assert_eq!((outcome.reused, outcome.analyzed), (0, 1));
        // ...and the rewritten session is healthy again.
        let outcome = scan_bundle_incremental(&files, other, 1, &session).unwrap();
        assert_eq!((outcome.reused, outcome.analyzed), (1, 0));
    }

    #[test]
    fn unwritable_session_still_returns_the_report() {
        let scratch = Scratch::new();
        let a = scratch.write("a.spec", &spec_source("alpha", 0));
        // A *file* where the session directory should be: create_dir_all
        // fails, so the write-back cannot succeed — but the scan must.
        let blocked = scratch.write("blocked", "not a directory");
        let outcome =
            scan_bundle_incremental(std::slice::from_ref(&a), leak_panel(), 1, &blocked).unwrap();
        assert!(outcome.store_error.is_some(), "the store failure surfaces");
        assert_eq!((outcome.reused, outcome.analyzed), (0, 1));
        let fresh = run_bundle(&[a], leak_panel(), 1).unwrap();
        assert_eq!(outcome.report, fresh, "the verdict survives the failure");
    }

    #[test]
    fn corrupt_stored_entries_cold_start_instead_of_replaying() {
        let scratch = Scratch::new();
        let store_dir = scratch.0.join("artifacts");
        let open = || SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        let p = program("a", 0);
        open().update(&p);

        // Corrupt the stored artifact in place: the next cache must miss
        // the store and prepare cold — not crash or decode garbage — and
        // its write-through heals the entry.
        let artifact = PreparedStore::open(&store_dir)
            .store()
            .path_for(program_fingerprint(&p).0);
        std::fs::write(&artifact, [0xff, 0xfe, 0x00, 0x9f]).unwrap();
        let mut recovering = open();
        assert!(!recovering.update(&p).reused);
        let stats = recovering.stats();
        assert_eq!((stats.store_hits, stats.store_misses), (0, 1));
        let mut healed = open();
        healed.update(&p);
        assert_eq!(healed.stats().store_hits, 1, "the write-through healed it");
    }

    #[test]
    fn analyze_store_prunes_by_recency_of_use_not_creation() {
        let scratch = Scratch::new();
        let store_dir = scratch.0.join("artifacts");
        let [a, b, c] = [("a", 8), ("b", 16), ("c", 24)].map(|(name, off)| program(name, off));
        let mut writer = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        writer.update(&a);
        writer.update(&b);

        // Pin `a` (created first) and `b` to distinct past instants, `a`
        // older, so pruning order is a pure function of the loads below.
        let store = PreparedStore::open(&store_dir);
        let path = |p: &Program| store.store().path_for(program_fingerprint(p).0);
        for (i, p) in [&a, &b].into_iter().enumerate() {
            let stamp = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64);
            let file = std::fs::File::options().append(true).open(path(p)).unwrap();
            file.set_times(std::fs::FileTimes::new().set_modified(stamp))
                .unwrap();
        }
        let bytes = |p: &Program| std::fs::metadata(path(p)).unwrap().len();
        // Room for two of the three equally shaped artifacts.
        let budget = bytes(&a) + bytes(&b) + bytes(&a) / 2;

        // Loading the *oldest-created* artifact refreshes its recency...
        let mut reader = SessionCache::new()
            .artifact_store(PreparedStore::open(&store_dir).max_store_bytes(budget));
        reader.update(&a);
        assert_eq!(reader.stats().store_hits, 1);
        // ...so the save that overflows the budget evicts `b` (now the
        // least recently used), never the hot `a`.
        reader.update(&c);
        assert!(
            path(&a).exists(),
            "the reloaded artifact survives the churn"
        );
        assert!(
            !path(&b).exists(),
            "the least recently used artifact is the victim"
        );
        assert!(path(&c).exists(), "the newcomer is stored");
    }
}
