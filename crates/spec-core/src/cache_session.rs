//! The one caller-facing entry point of the tiered session caches.
//!
//! Its holders are the analysis service's worker pool and `specan analyze`
//! (whose `--incremental` mode attaches the artifact store).  Instead of
//! sequencing [`crate::incremental::SessionCache`]'s steps by hand —
//! lookup, compare names, prepare, install, persist, enforce — they use a
//! single acquire/commit protocol wrapped around the whole tier stack:
//!
//! ```text
//!   L1  the shared SessionCache entry table                 (one mutex)
//!   L2  the on-disk PreparedStore artifact tier             (under L1)
//! ```
//!
//! [`CacheSession::acquire`] walks the tiers top-down and returns a
//! [`CacheOutcome`]: a hit hands back the prepared session (tagged with
//! the tier that answered), a miss hands back a [`PrepareGuard`] that
//! holds **no lock** — the expensive [`Analyzer::prepare`] provably runs
//! outside any critical section, and [`PrepareGuard::commit`] installs the
//! result under the lock afterwards.  Misuse the old surface permitted
//! (installing without looking up, forgetting the name check, enforcing
//! the budget before persisting) is unrepresentable here.
//!
//! Every acquire takes the one mutex once: the program is hashed before
//! the lock, and a warm hit is a map probe plus an `Arc` clone under it.
//! That probe is a few microseconds of a sub-millisecond warm request, so
//! there is no per-thread tier in front of it — and no handle outlives its
//! eviction, which makes the byte budget an exact memory bound.
//! Name-correctness is checked on every tier: a name-sensitive acquire
//! compares the candidate's program against the requested one directly
//! (the same rule the store tier applies at load).
//!
//! # Accounting
//!
//! Every acquire lands in exactly one counter — `l1_hits`, `store_hits`,
//! `prepares` (committed guards) or `abandoned` (dropped guards) — so at
//! quiescence [`AcquireStats::reconciles`] holds:
//! `l1 + store + prepares + abandoned == acquires`.  The property suite in
//! `tests/cache_session.rs` pins both that ledger and the cross-worker
//! staleness guarantee.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use spec_ir::fingerprint::program_fingerprint;
use spec_ir::Program;
use spec_telemetry::{Histogram, Registry};

use crate::incremental::{SessionCache, SessionStats, SessionTier};
use crate::session::{Analyzer, CacheStats, PreparedProgram};

/// Locks a mutex, recovering from poisoning.  A thread that panicked while
/// holding a session lock leaves plain data (maps and counters) behind, and
/// every consumer of that data re-validates what matters — fingerprints,
/// program equality — on use; abandoning the whole service over a poisoned
/// flag would turn one lost request into a dead pool.  Worst case the
/// survivors re-prepare cold, which is slow and correct.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lifetime acquire counters of one [`CacheSession`] — which tier answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcquireStats {
    /// Total [`CacheSession::acquire`]/[`CacheSession::acquire_structural`]
    /// calls.
    pub acquires: u64,
    /// Acquires answered by the shared in-memory L1 under the lock.
    pub l1_hits: u64,
    /// Acquires answered by deserializing from the on-disk store tier.
    pub store_hits: u64,
    /// Guards committed: cold (or renamed) preparations installed.
    pub prepares: u64,
    /// Guards dropped uncommitted (an error between acquire and commit).
    pub abandoned: u64,
}

impl AcquireStats {
    /// The ledger invariant: every acquire is accounted to exactly one
    /// tier or guard outcome.  Holds whenever no [`PrepareGuard`] is
    /// currently in flight.
    pub fn reconciles(&self) -> bool {
        self.l1_hits + self.store_hits + self.prepares + self.abandoned == self.acquires
    }
}

/// What [`CacheSession::acquire`] resolved, tier-tagged.
///
/// The two hit arms are interchangeable for correctness — the handle
/// answers byte-identically wherever it came from — and differ only in
/// cost and accounting.  The miss arm carries the obligation: prepare
/// (outside any lock) and [`PrepareGuard::commit`], or drop the guard to
/// abandon the request.
pub enum CacheOutcome<'a> {
    /// Served warm from the shared in-memory L1.
    WarmHit(Arc<PreparedProgram>),
    /// Deserialized from the on-disk artifact store (now resident in L1).
    StoreHit(Arc<PreparedProgram>),
    /// Nothing usable is cached: prepare cold and commit the result.
    NeedsPrepare(PrepareGuard<'a>),
}

impl CacheOutcome<'_> {
    /// The accounting tag of this outcome (`warm`, `store`, `renamed`,
    /// `prepared`) — the vocabulary of the service log lines.
    pub fn tag(&self) -> &'static str {
        match self {
            CacheOutcome::WarmHit(_) => "warm",
            CacheOutcome::StoreHit(_) => "store",
            CacheOutcome::NeedsPrepare(guard) if guard.renamed => "renamed",
            CacheOutcome::NeedsPrepare(_) => "prepared",
        }
    }
}

/// Per-tier acquire latency histograms, one series per answering tier.
/// Optional on a [`CacheSession`] — fronts without telemetry (one-shot
/// CLI runs, tests) record nothing and pay one relaxed pointer read.
///
/// `l1`/`store` time the acquire probe itself; `cold` spans the whole
/// miss obligation — acquire through [`PrepareGuard::commit`] — so it
/// includes the preparation, which is the cost a cold request actually
/// pays.  Abandoned guards record nothing (there is no latency to a
/// request that failed before preparing).
pub struct TierTelemetry {
    l1: Histogram,
    store: Histogram,
    cold: Histogram,
}

impl TierTelemetry {
    /// Registers the `spec_cache_acquire_seconds{tier}` family on
    /// `registry` and returns the recording handles.
    pub fn registered(registry: &Registry) -> Self {
        let tier = |name: &'static str| {
            registry.histogram(
                "spec_cache_acquire_seconds",
                "Session acquire latency by answering tier (cold spans acquire through commit).",
                &[("tier", name)],
            )
        };
        Self {
            l1: tier("l1"),
            store: tier("store"),
            cold: tier("cold"),
        }
    }
}

/// The obligation half of a [`CacheOutcome::NeedsPrepare`]: proof that the
/// caller is *outside* every session lock, with [`PrepareGuard::commit`]
/// as the only way back in.  Dropping the guard without committing is
/// legal (the request failed before preparing) and counted as
/// [`AcquireStats::abandoned`].
pub struct PrepareGuard<'a> {
    session: &'a CacheSession,
    renamed: bool,
    committed: bool,
    /// When the acquire that produced this guard started — the cold-tier
    /// latency measures from here to the commit.
    started: Instant,
}

impl PrepareGuard<'_> {
    /// `true` when a structurally identical session was cached but its
    /// names differ from the requested program's — the caller asked for
    /// name-exact resolution, so it must re-prepare under the new names
    /// (the service logs these as `renamed` rather than `prepared`).
    pub fn renamed(&self) -> bool {
        self.renamed
    }

    /// Cold-prepares `program` with the session's analyzer — outside any
    /// lock — and commits the result.  The convenience path for callers
    /// with no analyzer of their own.
    pub fn prepare(self, program: &Program) -> Arc<PreparedProgram> {
        let prepared = Arc::new(self.session.inner.analyzer.prepare(program));
        self.commit(prepared)
    }

    /// Installs an externally prepared session into the shared cache
    /// (write-through to the store tier, budget enforced) and returns the
    /// resident handle.  Last-writer-wins under races, exactly like the
    /// cache it fronts: concurrent preparations of one program are
    /// interchangeable.
    pub fn commit(mut self, prepared: Arc<PreparedProgram>) -> Arc<PreparedProgram> {
        self.committed = true;
        self.session.inner.prepares.fetch_add(1, Ordering::Relaxed);
        let installed = relock(&self.session.inner.cache).install(prepared);
        if let Some(telemetry) = self.session.inner.telemetry.get() {
            telemetry.cold.record(self.started.elapsed());
        }
        installed
    }
}

impl Drop for PrepareGuard<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.session.inner.abandoned.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct SessionFront {
    cache: Mutex<SessionCache>,
    /// A clone of the cache's analyzer, so guard commits prepare without
    /// touching the lock.
    analyzer: Analyzer,
    /// Builder-time facts of the wrapped cache, cached here so the
    /// accounting fast path never locks.
    has_store: bool,
    budget: Option<u64>,
    /// Per-tier acquire latency histograms, installed once by telemetry-
    /// carrying holders (the service); `get()` on the hot path is one
    /// relaxed load.
    telemetry: OnceLock<TierTelemetry>,
    acquires: AtomicU64,
    l1_hits: AtomicU64,
    store_hits: AtomicU64,
    prepares: AtomicU64,
    abandoned: AtomicU64,
}

/// The single caller-facing handle over the L1/store tier stack — see the
/// module docs for the protocol.  Cheap to clone (one `Arc`); all methods
/// take `&self` and the handle is `Sync`, so one session front is shared
/// across a whole worker pool.
#[derive(Clone)]
pub struct CacheSession {
    inner: Arc<SessionFront>,
}

impl CacheSession {
    /// Wraps `cache` — configured via its own builders (analyzer, byte
    /// budget, artifact store) — as a shared, lock-disciplined front.
    pub fn new(cache: SessionCache) -> Self {
        let analyzer = cache.analyzer().clone();
        let has_store = cache.has_store();
        let budget = cache.budget();
        Self {
            inner: Arc::new(SessionFront {
                cache: Mutex::new(cache),
                analyzer,
                has_store,
                budget,
                telemetry: OnceLock::new(),
                acquires: AtomicU64::new(0),
                l1_hits: AtomicU64::new(0),
                store_hits: AtomicU64::new(0),
                prepares: AtomicU64::new(0),
                abandoned: AtomicU64::new(0),
            }),
        }
    }

    /// Installs per-tier latency histograms on this front (idempotent:
    /// the first install wins, later calls are ignored).  Fronts without
    /// telemetry record nothing.
    pub fn set_tier_telemetry(&self, telemetry: TierTelemetry) {
        let _ = self.inner.telemetry.set(telemetry);
    }

    /// Resolves `program` name-exactly: a hit requires the cached session's
    /// program to compare equal, names included, on every tier.  This is
    /// the tier for `analyze`-shaped output, which embeds region and block
    /// names the structural fingerprint deliberately ignores — a
    /// rename-only edit yields [`CacheOutcome::NeedsPrepare`] with
    /// [`PrepareGuard::renamed`] set instead of replaying stale names.
    pub fn acquire(&self, program: &Program) -> CacheOutcome<'_> {
        self.acquire_inner(program, true)
    }

    /// Resolves `program` by structural fingerprint under its program
    /// name, ignoring region/block renames — for name-insensitive outputs
    /// (`compare`, `scan` verdicts), which serialize identically across
    /// renames.
    pub fn acquire_structural(&self, program: &Program) -> CacheOutcome<'_> {
        self.acquire_inner(program, false)
    }

    fn acquire_inner(&self, program: &Program, name_exact: bool) -> CacheOutcome<'_> {
        let started = Instant::now();
        self.inner.acquires.fetch_add(1, Ordering::Relaxed);
        // Hashed once, before the lock; every tier below keys off it.
        let fingerprint = program_fingerprint(program);
        let hit = relock(&self.inner.cache).lookup_tiered(program, fingerprint);
        let needs_prepare = |renamed| {
            CacheOutcome::NeedsPrepare(PrepareGuard {
                session: self,
                renamed,
                committed: false,
                started,
            })
        };
        let (prepared, tier) = match hit {
            None => return needs_prepare(false),
            Some((prepared, _)) if name_exact && prepared.program() != program => {
                return needs_prepare(true)
            }
            Some(hit) => hit,
        };
        let telemetry = self.inner.telemetry.get();
        match tier {
            SessionTier::Memory => {
                self.inner.l1_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(telemetry) = telemetry {
                    telemetry.l1.record(started.elapsed());
                }
                CacheOutcome::WarmHit(prepared)
            }
            SessionTier::Store => {
                self.inner.store_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(telemetry) = telemetry {
                    telemetry.store.record(started.elapsed());
                }
                CacheOutcome::StoreHit(prepared)
            }
        }
    }

    /// The request-boundary maintenance pass, in the one correct order:
    /// flush dirty entries to the store tier (so a crash at any boundary
    /// finds warm artifacts on disk), then enforce the byte budget (which
    /// persists-before-evicting on its own), then snapshot the stats.
    /// Long-running holders call this after every request; both halves are
    /// no-ops without their respective configuration, and the budget half
    /// skips its re-measure entirely when a coarse growth tick proves no
    /// resident entry changed since the last in-budget pass.
    pub fn checkpoint(&self) -> SessionStats {
        let mut cache = relock(&self.inner.cache);
        if self.inner.has_store {
            cache.persist_dirty();
        }
        cache.enforce_budget();
        self.overlay(cache.stats())
    }

    /// The wrapped cache's lifetime counters with the front's L1 tier hits
    /// overlaid — the complete ledger.
    pub fn stats(&self) -> SessionStats {
        self.overlay(relock(&self.inner.cache).stats())
    }

    /// Aggregated artifact-cache counters across every resident program,
    /// with the front's L1 tier hits overlaid.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = relock(&self.inner.cache).cache_stats();
        stats.l1_hits = self.inner.l1_hits.load(Ordering::Relaxed);
        stats
    }

    /// This front's acquire ledger (see [`AcquireStats::reconciles`]).
    pub fn acquire_stats(&self) -> AcquireStats {
        AcquireStats {
            acquires: self.inner.acquires.load(Ordering::Relaxed),
            l1_hits: self.inner.l1_hits.load(Ordering::Relaxed),
            store_hits: self.inner.store_hits.load(Ordering::Relaxed),
            prepares: self.inner.prepares.load(Ordering::Relaxed),
            abandoned: self.inner.abandoned.load(Ordering::Relaxed),
        }
    }

    /// Number of programs resident in the L1.
    pub fn len(&self) -> usize {
        relock(&self.inner.cache).len()
    }

    /// `true` iff the L1 holds no program.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The L1's byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.inner.budget
    }

    /// `true` iff an on-disk artifact tier is configured.
    pub fn has_store(&self) -> bool {
        self.inner.has_store
    }

    /// The summed byte estimate of every L1-resident entry, measured now.
    pub fn resident_bytes(&self) -> u64 {
        relock(&self.inner.cache).resident_bytes()
    }

    fn overlay(&self, mut stats: SessionStats) -> SessionStats {
        stats.l1_hits = self.inner.l1_hits.load(Ordering::Relaxed);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_ir::builder::ProgramBuilder;
    use spec_ir::IndexExpr;

    fn program(name: &str, offset: u64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let t = b.region("t", 256, false);
        let entry = b.entry_block("entry");
        b.load(entry, t, IndexExpr::Const(offset));
        b.ret(entry);
        b.finish().unwrap()
    }

    #[test]
    fn acquire_prepares_then_hits_l1_and_reconciles() {
        let session = CacheSession::new(SessionCache::new());
        let p = program("a", 0);

        let CacheOutcome::NeedsPrepare(guard) = session.acquire(&p) else {
            panic!("an empty session must miss");
        };
        assert!(!guard.renamed());
        let prepared = guard.prepare(&p);
        assert_eq!(prepared.program(), &p);

        // The commit installed the handle: the re-acquire is a warm hit on
        // the very same session.
        let CacheOutcome::WarmHit(hit) = session.acquire(&p) else {
            panic!("the committed handle must be warm in L1");
        };
        assert!(Arc::ptr_eq(&hit, &prepared));

        let stats = session.acquire_stats();
        assert_eq!(
            (stats.acquires, stats.l1_hits, stats.prepares),
            (2, 1, 1),
            "{stats:?}"
        );
        assert!(stats.reconciles());
        let session_stats = session.stats();
        assert_eq!(session_stats.l1_hits, 1);
        assert_eq!(session_stats.inserted, 1);
    }

    #[test]
    fn l1_serves_other_threads() {
        let session = CacheSession::new(SessionCache::new());
        let p = program("a", 0);
        let CacheOutcome::NeedsPrepare(guard) = session.acquire(&p) else {
            panic!("cold miss expected");
        };
        guard.prepare(&p);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(matches!(session.acquire(&p), CacheOutcome::WarmHit(_)));
                assert!(matches!(session.acquire(&p), CacheOutcome::WarmHit(_)));
            });
        });
        let stats = session.acquire_stats();
        assert_eq!((stats.l1_hits, stats.prepares), (2, 1));
        assert!(stats.reconciles());
    }

    #[test]
    fn rename_yields_a_renamed_guard_instead_of_stale_names() {
        let session = CacheSession::new(SessionCache::new());
        let p = program("a", 0);
        match session.acquire(&p) {
            CacheOutcome::NeedsPrepare(guard) => guard.prepare(&p),
            _ => panic!("cold miss expected"),
        };

        // Same structure, renamed region: the structural tier serves it...
        let mut renamed = ProgramBuilder::new("a");
        let t = renamed.region("t_v2", 256, false);
        let entry = renamed.entry_block("entry");
        renamed.load(entry, t, IndexExpr::Const(0));
        renamed.ret(entry);
        let renamed = renamed.finish().unwrap();
        assert!(matches!(
            session.acquire_structural(&renamed),
            CacheOutcome::WarmHit(_)
        ));
        // ...but the name-exact tier must re-prepare, and the commit
        // swaps the entry so the old names are gone everywhere.
        let outcome = session.acquire(&renamed);
        assert_eq!(outcome.tag(), "renamed");
        let CacheOutcome::NeedsPrepare(guard) = outcome else {
            unreachable!()
        };
        let swapped = guard.prepare(&renamed);
        assert_eq!(swapped.program(), &renamed);
        match session.acquire(&renamed) {
            CacheOutcome::WarmHit(hit) => assert_eq!(hit.program(), &renamed),
            other => panic!("expected a warm hit, got `{}`", other.tag()),
        };
    }
}
