//! Compositional fixpoint summaries: per-block solver reuse across edits.
//!
//! A [`crate::session::PreparedProgram`] memoizes whole fixpoint *rounds*,
//! which is exactly right while the program does not change — and exactly
//! wrong when it does: one edited block used to discard every solved round
//! even though the fixpoint over the untouched region is unchanged.  This
//! module shrinks the unit of reuse from "program" to "block".
//!
//! The model is summary-based:
//!
//! * every block of an unrolled analysis core is a **summary** — its slice
//!   of the converged per-node states of each solved round — keyed by the
//!   block's structural fingerprint (`spec_ir::fingerprint`);
//! * summaries depend on each other along the *effective* edge relation of
//!   the virtual CFG: ordinary control-flow edges plus the speculative
//!   rollback edges, the exact relation the solver propagates state over;
//! * when the incremental layer re-prepares an edited program it donates a
//!   [`DonorSnapshot`] of the prior session's cores ([`SummaryStore`]); the
//!   new core matches blocks positionally by fingerprint, invalidates the
//!   changed blocks **and every transitive dependent**, and freezes the
//!   rest;
//! * each solved round then seeds the frozen region from the donor's
//!   converged states (`spec_absint::WorklistSolver::solve_seeded`) and
//!   iterates only the invalidated region.
//!
//! Determinism is the contract: a partially-reused prepare must be
//! byte-identical (post timing-strip) to a cold one.  Seeding is therefore
//! gated hard — see [`CoreSummaries::seed_for`] — and every gate failure
//! falls back to a full solve, never to an approximation:
//!
//! 1. the donor solved the same unroll variant and speculation structure
//!    (same `UnrollKey`, a donor VCFG under the same `VcfgKey`, equal entry
//!    index and color count — colors index the per-round bounds vector, so
//!    their numbering must align);
//! 2. the frozen set is closed under predecessors **on both sides** over
//!    graph and rollback edges jointly, so no changed state can leak into
//!    a frozen block on either the donor or the recomputed side;
//! 3. every widening point is frozen: the recomputed region then has a
//!    unique least fixpoint, independent of visit order, while the frozen
//!    region's (possibly widened) states transplant verbatim;
//! 4. the speculation structure visible from frozen nodes corresponds
//!    one-to-one: per-node color membership and distances, branch colors,
//!    commit points, and each referenced site's entry/resume nodes.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spec_ir::fingerprint::block_fingerprint;
use spec_ir::heap::HeapSize;
use spec_ir::{BlockId, Program};
use spec_vcfg::{Color, NodeId, Vcfg};

use crate::session::{PreparedCore, RoundKey, RoundResult, UnrollKey, VcfgKey};

/// The summary tier of one [`crate::session::PreparedProgram`]: donor
/// snapshots pending adoption, plus the session's summary accounting.
/// Lives next to the `Memo`/`RoundCache` tables.
pub(crate) struct SummaryStore {
    /// Donor snapshots from a prior session, keyed by unroll variant,
    /// consumed when the matching core of this session is first built.
    pending: Mutex<HashMap<UnrollKey, DonorSnapshot>>,
    /// Blocks whose converged states were transplanted, per solved round.
    hits: AtomicU64,
    /// Blocks solved by fixpoint iteration, per solved round.
    misses: AtomicU64,
    /// Blocks invalidated at adoption time: the edited blocks plus their
    /// transitive dependents over the block CFG.
    invalidated: AtomicU64,
}

impl SummaryStore {
    pub(crate) fn new() -> Self {
        Self {
            pending: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// Offers `donor` as the summary source for the `key` unroll variant.
    /// A snapshot stashed after the variant's core was already built is
    /// simply never consumed.
    pub(crate) fn stash(&self, key: UnrollKey, donor: DonorSnapshot) {
        self.pending
            .lock()
            .expect("summary store poisoned")
            .insert(key, donor);
    }

    /// Consumes the pending donor for `key`, if any.
    pub(crate) fn take(&self, key: &UnrollKey) -> Option<DonorSnapshot> {
        self.pending
            .lock()
            .expect("summary store poisoned")
            .remove(key)
    }

    /// Records the per-block outcome of one solved round.
    pub(crate) fn record_round(&self, seeded_blocks: u64, solved_blocks: u64) {
        self.hits.fetch_add(seeded_blocks, Ordering::Relaxed);
        self.misses.fetch_add(solved_blocks, Ordering::Relaxed);
    }

    pub(crate) fn record_invalidated(&self, blocks: u64) {
        self.invalidated.fetch_add(blocks, Ordering::Relaxed);
    }

    /// `(hits, misses, invalidated)` so far.
    pub(crate) fn counts(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.invalidated.load(Ordering::Relaxed),
        )
    }
}

/// The per-block summary key table of one analysis core: the structural
/// fingerprint of every block of the (unrolled) analyzed program, in block
/// order.  This is what summaries are keyed by, what the matcher compares,
/// and what the artifact tier persists for warm restarts.
pub(crate) fn summary_keys(analyzed: &Program) -> Vec<u64> {
    analyzed
        .blocks()
        .iter()
        .map(|block| block_fingerprint(block).0)
        .collect()
}

/// Everything a future core needs from a donor core, snapshotted at
/// adoption time.  Deliberately *not* an `Arc<PreparedCore>`: holding the
/// donor core alive would chain session generations together (each edit's
/// core retaining its predecessor's, transitively), so the snapshot copies
/// the cheap tables and `Arc`-shares only the heavy immutable values
/// (programs, VCFGs, converged round states).
pub(crate) struct DonorSnapshot {
    analyzed: Arc<Program>,
    widen_headers: Vec<BlockId>,
    block_keys: Vec<u64>,
    vcfgs: HashMap<VcfgKey, Arc<Vcfg>>,
    rounds: HashMap<RoundKey, Arc<RoundResult>>,
}

impl DonorSnapshot {
    pub(crate) fn of(core: &PreparedCore) -> Self {
        Self {
            analyzed: Arc::clone(&core.analyzed),
            widen_headers: core.widen_headers.clone(),
            block_keys: core.block_keys.clone(),
            vcfgs: core.vcfgs.entries().into_iter().collect(),
            rounds: core.rounds.lru_entries().into_iter().collect(),
        }
    }
}

impl HeapSize for DonorSnapshot {
    fn heap_size(&self) -> usize {
        self.analyzed.heap_size()
            + self.widen_headers.heap_size()
            + self.block_keys.heap_size()
            + self
                .vcfgs
                .values()
                .map(|vcfg| std::mem::size_of::<Vcfg>() + vcfg.heap_size())
                .sum::<usize>()
            + self
                .rounds
                .iter()
                .map(|(key, round)| {
                    std::mem::size_of::<RoundKey>()
                        + key.5.heap_size()
                        + std::mem::size_of::<RoundResult>()
                        + round.0.heap_size()
                })
                .sum::<usize>()
    }
}

/// A donor adopted into one freshly built core: the positional block
/// matching against the donor's summary keys, and the per-VCFG seeds
/// resolved (and memoized) on demand.
pub(crate) struct CoreSummaries {
    donor: DonorSnapshot,
    /// Per block of the new analyzed program: content-identical (equal
    /// summary key) to the donor block at the same index.
    matched: Vec<bool>,
    /// Per-VCFG seeding decision, memoized per speculation structure.
    /// `None` inside the map records a failed gate: fall back to full
    /// solves for that structure, and never retry the gate.
    seeds: Mutex<HashMap<VcfgKey, Option<Arc<VcfgSeed>>>>,
}

impl CoreSummaries {
    /// Matches the freshly analyzed program against `donor` and accounts
    /// the invalidated blocks (changed blocks plus transitive dependents
    /// over the block CFG) in `store`.
    pub(crate) fn build(
        analyzed: &Program,
        keys: &[u64],
        donor: DonorSnapshot,
        store: &SummaryStore,
    ) -> Self {
        let matched: Vec<bool> = keys
            .iter()
            .enumerate()
            .map(|(b, key)| donor.block_keys.get(b) == Some(key))
            .collect();
        store.record_invalidated(invalidated_block_closure(analyzed, &matched));
        Self {
            donor,
            matched,
            seeds: Mutex::new(HashMap::new()),
        }
    }

    /// The donor's converged states for one round, if it solved that round.
    pub(crate) fn donor_round(&self, key: &RoundKey) -> Option<Arc<RoundResult>> {
        self.donor.rounds.get(key).cloned()
    }

    /// The seeding decision for one speculation structure: `Some` when the
    /// gates pass and frozen blocks can transplant donor states, `None`
    /// when this structure must be solved cold.  Deterministic per key, so
    /// the decision is computed once and memoized.
    pub(crate) fn seed_for(
        &self,
        key: VcfgKey,
        analyzed: &Program,
        vcfg: &Vcfg,
        widen_nodes: &HashSet<usize>,
    ) -> Option<Arc<VcfgSeed>> {
        if let Some(decision) = self.seeds.lock().expect("summary seeds poisoned").get(&key) {
            return decision.clone();
        }
        let seed = build_vcfg_seed(analyzed, &self.matched, vcfg, widen_nodes, &self.donor, key)
            .map(Arc::new);
        self.seeds
            .lock()
            .expect("summary seeds poisoned")
            .entry(key)
            .or_insert(seed)
            .clone()
    }
}

impl HeapSize for CoreSummaries {
    fn heap_size(&self) -> usize {
        // The lazily memoized seed plans are policy scratch (a few words
        // per node) next to the retained donor states; only the latter
        // matter to session byte budgets.
        self.donor.heap_size() + self.matched.heap_size()
    }
}

/// The summary context of one run, resolved by
/// [`crate::session::PreparedProgram::run`] and consumed by the solver
/// driver: the seeding plan for the run's VCFG (when the gates passed) and
/// the session's accounting sink.
pub(crate) struct SummaryCtx<'a> {
    pub(crate) seed: Option<(Arc<VcfgSeed>, &'a CoreSummaries)>,
    pub(crate) store: &'a SummaryStore,
}

/// The resolved seeding plan for one (core, VCFG) pair: which nodes are
/// frozen, and where each frozen node's converged state lives in the donor.
pub(crate) struct VcfgSeed {
    /// For each node of the new VCFG: the donor node holding its converged
    /// state.  Only meaningful where `frozen` is set.
    pub(crate) donor_node: Vec<u32>,
    /// Nodes whose states transplant from the donor.
    pub(crate) frozen: Vec<bool>,
    /// Blocks all of whose nodes are frozen — the summary-hit unit.
    pub(crate) frozen_blocks: u64,
}

/// Number of blocks invalidated by the matching: unmatched blocks plus
/// everything reachable from them over the block CFG (the summary
/// dependency graph's coarse projection — state flows along successor
/// edges, so a dependent's fixpoint may change).
fn invalidated_block_closure(analyzed: &Program, matched: &[bool]) -> u64 {
    let n = analyzed.blocks().len();
    let mut invalid: Vec<bool> = (0..n).map(|b| !matched[b]).collect();
    let mut worklist: Vec<usize> = (0..n).filter(|&b| invalid[b]).collect();
    while let Some(b) = worklist.pop() {
        for succ in analyzed.blocks()[b].term.successors() {
            if !invalid[succ.index()] {
                invalid[succ.index()] = true;
                worklist.push(succ.index());
            }
        }
    }
    invalid.iter().filter(|&&inv| inv).count() as u64
}

/// Per-node speculative membership of one VCFG, mirrored from the solver's
/// engine: which colors' windows (with distances) and resume regions cover
/// each node.  Frozen nodes must agree on this exactly — it is every
/// color-indexed input the transfer function reads.
struct MembershipLite {
    spec: Vec<HashMap<Color, u32>>,
    resume: Vec<HashSet<Color>>,
}

fn membership_of(vcfg: &Vcfg) -> MembershipLite {
    let n = vcfg.graph().len();
    let mut spec: Vec<HashMap<Color, u32>> = vec![HashMap::new(); n];
    let mut resume: Vec<HashSet<Color>> = vec![HashSet::new(); n];
    for site in vcfg.sites() {
        for (node, dist) in &site.spec_distance {
            spec[node.index()].insert(site.color, *dist);
        }
        for node in &site.resume_region {
            resume[node.index()].insert(site.color);
        }
    }
    MembershipLite { spec, resume }
}

/// The effective forward adjacency the solver propagates over: graph
/// successors plus the per-site rollback edges (speculative region node →
/// resume entry).  Duplicates are harmless for reachability.
fn effective_successors(vcfg: &Vcfg) -> Vec<Vec<u32>> {
    let graph = vcfg.graph();
    let mut adj: Vec<Vec<u32>> = (0..graph.len())
        .map(|i| {
            graph
                .successors(NodeId::from_raw(i as u32))
                .iter()
                .map(|s| s.index() as u32)
                .collect()
        })
        .collect();
    for site in vcfg.sites() {
        for node in site.spec_distance.keys() {
            adj[node.index()].push(site.resume_entry.index() as u32);
        }
    }
    adj
}

/// Per-block node ranges `(first, len)` of a program under its VCFG.
fn block_ranges(analyzed: &Program, vcfg: &Vcfg) -> Vec<(usize, usize)> {
    analyzed
        .blocks()
        .iter()
        .map(|block| {
            let first = vcfg.graph().first_node_of_block(block.id).index();
            (first, block.insts.len() + 1)
        })
        .collect()
}

/// Builds the seeding plan for one VCFG, or `None` when any determinism
/// gate fails (see the module docs for the gate list).
fn build_vcfg_seed(
    analyzed: &Program,
    matched: &[bool],
    vcfg: &Vcfg,
    widen_nodes: &HashSet<usize>,
    donor: &DonorSnapshot,
    key: VcfgKey,
) -> Option<VcfgSeed> {
    // Gate 1 — same structure prerequisites.
    let donor_vcfg = donor.vcfgs.get(&key)?;
    let donor_program: &Program = &donor.analyzed;
    if analyzed.entry().index() != donor_program.entry().index()
        || vcfg.num_colors() != donor_vcfg.num_colors()
    {
        return None;
    }

    let new_ranges = block_ranges(analyzed, vcfg);
    let old_ranges = block_ranges(donor_program, donor_vcfg);
    let n_new = vcfg.graph().len();
    let n_old = donor_vcfg.graph().len();

    // Node correspondence over matched blocks (identical content implies
    // identical per-block node counts).
    let mut donor_node: Vec<u32> = vec![u32::MAX; n_new];
    let mut new_node: Vec<u32> = vec![u32::MAX; n_old];
    for (b, &is_matched) in matched.iter().enumerate() {
        if !is_matched {
            continue;
        }
        let (nf, nl) = new_ranges[b];
        let (of, ol) = old_ranges[b];
        debug_assert_eq!(nl, ol, "matched blocks have equal node counts");
        for k in 0..nl {
            donor_node[nf + k] = (of + k) as u32;
            new_node[of + k] = (nf + k) as u32;
        }
    }

    // Gate 2 — joint invalidation closure: changed/unmatched nodes on
    // either side poison everything they reach over graph + rollback
    // edges, with matched node pairs kept in sync, so the frozen remainder
    // is predecessor-closed on both sides simultaneously.
    let new_adj = effective_successors(vcfg);
    let old_adj = effective_successors(donor_vcfg);
    let mut inv_new: Vec<bool> = vec![false; n_new];
    let mut inv_old: Vec<bool> = vec![false; n_old];
    let mut worklist: Vec<(bool, usize)> = Vec::new();
    for (i, &mapped) in donor_node.iter().enumerate() {
        if mapped == u32::MAX {
            inv_new[i] = true;
            worklist.push((true, i));
        }
    }
    for (i, &mapped) in new_node.iter().enumerate() {
        if mapped == u32::MAX {
            inv_old[i] = true;
            worklist.push((false, i));
        }
    }
    while let Some((is_new, node)) = worklist.pop() {
        let (adj, inv, other_inv, map) = if is_new {
            (&new_adj, &mut inv_new, &mut inv_old, &donor_node)
        } else {
            (&old_adj, &mut inv_old, &mut inv_new, &new_node)
        };
        let mirror = map[node];
        if mirror != u32::MAX && !other_inv[mirror as usize] {
            other_inv[mirror as usize] = true;
            worklist.push((!is_new, mirror as usize));
        }
        for &succ in &adj[node] {
            if !inv[succ as usize] {
                inv[succ as usize] = true;
                worklist.push((is_new, succ as usize));
            }
        }
    }
    let frozen: Vec<bool> = (0..n_new)
        .map(|i| donor_node[i] != u32::MAX && !inv_new[i])
        .collect();
    if frozen.iter().all(|&f| !f) {
        return None; // nothing to transplant: plain cold solve
    }

    // Gate 3 — every widening point frozen, with the donor's widening set
    // its exact mirror: the recomputed region then converges to its unique
    // least fixpoint, and frozen widened states transplant verbatim.
    let donor_widen: HashSet<usize> = donor
        .widen_headers
        .iter()
        .map(|header| donor_vcfg.graph().first_node_of_block(*header).index())
        .collect();
    if widen_nodes.len() != donor_widen.len() {
        return None;
    }
    for &w in widen_nodes {
        if !frozen[w] || !donor_widen.contains(&(donor_node[w] as usize)) {
            return None;
        }
    }

    // Gate 4 — the speculation structure visible from frozen nodes
    // corresponds exactly (same color indices: colors number the bounds
    // vector of every round key).
    let corresponds = |a: NodeId, b: NodeId| -> bool {
        let mapped = donor_node[a.index()];
        if mapped != u32::MAX {
            mapped as usize == b.index()
        } else {
            new_node[b.index()] == u32::MAX
        }
    };
    let new_membership = membership_of(vcfg);
    let old_membership = membership_of(donor_vcfg);
    for i in 0..n_new {
        if !frozen[i] {
            continue;
        }
        let o = donor_node[i] as usize;
        if new_membership.spec[i] != old_membership.spec[o]
            || new_membership.resume[i] != old_membership.resume[o]
        {
            return None;
        }
        let node = NodeId::from_raw(i as u32);
        let donor_at = NodeId::from_raw(o as u32);
        if vcfg.colors_at_branch(node) != donor_vcfg.colors_at_branch(donor_at)
            || vcfg.commits_at(node) != donor_vcfg.commits_at(donor_at)
        {
            return None;
        }
        let referenced = vcfg
            .colors_at_branch(node)
            .iter()
            .chain(new_membership.spec[i].keys());
        for &color in referenced {
            let new_site = vcfg.site(color);
            let old_site = donor_vcfg.site(color);
            if !corresponds(new_site.speculated_entry, old_site.speculated_entry)
                || !corresponds(new_site.resume_entry, old_site.resume_entry)
                || !corresponds(new_site.branch_node, old_site.branch_node)
            {
                return None;
            }
        }
    }

    let frozen_blocks = (0..matched.len())
        .filter(|&b| {
            let (first, len) = new_ranges[b];
            matched[b] && (first..first + len).all(|node| frozen[node])
        })
        .count() as u64;
    Some(VcfgSeed {
        donor_node,
        frozen,
        frozen_blocks,
    })
}
