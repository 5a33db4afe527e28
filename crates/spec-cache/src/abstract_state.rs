//! The abstract cache domain: must-ages with optional shadow (may) ages.
//!
//! A state maps every tracked cache block to
//!
//! * a **must age** — an upper bound on the block's LRU age along *all*
//!   paths reaching the program point (Section 4.1 / Appendix A), and
//! * optionally a **shadow age** (the paper's `∃v` shadow variables) — a
//!   lower bound on the age along *some* path (Appendix B), used to refine
//!   the aging rule so loops such as Figure 11 do not spuriously evict
//!   blocks.
//!
//! Ages range over `1..=W` where `W` is the associativity (number of ways of
//! the relevant cache set; the whole cache for a fully-associative
//! configuration).  A block absent from the must map may be outside the
//! cache; a block absent from the may map is definitely outside the cache on
//! every path.
//!
//! An access costs O(|must| + |may| + W).  The refined aging rule of
//! Appendix B asks, for every must-block `u`, how many shadow blocks of its
//! set may be as young as `u`; [`AbstractCacheState::access`] answers all
//! those questions from one prefix-sum array over the shadow ages, built once
//! per access, and ages both maps in place without further allocation.

use std::collections::BTreeMap;

use spec_ir::RegionId;

use crate::address::MemBlock;
use crate::config::CacheConfig;

/// LRU age of a cache block (1 = most recently used).
pub type Age = u32;

/// A single abstract memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheAccess {
    /// The accessed block is statically known.
    Precise(MemBlock),
    /// The access touches *some* block of the region (statically unknown
    /// offset, e.g. a secret- or input-indexed table lookup).
    AnyOf(RegionId),
}

#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct StateInner {
    /// Must component: upper bound on the age of blocks guaranteed cached.
    must: BTreeMap<MemBlock, Age>,
    /// May component (shadow variables): lower bound on the age of blocks
    /// that may be cached along some path.
    may: BTreeMap<MemBlock, Age>,
}

/// Borrowed `(must, may)` age maps of a non-bottom state — the serializable
/// payload of [`AbstractCacheState::to_parts`].
pub type AgeMapsRef<'a> = (&'a BTreeMap<MemBlock, Age>, &'a BTreeMap<MemBlock, Age>);

/// Abstract cache state (must analysis, optionally refined with shadow
/// variables).
///
/// The bottom element represents "no execution reaches this point yet" and
/// is the identity of [`AbstractCacheState::join_in_place`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbstractCacheState {
    /// `None` is the bottom element.
    inner: Option<StateInner>,
    /// Whether the shadow (may) refinement of Appendix B is maintained.
    track_shadow: bool,
}

impl AbstractCacheState {
    /// The bottom element (unreachable).
    pub fn bottom(track_shadow: bool) -> Self {
        Self {
            inner: None,
            track_shadow,
        }
    }

    /// The entry state: the cache is (conservatively) empty.
    pub fn empty_cache(_config: &CacheConfig, track_shadow: bool) -> Self {
        Self {
            inner: Some(StateInner::default()),
            track_shadow,
        }
    }

    /// Decomposes the state into its serializable parts: the shadow flag
    /// plus, for non-bottom states, the must and may age maps.
    pub fn to_parts(&self) -> (bool, Option<AgeMapsRef<'_>>) {
        (
            self.track_shadow,
            self.inner.as_ref().map(|s| (&s.must, &s.may)),
        )
    }

    /// Rebuilds a state from its parts (inverse of [`Self::to_parts`]).
    pub fn from_parts(
        track_shadow: bool,
        inner: Option<(BTreeMap<MemBlock, Age>, BTreeMap<MemBlock, Age>)>,
    ) -> Self {
        Self {
            inner: inner.map(|(must, may)| StateInner { must, may }),
            track_shadow,
        }
    }

    /// Returns `true` if this is the bottom element.
    pub fn is_bottom(&self) -> bool {
        self.inner.is_none()
    }

    /// Whether the shadow refinement is enabled for this state.
    pub fn tracks_shadow(&self) -> bool {
        self.track_shadow
    }

    /// Upper bound on the age of `block` if it is guaranteed to be cached.
    pub fn must_age(&self, block: MemBlock) -> Option<Age> {
        self.inner.as_ref()?.must.get(&block).copied()
    }

    /// Lower bound on the age of `block` if it may be cached on some path.
    pub fn may_age(&self, block: MemBlock) -> Option<Age> {
        self.inner.as_ref()?.may.get(&block).copied()
    }

    /// Returns `true` if an access to `block` is guaranteed to hit.
    pub fn is_must_hit(&self, block: MemBlock) -> bool {
        self.must_age(block).is_some()
    }

    /// Returns `true` if `block` may be cached along some path.
    pub fn may_contain(&self, block: MemBlock) -> bool {
        if self.track_shadow {
            self.may_age(block).is_some()
        } else {
            // Without shadow tracking the may component is not maintained;
            // conservatively report that the block may be cached.
            !self.is_bottom()
        }
    }

    /// Blocks currently guaranteed to be cached, with their age bounds.
    pub fn must_hit_blocks(&self) -> impl Iterator<Item = (MemBlock, Age)> + '_ {
        self.inner
            .iter()
            .flat_map(|s| s.must.iter().map(|(b, a)| (*b, *a)))
    }

    /// Number of blocks guaranteed to be cached.
    pub fn must_hit_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |s| s.must.len())
    }

    /// Applies the transfer function for one memory access.
    ///
    /// `set_of` maps a block to its cache set (always `0` for a
    /// fully-associative cache); only blocks in the same set age.
    ///
    /// With shadow tracking a must-block `u` of age `a` ages only if at least
    /// `a` other shadow blocks of its set may be as young as it (the refined
    /// aging rule of Appendix B).  That count comes from one cumulative
    /// histogram of the updated shadow ages, so an access costs
    /// O(|must| + |may| + W): one pass over each map, with the prefix-sum
    /// array of `W + 1` counters as the only allocation.
    ///
    /// Accessing from the bottom state leaves it bottom (no path reaches the
    /// access).
    pub fn access(
        &mut self,
        config: &CacheConfig,
        access: &CacheAccess,
        set_of: impl Fn(MemBlock) -> usize,
    ) {
        let ways = config.associativity as Age;
        let track_shadow = self.track_shadow;
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        match access {
            CacheAccess::Precise(block) => {
                let set = set_of(*block);
                // --- may (shadow) component first: its *new* value feeds the
                // refined aging rule for the must component.  `young[a]`
                // counts the same-set shadow blocks of updated age `a`, and
                // becomes the cumulative count of those with age `<= a`.
                let young = if track_shadow {
                    let old_shadow_v = inner.may.get(block).copied().unwrap_or(ways + 1);
                    let mut young = vec![0 as Age; ways as usize + 1];
                    inner.may.retain(|u, age| {
                        if u == block || set_of(*u) != set {
                            return true;
                        }
                        if *age <= old_shadow_v {
                            *age += 1;
                            if *age > ways {
                                return false;
                            }
                        }
                        young[*age as usize] += 1;
                        true
                    });
                    inner.may.insert(*block, 1);
                    young[1] += 1;
                    for a in 1..young.len() {
                        young[a] += young[a - 1];
                    }
                    Some(young)
                } else {
                    None
                };
                // --- must component.
                let old_must_v = inner.must.get(block).copied().unwrap_or(ways + 1);
                // Both maps are ordered by block, so `u`'s own shadow age is
                // found by walking the may map alongside the must map.
                let mut may = inner.may.iter().peekable();
                inner.must.retain(|u, age| {
                    if u == block || set_of(*u) != set || *age >= old_must_v {
                        return true;
                    }
                    if let Some(young) = &young {
                        // Refined rule (Appendix B): only age `u` if at least
                        // `age` shadow blocks other than `u` itself could be
                        // younger than or as young as it.
                        while may.next_if(|(w, _)| *w < u).is_some() {}
                        let own = match may.peek() {
                            Some((w, shadow_age)) if *w == u && **shadow_age <= *age => 1,
                            _ => 0,
                        };
                        if young[*age as usize] - own < *age {
                            return true;
                        }
                    }
                    *age += 1;
                    *age <= ways
                });
                inner.must.insert(*block, 1);
            }
            CacheAccess::AnyOf(_region) => {
                // The accessed block (and therefore its set) is unknown, so
                // conservatively age every tracked block by one, and record
                // nothing as newly guaranteed-cached.  This matches the
                // paper's `[k*]` placeholder device: each evaluation of an
                // unknown-index access adds one unit of eviction pressure.
                // The may map is left unchanged: the touched block is not
                // recorded as a shadow block, so the refined aging rule of a
                // later precise access does not count it.
                inner.must.retain(|_, age| {
                    *age += 1;
                    *age <= ways
                });
            }
        }
    }

    /// Joins `other` into `self`; returns `true` if `self` changed.
    ///
    /// Must ages take the maximum (a block survives only if it is cached in
    /// both states); shadow ages take the minimum (a block may be cached if
    /// it may be cached in either state), exactly as in Section 4.3 and
    /// Appendix B.1.2.
    pub fn join_in_place(&mut self, other: &AbstractCacheState) -> bool {
        debug_assert_eq!(
            self.track_shadow, other.track_shadow,
            "joined states must agree on shadow tracking"
        );
        let Some(other_inner) = other.inner.as_ref() else {
            return false; // joining bottom changes nothing
        };
        let Some(inner) = self.inner.as_mut() else {
            self.inner = Some(other_inner.clone());
            return true;
        };
        let mut changed = false;
        // Must: keep only blocks present in both, with the max age.
        let keys: Vec<MemBlock> = inner.must.keys().copied().collect();
        for k in keys {
            match other_inner.must.get(&k) {
                Some(other_age) => {
                    let slot = inner.must.get_mut(&k).expect("key from this map");
                    if *other_age > *slot {
                        *slot = *other_age;
                        changed = true;
                    }
                }
                None => {
                    inner.must.remove(&k);
                    changed = true;
                }
            }
        }
        // May: union with min age.
        for (k, other_age) in &other_inner.may {
            match inner.may.get_mut(k) {
                Some(age) => {
                    if *other_age < *age {
                        *age = *other_age;
                        changed = true;
                    }
                }
                None => {
                    inner.may.insert(*k, *other_age);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Widening: accelerates convergence by dropping any must entry whose
    /// age grew relative to `previous` and resetting any may entry whose age
    /// shrank (Section 6.3).  The domain is finite so this is optional, but
    /// it bounds the number of iterations on unresolved loops.
    pub fn widen_with(&mut self, previous: &AbstractCacheState) {
        let (Some(inner), Some(prev)) = (self.inner.as_mut(), previous.inner.as_ref()) else {
            return;
        };
        let keys: Vec<MemBlock> = inner.must.keys().copied().collect();
        for k in keys {
            let cur = inner.must[&k];
            match prev.must.get(&k) {
                Some(prev_age) if cur > *prev_age => {
                    inner.must.remove(&k);
                }
                _ => {}
            }
        }
        let keys: Vec<MemBlock> = inner.may.keys().copied().collect();
        for k in keys {
            let cur = inner.may[&k];
            match prev.may.get(&k) {
                Some(prev_age) if cur < *prev_age => {
                    inner.may.insert(k, 1);
                }
                None => {
                    inner.may.insert(k, 1);
                }
                _ => {}
            }
        }
    }

    /// Returns `true` if `self` is less than or equal to `other` in the
    /// precision order (i.e. `other` over-approximates `self`).
    pub fn le(&self, other: &AbstractCacheState) -> bool {
        let mut joined = other.clone();
        !joined.join_in_place(self)
    }
}

impl spec_ir::heap::HeapSize for AbstractCacheState {
    fn heap_size(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.must.heap_size() + inner.may.heap_size())
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> MemBlock {
        MemBlock::new(RegionId::from_raw(0), i)
    }

    fn cfg(ways: usize) -> CacheConfig {
        CacheConfig::fully_associative(ways, 64)
    }

    fn access(state: &mut AbstractCacheState, config: &CacheConfig, b: MemBlock) {
        state.access(config, &CacheAccess::Precise(b), |_| 0);
    }

    #[test]
    fn figure4_left_access_of_uncached_block_ages_all() {
        // Cache of 4 ways holding u1..u4; accessing v evicts u4.
        let config = cfg(4);
        let mut s = AbstractCacheState::empty_cache(&config, false);
        for i in 1..=4 {
            access(&mut s, &config, blk(i)); // u4 is oldest after this
        }
        assert_eq!(s.must_age(blk(1)), Some(4));
        access(&mut s, &config, blk(5)); // v
        assert_eq!(s.must_age(blk(5)), Some(1));
        assert_eq!(s.must_age(blk(4)), Some(2));
        assert_eq!(s.must_age(blk(1)), None, "u4 evicted");
        assert_eq!(s.must_hit_count(), 4);
    }

    #[test]
    fn figure4_right_access_of_cached_block_only_ages_younger() {
        // State: u (age 1), v (age 2), w1 (age 3), w2 (age 4); access v.
        let config = cfg(4);
        let mut s = AbstractCacheState::empty_cache(&config, false);
        access(&mut s, &config, blk(42)); // w2
        access(&mut s, &config, blk(41)); // w1
        access(&mut s, &config, blk(2)); // v
        access(&mut s, &config, blk(1)); // u
        assert_eq!(s.must_age(blk(2)), Some(2));
        access(&mut s, &config, blk(2)); // re-access v
        assert_eq!(s.must_age(blk(2)), Some(1));
        assert_eq!(s.must_age(blk(1)), Some(2), "u aged");
        assert_eq!(s.must_age(blk(41)), Some(3), "w1 unchanged");
        assert_eq!(s.must_age(blk(42)), Some(4), "w2 unchanged");
    }

    #[test]
    fn figure5_join_takes_maximum_ages_and_drops_one_sided_blocks() {
        // Left: x(1), y(2), z(3), k(4).  Right: t(1), z(2), x(3), k(4).
        let config = cfg(4);
        let mut left = AbstractCacheState::empty_cache(&config, false);
        for b in [4u64, 3, 2, 1] {
            access(&mut left, &config, blk(b)); // => 1:x=blk(1),2:y,3:z,4:k
        }
        let mut right = AbstractCacheState::empty_cache(&config, false);
        for b in [4u64, 1, 3, 5] {
            access(&mut right, &config, blk(b)); // => t=blk(5) age1, z age2, x age3, k age4
        }
        assert_eq!(right.must_age(blk(3)), Some(2));
        assert_eq!(right.must_age(blk(1)), Some(3));

        let changed = left.join_in_place(&right);
        assert!(changed);
        // x: max(1,3) = 3; z: max(3,2)=3; k: max(4,4)=4; y and t dropped.
        assert_eq!(left.must_age(blk(1)), Some(3));
        assert_eq!(left.must_age(blk(3)), Some(3));
        assert_eq!(left.must_age(blk(4)), Some(4));
        assert_eq!(left.must_age(blk(2)), None);
        assert_eq!(left.must_age(blk(5)), None);
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let config = cfg(4);
        let mut s = AbstractCacheState::empty_cache(&config, true);
        access(&mut s, &config, blk(1));
        let before = s.clone();
        let changed = s.join_in_place(&AbstractCacheState::bottom(true));
        assert!(!changed);
        assert_eq!(s, before);

        let mut bot = AbstractCacheState::bottom(true);
        let changed = bot.join_in_place(&before);
        assert!(changed);
        assert_eq!(bot, before);
    }

    #[test]
    fn access_on_bottom_stays_bottom() {
        let config = cfg(4);
        let mut bot = AbstractCacheState::bottom(false);
        access(&mut bot, &config, blk(1));
        assert!(bot.is_bottom());
        assert!(!bot.is_must_hit(blk(1)));
    }

    #[test]
    fn unknown_index_access_ages_everything_and_claims_nothing() {
        let config = cfg(3);
        let mut s = AbstractCacheState::empty_cache(&config, false);
        access(&mut s, &config, blk(1));
        access(&mut s, &config, blk(2));
        // blk(1) now has age 2; an unknown access pushes it to 3, then 4 (out).
        s.access(&config, &CacheAccess::AnyOf(RegionId::from_raw(9)), |_| 0);
        assert_eq!(s.must_age(blk(1)), Some(3));
        assert_eq!(s.must_age(blk(2)), Some(2));
        s.access(&config, &CacheAccess::AnyOf(RegionId::from_raw(9)), |_| 0);
        assert_eq!(s.must_age(blk(1)), None, "evicted by unknown accesses");
        assert_eq!(s.must_age(blk(2)), Some(3));
        assert_eq!(s.must_hit_count(), 1);
    }

    #[test]
    fn set_associative_access_only_ages_same_set() {
        let config = CacheConfig::set_associative(2, 2, 64);
        let set_of = |b: MemBlock| (b.block_index % 2) as usize;
        let mut s = AbstractCacheState::empty_cache(&config, false);
        s.access(&config, &CacheAccess::Precise(blk(0)), set_of);
        s.access(&config, &CacheAccess::Precise(blk(1)), set_of);
        s.access(&config, &CacheAccess::Precise(blk(2)), set_of); // same set as 0
        assert_eq!(
            s.must_age(blk(0)),
            Some(2),
            "aged by the conflicting access"
        );
        assert_eq!(s.must_age(blk(1)), Some(1), "other set untouched");
        assert_eq!(s.must_age(blk(2)), Some(1));
    }

    #[test]
    fn shadow_join_keeps_may_information() {
        // Appendix B, Example B.3: after the join the may set contains the
        // union of both sides.
        let config = cfg(4);
        let mut left = AbstractCacheState::empty_cache(&config, true);
        for b in [4u64, 3, 2, 1] {
            access(&mut left, &config, blk(b)); // x=1,y=2,z=3,k=4
        }
        let mut right = AbstractCacheState::empty_cache(&config, true);
        for b in [4u64, 1, 3, 5] {
            access(&mut right, &config, blk(b));
        }
        left.join_in_place(&right);
        // Shadow ages take the minimum: x appears at 1 on the left, 3 on the right.
        assert_eq!(left.may_age(blk(1)), Some(1));
        assert_eq!(left.may_age(blk(5)), Some(1), "t only on the right");
        assert_eq!(left.may_age(blk(2)), Some(2), "y only on the left");
        // Must ages are unchanged by the refinement.
        assert_eq!(left.must_age(blk(1)), Some(3));
    }

    #[test]
    fn appendix_c_refined_aging_avoids_bogus_eviction() {
        // Figure 11 / Appendix C: a is loaded, then a loop body accesses
        // b or c.  Without shadow variables `a` is eventually evicted; with
        // them its age stabilises at 3 in a 4-way cache.
        let config = cfg(4);
        let run = |track_shadow: bool| -> Option<Age> {
            let mut s = AbstractCacheState::empty_cache(&config, track_shadow);
            access(&mut s, &config, blk(100)); // a
                                               // Five unrolled iterations of: (ref b | ref c) then join.
            for _ in 0..5 {
                let mut then_s = s.clone();
                access(&mut then_s, &config, blk(101)); // b
                let mut else_s = s.clone();
                access(&mut else_s, &config, blk(102)); // c
                then_s.join_in_place(&else_s);
                s = then_s;
            }
            s.must_age(blk(100))
        };
        assert_eq!(run(false), None, "original analysis evicts a");
        assert_eq!(run(true), Some(3), "refined analysis keeps a at age 3");
    }

    #[test]
    fn widening_drops_growing_must_entries() {
        let config = cfg(4);
        let mut prev = AbstractCacheState::empty_cache(&config, false);
        access(&mut prev, &config, blk(1));
        access(&mut prev, &config, blk(2)); // blk1 age 2
        let mut cur = prev.clone();
        access(&mut cur, &config, blk(3)); // blk1 age 3: grew
        cur.widen_with(&prev);
        assert_eq!(cur.must_age(blk(1)), None, "growing entry widened away");
        assert_eq!(cur.must_age(blk(3)), Some(1), "stable entries kept");
    }

    #[test]
    fn le_matches_join_behaviour() {
        let config = cfg(4);
        let mut small = AbstractCacheState::empty_cache(&config, false);
        access(&mut small, &config, blk(1));
        let bottom = AbstractCacheState::bottom(false);
        assert!(bottom.le(&small));
        assert!(!small.le(&bottom));
        assert!(small.le(&small));
    }

    #[test]
    fn must_hit_blocks_enumerates_entries() {
        let config = cfg(4);
        let mut s = AbstractCacheState::empty_cache(&config, false);
        access(&mut s, &config, blk(1));
        access(&mut s, &config, blk(2));
        let collected: Vec<(MemBlock, Age)> = s.must_hit_blocks().collect();
        assert_eq!(collected.len(), 2);
        assert!(collected.contains(&(blk(2), 1)));
        assert!(collected.contains(&(blk(1), 2)));
    }
}
