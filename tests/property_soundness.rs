//! Property-based tests: the speculative analysis is sound for randomly
//! generated programs, and the core cache-domain operations satisfy their
//! lattice laws on random states.
//!
//! The generator is a small deterministic xorshift PRNG rather than an
//! external property-testing crate, so the workspace builds offline; a
//! failing case can be reproduced from the printed seed.

use speculative_absint::cache::{AbstractCacheState, CacheAccess, CacheConfig, MemBlock};
use speculative_absint::core::{AnalysisOptions, CacheAnalysis};
use speculative_absint::ir::builder::ProgramBuilder;
use speculative_absint::ir::{BranchSemantics, IndexExpr, MemRef, Program};
use speculative_absint::sim::{PredictorKind, SimConfig, SimInput, Simulator};
use speculative_absint::vcfg::MergeStrategy;

const LINES: usize = 8;
const CASES: u64 = 48;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    fn vec(&mut self, max_len: u64, max_value: u64) -> Vec<u64> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.below(max_value)).collect()
    }
}

/// A compact description of a random program: a preload size, a list of
/// diamonds (each arm's accesses) and a list of final re-reads.
#[derive(Clone, Debug)]
struct RandomProgram {
    preload_blocks: u64,
    diamonds: Vec<(Vec<u64>, Vec<u64>)>,
    rereads: Vec<u64>,
    tail_secret_access: bool,
}

fn random_program(rng: &mut Rng) -> RandomProgram {
    RandomProgram {
        preload_blocks: 1 + rng.below(9),
        diamonds: (0..rng.below(4))
            .map(|_| (rng.vec(2, 12), rng.vec(2, 12)))
            .collect(),
        rereads: rng.vec(3, 10),
        tail_secret_access: rng.below(2) == 1,
    }
}

fn build(desc: &RandomProgram) -> Program {
    let mut b = ProgramBuilder::new("random");
    let table = b.region("table", 12 * 64, false);
    let scratch = b.region("scratch", 12 * 64, false);
    let flag = b.region("flag", 8, false);
    let entry = b.entry_block("entry");
    b.load_sweep(entry, table, 0, 64, desc.preload_blocks);
    b.load(entry, flag, IndexExpr::Const(0));
    let mut current = entry;
    for (i, (then_arm, else_arm)) in desc.diamonds.iter().enumerate() {
        let then_bb = b.block(format!("then{i}"));
        let else_bb = b.block(format!("else{i}"));
        let join = b.block(format!("join{i}"));
        b.data_branch(
            current,
            vec![MemRef::at(flag, 0)],
            BranchSemantics::InputBit {
                bit: (i % 8) as u32,
            },
            then_bb,
            else_bb,
        );
        for &block in then_arm {
            b.load(then_bb, scratch, IndexExpr::Const(block * 64));
        }
        b.jump(then_bb, join);
        for &block in else_arm {
            b.load(else_bb, scratch, IndexExpr::Const(block * 64));
        }
        b.jump(else_bb, join);
        current = join;
    }
    for &block in &desc.rereads {
        b.load(current, table, IndexExpr::Const(block * 64));
    }
    if desc.tail_secret_access {
        b.load(current, table, IndexExpr::secret(64));
    }
    b.ret(current);
    b.finish().expect("generated program is well-formed")
}

/// One point of the option space the soundness properties are sampled over.
#[derive(Clone, Copy, Debug)]
struct Axes {
    cache: CacheConfig,
    shadow: bool,
    merge: MergeStrategy,
    dynamic_depth_bounding: bool,
}

impl Axes {
    /// The axes of `case`: consecutive cases walk the 2 × 2 × 2 × 2 grid of
    /// geometry (fully associative or 2 sets × 4 ways, both `LINES` lines),
    /// shadow tracking, merge strategy and dynamic depth bounding, so the
    /// case budget is split evenly over every combination.
    fn of_case(case: u64) -> Self {
        let bit = |i: u32| (case >> i) & 1 == 1;
        Self {
            cache: if bit(0) {
                CacheConfig::set_associative(2, LINES / 2, 64)
            } else {
                CacheConfig::fully_associative(LINES, 64)
            },
            shadow: bit(1),
            merge: if bit(2) {
                MergeStrategy::MergeAtRollback
            } else {
                MergeStrategy::JustInTime
            },
            dynamic_depth_bounding: bit(3),
        }
    }

    fn options(&self, speculative: bool) -> AnalysisOptions {
        AnalysisOptions::builder()
            .speculative(speculative)
            .cache(self.cache)
            .shadow(self.shadow)
            .merge_strategy(self.merge)
            .dynamic_depth_bounding(self.dynamic_depth_bounding)
            .build()
            .unwrap()
    }
}

/// The seed of one case, so a failure is reproduced from its message.
fn case_seed(base: u64, case: u64) -> u64 {
    base + (case << 16)
}

/// Soundness: every access the speculative analysis declares an observable
/// must-hit actually hits in every committed execution, even with an
/// adversarial branch predictor.
#[test]
fn must_hits_never_miss_concretely() {
    for case in 0..CASES {
        let seed = case_seed(0x5eed_0001, case);
        let axes = Axes::of_case(case);
        let mut rng = Rng::new(seed);
        let desc = random_program(&mut rng);
        let input_value = rng.below(16);
        let secret = rng.below(16);
        let program = build(&desc);
        let result = CacheAnalysis::new(axes.options(true)).run(&program);
        for predictor in [PredictorKind::AlwaysWrong, PredictorKind::TwoBit] {
            let report = Simulator::new(
                SimConfig::default()
                    .with_cache(axes.cache)
                    .with_predictor(predictor),
            )
            .run(&result.program, &SimInput::new(input_value, secret));
            for event in report.committed_events() {
                if event.hit {
                    continue;
                }
                if let Some(access) = result.access_at(event.block, event.inst_index) {
                    assert!(
                        !access.observable_hit,
                        "case {case} (seed {seed:#x}, {axes:?}, {predictor:?}, {desc:?}): \
                         access {}[{}] declared must-hit but missed concretely",
                        access.region_name, access.inst_index
                    );
                }
            }
        }
    }
}

/// The speculative analysis never claims more must-hits than the
/// non-speculative baseline (it only removes guarantees).
#[test]
fn speculation_only_removes_guarantees() {
    for case in 0..CASES {
        let seed = case_seed(0x5eed_0002, case);
        let axes = Axes::of_case(case);
        let desc = random_program(&mut Rng::new(seed));
        let program = build(&desc);
        let base = CacheAnalysis::new(axes.options(false)).run(&program);
        let spec = CacheAnalysis::new(axes.options(true)).run(&program);
        assert!(
            spec.miss_count() >= base.miss_count(),
            "case {case} (seed {seed:#x}, {axes:?}, {desc:?}): speculation removed a miss"
        );
        assert_eq!(
            spec.access_count(),
            base.access_count(),
            "case {case} (seed {seed:#x}, {axes:?})"
        );
    }
}

/// Join is commutative, idempotent, and an upper bound w.r.t. must-hits on
/// random abstract cache states.
#[test]
fn abstract_join_laws() {
    let mut rng = Rng::new(0x5eed_0003);
    let config = CacheConfig::fully_associative(4, 64);
    let region = speculative_absint::ir::RegionId::from_raw(0);
    for case in 0..CASES {
        let seq_a = rng.vec(11, 16);
        let seq_b = rng.vec(11, 16);
        let build_state = |seq: &[u64]| {
            let mut s = AbstractCacheState::empty_cache(&config, true);
            for &i in seq {
                s.access(
                    &config,
                    &CacheAccess::Precise(MemBlock::new(region, i)),
                    |_| 0,
                );
            }
            s
        };
        let a = build_state(&seq_a);
        let b = build_state(&seq_b);

        let mut ab = a.clone();
        ab.join_in_place(&b);
        let mut ba = b.clone();
        ba.join_in_place(&a);
        assert_eq!(&ab, &ba, "case {case}: join is commutative");

        let mut aa = a.clone();
        assert!(!aa.join_in_place(&a), "case {case}: join is idempotent");

        // Upper bound: a must-hit in the join is a must-hit in both inputs.
        for i in 0..16 {
            let block = MemBlock::new(region, i);
            if ab.is_must_hit(block) {
                assert!(
                    a.is_must_hit(block) && b.is_must_hit(block),
                    "case {case}: join invented a must-hit"
                );
            }
        }
    }
}

/// The concrete cache never reports a hit for a line that was not previously
/// accessed, and its resident set never exceeds capacity.
#[test]
fn concrete_cache_invariants() {
    use speculative_absint::cache::ConcreteCache;
    let mut rng = Rng::new(0x5eed_0004);
    for case in 0..CASES {
        let accesses: Vec<u64> = (0..1 + rng.below(200)).map(|_| rng.below(64)).collect();
        let mut cache = ConcreteCache::new(CacheConfig::set_associative(4, 2, 64));
        let mut seen = std::collections::HashSet::new();
        for &line in &accesses {
            let outcome = cache.access(line);
            if outcome.is_hit() {
                assert!(seen.contains(&line), "case {case}: hit on a cold line");
            }
            seen.insert(line);
            assert!(
                cache.resident_lines() <= 8,
                "case {case}: capacity exceeded"
            );
        }
        assert_eq!(
            cache.hits() + cache.misses(),
            accesses.len() as u64,
            "case {case}"
        );
    }
}
