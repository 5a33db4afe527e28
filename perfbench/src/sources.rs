//! The generated inputs: program sources, edits and request mixes.
//!
//! Every workload's geometry is pinned here, not read from the
//! environment, and every random choice comes from the run's seed.  The
//! program under test only ever sees the rendered `.spec` sources.

use spec_bench::service_harness::Rng;
use spec_cache::CacheConfig;
use spec_core::service::AnalyzeConfig;
use spec_ir::text::parse_program;
use spec_ir::Program;

/// Cache lines of the ETE workloads (`ete_panel`, `warm_serve`,
/// `edit_serve`).  At 32 lines a cold panel of the ten programs takes
/// about ten seconds on one core.
pub const ETE_LINES: u64 = 32;

/// Cache lines of the Table 7 crypto suite (`leak_scan`).
pub const CRYPTO_LINES: u64 = 128;

/// The crypto programs whose speculative analysis reports a leak; the
/// other five are leak-free under both analyses.
pub const LEAKY: [&str; 5] = ["hash", "encoder", "chacha20", "ocb", "des"];

pub fn ete_cache() -> CacheConfig {
    CacheConfig::fully_associative(ETE_LINES as usize, 64)
}

/// One generated input: its name, its source and the program parsed back
/// from that source.
pub struct Source {
    pub name: String,
    pub text: String,
    pub program: Program,
}

impl Source {
    pub fn from_program(program: &Program) -> Self {
        let text = program.to_string();
        let program = parse_program(&text).expect("rendered programs parse back");
        Self {
            name: program.name().to_string(),
            text,
            program,
        }
    }
}

/// The ten ETE programs at [`ETE_LINES`].
pub fn ete_sources() -> Vec<Source> {
    spec_workloads::ete_suite(ETE_LINES)
        .iter()
        .map(|workload| Source::from_program(&workload.program))
        .collect()
}

/// The ten crypto programs at [`CRYPTO_LINES`], with their buffer sizes.
pub fn crypto_sources() -> Vec<(Source, u64)> {
    spec_workloads::crypto_suite(CRYPTO_LINES)
        .iter()
        .map(|(workload, buffer)| (Source::from_program(&workload.program), *buffer))
        .collect()
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// The seeded edit sequence of `edit_serve`, stratified so that runs with
/// different seeds do comparable work: the programs are edited in rounds,
/// each round visiting every program once in a fresh seeded order, and
/// each program's edits cycle through a seeded permutation of its blocks
/// that touch memory.
pub struct EditSchedule {
    rng: Rng,
    round: Vec<usize>,
    blocks: Vec<Vec<usize>>,
    edits: Vec<usize>,
}

impl EditSchedule {
    pub fn new(programs: &[Program], seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xed17);
        let blocks = programs
            .iter()
            .map(|program| {
                let touching: Vec<usize> = program
                    .blocks()
                    .iter()
                    .enumerate()
                    .filter(|(_, block)| block.insts.iter().any(|inst| inst.accesses_memory()))
                    .map(|(index, _)| index)
                    .collect();
                shuffled(touching.len(), &mut rng)
                    .into_iter()
                    .map(|i| touching[i])
                    .collect()
            })
            .collect();
        Self {
            rng,
            round: Vec::new(),
            blocks,
            edits: vec![0; programs.len()],
        }
    }

    /// The next edit: which program, and its new version.
    pub fn next(&mut self, current: &[Program]) -> (usize, Program) {
        if self.round.is_empty() {
            self.round = shuffled(current.len(), &mut self.rng);
        }
        let index = self.round.pop().expect("a round is never empty");
        let blocks = &self.blocks[index];
        let victim = blocks[self.edits[index] % blocks.len()];
        self.edits[index] += 1;
        (index, edit_block(&current[index], victim, &mut self.rng))
    }
}

/// A one-block in-place edit: one memory access of block `victim` is
/// duplicated at a random position of that block.  The region table and
/// the block list stay as they are, so the edit is exactly the shape the
/// summary-seeded re-solve is built for; and since every edit adds an
/// instruction, no version of a program repeats.
fn edit_block(program: &Program, victim: usize, rng: &mut Rng) -> Program {
    let mut blocks = program.blocks().to_vec();
    let insts = &mut blocks[victim].insts;
    let accesses: Vec<usize> = (0..insts.len())
        .filter(|i| insts[*i].accesses_memory())
        .collect();
    let copy = insts[accesses[rng.below(accesses.len() as u64) as usize]];
    let at = rng.below(insts.len() as u64 + 1) as usize;
    insts.insert(at, copy);
    Program::new(
        program.name(),
        program.regions().to_vec(),
        blocks,
        program.entry(),
    )
    .expect("duplicating an access keeps the program valid")
}

/// The configuration every `edit_serve` request uses: the `analyze`
/// defaults at [`ETE_LINES`].
pub fn edit_config() -> AnalyzeConfig {
    AnalyzeConfig {
        cache_lines: ETE_LINES as usize,
        ..AnalyzeConfig::default()
    }
}

/// Every analysis configuration of the `warm_serve` mix: baseline or
/// speculative, shadow on or off, unrolling on or off, all at
/// [`ETE_LINES`] with merge-at-decode.  Merge-at-rollback is left out: it
/// is the one knob whose cold fixpoint takes seconds, and the set-up pass
/// must warm every configuration the mix can draw.
pub fn warm_configs() -> Vec<AnalyzeConfig> {
    let mut configs = Vec::new();
    for baseline in [false, true] {
        for shadow in [true, false] {
            for unroll in [true, false] {
                configs.push(AnalyzeConfig {
                    cache_lines: ETE_LINES as usize,
                    json: false,
                    baseline,
                    shadow,
                    merge_at_rollback: false,
                    unroll,
                });
            }
        }
    }
    configs
}

/// One seeded `warm_serve` request: a program index and its knobs.  Output
/// is JSON half of the time; the analysis knobs are drawn from
/// [`warm_configs`] with the full speculative analysis weighted up, as the
/// default a client sends.
pub fn warm_request(rng: &mut Rng, programs: usize) -> (usize, AnalyzeConfig) {
    let program = rng.below(programs as u64) as usize;
    let configs = warm_configs();
    let pick = rng.below(configs.len() as u64 + 4) as usize;
    let mut config = configs[pick.saturating_sub(4)];
    config.json = rng.below(2) == 1;
    (program, config)
}
