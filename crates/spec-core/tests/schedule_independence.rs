//! Schedule-independence property: every output byte depends only on the
//! inputs.  `run_suite` solves configurations on racing threads, so this
//! suite runs the same requests under every suite thread count, repeatedly,
//! and requires the stripped report JSON and the `encode_prepared` artifact
//! bytes to equal the one-thread run's — across a cold suite, a second
//! cache geometry and a warm re-run of the first, so solved and replayed
//! rounds are both covered.

use std::num::NonZeroUsize;

use spec_cache::CacheConfig;
use spec_core::artifact::encode_prepared;
use spec_core::session::comparison_configs;
use spec_core::Analyzer;
use spec_ir::builder::ProgramBuilder;
use spec_ir::{BranchSemantics, IndexExpr, MemRef, Program};

const REPEATS: usize = 4;

/// A secret-dependent branch guarding a secret-indexed load: speculative
/// flows, dynamic depth bounding and shadow tracking all have work to do.
fn program() -> Program {
    let mut b = ProgramBuilder::new("schedule");
    let table = b.region("table", 4 * 64, false);
    let key = b.secret_region("key", 64);
    let entry = b.entry_block("entry");
    let hot = b.block("hot");
    let done = b.block("done");
    b.load(entry, table, IndexExpr::Const(0));
    b.data_branch(
        entry,
        vec![MemRef::at(key, 0)],
        BranchSemantics::SecretBit { bit: 0 },
        hot,
        done,
    );
    b.load(hot, table, IndexExpr::secret(64));
    b.jump(hot, done);
    b.load(done, table, IndexExpr::Const(0));
    b.ret(done);
    b.finish().unwrap()
}

/// The stripped reports of three suites, then the session's artifact bytes.
fn run(threads: usize) -> (Vec<String>, Vec<u8>) {
    let small = comparison_configs(CacheConfig::fully_associative(8, 64));
    let large = comparison_configs(CacheConfig::fully_associative(16, 64));
    let analyzer = Analyzer::new().max_suite_threads(NonZeroUsize::new(threads).unwrap());
    let prepared = analyzer.prepare(&program());
    let reports = [&small, &large, &small]
        .iter()
        .map(|configs| {
            prepared
                .run_suite(configs)
                .report()
                .without_timing()
                .to_json()
        })
        .collect();
    (reports, encode_prepared(&prepared))
}

#[test]
fn reports_and_artifacts_do_not_depend_on_the_thread_schedule() {
    let (reports, bytes) = run(1);
    for threads in 1..=4 {
        for repeat in 0..REPEATS {
            let (got_reports, got_bytes) = run(threads);
            assert_eq!(got_reports, reports, "threads {threads}, repeat {repeat}");
            assert!(
                got_bytes == bytes,
                "threads {threads}, repeat {repeat}: artifact bytes differ"
            );
        }
    }
}
