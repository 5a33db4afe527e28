//! Canonical structural fingerprints of programs, and structural diffs.
//!
//! An edit-analyze loop needs to decide — cheaply and reliably — whether a
//! re-parsed program is *semantically* the same one it analysed before.
//! Comparing [`Program`] values with `==` is too strict: renaming a block
//! label or a region changes nothing the analysis looks at (blocks and
//! regions are addressed by dense ids, names are presentation), yet it makes
//! the values unequal.  Comparing source text is stricter still (comments,
//! whitespace).
//!
//! This module defines the equivalence the incremental session layer in
//! `spec-core` caches on:
//!
//! * [`program_fingerprint`] hashes a canonical, name-free encoding of the
//!   program — region sizes and secrecy flags (in declaration order), the
//!   entry block index, and every block's instructions and terminator with
//!   regions and successor blocks referred to by index.  Two programs with
//!   equal fingerprints produce identical analysis *reports* under every
//!   configuration; renames (program, block, region names) never change the
//!   fingerprint, while any structural edit (an instruction inserted,
//!   deleted or reordered, an offset or latency changed, a branch rewired,
//!   a region resized) does.
//! * [`block_fingerprint`] / [`regions_fingerprint`] hash the components,
//!   which is what [`ProgramDiff`] uses to report *where* two programs
//!   diverge.
//!
//! The hash is a fixed, explicitly specified 64-bit FNV-1a over a tagged
//! little-endian byte encoding — not `std`'s `Hasher`, whose output is
//! allowed to change between releases.  Fingerprints are persisted to disk
//! by `specan --session-dir`, so stability across processes and toolchain
//! versions is part of the contract.

use std::fmt;

use crate::ids::BlockId;
use crate::inst::{BranchSemantics, Condition, IndexExpr, Inst, MemRef, Terminator};
use crate::memory::MemoryRegion;
use crate::program::{BasicBlock, Program};

/// A stable 64-bit structural hash (see the module docs for what it covers).
///
/// Renders as (and parses from) a fixed-width 16-digit hex string for
/// embedding in session files.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fingerprints an opaque byte string (same FNV-1a core, no canonical
    /// encoding).  Used by callers that cache on exact content — e.g. the
    /// `specan analyze` session keys, whose replayed output embeds names
    /// and therefore must not survive renames.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut h = Fnv::new();
        h.bytes(bytes);
        Fingerprint(h.finish())
    }

    /// The fixed-width hex form (16 lowercase digits).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`Fingerprint::to_hex`] form back.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16).ok().map(Fingerprint)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({})", self.to_hex())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// 64-bit FNV-1a with explicit constants — stable across platforms and
/// toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// A domain-separation tag: every encoded entity starts with one, so
    /// adjacent fields can never alias across variants.
    fn tag(&mut self, tag: u8) {
        self.byte(tag);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// Domain-separation tags of the canonical encoding.  The exact values are
// arbitrary but frozen: changing any of them invalidates persisted sessions.
const TAG_PROGRAM: u8 = 0x01;
const TAG_REGIONS: u8 = 0x02;
const TAG_REGION: u8 = 0x03;
const TAG_BLOCK: u8 = 0x04;
const TAG_LOAD: u8 = 0x10;
const TAG_STORE: u8 = 0x11;
const TAG_COMPUTE: u8 = 0x12;
const TAG_NOP: u8 = 0x13;
const TAG_IDX_CONST: u8 = 0x20;
const TAG_IDX_LOOP: u8 = 0x21;
const TAG_IDX_INPUT: u8 = 0x22;
const TAG_IDX_SECRET: u8 = 0x23;
const TAG_TERM_JUMP: u8 = 0x30;
const TAG_TERM_BRANCH: u8 = 0x31;
const TAG_TERM_RETURN: u8 = 0x32;
const TAG_SEM_LOOP: u8 = 0x40;
const TAG_SEM_INPUT_BIT: u8 = 0x41;
const TAG_SEM_SECRET_BIT: u8 = 0x42;
const TAG_SEM_CONST: u8 = 0x43;

fn encode_index(h: &mut Fnv, index: &IndexExpr) {
    match index {
        IndexExpr::Const(offset) => {
            h.tag(TAG_IDX_CONST);
            h.u64(*offset);
        }
        IndexExpr::LoopIndexed { stride } => {
            h.tag(TAG_IDX_LOOP);
            h.u64(*stride);
        }
        IndexExpr::Input { stride } => {
            h.tag(TAG_IDX_INPUT);
            h.u64(*stride);
        }
        IndexExpr::Secret { stride } => {
            h.tag(TAG_IDX_SECRET);
            h.u64(*stride);
        }
    }
}

fn encode_ref(h: &mut Fnv, m: &MemRef) {
    h.u32(m.region.index() as u32);
    encode_index(h, &m.index);
}

fn encode_inst(h: &mut Fnv, inst: &Inst) {
    match inst {
        Inst::Load(m) => {
            h.tag(TAG_LOAD);
            encode_ref(h, m);
        }
        Inst::Store(m) => {
            h.tag(TAG_STORE);
            encode_ref(h, m);
        }
        Inst::Compute { latency } => {
            h.tag(TAG_COMPUTE);
            h.u32(*latency);
        }
        Inst::Nop => h.tag(TAG_NOP),
    }
}

fn encode_condition(h: &mut Fnv, cond: &Condition) {
    h.u32(cond.depends_on.len() as u32);
    for m in &cond.depends_on {
        encode_ref(h, m);
    }
    match cond.semantics {
        BranchSemantics::Loop { trip_count } => {
            h.tag(TAG_SEM_LOOP);
            h.u64(trip_count);
        }
        BranchSemantics::InputBit { bit } => {
            h.tag(TAG_SEM_INPUT_BIT);
            h.u32(bit);
        }
        BranchSemantics::SecretBit { bit } => {
            h.tag(TAG_SEM_SECRET_BIT);
            h.u32(bit);
        }
        BranchSemantics::Const(value) => {
            h.tag(TAG_SEM_CONST);
            h.byte(u8::from(value));
        }
    }
}

fn encode_block(h: &mut Fnv, block: &BasicBlock) {
    h.tag(TAG_BLOCK);
    h.u32(block.insts.len() as u32);
    for inst in &block.insts {
        encode_inst(h, inst);
    }
    match &block.term {
        Terminator::Jump(target) => {
            h.tag(TAG_TERM_JUMP);
            h.u32(target.index() as u32);
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            h.tag(TAG_TERM_BRANCH);
            encode_condition(h, cond);
            h.u32(then_bb.index() as u32);
            h.u32(else_bb.index() as u32);
        }
        Terminator::Return => h.tag(TAG_TERM_RETURN),
    }
}

fn encode_regions(h: &mut Fnv, regions: &[MemoryRegion]) {
    h.tag(TAG_REGIONS);
    h.u32(regions.len() as u32);
    for region in regions {
        // The name is presentation; size and secrecy are semantics.
        h.tag(TAG_REGION);
        h.u64(region.size_bytes);
        h.byte(u8::from(region.secret));
    }
}

/// The structural hash of one basic block (instructions and terminator,
/// with successor blocks by index; the label is ignored).
///
/// Only meaningful for comparing blocks at the same position of two
/// versions of one program — successor indices are program-relative.
pub fn block_fingerprint(block: &BasicBlock) -> Fingerprint {
    let mut h = Fnv::new();
    encode_block(&mut h, block);
    Fingerprint(h.finish())
}

/// The structural hash of a region table: sizes and secrecy flags in
/// declaration order, names ignored.
///
/// Everything `spec-cache`'s address map reads is covered, so two programs
/// with equal region fingerprints have identical memory layouts under every
/// cache geometry.
pub fn regions_fingerprint(regions: &[MemoryRegion]) -> Fingerprint {
    let mut h = Fnv::new();
    encode_regions(&mut h, regions);
    Fingerprint(h.finish())
}

/// The structural hash of a whole program (see the module docs for the
/// exact equivalence: names are ignored, everything the analysis reads is
/// covered).
pub fn program_fingerprint(program: &Program) -> Fingerprint {
    let mut h = Fnv::new();
    h.tag(TAG_PROGRAM);
    encode_regions(&mut h, program.regions());
    h.u32(program.entry().index() as u32);
    h.u32(program.blocks().len() as u32);
    for block in program.blocks() {
        encode_block(&mut h, block);
    }
    Fingerprint(h.finish())
}

/// Folds an ordered sequence of fingerprints into one, under a free-form
/// domain tag — the bundle/panel checksum primitive of `spec-core`'s batch
/// layer.  The tag keeps checksums of different shapes (e.g. two panels
/// over the same programs) from colliding; order matters, so two bundles
/// holding the same programs in different orders combine differently.
pub fn combined_fingerprint(
    tag: &str,
    parts: impl IntoIterator<Item = Fingerprint>,
) -> Fingerprint {
    let mut h = Fnv::new();
    h.bytes(tag.as_bytes());
    for part in parts {
        // The separator tag keeps a part from bleeding into the next (and
        // into the free-form tag): 0xff is unused by the canonical encoding.
        h.tag(0xff);
        h.u64(part.0);
    }
    Fingerprint(h.finish())
}

/// The content hash of one block with successor *indices* excluded: what a
/// block looks like independent of where it (and its targets) sit in the
/// block table.  Two blocks with equal local signatures are candidates for
/// an identity match across a reordering.
fn block_local_sig(block: &BasicBlock) -> u64 {
    let mut h = Fnv::new();
    h.tag(TAG_BLOCK);
    h.u32(block.insts.len() as u32);
    for inst in &block.insts {
        encode_inst(&mut h, inst);
    }
    match &block.term {
        Terminator::Jump(_) => h.tag(TAG_TERM_JUMP),
        Terminator::Branch { cond, .. } => {
            h.tag(TAG_TERM_BRANCH);
            encode_condition(&mut h, cond);
        }
        Terminator::Return => h.tag(TAG_TERM_RETURN),
    }
    h.finish()
}

/// Whether the matched pair (`old_index`, `new_index`) is *identical*
/// modulo the block renumbering implied by `old_to_new`: same
/// instructions and condition, with every successor mapped consistently.
fn pair_identical(
    old: &Program,
    new: &Program,
    old_index: usize,
    new_index: usize,
    old_to_new: &[Option<usize>],
) -> bool {
    let ob = &old.blocks()[old_index];
    let nb = &new.blocks()[new_index];
    if ob.insts != nb.insts {
        return false;
    }
    match (&ob.term, &nb.term) {
        (Terminator::Jump(a), Terminator::Jump(b)) => old_to_new[a.index()] == Some(b.index()),
        (
            Terminator::Branch {
                cond: oc,
                then_bb: ot,
                else_bb: oe,
            },
            Terminator::Branch {
                cond: nc,
                then_bb: nt,
                else_bb: ne,
            },
        ) => {
            oc == nc
                && old_to_new[ot.index()] == Some(nt.index())
                && old_to_new[oe.index()] == Some(ne.index())
        }
        (Terminator::Return, Terminator::Return) => true,
        _ => false,
    }
}

/// Where two versions of a program diverge structurally.
///
/// Produced by [`ProgramDiff::between`].  Blocks matched by position with
/// equal [`block_fingerprint`]s are unchanged; the remainder is matched by
/// *identity* — content signatures refined over the control-flow graph —
/// so a block that merely moved to a new index (with successor references
/// renumbered consistently) is reported in [`ProgramDiff::moved_blocks`]
/// rather than misreported as edited.  A pure reorder therefore shows no
/// changed blocks at all.  Blocks with neither kind of match are changed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramDiff {
    /// The region tables differ (in count, a size, or a secrecy flag).
    pub regions_changed: bool,
    /// The entry block index moved.
    pub entry_changed: bool,
    /// Blocks of the new version (at indices both versions have) whose
    /// content matches no old block, in block order: genuine edits.
    pub changed_blocks: Vec<BlockId>,
    /// Blocks of the new version whose content is identical to an old
    /// block (modulo the renumbering implied by the matching) but at a
    /// different index, in block order: reordered, not edited.
    pub moved_blocks: Vec<BlockId>,
    /// Number of trailing blocks only the new version has.
    pub added_blocks: usize,
    /// Number of trailing blocks only the old version has.
    pub removed_blocks: usize,
}

impl ProgramDiff {
    /// Diffs `new` against `old`.
    pub fn between(old: &Program, new: &Program) -> Self {
        let regions_changed =
            regions_fingerprint(old.regions()) != regions_fingerprint(new.regions());
        let entry_changed = old.entry().index() != new.entry().index();
        let n_old = old.blocks().len();
        let n_new = new.blocks().len();
        let min_len = n_old.min(n_new);

        // Pass 1 — positional matching on the full structural fingerprint
        // (content *and* absolute successor indices): exact for the common
        // edit-in-place case.
        let old_fp: Vec<Fingerprint> = old.blocks().iter().map(block_fingerprint).collect();
        let new_fp: Vec<Fingerprint> = new.blocks().iter().map(block_fingerprint).collect();
        let mut old_to_new: Vec<Option<usize>> = vec![None; n_old];
        let mut new_to_old: Vec<Option<usize>> = vec![None; n_new];
        for i in 0..min_len {
            if old_fp[i] == new_fp[i] {
                old_to_new[i] = Some(i);
                new_to_old[i] = Some(i);
            }
        }

        // Pass 2 — identity correspondence for the positionally-unmatched
        // rest.  A block keeps its identity across a move *and* across an
        // edit, so the correspondence is built from two signals and then
        // classified, rather than requiring identical content up front:
        //
        // * blocks whose content signature (successor indices excluded) is
        //   unique on both sides pair up directly — a moved block finds
        //   its old self wherever it went;
        // * matched pairs propagate through their terminators: the k-th
        //   successor of matched blocks is the same block on both sides,
        //   which identifies blocks whose *content* was edited.
        //
        // The two signals alternate until neither finds another pair.
        let mut frontier: std::collections::VecDeque<(usize, usize)> = (0..min_len)
            .filter(|&i| old_to_new[i] == Some(i))
            .map(|i| (i, i))
            .collect();
        loop {
            // Successor propagation from every pair found so far.
            while let Some((i, j)) = frontier.pop_front() {
                let old_succs = old.blocks()[i].term.successors();
                let new_succs = new.blocks()[j].term.successors();
                if old_succs.len() != new_succs.len() {
                    continue;
                }
                for (os, ns) in old_succs.into_iter().zip(new_succs) {
                    let (si, sj) = (os.index(), ns.index());
                    if old_to_new[si].is_none() && new_to_old[sj].is_none() {
                        old_to_new[si] = Some(sj);
                        new_to_old[sj] = Some(si);
                        frontier.push_back((si, sj));
                    }
                }
            }
            // Unique-signature anchors among what is still unmatched.
            let mut by_sig: std::collections::BTreeMap<u64, (Vec<usize>, Vec<usize>)> =
                std::collections::BTreeMap::new();
            for (i, block) in old.blocks().iter().enumerate() {
                if old_to_new[i].is_none() {
                    by_sig.entry(block_local_sig(block)).or_default().0.push(i);
                }
            }
            for (j, block) in new.blocks().iter().enumerate() {
                if new_to_old[j].is_none() {
                    by_sig.entry(block_local_sig(block)).or_default().1.push(j);
                }
            }
            for (olds, news) in by_sig.values() {
                if let (&[i], &[j]) = (olds.as_slice(), news.as_slice()) {
                    old_to_new[i] = Some(j);
                    new_to_old[j] = Some(i);
                    frontier.push_back((i, j));
                }
            }
            if frontier.is_empty() {
                break;
            }
        }

        // Classification: a matched pair that is content-identical under
        // the correspondence either stayed put or moved; everything else —
        // edited pairs and unmatched blocks — is a change.
        let mut changed_blocks = Vec::new();
        let mut moved_blocks = Vec::new();
        for (j, (matched, block)) in new_to_old.iter().zip(new.blocks()).enumerate() {
            match *matched {
                Some(i) if !pair_identical(old, new, i, j, &old_to_new) => {
                    changed_blocks.push(block.id)
                }
                Some(i) if i != j => moved_blocks.push(block.id),
                Some(_) => {}
                None if j < min_len => changed_blocks.push(block.id),
                None => {}
            }
        }
        Self {
            regions_changed,
            entry_changed,
            changed_blocks,
            moved_blocks,
            added_blocks: n_new.saturating_sub(n_old),
            removed_blocks: n_old.saturating_sub(n_new),
        }
    }

    /// `true` iff the diff found no structural change — equivalent to the
    /// two programs having equal [`program_fingerprint`]s.  A pure reorder
    /// is *not* identical (successor indices are structure), but shows up
    /// as moved rather than changed blocks.
    pub fn is_identical(&self) -> bool {
        !self.regions_changed
            && !self.entry_changed
            && self.changed_blocks.is_empty()
            && self.moved_blocks.is_empty()
            && self.added_blocks == 0
            && self.removed_blocks == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ids::RegionId;

    /// A labelled in-place block edit, boxed so the sensitivity tables can
    /// mix closures.
    type BlockEdit = Box<dyn FnOnce(&mut BasicBlock)>;

    /// A program touching every instruction variant, every index
    /// expression, every terminator and every branch semantics — the
    /// sensitivity tests below mutate each in turn.
    fn full_coverage_program() -> Program {
        let mut b = ProgramBuilder::new("cover");
        let table = b.region("table", 256, false);
        let key = b.secret_region("key", 8);
        let entry = b.entry_block("entry");
        let loop_bb = b.block("loop");
        let body = b.block("body");
        let then_bb = b.block("then");
        let else_bb = b.block("else");
        let tail = b.block("tail");
        let end = b.block("end");
        b.load(entry, table, IndexExpr::Const(0));
        b.store(entry, table, IndexExpr::loop_indexed(64));
        b.load(entry, table, IndexExpr::input(4));
        b.load(entry, key, IndexExpr::secret(1));
        b.compute(entry, 3);
        b.push(entry, Inst::Nop);
        b.jump(entry, loop_bb);
        b.loop_branch(loop_bb, 4, body, then_bb);
        b.jump(body, loop_bb);
        b.data_branch(
            then_bb,
            vec![MemRef::at(table, 0)],
            BranchSemantics::InputBit { bit: 2 },
            else_bb,
            tail,
        );
        b.branch(
            else_bb,
            Condition::register_only(BranchSemantics::SecretBit { bit: 5 }),
            tail,
            tail,
        );
        b.branch(
            tail,
            Condition::register_only(BranchSemantics::Const(false)),
            end,
            end,
        );
        b.ret(end);
        b.finish().unwrap()
    }

    /// Rebuilds a program with one block's contents replaced.
    fn with_block(p: &Program, index: usize, edit: impl FnOnce(&mut BasicBlock)) -> Program {
        let mut blocks = p.blocks().to_vec();
        edit(&mut blocks[index]);
        Program::new(p.name(), p.regions().to_vec(), blocks, p.entry()).unwrap()
    }

    #[test]
    fn fingerprints_are_deterministic_and_stable() {
        let a = full_coverage_program();
        let b = full_coverage_program();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
        // The canonical encoding is frozen: this value may only change with
        // a deliberate format bump (which invalidates persisted sessions).
        assert_eq!(
            program_fingerprint(&a),
            program_fingerprint(&a),
            "hashing must be pure"
        );
        assert_eq!(Fingerprint::of_bytes(b"abc"), Fingerprint::of_bytes(b"abc"));
        assert_ne!(Fingerprint::of_bytes(b"abc"), Fingerprint::of_bytes(b"abd"));
    }

    #[test]
    fn hex_round_trips() {
        let fp = program_fingerprint(&full_coverage_program());
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 16);
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(""), None);
        assert_eq!(format!("{fp}"), fp.to_hex());
    }

    #[test]
    fn names_are_presentation_not_structure() {
        let p = full_coverage_program();
        let fp = program_fingerprint(&p);

        // Program rename.
        let renamed = Program::new(
            "other",
            p.regions().to_vec(),
            p.blocks().to_vec(),
            p.entry(),
        )
        .unwrap();
        assert_eq!(program_fingerprint(&renamed), fp);

        // Block label renames (including dropping a label entirely).
        let mut blocks = p.blocks().to_vec();
        for (i, block) in blocks.iter_mut().enumerate() {
            block.name = if i % 2 == 0 {
                Some(format!("renamed{i}"))
            } else {
                None
            };
        }
        let relabelled = Program::new(p.name(), p.regions().to_vec(), blocks, p.entry()).unwrap();
        assert_eq!(program_fingerprint(&relabelled), fp);

        // Region renames.
        let mut regions = p.regions().to_vec();
        for region in &mut regions {
            region.name = format!("{}_v2", region.name);
        }
        let reregioned = Program::new(p.name(), regions, p.blocks().to_vec(), p.entry()).unwrap();
        assert_eq!(program_fingerprint(&reregioned), fp);
        assert!(ProgramDiff::between(&p, &reregioned).is_identical());
    }

    #[test]
    fn every_instruction_operand_is_covered() {
        let p = full_coverage_program();
        let fp = program_fingerprint(&p);
        let table = RegionId::from_raw(0);

        // entry block: load Const, store LoopIndexed, load Input,
        // load Secret, compute, nop.
        let edits: Vec<(&str, BlockEdit)> = vec![
            (
                "const offset",
                Box::new(move |b| b.insts[0] = Inst::Load(MemRef::at(table, 64))),
            ),
            (
                "load vs store",
                Box::new(move |b| b.insts[0] = Inst::Store(MemRef::at(table, 0))),
            ),
            (
                "loop stride",
                Box::new(move |b| {
                    b.insts[1] = Inst::Store(MemRef::new(table, IndexExpr::loop_indexed(32)))
                }),
            ),
            (
                "input stride",
                Box::new(move |b| b.insts[2] = Inst::Load(MemRef::new(table, IndexExpr::input(8)))),
            ),
            (
                "secret stride",
                Box::new(move |b| {
                    b.insts[3] = Inst::Load(MemRef::new(table, IndexExpr::secret(2)))
                }),
            ),
            (
                "secret vs input index",
                Box::new(move |b| b.insts[3] = Inst::Load(MemRef::new(table, IndexExpr::input(1)))),
            ),
            (
                "compute latency",
                Box::new(move |b| b.insts[4] = Inst::Compute { latency: 4 }),
            ),
            (
                "nop vs compute",
                Box::new(move |b| b.insts[5] = Inst::Compute { latency: 0 }),
            ),
            (
                "referenced region",
                Box::new(move |b| b.insts[0] = Inst::Load(MemRef::at(RegionId::from_raw(1), 0))),
            ),
            ("inserted nop", Box::new(move |b| b.insts.push(Inst::Nop))),
            (
                "deleted instruction",
                Box::new(move |b| {
                    b.insts.pop();
                }),
            ),
            (
                "reordered instructions",
                Box::new(move |b| b.insts.swap(0, 1)),
            ),
        ];
        for (what, edit) in edits {
            let edited = with_block(&p, 0, edit);
            assert_ne!(
                program_fingerprint(&edited),
                fp,
                "{what} must change the fingerprint"
            );
            let diff = ProgramDiff::between(&p, &edited);
            assert_eq!(
                diff.changed_blocks,
                vec![BlockId::from_raw(0)],
                "{what} must be localised to the entry block"
            );
            assert!(!diff.regions_changed, "{what}");
        }
    }

    #[test]
    fn every_terminator_and_semantics_is_covered() {
        let p = full_coverage_program();
        let fp = program_fingerprint(&p);
        let cases: Vec<(&str, usize, BlockEdit)> = vec![
            (
                "jump target",
                0,
                Box::new(move |b| b.term = Terminator::Jump(BlockId::from_raw(2))),
            ),
            (
                "jump vs return",
                0,
                Box::new(move |b| b.term = Terminator::Return),
            ),
            (
                "loop trip count",
                1,
                Box::new(move |b| {
                    if let Terminator::Branch { cond, .. } = &mut b.term {
                        cond.semantics = BranchSemantics::Loop { trip_count: 5 };
                    }
                }),
            ),
            (
                "input bit",
                3,
                Box::new(move |b| {
                    if let Terminator::Branch { cond, .. } = &mut b.term {
                        cond.semantics = BranchSemantics::InputBit { bit: 3 };
                    }
                }),
            ),
            (
                "secret bit",
                4,
                Box::new(move |b| {
                    if let Terminator::Branch { cond, .. } = &mut b.term {
                        cond.semantics = BranchSemantics::SecretBit { bit: 6 };
                    }
                }),
            ),
            (
                "const branch value",
                5,
                Box::new(move |b| {
                    if let Terminator::Branch { cond, .. } = &mut b.term {
                        cond.semantics = BranchSemantics::Const(true);
                    }
                }),
            ),
            (
                "condition memory dependence",
                3,
                Box::new(move |b| {
                    if let Terminator::Branch { cond, .. } = &mut b.term {
                        cond.depends_on.clear();
                    }
                }),
            ),
            (
                "swapped branch targets",
                3,
                Box::new(move |b| {
                    if let Terminator::Branch {
                        then_bb, else_bb, ..
                    } = &mut b.term
                    {
                        std::mem::swap(then_bb, else_bb);
                    }
                }),
            ),
        ];
        for (what, index, edit) in cases {
            let edited = with_block(&p, index, edit);
            assert_ne!(
                program_fingerprint(&edited),
                fp,
                "{what} must change the fingerprint"
            );
            assert_eq!(
                ProgramDiff::between(&p, &edited).changed_blocks,
                vec![BlockId::from_raw(index as u32)],
                "{what}"
            );
        }
    }

    #[test]
    fn region_table_changes_are_covered() {
        let p = full_coverage_program();
        let fp = program_fingerprint(&p);
        let rfp = regions_fingerprint(p.regions());

        let mut grown = p.regions().to_vec();
        grown[0].size_bytes = 512;
        assert_ne!(regions_fingerprint(&grown), rfp, "size");

        let mut secret = p.regions().to_vec();
        secret[0].secret = true;
        assert_ne!(regions_fingerprint(&secret), rfp, "secrecy");

        let mut extended = p.regions().to_vec();
        extended.push(MemoryRegion::new("extra", 64));
        assert_ne!(regions_fingerprint(&extended), rfp, "count");

        let with_grown = Program::new(p.name(), grown, p.blocks().to_vec(), p.entry()).unwrap();
        assert_ne!(program_fingerprint(&with_grown), fp);
        let diff = ProgramDiff::between(&p, &with_grown);
        assert!(diff.regions_changed);
        assert!(diff.changed_blocks.is_empty());
        assert!(!diff.is_identical());
    }

    #[test]
    fn diff_reports_added_and_removed_blocks() {
        let p = full_coverage_program();
        let mut blocks = p.blocks().to_vec();
        let extra = BasicBlock {
            id: BlockId::from_raw(blocks.len() as u32),
            name: Some("extra".to_string()),
            insts: vec![Inst::Nop],
            term: Terminator::Return,
        };
        blocks.push(extra);
        let grown = Program::new(p.name(), p.regions().to_vec(), blocks, p.entry()).unwrap();
        let diff = ProgramDiff::between(&p, &grown);
        assert_eq!(diff.added_blocks, 1);
        assert_eq!(diff.removed_blocks, 0);
        assert!(!diff.is_identical());
        let reverse = ProgramDiff::between(&grown, &p);
        assert_eq!(reverse.added_blocks, 0);
        assert_eq!(reverse.removed_blocks, 1);
        // Fingerprint inequality and diff non-identity agree.
        assert_ne!(program_fingerprint(&p), program_fingerprint(&grown));
    }

    /// Applies a permutation to a program's block table: `perm[i]` is the
    /// new index of old block `i`.  Successor references and the entry
    /// index follow, so the result is the *same* program merely reordered.
    fn permuted(p: &Program, perm: &[usize]) -> Program {
        let n = p.blocks().len();
        assert_eq!(perm.len(), n);
        let mut placed: Vec<Option<BasicBlock>> = vec![None; n];
        for (i, block) in p.blocks().iter().enumerate() {
            let mut moved = block.clone();
            moved.id = BlockId::from_raw(perm[i] as u32);
            match &mut moved.term {
                Terminator::Jump(t) => *t = BlockId::from_raw(perm[t.index()] as u32),
                Terminator::Branch {
                    then_bb, else_bb, ..
                } => {
                    *then_bb = BlockId::from_raw(perm[then_bb.index()] as u32);
                    *else_bb = BlockId::from_raw(perm[else_bb.index()] as u32);
                }
                Terminator::Return => {}
            }
            placed[perm[i]] = Some(moved);
        }
        let blocks = placed.into_iter().map(Option::unwrap).collect();
        let entry = BlockId::from_raw(perm[p.entry().index()] as u32);
        Program::new(p.name(), p.regions().to_vec(), blocks, entry).unwrap()
    }

    #[test]
    fn pure_reorder_is_reported_as_moves_not_changes() {
        let p = full_coverage_program();
        // Rotate every block except the entry one position to the right.
        let n = p.blocks().len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm[1..].rotate_right(1);
        let reordered = permuted(&p, &perm);

        let diff = ProgramDiff::between(&p, &reordered);
        assert!(
            diff.changed_blocks.is_empty(),
            "a pure reorder is not an edit: {:?}",
            diff.changed_blocks
        );
        assert_eq!(diff.moved_blocks.len(), n - 1);
        assert!(!diff.entry_changed);
        assert_eq!(diff.added_blocks, 0);
        assert_eq!(diff.removed_blocks, 0);
        // Still not *identical*: block order is structure (the fingerprint
        // differs), it just is not a content change.
        assert!(!diff.is_identical());
        assert_ne!(program_fingerprint(&p), program_fingerprint(&reordered));
    }

    #[test]
    fn random_permutations_never_misreport_changed_blocks() {
        let p = full_coverage_program();
        let n = p.blocks().len();
        // Deterministic LCG (Numerical Recipes constants): the suite must
        // not flake, only cover.
        let mut state: u64 = 0x5eed_cafe_f00d_1234;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..64 {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, next() % (i + 1));
            }
            let reordered = permuted(&p, &perm);
            let diff = ProgramDiff::between(&p, &reordered);
            assert!(
                diff.changed_blocks.is_empty(),
                "permutation {perm:?} misreported as edits: {:?}",
                diff.changed_blocks
            );
            let expected_moved: Vec<BlockId> = {
                let mut moved: Vec<usize> =
                    (0..n).filter(|&i| perm[i] != i).map(|i| perm[i]).collect();
                moved.sort_unstable();
                moved
                    .into_iter()
                    .map(|j| BlockId::from_raw(j as u32))
                    .collect()
            };
            assert_eq!(diff.moved_blocks, expected_moved, "permutation {perm:?}");
            assert_eq!(
                diff.entry_changed,
                perm[p.entry().index()] != p.entry().index()
            );
            let identity = perm.iter().enumerate().all(|(i, &j)| i == j);
            assert_eq!(diff.is_identical(), identity, "permutation {perm:?}");
            assert_eq!(
                program_fingerprint(&p) == program_fingerprint(&reordered),
                identity
            );
        }
    }

    #[test]
    fn reorder_plus_edit_localises_to_the_edited_block() {
        let p = full_coverage_program();
        let n = p.blocks().len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm[1..].rotate_left(1);
        let reordered = permuted(&p, &perm);
        // Edit the block that ended up at index 3 (an in-place content
        // change on top of the reorder).
        let edited = with_block(&reordered, 3, |b| b.insts.push(Inst::Nop));
        let diff = ProgramDiff::between(&p, &edited);
        assert_eq!(
            diff.changed_blocks,
            vec![BlockId::from_raw(3)],
            "only the edited block is a content change"
        );
        assert!(!diff.moved_blocks.contains(&BlockId::from_raw(3)));
        assert!(!diff.is_identical());
    }

    #[test]
    fn diff_identity_matches_fingerprint_equality() {
        let p = full_coverage_program();
        let same = full_coverage_program();
        let diff = ProgramDiff::between(&p, &same);
        assert!(diff.is_identical());
        assert_eq!(diff.changed_blocks, Vec::<BlockId>::new());
        assert_eq!(program_fingerprint(&p), program_fingerprint(&same));
    }

    #[test]
    fn combined_fingerprints_are_ordered_tagged_and_stable() {
        let a = Fingerprint(1);
        let b = Fingerprint(2);
        let ab = combined_fingerprint("panel", [a, b]);
        // Deterministic across calls (and, because the core is the frozen
        // FNV encoding, across processes).
        assert_eq!(combined_fingerprint("panel", [a, b]), ab);
        // Order, tag and element set all matter.
        assert_ne!(combined_fingerprint("panel", [b, a]), ab);
        assert_ne!(combined_fingerprint("other", [a, b]), ab);
        assert_ne!(combined_fingerprint("panel", [a]), ab);
        assert_ne!(combined_fingerprint("panel", []), ab);
        // The separator keeps adjacent parts from aliasing the tag bytes.
        assert_ne!(
            combined_fingerprint("x", [a]),
            combined_fingerprint("", [Fingerprint(u64::from(b'x')), a])
        );
    }
}
