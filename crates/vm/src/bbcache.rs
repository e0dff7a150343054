//! Predecoded basic-block cache.
//!
//! The interpreter's hot loop used to re-fetch and re-decode every
//! instruction byte-by-byte on every step of every round of every study
//! cell. This module decodes straight-line instruction runs *once* into a
//! flat arena of pre-resolved micro-ops ([`MicroOp`]) and shares the result
//! read-only across all rounds and all profiles that execute the same
//! image: [`BlockCache::for_regions`] keys caches by the resolved text
//! bytes themselves, so four profiles × N rounds of a study cell hit one
//! cache.
//!
//! Soundness model: the cache decodes from its own pristine copy of the
//! text bytes, never from live guest memory. Each [`crate::Machine`] tracks
//! the code ranges *it* has overwritten (self-modifying code, syscalls
//! writing into text, injected decode faults) and falls back to
//! byte-decoding from its own memory for those ranges — the shared cache
//! itself is immutable and stays valid for every other machine.

use bomblab_isa::{Insn, Opcode, Reg};
use std::sync::{Arc, Mutex, OnceLock};

/// Precomputed effective-address recipe of a store-class instruction:
/// the write goes to `regs[base] + off` and covers `width` bytes.
///
/// Knowing this *before* executing a cached micro-op lets the machine
/// detect writes into cached code regions without re-inspecting the
/// instruction on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreClass {
    /// Base address register.
    pub base: Reg,
    /// Signed byte offset added to the base (−8 for `push`).
    pub off: i64,
    /// Bytes written.
    pub width: u8,
}

/// One predecoded instruction: the decoded [`Insn`] (kept whole so tracing
/// stays byte-identical with the decode-per-step path), its address and
/// encoded length, and its store recipe if it writes memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// The decoded instruction.
    pub insn: Insn,
    /// Address of the instruction.
    pub pc: u64,
    /// Encoded length in bytes.
    pub len: u8,
    /// Store recipe, for code-write detection.
    pub store: Option<StoreClass>,
}

/// Cumulative dispatch counters of one [`crate::Machine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BbStats {
    /// Steps served from the block cache.
    pub bb_hits: u64,
    /// Steps that consulted the cache but fell back to byte-decode
    /// (pc outside cached regions, undecodable entry, or dirty code).
    pub bb_misses: u64,
    /// Decoded blocks overwritten by guest stores, syscall writes into
    /// text, or injected decode faults.
    pub bb_invalidations: u64,
    /// Steps executed through the byte-decode path.
    pub steps_decoded: u64,
}

/// The store recipe of `insn`, if it is a store-class instruction.
///
/// Mirrors the effective-address computation in [`crate::cpu::exec`]:
/// `Store` writes `regs[base] + off` (width per opcode), `push` writes
/// `sp - 8` (8 bytes), `fst` writes `regs[base] + off` (8 bytes).
pub fn store_class(insn: &Insn) -> Option<StoreClass> {
    match *insn {
        Insn::Store { op, base, off, .. } => {
            let width = match op {
                Opcode::Sb => 1,
                Opcode::Sh => 2,
                Opcode::Sw => 4,
                _ => 8,
            };
            Some(StoreClass {
                base,
                off: off as i64,
                width,
            })
        }
        Insn::Push { .. } => Some(StoreClass {
            base: Reg::SP,
            off: -8,
            width: 8,
        }),
        Insn::FSt { base, off, .. } => Some(StoreClass {
            base,
            off: off as i64,
            width: 8,
        }),
        _ => None,
    }
}

/// Whether `insn` ends a straight-line decode run.
fn ends_block(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Branch { .. }
            | Insn::FBranch { .. }
            | Insn::Jmp { .. }
            | Insn::Jr { .. }
            | Insn::Call { .. }
            | Insn::Callr { .. }
            | Insn::Ret
            | Insn::Sys
            | Insn::Halt
    )
}

/// One cached code region: a pristine copy of the bytes at load time.
#[derive(Debug)]
struct Region {
    base: u64,
    bytes: Vec<u8>,
}

/// Slot values below this are sentinels (0 = unknown, 1 = undecodable);
/// packed entries are `((block + 2) << 32) | op_index`.
const PACKED_BASE: u64 = 2 << 32;

/// Lazily grown decode state, guarded by one mutex. The lock is taken only
/// at block boundaries (roughly once per basic block, not per step).
#[derive(Debug, Default)]
struct Inner {
    /// Decoded blocks, append-only.
    blocks: Vec<Arc<[MicroOp]>>,
    /// Byte range `[start, end)` covered by each block, parallel to
    /// `blocks` (for invalidation accounting).
    ranges: Vec<(u64, u64)>,
    /// One packed slot per region byte: the compact pc → (block, op) index.
    slots: Vec<Vec<u64>>,
}

/// A shared, lazily populated cache of predecoded basic blocks over a set
/// of immutable code regions.
#[derive(Debug)]
pub struct BlockCache {
    regions: Vec<Region>,
    inner: Mutex<Inner>,
}

/// Process-wide registry deduplicating caches by image content, so every
/// round of every profile executing the same resolved image shares one
/// cache.
static REGISTRY: OnceLock<Mutex<Vec<Arc<BlockCache>>>> = OnceLock::new();

impl BlockCache {
    /// Returns the shared cache for `regions` (pairs of base address and
    /// code bytes), creating it on first sight. Two calls with identical
    /// content return the same `Arc`. Lookup compares the bytes directly
    /// (a length check, then `memcmp`), which costs less than hashing
    /// them would.
    pub fn for_regions(regions: &[(u64, &[u8])]) -> Arc<BlockCache> {
        let registry = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
        let mut registry = registry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for cached in registry.iter() {
            if cached.regions.len() == regions.len()
                && cached
                    .regions
                    .iter()
                    .zip(regions)
                    .all(|(r, (base, bytes))| r.base == *base && r.bytes == *bytes)
            {
                return Arc::clone(cached);
            }
        }
        let cache = Arc::new(BlockCache {
            regions: regions
                .iter()
                .map(|(base, bytes)| Region {
                    base: *base,
                    bytes: bytes.to_vec(),
                })
                .collect(),
            inner: Mutex::new(Inner {
                blocks: Vec::new(),
                ranges: Vec::new(),
                slots: regions.iter().map(|(_, b)| vec![0u64; b.len()]).collect(),
            }),
        });
        registry.push(Arc::clone(&cache));
        cache
    }

    /// The region index and byte offset containing `pc`, if any.
    fn region_of(&self, pc: u64) -> Option<(usize, usize)> {
        self.regions.iter().enumerate().find_map(|(i, r)| {
            if pc >= r.base && pc - r.base < r.bytes.len() as u64 {
                Some((i, (pc - r.base) as usize))
            } else {
                None
            }
        })
    }

    /// Whether `[addr, addr + len)` overlaps any cached code region.
    /// Cheap (a couple of range compares) — callable per store.
    pub fn overlaps_code(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return false;
        }
        let end = addr.saturating_add(len);
        self.regions.iter().any(|r| {
            let rend = r.base + r.bytes.len() as u64;
            addr < rend && r.base < end
        })
    }

    /// How many decoded blocks overlap `[addr, addr + len)` — the precise
    /// invalidation count for a write into code.
    pub fn blocks_overlapping(&self, addr: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = addr.saturating_add(len);
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner
            .ranges
            .iter()
            .filter(|&&(s, e)| addr < e && s < end)
            .count() as u64
    }

    /// Looks up the micro-op at `pc`, lazily decoding the straight-line run
    /// starting there on first sight. Returns the containing block and the
    /// op's index within it, or `None` when `pc` is outside every cached
    /// region or its bytes do not decode.
    pub fn lookup(&self, pc: u64) -> Option<(Arc<[MicroOp]>, usize)> {
        let (ri, off) = self.region_of(pc)?;
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let slot = inner.slots[ri][off];
        if slot >= PACKED_BASE {
            let block = ((slot >> 32) - 2) as usize;
            let op = (slot & 0xffff_ffff) as usize;
            return Some((Arc::clone(&inner.blocks[block]), op));
        }
        if slot == 1 {
            return None;
        }
        let ops = Self::decode_run(&self.regions[ri], off);
        let Some(last) = ops.last() else {
            inner.slots[ri][off] = 1;
            return None;
        };
        let range = (ops[0].pc, last.pc + last.len as u64);
        let block_idx = inner.blocks.len();
        let block: Arc<[MicroOp]> = ops.into();
        inner.blocks.push(Arc::clone(&block));
        inner.ranges.push(range);
        let base = self.regions[ri].base;
        for (i, op) in block.iter().enumerate() {
            let o = (op.pc - base) as usize;
            // Overlapping decode streams reach the same ops at the same
            // pcs (same pristine bytes), so the first writer wins.
            if inner.slots[ri][o] == 0 {
                inner.slots[ri][o] = ((block_idx as u64 + 2) << 32) | i as u64;
            }
        }
        Some((block, 0))
    }

    /// Decodes the straight-line run starting at `off` within `region`:
    /// stops after a control-transfer instruction, at the first
    /// undecodable byte, or at the region end (a terminal instruction
    /// truncated by the region boundary is simply not cached — the
    /// byte-decode fallback, reading live memory, is the authority there).
    fn decode_run(region: &Region, off: usize) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        let mut at = off;
        while at < region.bytes.len() {
            let Ok((insn, len)) = Insn::decode(&region.bytes[at..]) else {
                break;
            };
            ops.push(MicroOp {
                insn,
                pc: region.base + at as u64,
                len: len as u8,
                store: store_class(&insn),
            });
            at += len;
            if ends_block(&insn) {
                break;
            }
        }
        ops
    }

    /// Number of blocks decoded so far (diagnostics).
    pub fn decoded_blocks(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .blocks
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_all(insns: &[Insn]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in insns {
            i.encode(&mut out);
        }
        out
    }

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn straight_line_run_decodes_once_and_ends_at_terminator() {
        let insns = [
            Insn::Li { rd: r(5), imm: 1 },
            Insn::AluI {
                op: Opcode::AddI,
                rd: r(5),
                rs: r(5),
                imm: 2,
            },
            Insn::Ret,
            Insn::Nop, // next block
            Insn::Halt,
        ];
        let bytes = encode_all(&insns);
        let cache = BlockCache::for_regions(&[(0x1000, &bytes)]);
        let (block, idx) = cache.lookup(0x1000).expect("decodes");
        assert_eq!(idx, 0);
        assert_eq!(block.len(), 3, "run stops after the terminator");
        assert_eq!(block[2].insn, Insn::Ret);
        assert_eq!(block[0].len, 10);
        // Mid-block lookup lands on the same block at the right index.
        let (block2, idx2) = cache.lookup(0x1000 + 10).expect("mid-block pc indexed");
        assert!(Arc::ptr_eq(&block, &block2));
        assert_eq!(idx2, 1);
        assert_eq!(cache.decoded_blocks(), 1);
        // The instruction after the terminator starts a fresh block.
        let after = 0x1000 + (10 + 7 + 1) as u64;
        let (block3, idx3) = cache.lookup(after).expect("second block");
        assert_eq!(idx3, 0);
        assert_eq!(block3[0].insn, Insn::Nop);
        assert_eq!(cache.decoded_blocks(), 2);
    }

    #[test]
    fn identical_regions_share_one_cache() {
        let bytes = encode_all(&[Insn::Nop, Insn::Halt]);
        let a = BlockCache::for_regions(&[(0x4000, &bytes)]);
        let b = BlockCache::for_regions(&[(0x4000, &bytes)]);
        assert!(Arc::ptr_eq(&a, &b), "same content must share one cache");
        let other = encode_all(&[Insn::Ret]);
        let c = BlockCache::for_regions(&[(0x4000, &other)]);
        assert!(!Arc::ptr_eq(&a, &c));
        // Same bytes at a different base is a different cache.
        let d = BlockCache::for_regions(&[(0x5000, &bytes)]);
        assert!(!Arc::ptr_eq(&a, &d));
    }

    #[test]
    fn undecodable_entry_is_remembered_as_a_miss() {
        let bytes = vec![0xFF, 0xFF, 0xFF];
        let cache = BlockCache::for_regions(&[(0x2000, &bytes)]);
        assert!(cache.lookup(0x2000).is_none());
        assert!(cache.lookup(0x2000).is_none(), "sticky negative slot");
        assert!(cache.lookup(0x9999).is_none(), "outside every region");
        assert_eq!(cache.decoded_blocks(), 0);
    }

    #[test]
    fn overlap_queries_see_regions_and_decoded_blocks() {
        let bytes = encode_all(&[Insn::Nop, Insn::Ret, Insn::Nop, Insn::Halt]);
        let cache = BlockCache::for_regions(&[(0x3000, &bytes)]);
        assert!(cache.overlaps_code(0x3000, 1));
        assert!(cache.overlaps_code(0x2fff, 2));
        assert!(!cache.overlaps_code(0x2fff, 1));
        assert!(!cache.overlaps_code(0x3000 + bytes.len() as u64, 8));
        assert_eq!(cache.blocks_overlapping(0x3000, 4), 0, "nothing decoded");
        cache.lookup(0x3000).expect("block 1"); // [nop, ret]
        cache.lookup(0x3002).expect("block 2"); // [nop, halt]
        assert_eq!(cache.blocks_overlapping(0x3000, 1), 1);
        assert_eq!(cache.blocks_overlapping(0x3000, 4), 2);
        assert_eq!(cache.blocks_overlapping(0x3003, 1), 1);
    }

    #[test]
    fn store_class_mirrors_exec_address_semantics() {
        assert_eq!(
            store_class(&Insn::Store {
                op: Opcode::Sh,
                src: r(3),
                base: r(4),
                off: -6,
            }),
            Some(StoreClass {
                base: r(4),
                off: -6,
                width: 2,
            })
        );
        assert_eq!(
            store_class(&Insn::Push { rs: r(3) }),
            Some(StoreClass {
                base: Reg::SP,
                off: -8,
                width: 8,
            })
        );
        assert_eq!(
            store_class(&Insn::FSt {
                fs: bomblab_isa::FReg::new(2).unwrap(),
                base: r(7),
                off: 16,
            }),
            Some(StoreClass {
                base: r(7),
                off: 16,
                width: 8,
            })
        );
        assert_eq!(store_class(&Insn::Nop), None);
        assert_eq!(
            store_class(&Insn::Load {
                op: Opcode::Ld,
                rd: r(1),
                base: r(2),
                off: 0,
            }),
            None,
            "loads never invalidate"
        );
    }
}
