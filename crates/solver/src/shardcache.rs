//! Sharded in-memory global solver cache: cross-cell model reuse.
//!
//! The study runner solves every bomb under each profile, and the bombs
//! are not strangers to each other — argv-digit guards, length checks,
//! and table bounds recur across the dataset, so the cone-of-influence
//! slices the optimizer carves out (`slice::partition`) repeat *across
//! cells*, not just across rounds. The per-solver query cache cannot see
//! that. This store can: one `Arc<ShardCache>` per study, shared by every
//! worker thread, keyed by [`slice_key`]: an ordered fold over the
//! structural fingerprints the interner gave the slice's roots
//! ([`Term::fingerprint`]), so keys agree across threads even though
//! hash-consed term ids do not. A key costs one step per root, whatever
//! the size of the DAG below it.
//!
//! Concurrency: N-way sharding with one `RwLock` per shard. Lookups take
//! a read lock on a single shard; stores take a write lock on a single
//! shard; no global lock exists, so worker threads contend only on true
//! key-space collisions.
//!
//! Soundness discipline:
//!
//! * **Hits are re-verified.** A stored model is untrusted input; it
//!   answers a slice only after concrete evaluation confirms it satisfies
//!   every slice constraint. A failed verification counts as a rejection
//!   (`SolveStats::shared_cache_rejected`, like every store counter) and
//!   the pipeline proceeds as a miss — a poisoned entry can cost time,
//!   never correctness.
//! * **Only incremental solvers attach.** Paper-tool profiles
//!   (`incremental_solver: false`) run a fresh solver per query, as the
//!   paper measures each tool, so they neither read nor write the store
//!   and Table II is byte-identical with it armed or not.
//!
//! [`ShardCache::poisoned`] corrupts every stored binding: with it, every
//! lookup must be rejected by verification and the verdicts must not
//! move (`tests/study_parallel.rs` runs a study slice through one).

use crate::expr::{fingerprint_fold, Term};
use crate::Model;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Number of independently locked shards. Eight is comfortably above any
/// realistic `--jobs` on the study's dataset sizes while keeping the
/// idle-memory cost of the empty cache trivial.
pub const NUM_SHARDS: usize = 8;

/// Process-stable store key: the slice's root fingerprints folded in
/// order. Unlike [`Term::id`] (an interner address, unique only within one
/// thread of one process), a fingerprint agrees across threads.
pub fn slice_key(terms: &[Term]) -> u64 {
    terms.iter().fold(terms.len() as u64, |h, t| {
        fingerprint_fold(h, t.fingerprint())
    })
}

/// One stored model: the slice's variable bindings in sorted order.
type Bindings = Vec<(Arc<str>, u64)>;

/// A sharded, thread-safe model store shared by every solver of a study.
/// It counts none of its own traffic: each query's hits, stores and
/// rejections are in its `SolveStats`.
#[derive(Debug, Default)]
pub struct ShardCache {
    shards: [RwLock<HashMap<u64, Bindings>>; NUM_SHARDS],
    /// Corrupt every stored binding (fault hook for the verification
    /// path; armed only by [`ShardCache::poisoned`]).
    poison: bool,
}

impl ShardCache {
    /// An empty cache that corrupts everything it stores (tests of the
    /// verification path).
    #[must_use]
    pub fn poisoned() -> ShardCache {
        ShardCache {
            poison: true,
            ..ShardCache::default()
        }
    }

    /// An empty cache, boxed into the `Arc` every consumer wants anyway.
    #[must_use]
    pub fn shared() -> Arc<ShardCache> {
        Arc::default()
    }

    fn shard(&self, key: u64) -> &RwLock<HashMap<u64, Bindings>> {
        // Spread FNV keys across shards by their multiplicatively mixed
        // high bits.
        &self.shards[(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize % NUM_SHARDS]
    }

    /// Returns the stored bindings for `key`, if any. The caller owns
    /// verification — this is raw, untrusted data.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<Bindings> {
        self.shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned()
    }

    /// Stores a satisfying slice model under `key`. First writer wins —
    /// verification on the read path is the soundness authority, so
    /// which thread's (equally valid) model survives does not matter.
    /// Returns whether this call inserted the entry.
    pub fn record(&self, key: u64, model: &Model) -> bool {
        let mut bindings: Bindings = model.iter().map(|(n, v)| (n.clone(), *v)).collect();
        if self.poison {
            for (_, v) in &mut bindings {
                *v ^= 0x5A5A_5A5A_5A5A_5A5A;
            }
        }
        let mut shard = self
            .shard(key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if shard.contains_key(&key) {
            return false;
        }
        shard.insert(key, bindings);
        true
    }

    /// Number of stored entries, over all shards.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BvOp, CmpOp};

    fn model(pairs: &[(&str, u64)]) -> Model {
        let mut m = Model::default();
        for &(n, v) in pairs {
            m.insert(n, v);
        }
        m
    }

    #[test]
    fn record_then_lookup_round_trips() {
        let cache = ShardCache::default();
        assert!(cache.lookup(42).is_none());
        assert!(cache.record(42, &model(&[("x", 7), ("y", 9)])));
        let got = cache.lookup(42).expect("stored entry");
        assert_eq!(
            got.iter()
                .map(|(n, v)| (n.as_ref(), *v))
                .collect::<Vec<_>>(),
            vec![("x", 7), ("y", 9)]
        );
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn slice_keys_are_stable_and_content_based() {
        let x = Term::var("x", 32);
        let c1 = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Add, &x, &Term::bv(1, 32)),
            &Term::bv(5, 32),
        );
        let c2 = Term::cmp(
            CmpOp::Eq,
            &Term::bin(BvOp::Add, &x, &Term::bv(2, 32)),
            &Term::bv(5, 32),
        );
        assert_eq!(
            slice_key(std::slice::from_ref(&c1)),
            slice_key(std::slice::from_ref(&c1))
        );
        assert_ne!(slice_key(&[c1]), slice_key(&[c2]));
    }

    #[test]
    fn a_key_over_a_tree_of_2_pow_40_nodes_returns_at_once() {
        // Each level uses the one below twice: 2^40 nodes as a tree, 121
        // as a DAG. Rendering it would never finish; a key is O(roots).
        let x = Term::var("x", 32);
        let mut t = Term::bin(BvOp::Add, &x, &Term::bv(1, 32));
        for i in 0..40 {
            let c = Term::cmp(CmpOp::Ult, &t, &Term::bv(i, 32));
            t = Term::ite(&c, &t, &Term::bin(BvOp::Xor, &t, &x));
        }
        let root = Term::cmp(CmpOp::Eq, &t, &Term::bv(5, 32));
        let start = std::time::Instant::now();
        let key = slice_key(std::slice::from_ref(&root));
        assert!(start.elapsed() < std::time::Duration::from_millis(100));
        assert_eq!(key, slice_key(&[root]));
    }

    #[test]
    fn first_writer_wins() {
        let cache = ShardCache::default();
        assert!(cache.record(1, &model(&[("x", 1)])));
        assert!(!cache.record(1, &model(&[("x", 2)])));
        assert_eq!(cache.lookup(1).expect("entry")[0].1, 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn keys_spread_over_multiple_shards() {
        let cache = ShardCache::default();
        for key in 0..256u64 {
            cache.record(key, &model(&[("x", key)]));
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.read().unwrap().is_empty())
            .count();
        assert!(populated > 1, "all 256 keys landed in one shard");
        assert_eq!(cache.entries(), 256);
    }

    #[test]
    fn poisoned_store_corrupts_bindings() {
        let cache = ShardCache::poisoned();
        cache.record(9, &model(&[("x", 7)]));
        let got = cache.lookup(9).expect("entry");
        assert_ne!(got[0].1, 7, "poison must corrupt the stored value");
    }

    #[test]
    fn concurrent_writers_and_readers_agree() {
        let cache = Arc::new(ShardCache::default());
        let inserts: u64 = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4u64)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || {
                        let mut won = 0;
                        for key in 0..64 {
                            won += u64::from(cache.record(key, &model(&[("x", key)])));
                            assert!(cache.lookup(key).is_some());
                        }
                        won
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().expect("writer")).sum()
        });
        assert_eq!(cache.entries(), 64);
        assert_eq!(inserts, 64, "exactly one writer won each key");
    }
}
