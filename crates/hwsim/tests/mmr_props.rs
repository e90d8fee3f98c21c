//! Property tests for the MMR accumulator.
//!
//! The authenticated-trace machinery is only sound if:
//!
//! * roots are injective over leaf streams (equal roots ⇔ equal
//!   streams, for the generated universe),
//! * streaming (peaks-only) and retained accumulation agree, so the
//!   O(peaks) replay mode proves the same statement,
//! * drain cadence is invisible: merging per-segment forests equals
//!   accumulating the merged log directly (the fleet's checkpoint
//!   discipline), and
//! * [`bisect_divergence`] names exactly the leaf a linear scan names,
//!   in O(log N) hash compares (the sensitivity property the failure
//!   reports rely on), and
//! * a forest's memoized drains ([`MmrForest::drain_log`]) build the
//!   trees that segments appended without the memo build.

use hwsim::mmr::{
    bisect_divergence, leaf_hash, linear_divergence, Hash, Mmr, MmrForest, MmrLog, Segment,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn leaves(words: &[u64]) -> Vec<Hash> {
    words.iter().map(|w| leaf_hash(&w.to_le_bytes())).collect()
}

fn mmr_of(hashes: &[Hash]) -> Mmr {
    let mut m = Mmr::retained();
    for &h in hashes {
        m.push_leaf(h);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn roots_separate_streams(a in proptest::collection::vec(any::<u64>(), 0..200),
                              b in proptest::collection::vec(any::<u64>(), 0..200)) {
        let (ra, rb) = (mmr_of(&leaves(&a)).root(), mmr_of(&leaves(&b)).root());
        prop_assert_eq!(a == b, ra == rb);
    }

    #[test]
    fn streaming_equals_retained(words in proptest::collection::vec(any::<u64>(), 0..300)) {
        let mut s = Mmr::streaming();
        for &h in &leaves(&words) {
            s.push_leaf(h);
        }
        prop_assert_eq!(s.root(), mmr_of(&leaves(&words)).root());
        // The memory bound the streaming mode exists for: peaks only.
        prop_assert!(s.peaks().len() <= 64);
    }

    #[test]
    fn fold_watermark_is_invisible(words in proptest::collection::vec(any::<u64>(), 1..300),
                                   watermark in 1usize..40) {
        let mut batched = MmrLog::new(false).with_watermark(watermark, usize::MAX);
        let mut eager = MmrLog::new(false).with_watermark(1, usize::MAX);
        for w in &words {
            batched.push(&w.to_le_bytes());
            eager.push(&w.to_le_bytes());
        }
        prop_assert_eq!(batched.len(), words.len() as u64);
        prop_assert_eq!(batched.root(), eager.root());
    }

    /// Merge of per-shard forests ≡ MMR forest of the merged log: a
    /// stream of (source, entry) records is split by drain cadence
    /// into segments per source across two "shards"; merging the shard
    /// forests must equal accumulating each source's whole stream.
    #[test]
    fn forest_merge_equals_merged_log(
        records in proptest::collection::vec((0u64..6, any::<u64>()), 0..200),
        cadence in 1usize..20,
    ) {
        // Ground truth: one MMR per source over its full subsequence.
        let mut whole = MmrForest::new(false);
        for &(src, w) in &records {
            whole.append_segment(src, &Segment(leaves(&[w])));
        }

        // Sharded: sources 0..3 on shard A, 3..6 on shard B, each
        // draining per-source MmrLogs every `cadence` records.
        let mut shards = [MmrForest::new(false), MmrForest::new(false)];
        let mut logs: BTreeMap<u64, MmrLog> = Default::default();
        for (i, &(src, w)) in records.iter().enumerate() {
            logs.entry(src).or_insert_with(|| MmrLog::new(true)).push(&w.to_le_bytes());
            if (i + 1) % cadence == 0 {
                for (&src, log) in &mut logs {
                    let shard = &mut shards[(src >= 3) as usize];
                    shard.append_segment(src, &log.take_segment());
                }
            }
        }
        for (&src, log) in &mut logs {
            shards[(src >= 3) as usize].append_segment(src, &log.take_segment());
        }
        let [a, b] = shards;
        let mut merged = a;
        merged.merge(b);
        prop_assert_eq!(merged.root(), whole.root());
    }

    /// Drains at arbitrary points of a log whose small watermark folds
    /// entries into its tree mid-segment: the segments, appended into a
    /// streaming forest tree, give the contiguous stream's root. A
    /// drain right after a drain (an idle fleet instance) hands over
    /// zero leaves and allocates nothing.
    #[test]
    fn drains_across_watermark_folds_reproduce_the_stream(
        records in proptest::collection::vec((any::<u64>(), 0usize..3), 0..200),
        watermark in 1usize..8,
    ) {
        let mut contiguous = Mmr::streaming();
        let mut log = MmrLog::new(true).with_watermark(watermark, usize::MAX);
        let mut forest = MmrForest::new(false);
        for &(w, drains) in &records {
            contiguous.push_leaf(leaf_hash(&w.to_le_bytes()));
            log.push(&w.to_le_bytes());
            for k in 0..drains {
                let seg = log.take_segment();
                if k > 0 {
                    prop_assert_eq!(seg.leaves(), 0);
                    prop_assert_eq!(seg.0.capacity(), 0, "an empty drain allocates nothing");
                }
                forest.append_segment(0, &seg);
            }
        }
        forest.append_segment(0, &log.take_segment());
        prop_assert_eq!(log.len(), 0);
        let tree = forest.tree(0).expect("the final drain creates the tree");
        prop_assert_eq!(tree.leaves(), records.len() as u64);
        prop_assert_eq!(tree.root(), contiguous.root());
    }

    /// Sensitivity: a single mutated leaf is located exactly, at the
    /// index the linear scan reports, within the O(log N) budget.
    #[test]
    fn bisect_names_the_linear_divergence(
        words in proptest::collection::vec(any::<u64>(), 1..400),
        pick in any::<usize>(),
        extra in 0usize..3,
    ) {
        let ls = leaves(&words);
        let reference = mmr_of(&ls);
        let k = pick % ls.len();
        let mut mutated = ls.clone();
        mutated[k] = leaf_hash(b"injected divergence");
        // Optionally extend the mutated stream, so cross-length
        // bisection is exercised too.
        mutated.extend(leaves(&vec![3; extra]));
        let m = mmr_of(&mutated);

        let linear = linear_divergence(&reference, &m);
        let d = bisect_divergence(&reference, &m).expect("streams differ");
        prop_assert_eq!(Some(d.leaf), linear);
        let n = reference.leaves().max(m.leaves());
        let bound = 2 * (64 - n.leading_zeros() as u64) + 2;
        prop_assert!(d.compares <= bound, "{} compares > {bound} for n={n}", d.compares);
    }

    /// Pure length divergence (one stream a proper prefix of the
    /// other) is named at the first leaf past the common prefix.
    #[test]
    fn bisect_names_prefix_truncations(
        words in proptest::collection::vec(any::<u64>(), 2..300),
        cut in any::<usize>(),
    ) {
        let ls = leaves(&words);
        let cut = 1 + cut % (ls.len() - 1);
        let full = mmr_of(&ls);
        let part = mmr_of(&ls[..cut]);
        prop_assert!(full.root() != part.root());
        let d = bisect_divergence(&full, &part).expect("lengths differ");
        prop_assert_eq!(d.leaf, cut as u64);
        prop_assert_eq!(linear_divergence(&full, &part), Some(cut as u64));
    }
}

/// Entry `k` of a generated stream: `k % 49` bytes, so lengths run from
/// 0 to 48 and entries over 32 bytes bypass the leaf memo. Entries of
/// one length differ from a fixed pattern only in the byte `k / 49`
/// flips, at a place that moves with `k`, so two keys the memo compares
/// can differ anywhere.
fn entry(k: u16) -> Vec<u8> {
    let (len, q) = (usize::from(k) % 49, usize::from(k / 49));
    let mut e: Vec<u8> = (0..len as u8).collect();
    if len > 0 {
        e[q % len] ^= q as u8;
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The digest memo is invisible: four sources share one forest (and
    /// so one memo), each draining its retained, small-watermark log at
    /// random points with `drain_log`. A third of the entries come from
    /// an 8-entry alphabet, so they repeat; the rest from 8,192, so the
    /// stream holds more distinct entries and child pairs than the memo
    /// has slots (1,024 per table) and slots are evicted and reused.
    /// Every tree and the forest root must equal what the same drains
    /// give through `take_segment` and `Mmr::append`, with no memo.
    #[test]
    fn memoized_drains_equal_segment_appends(
        records in proptest::collection::vec(
            (0u64..4, prop_oneof![0u16..8, 0u16..8192, 0u16..8192], 0u8..24),
            3000..4000,
        ),
        watermark in 1usize..64,
        retain in any::<bool>(),
    ) {
        let new_log = || MmrLog::new(true).with_watermark(watermark, usize::MAX);
        let mut memo_logs: BTreeMap<u64, MmrLog> = Default::default();
        let mut plain_logs: BTreeMap<u64, MmrLog> = Default::default();
        let mut memoized = MmrForest::new(retain);
        let mut plain = MmrForest::new(retain);
        let mut trees: BTreeMap<u64, Mmr> = Default::default();
        let mut drain = |src: u64, memo_log: &mut MmrLog, plain_log: &mut MmrLog| {
            let seg = plain_log.take_segment();
            let took = memoized.drain_log(src, memo_log);
            assert_eq!(took, seg.leaves(), "source {src}: a drain hands over every leaf");
            trees.entry(src).or_insert_with(Mmr::streaming).append(&seg);
            plain.append_segment(src, &seg);
        };
        for &(src, k, roll) in &records {
            let e = entry(k);
            memo_logs.entry(src).or_insert_with(new_log).push(&e);
            plain_logs.entry(src).or_insert_with(new_log).push(&e);
            // One roll in 24 drains this source, one drains them all.
            let drained: Vec<u64> = match roll {
                0 => vec![src],
                1 => memo_logs.keys().copied().collect(),
                _ => Vec::new(),
            };
            for s in drained {
                let (m, p) = (memo_logs.get_mut(&s).unwrap(), plain_logs.get_mut(&s).unwrap());
                drain(s, m, p);
            }
        }
        for (&s, m) in &mut memo_logs {
            drain(s, m, plain_logs.get_mut(&s).unwrap());
        }

        let distinct: BTreeSet<Vec<u8>> =
            records.iter().map(|&(_, k, _)| entry(k)).filter(|e| e.len() <= 32).collect();
        prop_assert!(distinct.len() > 1024, "only {} distinct memo keys", distinct.len());
        prop_assert_eq!(memoized.len(), trees.len());
        for (id, leaves, root) in memoized.roots() {
            let tree = &trees[&id];
            prop_assert_eq!((leaves, root), (tree.leaves(), tree.root()), "tree {}", id);
        }
        prop_assert_eq!(memoized.root(), plain.root());
    }
}
