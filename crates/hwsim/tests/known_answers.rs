//! Known-answer digests for the trace accumulator.
//!
//! Every equivalence gate compares roots computed by the same code on
//! both sides, so a change that altered the digest, the leaf or node
//! framing, the peak bagging or the forest encoding would still pass
//! all of them. These pins catch that: the hex below must never change
//! unless the trace format is changed on purpose.

use hwsim::mmr::{leaf_hash, Mmr, MmrForest, MmrLog};

#[test]
fn empty_leaf_digest_is_pinned() {
    assert_eq!(
        leaf_hash(b"").to_hex(),
        "7ea909a5f764fbd928020589474157edc82e7f440b1b5061599e34c17ba6b867"
    );
}

#[test]
fn bus_entry_digest_is_pinned() {
    // One bus trace entry: an `outb(0x300, 0xab)` to a claimed port —
    // kind 1 (port write), width 1, address, value, second operand 0.
    let mut entry = [0u8; 26];
    entry[0] = 1;
    entry[1] = 1;
    entry[2..10].copy_from_slice(&0x300u64.to_le_bytes());
    entry[10..18].copy_from_slice(&0xabu64.to_le_bytes());
    assert_eq!(
        leaf_hash(&entry).to_hex(),
        "6aebaf4be0e69d929b37397c67563b72b5c719d6110cac46d2676b148e15cd9a"
    );
}

#[test]
fn multi_block_digest_is_pinned() {
    // 100 bytes: one full 64-byte block chained into a 36-byte final one.
    let entry: Vec<u8> = (0..100u8).collect();
    assert_eq!(
        leaf_hash(&entry).to_hex(),
        "00123a53bb8787e5a281d9eb59991634c55b1540cc8ec30815db1a2bd860a9d8"
    );
}

#[test]
fn seven_leaf_root_is_pinned() {
    // 7 = 0b111: three peaks, so parents, carries and bagging all count.
    let mut retained = Mmr::retained();
    let mut streaming = Mmr::streaming();
    for i in 0..7u8 {
        retained.push_leaf(leaf_hash(&[i]));
        streaming.push_leaf(leaf_hash(&[i]));
    }
    let root = "44e66a2712bd403be9f211ec4e2793329ab5353085655d4b8687be4887b98081";
    assert_eq!(retained.root().to_hex(), root);
    assert_eq!(streaming.root().to_hex(), root);
}

#[test]
fn two_tree_forest_root_is_pinned() {
    // Source 1 gets one 3-leaf drain; source 2 gets two drains (4 + 2
    // leaves), so appending across segment boundaries is pinned too.
    let mut forest = MmrForest::new(false);
    for (id, drains) in [(1u64, &[3u64][..]), (2, &[4, 2])] {
        let mut log = MmrLog::new(true);
        let mut word = id << 32;
        for &n in drains {
            for _ in 0..n {
                log.push(&word.to_le_bytes());
                word += 1;
            }
            forest.append_segment(id, &log.take_segment());
        }
    }
    assert_eq!(forest.len(), 2);
    assert_eq!(
        forest.root().to_hex(),
        "ad74aae04d335e5dafbe40b5f64fc697322edcfb95cd01c356d2db70168f155a"
    );
}
