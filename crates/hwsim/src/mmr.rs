//! A Merkle Mountain Range accumulator over bus traces.
//!
//! Every equivalence proof in this workspace — fast-vs-general,
//! fused-vs-unfused, the compiled-C oracle, the fleet determinism gate
//! — needs to establish that two operation streams are bit-identical.
//! Comparing them line by line retains both streams and scans them
//! end to end, which caps replay length; an MMR collapses "identical
//! over N million ops" into one 32-byte root compare, and localizes a
//! divergence by descending peaks in O(log N) hash compares instead of
//! a linear scan.
//!
//! The shape is the classic append-only mountain range: the binary
//! representation of the leaf count determines the forest — each set
//! bit is one perfect binary tree ("peak") of that height. Appending a
//! leaf pushes a height-0 peak and then merges equal-height neighbours,
//! exactly like binary increment carries, so appends are O(1) amortized
//! with zero rotations and the node array is strictly append-only.
//! That last property is what bisection leans on: the node array for
//! the first `k` leaves is a *prefix* of the node array for any larger
//! leaf count (see `prefix_property` below), so two traces can be
//! compared subtree-by-subtree at matching positions.
//!
//! Three layers:
//!
//! * [`struct@Hash`] / [`Hasher`] — a vendored Blake3-style digest (the BLAKE3
//!   compression function under simplified sequential chaining; see the
//!   note on [`Hasher`]). No external crates: `hwsim` stays
//!   dependency-free.
//! * [`Mmr`] — the accumulator, in *retained* mode (keeps the node
//!   array; supports [`bisect_divergence`]) or *streaming* mode (keeps
//!   only the peaks stack — O(log N) memory for million-op replays).
//! * [`MmrLog`] / [`Segment`] / [`MmrForest`] — deferred-batch leaf
//!   ingestion for the hot bus path; the checkpoint drains, which hand
//!   over every leaf appended since the last one; and the per-source
//!   forest that fleet shards drain into and merge at checkpoints.
//!   [`MmrForest::drain_log`] hashes the drained entries straight into
//!   the source's tree; [`MmrLog::take_segment`] hands them over as a
//!   [`Segment`] of leaf hashes (no internal node, peak or node array)
//!   for [`Mmr::append`] or [`MmrForest::append_segment`]. Both walk
//!   the same leaves.
//! * the digest memo — each forest keeps a bounded, direct-mapped memo
//!   of the leaf and parent digests its drains computed. Bus traces
//!   repeat a few entries (index writes, status polls) over and over,
//!   so a drain hashes each distinct entry and each distinct child pair
//!   once per forest, while it stays in the memo. A hit compares the
//!   full key, so the memo returns exactly the digest it replaces.

use std::collections::BTreeMap;
use std::fmt;

/// Domain-separation tags, mixed into the hasher flags so a leaf can
/// never collide with an interior node, a bagged root, or a forest
/// root over the same bytes.
const DOMAIN_LEAF: u32 = 0;
const DOMAIN_PARENT: u32 = 1;
const DOMAIN_ROOT: u32 = 2;
const DOMAIN_FOREST: u32 = 3;

// ---- vendored Blake3-style digest ----

const IV: [u32; 8] = [
    0x6A09_E667,
    0xBB67_AE85,
    0x3C6E_F372,
    0xA54F_F53A,
    0x510E_527F,
    0x9B05_688C,
    0x1F83_D9AB,
    0x5BE0_CD19,
];

const MSG_PERMUTATION: [usize; 16] = [2, 6, 3, 10, 7, 0, 4, 13, 1, 11, 12, 5, 9, 14, 15, 8];

#[inline(always)]
fn g(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, mx: u32, my: u32) {
    state[a] = state[a].wrapping_add(state[b]).wrapping_add(mx);
    state[d] = (state[d] ^ state[a]).rotate_right(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_right(12);
    state[a] = state[a].wrapping_add(state[b]).wrapping_add(my);
    state[d] = (state[d] ^ state[a]).rotate_right(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_right(7);
}

#[inline(always)]
fn round(state: &mut [u32; 16], m: &[u32; 16]) {
    g(state, 0, 4, 8, 12, m[0], m[1]);
    g(state, 1, 5, 9, 13, m[2], m[3]);
    g(state, 2, 6, 10, 14, m[4], m[5]);
    g(state, 3, 7, 11, 15, m[6], m[7]);
    g(state, 0, 5, 10, 15, m[8], m[9]);
    g(state, 1, 6, 11, 12, m[10], m[11]);
    g(state, 2, 7, 8, 13, m[12], m[13]);
    g(state, 3, 4, 9, 14, m[14], m[15]);
}

#[inline(always)]
fn permute(m: &mut [u32; 16]) {
    let mut p = [0u32; 16];
    for i in 0..16 {
        p[i] = m[MSG_PERMUTATION[i]];
    }
    *m = p;
}

/// The BLAKE3 compression function: 7 rounds of the ChaCha-derived
/// quarter-round over an 8-word chaining value, a 16-word message
/// block, a block counter and flags, feeding the halves forward.
fn compress(
    cv: &[u32; 8],
    block: &[u32; 16],
    counter: u64,
    block_len: u32,
    flags: u32,
) -> [u32; 8] {
    let mut state = [
        cv[0],
        cv[1],
        cv[2],
        cv[3],
        cv[4],
        cv[5],
        cv[6],
        cv[7],
        IV[0],
        IV[1],
        IV[2],
        IV[3],
        counter as u32,
        (counter >> 32) as u32,
        block_len,
        flags,
    ];
    let mut m = *block;
    for r in 0..7 {
        round(&mut state, &m);
        if r < 6 {
            permute(&mut m);
        }
    }
    let mut out = [0u32; 8];
    for i in 0..8 {
        out[i] = state[i] ^ state[i + 8];
    }
    out
}

/// A 32-byte digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash(pub [u8; 32]);

impl Hash {
    /// Lowercase hex of the full digest.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Eight hex chars identify a root in failure reports without
        // drowning them; `to_hex` prints the whole digest.
        for b in &self.0[..4] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// An incremental Blake3-style hasher.
///
/// This vendors the BLAKE3 *compression function* verbatim (IV, message
/// permutation, G rotations, 7 rounds) but chains 64-byte blocks
/// sequentially, BLAKE2-style, instead of reproducing BLAKE3's chunk
/// tree — so digests are **not** interchangeable with the reference
/// `blake3` crate. The accumulator only needs collision resistance,
/// determinism and domain separation, not cross-implementation
/// compatibility, and the sequential form keeps the vendored code
/// small enough to audit.
pub struct Hasher {
    cv: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    blocks: u64,
    flags: u32,
}

impl Hasher {
    fn with_domain(domain: u32) -> Self {
        Hasher { cv: IV, buf: [0; 64], buf_len: 0, blocks: 0, flags: domain << 8 }
    }

    /// A hasher in the leaf domain, for ad-hoc digests.
    pub fn new() -> Self {
        Self::with_domain(DOMAIN_LEAF)
    }

    /// Absorbs bytes.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        while !data.is_empty() {
            if self.buf_len == 64 {
                let block = words_of(&self.buf);
                self.cv = compress(&self.cv, &block, self.blocks, 64, self.flags);
                self.blocks += 1;
                self.buf_len = 0;
            }
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
        }
        self
    }

    /// Finalizes into a digest. The last block carries a finalization
    /// flag bit and the true byte length, so `update(a); update(b)`
    /// equals `update(ab)` but no prefix of a stream shares its digest.
    pub fn finalize(&self) -> Hash {
        let mut last = [0u8; 64];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        let block = words_of(&last);
        let cv = compress(&self.cv, &block, self.blocks, self.buf_len as u32, self.flags | 1);
        let mut out = [0u8; 32];
        for (i, w) in cv.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        Hash(out)
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[inline(always)]
fn words_of(block: &[u8; 64]) -> [u32; 16] {
    let mut m = [0u32; 16];
    for (i, w) in m.iter_mut().enumerate() {
        *w = u32::from_le_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    m
}

/// Hashes raw entry bytes into a leaf.
pub fn leaf_hash(entry: &[u8]) -> Hash {
    Hasher::with_domain(DOMAIN_LEAF).update(entry).finalize()
}

fn parent_hash(left: &Hash, right: &Hash) -> Hash {
    Hasher::with_domain(DOMAIN_PARENT).update(&left.0).update(&right.0).finalize()
}

/// FNV-1a over a word slice — the cheap per-entry checksum the bus
/// trace uses for block payloads (the MMR leaf hash covers it).
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

// ---- the accumulator ----

/// Node-array position of leaf `i` (post-order mountain layout): every
/// complete left subtree of `i` leaves contributes `2i - popcount(i)`
/// nodes before the leaf itself.
fn leaf_pos(i: u64) -> u64 {
    2 * i - i.count_ones() as u64
}

/// A Merkle Mountain Range accumulator.
///
/// Created [`retained`](Mmr::retained) (keeps the full post-order node
/// array: supports [`bisect_divergence`], [`Mmr::leaf_hash_at`] and
/// replaying its leaves into another tree in [`MmrForest::merge`]) or
/// [`streaming`](Mmr::streaming) (keeps only the peaks stack — at most
/// 64 hashes regardless of leaf count, for million-op replays in
/// O(peaks) memory).
#[derive(Clone, Debug, Default)]
pub struct Mmr {
    leaves: u64,
    /// Current peaks as `(height, hash)`, strictly decreasing height.
    peaks: Vec<(u32, Hash)>,
    /// Post-order node array (retained mode only).
    nodes: Option<Vec<Hash>>,
}

impl Mmr {
    /// An empty accumulator that retains its node array.
    pub fn retained() -> Self {
        Mmr { leaves: 0, peaks: Vec::new(), nodes: Some(Vec::new()) }
    }

    /// An empty peaks-only accumulator: O(log N) memory, root compare
    /// only (no bisection, no replay of its leaves).
    pub fn streaming() -> Self {
        Mmr { leaves: 0, peaks: Vec::new(), nodes: None }
    }

    /// Whether the node array is retained.
    pub fn is_retained(&self) -> bool {
        self.nodes.is_some()
    }

    /// Number of leaves appended.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Current peaks as `(height, hash)`, highest first.
    pub fn peaks(&self) -> &[(u32, Hash)] {
        &self.peaks
    }

    /// An empty accumulator, retained or streaming.
    fn new(retain: bool) -> Self {
        if retain {
            Self::retained()
        } else {
            Self::streaming()
        }
    }

    /// Appends one leaf hash: push a height-0 peak, then merge
    /// equal-height neighbours like binary-increment carries. O(1)
    /// amortized, zero rotations; the node array only ever grows.
    pub fn push_leaf(&mut self, h: Hash) {
        self.push_leaf_with(h, parent_hash);
    }

    /// [`Mmr::push_leaf`], with each parent digest taken from `parent`,
    /// which must return what `parent_hash` would (the forest's digest
    /// memo does).
    fn push_leaf_with(&mut self, h: Hash, mut parent: impl FnMut(&Hash, &Hash) -> Hash) {
        if let Some(nodes) = &mut self.nodes {
            nodes.push(h);
        }
        self.peaks.push((0, h));
        while self.peaks.len() >= 2 {
            let (rh, right) = self.peaks[self.peaks.len() - 1];
            let (lh, left) = self.peaks[self.peaks.len() - 2];
            if lh != rh {
                break;
            }
            let parent = parent(&left, &right);
            self.peaks.pop();
            self.peaks.pop();
            if let Some(nodes) = &mut self.nodes {
                nodes.push(parent);
            }
            self.peaks.push((lh + 1, parent));
        }
        self.leaves += 1;
    }

    /// Reserves room for `extra` more leaves (retained mode: the node
    /// array holds strictly fewer than `2 × leaves` nodes).
    pub fn reserve(&mut self, extra: usize) {
        if let Some(nodes) = &mut self.nodes {
            nodes.reserve(extra * 2);
        }
    }

    /// The root: all peaks bagged together with the leaf count under a
    /// distinct domain, so e.g. a 2-leaf range and its own 1-node peak
    /// can't alias. Equal roots ⇔ equal leaf streams.
    pub fn root(&self) -> Hash {
        let mut h = Hasher::with_domain(DOMAIN_ROOT);
        h.update(&self.leaves.to_le_bytes());
        for (_, peak) in &self.peaks {
            h.update(&peak.0);
        }
        h.finalize()
    }

    /// The hash of leaf `i` (retained mode).
    ///
    /// # Panics
    ///
    /// Panics if `i >= leaves()` or in streaming mode.
    pub fn leaf_hash_at(&self, i: u64) -> Hash {
        assert!(i < self.leaves, "leaf {i} out of range ({} leaves)", self.leaves);
        self.nodes_ref()[leaf_pos(i) as usize]
    }

    /// Pushes every leaf of `segment` into `self`, so segment-wise
    /// accumulation equals accumulating the concatenated stream (drain
    /// cadence can't change the root). Each parent is hashed once,
    /// here.
    pub fn append(&mut self, segment: &Segment) {
        self.reserve(segment.0.len());
        for &h in &segment.0 {
            self.push_leaf(h);
        }
    }

    /// Bytes retained by the accumulator (capacity, not length — this
    /// is the number the streaming-mode memory bound is about).
    pub fn retained_bytes(&self) -> usize {
        let nodes = self.nodes.as_ref().map_or(0, |n| n.capacity() * 32);
        nodes + self.peaks.capacity() * std::mem::size_of::<(u32, Hash)>()
    }

    /// Every leaf hash, in append order (retained mode).
    fn leaf_hashes(&self) -> impl Iterator<Item = Hash> + '_ {
        (0..self.leaves).map(|i| self.leaf_hash_at(i))
    }

    fn nodes_ref(&self) -> &[Hash] {
        self.nodes.as_deref().expect("retained mode required (Mmr::retained)")
    }

    /// Positions of the peak roots covering the first `n` leaves, as
    /// `(height, leaf_base, node_pos)`, highest peak first. By the
    /// prefix property these positions are valid (and final) in any
    /// accumulator with at least `n` leaves.
    fn peak_positions(n: u64) -> Vec<(u32, u64, u64)> {
        let mut out = Vec::new();
        let mut base = 0u64;
        for h in (0..64).rev() {
            if n & (1 << h) != 0 {
                let pos = leaf_pos(base) + (2u64 << h) - 2;
                out.push((h, base, pos));
                base += 1 << h;
            }
        }
        out
    }
}

/// A located divergence between two leaf streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first differing leaf (or the first leaf past the
    /// common prefix, when one stream is a proper prefix of the other).
    pub leaf: u64,
    /// Hash compares spent locating it — O(log N), the point of the
    /// exercise.
    pub compares: u64,
}

/// Locates the first divergent leaf between two retained accumulators
/// in O(log N) hash compares: compare the peaks covering the common
/// prefix left to right; inside the first differing peak, descend by
/// comparing left children (equal left ⇒ the divergence is on the
/// right, because the parents differ).
///
/// Returns `None` when the streams are identical. If the compared
/// prefixes are equal but the lengths differ, the divergence is the
/// first leaf past the shorter stream.
///
/// # Panics
///
/// Panics if either accumulator is streaming — re-replay in retained
/// mode to bisect (the replay is deterministic, so this costs one more
/// pass only on the failing case).
pub fn bisect_divergence(a: &Mmr, b: &Mmr) -> Option<Divergence> {
    let (an, bn) = (a.nodes_ref(), b.nodes_ref());
    let n = a.leaves.min(b.leaves);
    let mut compares = 0u64;
    for (height, base, pos) in Mmr::peak_positions(n) {
        compares += 1;
        if an[pos as usize] == bn[pos as usize] {
            continue;
        }
        // Descend: at each level compare the left child only.
        let (mut h, mut base, mut pos) = (height, base, pos);
        while h > 0 {
            let left = pos - (2u64 << (h - 1));
            compares += 1;
            if an[left as usize] == bn[left as usize] {
                base += 1 << (h - 1); // left halves agree: go right
                pos -= 1;
            } else {
                pos = left;
            }
            h -= 1;
        }
        return Some(Divergence { leaf: base, compares });
    }
    if a.leaves == b.leaves {
        None
    } else {
        Some(Divergence { leaf: n, compares })
    }
}

/// The first divergent leaf by linear scan — the O(N) comparator the
/// bisection must agree with (used by the sensitivity tests and the
/// before/after benches).
pub fn linear_divergence(a: &Mmr, b: &Mmr) -> Option<u64> {
    let n = a.leaves.min(b.leaves);
    (0..n).find(|&i| a.leaf_hash_at(i) != b.leaf_hash_at(i)).or(if a.leaves == b.leaves {
        None
    } else {
        Some(n)
    })
}

// ---- deferred-batch ingestion ----

/// Default fold watermark: pending raw entries fold into leaves when
/// either bound is hit, so an untraced-feeling bump-append hot path
/// still can't grow unboundedly between [`Checkpoint::drain`]-style
/// flush points.
///
/// [`Checkpoint::drain`]: crate::Checkpoint::drain
const WATERMARK_ENTRIES: usize = 1024;
const WATERMARK_BYTES: usize = 64 * 1024;

/// An MMR fed by raw entry bytes with deferred, batched hashing.
///
/// The hot path ([`MmrLog::push`]) is a plain bump-append into one byte
/// arena — no hashing, no per-entry allocation. The arena holds each
/// pending entry as a little-endian `u32` length, then the entry bytes;
/// a leaf hashes the entry bytes only. Entries materialize into leaves
/// in batches at [`MmrLog::fold`], [`MmrLog::root`],
/// [`MmrLog::take_segment`] (checkpoint drains) or when the pending
/// arena crosses a size watermark — never per-op.
#[derive(Clone, Debug)]
pub struct MmrLog {
    mmr: Mmr,
    /// Length-prefixed pending entries.
    pending: Vec<u8>,
    /// Number of entries in `pending`.
    entries: usize,
    watermark_entries: usize,
    watermark_bytes: usize,
}

impl MmrLog {
    /// An empty log; `retain` chooses the accumulator mode.
    pub fn new(retain: bool) -> Self {
        MmrLog {
            mmr: Mmr::new(retain),
            pending: Vec::new(),
            entries: 0,
            watermark_entries: WATERMARK_ENTRIES,
            watermark_bytes: WATERMARK_BYTES,
        }
    }

    /// Overrides the fold watermark (tests pin small values to exercise
    /// mid-stream folds). The byte limit counts length prefixes too.
    pub fn with_watermark(mut self, entries: usize, bytes: usize) -> Self {
        self.watermark_entries = entries.max(1);
        self.watermark_bytes = bytes;
        self
    }

    /// Appends one raw entry: two bump-appends and a bounds check. The
    /// watermark fold amortizes to O(1) hash work per entry.
    pub fn push(&mut self, entry: &[u8]) {
        let len = u32::try_from(entry.len()).expect("an MMR log entry is under 4 GiB");
        self.pending.extend_from_slice(&len.to_le_bytes());
        self.pending.extend_from_slice(entry);
        self.entries += 1;
        if self.entries >= self.watermark_entries || self.pending.len() >= self.watermark_bytes {
            self.fold();
        }
    }

    /// Hashes every pending entry into a leaf, in order, and clears the
    /// arena (keeping its capacity).
    pub fn fold(&mut self) {
        self.mmr.reserve(self.entries);
        self.take_pending(|mmr, entry| mmr.push_leaf(leaf_hash(entry)));
    }

    /// Hands `sink` the accumulator and each pending entry, in order,
    /// then clears the arena (keeping its capacity).
    fn take_pending(&mut self, mut sink: impl FnMut(&mut Mmr, &[u8])) {
        let mut rest = &self.pending[..];
        while let Some((len, tail)) = rest.split_first_chunk() {
            let (entry, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
            sink(&mut self.mmr, entry);
            rest = tail;
        }
        self.pending.clear();
        self.entries = 0;
    }

    /// Total entries appended (folded or pending) — O(1), no scan.
    pub fn len(&self) -> u64 {
        self.mmr.leaves + self.entries as u64
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Preallocates for `entries` more entries of roughly `entry_bytes`
    /// each (plus prefixes), so steady-state appends never reallocate.
    pub fn reserve(&mut self, entries: usize, entry_bytes: usize) {
        let entries = entries.min(self.watermark_entries);
        self.pending.reserve(entries * (4 + entry_bytes));
    }

    /// Folds and returns the root.
    pub fn root(&mut self) -> Hash {
        self.fold();
        self.mmr.root()
    }

    /// Folds and exposes the accumulator.
    pub fn mmr(&mut self) -> &Mmr {
        self.fold();
        &self.mmr
    }

    /// Takes every entry appended since the last drain as a [`Segment`]
    /// of leaf hashes, leaving the log empty — the checkpoint-drain
    /// primitive: per-drain segments [`Mmr::append`]ed elsewhere
    /// reproduce the root of the undrained stream, and retained memory
    /// resets to the drain cadence instead of the replay length.
    ///
    /// Pending entries hash straight into the segment, after any leaves
    /// a watermark fold already put into the log's tree. No internal
    /// node is built here: the tree the segment is appended to hashes
    /// each parent once. An empty drain allocates nothing.
    /// [`MmrForest::drain_log`] hands over the same leaves without the
    /// segment in between.
    ///
    /// # Panics
    ///
    /// Panics on a streaming log (`MmrLog::new(false)`,
    /// `Bus::enable_trace(false)`): its watermark folds keep only
    /// peaks, so the leaves a drain must hand over may already be gone.
    pub fn take_segment(&mut self) -> Segment {
        let mut leaves = Vec::with_capacity(self.len() as usize);
        self.drain(|leaf| {
            leaves.push(match leaf {
                Leaf::Hashed(h) => h,
                Leaf::Entry(entry) => leaf_hash(entry),
            });
        });
        Segment(leaves)
    }

    /// The drain walk: hands `sink` every leaf appended since the last
    /// drain, in order, and leaves the log empty. The leaves a
    /// watermark fold already kept come hashed; pending entries come
    /// raw, for the caller to hash.
    fn drain(&mut self, mut sink: impl FnMut(Leaf<'_>)) {
        assert!(
            self.mmr.is_retained(),
            "cannot drain a streaming trace log: its watermark folds drop leaves; \
             trace with Bus::enable_trace(true) (MmrLog::new(true)) to drain segments"
        );
        for h in self.mmr.leaf_hashes() {
            sink(Leaf::Hashed(h));
        }
        self.mmr = Mmr::retained();
        self.take_pending(|_, entry| sink(Leaf::Entry(entry)));
    }

    /// Bytes retained (accumulator + pending arena capacities).
    pub fn retained_bytes(&self) -> usize {
        self.mmr.retained_bytes() + self.pending.capacity()
    }
}

/// One leaf of a drain: a digest a watermark fold already computed, or
/// a pending entry still to hash.
enum Leaf<'a> {
    Hashed(Hash),
    Entry(&'a [u8]),
}

/// A drained trace segment: the leaf hashes of the entries a log took
/// since its last drain, in order ([`MmrLog::take_segment`]). It holds
/// no internal node or peak; [`Mmr::append`] and
/// [`MmrForest::append_segment`] push its leaves into the destination
/// tree, which hashes each parent exactly once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Segment(pub Vec<Hash>);

impl Segment {
    /// Number of leaves.
    pub fn leaves(&self) -> u64 {
        self.0.len() as u64
    }
}

// ---- the digest memo ----

/// Longest entry the leaf memo keys; longer entries are hashed every
/// time. A bus trace entry is 26 bytes.
const MEMO_KEY_BYTES: usize = 32;
/// Slots per memo table (powers of two): about 165 KB per forest.
const MEMO_LEAF_SLOTS: usize = 1024;
const MEMO_PARENT_SLOTS: usize = 1024;

/// A memoized leaf digest: `digest == leaf_hash(&key[..len])`.
#[derive(Clone, Copy)]
struct LeafSlot {
    len: u8,
    key: [u8; MEMO_KEY_BYTES],
    digest: Hash,
}

/// A memoized parent digest: `digest == parent_hash(&left, &right)`.
#[derive(Clone, Copy)]
struct ParentSlot {
    left: Hash,
    right: Hash,
    digest: Hash,
}

/// A direct-mapped memo of leaf and parent digests. A key maps to one
/// slot; a miss computes the digest and overwrites the slot. Each table
/// is allocated on first use, with every slot holding the true digest
/// of an all-zero key, so a slot never needs a validity flag: a hit
/// compares the full key and returns exactly what the hash would.
#[derive(Clone, Default)]
struct HashMemo {
    leaves: Vec<LeafSlot>,
    parents: Vec<ParentSlot>,
}

impl HashMemo {
    /// `leaf_hash(entry)`, computed once per distinct entry while it
    /// stays in the memo.
    fn leaf(&mut self, entry: &[u8]) -> Hash {
        if entry.len() > MEMO_KEY_BYTES {
            return leaf_hash(entry);
        }
        if self.leaves.is_empty() {
            let empty = LeafSlot { len: 0, key: [0; MEMO_KEY_BYTES], digest: leaf_hash(&[]) };
            self.leaves = vec![empty; MEMO_LEAF_SLOTS];
        }
        let h = entry.chunks(8).fold(entry.len() as u64, |h, c| mix(h, word(c)));
        let slot = &mut self.leaves[slot_of(h, MEMO_LEAF_SLOTS)];
        if usize::from(slot.len) != entry.len() || slot.key[..entry.len()] != *entry {
            slot.len = entry.len() as u8;
            slot.key[..entry.len()].copy_from_slice(entry);
            slot.digest = leaf_hash(entry);
        }
        slot.digest
    }

    /// `parent_hash(left, right)`, computed once per distinct child
    /// pair while it stays in the memo.
    fn parent(&mut self, left: &Hash, right: &Hash) -> Hash {
        if self.parents.is_empty() {
            let zero = Hash::default();
            let empty = ParentSlot { left: zero, right: zero, digest: parent_hash(&zero, &zero) };
            self.parents = vec![empty; MEMO_PARENT_SLOTS];
        }
        // Digests are uniform already: their first words pick the slot.
        let h = mix(mix(0, word(&left.0[..8])), word(&right.0[..8]));
        let slot = &mut self.parents[slot_of(h, MEMO_PARENT_SLOTS)];
        if slot.left != *left || slot.right != *right {
            *slot = ParentSlot { left: *left, right: *right, digest: parent_hash(left, right) };
        }
        slot.digest
    }
}

impl fmt::Debug for HashMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HashMemo")
            .field("leaf_slots", &self.leaves.len())
            .field("parent_slots", &self.parents.len())
            .finish()
    }
}

/// Little-endian word of up to 8 bytes, zero-padded.
fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// One multiplicative mixing step over the slot hash.
fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The slot of hash `h` in a table of `slots` (a power of two): its top
/// bits, which every mixed word reaches.
fn slot_of(h: u64, slots: usize) -> usize {
    (h >> (64 - slots.trailing_zeros())) as usize
}

// ---- the per-source forest ----

/// A forest of MMRs keyed by source id (fleet: one per instance).
///
/// Shards accumulate traces per instance and merge forests at join
/// points. Because an instance lives on exactly one shard, a fleet
/// merge is a disjoint union — commutative and cadence-independent —
/// and the forest root authenticates every instance's whole trace in
/// one 32-byte compare.
///
/// A forest keeps a digest memo for its drains ([`MmrForest::drain_log`]):
/// the leaf and parent digests one instance's drain computed serve
/// every later drain, of any instance, while they stay in the memo.
#[derive(Clone, Debug, Default)]
pub struct MmrForest {
    trees: BTreeMap<u64, Mmr>,
    retain: bool,
    memo: HashMemo,
}

impl MmrForest {
    /// An empty forest; `retain` chooses the mode of trees it grows.
    pub fn new(retain: bool) -> Self {
        MmrForest { trees: BTreeMap::new(), retain, memo: HashMemo::default() }
    }

    /// Appends `segment`'s leaves to source `id`'s tree (created on
    /// first use).
    pub fn append_segment(&mut self, id: u64, segment: &Segment) {
        let retain = self.retain;
        self.trees.entry(id).or_insert_with(|| Mmr::new(retain)).append(segment);
    }

    /// Drains `log` into source `id`'s tree (created on first use) and
    /// returns the number of leaves it took: the leaves
    /// [`MmrLog::take_segment`] would hand over, pushed straight into
    /// the tree, with pending entries and parents hashed through the
    /// forest's digest memo. The tree's root is the one appending the
    /// segment would give.
    ///
    /// # Panics
    ///
    /// Panics on a streaming log, as [`MmrLog::take_segment`] does.
    pub fn drain_log(&mut self, id: u64, log: &mut MmrLog) -> u64 {
        let retain = self.retain;
        let tree = self.trees.entry(id).or_insert_with(|| Mmr::new(retain));
        let memo = &mut self.memo;
        let before = tree.leaves();
        tree.reserve(log.len() as usize);
        log.drain(|leaf| {
            let h = match leaf {
                Leaf::Hashed(h) => h,
                Leaf::Entry(entry) => memo.leaf(entry),
            };
            tree.push_leaf_with(h, |l, r| memo.parent(l, r));
        });
        tree.leaves() - before
    }

    /// Merges another forest in. Disjoint ids move over untouched; a
    /// shared id replays `other`'s tree after `self`'s, which requires
    /// `other` to retain leaves.
    pub fn merge(&mut self, other: MmrForest) {
        for (id, tree) in other.trees {
            match self.trees.entry(id) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(tree);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let into = e.get_mut();
                    for h in tree.leaf_hashes() {
                        into.push_leaf(h);
                    }
                }
            }
        }
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Source `id`'s tree, if any.
    pub fn tree(&self, id: u64) -> Option<&Mmr> {
        self.trees.get(&id)
    }

    /// `(id, leaves, root)` per source, in id order — the gate's
    /// per-instance diagnostic when forest roots mismatch.
    pub fn roots(&self) -> impl Iterator<Item = (u64, u64, Hash)> + '_ {
        self.trees.iter().map(|(&id, t)| (id, t.leaves(), t.root()))
    }

    /// One digest over every source's `(id, leaves, root)` in id order.
    pub fn root(&self) -> Hash {
        let mut h = Hasher::with_domain(DOMAIN_FOREST);
        h.update(&(self.trees.len() as u64).to_le_bytes());
        for (id, leaves, root) in self.roots() {
            h.update(&id.to_le_bytes());
            h.update(&leaves.to_le_bytes());
            h.update(&root.0);
        }
        h.finalize()
    }

    /// Bytes retained across all trees.
    pub fn retained_bytes(&self) -> usize {
        self.trees.values().map(Mmr::retained_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: u64) -> Vec<Hash> {
        (0..n).map(|i| leaf_hash(&i.to_le_bytes())).collect()
    }

    fn mmr_of(hashes: &[Hash]) -> Mmr {
        let mut m = Mmr::retained();
        for &h in hashes {
            m.push_leaf(h);
        }
        m
    }

    fn seg(hashes: &[Hash]) -> Segment {
        Segment(hashes.to_vec())
    }

    #[test]
    fn digest_is_deterministic_and_separates_domains() {
        let a = leaf_hash(b"hello");
        assert_eq!(a, leaf_hash(b"hello"));
        assert_ne!(a, leaf_hash(b"hellp"));
        assert_ne!(a, leaf_hash(b"hell"));
        // Same 64 bytes hashed as leaf vs parent vs root must differ.
        let h = leaf_hash(b"x");
        let p = parent_hash(&h, &h);
        let mut r = Hasher::with_domain(DOMAIN_ROOT);
        r.update(&h.0).update(&h.0);
        assert_ne!(p, r.finalize());
    }

    #[test]
    fn digest_streams_independent_of_chunking() {
        let mut one = Hasher::new();
        one.update(b"abcdefghij".repeat(20).as_slice());
        let mut many = Hasher::new();
        for _ in 0..20 {
            many.update(b"abcde").update(b"fghij");
        }
        assert_eq!(one.finalize(), many.finalize());
    }

    #[test]
    fn digest_avalanches_across_block_boundaries() {
        // >64 bytes exercises the chaining path; a flip in either block
        // must change the digest.
        let mut data = vec![7u8; 150];
        let base = leaf_hash(&data);
        for i in [0usize, 63, 64, 100, 149] {
            data[i] ^= 1;
            assert_ne!(base, leaf_hash(&data), "flip at {i}");
            data[i] ^= 1;
        }
        assert_eq!(base, leaf_hash(&data));
    }

    #[test]
    fn peaks_follow_the_binary_representation() {
        let mut m = Mmr::streaming();
        for (i, h) in leaves(100).into_iter().enumerate() {
            m.push_leaf(h);
            let n = i as u64 + 1;
            assert_eq!(m.peaks().len(), n.count_ones() as usize, "n={n}");
            let heights: Vec<u32> = m.peaks().iter().map(|&(h, _)| h).collect();
            let expect: Vec<u32> = (0..64).rev().filter(|&b| n & (1 << b) != 0).collect();
            assert_eq!(heights, expect, "n={n}");
        }
    }

    #[test]
    fn roots_are_deterministic_and_length_separated() {
        let ls = leaves(9);
        assert_eq!(mmr_of(&ls).root(), mmr_of(&ls).root());
        assert_ne!(mmr_of(&ls).root(), mmr_of(&ls[..8]).root());
        // One leaf differs → different root.
        let mut other = ls.clone();
        other[4] = leaf_hash(b"mutant");
        assert_ne!(mmr_of(&ls).root(), mmr_of(&other).root());
    }

    #[test]
    fn streaming_and_retained_roots_agree() {
        let ls = leaves(77);
        let mut s = Mmr::streaming();
        for &h in &ls {
            s.push_leaf(h);
        }
        assert_eq!(s.root(), mmr_of(&ls).root());
        assert!(s.retained_bytes() < 64 * 40, "streaming keeps only the peaks stack");
    }

    #[test]
    fn prefix_property() {
        // The node array for k leaves is a prefix of the array for n>k:
        // the foundation under cross-length bisection.
        let ls = leaves(33);
        let full = mmr_of(&ls);
        for k in [1u64, 2, 3, 8, 21, 32] {
            let part = mmr_of(&ls[..k as usize]);
            let (fnodes, pnodes) = (full.nodes_ref(), part.nodes_ref());
            assert_eq!(&fnodes[..pnodes.len()], pnodes, "k={k}");
        }
    }

    #[test]
    fn leaf_positions_recover_every_leaf() {
        let ls = leaves(50);
        let m = mmr_of(&ls);
        for (i, &h) in ls.iter().enumerate() {
            assert_eq!(m.leaf_hash_at(i as u64), h);
        }
    }

    #[test]
    fn bisect_finds_every_single_leaf_mutation() {
        for n in [1u64, 2, 3, 7, 8, 31, 64, 100] {
            let ls = leaves(n);
            let reference = mmr_of(&ls);
            for k in 0..n {
                let mut mutated = ls.clone();
                mutated[k as usize] = leaf_hash(&[0xEE, k as u8]);
                let m = mmr_of(&mutated);
                let d = bisect_divergence(&reference, &m).expect("roots differ");
                assert_eq!(d.leaf, k, "n={n}");
                assert_eq!(Some(k), linear_divergence(&reference, &m));
                let bound = 2 * (64 - n.leading_zeros() as u64) + 2;
                assert!(d.compares <= bound, "n={n} k={k}: {} compares > {bound}", d.compares);
            }
        }
    }

    #[test]
    fn bisect_handles_prefix_streams_and_equality() {
        let ls = leaves(21);
        let full = mmr_of(&ls);
        let part = mmr_of(&ls[..13]);
        assert_eq!(bisect_divergence(&full, &full), None);
        let d = bisect_divergence(&part, &full).expect("lengths differ");
        assert_eq!(d.leaf, 13, "divergence is the first leaf past the common prefix");
        assert_eq!(Some(13), linear_divergence(&part, &full));
    }

    #[test]
    fn segment_appends_reproduce_the_whole_stream() {
        let ls = leaves(45);
        let whole = mmr_of(&ls);
        for cut in [1usize, 7, 16, 44] {
            let mut m = Mmr::retained();
            m.append(&seg(&ls[..cut]));
            m.append(&seg(&ls[cut..]));
            assert_eq!(m.root(), whole.root(), "cut={cut}");
        }
    }

    #[test]
    fn log_defers_hashing_until_fold_points() {
        let mut log = MmrLog::new(true).with_watermark(4, usize::MAX);
        for i in 0..6u64 {
            log.push(&i.to_le_bytes());
        }
        // Watermark fired once at 4 entries; 2 still pending.
        assert_eq!(log.mmr.leaves(), 4);
        assert_eq!(log.len(), 6);
        let root = log.root();
        assert_eq!(log.mmr.leaves(), 6);
        // Same entries, eager watermark: identical root.
        let mut eager = MmrLog::new(true).with_watermark(1, usize::MAX);
        for i in 0..6u64 {
            eager.push(&i.to_le_bytes());
        }
        assert_eq!(eager.root(), root);
    }

    #[test]
    fn log_segments_drain_like_checkpoints() {
        let mut contiguous = MmrLog::new(true);
        let mut drained = MmrLog::new(true);
        let mut acc = Mmr::retained();
        for i in 0..300u64 {
            contiguous.push(&i.to_le_bytes());
            drained.push(&i.to_le_bytes());
            if i % 64 == 0 {
                acc.append(&drained.take_segment());
            }
        }
        acc.append(&drained.take_segment());
        assert_eq!(acc.root(), contiguous.root());
        assert_eq!(drained.len(), 0, "drained log restarts empty");
    }

    #[test]
    fn forest_merge_is_a_disjoint_union() {
        let ls = leaves(30);
        let mut a = MmrForest::new(false);
        let mut b = MmrForest::new(false);
        a.append_segment(1, &seg(&ls[..10]));
        b.append_segment(2, &seg(&ls[10..20]));
        b.append_segment(3, &seg(&ls[20..]));
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab.root(), ba.root(), "disjoint merge commutes");
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn forest_merge_with_shared_ids_replays_in_order() {
        let ls = leaves(20);
        let mut a = MmrForest::new(true);
        a.append_segment(7, &seg(&ls[..8]));
        let mut b = MmrForest::new(true);
        b.append_segment(7, &seg(&ls[8..]));
        a.merge(b);
        let mut whole = MmrForest::new(true);
        whole.append_segment(7, &seg(&ls));
        assert_eq!(a.root(), whole.root());
    }

    #[test]
    fn forest_root_distinguishes_ids() {
        let ls = leaves(4);
        let mut a = MmrForest::new(false);
        a.append_segment(1, &seg(&ls));
        let mut b = MmrForest::new(false);
        b.append_segment(2, &seg(&ls));
        assert_ne!(a.root(), b.root());
    }
}
