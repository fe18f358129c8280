//! The ORAM stash: a small on-chip buffer of in-flight blocks.

use serde::{Deserialize, Serialize};

use crate::block::Block;
use crate::coord::CoordMap;
use crate::types::{BlockAddr, OramError};

/// The on-chip stash (`C = 200` entries in the paper's Table 3).
///
/// Holds blocks between a path read and their eviction. PS-ORAM backup
/// (shadow) blocks live here too but are invisible to lookups.
///
/// Lookups go through a primary-address hash index (`addr → position`)
/// instead of a linear scan: every access makes several `get`/`contains`
/// probes over an up-to-`C`-entry stash. The `blocks` vector is the source
/// of truth and the only thing ever iterated — eviction walks it in
/// insertion order — so the index's own order never matters. It always
/// points at the *first* primary copy of an address, matching first-match
/// scan semantics.
///
/// # Examples
///
/// ```
/// use psoram_core::{Stash, Block, BlockAddr, Leaf};
///
/// let mut s = Stash::new(10);
/// s.insert(Block::new(BlockAddr(1), Leaf(0), vec![9; 8])).unwrap();
/// assert!(s.get(BlockAddr(1)).is_some());
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stash {
    capacity: usize,
    blocks: Vec<Block>,
    max_occupancy: usize,
    /// Primary-block index: logical address → position in `blocks` of the
    /// first non-backup copy. Backups are never indexed.
    index: CoordMap<u64, usize>,
}

impl Stash {
    /// Creates an empty stash bounded at `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stash capacity must be positive");
        Stash {
            capacity,
            blocks: Vec::new(),
            max_occupancy: 0,
            index: CoordMap::default(),
        }
    }

    /// Rebuilds the primary index from `blocks` (first primary copy wins).
    fn rebuild_index(&mut self) {
        self.index.clear();
        for (i, b) in self.blocks.iter().enumerate() {
            if !b.is_backup {
                self.index.entry(b.addr().0).or_insert(i);
            }
        }
    }

    /// Inserts a block.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::StashOverflow`] when at capacity — a correctly
    /// sized stash makes this statistically negligible, but the condition is
    /// surfaced rather than silently dropping data.
    pub fn insert(&mut self, block: Block) -> Result<(), OramError> {
        if self.blocks.len() >= self.capacity {
            return Err(OramError::StashOverflow {
                capacity: self.capacity,
            });
        }
        if !block.is_backup {
            // An earlier primary copy keeps winning lookups, as it did with
            // the linear first-match scan.
            self.index
                .entry(block.addr().0)
                .or_insert(self.blocks.len());
        }
        self.blocks.push(block);
        self.max_occupancy = self.max_occupancy.max(self.blocks.len());
        Ok(())
    }

    /// Looks up the *primary* (non-backup) block at `addr`.
    pub fn get(&self, addr: BlockAddr) -> Option<&Block> {
        self.index.get(&addr.0).map(|&i| &self.blocks[i])
    }

    /// Mutable lookup of the primary block at `addr`.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        match self.index.get(&addr.0) {
            Some(&i) => Some(&mut self.blocks[i]),
            None => None,
        }
    }

    /// `true` if a primary copy of `addr` is present.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.index.contains_key(&addr.0)
    }

    /// Removes and returns blocks matching `pred`.
    pub fn drain_matching(&mut self, mut pred: impl FnMut(&Block) -> bool) -> Vec<Block> {
        let mut kept = Vec::with_capacity(self.blocks.len());
        let mut taken = Vec::new();
        for b in self.blocks.drain(..) {
            if pred(&b) {
                taken.push(b);
            } else {
                kept.push(b);
            }
        }
        self.blocks = kept;
        self.rebuild_index();
        taken
    }

    /// Removes the block at position `idx` (used by the eviction planner).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove_at(&mut self, idx: usize) -> Block {
        let b = self.blocks.swap_remove(idx);
        // swap_remove relocates the former tail into `idx`; cheapest safe
        // fix for both affected addresses is a rebuild (the stash is small
        // and eviction removals are batched, not per-lookup).
        self.rebuild_index();
        b
    }

    /// All blocks, including backups.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Current occupancy including backups.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when the stash holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of occupancy (the paper's stash-overflow metric).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Drops every block — models the loss of volatile state at a crash.
    pub fn wipe(&mut self) {
        self.blocks.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Leaf;

    fn blk(a: u64) -> Block {
        Block::new(BlockAddr(a), Leaf(0), vec![a as u8; 8])
    }

    #[test]
    fn overflow_is_an_error_not_a_drop() {
        let mut s = Stash::new(1);
        s.insert(blk(1)).unwrap();
        let err = s.insert(blk(2)).unwrap_err();
        assert_eq!(err, OramError::StashOverflow { capacity: 1 });
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lookup_ignores_backups() {
        let mut s = Stash::new(4);
        let primary = blk(7);
        let backup = primary.to_backup(Leaf(3));
        s.insert(backup).unwrap();
        assert!(s.get(BlockAddr(7)).is_none());
        s.insert(primary).unwrap();
        assert!(s.get(BlockAddr(7)).is_some());
        assert!(!s.get(BlockAddr(7)).unwrap().is_backup);
    }

    #[test]
    fn get_mut_allows_update() {
        let mut s = Stash::new(4);
        s.insert(blk(1)).unwrap();
        s.get_mut(BlockAddr(1)).unwrap().payload = vec![0xFF; 8];
        assert_eq!(s.get(BlockAddr(1)).unwrap().payload, vec![0xFF; 8]);
    }

    #[test]
    fn drain_matching_partitions() {
        let mut s = Stash::new(8);
        for a in 0..6 {
            s.insert(blk(a)).unwrap();
        }
        let even = s.drain_matching(|b| b.addr().0 % 2 == 0);
        assert_eq!(even.len(), 3);
        assert_eq!(s.len(), 3);
        assert!(s.blocks().iter().all(|b| b.addr().0 % 2 == 1));
    }

    #[test]
    fn max_occupancy_is_a_high_water_mark() {
        let mut s = Stash::new(8);
        for a in 0..5 {
            s.insert(blk(a)).unwrap();
        }
        s.drain_matching(|_| true);
        assert_eq!(s.len(), 0);
        assert_eq!(s.max_occupancy(), 5);
    }

    #[test]
    fn wipe_models_crash() {
        let mut s = Stash::new(4);
        s.insert(blk(1)).unwrap();
        s.wipe();
        assert!(s.is_empty());
    }

    /// An unindexed reimplementation of the original linear-scan stash,
    /// used as the behavioral oracle for the indexed one.
    struct NaiveStash {
        capacity: usize,
        blocks: Vec<Block>,
    }

    impl NaiveStash {
        fn get(&self, addr: BlockAddr) -> Option<&Block> {
            self.blocks
                .iter()
                .find(|b| !b.is_backup && b.addr() == addr)
        }
    }

    /// The indexed stash must match the old linear-scan behavior on a long
    /// randomized insert/lookup/remove/drain sequence, including duplicate
    /// primaries and backups.
    #[test]
    fn index_matches_linear_scan_on_randomized_sequence() {
        let mut indexed = Stash::new(64);
        let mut naive = NaiveStash {
            capacity: 64,
            blocks: Vec::new(),
        };

        // Small deterministic PRNG so the test needs no dev-dependency.
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        for step in 0..4000u64 {
            match next() % 10 {
                // Insert a primary (duplicates allowed and expected).
                0..=3 => {
                    let a = next() % 24;
                    let b = Block::new(BlockAddr(a), Leaf(a % 8), vec![step as u8; 8]);
                    let want = naive.blocks.len() < naive.capacity;
                    if want {
                        naive.blocks.push(b.clone());
                    }
                    assert_eq!(indexed.insert(b).is_ok(), want, "step {step}");
                }
                // Insert a backup of a random address.
                4 => {
                    let a = next() % 24;
                    let b = Block::new(BlockAddr(a), Leaf(a % 8), vec![step as u8; 8])
                        .to_backup(Leaf((a + 1) % 8));
                    if naive.blocks.len() < naive.capacity {
                        naive.blocks.push(b.clone());
                        indexed.insert(b).unwrap();
                    }
                }
                // Point removal at a random slot.
                5 => {
                    if !naive.blocks.is_empty() {
                        let idx = (next() as usize) % naive.blocks.len();
                        let a = naive.blocks.swap_remove(idx);
                        let b = indexed.remove_at(idx);
                        assert_eq!(a, b, "step {step}");
                    }
                }
                // Drain by a random predicate.
                6 => {
                    let bit = next().is_multiple_of(2);
                    let pred = |b: &Block| b.addr().0.is_multiple_of(2) == bit;
                    let mut kept = Vec::new();
                    let mut taken = Vec::new();
                    for b in naive.blocks.drain(..) {
                        if pred(&b) {
                            taken.push(b);
                        } else {
                            kept.push(b);
                        }
                    }
                    naive.blocks = kept;
                    assert_eq!(indexed.drain_matching(pred), taken, "step {step}");
                }
                // Lookups: primary get + contains must agree exactly.
                _ => {
                    let a = BlockAddr(next() % 24);
                    assert_eq!(indexed.get(a), naive.get(a), "step {step} addr {a:?}");
                    assert_eq!(indexed.contains(a), naive.get(a).is_some(), "step {step}");
                }
            }
            // Eviction iterates `blocks()` directly: order must be identical.
            assert_eq!(indexed.blocks(), &naive.blocks[..], "step {step}");
        }
    }

    /// Mutating through `get_mut` must keep index and storage consistent.
    #[test]
    fn get_mut_after_churn_targets_first_primary() {
        let mut s = Stash::new(16);
        s.insert(blk(3)).unwrap();
        s.insert(blk(4)).unwrap();
        s.insert(blk(3)).unwrap(); // duplicate primary: first one wins
        s.get_mut(BlockAddr(3)).unwrap().payload = vec![0xAB; 8];
        assert_eq!(s.blocks()[0].payload, vec![0xAB; 8]);
        assert_eq!(s.blocks()[2].payload, vec![3; 8]);
        // Remove the first copy; the duplicate becomes visible again.
        s.remove_at(0);
        assert_eq!(s.get(BlockAddr(3)).unwrap().payload, vec![3; 8]);
    }
}
