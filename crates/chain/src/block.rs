//! Blocks and the fork tree (block DAG restricted to a tree).
//!
//! Every node keeps a [`ChainView`] — the set of blocks it has accepted,
//! the parent links between them, and the current best tip under the
//! most-work rule (ties broken by first arrival, as in Bitcoin).

use decent_sim::payload::Interned;
use std::collections::{hash_map, HashMap};
use std::hash::{BuildHasher, Hasher, RandomState};

use decent_sim::engine::NodeId;
use decent_sim::time::SimTime;

/// Unique identifier of a block (stands in for its hash).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Unique identifier of a transaction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

/// A mined block.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// This block's id.
    pub id: BlockId,
    /// Parent block id (`None` only for the genesis block).
    pub parent: Option<BlockId>,
    /// Distance from genesis.
    pub height: u64,
    /// Simulation node that mined it.
    pub miner: NodeId,
    /// Simulated time of creation.
    pub mined_at: SimTime,
    /// Transactions included.
    pub txs: Vec<TxId>,
    /// Serialized size in bytes (drives propagation delay).
    pub size_bytes: u64,
    /// Difficulty (expected hashes) this block was mined at.
    pub difficulty: f64,
}

impl Block {
    /// The conventional genesis block.
    pub fn genesis(difficulty: f64) -> Interned<Block> {
        Interned::new(Block {
            id: BlockId(0),
            parent: None,
            height: 0,
            miner: usize::MAX,
            mined_at: SimTime::ZERO,
            txs: Vec::new(),
            size_bytes: 285,
            difficulty,
        })
    }
}

/// Hashes a [`BlockId`] with one multiply, for the maps a node probes on
/// every relay message.
///
/// Block ids are minted inside the simulation, never read from outside
/// it, so SipHash's resistance to crafted collisions buys nothing here.
/// Each map draws its own key from std's [`RandomState`], so two maps,
/// or two runs, still order their buckets differently and the dynamic
/// D001 check (`tests/hasher_independence.rs`, DESIGN §4e) keeps its
/// power.
#[derive(Clone, Debug)]
pub(crate) struct IdHasher {
    key: u64,
}

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher {
            key: RandomState::new().hash_one(0_u64),
        }
    }
}

impl BuildHasher for IdHasher {
    type Hasher = IdHash;

    fn build_hasher(&self) -> IdHash {
        IdHash {
            key: self.key,
            hash: 0,
        }
    }
}

/// The state of one [`IdHasher`] hash.
#[derive(Clone, Debug)]
pub(crate) struct IdHash {
    key: u64,
    hash: u64,
}

impl Hasher for IdHash {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The whole hash of a `BlockId`: the 128-bit product of the keyed
    /// word and an odd constant, its two halves folded together, so every
    /// input bit reaches the low bits (bucket) and the high bits (tag).
    fn write_u64(&mut self, word: u64) {
        const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
        let product = u128::from(self.hash ^ word ^ self.key) * u128::from(MUL);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A map keyed by block id on an [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<BlockId, V, IdHasher>;

/// A node's local view of the block tree and its best chain.
///
/// Fork choice follows Bitcoin's actual rule: the chain with the most
/// cumulative *work* (sum of per-block difficulty) wins, with ties
/// broken by first arrival. At constant difficulty this coincides with
/// the longest chain; across retarget boundaries it does not, and the
/// work rule is what prevents low-difficulty fork spam.
///
/// The tip's id and work are kept beside the index, so a query about
/// the tip (most relay messages name it) and an accept onto the tip
/// never probe the index.
#[derive(Clone, Debug)]
pub struct ChainView {
    /// Accepted blocks in acceptance order, genesis first.
    entries: Vec<Entry>,
    /// Position in `entries` of each accepted id. Only ever probed by
    /// key, never iterated, so hasher state reaches no caller.
    index: IdMap<u32>,
    /// Position in `entries` of the best tip.
    tip: u32,
    /// `entries[tip]`'s block id and cumulative work.
    tip_id: BlockId,
    tip_work: f64,
}

/// An accepted block and the cumulative work (sum of difficulties) from
/// genesis to it.
#[derive(Clone, Debug)]
struct Entry {
    block: Interned<Block>,
    work: f64,
}

impl ChainView {
    /// Creates a view containing only `genesis`.
    pub fn new(genesis: Interned<Block>) -> Self {
        let (tip_id, tip_work) = (genesis.id, genesis.difficulty.max(0.0));
        let mut index = IdMap::default();
        index.insert(tip_id, 0);
        ChainView {
            index,
            entries: vec![Entry {
                block: genesis,
                work: tip_work,
            }],
            tip: 0,
            tip_id,
            tip_work,
        }
    }

    fn entry(&self, id: BlockId) -> Option<&Entry> {
        let at = if id == self.tip_id {
            self.tip
        } else {
            *self.index.get(&id)?
        };
        Some(&self.entries[at as usize])
    }

    /// Whether `id` is the best tip's id.
    pub(crate) fn is_tip(&self, id: BlockId) -> bool {
        id == self.tip_id
    }

    /// Whether `id` has been accepted.
    pub fn contains(&self, id: BlockId) -> bool {
        id == self.tip_id || self.index.contains_key(&id)
    }

    /// The block with the given id, if accepted.
    pub fn get(&self, id: BlockId) -> Option<&Interned<Block>> {
        self.entry(id).map(|e| &e.block)
    }

    /// The current best tip (most cumulative work, first-seen tie-break).
    pub fn tip(&self) -> &Interned<Block> {
        &self.entries[self.tip as usize].block
    }

    /// Height of the best tip.
    pub fn height(&self) -> u64 {
        self.tip().height
    }

    /// Total number of accepted blocks (including stale forks).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the view holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accepts a block whose parent is already known. Returns `true` if
    /// the best tip changed (chain extension or reorg).
    ///
    /// # Panics
    ///
    /// Panics if the parent is unknown (buffer orphans at the caller) or
    /// the block is a duplicate.
    pub fn accept(&mut self, block: Interned<Block>) -> bool {
        let parent = block
            .parent
            .expect("only genesis lacks a parent; accept() is for mined blocks");
        let parent_work = self.work_of(parent).expect("parent must be accepted first");
        let at = u32::try_from(self.entries.len()).expect("a view holds fewer than 2^32 blocks");
        let id = block.id;
        let hash_map::Entry::Vacant(slot) = self.index.entry(id) else {
            panic!("duplicate block {id:?}");
        };
        slot.insert(at);
        let work = parent_work + block.difficulty.max(0.0);
        self.entries.push(Entry { block, work });
        // Most cumulative work, first-seen wins ties (strictly greater).
        if work > self.tip_work {
            (self.tip, self.tip_id, self.tip_work) = (at, id, work);
            true
        } else {
            false
        }
    }

    /// Cumulative work of the current best tip.
    pub fn tip_work(&self) -> f64 {
        self.tip_work
    }

    /// Cumulative work from genesis to `id`, if accepted.
    pub fn work_of(&self, id: BlockId) -> Option<f64> {
        self.entry(id).map(|e| e.work)
    }

    /// Positions in `entries` of the best chain, tip first.
    fn best_positions(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(self.tip as usize), |&at| {
            self.entries[at]
                .block
                .parent
                .map(|p| self.index[&p] as usize)
        })
    }

    /// Iterates the best chain from the tip back to genesis.
    pub fn best_chain(&self) -> Vec<&Interned<Block>> {
        self.best_positions()
            .map(|at| &self.entries[at].block)
            .collect()
    }

    /// Ids of blocks not on the best chain (stale/orphaned forks), in
    /// ascending id order.
    pub fn stale_blocks(&self) -> Vec<BlockId> {
        let mut on_chain = vec![false; self.entries.len()];
        for at in self.best_positions() {
            on_chain[at] = true;
        }
        let mut stale: Vec<BlockId> = self
            .entries
            .iter()
            .zip(on_chain)
            .filter(|(_, on)| !on)
            .map(|(e, _)| e.block.id)
            .collect();
        stale.sort_unstable();
        stale
    }

    /// Fraction of accepted blocks that are stale (excluding genesis).
    pub fn stale_rate(&self) -> f64 {
        let total = self.entries.len().saturating_sub(1);
        if total == 0 {
            return 0.0;
        }
        self.stale_blocks().len() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn mk(id: u64, parent: BlockId, height: u64) -> Interned<Block> {
        mk_d(id, parent, height, 1.0)
    }

    fn mk_d(id: u64, parent: BlockId, height: u64, difficulty: f64) -> Interned<Block> {
        Interned::new(Block {
            id: BlockId(id),
            parent: Some(parent),
            height,
            miner: 0,
            mined_at: SimTime::from_secs(height as f64),
            txs: Vec::new(),
            size_bytes: 100,
            difficulty,
        })
    }

    #[test]
    fn accepts_linear_chain() {
        let g = Block::genesis(1.0);
        let mut v = ChainView::new(g.clone());
        assert!(v.accept(mk(1, g.id, 1)));
        assert!(v.accept(mk(2, BlockId(1), 2)));
        assert_eq!(v.height(), 2);
        assert_eq!(v.best_chain().len(), 3);
        assert_eq!(v.stale_rate(), 0.0);
    }

    #[test]
    fn fork_resolution_prefers_first_seen_then_longer() {
        let g = Block::genesis(1.0);
        let mut v = ChainView::new(g.clone());
        v.accept(mk(1, g.id, 1));
        // Competing block at the same height does not displace the tip.
        assert!(!v.accept(mk(2, g.id, 1)));
        assert_eq!(v.tip().id, BlockId(1));
        // Extending the competitor triggers a reorg.
        assert!(v.accept(mk(3, BlockId(2), 2)));
        assert_eq!(v.tip().id, BlockId(3));
        assert_eq!(v.stale_blocks(), vec![BlockId(1)]);
        assert!((v.stale_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn best_chain_runs_from_tip_to_genesis() {
        let g = Block::genesis(1.0);
        let mut v = ChainView::new(g.clone());
        let mut parent = g.id;
        for h in 1..=10 {
            v.accept(mk(h, parent, h));
            parent = BlockId(h);
        }
        let chain = v.best_chain();
        assert_eq!(chain.len(), 11);
        assert_eq!(chain[0].id, BlockId(10));
        assert_eq!(chain[6].id, BlockId(4));
        assert_eq!(chain[10].id, g.id);
    }

    #[test]
    fn fork_choice_follows_work_not_height() {
        let g = Block::genesis(1.0);
        let mut v = ChainView::new(g.clone());
        // A two-block low-difficulty branch...
        v.accept(mk_d(1, g.id, 1, 1.0));
        v.accept(mk_d(2, BlockId(1), 2, 1.0));
        assert_eq!(v.tip().id, BlockId(2));
        // ...loses to a single block carrying more total work.
        assert!(v.accept(mk_d(3, g.id, 1, 5.0)));
        assert_eq!(v.tip().id, BlockId(3));
        assert_eq!(v.height(), 1, "the work winner is shorter");
        assert!(v.work_of(BlockId(3)).unwrap() > v.work_of(BlockId(2)).unwrap());
    }

    #[test]
    #[should_panic(expected = "parent must be accepted first")]
    fn orphan_rejected() {
        let g = Block::genesis(1.0);
        let mut v = ChainView::new(g);
        v.accept(mk(5, BlockId(99), 1));
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn duplicate_rejected() {
        let g = Block::genesis(1.0);
        let mut v = ChainView::new(g.clone());
        v.accept(mk(1, g.id, 1));
        v.accept(mk(1, g.id, 1));
    }

    /// The view as it was kept before its single index: blocks in a
    /// `BTreeMap` by id, cumulative work in a `HashMap`, the tip as an id.
    /// (It also kept an arrival-time map, which nothing read.)
    struct MapView {
        blocks: BTreeMap<BlockId, Interned<Block>>,
        work: HashMap<BlockId, f64>,
        tip: BlockId,
    }

    impl MapView {
        fn new(genesis: Interned<Block>) -> Self {
            let tip = genesis.id;
            MapView {
                work: HashMap::from([(tip, genesis.difficulty.max(0.0))]),
                blocks: BTreeMap::from([(tip, genesis)]),
                tip,
            }
        }

        fn accept(&mut self, block: Interned<Block>) -> bool {
            let id = block.id;
            let cumulative = self.work[&block.parent.unwrap()] + block.difficulty.max(0.0);
            self.blocks.insert(id, block);
            self.work.insert(id, cumulative);
            let moved = cumulative > self.work[&self.tip];
            if moved {
                self.tip = id;
            }
            moved
        }

        fn best_chain(&self) -> Vec<BlockId> {
            let mut out = Vec::new();
            let mut cur = Some(self.tip);
            while let Some(id) = cur {
                out.push(id);
                cur = self.blocks[&id].parent;
            }
            out
        }

        fn stale_blocks(&self) -> Vec<BlockId> {
            let main = self.best_chain();
            self.blocks
                .keys()
                .filter(|id| !main.contains(id))
                .copied()
                .collect()
        }
    }

    #[test]
    fn index_view_matches_the_map_view() {
        use decent_sim::rng::rng_from_seed;
        use rand::Rng as _;
        // Zero and negative difficulties count as no work, so equal-work
        // forks (first seen keeps the tip) are common.
        const DIFFICULTIES: [f64; 6] = [1.0, 1.0, 0.5, 2.0, 0.0, -1.0];
        for seed in 0..60 {
            let mut rng = rng_from_seed(seed);
            let g = Block::genesis(DIFFICULTIES[seed as usize % 4]);
            let mut view = ChainView::new(g.clone());
            let mut model = MapView::new(g.clone());
            let mut accepted = vec![g];
            for step in 0..300 {
                // Mostly extend the tip or a recent block (long forks and
                // reorgs), sometimes any block (short forks deep down).
                let parent = match rng.gen_range(0..4) {
                    0 => view.tip().clone(),
                    1 | 2 => {
                        let recent = accepted.len().saturating_sub(8);
                        accepted[rng.gen_range(recent..accepted.len())].clone()
                    }
                    _ => accepted[rng.gen_range(0..accepted.len())].clone(),
                };
                // Random ids, so acceptance order is not id order.
                let id = loop {
                    let id = BlockId(rng.gen_range(1..1u64 << 20));
                    if !model.blocks.contains_key(&id) {
                        break id;
                    }
                };
                let block = mk_d(
                    id.0,
                    parent.id,
                    parent.height + 1,
                    DIFFICULTIES[rng.gen_range(0..DIFFICULTIES.len())],
                );
                accepted.push(block.clone());
                let ctx = format!("seed {seed} step {step}");
                assert_eq!(view.accept(block.clone()), model.accept(block), "{ctx}");
                assert_eq!(view.tip().id, model.tip, "{ctx}");
                assert_eq!(view.height(), model.blocks[&model.tip].height, "{ctx}");
                assert_eq!(view.tip_work(), model.work[&model.tip], "{ctx}");
                let chain: Vec<BlockId> = view.best_chain().iter().map(|b| b.id).collect();
                assert_eq!(chain, model.best_chain(), "{ctx}");
                assert_eq!(view.stale_blocks(), model.stale_blocks(), "{ctx}");
                assert_eq!(view.len(), model.blocks.len(), "{ctx}");
                let probe = accepted[rng.gen_range(0..accepted.len())].id;
                assert_eq!(
                    view.work_of(probe),
                    model.work.get(&probe).copied(),
                    "{ctx}"
                );
                assert_eq!(view.work_of(id), model.work.get(&id).copied(), "{ctx}");
                let absent = BlockId(1 << 21 | step as u64);
                assert!(!view.contains(absent) && view.work_of(absent).is_none());
                assert_eq!(view.get(probe), model.blocks.get(&probe), "{ctx}");
                // The cached tip is what a reorg can leave stale: ask
                // about the tip and its parent, which both sides of the
                // tip check answer.
                let tip_parent = model.blocks[&model.tip].parent;
                assert!(view.is_tip(model.tip), "{ctx}");
                assert!(tip_parent.is_none_or(|p| !view.is_tip(p)), "{ctx}");
                for id in [Some(model.tip), tip_parent].into_iter().flatten() {
                    assert_eq!(view.get(id), model.blocks.get(&id), "{ctx}");
                    assert!(view.contains(id), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn two_maps_hash_one_id_differently() {
        let (a, b) = (IdHasher::default(), IdHasher::default());
        for id in [BlockId(0), BlockId(1), BlockId(7 << 40 | 3)] {
            assert_ne!(a.hash_one(id), b.hash_one(id), "{id:?}");
            assert_eq!(a.hash_one(id), a.clone().hash_one(id), "{id:?}");
        }
    }
}
