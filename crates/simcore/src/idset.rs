//! A set of `u64` ids kept as a paged bitmap.
//!
//! The ids that protocol handlers dedupe or count on every delivery —
//! flood query ids, request ids, replica indices, file ids — are issued
//! densely by whoever drives the run, so a bitmap answers `insert` and
//! `contains` with one shift and one mask where a `HashSet` hashes the
//! id under SipHash first. [`IdSet`] stores that bitmap in 512-bit pages
//! (`[u64; 8]`), one page per `id / 512` that holds a member, in a
//! `BTreeMap` keyed by page number:
//!
//! - **Any `u64` is a valid id.** Nothing assumes the ids start at zero
//!   or stay in one range: E19 submits three ranges 2^20 apart, and a
//!   test floods ids 0..40 and 1 000..1 040. Each range costs pages for
//!   the ids it holds, not for the gap before it.
//! - **Memory is O(members).** A page exists only while it holds a
//!   member, so a set of `m` ids has at most `m` pages: `insert(u64::MAX)`
//!   into an empty set allocates one page, not 2^58 words.
//! - **Iteration is ascending.** The pages are visited in key order and
//!   each page's bits from low to high, so nothing here depends on a
//!   hasher and the determinism rules (DESIGN §4e) need no exemption.

use std::collections::BTreeMap;
use std::fmt;

/// Bits per page.
const PAGE_BITS: u64 = 512;
/// Words per page.
const WORDS: usize = (PAGE_BITS / 64) as usize;

/// A set of `u64` ids: a drop-in for `HashSet<u64>` on dense ids, with
/// memory bounded by the number of members (see the module docs).
///
/// # Examples
///
/// ```
/// use decent_sim::prelude::*;
///
/// let mut seen = IdSet::new();
/// assert!(seen.insert(7));
/// assert!(!seen.insert(7));
/// assert!(seen.insert(u64::MAX));
/// assert!(seen.contains(7) && !seen.contains(8));
/// assert_eq!(seen.iter().collect::<Vec<_>>(), [7, u64::MAX]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct IdSet {
    /// Page number (`id / 512`) to its bits; no page is ever all zero,
    /// so derived equality is set equality.
    pages: BTreeMap<u64, [u64; WORDS]>,
    len: usize,
}

/// The page number, word index and bit mask of `id`.
fn locate(id: u64) -> (u64, usize, u64) {
    (
        id / PAGE_BITS,
        (id % PAGE_BITS / 64) as usize,
        1 << (id % 64),
    )
}

impl IdSet {
    /// An empty set; allocates nothing until the first insert.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Adds `id`; returns whether it was not already a member.
    pub fn insert(&mut self, id: u64) -> bool {
        let (page, word, bit) = locate(id);
        let w = &mut self.pages.entry(page).or_insert([0; WORDS])[word];
        let fresh = *w & bit == 0;
        *w |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: u64) -> bool {
        let (page, word, bit) = locate(id);
        self.pages.get(&page).is_some_and(|p| p[word] & bit != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.iter().flat_map(|(&page, words)| {
            (0..WORDS).flat_map(move |w| {
                let base = page * PAGE_BITS + w as u64 * 64;
                let mut bits = words[w];
                std::iter::from_fn(move || {
                    let low = bits.trailing_zeros();
                    (low < 64).then(|| {
                        bits &= bits - 1;
                        base + u64::from(low)
                    })
                })
            })
        })
    }
}

impl fmt::Debug for IdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u64> for IdSet {
    fn from_iter<I: IntoIterator<Item = u64>>(ids: I) -> Self {
        let mut set = IdSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::Rng;

    use super::*;
    use crate::rng::rng_from_seed;

    /// One id from a mix of the shapes callers use: dense runs from 0,
    /// runs 2^20 apart, the extremes, and repeats of earlier ids.
    fn draw(rng: &mut impl Rng, earlier: &[u64]) -> u64 {
        match rng.gen_range(0..6) {
            0 => rng.gen_range(0..2_000u64),
            1 => (rng.gen_range(1..4u64) << 20) + rng.gen_range(0..1_500u64),
            2 => 0,
            3 => u64::MAX - rng.gen_range(0..3u64),
            4 => rng.gen(),
            _ if !earlier.is_empty() => earlier[rng.gen_range(0..earlier.len())],
            _ => 511,
        }
    }

    #[test]
    fn behaves_like_a_btreeset_under_random_inserts_and_probes() {
        for seed in 0..64 {
            let mut rng = rng_from_seed(seed);
            let mut set = IdSet::new();
            let mut model = BTreeSet::new();
            let mut earlier = Vec::new();
            for step in 0..600 {
                let id = draw(&mut rng, &earlier);
                if rng.gen_bool(0.6) {
                    assert_eq!(set.insert(id), model.insert(id), "seed {seed} step {step}");
                    earlier.push(id);
                }
                let probe = draw(&mut rng, &earlier);
                assert_eq!(
                    set.contains(probe),
                    model.contains(&probe),
                    "seed {seed} step {step} id {probe}"
                );
                assert_eq!(set.contains(id), model.contains(&id));
                assert_eq!(set.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(set.is_empty(), model.is_empty());
            }
            assert!(set.iter().eq(model.iter().copied()), "seed {seed}");
            assert_eq!(set, model.iter().copied().collect::<IdSet>());
        }
    }

    #[test]
    fn page_and_word_edges() {
        let edges = [0, 63, 64, 511, 512, 513, 1 << 20, u64::MAX - 1, u64::MAX];
        let set: IdSet = edges.iter().copied().collect();
        assert_eq!(set.len(), edges.len());
        assert!(set.iter().eq(edges.iter().copied()));
        for absent in [1, 62, 65, 510, 514, (1 << 20) - 1, u64::MAX - 2] {
            assert!(!set.contains(absent), "{absent}");
        }
        assert_eq!(format!("{:?}", IdSet::from_iter([3, 1])), "{1, 3}");
    }

    #[test]
    fn memory_is_bounded_by_members_not_by_the_largest_id() {
        let mut one = IdSet::new();
        assert!(one.insert(u64::MAX));
        assert_eq!(one.pages.len(), 1);

        let step = u64::MAX / 999;
        let spread: IdSet = (0..1_000).map(|i| i * step).collect();
        assert_eq!(spread.len(), 1_000);
        assert!(spread.pages.len() <= 1_000, "{} pages", spread.pages.len());
        let mut rng = rng_from_seed(7);
        let random: IdSet = (0..1_000).map(|_| rng.gen::<u64>()).collect();
        assert!(random.pages.len() <= 1_000, "{} pages", random.pages.len());
        // Dense ids share pages: 1 000 consecutive ids fill at most three.
        let dense: IdSet = (5_000..6_000).collect();
        assert!(dense.pages.len() <= 3);
    }

    #[test]
    fn equality_is_set_equality_whatever_the_insert_order() {
        let a: IdSet = [9, 1 << 40, 0, 700].into_iter().collect();
        let b: IdSet = [700, 0, 9, 9, 1 << 40].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, [9, 0, 700].into_iter().collect::<IdSet>());
    }
}
