//! Vertical transaction-id representations and the vertical engine.
//!
//! Three layers live here:
//!
//! * [`TidSet`] — a word-packed `u64` bitset with popcount intersection
//!   counting and an early-aborting bounded variant;
//! * [`TidList`] — a *hybrid* TID set that stores sparse sets (fewer than
//!   one TID per [`SPARSE_FACTOR`] transactions) as sorted `u32` arrays
//!   and everything denser as a [`TidSet`], choosing the representation
//!   per set so memory tracks density instead of database size;
//! * `ItemLists`, [`TriangularC2`] and `mine_vertical_levels` — the
//!   vertical engine behind the `bitmap` counting strategy. Pass 2 counts
//!   the post-filter C₂ in whichever of two ways costs less
//!   (`Pass2::choose`): bounded pair joins over the frequent items'
//!   lists, or one streaming scan of the encoded transactions through a
//!   triangular array indexed by item-pair rank (built after the KC+
//!   filters, so removed pairs never occupy a counter). Deeper passes run
//!   an equivalence-class DFS over the same lists, joined by bounded
//!   popcount / merge intersections.
//!
//! Every path is exact: the engine produces the same itemsets and
//! supports as horizontal Apriori counting, bit for bit, at any thread
//! count and by either pass-2 method. Memory for materialised lists is
//! *tracked* against the run's [`MemoryBudget`] (feeding the peak
//! watermark) but never changes the output — the vertical engine is a
//! counting backend, not a lossy approximation.

use crate::item::{ItemId, TransactionSet};
use crate::result::FrequentItemset;
use crate::robust;
use geopattern_par::{
    try_par_map, try_par_map_reduce, ApproxBytes, CancelToken, Grain, Interrupt,
    MemoryBudget, Threads,
};

/// A transaction-id set as a packed bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TidSet {
    words: Vec<u64>,
}

impl TidSet {
    /// Empty set sized for `n` transactions.
    pub fn new(n: usize) -> TidSet {
        TidSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Marks transaction `tid`.
    pub fn insert(&mut self, tid: usize) {
        self.words[tid / 64] |= 1u64 << (tid % 64);
    }

    /// True when `tid` is present.
    pub fn contains(&self, tid: usize) -> bool {
        self.words
            .get(tid / 64)
            .map(|w| w & (1u64 << (tid % 64)) != 0)
            .unwrap_or(false)
    }

    /// Cardinality (the itemset's support).
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Intersection with `other`.
    pub fn intersect(&self, other: &TidSet) -> TidSet {
        TidSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Cardinality of the intersection with `other` if it reaches `min`,
    /// else `None` — aborting the word-wise scan as soon as the population
    /// count so far plus every remaining bit cannot reach `min`. Support
    /// checks fail far more often than they pass deep in the search, so
    /// the abort usually fires within a few words without materialising
    /// the joined set.
    pub fn intersection_count_bounded(&self, other: &TidSet, min: u64) -> Option<u64> {
        let n = self.words.len().min(other.words.len());
        let mut count = 0u64;
        let mut remaining = 64 * n as u64;
        for k in 0..n {
            remaining -= 64;
            count += (self.words[k] & other.words[k]).count_ones() as u64;
            if count + remaining < min {
                return None;
            }
        }
        (count >= min).then_some(count)
    }
}

impl ApproxBytes for TidSet {
    fn approx_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u64>>()
    }
}

/// Density threshold of the hybrid representation: a set stays sparse
/// while `count * SPARSE_FACTOR < n`. At 32, the sorted-u32 form (4 bytes
/// per TID) is chosen exactly while it is at least 4x smaller than the
/// `n / 8`-byte bitmap.
pub const SPARSE_FACTOR: usize = 32;

#[derive(Debug, Clone, PartialEq, Eq)]
enum TidRepr {
    Dense(TidSet),
    Sparse(Vec<u32>),
}

/// A hybrid TID set over `n` transactions: dense sets are word-packed
/// bitmaps counted by popcount, sparse sets are sorted `u32` arrays
/// walked by merge. The representation is chosen per set (and re-chosen
/// per intersection result) by [`SPARSE_FACTOR`], so a deep, low-support
/// branch costs memory proportional to its support, not to the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TidList {
    n: usize,
    count: u64,
    repr: TidRepr,
}

impl TidList {
    /// Builds from strictly ascending TIDs over `n` transactions,
    /// choosing the representation by density.
    pub fn from_sorted_tids(n: usize, tids: Vec<u32>) -> TidList {
        let count = tids.len() as u64;
        if tids.len().saturating_mul(SPARSE_FACTOR) < n {
            TidList { n, count, repr: TidRepr::Sparse(tids) }
        } else {
            let mut set = TidSet::new(n);
            for &t in &tids {
                set.insert(t as usize);
            }
            TidList { n, count, repr: TidRepr::Dense(set) }
        }
    }

    /// An empty list over `n` transactions that will receive exactly
    /// `support` TIDs through [`TidList::push`], in the representation
    /// [`TidList::from_sorted_tids`] would pick for that many: a sorted
    /// array reserved to its final length, or a zeroed bitmap.
    fn with_support(n: usize, support: u64) -> TidList {
        let repr = if (support as usize).saturating_mul(SPARSE_FACTOR) < n {
            TidRepr::Sparse(Vec::with_capacity(support as usize))
        } else {
            TidRepr::Dense(TidSet::new(n))
        };
        TidList { n, count: support, repr }
    }

    /// Appends `tid`, which must exceed every TID already present.
    fn push(&mut self, tid: u32) {
        match &mut self.repr {
            TidRepr::Dense(set) => set.insert(tid as usize),
            TidRepr::Sparse(tids) => tids.push(tid),
        }
    }

    /// Cardinality — the itemset's support, cached at construction.
    pub fn support(&self) -> u64 {
        self.count
    }

    /// Number of transactions the set is sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// True when stored as a word-packed bitmap.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, TidRepr::Dense(_))
    }

    /// `u64` words held by the dense form (0 when sparse) — the
    /// `mining/bitmap_words` metric.
    pub fn words(&self) -> usize {
        match &self.repr {
            TidRepr::Dense(set) => set.words.len(),
            TidRepr::Sparse(_) => 0,
        }
    }

    /// True when `tid` is present.
    pub fn contains(&self, tid: usize) -> bool {
        match &self.repr {
            TidRepr::Dense(set) => set.contains(tid),
            TidRepr::Sparse(tids) => tids.binary_search(&(tid as u32)).is_ok(),
        }
    }

    /// The member TIDs, ascending.
    pub fn tids(&self) -> Vec<u32> {
        match &self.repr {
            TidRepr::Dense(set) => {
                let mut out = Vec::with_capacity(self.count as usize);
                for (w, &word) in set.words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        out.push((w * 64) as u32 + b);
                        bits &= bits - 1;
                    }
                }
                out
            }
            TidRepr::Sparse(tids) => tids.clone(),
        }
    }

    /// Cardinality of the intersection with `other`.
    pub fn intersection_count(&self, other: &TidList) -> u64 {
        match (&self.repr, &other.repr) {
            (TidRepr::Dense(a), TidRepr::Dense(b)) => a.intersect(b).count(),
            (TidRepr::Sparse(tids), TidRepr::Dense(set))
            | (TidRepr::Dense(set), TidRepr::Sparse(tids)) => {
                tids.iter().filter(|&&t| set.contains(t as usize)).count() as u64
            }
            (TidRepr::Sparse(a), TidRepr::Sparse(b)) => merge_count(a, b),
        }
    }

    /// Cardinality of the intersection with `other` if it reaches `min`,
    /// else `None`, aborting the scan as soon as the count so far plus
    /// every element still unseen cannot reach `min` (the same bound the
    /// dense [`TidSet`] uses, carried to every representation pair).
    pub fn intersection_count_bounded(&self, other: &TidList, min: u64) -> Option<u64> {
        match (&self.repr, &other.repr) {
            (TidRepr::Dense(a), TidRepr::Dense(b)) => a.intersection_count_bounded(b, min),
            (TidRepr::Sparse(tids), TidRepr::Dense(set))
            | (TidRepr::Dense(set), TidRepr::Sparse(tids)) => {
                let mut count = 0u64;
                let mut remaining = tids.len() as u64;
                for &t in tids {
                    if count + remaining < min {
                        return None;
                    }
                    remaining -= 1;
                    if set.contains(t as usize) {
                        count += 1;
                    }
                }
                (count >= min).then_some(count)
            }
            (TidRepr::Sparse(a), TidRepr::Sparse(b)) => {
                let (mut i, mut j) = (0usize, 0usize);
                let mut count = 0u64;
                loop {
                    let remaining = (a.len() - i).min(b.len() - j) as u64;
                    if count + remaining < min {
                        return None;
                    }
                    if i == a.len() || j == b.len() {
                        break;
                    }
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                (count >= min).then_some(count)
            }
        }
    }

    /// Intersection with `other`, re-choosing the result's representation
    /// by its own density.
    pub fn intersect(&self, other: &TidList) -> TidList {
        match (&self.repr, &other.repr) {
            (TidRepr::Dense(a), TidRepr::Dense(b)) => {
                let joined = a.intersect(b);
                let count = joined.count();
                if (count as usize).saturating_mul(SPARSE_FACTOR) < self.n {
                    // Too sparse to keep as words: shrink to the array form.
                    TidList::from_sorted_tids(
                        self.n,
                        TidList { n: self.n, count, repr: TidRepr::Dense(joined) }.tids(),
                    )
                } else {
                    TidList { n: self.n, count, repr: TidRepr::Dense(joined) }
                }
            }
            (TidRepr::Sparse(tids), TidRepr::Dense(set))
            | (TidRepr::Dense(set), TidRepr::Sparse(tids)) => {
                let out: Vec<u32> =
                    tids.iter().copied().filter(|&t| set.contains(t as usize)).collect();
                TidList::from_sorted_tids(self.n, out)
            }
            (TidRepr::Sparse(a), TidRepr::Sparse(b)) => {
                let mut out = Vec::new();
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                TidList::from_sorted_tids(self.n, out)
            }
        }
    }
}

impl ApproxBytes for TidList {
    /// Length-based (not capacity-based) so budget accounting is
    /// deterministic across allocator behaviour and thread counts.
    fn approx_bytes(&self) -> usize {
        let payload = match &self.repr {
            TidRepr::Dense(set) => set.words.len() * std::mem::size_of::<u64>(),
            TidRepr::Sparse(tids) => tids.len() * std::mem::size_of::<u32>(),
        };
        payload + std::mem::size_of::<TidList>()
    }
}

/// Two-pointer cardinality of the intersection of sorted slices.
fn merge_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Sentinel for "no rank" / "no counter": this item is infrequent, or
/// this pair was removed by the KC+ filters before counting.
pub const NO_SLOT: u32 = u32::MAX;

/// The pass-2 kernel: a triangular array of counters indexed by
/// item-pair rank.
///
/// Frequent items get ranks `0..F` in id order; pair `(rᵢ, rⱼ)` with
/// `rᵢ < rⱼ` maps to slot `rᵢ·F − rᵢ(rᵢ+1)/2 + (rⱼ − rᵢ − 1)` of a flat
/// `F(F−1)/2` array. Built *after* the Φ-dependency and same-feature-type
/// filters, filtered pairs hold [`NO_SLOT`] and never occupy (or touch) a
/// counter. One streaming scan over the encoded transactions then counts
/// **all** of C₂: per transaction, project to frequent-item ranks and
/// bump one array cell per surviving pair — no hashing, no trie walk, no
/// per-candidate subset enumeration.
pub struct TriangularC2 {
    /// item id → rank among frequent items, or [`NO_SLOT`].
    rank: Vec<u32>,
    /// Number of frequent items `F`.
    num_ranks: usize,
    /// pair rank → candidate index, or [`NO_SLOT`] for filtered pairs.
    slot: Vec<u32>,
}

impl TriangularC2 {
    /// Builds the kernel for `candidates` (the post-filter C₂, each a
    /// sorted pair of frequent items) over a catalog of `num_items` items
    /// with frequent items `l1` (ascending).
    pub fn new(num_items: usize, l1: &[ItemId], candidates: &[Vec<ItemId>]) -> TriangularC2 {
        let mut rank = vec![NO_SLOT; num_items];
        for (r, &item) in l1.iter().enumerate() {
            rank[item as usize] = r as u32;
        }
        let f = l1.len();
        let mut slot = vec![NO_SLOT; f * f.saturating_sub(1) / 2];
        let kernel = TriangularC2 { rank, num_ranks: f, slot: Vec::new() };
        for (pos, pair) in candidates.iter().enumerate() {
            let ri = kernel.rank[pair[0] as usize] as usize;
            let rj = kernel.rank[pair[1] as usize] as usize;
            slot[Self::tri_index(f, ri, rj)] = pos as u32;
        }
        TriangularC2 { slot, ..kernel }
    }

    /// Flat index of pair `(ri, rj)`, `ri < rj`, in the triangular array.
    fn tri_index(f: usize, ri: usize, rj: usize) -> usize {
        ri * f - ri * (ri + 1) / 2 + (rj - ri - 1)
    }

    /// Counts every surviving pair of `chunk` into `counts` (one cell per
    /// candidate, same order as the `candidates` slice given to
    /// [`TriangularC2::new`]). Transactions are sorted and deduplicated,
    /// so projected ranks are strictly ascending and each unordered pair
    /// is visited exactly once.
    pub fn count_chunk(&self, chunk: &[Vec<ItemId>], counts: &mut [u64]) {
        let f = self.num_ranks;
        let mut ranks: Vec<u32> = Vec::new();
        for t in chunk {
            ranks.clear();
            for &i in t {
                let r = self.rank[i as usize];
                if r != NO_SLOT {
                    ranks.push(r);
                }
            }
            for (i, &ri) in ranks.iter().enumerate() {
                let ri = ri as usize;
                let off = ri * f - ri * (ri + 1) / 2;
                for &rj in &ranks[i + 1..] {
                    let s = self.slot[off + (rj as usize - ri - 1)];
                    if s != NO_SLOT {
                        counts[s as usize] += 1;
                    }
                }
            }
        }
    }
}

/// What [`mine_vertical_levels`] found beyond level 2.
#[derive(Debug, Default)]
pub(crate) struct VerticalOutcome {
    /// Frequent itemsets per level, `levels[0]` holding the 3-sets; each
    /// level lexicographically sorted — the same order horizontal Apriori
    /// emits.
    pub levels: Vec<Vec<FrequentItemset>>,
    /// Extensions whose support was evaluated per level (the vertical
    /// analogue of the candidate count), `attempts_per_level[0]` for k=3.
    pub attempts_per_level: Vec<usize>,
    /// Total `u64` words across the materialised per-item hybrid lists —
    /// the `mining/bitmap_words` metric.
    pub bitmap_words: u64,
}

/// How pass 2 of the vertical engine counts the post-filter C₂.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass2 {
    /// One bounded intersection of the two items' [`TidList`]s per
    /// candidate ([`ItemLists::count_pairs`]).
    Joins,
    /// One streaming scan of the transactions through [`TriangularC2`].
    Scan,
}

impl Pass2 {
    /// The cheaper method for a pass: joins when `join_words` — the words
    /// a dense×dense join of every candidate touches at most,
    /// `|C₂| × ⌈n/64⌉` — is at most `scan_pairs`, the inner-loop steps
    /// the triangular scan would take ([`ItemLists::scan_pairs`]); the
    /// scan otherwise. Both counts are exact properties of the input, so
    /// the pick is deterministic and needs no tuned constant.
    pub(crate) fn choose(join_words: u64, scan_pairs: u64) -> Pass2 {
        if join_words <= scan_pairs {
            Pass2::Joins
        } else {
            Pass2::Scan
        }
    }

    /// The method's name, as recorded under `mining/pass2/<name>`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Pass2::Joins => "joins",
            Pass2::Scan => "scan",
        }
    }
}

/// The hybrid [`TidList`] of every frequent item, indexed like L₁, built
/// in one scan over the transactions. Each list's representation is
/// chosen up front from its pass-1 support by the same rule
/// [`TidList::from_sorted_tids`] applies, so no intermediate TID vector
/// is ever collected. The same scan counts the pass-2 row-scan cost.
#[derive(Debug)]
pub(crate) struct ItemLists {
    /// item id → index into L₁ and `lists`, or [`NO_SLOT`] for an
    /// infrequent item.
    rank: Vec<u32>,
    lists: Vec<TidList>,
    /// `Σ_rows C(k_r, 2)`, `k_r` the frequent items in row `r`.
    scan_pairs: u64,
}

impl ItemLists {
    /// Builds the lists of the frequent items `l1` (ascending 1-sets with
    /// their pass-1 supports).
    pub(crate) fn build(data: &TransactionSet, l1: &[FrequentItemset]) -> ItemLists {
        let n = data.len();
        let mut rank = vec![NO_SLOT; data.catalog.len()];
        for (r, f) in l1.iter().enumerate() {
            rank[f.items[0] as usize] = r as u32;
        }
        let mut lists: Vec<TidList> =
            l1.iter().map(|f| TidList::with_support(n, f.support)).collect();
        let mut scan_pairs = 0u64;
        for (tid, t) in data.transactions().iter().enumerate() {
            let mut k = 0u64;
            for &i in t {
                let r = rank[i as usize];
                if r != NO_SLOT {
                    lists[r as usize].push(tid as u32);
                    k += 1;
                }
            }
            scan_pairs += k * k.saturating_sub(1) / 2;
        }
        ItemLists { rank, lists, scan_pairs }
    }

    /// Inner-loop steps the triangular pass-2 scan takes over these rows:
    /// one per pair of frequent items sharing a row, filtered or not.
    pub(crate) fn scan_pairs(&self) -> u64 {
        self.scan_pairs
    }

    /// Total `u64` words across the dense lists — the
    /// `mining/bitmap_words` metric.
    fn words(&self) -> u64 {
        self.lists.iter().map(|l| l.words() as u64).sum()
    }

    fn list(&self, item: ItemId) -> &TidList {
        &self.lists[self.rank[item as usize] as usize]
    }

    /// Pass 2 by joins: the support of each candidate pair of frequent
    /// items, in candidate order, by a bounded intersection of the two
    /// items' lists. A pair below `threshold` counts 0: its join stops as
    /// soon as the threshold is out of reach. Runs on the pool under the
    /// `mining/apriori.count` stage and fires that fail-point site once
    /// per chunk, like the row scan.
    pub(crate) fn count_pairs(
        &self,
        candidates: &[Vec<ItemId>],
        threshold: u64,
        threads: Threads,
        cancel: &CancelToken,
    ) -> Result<Vec<u64>, Interrupt> {
        let counts = try_par_map_reduce(
            threads,
            Grain::Coarse,
            cancel,
            "mining/apriori.count",
            candidates,
            |_, chunk| {
                robust::fire("mining/apriori.count", cancel);
                chunk
                    .iter()
                    .map(|pair| {
                        self.list(pair[0])
                            .intersection_count_bounded(self.list(pair[1]), threshold)
                            .unwrap_or(0)
                    })
                    .collect::<Vec<u64>>()
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        )?;
        Ok(counts.unwrap_or_default())
    }
}

impl ApproxBytes for ItemLists {
    fn approx_bytes(&self) -> usize {
        self.lists.iter().map(ApproxBytes::approx_bytes).sum()
    }
}

/// L₂ indexed by the rank of each pair's first item — the descent's
/// prune. A join of `yᵢ` and `yⱼ` can only be frequent when `{yᵢ, yⱼ}` is
/// a frequent pair, and a pair the KC/KC+ filters removed from C₂ is
/// never in L₂, so one lookup here both filters and prunes.
struct FrequentPairs<'a> {
    rank: &'a [u32],
    /// Pairs whose first item has rank `r`, ascending by second item.
    by_first: Vec<&'a [FrequentItemset]>,
}

impl FrequentPairs<'_> {
    fn contains(&self, a: ItemId, b: ItemId) -> bool {
        self.by_first[self.rank[a as usize] as usize]
            .binary_search_by_key(&b, |pair| pair.items[1])
            .is_ok()
    }
}

/// Mines every frequent itemset of size ≥ 3 from the frequent items'
/// `lists` and the frequent post-filter pairs `l2` by equivalence-class
/// DFS over materialised hybrid [`TidList`]s. A join is attempted only
/// when its two new items form a pair in `l2`, so the KC/KC+ filters
/// carry over without being consulted again.
///
/// Classes (one per first item of an `l2` pair) are independent, so they
/// fan out on the pool; per-class results are merged in item order and
/// each output level is sorted lexicographically, so the output — and
/// every metric derived from it — is identical at any thread count.
///
/// Memory is tracked on `budget` by this (the calling) thread only: the
/// per-item lists for the whole descent, plus the largest peak any one
/// class reports — what a serial run would hold at once. Workers never
/// touch the shared budget, so its peak does not depend on scheduling.
/// The budget never rejects work: the vertical engine is an exact
/// counting backend.
pub(crate) fn mine_vertical_levels(
    lists: &ItemLists,
    l2: &[FrequentItemset],
    threshold: u64,
    threads: Threads,
    cancel: &CancelToken,
    budget: &MemoryBudget,
) -> Result<VerticalOutcome, Interrupt> {
    let mut outcome = VerticalOutcome::default();
    if l2.is_empty() {
        return Ok(outcome);
    }
    outcome.bitmap_words = lists.words();

    // Group `l2` (lexicographic) into equivalence classes by first item.
    let mut classes: Vec<(ItemId, &[FrequentItemset])> = Vec::new();
    let mut start = 0usize;
    while start < l2.len() {
        let root = l2[start].items[0];
        let mut end = start + 1;
        while end < l2.len() && l2[end].items[0] == root {
            end += 1;
        }
        classes.push((root, &l2[start..end]));
        start = end;
    }
    let mut l2_pairs =
        FrequentPairs { rank: &lists.rank, by_first: vec![&l2[..0]; lists.lists.len()] };
    for &(root, class) in &classes {
        l2_pairs.by_first[lists.rank[root as usize] as usize] = class;
    }

    struct ClassResult {
        found: Vec<FrequentItemset>,
        attempts: Vec<usize>,
        /// Most bytes the class held at once: its members plus the
        /// deepest chain of nested classes.
        peak_bytes: usize,
    }

    let lists_bytes = lists.approx_bytes();
    let _ = budget.reserve(lists_bytes);
    let per_class = try_par_map(
        threads,
        cancel,
        "mining/apriori.vertical",
        &classes,
        |_, &(root, pairs)| {
            let mut res = ClassResult { found: Vec::new(), attempts: Vec::new(), peak_bytes: 0 };
            if pairs.len() < 2 {
                return res; // nothing to join: no 3-set can form here
            }
            // Materialise the class members. Supports come from the
            // pass-2 counts carried in `l2` — never recounted.
            let members: Vec<(ItemId, TidList)> = pairs
                .iter()
                .map(|pair| {
                    let z = pair.items[1];
                    (z, lists.list(root).intersect(lists.list(z)))
                })
                .collect();
            let member_bytes: usize = members.iter().map(|(_, t)| t.approx_bytes()).sum();
            let mut prefix = vec![root];
            let nested = extend_class(
                &members,
                &mut prefix,
                0,
                threshold,
                &l2_pairs,
                &mut res.attempts,
                &mut res.found,
            );
            res.peak_bytes = member_bytes + nested;
            res
        },
    );
    // Account the worst class the way a serial run would hold it: on top
    // of the per-item lists, one class at a time.
    if let Ok(results) = &per_class {
        let class_peak = results.iter().map(|r| r.peak_bytes).max().unwrap_or(0);
        let _ = budget.reserve(class_peak);
        budget.release(class_peak);
    }
    budget.release(lists_bytes);

    // Deterministic merge in class (item) order.
    let mut found: Vec<FrequentItemset> = Vec::new();
    for res in per_class? {
        for (depth, &attempts) in res.attempts.iter().enumerate() {
            if outcome.attempts_per_level.len() <= depth {
                outcome.attempts_per_level.push(0);
            }
            outcome.attempts_per_level[depth] += attempts;
        }
        found.extend(res.found);
    }

    // Group by size; DFS from sorted pairs is already lexicographic per
    // level, the sort is a cheap invariant guarantee.
    let max_k = found.iter().map(|f| f.items.len()).max().unwrap_or(2);
    let mut levels: Vec<Vec<FrequentItemset>> = vec![Vec::new(); max_k.saturating_sub(2)];
    for f in found {
        let k = f.items.len();
        levels[k - 3].push(f);
    }
    for level in &mut levels {
        level.sort_by(|a, b| a.items.cmp(&b.items));
    }
    outcome.levels = levels;
    Ok(outcome)
}

/// One DFS step: joins every ordered member pair `(yᵢ, yⱼ)` of the class
/// into the candidate class `prefix ∪ {yᵢ}`, emits the frequent results
/// and recurses. Returns the most bytes its nested classes held at once.
///
/// The only pair check needed is `{yᵢ, yⱼ} ∈ L₂`: by induction, every
/// pair inside `prefix ∪ {yᵢ}` is a frequent unfiltered pair (a subset
/// of a frequent itemset the search emitted), and so is `(p, yⱼ)` for
/// `p ∈ prefix`, since `yⱼ` entered the *current* class.
fn extend_class(
    members: &[(ItemId, TidList)],
    prefix: &mut Vec<ItemId>,
    depth: usize,
    threshold: u64,
    pairs: &FrequentPairs,
    attempts: &mut Vec<usize>,
    out: &mut Vec<FrequentItemset>,
) -> usize {
    if attempts.len() <= depth {
        attempts.push(0);
    }
    let mut peak = 0usize;
    for (i, (yi, ti)) in members.iter().enumerate() {
        let mut new_members: Vec<(ItemId, TidList)> = Vec::new();
        let mut new_bytes = 0usize;
        for (yj, tj) in &members[i + 1..] {
            if !pairs.contains(*yi, *yj) {
                continue;
            }
            attempts[depth] += 1;
            // Bounded count first: most joins fail the support check, and
            // the bound aborts without materialising.
            let Some(support) = ti.intersection_count_bounded(tj, threshold) else {
                continue;
            };
            let mut items = prefix.clone();
            items.push(*yi);
            items.push(*yj);
            out.push(FrequentItemset { items, support });
            let joined = ti.intersect(tj);
            new_bytes += joined.approx_bytes();
            new_members.push((*yj, joined));
        }
        if new_members.len() >= 2 {
            prefix.push(*yi);
            let nested =
                extend_class(&new_members, prefix, depth + 1, threshold, pairs, attempts, out);
            prefix.pop();
            peak = peak.max(new_bytes + nested);
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemCatalog;

    fn list(n: usize, tids: &[u32]) -> TidList {
        TidList::from_sorted_tids(n, tids.to_vec())
    }

    #[test]
    fn tidset_basics() {
        let mut s = TidSet::new(130);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.count(), 4);
        assert!(s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        let mut t = TidSet::new(130);
        t.insert(64);
        t.insert(129);
        t.insert(5);
        let i = s.intersect(&t);
        assert_eq!(i.count(), 2);
        assert!(i.contains(64) && i.contains(129));
    }

    #[test]
    fn bounded_intersection_count_matches_exact() {
        // Exhaustive check over deterministic pseudo-random sets: the
        // bounded count must return Some(exact) iff exact >= min.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 63, 64, 65, 200, 640] {
            let mut a = TidSet::new(n);
            let mut b = TidSet::new(n);
            for tid in 0..n {
                if next() % 3 == 0 {
                    a.insert(tid);
                }
                if next() % 2 == 0 {
                    b.insert(tid);
                }
            }
            let exact = a.intersect(&b).count();
            for min in [0, 1, exact.saturating_sub(1), exact, exact + 1, exact + 64, u64::MAX] {
                let got = a.intersection_count_bounded(&b, min);
                if exact >= min {
                    assert_eq!(got, Some(exact), "n={n} min={min}");
                } else {
                    assert_eq!(got, None, "n={n} min={min}");
                }
            }
        }
    }

    /// Rows of the four items 0..4 given as bitmasks, and their L1.
    fn masked_rows(masks: &[u32]) -> (TransactionSet, Vec<FrequentItemset>) {
        let mut c = ItemCatalog::new();
        for l in ["a", "b", "c", "d"] {
            c.intern_attribute(l);
        }
        let mut ts = TransactionSet::new(c);
        for &m in masks {
            ts.push((0..4u32).filter(|&i| m >> i & 1 == 1).collect());
        }
        let l1 = (0..4u32)
            .map(|i| FrequentItemset {
                items: vec![i],
                support: masks.iter().filter(|&&m| m >> i & 1 == 1).count() as u64,
            })
            .collect();
        (ts, l1)
    }

    #[test]
    fn pass2_rule_picks_joins_up_to_the_scan_cost() {
        // Rows of 4, 3, 2, 1 and 0 frequent items: 6 + 3 + 1 + 0 + 0
        // inner-loop steps of the triangular scan.
        let (ts, l1) = masked_rows(&[0b1111, 0b0111, 0b0011, 0b0001, 0]);
        let lists = ItemLists::build(&ts, &l1);
        assert_eq!(lists.scan_pairs(), 10);
        // Five rows fit one word, so join_words = |C₂|. Ten candidates
        // cost exactly the scan: joins. One word more: the scan.
        assert_eq!(Pass2::choose(10, lists.scan_pairs()), Pass2::Joins);
        assert_eq!(Pass2::choose(11, lists.scan_pairs()), Pass2::Scan);
        assert_eq!(Pass2::choose(0, 0), Pass2::Joins);
        assert_eq!(Pass2::choose(1, 0), Pass2::Scan);
        assert_eq!([Pass2::Joins.name(), Pass2::Scan.name()], ["joins", "scan"]);
        // An infrequent item does not count toward the scan: drop item 3
        // from L1 and the 4-item row costs 3 steps, the 3-item row 3.
        let lists = ItemLists::build(&ts, &l1[..3]);
        assert_eq!(lists.scan_pairs(), 3 + 3 + 1);
    }

    #[test]
    fn pair_joins_count_exactly_what_the_scan_counts() {
        let masks: Vec<u32> = (0..200u32).map(|t| (t * 7 + t / 3) % 16).collect();
        let (ts, l1) = masked_rows(&masks);
        let lists = ItemLists::build(&ts, &l1);
        let mut candidates = Vec::new();
        for i in 0..4u32 {
            for j in (i + 1)..4u32 {
                candidates.push(vec![i, j]);
            }
        }
        let kernel = TriangularC2::new(4, &[0, 1, 2, 3], &candidates);
        let mut scanned = vec![0u64; candidates.len()];
        kernel.count_chunk(ts.transactions(), &mut scanned);
        for threshold in [1u64, 30, 50, 201] {
            for threads in [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)] {
                let joined = lists
                    .count_pairs(&candidates, threshold, threads, &CancelToken::none())
                    .expect("uncontrolled joins");
                // At or above the threshold the two agree exactly; below
                // it a bounded join reports 0.
                let expect: Vec<u64> =
                    scanned.iter().map(|&c| if c >= threshold { c } else { 0 }).collect();
                assert_eq!(joined, expect, "threshold {threshold} at {threads:?}");
            }
        }
    }

    #[test]
    fn hybrid_chooses_representation_by_density() {
        // 3 of 1000: sparse (3 * 32 < 1000).
        assert!(!list(1000, &[1, 500, 999]).is_dense());
        // 40 of 1000: dense (40 * 32 >= 1000).
        let dense = TidList::from_sorted_tids(1000, (0..40).collect());
        assert!(dense.is_dense());
        assert_eq!(dense.words(), 1000usize.div_ceil(64));
        // Tiny database: even one TID is dense.
        assert!(list(10, &[3]).is_dense());
        assert_eq!(list(1000, &[1, 500, 999]).words(), 0);
    }

    #[test]
    fn hybrid_intersections_match_across_representations() {
        let n = 2048;
        let a_tids: Vec<u32> = (0..n as u32).filter(|t| t % 3 == 0).collect(); // dense
        let b_tids: Vec<u32> = (0..n as u32).filter(|t| t % 5 == 0).collect(); // dense
        let c_tids: Vec<u32> = (0..n as u32).filter(|t| t % 97 == 0).collect(); // sparse
        let a = list(n, &a_tids);
        let b = list(n, &b_tids);
        let c = list(n, &c_tids);
        assert!(a.is_dense() && b.is_dense() && !c.is_dense());
        let expect = |x: &[u32], y: &[u32]| x.iter().filter(|t| y.contains(t)).count() as u64;
        for (x, xt, y, yt) in [
            (&a, &a_tids, &b, &b_tids),
            (&a, &a_tids, &c, &c_tids),
            (&c, &c_tids, &a, &a_tids),
            (&c, &c_tids, &c, &c_tids),
        ] {
            let exact = expect(xt, yt);
            assert_eq!(x.intersection_count(y), exact);
            assert_eq!(x.intersect(y).support(), exact);
            assert_eq!(x.intersect(y).tids(), {
                let mut v: Vec<u32> = xt.iter().copied().filter(|t| yt.contains(t)).collect();
                v.sort_unstable();
                v
            });
            for min in [0, exact.saturating_sub(1), exact, exact + 1, u64::MAX] {
                let got = x.intersection_count_bounded(y, min);
                assert_eq!(got, (exact >= min).then_some(exact), "min={min}");
            }
        }
    }

    #[test]
    fn intersect_downgrades_dense_results_to_sparse() {
        let n = 4096;
        // Two dense lists whose overlap is tiny: result must be sparse.
        let a: Vec<u32> = (0..2048).collect();
        let b: Vec<u32> = (2040..4096).collect();
        let (la, lb) = (list(n, &a), list(n, &b));
        assert!(la.is_dense() && lb.is_dense());
        let joined = la.intersect(&lb);
        assert_eq!(joined.support(), 8);
        assert!(!joined.is_dense(), "8 of 4096 must shrink to the array form");
        assert_eq!(joined.tids(), (2040..2048).collect::<Vec<u32>>());
    }

    #[test]
    fn sparse_factor_boundary_pins_representation_re_choice() {
        // The auto policy reasons about density against SPARSE_FACTOR, so
        // the exact boundary is a contract: a set of `count` TIDs over `n`
        // transactions is sparse iff `count * SPARSE_FACTOR < n`.
        let n = 4096;
        let boundary = n / SPARSE_FACTOR; // 128: first dense cardinality
        let below: Vec<u32> = (0..boundary as u32 - 1).collect();
        let at: Vec<u32> = (0..boundary as u32).collect();
        assert!(!list(n, &below).is_dense(), "count*32 < n must stay sparse");
        assert!(list(n, &at).is_dense(), "count*32 == n must go dense");

        // The same boundary governs re-choice after intersection: two
        // dense inputs whose overlap straddles the threshold must land on
        // the matching side.
        let a: Vec<u32> = (0..2048).collect();
        let hi_start = 2048 - boundary as u32;
        let overlap_at = list(n, &a).intersect(&list(n, &(hi_start..4096).collect::<Vec<u32>>()));
        assert_eq!(overlap_at.support(), boundary as u64);
        assert!(overlap_at.is_dense(), "a boundary-sized result must re-choose dense");
        let overlap_below =
            list(n, &a).intersect(&list(n, &(hi_start + 1..4096).collect::<Vec<u32>>()));
        assert_eq!(overlap_below.support(), boundary as u64 - 1);
        assert!(!overlap_below.is_dense(), "one below the boundary must re-choose sparse");
    }

    /// `n` rows holding items 0, 1 and 2 at supports `n/32 − 1`, `n/32`
    /// and `n/32 + 1` (straddling the sparse/dense switch-over) and item
    /// 3 in every row, each item's TIDs spread evenly over the database.
    /// Returns the rows, their L1 and each item's TIDs.
    fn boundary_workload(n: usize) -> (TransactionSet, Vec<FrequentItemset>, Vec<Vec<u32>>) {
        let boundary = n / SPARSE_FACTOR;
        let tids: Vec<Vec<u32>> = [boundary - 1, boundary, boundary + 1, n]
            .iter()
            .map(|&s| (0..s).map(|k| (k * (n / s)) as u32).collect())
            .collect();
        let mut c = ItemCatalog::new();
        for l in ["below", "at", "above", "all"] {
            c.intern_attribute(l);
        }
        let mut ts = TransactionSet::new(c);
        for tid in 0..n as u32 {
            ts.push((0..4u32).filter(|&i| tids[i as usize].binary_search(&tid).is_ok()).collect());
        }
        let l1 = tids
            .iter()
            .enumerate()
            .map(|(i, t)| FrequentItemset { items: vec![i as ItemId], support: t.len() as u64 })
            .collect();
        (ts, l1, tids)
    }

    #[test]
    fn one_scan_lists_match_from_sorted_tids_at_the_boundary() {
        // Multiples of SPARSE_FACTOR, so `n/32` is exactly the first
        // dense support.
        for n in [4096usize, 6400, 64_000] {
            let (ts, l1, tids) = boundary_workload(n);
            let lists = ItemLists::build(&ts, &l1).lists;
            for (item, built) in lists.iter().enumerate() {
                let reference = TidList::from_sorted_tids(n, tids[item].clone());
                assert_eq!(built, &reference, "n={n} item {item}");
                assert_eq!(built.words(), reference.words(), "n={n} item {item}");
            }
            let dense: Vec<bool> = lists.iter().map(TidList::is_dense).collect();
            assert_eq!(dense, [false, true, true, true], "n={n}");
        }
    }

    #[test]
    fn vertical_footprint_bounds_the_one_scan_build() {
        use crate::strategy::WorkloadStats;
        use geopattern_par::MemoryBudget;
        for n in [1usize, 7, 64, 4096, 6400] {
            let mut c = ItemCatalog::new();
            for i in 0..5 {
                c.intern_attribute(format!("i{i}"));
            }
            let mut ts = TransactionSet::new(c);
            for tid in 0..n as u32 {
                // Item i in every 4^i-th row: supports from n down to 1.
                ts.push((0..5u32).filter(|&i| tid % (1 << (2 * i)) == 0).collect());
            }
            let l1: Vec<FrequentItemset> = (0..5u32)
                .map(|i| FrequentItemset {
                    items: vec![i],
                    support: ts.transactions().iter().filter(|t| t.contains(&i)).count() as u64,
                })
                .collect();
            let payload: usize = ItemLists::build(&ts, &l1)
                .lists
                .iter()
                .map(|l| l.approx_bytes() - std::mem::size_of::<TidList>())
                .sum();
            let footprint =
                WorkloadStats::sample(&ts, &MemoryBudget::unlimited()).vertical_footprint();
            assert!(payload <= footprint, "n={n}: lists hold {payload} B, footprint {footprint} B");
        }
    }

    #[test]
    fn triangular_kernel_counts_all_pairs_once() {
        let mut c = ItemCatalog::new();
        for l in ["a", "b", "c", "d", "e"] {
            c.intern_attribute(l);
        }
        let mut ts = TransactionSet::new(c);
        ts.push(vec![0, 1, 2]);
        ts.push(vec![0, 1, 3]);
        ts.push(vec![0, 2, 3]);
        ts.push(vec![1, 2, 4]);
        // Frequent items: all five; candidates: every pair except a
        // "filtered" one, (1,2).
        let l1: Vec<ItemId> = vec![0, 1, 2, 3, 4];
        let mut candidates: Vec<Vec<ItemId>> = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                if (i, j) != (1, 2) {
                    candidates.push(vec![i, j]);
                }
            }
        }
        let kernel = TriangularC2::new(5, &l1, &candidates);
        let mut counts = vec![0u64; candidates.len()];
        kernel.count_chunk(ts.transactions(), &mut counts);
        let count_of = |a: u32, b: u32| {
            counts[candidates.iter().position(|c| c == &vec![a, b]).unwrap()]
        };
        assert_eq!(count_of(0, 1), 2);
        assert_eq!(count_of(0, 2), 2);
        assert_eq!(count_of(0, 3), 2);
        assert_eq!(count_of(1, 3), 1);
        assert_eq!(count_of(2, 4), 1);
        assert_eq!(count_of(3, 4), 0);
        // The filtered pair occupied no counter and disturbed none.
        assert_eq!(counts.len(), 9);
    }

    #[test]
    fn triangular_kernel_chunks_sum_to_whole() {
        let mut c = ItemCatalog::new();
        for i in 0..6 {
            c.intern_attribute(format!("i{i}"));
        }
        let mut ts = TransactionSet::new(c);
        for t in 0..64u32 {
            ts.push((0..6).filter(|&i| (t >> i) & 1 == 1).collect());
        }
        let l1: Vec<ItemId> = (0..6).collect();
        let mut candidates = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6u32 {
                candidates.push(vec![i, j]);
            }
        }
        let kernel = TriangularC2::new(6, &l1, &candidates);
        let mut whole = vec![0u64; candidates.len()];
        kernel.count_chunk(ts.transactions(), &mut whole);
        let mut summed = vec![0u64; candidates.len()];
        for chunk in ts.transactions().chunks(7) {
            kernel.count_chunk(chunk, &mut summed);
        }
        assert_eq!(whole, summed);
        // Each pair appears in exactly 16 of the 64 bitmask transactions.
        assert!(whole.iter().all(|&c| c == 16));
    }
}
