//! Sharing-pair enumeration and the batch seeding kernel.
//!
//! Every candidate gain is a function of exact cardinalities: the
//! overlap `xy` of two rows under a coreset, the row lengths `xe`/`ye`
//! and the coreset frequency `fe`. Scoring pairs one at a time pays an
//! intersection per shared coreset per pair. On a *pristine* database —
//! no merge applied, so every leafset is a singleton and no union row
//! exists — all of those overlaps come out of one counting pass per
//! coreset instead, in the manner of SLIM's co-usage counting
//! (`cspm_itemset::slim`), here used for exact counts:
//!
//! 1. bucket the coreset's row positions by vertex;
//! 2. walk the rows in ascending leafset order; every position of row
//!    `i` bumps a per-row counter for each later leaf `j` sharing that
//!    vertex, which leaves row `i`'s overlap with every later row;
//! 3. fold each `(x, y, e)` term into a per-pair accumulator, indexed
//!    through the [`PairList`].
//!
//! Coresets are walked in ascending id, so every pair's terms are
//! folded in the same order [`GainView`](super::GainView)'s pair-by-pair
//! scoring folds them, with the same expressions: the seed gains are
//! bit-identical to `gain_pruned` / `gain_with`, which the tests check
//! with `f64::to_bits`.
//!
//! Scratch memory is O(sharing pairs) for the accumulators plus
//! O(one coreset's positions) for the buckets — no `attr_count²`
//! square and no per-`(pair, coreset)` list.

use cspm_graph::VertexId;
use cspm_mdl::xlog2x;

use super::{union_items, CoresetId, InvertedDb, LeafsetId};
use crate::config::GainPolicy;
use crate::positions::RowId;

/// The sharing pairs of a database — unordered pairs of live leafsets
/// with a row under at least one common coreset — in CSR form: for
/// every leafset `x`, the sorted partners `y > x`. Iteration yields
/// ascending `(x, y)`, the order [`InvertedDb::sharing_pairs`] returns.
#[derive(Debug, Clone)]
pub struct PairList {
    /// Partners of `x` live at `partners[offsets[x]..offsets[x + 1]]`.
    offsets: Vec<usize>,
    partners: Vec<LeafsetId>,
}

impl PairList {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.partners.len()
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.partners.is_empty()
    }

    /// All pairs `(x, y)`, `x < y`, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (LeafsetId, LeafsetId)> + '_ {
        self.offsets.windows(2).enumerate().flat_map(move |(x, w)| {
            self.partners[w[0]..w[1]]
                .iter()
                .map(move |&y| (x as LeafsetId, y))
        })
    }

    /// Index of the first pair of `x`, and `x`'s sorted partners.
    fn partners_of(&self, x: LeafsetId) -> (usize, &[LeafsetId]) {
        let (lo, hi) = (self.offsets[x as usize], self.offsets[x as usize + 1]);
        (lo, &self.partners[lo..hi])
    }
}

/// Per-pair gains from [`InvertedDb::seed_gains`], aligned with the
/// [`PairList`] they were computed for.
#[derive(Debug, Clone)]
pub struct SeedGains {
    /// One gain per pair, in [`PairList::iter`] order. Pairs the
    /// Algorithm 2 bound dismissed score 0.
    pub gains: Vec<f64>,
    /// How many pairs the bound dismissed without an exact gain.
    pub pruned: u64,
}

/// One pair's running sums, folded coreset by coreset in ascending id.
#[derive(Debug, Clone, Copy, Default)]
struct PairAcc {
    p1: f64,
    p2: f64,
    model_delta: f64,
    bound: f64,
    union_st_cost: f64,
    merged_any: bool,
}

/// Reusable per-coreset buffers of the kernel; each is sized by one
/// coreset's rows or positions and cleared between coresets.
#[derive(Default)]
struct Scratch {
    /// Per row, its positions as indices into the coreset's positions.
    slots: Vec<u32>,
    /// `slots[row_offsets[i]..row_offsets[i + 1]]` belongs to row `i`.
    row_offsets: Vec<usize>,
    /// Bucket of position `k`: `leaves[bucket[k]..bucket[k + 1]]`.
    bucket: Vec<u32>,
    /// Fill cursor, then walk cursor, per bucket.
    head: Vec<u32>,
    /// Local row indices per position, ascending within each bucket.
    leaves: Vec<u32>,
    /// Overlap of the current row with every later row.
    count: Vec<u32>,
    /// `xlog2x(k)` for `k` up to the longest row seen.
    xlog: Vec<f64>,
    /// `xlog2x(fe − k)` for the current coreset's `fe`.
    xlog_rest: Vec<f64>,
}

/// First index `≥ from` whose value is `≥ target` (`s.len()` if none):
/// an exponential probe, then a binary search over the bracketed run.
/// Walking a sorted list of ascending targets this way costs
/// O(log gap) per step, so dense and sparse walks are both cheap.
fn gallop(s: &[u32], from: usize, target: u32) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1usize);
    while hi < s.len() && s[hi] < target {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|&v| v < target)
}

impl InvertedDb {
    /// Enumerates the sharing pairs with one stamp array: for every
    /// leafset `x`, the later members of each of its coresets are
    /// collected once (the stamp dedups partners met under several
    /// coresets) and sorted. Costs O(Σ_e n_e²) for `n_e` rows at
    /// coreset `e`, the number of `(pair, coreset)` sharings.
    pub fn pair_list(&self) -> PairList {
        let members = self.rows_by_coreset();
        let n = self.leafsets.len();
        let mut stamp = vec![LeafsetId::MAX; n];
        let mut offsets = Vec::with_capacity(n + 1);
        let mut partners = Vec::new();
        offsets.push(0);
        for x in 0..n as LeafsetId {
            let start = partners.len();
            for &(e, _) in &self.leafset_rows[x as usize] {
                let ms = members.of(e);
                let later = ms.partition_point(|&(y, _)| y <= x);
                for &(y, _) in &ms[later..] {
                    if stamp[y as usize] != x {
                        stamp[y as usize] = x;
                        partners.push(y);
                    }
                }
            }
            partners[start..].sort_unstable();
            offsets.push(partners.len());
        }
        PairList { offsets, partners }
    }

    /// Scores every pair of `pairs` (this database's own
    /// [`Self::pair_list`]) in one batch — the seeding kernel of the
    /// module docs. Returns `None`, and callers score pair by pair,
    /// when the database is not pristine, when a row holds a vertex
    /// outside its coreset's positions (possible only for rows restored
    /// through [`Self::from_pristine_rows`]), or when `pairs` visibly
    /// belongs to another database.
    ///
    /// With `prune_eps = Some(eps)` the result equals
    /// [`GainView`](super::GainView)'s pruned scoring: under
    /// [`GainPolicy::Total`] a pair whose Algorithm 2 bound is `≤ eps`
    /// scores 0 and counts in [`SeedGains::pruned`]. With `None` every
    /// gain is the exact one. Either way each gain is bit-identical to
    /// the pair-by-pair path.
    pub fn seed_gains(&self, pairs: &PairList, prune_eps: Option<f64>) -> Option<SeedGains> {
        if !self.pristine || pairs.offsets.len() != self.leafsets.len() + 1 {
            return None;
        }
        let total = self.gain_policy == GainPolicy::Total;
        let bound_eps = prune_eps.filter(|_| total);
        let st_cost: Vec<f64> = if total {
            (0..self.leafsets.len() as LeafsetId)
                .map(|l| self.leafset_st_cost(l))
                .collect()
        } else {
            Vec::new()
        };
        let mut acc: Vec<PairAcc> = pairs
            .iter()
            .map(|(x, y)| PairAcc {
                union_st_cost: if total {
                    let items = union_items(&self.leafsets[x as usize], &self.leafsets[y as usize]);
                    self.st.set_cost(items.iter().map(|&a| a as usize))
                } else {
                    0.0
                },
                ..PairAcc::default()
            })
            .collect();

        let by_coreset = self.rows_by_coreset();
        let mut s = Scratch::default();
        for e in 0..self.coresets.len() {
            let rows = by_coreset.of(e as CoresetId);
            let n = rows.len();
            if n < 2 {
                continue;
            }
            if !self.bucket_coreset(e, rows, &mut s) {
                return None;
            }
            let fe = self.coreset_freq[e] as f64;
            let xlog_fe = xlog2x(fe);
            let code_e = self.coresets[e].code_len;
            let row_len = |s: &Scratch, i: usize| s.row_offsets[i + 1] - s.row_offsets[i];
            let longest = (0..n).map(|i| row_len(&s, i)).max().unwrap_or(0);
            // Every xlog2x argument below is an integer-valued float
            // (row lengths, overlaps, `fe − k`), so these tables return
            // the very bits a direct call would.
            for k in s.xlog.len()..=longest {
                s.xlog.push(xlog2x(k as f64));
            }
            s.xlog_rest.clear();
            s.xlog_rest
                .extend((0..=longest).map(|k| xlog2x(fe - k as f64)));
            s.count.clear();
            s.count.resize(n, 0);

            for i in 0..n {
                // Overlaps of row i with every later row: each of its
                // positions heads its bucket (earlier rows advanced
                // past), and the rest of the bucket are later rows.
                for &k in &s.slots[s.row_offsets[i]..s.row_offsets[i + 1]] {
                    let k = k as usize;
                    let h = s.head[k] as usize;
                    debug_assert_eq!(s.leaves[h] as usize, i);
                    s.head[k] += 1;
                    for &j in &s.leaves[h + 1..s.bucket[k + 1] as usize] {
                        s.count[j as usize] += 1;
                    }
                }
                let (x, xe) = (rows[i].0, row_len(&s, i));
                let (base, partners) = pairs.partners_of(x);
                let mut p = 0usize;
                for (j, &(y, _)) in rows.iter().enumerate().skip(i + 1) {
                    let xy = std::mem::take(&mut s.count[j]) as usize;
                    if xy == 0 && bound_eps.is_none() {
                        continue;
                    }
                    let ye = row_len(&s, j);
                    p = gallop(partners, p, y);
                    if partners.get(p) != Some(&y) {
                        return None; // `pairs` is not this database's list
                    }
                    let a = &mut acc[base + p];
                    if bound_eps.is_some() {
                        // GainView::bound, fresh-union-row case.
                        let m = xe.min(ye);
                        let mut ub = xlog_fe - s.xlog_rest[m] + s.xlog[m];
                        ub -= a.union_st_cost + code_e;
                        if xe <= ye {
                            ub += st_cost[x as usize] + code_e;
                        }
                        if ye <= xe {
                            ub += st_cost[y as usize] + code_e;
                        }
                        if ub > 0.0 {
                            a.bound += ub;
                        }
                    }
                    if xy == 0 {
                        continue;
                    }
                    // GainView::exact_gain, fresh-union-row case.
                    a.merged_any = true;
                    a.p1 += xlog_fe - s.xlog_rest[xy];
                    a.p2 +=
                        s.xlog[xe] + s.xlog[ye] - (s.xlog[xe - xy] + s.xlog[ye - xy] + s.xlog[xy]);
                    if total {
                        a.model_delta += a.union_st_cost + code_e;
                        if xy == xe {
                            a.model_delta -= st_cost[x as usize] + code_e;
                        }
                        if xy == ye {
                            a.model_delta -= st_cost[y as usize] + code_e;
                        }
                    }
                }
            }
        }

        let mut pruned = 0u64;
        let gains = acc
            .iter()
            .map(|a| {
                if bound_eps.is_some_and(|eps| a.bound <= eps) {
                    pruned += 1;
                    return 0.0;
                }
                if !a.merged_any {
                    return 0.0;
                }
                let data_gain = a.p1 - a.p2;
                if total {
                    data_gain - a.model_delta
                } else {
                    data_gain
                }
            })
            .collect();
        Some(SeedGains { gains, pruned })
    }

    /// Buckets the positions of coreset `e`'s `rows` (ascending by
    /// leafset) by vertex: after this, `s.leaves[s.bucket[k]..s.bucket[k + 1]]`
    /// lists, ascending, the rows holding the coreset's `k`-th position,
    /// and `s.head` points at each bucket's start. Returns `false` if a
    /// row holds a vertex outside the coreset's positions, which only
    /// rows restored through [`Self::from_pristine_rows`] can.
    fn bucket_coreset(&self, e: usize, rows: &[(LeafsetId, RowId)], s: &mut Scratch) -> bool {
        let at: &[VertexId] = &self.coresets[e].positions;
        s.bucket.clear();
        s.bucket.resize(at.len() + 1, 0);
        s.slots.clear();
        s.row_offsets.clear();
        s.row_offsets.push(0);
        for &(_, row) in rows {
            let positions = self.store.positions(row);
            let mut k = 0usize;
            for &v in positions.iter() {
                k = gallop(at, k, v);
                if at.get(k) != Some(&v) {
                    return false;
                }
                s.slots.push(k as u32);
                s.bucket[k + 1] += 1;
                k += 1;
            }
            s.row_offsets.push(s.slots.len());
        }
        for k in 0..at.len() {
            s.bucket[k + 1] += s.bucket[k];
        }
        s.head.clear();
        s.head.extend_from_slice(&s.bucket[..at.len()]);
        s.leaves.clear();
        s.leaves.resize(s.slots.len(), 0);
        for i in 0..rows.len() {
            for &k in &s.slots[s.row_offsets[i]..s.row_offsets[i + 1]] {
                let h = &mut s.head[k as usize];
                s.leaves[*h as usize] = i as u32;
                *h += 1;
            }
        }
        s.head.copy_from_slice(&s.bucket[..at.len()]);
        true
    }
}

#[cfg(test)]
pub(super) mod tests {
    use std::collections::BTreeSet;

    use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
    use cspm_graph::{AttributedGraph, GraphBuilder};
    use proptest::prelude::*;

    use super::*;
    use crate::config::CoresetMode;
    use crate::engine::GAIN_EPS;
    use crate::inverted::PatchError;
    use crate::positions::PostingPolicy;

    /// A connected random graph: `n` chained vertices carrying one to
    /// three of `k` values, plus `extra` xorshift chords. Large `n`
    /// grows the common values' rows long and dense enough to turn
    /// bitmap; large `k` adds rare values the Algorithm 2 bound prunes.
    pub(crate) fn random_graph(
        n: usize,
        k: usize,
        extra: usize,
        pad: usize,
        seed: u64,
    ) -> AttributedGraph {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            // The min of two draws skews values towards `a0`, so common
            // and globally rare values meet under one coreset.
            let labels: Vec<String> = (0..1 + next() % 3)
                .map(|_| format!("a{}", (next() % k).min(next() % k)))
                .collect();
            b.add_vertex(labels);
        }
        for v in 1..n {
            b.add_edge(v as u32 - 1, v as u32).unwrap();
        }
        for _ in 0..extra {
            let (u, w) = (next() % n, next() % n);
            if u != w {
                let _ = b.add_edge(u as u32, w as u32);
            }
        }
        // A padding chain behind one bridge edge raises every value's
        // standard code length without growing the other coresets.
        let mut prev = 0u32;
        for _ in 0..pad {
            let p = b.add_vertex(["pad"]);
            b.add_edge(prev, p).unwrap();
            prev = p;
        }
        b.build().unwrap()
    }

    /// The `BTreeSet` enumeration `sharing_pairs` used before the stamp
    /// array: every pair of leafsets with rows under a common coreset.
    fn reference_pairs(db: &InvertedDb) -> Vec<(LeafsetId, LeafsetId)> {
        let mut members: Vec<Vec<LeafsetId>> = vec![Vec::new(); db.coreset_count()];
        for (e, lid, _) in db.iter_rows() {
            members[e as usize].push(lid);
        }
        let mut pairs = BTreeSet::new();
        for mut ls in members {
            ls.sort_unstable();
            for i in 0..ls.len() {
                for &y in &ls[i + 1..] {
                    pairs.insert((ls[i], y));
                }
            }
        }
        pairs.into_iter().collect()
    }

    /// The kernel against the pair-by-pair oracle on one pristine
    /// database: same pairs in the same order, and under both
    /// scheduling policies' scoring the same gains to the bit and the
    /// same pruned count.
    fn check_kernel(db: &InvertedDb) -> Result<(), TestCaseError> {
        let pairs = db.pair_list();
        let listed: Vec<_> = pairs.iter().collect();
        prop_assert_eq!(&listed, &reference_pairs(db));
        prop_assert_eq!(pairs.len(), listed.len());
        let view = db.gain_view();
        let mut scratch = Vec::new();

        // Incremental seeding: Algorithm 2 dismissal, then exact.
        let mut pruned = 0u64;
        let want: Vec<u64> = listed
            .iter()
            .map(|&(x, y)| {
                view.gain_pruned(x, y, GAIN_EPS, &mut scratch)
                    .unwrap_or_else(|| {
                        pruned += 1;
                        0.0
                    })
                    .to_bits()
            })
            .collect();
        let seed = db.seed_gains(&pairs, Some(GAIN_EPS)).expect("pristine");
        let got: Vec<u64> = seed.gains.iter().map(|g| g.to_bits()).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(seed.pruned, pruned);

        // FullRegeneration seeding: exact gains, no bound.
        let want: Vec<u64> = listed
            .iter()
            .map(|&(x, y)| view.gain_with(x, y, &mut scratch).to_bits())
            .collect();
        let exact = db.seed_gains(&pairs, None).expect("pristine");
        let got: Vec<u64> = exact.gains.iter().map(|g| g.to_bits()).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(exact.pruned, 0);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random graphs under every pricing × posting layout × coreset
        /// mode combination.
        #[test]
        fn kernel_matches_pair_by_pair_scoring(
            n in 4usize..400,
            k in 2usize..40,
            extra in 0usize..600,
            pad in 0usize..2_000,
            seed in 0u64..10_000,
        ) {
            let g = random_graph(n, k, extra, pad, seed);
            for gain_policy in [GainPolicy::Total, GainPolicy::DataOnly] {
                for posting in [PostingPolicy::Adaptive, PostingPolicy::SparseOnly] {
                    for mode in [
                        CoresetMode::SingleValue,
                        CoresetMode::Krimp { min_support: 2 },
                        CoresetMode::Slim,
                    ] {
                        let db = InvertedDb::build_with_posting(&g, mode, gain_policy, posting);
                        check_kernel(&db)?;
                    }
                }
            }
        }

        /// Pristine databases patched by a churn delta (edge and label
        /// removals, a label change, a vertex removal and additions).
        #[test]
        fn kernel_matches_on_churn_patched_databases(
            n in 6usize..300,
            k in 2usize..30,
            extra in 0usize..240,
            seed in 0u64..10_000,
        ) {
            let g = random_graph(n, k, extra, 0, seed);
            let v = |i: u64| ((seed + i * 7919) % n as u64) as u32;
            let mut delta = GraphDelta::new();
            delta.remove_edge(v(1), v(1) + 1);
            delta.remove_label(v(2), format!("a{}", seed % k as u64));
            delta.change_label(v(3), format!("a{}", (seed + 1) % k as u64), "fresh");
            delta.remove_vertex(v(4));
            let w = delta.add_vertex([format!("a{}", (seed + 2) % k as u64)]);
            delta.add_edge(w, DeltaVertex::Existing(v(5)));
            delta.add_label(v(6), format!("a{}", (seed + 3) % k as u64));
            let Ok(applied) = delta.apply(&g) else {
                return Ok(()); // e.g. the removed edge was never there
            };
            for gain_policy in [GainPolicy::Total, GainPolicy::DataOnly] {
                let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, gain_policy);
                match db.apply_delta(&applied.graph, &applied.dirty_centers) {
                    Ok(_) => check_kernel(&db)?,
                    Err(PatchError::VanishedAttribute(_)) => {}
                    Err(e) => prop_assert!(false, "unexpected patch error: {e}"),
                }
            }
        }
    }

    /// The kernel declines, and the engine scores pair by pair, when it
    /// cannot model the database: after a merge (union rows may exist),
    /// for a restored row holding a vertex outside its coreset's
    /// positions, and for another database's pair list.
    #[test]
    fn kernel_declines_what_it_cannot_model() {
        let (g, _) = cspm_graph::fixtures::paper_example();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let pairs = db.pair_list();
        assert!(db.seed_gains(&pairs, None).is_some());

        let mut rows: Vec<_> = db.iter_rows().map(|(e, l, p)| (e, l, p.to_vec())).collect();
        rows.sort();
        let (e, _, positions) = &mut rows[0];
        let at = &db.coresets()[*e as usize].positions;
        let outside = (0..g.vertex_count() as VertexId)
            .find(|v| at.binary_search(v).is_err())
            .expect("a vertex outside the coreset");
        if let Err(i) = positions.binary_search(&outside) {
            positions.insert(i, outside);
        }
        let odd = InvertedDb::from_pristine_rows(
            &g,
            GainPolicy::Total,
            rows.iter().map(|(e, l, p)| (*e, *l, p.as_slice())),
        )
        .expect("structurally valid rows");
        assert!(odd.seed_gains(&odd.pair_list(), None).is_none());

        let other = InvertedDb::build(
            &random_graph(30, 6, 20, 0, 7),
            CoresetMode::SingleValue,
            GainPolicy::Total,
        );
        assert!(db.seed_gains(&other.pair_list(), None).is_none());

        let (x, y) = pairs.iter().next().expect("a sharing pair");
        db.merge(x, y);
        assert!(db.seed_gains(&db.pair_list(), None).is_none());
    }

    #[test]
    fn gallop_finds_the_first_index_not_below_target() {
        let s = [1u32, 3, 5, 7, 9, 11, 13];
        for from in 0..=s.len() {
            for target in 0..16 {
                let want = from + s[from..].partition_point(|&v| v < target);
                assert_eq!(
                    gallop(&s, from, target),
                    want,
                    "from {from} target {target}"
                );
            }
        }
    }
}
