//! The inverted database representation (§IV-B) with exact
//! description-length bookkeeping and the merge operation (§IV-E).
//!
//! A row is a triple `(leafset SL, coreset Sc, positions)`: the vertices
//! where every value of `Sc` occurs and every value of `SL` occurs on a
//! neighbour *jointly* (for merged leafsets, positions are intersections
//! of the parents' positions, per §IV-E).
//!
//! # Description length
//!
//! The maintained total is
//!
//! ```text
//! L(M, I) = L(CTc) + Σ_rows [ ST(SL) + Lc(Sc) ] + L(I|M)
//! L(I|M)  = Σ_j c_j·log2 c_j − Σ_rows fL·log2 fL          (Eq. 8)
//! ```
//!
//! where `ST(SL)` is the standard-code-table cost of materialising the
//! leafset, `Lc(Sc)` the coreset pointer code, and `c_j = Σ fL` per
//! coreset. Following the paper's own simplification ("the cost increase
//! of the new pattern's leafset in the code table … obtained through the
//! standard code table ST"), the `Code_L` column itself is priced on the
//! data side only (its per-row length `−log2(fL/fc)` is what Eq. 8 sums),
//! not double-counted in the model.

use std::collections::HashMap;

use cspm_graph::{AttrId, AttributedGraph, MappingTable, VertexId};
use cspm_itemset::{krimp, slim, KrimpConfig, SlimConfig, TransactionDb};
use cspm_mdl::{xlog2x, StandardCodeTable};

use crate::config::{CoresetMode, GainPolicy};
use crate::positions::{intersect, PostingPolicy, PostingStore, PostingView, RowId};

mod seed;
pub use seed::{PairList, SeedGains};

/// Index into the coreset registry.
pub type CoresetId = u32;
/// Index into the leafset registry.
pub type LeafsetId = u32;

/// A coreset `Sc`: attribute values plus its `CT_c` entry.
#[derive(Debug, Clone)]
pub struct Coreset {
    /// Sorted attribute values.
    pub items: Vec<AttrId>,
    /// `CT_c` code length (pointer cost from `CT_L` rows).
    pub code_len: f64,
    /// Vertices where the coreset occurs (its mapping-table positions).
    pub positions: Vec<VertexId>,
}

/// Outcome of a merge operation, consumed by CSPM-Partial's update step.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// Id of the (possibly pre-existing) union leafset.
    pub new_leafset: LeafsetId,
    /// Whether `x` vanished from every coreset (totally merged).
    pub x_removed: bool,
    /// Whether `y` vanished from every coreset.
    pub y_removed: bool,
    /// Coresets where rows actually changed.
    pub touched_coresets: Vec<CoresetId>,
    /// Exact change of the maintained total DL (negative = improvement).
    pub dl_delta: f64,
    /// Whether any row pair was merged at all.
    pub merged_any: bool,
}

/// The inverted database `I` plus the model bookkeeping (`CT_c`, `CT_L`).
#[derive(Debug, Clone)]
pub struct InvertedDb {
    st: StandardCodeTable,
    coresets: Vec<Coreset>,
    leafsets: Vec<Vec<AttrId>>,
    leafset_index: HashMap<Vec<AttrId>, LeafsetId>,
    /// Flat arena holding every row's sorted positions.
    store: PostingStore,
    /// The one row index: `leafset_rows[l]` lists leafset `l`'s rows as
    /// fixed-width `(coreset, row)` records, strictly ascending by
    /// coreset. Per-coreset passes read its transpose,
    /// [`Self::rows_by_coreset`].
    leafset_rows: Vec<Vec<(CoresetId, RowId)>>,
    /// Reusable intersection buffer for [`Self::merge`].
    scratch_common: Vec<VertexId>,
    /// `c_j`: Σ fL over the rows of each coreset.
    coreset_freq: Vec<u64>,
    /// Number of leafsets that still have at least one row.
    live_leafsets: usize,
    /// How the coresets were formed (decides whether the database can
    /// be patched incrementally; see [`Self::apply_delta`]).
    mode: CoresetMode,
    /// Whether the database is still in its post-build state (no merge
    /// applied). Only pristine databases can absorb graph deltas.
    pristine: bool,
    // --- DL bookkeeping ---
    term1: f64,
    term2: f64,
    material_cost: f64,
    ctc_cost: f64,
    gain_policy: GainPolicy,
}

/// What [`InvertedDb::apply_delta`] did, for session diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Coresets created for attribute values the delta introduced.
    pub new_coresets: usize,
    /// Rows created for `(coreset, leaf)` pairs that did not co-occur
    /// before the delta.
    pub rows_added: usize,
    /// Rows whose position set emptied out and were released back to
    /// the posting free-list.
    pub rows_removed: usize,
    /// Positions inserted into rows (including the initial position of
    /// every added row, and dirty positions re-derived in place).
    pub positions_added: usize,
    /// Dirty positions cleared out of retained rows before re-derive
    /// (a re-qualified center counts once here and once above).
    pub positions_removed: usize,
}

/// Why a database could not absorb a graph delta in place. The caller
/// falls back to a full rebuild — the result is identical, just cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// A merge has already been applied; only pristine (post-build)
    /// databases can be patched.
    NotPristine,
    /// Multi-value coreset modes (Krimp/SLIM) mine their coresets from
    /// the global attribute distribution — a delta invalidates them
    /// wholesale, so there is nothing to patch.
    UnsupportedCoresetMode,
    /// The database's coreset numbering is not canonical (the build
    /// skipped a zero-frequency attribute value, so coreset ids and
    /// attribute ids diverge from this coreset on) — positions cannot
    /// be patched by attribute id.
    NonCanonicalCoresets(CoresetId),
    /// An attribute value beyond the database's coresets occurs on no
    /// vertex of the grown graph; a fresh build would skip it, so a
    /// patch appending it would desynchronise the numbering.
    EmptyAttribute(AttrId),
    /// A removal-carrying delta drove an existing attribute value's
    /// frequency to zero. A fresh build of the shrunk graph would skip
    /// its coreset and renumber everything after it — bit-identity
    /// cannot be patched cheaply, so the caller rebuilds cold.
    VanishedAttribute(AttrId),
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotPristine => write!(f, "database already has merges applied"),
            Self::UnsupportedCoresetMode => {
                write!(f, "multi-value coresets cannot be patched incrementally")
            }
            Self::NonCanonicalCoresets(e) => {
                write!(
                    f,
                    "coreset {e} is not numbered by its attribute id (the build \
                     skipped a zero-frequency attribute value)"
                )
            }
            Self::EmptyAttribute(a) => {
                write!(
                    f,
                    "attribute value {a} occurs on no vertex of the grown graph"
                )
            }
            Self::VanishedAttribute(a) => {
                write!(
                    f,
                    "attribute value {a} no longer occurs on any vertex; a fresh \
                     build would renumber the coresets after it"
                )
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// Why [`InvertedDb::from_pristine_rows`] rejected a serialized row
/// set. Restoration is fed from checksummed snapshot files, so this
/// only trips on data that was mangled *before* being checksummed (or
/// written by something other than the store); callers treat it like
/// any corrupt snapshot and rebuild cold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// Which structural invariant the rows violated.
    pub message: &'static str,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serialized rows are not a valid database: {}",
            self.message
        )
    }
}

impl std::error::Error for RestoreError {}

impl InvertedDb {
    /// Builds the inverted database from an attributed graph (Step 1 and
    /// Step 2 of Algorithm 1), with the default adaptive posting-row
    /// representation.
    pub fn build(g: &AttributedGraph, mode: CoresetMode, gain_policy: GainPolicy) -> Self {
        Self::build_with_posting(g, mode, gain_policy, PostingPolicy::default())
    }

    /// [`Self::build`] with an explicit posting-row representation
    /// policy. [`PostingPolicy::SparseOnly`] pins the reference layout;
    /// the equivalence tests and the bench backends use it to prove the
    /// adaptive store mines bit-identically.
    pub fn build_with_posting(
        g: &AttributedGraph,
        mode: CoresetMode,
        gain_policy: GainPolicy,
        posting: PostingPolicy,
    ) -> Self {
        let mapping = g.mapping_table();
        let st = standard_code_table(g, &mapping);
        // Step 1: determine the coresets and their occurrences.
        let coresets = match mode {
            CoresetMode::SingleValue => single_value_coresets(g, &mapping, &st),
            CoresetMode::Krimp { min_support } => {
                let db = vertex_transactions(g);
                let res = krimp(
                    &db,
                    KrimpConfig {
                        min_support,
                        prune: true,
                        closed_candidates: true,
                    },
                );
                coresets_from_code_table(&res.code_table, &db)
            }
            CoresetMode::Slim => {
                let db = vertex_transactions(g);
                let res = slim(&db, SlimConfig::default());
                coresets_from_code_table(&res.code_table, &db)
            }
        };

        // Initial rows materialise roughly one position per
        // (edge endpoint, leaf value); the label-pair count is a
        // cheap, same-order lower bound to pre-size the arena.
        let store = PostingStore::with_capacity_and_policy(g.label_pair_count(), posting);
        let mut this = Self::without_rows(g, st, coresets, store, mode, gain_policy);

        // Step 2: initial rows — one per (coreset occurrence, leaf value).
        // Gather, per coreset, the positions of each single leaf value;
        // the singleton leafset of `leaf` is `leaf` itself (see
        // [`Self::without_rows`]).
        let mut by_leaf: Vec<Vec<VertexId>> = vec![Vec::new(); g.attr_count()];
        let mut leaves: Vec<AttrId> = Vec::new();
        for e in 0..this.coresets.len() {
            gather_stars(g, &this.coresets[e].positions, &mut by_leaf, &mut leaves);
            for leaf in leaves.drain(..) {
                let pos = std::mem::take(&mut by_leaf[leaf as usize]);
                this.add_row(e as CoresetId, leaf, &pos);
            }
        }
        // Replace the per-row accumulation with one canonical pass, so
        // the pristine DL terms are a pure function of the final rows —
        // a patched database (apply_delta) recomputes them the same
        // way and lands on bit-identical floats.
        this.recompute_dl_terms();
        this
    }

    /// A pristine database over `coresets` with no rows yet.
    ///
    /// Canonical leafset numbering: every attribute value gets its
    /// singleton leafset id upfront, in attribute-id order, so
    /// `lid(singleton {a}) == a` regardless of which coreset happens to
    /// encounter the leaf first. This is what makes an incrementally
    /// patched database (apply_delta) numbered identically to a fresh
    /// build of the grown graph — and leafset ids are tie-breakers in
    /// the candidate scheduler, so identical numbering is required for
    /// bit-identical mining.
    fn without_rows(
        g: &AttributedGraph,
        st: StandardCodeTable,
        coresets: Vec<Coreset>,
        store: PostingStore,
        mode: CoresetMode,
        gain_policy: GainPolicy,
    ) -> Self {
        let mut this = Self {
            st,
            coreset_freq: vec![0; coresets.len()],
            coresets,
            leafsets: Vec::new(),
            leafset_index: HashMap::new(),
            store,
            leafset_rows: Vec::new(),
            scratch_common: Vec::new(),
            live_leafsets: 0,
            mode,
            pristine: true,
            term1: 0.0,
            term2: 0.0,
            material_cost: 0.0,
            ctc_cost: 0.0,
            gain_policy,
        };
        for a in 0..g.attr_count() as AttrId {
            this.intern_leafset(vec![a]);
        }
        this
    }

    /// Recomputes the four DL bookkeeping terms from the current rows
    /// in one canonical order (coresets ascending, leafset ids
    /// ascending within each). Incremental accumulation — whether from
    /// [`Self::build`]'s row insertion or from a patch — can land on
    /// different last-ulp floats depending on operation order; routing
    /// both through this pass makes the pristine state's terms exactly
    /// reproducible.
    fn recompute_dl_terms(&mut self) {
        let (mut ctc, mut t1, mut t2, mut material) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let by_coreset = self.rows_by_coreset();
        for (e, c) in self.coresets.iter().enumerate() {
            ctc += self.st.set_cost(c.items.iter().map(|&a| a as usize)) + c.code_len;
            t1 += xlog2x(self.coreset_freq[e] as f64);
            for &(lid, row) in by_coreset.of(e as CoresetId) {
                t2 += xlog2x(self.store.len(row) as f64);
                material += self
                    .st
                    .set_cost(self.leafsets[lid as usize].iter().map(|&a| a as usize))
                    + c.code_len;
            }
        }
        self.ctc_cost = ctc;
        self.term1 = t1;
        self.term2 = t2;
        self.material_cost = material;
    }

    /// Patches a **pristine** single-value-coreset database so it
    /// matches what [`Self::build`] would produce for `g` — without
    /// re-scanning the stars of unchanged vertices. `g` is the
    /// *evolved* graph (the base this database was built from, plus a
    /// [`cspm_graph::dynamic::GraphDelta`] — additions, removals and
    /// label changes alike), and `dirty` is the delta's sorted
    /// dirty-center set: exactly the vertices whose rows may have
    /// changed.
    ///
    /// The patch is uniform over additions and churn: every retained
    /// row first has its dirty positions cleared
    /// ([`PostingStore::difference`]), then the dirty centers that
    /// *still* qualify in the evolved graph are re-inserted
    /// ([`PostingStore::union_in_place`]). Rows that empty out are
    /// released back to the posting free-list; `(coreset, leaf)` pairs
    /// that first co-occur now get fresh rows.
    ///
    /// The patched database is logically identical to a fresh build —
    /// same coreset and leafset numbering, same row contents, same
    /// frequencies, bit-identical DL terms — so the merge loop takes
    /// the exact same greedy path afterwards. Only the posting arena's
    /// physical layout differs (patched rows relocate inside the
    /// retained arena; see
    /// [`PostingStore::fragmentation`](crate::PostingStore::fragmentation)).
    ///
    /// Cost: a star scan of the dirty centers only, plus linear
    /// refresh passes over existing state — the mapping table and
    /// standard code table (`O(|λ| + |A|)`, attribute frequencies
    /// change globally), one probe per retained row against the dirty
    /// centers that carried its coreset, and the canonical DL-term
    /// recomputation (`O(rows)`). Still linear in the graph, but a large
    /// constant factor cheaper than [`Self::build`]'s full star scan
    /// (~8× on pokec-Small with 300 added vertices, 600 dirty centers:
    /// ≈8 ms vs ≈65 ms on a 2-core x86-64 box).
    pub fn apply_delta(
        &mut self,
        g: &AttributedGraph,
        dirty: &[VertexId],
    ) -> Result<PatchStats, PatchError> {
        if !self.pristine {
            return Err(PatchError::NotPristine);
        }
        if self.mode != CoresetMode::SingleValue {
            return Err(PatchError::UnsupportedCoresetMode);
        }
        // Single-value builds skip zero-frequency attribute values, so
        // a base graph whose interner carried an unused value (possible
        // through `AttributedGraph::from_edge_list` with a hand-built
        // table) desynchronises the coreset-id ↔ attr-id numbering this
        // patch relies on. Check the *retained database* directly —
        // checking the grown graph instead would miss the case where
        // the delta itself attaches the formerly unused value.
        if let Some(e) =
            (0..self.coresets.len()).find(|&e| self.coresets[e].items.as_slice() != [e as AttrId])
        {
            return Err(PatchError::NonCanonicalCoresets(e as CoresetId));
        }
        let mapping = g.mapping_table();
        // A removal that wiped out an existing value's last occurrence
        // means a fresh build would skip its coreset and renumber the
        // rest — detect it up front and let the caller rebuild cold.
        if let Some(e) = (0..self.coresets.len() as AttrId).find(|&e| mapping.frequency(e) == 0) {
            return Err(PatchError::VanishedAttribute(e));
        }
        // Values past the existing coresets must all occur, or a fresh
        // build would skip them and number later coresets differently.
        // Delta-interned values always arrive attached to a vertex;
        // this only trips on a base interner that carried an unused
        // value *after* every used one (numbering check above can't
        // see those).
        if let Some(a) = (self.coresets.len() as AttrId..g.attr_count() as AttrId)
            .find(|&a| mapping.frequency(a) == 0)
        {
            return Err(PatchError::EmptyAttribute(a));
        }
        let mut stats = PatchStats::default();

        // Attribute frequencies changed globally, so the standard code
        // table — and with it every coreset's CT_c code — must be
        // refreshed wholesale (cheap: O(|A|)); the per-coreset loop
        // below refreshes each coreset's code and positions.
        self.st = standard_code_table(g, &mapping);
        // New attribute values append new coresets and new singleton
        // leafsets, in attribute-id order — exactly the numbering a
        // fresh build would assign.
        for a in self.coresets.len() as AttrId..g.attr_count() as AttrId {
            self.coresets.push(Coreset {
                items: vec![a],
                code_len: 0.0,
                positions: Vec::new(),
            });
            self.coreset_freq.push(0);
            let lid = self.intern_leafset(vec![a]);
            debug_assert_eq!(lid, a, "pristine numbering must stay canonical");
            stats.new_coresets += 1;
        }

        // Per coreset `e`, re-derive the stars of the dirty centers
        // carrying `e` now: `by_leaf[l]` collects the ones that belong
        // to row `(e, l)` *now* — memberships a removal retracted simply
        // never show up. Each retained row clears its stale positions (a
        // row of `e` holds only vertices that carried `e` before the
        // delta, so only those dirty centers are probed), then takes its
        // batch back: one difference and one union pass per touched row.
        // Rows that empty out go back to the free-list; batches no row
        // took are `(coreset, leaf)` pairs that first co-occur now, and
        // become fresh rows through the build's insertion path.
        let retained = self.rows_by_coreset();
        let mut by_leaf: Vec<Vec<VertexId>> = vec![Vec::new(); g.attr_count()];
        let mut leaves: Vec<AttrId> = Vec::new();
        for e in 0..self.coresets.len() {
            let c = &mut self.coresets[e];
            c.code_len = self.st.code_len(e);
            let stale = intersect(dirty, &c.positions);
            c.positions = mapping.positions(e as AttrId).to_vec();
            gather_stars(
                g,
                &intersect(dirty, &c.positions),
                &mut by_leaf,
                &mut leaves,
            );
            for &(lid, row) in retained.of(e as CoresetId) {
                let batch = std::mem::take(&mut by_leaf[lid as usize]);
                let overlap = self.store.intersect_count_slice(row, &stale);
                if overlap == 0 && batch.is_empty() {
                    continue;
                }
                let old_len = self.store.len(row);
                let mut new_len = old_len;
                if overlap > 0 {
                    new_len = self.store.difference(row, &stale);
                    stats.positions_removed += overlap;
                }
                if !batch.is_empty() {
                    new_len = self.store.union_in_place(row, &batch);
                    stats.positions_added += new_len - (old_len - overlap);
                }
                if new_len >= old_len {
                    self.coreset_freq[e] += (new_len - old_len) as u64;
                } else {
                    self.coreset_freq[e] -= (old_len - new_len) as u64;
                }
                if new_len == 0 {
                    self.remove_row(e as CoresetId, lid);
                    stats.rows_removed += 1;
                }
            }
            for leaf in leaves.drain(..) {
                let batch = std::mem::take(&mut by_leaf[leaf as usize]);
                if !batch.is_empty() {
                    self.add_row(e as CoresetId, leaf, &batch);
                    stats.rows_added += 1;
                    stats.positions_added += batch.len();
                }
            }
        }

        self.recompute_dl_terms();
        #[cfg(test)]
        self.check_index();
        Ok(stats)
    }

    /// Rebuilds a **pristine single-value** database from its
    /// serialized rows — the warm half of a `cspm-store` snapshot
    /// restore. The cheap metadata (mapping table, standard code table,
    /// coresets, canonical singleton leafsets) is re-derived from `g`
    /// exactly as [`Self::build`] derives it; only the expensive star
    /// scan is replaced by inserting the given `(coreset, leafset,
    /// positions)` rows verbatim. The restore ends in the same
    /// canonical `recompute_dl_terms` pass as a build, so a
    /// database restored from a fresh build's [`Self::iter_rows`]
    /// output is logically identical to that build — same numbering,
    /// same frequencies, bit-identical DL terms — and mining it takes
    /// the exact same greedy path.
    ///
    /// Rows must come from a pristine [`CoresetMode::SingleValue`]
    /// database of an equal graph (pristine single-value rows only ever
    /// reference singleton leafsets, so `leafset == attribute id`).
    /// Every structural invariant is checked — in-range ids, sorted
    /// non-empty positions, no duplicate rows — and violations return a
    /// typed [`RestoreError`], never a panic: the caller falls back to
    /// a cold [`Self::build`].
    pub fn from_pristine_rows<'a, I>(
        g: &AttributedGraph,
        gain_policy: GainPolicy,
        rows: I,
    ) -> Result<Self, RestoreError>
    where
        I: IntoIterator<Item = (CoresetId, LeafsetId, &'a [VertexId])>,
    {
        let mapping = g.mapping_table();
        let st = standard_code_table(g, &mapping);
        let coresets = single_value_coresets(g, &mapping, &st);
        let store = PostingStore::with_capacity(g.label_pair_count());
        let mut this = Self::without_rows(
            g,
            st,
            coresets,
            store,
            CoresetMode::SingleValue,
            gain_policy,
        );
        let n = g.vertex_count() as VertexId;
        for (e, lid, positions) in rows {
            if e as usize >= this.coresets.len() {
                return Err(RestoreError {
                    message: "row references unknown coreset",
                });
            }
            if (lid as usize) >= this.leafsets.len() {
                return Err(RestoreError {
                    message: "row references a non-singleton leafset",
                });
            }
            if positions.is_empty() {
                return Err(RestoreError {
                    message: "row has no positions",
                });
            }
            if positions.windows(2).any(|w| w[0] >= w[1]) {
                return Err(RestoreError {
                    message: "row positions are not strictly sorted",
                });
            }
            if *positions.last().expect("non-empty") >= n {
                return Err(RestoreError {
                    message: "row position beyond the graph",
                });
            }
            if this.find_row(e, lid).is_some() {
                return Err(RestoreError {
                    message: "duplicate row",
                });
            }
            this.add_row(e, lid, positions);
        }
        this.recompute_dl_terms();
        #[cfg(test)]
        this.check_index();
        Ok(this)
    }

    /// Checks the row index against everything kept beside it: each
    /// list strictly ascending by coreset, every row live, non-empty and
    /// indexed once, `coreset_freq` and `live_leafsets` matching the
    /// lists, and [`Self::rows_by_coreset`] holding exactly their rows.
    #[cfg(test)]
    pub(crate) fn check_index(&self) {
        let mut handles = std::collections::HashSet::new();
        let mut freq = vec![0u64; self.coresets.len()];
        let mut listed = Vec::new();
        for (lid, list) in self.leafset_rows.iter().enumerate() {
            assert!(
                list.windows(2).all(|w| w[0].0 < w[1].0),
                "leafset {lid}: rows not strictly ascending by coreset"
            );
            for &(e, row) in list {
                let len = self.store.len(row);
                assert!(len > 0, "row ({e}, {lid}) is empty");
                assert!(handles.insert(row), "row ({e}, {lid}) shares a handle");
                freq[e as usize] += len as u64;
                listed.push((e, lid as LeafsetId, row));
            }
        }
        assert_eq!(freq, self.coreset_freq, "coreset_freq is not the row sum");
        let live = self.leafset_rows.iter().filter(|l| !l.is_empty()).count();
        assert_eq!(self.live_leafsets, live, "live_leafsets");
        assert_eq!(self.row_count(), listed.len(), "row_count");
        let arena = self.store.repr_stats();
        assert_eq!(
            arena.sparse_rows + arena.bitmap_rows,
            listed.len(),
            "the arena holds rows the index does not"
        );
        let by_coreset = self.rows_by_coreset();
        let mut viewed = Vec::new();
        for e in 0..self.coresets.len() as CoresetId {
            viewed.extend(by_coreset.of(e).iter().map(|&(lid, row)| (e, lid, row)));
        }
        listed.sort_unstable_by_key(|&(e, lid, _)| (e, lid));
        assert_eq!(
            listed, viewed,
            "the per-coreset view disagrees with the index"
        );
    }

    /// Whether no merge has been applied since the build (or last
    /// patch) — the state graph deltas can be absorbed into.
    pub fn is_pristine(&self) -> bool {
        self.pristine
    }

    /// Compacts the posting arena in place (see
    /// [`PostingStore::compact`]); row handles and mining state are
    /// unaffected.
    pub fn compact_postings(&mut self) {
        self.store.compact();
    }

    fn intern_leafset(&mut self, items: Vec<AttrId>) -> LeafsetId {
        if let Some(&id) = self.leafset_index.get(&items) {
            return id;
        }
        let id = self.leafsets.len() as LeafsetId;
        self.leafsets.push(items.clone());
        self.leafset_index.insert(items, id);
        self.leafset_rows.push(Vec::new());
        id
    }

    /// Inserts a brand-new row, updating frequencies and the index — but
    /// *not* the DL terms: build-time callers finish with
    /// [`Self::recompute_dl_terms`], the single source of truth for the
    /// pristine terms. Positions must be sorted and non-empty, and the
    /// row must not already exist.
    fn add_row(&mut self, e: CoresetId, lid: LeafsetId, positions: &[VertexId]) {
        debug_assert!(!positions.is_empty());
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        self.coreset_freq[e as usize] += positions.len() as u64;
        let row = self.store.insert(positions);
        self.index_row(e, lid, row);
    }

    /// Links `row` into `lid`'s list at coreset `e`, keeping the list
    /// sorted for the two-pointer walks of scoring and merging.
    fn index_row(&mut self, e: CoresetId, lid: LeafsetId, row: RowId) {
        let rows = &mut self.leafset_rows[lid as usize];
        if rows.is_empty() {
            self.live_leafsets += 1;
        }
        match rows.binary_search_by_key(&e, |&(c, _)| c) {
            Ok(_) => debug_assert!(false, "row ({e}, {lid}) already indexed"),
            Err(i) => rows.insert(i, (e, row)),
        }
    }

    /// Unlinks row `(e, lid)` from the index and releases its positions.
    fn remove_row(&mut self, e: CoresetId, lid: LeafsetId) {
        let rows = &mut self.leafset_rows[lid as usize];
        let i = rows
            .binary_search_by_key(&e, |&(c, _)| c)
            .expect("removed row is indexed");
        let (_, row) = rows.remove(i); // ordered remove keeps the list sorted
        if rows.is_empty() {
            self.live_leafsets -= 1;
        }
        self.store.release(row);
    }

    /// The row of `lid` under coreset `e`, if any.
    fn find_row(&self, e: CoresetId, lid: LeafsetId) -> Option<RowId> {
        let rows = &self.leafset_rows[lid as usize];
        let i = rows.binary_search_by_key(&e, |&(c, _)| c).ok()?;
        Some(rows[i].1)
    }

    /// Every row grouped by coreset — the transpose of the row index,
    /// built in O(rows) by walking leafsets in ascending id, so each
    /// coreset's rows come out ascending by leafset without a sort.
    /// Rows added or removed afterwards are not reflected.
    pub(crate) fn rows_by_coreset(&self) -> RowsByCoreset {
        let n = self.coresets.len();
        let mut offsets = vec![0usize; n + 1];
        for &(e, _) in self.leafset_rows.iter().flatten() {
            offsets[e as usize + 1] += 1;
        }
        for e in 0..n {
            offsets[e + 1] += offsets[e];
        }
        // Every slot is overwritten below; any row handle pre-fills them.
        let filler = self.leafset_rows.iter().flatten().next();
        let mut rows = filler.map_or(Vec::new(), |&(_, r)| vec![(0, r); offsets[n]]);
        let mut next = offsets[..n].to_vec();
        for (lid, list) in self.leafset_rows.iter().enumerate() {
            for &(e, row) in list {
                rows[next[e as usize]] = (lid as LeafsetId, row);
                next[e as usize] += 1;
            }
        }
        RowsByCoreset { offsets, rows }
    }

    fn leafset_st_cost(&self, lid: LeafsetId) -> f64 {
        self.st
            .set_cost(self.leafsets[lid as usize].iter().map(|&a| a as usize))
    }

    /// `L(I|M)` per Eq. 8, in bits.
    pub fn data_cost(&self) -> f64 {
        self.term1 - self.term2
    }

    /// Model cost: `L(CTc)` plus materialisation of all `CT_L` rows.
    pub fn model_cost(&self) -> f64 {
        self.ctc_cost + self.material_cost
    }

    /// Maintained total `L(M, I)`.
    pub fn total_dl(&self) -> f64 {
        self.data_cost() + self.model_cost()
    }

    /// Conditional entropy `H(Y|X)` of the current table (Eq. 7):
    /// `L(I|M) / s` with `s` the total row frequency.
    pub fn conditional_entropy(&self) -> f64 {
        let s: u64 = self.coreset_freq.iter().sum();
        if s == 0 {
            0.0
        } else {
            self.data_cost() / s as f64
        }
    }

    /// The standard code table over attribute values.
    pub fn st(&self) -> &StandardCodeTable {
        &self.st
    }

    /// All coresets (the `CT_c` side).
    pub fn coresets(&self) -> &[Coreset] {
        &self.coresets
    }

    /// Number of coresets `|Sc^M|` (Table II statistic).
    pub fn coreset_count(&self) -> usize {
        self.coresets.len()
    }

    /// Attribute values of a leafset.
    pub fn leafset_items(&self, lid: LeafsetId) -> &[AttrId] {
        &self.leafsets[lid as usize]
    }

    /// Whether the leafset still has at least one row.
    pub fn is_live(&self, lid: LeafsetId) -> bool {
        !self.leafset_rows[lid as usize].is_empty()
    }

    /// Number of live leafsets.
    pub fn live_leafset_count(&self) -> usize {
        self.live_leafsets
    }

    /// Ids of all live leafsets.
    pub fn live_leafsets(&self) -> Vec<LeafsetId> {
        (0..self.leafsets.len() as LeafsetId)
            .filter(|&l| self.is_live(l))
            .collect()
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.leafset_rows.iter().map(Vec::len).sum()
    }

    /// Positions of row `(e, lid)` as owned sorted ids, if present
    /// (bitmap rows decode, so a borrowed slice cannot be returned).
    pub fn row_positions(&self, e: CoresetId, lid: LeafsetId) -> Option<Vec<VertexId>> {
        self.find_row(e, lid)
            .map(|r| self.store.positions(r).into_owned())
    }

    /// The flat posting-list arena backing all rows.
    pub fn posting_store(&self) -> &PostingStore {
        &self.store
    }

    /// Estimated resident bytes of the database: the posting arena plus
    /// the structures that scale with coresets/leafsets (the row index,
    /// coreset position lists, the leafset interner). Constant-size
    /// bookkeeping is ignored — this feeds a daemon's eviction budget,
    /// where only graph-proportional terms matter.
    pub fn approx_bytes(&self) -> usize {
        const MAP_ENTRY: usize = 48; // HashMap control + (key, value) slot, amortised
        let coresets: usize = self
            .coresets
            .iter()
            .map(|c| {
                std::mem::size_of_val(c.items.as_slice())
                    + std::mem::size_of_val(c.positions.as_slice())
            })
            .sum();
        let leafsets: usize = self
            .leafsets
            .iter()
            .map(|l| std::mem::size_of_val(l.as_slice()))
            .sum();
        let rows: usize = self
            .leafset_rows
            .iter()
            .map(|l| std::mem::size_of_val(l.as_slice()))
            .sum();
        let index: usize = self
            .leafset_index
            .keys()
            .map(|k| MAP_ENTRY + std::mem::size_of_val(k.as_slice()))
            .sum();
        self.store.approx_bytes() + coresets + leafsets + rows + index
    }

    /// `c_j` of a coreset: Σ fL of its rows.
    pub fn coreset_freq(&self, e: CoresetId) -> u64 {
        self.coreset_freq[e as usize]
    }

    /// Iterates all rows as `(coreset, leafset, positions)` in
    /// ascending `(coreset, leafset)` order — a function of the rows
    /// alone, so databases with equal rows yield equal sequences however
    /// they were built, patched or restored. Positions are always
    /// **canonical sorted ids**: sparse rows borrow from the arena,
    /// bitmap rows decode on the fly — so snapshots and every other
    /// consumer see one representation-independent format.
    pub fn iter_rows(
        &self,
    ) -> impl Iterator<Item = (CoresetId, LeafsetId, std::borrow::Cow<'_, [VertexId]>)> {
        let RowsByCoreset { offsets, rows } = self.rows_by_coreset();
        let mut e = 0usize;
        rows.into_iter().enumerate().map(move |(i, (lid, row))| {
            while offsets[e + 1] <= i {
                e += 1;
            }
            (e as CoresetId, lid, self.store.positions(row))
        })
    }

    /// Whether one leafset's values are a subset of the other's. Such
    /// pairs are never merge candidates: their union *is* the superset,
    /// so no new pattern would be created.
    pub fn is_nested_pair(&self, x: LeafsetId, y: LeafsetId) -> bool {
        let (a, b) = (&self.leafsets[x as usize], &self.leafsets[y as usize]);
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        small.iter().all(|i| large.binary_search(i).is_ok())
    }

    /// A read-only scoring handle borrowing this database; see
    /// [`GainView`]. Cheap (two borrows), `Copy`, and safe to hand to
    /// any number of scoped worker threads.
    pub fn gain_view(&self) -> GainView<'_> {
        GainView {
            db: self,
            store: self.store.view(),
        }
    }

    /// Gain `ΔL` of merging leafsets `x` and `y`; see
    /// [`GainView::pair_gain`], to which this delegates.
    pub fn pair_gain(&self, x: LeafsetId, y: LeafsetId) -> f64 {
        self.gain_view().pair_gain(x, y)
    }

    /// Cheap upper bound on [`Self::pair_gain`]; see
    /// [`GainView::pair_gain_upper_bound`], to which this delegates.
    pub fn pair_gain_upper_bound(&self, x: LeafsetId, y: LeafsetId) -> f64 {
        self.gain_view().pair_gain_upper_bound(x, y)
    }

    /// Merges leafsets `x` and `y` (§IV-E): at every shared coreset the
    /// common positions move to a row for `x ∪ y`; empty parents are
    /// dropped. All DL bookkeeping is updated **exactly** (including the
    /// rare case where the union row already exists).
    pub fn merge(&mut self, x: LeafsetId, y: LeafsetId) -> MergeOutcome {
        assert_ne!(x, y, "cannot merge a leafset with itself");
        self.pristine = false;
        let dl_before = self.total_dl();
        let n = self.intern_leafset(union_items(
            &self.leafsets[x as usize],
            &self.leafsets[y as usize],
        ));
        let mut touched = Vec::new();
        let shared: Vec<(CoresetId, RowId, RowId)> = shared_rows(
            &self.leafset_rows[x as usize],
            &self.leafset_rows[y as usize],
        )
        .collect();
        // Reusable intersection buffer: steady-state merging allocates
        // nothing — parents shrink in place, unions grow in place while
        // their spans have slack, dead spans are recycled.
        let mut common = std::mem::take(&mut self.scratch_common);
        for (e, rx, ry) in shared {
            self.store.intersect_into(rx, ry, &mut common);
            if common.is_empty() {
                continue;
            }
            touched.push(e);
            let mut fe = self.coreset_freq[e as usize];
            self.term1 -= xlog2x(fe as f64);
            // Shrink (or drop) the parents. Nested unions (n == x or
            // n == y) never reach here: `pair_gain` filters them and the
            // algorithms skip zero-gain pairs, but guard anyway.
            for (parent, row) in [(x, rx), (y, ry)] {
                if parent == n {
                    continue;
                }
                let old = self.store.len(row) as u64;
                self.term2 -= xlog2x(old as f64);
                let new = self.store.difference(row, &common) as u64;
                fe = fe - old + new;
                if new == 0 {
                    self.remove_row(e, parent);
                    self.material_cost -=
                        self.leafset_st_cost(parent) + self.coresets[e as usize].code_len;
                } else {
                    self.term2 += xlog2x(new as f64);
                }
            }
            // Grow (or create) the union row.
            match self.find_row(e, n) {
                Some(row) => {
                    let old = self.store.len(row) as u64;
                    self.term2 -= xlog2x(old as f64);
                    let new = self.store.union_in_place(row, &common) as u64;
                    fe = fe - old + new;
                    self.term2 += xlog2x(new as f64);
                }
                None => {
                    let fl = common.len() as u64;
                    self.term2 += xlog2x(fl as f64);
                    self.material_cost +=
                        self.leafset_st_cost(n) + self.coresets[e as usize].code_len;
                    let row = self.store.insert(&common);
                    self.index_row(e, n, row);
                    fe += fl;
                }
            }
            self.term1 += xlog2x(fe as f64);
            self.coreset_freq[e as usize] = fe;
        }
        self.scratch_common = common;
        #[cfg(test)]
        self.check_index();
        MergeOutcome {
            new_leafset: n,
            x_removed: !self.is_live(x),
            y_removed: !self.is_live(y),
            merged_any: !touched.is_empty(),
            touched_coresets: touched,
            dl_delta: self.total_dl() - dl_before,
        }
    }

    /// All unordered candidate pairs of live leafsets sharing at least
    /// one coreset (the only pairs that can have non-zero gain, §V), in
    /// ascending `(x, y)` order; [`Self::pair_list`] materialised.
    pub fn sharing_pairs(&self) -> Vec<(LeafsetId, LeafsetId)> {
        self.pair_list().iter().collect()
    }
}

/// Read-only gain scorer over an [`InvertedDb`].
///
/// Candidate scoring is pure: it reads rows, frequencies and code-table
/// costs but never mutates the database. This type makes that contract
/// explicit — it borrows the database immutably (rows through a
/// [`PostingView`] over the shared arena, nothing cloned) and is
/// `Copy + Send + Sync`, so the engine's parallel scorer can give every
/// worker thread its own view of one immutable database between merges.
/// All scoring used by the engine goes through here, in the sequential
/// and the parallel path alike, so gains are bit-identical at any
/// thread count.
#[derive(Debug, Clone, Copy)]
pub struct GainView<'a> {
    db: &'a InvertedDb,
    store: PostingView<'a>,
}

impl GainView<'_> {
    /// Gain `ΔL` of merging leafsets `x` and `y` (Eq. 9 with the case
    /// analysis of Eq. 10–15, all cases unified by the `0·log 0 = 0`
    /// convention), minus the model-cost delta under
    /// [`GainPolicy::Total`]. Positive gain = merging reduces the DL.
    ///
    /// The paper's formulas assume the union leafset produces a *new*
    /// row; when a row for `x ∪ y` already exists under a shared coreset
    /// (possible after earlier merges) the common positions fold into it
    /// instead, and this function computes the exact delta for that case
    /// too — so the returned gain always equals the true DL reduction
    /// and accepted merges are guaranteed to decrease the DL.
    ///
    /// Returns 0 for nested pairs and for pairs that never co-occur.
    pub fn pair_gain(&self, x: LeafsetId, y: LeafsetId) -> f64 {
        if x == y || self.db.is_nested_pair(x, y) {
            return 0.0;
        }
        let p = self.prelude(x, y);
        let mut shared = Vec::new();
        self.collect_shared(x, y, p.union_id, &mut shared);
        self.exact_gain(&p, &shared)
    }

    /// Scores one pair, consulting the Algorithm 2 bound first (under
    /// [`GainPolicy::Total`]; under `DataOnly` the bound provably never
    /// prunes, so it is skipped outright). Returns `None` — without
    /// touching a position list — when the bound shows the gain cannot
    /// exceed `eps`. Otherwise the exact gain.
    ///
    /// `scratch` is a caller-owned buffer reused across pairs so the
    /// per-coreset row lookups happen exactly once per pair: the
    /// collect pass fills it, the bound reads lengths from it, and the
    /// exact pass consumes it — an unpruned score costs no more hash
    /// lookups than a plain [`Self::pair_gain`].
    pub(crate) fn gain_pruned(
        &self,
        x: LeafsetId,
        y: LeafsetId,
        eps: f64,
        scratch: &mut Vec<SharedRow>,
    ) -> Option<f64> {
        if x == y || self.db.is_nested_pair(x, y) {
            return Some(0.0);
        }
        let p = self.prelude(x, y);
        self.collect_shared(x, y, p.union_id, scratch);
        if self.db.gain_policy == GainPolicy::Total && self.bound(&p, scratch) <= eps {
            return None;
        }
        Some(self.exact_gain(&p, scratch))
    }

    /// The exact gain through a caller-owned scratch buffer — the cost
    /// profile of [`Self::pair_gain`] without its per-call allocation.
    /// Used by the full-regeneration sweep, where the bound cannot pay
    /// for itself: the sweep keeps only the single best pair, and the
    /// bound can never prune the best pair by construction.
    pub(crate) fn gain_with(
        &self,
        x: LeafsetId,
        y: LeafsetId,
        scratch: &mut Vec<SharedRow>,
    ) -> f64 {
        if x == y || self.db.is_nested_pair(x, y) {
            return 0.0;
        }
        let p = self.prelude(x, y);
        self.collect_shared(x, y, p.union_id, scratch);
        self.exact_gain(&p, scratch)
    }

    /// Per-pair scoring context shared by the bound and the exact gain.
    fn prelude(&self, x: LeafsetId, y: LeafsetId) -> PairPrelude {
        let db = self.db;
        let items = union_items(&db.leafsets[x as usize], &db.leafsets[y as usize]);
        let union_id = db.leafset_index.get(&items).copied();
        let (union_st_cost, st_x, st_y) = if db.gain_policy == GainPolicy::Total {
            (
                db.st.set_cost(items.iter().map(|&a| a as usize)),
                db.leafset_st_cost(x),
                db.leafset_st_cost(y),
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        PairPrelude {
            union_id,
            union_st_cost,
            st_x,
            st_y,
        }
    }

    /// Resolves the pair's shared coresets to row handles (clearing
    /// `out` first): a two-pointer walk over x's and y's row lists, plus
    /// a binary search of the union leafset's list per shared coreset —
    /// the only index reads any scoring path performs for this pair.
    fn collect_shared(
        &self,
        x: LeafsetId,
        y: LeafsetId,
        union_id: Option<LeafsetId>,
        out: &mut Vec<SharedRow>,
    ) {
        let db = self.db;
        out.clear();
        out.extend(
            shared_rows(&db.leafset_rows[x as usize], &db.leafset_rows[y as usize]).map(
                |(e, rx, ry)| SharedRow {
                    e,
                    rx,
                    ry,
                    rn: union_id.and_then(|n| db.find_row(e, n)),
                },
            ),
        );
    }

    /// The exact gain of Eq. 9/10–15 over collected shared rows; see
    /// [`Self::pair_gain`] for the contract.
    fn exact_gain(&self, pre: &PairPrelude, shared: &[SharedRow]) -> f64 {
        let db = self.db;
        let PairPrelude {
            union_st_cost,
            st_x,
            st_y,
            ..
        } = *pre;
        let (mut p1, mut p2) = (0.0f64, 0.0f64);
        let mut model_delta = 0.0f64;
        let mut merged_any = false;
        for &SharedRow { e, rx, ry, rn } in shared {
            let (xy, grown) = match rn {
                // Collision path: need the union row's actual growth.
                Some(r) => {
                    let common = self.store.intersect(rx, ry);
                    if common.is_empty() {
                        continue;
                    }
                    let pn_len = self.store.len(r);
                    let merged_len =
                        pn_len + common.len() - self.store.intersect_count_slice(r, &common);
                    // Union-row term2 change replaces the fresh-row term.
                    p2 += xlog2x(pn_len as f64) - xlog2x(merged_len as f64)
                        + xlog2x(common.len() as f64);
                    (common.len() as f64, (merged_len - pn_len) as f64)
                }
                None => {
                    let xy = self.store.intersect_count(rx, ry) as f64;
                    if xy == 0.0 {
                        continue;
                    }
                    (xy, xy)
                }
            };
            merged_any = true;
            let (xe, ye) = (self.store.len(rx) as f64, self.store.len(ry) as f64);
            let fe = db.coreset_freq[e as usize] as f64;
            // Eq. 10 (with the exact post-merge coreset frequency).
            p1 += xlog2x(fe) - xlog2x(fe - 2.0 * xy + grown);
            // Eq. 12–15 unified: vanished rows contribute xlog2x(0) = 0.
            p2 += xlog2x(xe) + xlog2x(ye) - (xlog2x(xe - xy) + xlog2x(ye - xy) + xlog2x(xy));
            if db.gain_policy == GainPolicy::Total {
                let code_e = db.coresets[e as usize].code_len;
                if rn.is_none() {
                    model_delta += union_st_cost + code_e;
                }
                if xy == xe {
                    model_delta -= st_x + code_e;
                }
                if xy == ye {
                    model_delta -= st_y + code_e;
                }
            }
        }
        if !merged_any {
            return 0.0;
        }
        let data_gain = p1 - p2;
        match db.gain_policy {
            GainPolicy::DataOnly => data_gain,
            GainPolicy::Total => data_gain - model_delta,
        }
    }

    /// Upper bound on [`Self::pair_gain`] from row *lengths* alone — no
    /// position list is ever scanned, so the bound costs O(shared
    /// coresets) against the gain's O(total positions). This is the
    /// pruning bound of the paper's Algorithm 2: candidate pairs whose
    /// bound is non-positive provably cannot improve the description
    /// length and are dismissed before they enter the queue.
    ///
    /// Derivation, per shared coreset `e` with row lengths `xe`, `ye`,
    /// `m = min(xe, ye)` and `F = xlog2x` (non-decreasing over the
    /// integers, `F(0) = F(1) = 0`): the true overlap `xy` lies in
    /// `[1, m]` when the rows co-occur, so
    ///
    /// * fresh union row: `p1 = F(fe) − F(fe − xy) ≤ F(fe) − F(fe − m)`
    ///   and `−p2 ≤ F(xy) ≤ F(m)` (the parent brackets
    ///   `F(xe) − F(xe − xy)` are non-negative and dropped);
    /// * existing union row of length `pn`: `p1 ≤ F(fe) − F(fe − 2m)`
    ///   and `−p2 ≤ F(merged) − F(pn) ≤ F(pn + m) − F(pn)`.
    ///
    /// Under [`GainPolicy::Total`] the model delta is bounded below by
    /// charging the new row's materialisation (fresh case only) and
    /// crediting every parent removal that is feasible (`xy = xe`
    /// requires `xe ≤ ye`, and vice versa). Coresets where the rows may
    /// simply not co-occur contribute `max(0, bound_e)` — a pair's true
    /// gain only sums over co-occurring coresets, so the clamp keeps
    /// the total an upper bound in every overlap scenario.
    ///
    /// Under [`GainPolicy::DataOnly`] the per-coreset bound is always
    /// positive, so nothing is ever pruned (documented behaviour: the
    /// data side alone cannot prove a merge unprofitable without
    /// counting the actual overlap).
    pub fn pair_gain_upper_bound(&self, x: LeafsetId, y: LeafsetId) -> f64 {
        if x == y || self.db.is_nested_pair(x, y) {
            return 0.0;
        }
        let p = self.prelude(x, y);
        let mut shared = Vec::new();
        self.collect_shared(x, y, p.union_id, &mut shared);
        self.bound(&p, &shared)
    }

    /// The Algorithm 2 bound over collected shared rows; see
    /// [`Self::pair_gain_upper_bound`] for the derivation. Reads only
    /// row *lengths* — no position list is scanned.
    fn bound(&self, pre: &PairPrelude, shared: &[SharedRow]) -> f64 {
        let db = self.db;
        let total = db.gain_policy == GainPolicy::Total;
        let PairPrelude {
            union_st_cost,
            st_x,
            st_y,
            ..
        } = *pre;
        let mut bound = 0.0f64;
        for &SharedRow { e, rx, ry, rn } in shared {
            let xe = self.store.len(rx) as f64;
            let ye = self.store.len(ry) as f64;
            let m = xe.min(ye);
            let fe = db.coreset_freq[e as usize] as f64;
            let existing = rn.map(|r| self.store.len(r) as f64);
            let mut ub = match existing {
                Some(pn) => xlog2x(fe) - xlog2x(fe - 2.0 * m) + xlog2x(pn + m) - xlog2x(pn),
                None => xlog2x(fe) - xlog2x(fe - m) + xlog2x(m),
            };
            if total {
                let code_e = db.coresets[e as usize].code_len;
                if existing.is_none() {
                    ub -= union_st_cost + code_e;
                }
                if xe <= ye {
                    ub += st_x + code_e;
                }
                if ye <= xe {
                    ub += st_y + code_e;
                }
            }
            if ub > 0.0 {
                bound += ub;
            }
        }
        bound
    }

    /// Whether the leafset still has at least one row.
    pub fn is_live(&self, lid: LeafsetId) -> bool {
        self.db.is_live(lid)
    }
}

/// Per-pair scoring context computed once and shared between the
/// Algorithm 2 bound and the exact gain: the union leafset's identity
/// and the ST costs the Total pricing needs (zeroed under `DataOnly`,
/// where no model term is priced).
struct PairPrelude {
    union_id: Option<LeafsetId>,
    union_st_cost: f64,
    st_x: f64,
    st_y: f64,
}

/// One shared coreset of a candidate pair, resolved to row handles by
/// [`GainView`]'s collect pass: the parents' rows plus the union
/// leafset's row when it already exists at this coreset.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedRow {
    e: CoresetId,
    rx: RowId,
    ry: RowId,
    rn: Option<RowId>,
}

/// Every row grouped by coreset; see [`InvertedDb::rows_by_coreset`].
pub(crate) struct RowsByCoreset {
    /// Coreset `e`'s rows live at `rows[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<usize>,
    rows: Vec<(LeafsetId, RowId)>,
}

impl RowsByCoreset {
    /// Coreset `e`'s rows as `(leafset, row)`, ascending by leafset.
    pub(crate) fn of(&self, e: CoresetId) -> &[(LeafsetId, RowId)] {
        &self.rows[self.offsets[e as usize]..self.offsets[e as usize + 1]]
    }
}

/// Allocation-free two-pointer walk over the coresets two leafsets'
/// row lists have in common, yielding `(coreset, x's row, y's row)` in
/// ascending coreset order — the inner loop of every gain and bound
/// evaluation.
fn shared_rows<'a>(
    a: &'a [(CoresetId, RowId)],
    b: &'a [(CoresetId, RowId)],
) -> impl Iterator<Item = (CoresetId, RowId, RowId)> + 'a {
    let (mut i, mut j) = (0usize, 0usize);
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            let ((ea, ra), (eb, rb)) = (a[i], b[j]);
            match ea.cmp(&eb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    return Some((ea, ra, rb));
                }
            }
        }
        None
    })
}

fn union_items(a: &[AttrId], b: &[AttrId]) -> Vec<AttrId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    out
}

/// The standard code table over `g`'s attribute values, from the
/// frequencies in `mapping` (`g`'s mapping table).
fn standard_code_table(g: &AttributedGraph, mapping: &MappingTable) -> StandardCodeTable {
    StandardCodeTable::from_counts(
        (0..g.attr_count())
            .map(|a| mapping.frequency(a as AttrId) as u64)
            .collect(),
    )
}

/// One coreset per attribute value that occurs (§IV-F Step 1).
fn single_value_coresets(
    g: &AttributedGraph,
    mapping: &MappingTable,
    st: &StandardCodeTable,
) -> Vec<Coreset> {
    (0..g.attr_count() as AttrId)
        .filter(|&a| mapping.frequency(a) > 0)
        .map(|a| Coreset {
            items: vec![a],
            code_len: st.code_len(a as usize),
            positions: mapping.positions(a).to_vec(),
        })
        .collect()
}

/// Groups the stars of `centers` (ascending) by leaf value: `by_leaf[l]`
/// receives, ascending, the centers with a neighbour carrying `l`, and
/// `leaves` the values seen, ascending. Both must arrive empty.
fn gather_stars(
    g: &AttributedGraph,
    centers: &[VertexId],
    by_leaf: &mut [Vec<VertexId>],
    leaves: &mut Vec<AttrId>,
) {
    for &v in centers {
        for &u in g.neighbors(v) {
            for &leaf in g.labels(u) {
                let entry = &mut by_leaf[leaf as usize];
                if entry.is_empty() {
                    leaves.push(leaf);
                }
                if entry.last() != Some(&v) {
                    entry.push(v);
                }
            }
        }
    }
    leaves.sort_unstable();
}

/// The vertex→attribute transaction table used for multi-value coresets.
fn vertex_transactions(g: &AttributedGraph) -> TransactionDb {
    TransactionDb::with_item_universe(
        g.vertices().map(|v| g.labels(v).to_vec()).collect(),
        g.attr_count(),
    )
}

/// Converts a Krimp/SLIM code table into coreset occurrences: each
/// pattern used in the cover of a vertex's attribute set becomes a
/// coreset occurrence at that vertex; its `CT_c` code length is the
/// Shannon code of its usage.
fn coresets_from_code_table(ct: &cspm_itemset::CodeTable, db: &TransactionDb) -> Vec<Coreset> {
    let cover = ct.cover(db);
    let mut positions: Vec<Vec<VertexId>> = vec![Vec::new(); ct.len()];
    for (v, used) in cover.covers.iter().enumerate() {
        for &p in used {
            positions[p as usize].push(v as VertexId);
        }
    }
    let s = cover.total_usage as f64;
    let mut out = Vec::new();
    for (i, p) in ct.patterns().iter().enumerate() {
        if cover.usages[i] == 0 {
            continue;
        }
        out.push(Coreset {
            items: p.items().to_vec(),
            code_len: -((cover.usages[i] as f64 / s).log2()),
            positions: std::mem::take(&mut positions[i]),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_graph::fixtures::paper_example;

    fn build_paper_db() -> (InvertedDb, cspm_graph::fixtures::PaperAttrs) {
        let (g, a) = paper_example();
        (
            InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::DataOnly),
            a,
        )
    }

    /// Finds the leafset id of a singleton leaf value.
    fn lid(db: &InvertedDb, a: AttrId) -> LeafsetId {
        db.live_leafsets()
            .into_iter()
            .find(|&l| db.leafset_items(l) == [a])
            .expect("singleton leafset exists")
    }

    fn cid(db: &InvertedDb, a: AttrId) -> CoresetId {
        db.coresets()
            .iter()
            .position(|c| c.items == [a])
            .expect("coreset exists") as CoresetId
    }

    #[test]
    fn initial_rows_match_fig2b() {
        // From Fig. 2(b): the record ({a}, {c}, {v2, v3}) exists, etc.
        let (db, at) = build_paper_db();
        assert_eq!(db.coreset_count(), 3);
        let (ca, cb, cc) = (cid(&db, at.a), cid(&db, at.b), cid(&db, at.c));
        let (la, lb, lc) = (lid(&db, at.a), lid(&db, at.b), lid(&db, at.c));
        // Coreset {c} has leaf {a} at v2, v3 (blue record of Fig. 2(b)).
        assert_eq!(db.row_positions(cc, la).as_deref(), Some(&[1u32, 2][..]));
        // Coreset {a}: leaf {a} at v1 (nbr v2), v2 (nbr v1), v5 — wait v5's
        // nbrs are v3{c}, v4{b}: no a. v1 nbrs v2{a,c}: yes. v2 nbr v1{a}.
        assert_eq!(db.row_positions(ca, la).as_deref(), Some(&[0u32, 1][..]));
        // Coreset {a}: leaf {b} at v1 (nbr v4) and v5 (nbr v4).
        assert_eq!(db.row_positions(ca, lb).as_deref(), Some(&[0u32, 4][..]));
        // Coreset {a}: leaf {c} at v1 (nbr v2/v3) and v5 (nbr v3).
        assert_eq!(db.row_positions(ca, lc).as_deref(), Some(&[0u32, 4][..]));
        // Coreset {b}: leaf {b} at v4 (nbr v5{a,b}) and v5 (nbr v4{b}).
        assert_eq!(db.row_positions(cb, lb).as_deref(), Some(&[3u32, 4][..]));
        // Coreset {b}: leaf {c} at v5 only (nbr v3{c}).
        assert_eq!(db.row_positions(cb, lc).as_deref(), Some(&[4u32][..]));
    }

    #[test]
    fn coreset_freq_is_row_sum() {
        let (db, at) = build_paper_db();
        for e in 0..db.coreset_count() as CoresetId {
            let sum: u64 = db
                .iter_rows()
                .filter(|&(c, _, _)| c == e)
                .map(|(_, _, p)| p.len() as u64)
                .sum();
            assert_eq!(db.coreset_freq(e), sum);
        }
        let _ = at;
    }

    #[test]
    fn paper_merge_bc_fig4() {
        // §IV-E worked example: merging leafsets {b} and {c}.
        let (mut db, at) = build_paper_db();
        let (lb, lc) = (lid(&db, at.b), lid(&db, at.c));
        let (ca, cb) = (cid(&db, at.a), cid(&db, at.b));
        let gain = db.pair_gain(lb, lc);
        let data_before = db.data_cost();
        let outcome = db.merge(lb, lc);
        // Coreset {a}: both rows were {v1, v5} — totally merged (case 2).
        let n = outcome.new_leafset;
        assert_eq!(db.row_positions(ca, n).as_deref(), Some(&[0u32, 4][..]));
        assert_eq!(db.row_positions(ca, lb), None);
        assert_eq!(db.row_positions(ca, lc), None);
        // Coreset {b}: common position {v5}; ({b},{c}) disappears, the
        // row for leafset {b} keeps {v4} (case 3) — Fig. 4.
        assert_eq!(db.row_positions(cb, n).as_deref(), Some(&[4u32][..]));
        assert_eq!(db.row_positions(cb, lb).as_deref(), Some(&[3u32][..]));
        assert_eq!(db.row_positions(cb, lc), None);
        // {c} no longer appears under any coreset; {b} survives at {b}
        // and at {c} (v3's neighbour v5 carries b).
        assert!(outcome.y_removed || outcome.x_removed);
        assert!(db.is_live(n));
        // The data-only gain equals the exact L(I|M) reduction (Eq. 9).
        let data_delta = db.data_cost() - data_before;
        assert!(
            (gain + data_delta).abs() < 1e-9,
            "gain {gain} vs data delta {data_delta}"
        );
    }

    #[test]
    fn data_only_gain_matches_exact_data_delta() {
        let (db, _) = build_paper_db();
        for &(x, y) in db.sharing_pairs().iter() {
            if db.is_nested_pair(x, y) {
                continue;
            }
            let gain = db.pair_gain(x, y);
            let mut clone = db.clone();
            let out = clone.merge(x, y);
            if out.merged_any {
                let delta = clone.data_cost() - db.data_cost();
                assert!(
                    (gain + delta).abs() < 1e-9,
                    "pair ({x},{y}): gain {gain} but data delta {delta}"
                );
            } else {
                assert_eq!(gain, 0.0);
            }
        }
    }

    #[test]
    fn total_gain_matches_exact_total_delta() {
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        for &(x, y) in db.sharing_pairs().iter() {
            if db.is_nested_pair(x, y) {
                continue;
            }
            let gain = db.pair_gain(x, y);
            let mut clone = db.clone();
            let out = clone.merge(x, y);
            if out.merged_any {
                assert!(
                    (gain + out.dl_delta).abs() < 1e-9,
                    "pair ({x},{y}): total gain {gain} but dl_delta {}",
                    out.dl_delta
                );
            } else {
                assert_eq!(gain, 0.0);
            }
        }
    }

    #[test]
    fn data_cost_matches_eq8_direct() {
        let (db, _) = build_paper_db();
        // Direct evaluation of Eq. 8 from the rows.
        let mut direct = 0.0;
        for e in 0..db.coreset_count() as CoresetId {
            let cj = db.coreset_freq(e) as f64;
            direct += xlog2x(cj);
        }
        for (_, _, p) in db.iter_rows() {
            direct -= xlog2x(p.len() as f64);
        }
        assert!((db.data_cost() - direct).abs() < 1e-9);
        // And it equals s · H(Y|X) (Eq. 8's first line).
        let s: f64 = (0..db.coreset_count() as CoresetId)
            .map(|e| db.coreset_freq(e) as f64)
            .sum();
        assert!((db.data_cost() - s * db.conditional_entropy()).abs() < 1e-9);
    }

    #[test]
    fn nested_pairs_are_never_candidates() {
        let (mut db, at) = build_paper_db();
        let (lb, lc) = (lid(&db, at.b), lid(&db, at.c));
        let out = db.merge(lb, lc);
        let n = out.new_leafset;
        // {b} ⊂ {b, c}: nested, gain must be 0.
        assert!(db.is_nested_pair(lb, n));
        assert_eq!(db.pair_gain(lb, n), 0.0);
    }

    #[test]
    fn live_leafset_count_tracks_rows() {
        let (mut db, at) = build_paper_db();
        let before = db.live_leafset_count();
        assert_eq!(before, 3); // {a}, {b}, {c}
        let out = db.merge(lid(&db, at.b), lid(&db, at.c));
        // {c} died, {b,c} was born, {b} survived: still 3 live.
        assert!(out.y_removed ^ out.x_removed);
        assert_eq!(db.live_leafset_count(), 3);
        assert_eq!(db.live_leafsets().len(), 3);
    }

    #[test]
    fn sharing_pairs_on_paper_example() {
        let (db, _) = build_paper_db();
        // All three singleton leafsets co-reside under coreset {a}.
        let pairs = db.sharing_pairs();
        assert_eq!(pairs.len(), 3);
    }

    /// The Algorithm 2 pruning bound must dominate the exact gain for
    /// every candidate pair, under both pricing policies, before and
    /// after merges (the post-merge states exercise the existing-union-
    /// row collision path of both formulas).
    #[test]
    fn gain_upper_bound_dominates_exact_gain() {
        for policy in [GainPolicy::DataOnly, GainPolicy::Total] {
            let (g, _) = paper_example();
            let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, policy);
            for _round in 0..4 {
                for &(x, y) in db.sharing_pairs().iter() {
                    let gain = db.pair_gain(x, y);
                    let ub = db.pair_gain_upper_bound(x, y);
                    assert!(
                        gain <= ub + 1e-9,
                        "{policy:?}: pair ({x},{y}) gain {gain} exceeds bound {ub}"
                    );
                }
                // Apply the best pair (if any) to reach a new state.
                let best = db
                    .sharing_pairs()
                    .into_iter()
                    .max_by(|&(a, b), &(c, d)| db.pair_gain(a, b).total_cmp(&db.pair_gain(c, d)));
                match best {
                    Some((x, y)) if db.pair_gain(x, y) > 0.0 => {
                        db.merge(x, y);
                    }
                    _ => break,
                }
            }
        }
    }

    #[test]
    fn gain_view_matches_database_scoring() {
        let (db, _) = build_paper_db();
        let view = db.gain_view();
        for &(x, y) in db.sharing_pairs().iter() {
            assert_eq!(view.pair_gain(x, y), db.pair_gain(x, y));
            assert_eq!(
                view.pair_gain_upper_bound(x, y),
                db.pair_gain_upper_bound(x, y)
            );
            assert!(view.is_live(x) && view.is_live(y));
        }
        // Views are Copy and usable from worker threads.
        let pairs = db.sharing_pairs();
        let expected: Vec<f64> = pairs.iter().map(|&(x, y)| db.pair_gain(x, y)).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .iter()
                .map(|&(x, y)| {
                    let v = db.gain_view();
                    s.spawn(move || v.pair_gain(x, y))
                })
                .collect();
            for (h, want) in handles.into_iter().zip(&expected) {
                assert_eq!(h.join().unwrap(), *want);
            }
        });
    }

    /// A database's full logical state through public accessors: rows
    /// (sorted), per-coreset frequencies, data cost, model cost.
    type DbDigest = (
        Vec<(CoresetId, LeafsetId, Vec<VertexId>)>,
        Vec<u64>,
        f64,
        f64,
    );

    fn digest(db: &InvertedDb) -> DbDigest {
        let mut rows: Vec<_> = db.iter_rows().map(|(e, l, p)| (e, l, p.to_vec())).collect();
        rows.sort();
        let freqs = (0..db.coreset_count() as CoresetId)
            .map(|e| db.coreset_freq(e))
            .collect();
        (rows, freqs, db.data_cost(), db.model_cost())
    }

    /// `from_pristine_rows` fed a fresh build's own rows must land on a
    /// database bit-identical to that build (floats included) — the
    /// invariant warm snapshot restores rest on.
    #[test]
    fn restored_database_matches_fresh_build() {
        let (g, _) = paper_example();
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            let fresh = InvertedDb::build(&g, CoresetMode::SingleValue, policy);
            let mut rows: Vec<(CoresetId, LeafsetId, Vec<VertexId>)> = fresh
                .iter_rows()
                .map(|(e, l, p)| (e, l, p.to_vec()))
                .collect();
            rows.sort();
            let restored = InvertedDb::from_pristine_rows(
                &g,
                policy,
                rows.iter().map(|(e, l, p)| (*e, *l, p.as_slice())),
            )
            .unwrap();
            assert!(restored.is_pristine());
            assert_eq!(digest(&restored), digest(&fresh));
            assert_eq!(restored.total_dl().to_bits(), fresh.total_dl().to_bits());
            assert_eq!(
                restored.conditional_entropy().to_bits(),
                fresh.conditional_entropy().to_bits()
            );
        }
    }

    /// Every structural violation in serialized rows is a typed
    /// [`RestoreError`], never a panic.
    #[test]
    fn restore_rejects_mangled_rows() {
        let (g, _) = paper_example();
        type Rows = Vec<(CoresetId, LeafsetId, Vec<VertexId>)>;
        let build = |rows: Rows| {
            InvertedDb::from_pristine_rows(
                &g,
                GainPolicy::Total,
                rows.iter().map(|(e, l, p)| (*e, *l, p.as_slice())),
            )
        };
        let cases: Vec<(Rows, &str)> = vec![
            (vec![(99, 0, vec![0])], "unknown coreset"),
            (vec![(0, 99, vec![0])], "non-singleton leafset"),
            (vec![(0, 0, vec![])], "no positions"),
            (vec![(0, 0, vec![1, 0])], "not strictly sorted"),
            (vec![(0, 0, vec![0, 0])], "not strictly sorted"),
            (vec![(0, 0, vec![0, 99])], "beyond the graph"),
            (vec![(0, 0, vec![0]), (0, 0, vec![1])], "duplicate row"),
        ];
        for (rows, needle) in cases {
            let err = build(rows).unwrap_err();
            assert!(
                err.message.contains(needle),
                "expected '{needle}', got '{}'",
                err.message
            );
        }
    }

    /// `apply_delta` must land on a database *bit-identical* (in
    /// every observable respect, floats included) to a fresh build of
    /// the grown graph — the invariant warm session re-mining rests on.
    #[test]
    fn patched_database_matches_fresh_build() {
        use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
        let (g, _) = paper_example();
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, policy);
            assert!(db.is_pristine());

            let mut delta = GraphDelta::new();
            let w = delta.add_vertex(["d", "a"]); // "d" is a brand-new value
            delta.add_edge(w, DeltaVertex::Existing(1));
            delta.add_edge(w, DeltaVertex::Existing(4));
            delta.add_label(2, "b");
            let applied = delta.apply(&g).unwrap();

            let stats = db
                .apply_delta(&applied.graph, &applied.dirty_centers)
                .unwrap();
            assert_eq!(stats.new_coresets, 1, "value 'd' creates one coreset");
            assert!(stats.positions_added > 0);

            let fresh = InvertedDb::build(&applied.graph, CoresetMode::SingleValue, policy);
            assert_eq!(digest(&db), digest(&fresh));
            assert_eq!(db.total_dl(), fresh.total_dl(), "DL must match to the bit");
            assert_eq!(db.live_leafset_count(), fresh.live_leafset_count());
            assert_eq!(db.sharing_pairs(), fresh.sharing_pairs());
            // Every candidate pair scores identically on both.
            for &(x, y) in fresh.sharing_pairs().iter() {
                assert_eq!(db.pair_gain(x, y), fresh.pair_gain(x, y));
                assert_eq!(
                    db.pair_gain_upper_bound(x, y),
                    fresh.pair_gain_upper_bound(x, y)
                );
            }
        }
    }

    /// Churn patching: removals and label changes must also land bit-
    /// identical to a fresh build of the evolved graph, including rows
    /// that shrink, rows that empty out and are released, and rows
    /// whose dirty centers re-qualify with different leaves.
    #[test]
    fn churn_patched_database_matches_fresh_build() {
        use cspm_graph::dynamic::GraphDelta;
        let (g, _) = paper_example();
        let deltas: Vec<GraphDelta> = vec![
            {
                let mut d = GraphDelta::new();
                d.remove_edge(0, 1);
                d
            },
            {
                // Value "c" keeps occurring elsewhere, so the patch path
                // stays open while rows referencing v4's c-leaf shrink.
                let mut d = GraphDelta::new();
                d.remove_label(2, "c");
                d
            },
            {
                let mut d = GraphDelta::new();
                d.change_label(3, "b", "a");
                d
            },
            {
                let mut d = GraphDelta::new();
                d.remove_vertex(1);
                d
            },
        ];
        for policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            for delta in &deltas {
                let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, policy);
                let applied = delta.apply(&g).unwrap();
                let stats = match db.apply_delta(&applied.graph, &applied.dirty_centers) {
                    Ok(stats) => stats,
                    Err(PatchError::VanishedAttribute(_)) => continue, // legit fallback
                    Err(e) => panic!("unexpected patch error: {e}"),
                };
                assert!(stats.positions_removed > 0, "churn must clear positions");
                let fresh = InvertedDb::build(&applied.graph, CoresetMode::SingleValue, policy);
                assert_eq!(digest(&db), digest(&fresh), "delta {delta:?}");
                assert_eq!(db.total_dl().to_bits(), fresh.total_dl().to_bits());
                assert_eq!(db.live_leafset_count(), fresh.live_leafset_count());
                assert_eq!(db.sharing_pairs(), fresh.sharing_pairs());
                for &(x, y) in fresh.sharing_pairs().iter() {
                    assert_eq!(db.pair_gain(x, y), fresh.pair_gain(x, y));
                }
            }
        }
    }

    /// A removal that wipes out an attribute value's last occurrence
    /// must be refused (a fresh build would renumber), never silently
    /// patched into a desynced database.
    #[test]
    fn vanished_attribute_is_rejected_not_corrupted() {
        use cspm_graph::dynamic::GraphDelta;
        use cspm_graph::AttrTable;
        // attrs: a=0 on both vertices, b=1 only on vertex 1.
        let mut attrs = AttrTable::new();
        let (a, b) = (attrs.intern("a"), attrs.intern("b"));
        let g = AttributedGraph::from_edge_list(vec![vec![a], vec![a, b]], attrs, [(0u32, 1u32)])
            .unwrap();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        assert_eq!(db.coreset_count(), 2);
        let before = digest(&db);
        let mut delta = GraphDelta::new();
        delta.remove_label(1, "b");
        let applied = delta.apply(&g).unwrap();
        assert_eq!(
            db.apply_delta(&applied.graph, &applied.dirty_centers),
            Err(PatchError::VanishedAttribute(b))
        );
        assert_eq!(digest(&db), before, "refused patch must not mutate");
    }

    #[test]
    fn patch_preconditions_are_enforced() {
        let (g, _) = paper_example();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let (x, y) = db.sharing_pairs()[0];
        db.merge(x, y);
        assert!(!db.is_pristine());
        assert_eq!(db.apply_delta(&g, &[]), Err(PatchError::NotPristine));

        let mut db = InvertedDb::build(&g, CoresetMode::Slim, GainPolicy::Total);
        assert_eq!(
            db.apply_delta(&g, &[]),
            Err(PatchError::UnsupportedCoresetMode)
        );
    }

    /// Regression: a base interner carrying an unused value desyncs
    /// coreset ids from attr ids at build time. The patch must detect
    /// that on the *database* — a delta attaching the formerly unused
    /// value makes the grown graph look perfectly healthy, which is
    /// exactly how the original grown-graph check was fooled into
    /// silently corrupting the patch.
    #[test]
    fn desynced_numbering_is_rejected_not_corrupted() {
        use cspm_graph::dynamic::GraphDelta;
        use cspm_graph::AttrTable;
        // attrs: a=0, b=1 (unused!), c=2.
        let mut attrs = AttrTable::new();
        let (a, b, c) = (attrs.intern("a"), attrs.intern("b"), attrs.intern("c"));
        assert_eq!((a, b, c), (0, 1, 2));
        let labels = vec![vec![a], vec![c], vec![a, c]];
        let g = AttributedGraph::from_edge_list(labels, attrs, [(0u32, 1u32), (1, 2)]).unwrap();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        // Build skipped b: coreset 1 is {c}, not {b} — desynced.
        assert_eq!(db.coreset_count(), 2);

        // Mid-table desync: rejected whether or not the delta attaches
        // the unused value.
        let mut delta = GraphDelta::new();
        delta.add_label(0, "b");
        let applied = delta.apply(&g).unwrap();
        assert_eq!(
            db.apply_delta(&applied.graph, &applied.dirty_centers),
            Err(PatchError::NonCanonicalCoresets(1))
        );

        // Tail desync: unused value at the END of the table passes the
        // numbering check (coresets 0..n are canonical) but a fresh
        // build of the unchanged-frequency graph would still skip it.
        let mut attrs = AttrTable::new();
        let (a, z) = (attrs.intern("a"), attrs.intern("z"));
        assert_eq!((a, z), (0, 1));
        let g2 =
            AttributedGraph::from_edge_list(vec![vec![a], vec![a]], attrs, [(0u32, 1u32)]).unwrap();
        let mut db2 = InvertedDb::build(&g2, CoresetMode::SingleValue, GainPolicy::Total);
        assert_eq!(db2.coreset_count(), 1);
        let mut delta = GraphDelta::new();
        delta.add_edge(
            cspm_graph::dynamic::DeltaVertex::Existing(0),
            cspm_graph::dynamic::DeltaVertex::Existing(1),
        ); // duplicate edge: z stays unattached
        let applied = delta.apply(&g2).unwrap();
        assert_eq!(
            db2.apply_delta(&applied.graph, &applied.dirty_centers),
            Err(PatchError::EmptyAttribute(1))
        );
    }

    #[test]
    fn empty_patch_is_identity() {
        let (g, _) = paper_example();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let before = digest(&db);
        let stats = db.apply_delta(&g, &[]).unwrap();
        assert_eq!(stats, PatchStats::default());
        assert_eq!(digest(&db), before);
        assert!(db.is_pristine());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The row index survives every mutation path: random mines
        /// under both schedules and both pricings (`merge` runs
        /// `check_index` after every merge in test builds), a churn
        /// patch, and a restore from rows fed in reverse order, which
        /// must list its rows exactly as the build it came from.
        #[test]
        fn row_index_stays_consistent(
            n in 4usize..160,
            k in 2usize..16,
            extra in 0usize..240,
            seed in 0u64..10_000,
        ) {
            use crate::config::CspmConfig;
            use crate::engine::{mine_with_policy, SchedulePolicy};
            use cspm_graph::dynamic::{DeltaVertex, GraphDelta};

            let g = super::seed::tests::random_graph(n, k, extra, 0, seed);
            for gain_policy in [GainPolicy::Total, GainPolicy::DataOnly] {
                for policy in [SchedulePolicy::FullRegeneration, SchedulePolicy::Incremental] {
                    let config = CspmConfig {
                        gain_policy,
                        threads: 1,
                        full_regen_max_pairs: None,
                        ..CspmConfig::default()
                    };
                    mine_with_policy(&g, policy, config).db.check_index();
                }

                let fresh = InvertedDb::build(&g, CoresetMode::SingleValue, gain_policy);
                fresh.check_index();
                let mut rows: Vec<_> =
                    fresh.iter_rows().map(|(e, l, p)| (e, l, p.into_owned())).collect();
                rows.reverse();
                let restored = InvertedDb::from_pristine_rows(
                    &g,
                    gain_policy,
                    rows.iter().map(|(e, l, p)| (*e, *l, p.as_slice())),
                )
                .unwrap();
                rows.reverse();
                let listed: Vec<_> =
                    restored.iter_rows().map(|(e, l, p)| (e, l, p.into_owned())).collect();
                proptest::prop_assert_eq!(listed, rows);

                let v = |i: u64| ((seed + i * 7919) % n as u64) as u32;
                let mut delta = GraphDelta::new();
                delta.remove_edge(v(1), v(1) + 1);
                delta.change_label(v(2), format!("a{}", seed % k as u64), "fresh");
                let w = delta.add_vertex([format!("a{}", (seed + 1) % k as u64)]);
                delta.add_edge(w, DeltaVertex::Existing(v(3)));
                if let Ok(applied) = delta.apply(&g) {
                    let mut patched = fresh.clone();
                    match patched.apply_delta(&applied.graph, &applied.dirty_centers) {
                        Ok(_) => patched.check_index(),
                        Err(PatchError::VanishedAttribute(_)) => {}
                        Err(e) => proptest::prop_assert!(false, "unexpected patch error: {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn multi_value_coresets_via_slim() {
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::Slim, GainPolicy::Total);
        // Every vertex's attributes are covered, so coresets exist and
        // every coreset has rows.
        assert!(db.coreset_count() >= 3);
        assert!(db.row_count() > 0);
        for e in 0..db.coreset_count() as CoresetId {
            let has_rows = db.iter_rows().any(|(c, _, _)| c == e);
            // Coresets at leaf-less vertices may have no rows; tolerated.
            let _ = has_rows;
        }
    }
}
