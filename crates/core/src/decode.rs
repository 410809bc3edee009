//! Lossless decoding of the inverted database.
//!
//! The paper's problem statement requires compressing "the original
//! information of the attributed graph G **losslessly**" (§IV-A). The
//! information the inverted database carries is, for every coreset
//! occurrence `(vertex v, coreset Sc)`, the set of attribute values
//! appearing on `v`'s neighbours. Merging moves positions between rows
//! but never drops them, so decoding — uniting the leafsets of all rows
//! whose position sets contain `v` — must reproduce that neighbourhood
//! information exactly. [`verify_lossless`] checks this against the
//! original graph; it is used by integration and property tests and is
//! exposed for downstream users who want end-to-end assurance.

use std::collections::BTreeSet;

use cspm_graph::{AttrId, AttributedGraph, VertexId};

use crate::inverted::{CoresetId, InvertedDb};

/// A decoding failure: the reconstructed neighbourhood of one coreset
/// occurrence differs from the graph's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossError {
    /// The vertex whose neighbourhood decoded incorrectly.
    pub vertex: VertexId,
    /// The coreset at that vertex.
    pub coreset: CoresetId,
    /// Leaf values present in the graph but missing from the decode.
    pub missing: Vec<AttrId>,
    /// Leaf values produced by the decode but absent from the graph.
    pub spurious: Vec<AttrId>,
}

/// Decodes the neighbourhood attribute set of vertex `v` under coreset
/// `e`: the union of the leafsets of all rows of `e` whose positions
/// contain `v`.
pub fn decode_neighborhood(db: &InvertedDb, e: CoresetId, v: VertexId) -> BTreeSet<AttrId> {
    let mut out = BTreeSet::new();
    for &(lid, row) in db.rows_by_coreset().of(e) {
        if db.posting_store().positions(row).binary_search(&v).is_ok() {
            out.extend(db.leafset_items(lid).iter().copied());
        }
    }
    out
}

/// The ground truth: attribute values on the neighbours of `v`.
pub fn true_neighborhood(g: &AttributedGraph, v: VertexId) -> BTreeSet<AttrId> {
    g.neighbors(v)
        .iter()
        .flat_map(|&u| g.labels(u).iter().copied())
        .collect()
}

/// Verifies that the (possibly heavily merged) inverted database still
/// describes the graph losslessly. Returns every violation found
/// (empty = lossless), ordered by coreset, then by the coreset's
/// positions.
///
/// Each coreset is decoded in one pass over its own rows: every row
/// position is tagged with the row's leafset values and the tags are
/// sorted by vertex, so the whole check costs O(positions · log)
/// rather than a scan of the database per occurrence. Row positions
/// outside the coreset's positions decode nothing.
pub fn verify_lossless(g: &AttributedGraph, db: &InvertedDb) -> Vec<LossError> {
    let mut errors = Vec::new();
    // `(row position, decoded value)` for the current coreset.
    let mut tagged: Vec<(VertexId, AttrId)> = Vec::new();
    let by_coreset = db.rows_by_coreset();
    for (e, coreset) in db.coresets().iter().enumerate() {
        let e = e as CoresetId;
        tagged.clear();
        for &(lid, row) in by_coreset.of(e) {
            let items = db.leafset_items(lid);
            for &v in db.posting_store().positions(row).iter() {
                tagged.extend(items.iter().map(|&a| (v, a)));
            }
        }
        tagged.sort_unstable();
        let mut rest = tagged.as_slice();
        for &v in &coreset.positions {
            rest = &rest[rest.partition_point(|&(w, _)| w < v)..];
            let (values, tail) = rest.split_at(rest.partition_point(|&(w, _)| w == v));
            rest = tail;
            if g.neighbors(v).is_empty() {
                continue; // isolated occurrences produce no rows
            }
            let decoded: BTreeSet<AttrId> = values.iter().map(|&(_, a)| a).collect();
            let truth = true_neighborhood(g, v);
            if decoded != truth {
                errors.push(LossError {
                    vertex: v,
                    coreset: e,
                    missing: truth.difference(&decoded).copied().collect(),
                    spurious: decoded.difference(&truth).copied().collect(),
                });
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoresetMode, CspmConfig, GainPolicy};
    use crate::{Miner, SchedulePolicy};
    use cspm_graph::fixtures::{labelled_path, paper_example};

    #[test]
    fn initial_db_is_lossless() {
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        assert!(verify_lossless(&g, &db).is_empty());
    }

    #[test]
    fn converged_db_is_lossless_both_variants() {
        let (g, _) = paper_example();
        for result in [
            Miner::from_config(CspmConfig::default())
                .policy(SchedulePolicy::FullRegeneration)
                .mine(&g),
            Miner::from_config(CspmConfig::default())
                .policy(SchedulePolicy::Incremental)
                .mine(&g),
        ] {
            let errors = verify_lossless(&g, &result.db);
            assert!(errors.is_empty(), "loss after mining: {errors:?}");
        }
    }

    #[test]
    fn lossless_on_path_fixture() {
        let g = labelled_path(12, 3);
        let result = Miner::from_config(CspmConfig::default()).mine(&g);
        assert!(verify_lossless(&g, &result.db).is_empty());
    }

    #[test]
    fn decode_matches_manual_expectation() {
        // v1 of the paper example under coreset {a}: neighbours v2{a,c},
        // v3{c}, v4{b} -> {a, b, c}.
        let (g, at) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let e = db
            .coresets()
            .iter()
            .position(|c| c.items == [at.a])
            .unwrap() as CoresetId;
        let decoded = decode_neighborhood(&db, e, 0);
        let expected: BTreeSet<AttrId> = [at.a, at.b, at.c].into_iter().collect();
        assert_eq!(decoded, expected);
        assert_eq!(true_neighborhood(&g, 0), expected);
    }

    /// The decoder `verify_lossless` had before its per-coreset pass:
    /// one scan of every database row per coreset occurrence.
    fn oracle_verify(g: &AttributedGraph, db: &InvertedDb) -> Vec<LossError> {
        let mut errors = Vec::new();
        for (e, coreset) in db.coresets().iter().enumerate() {
            let e = e as CoresetId;
            for &v in &coreset.positions {
                if g.neighbors(v).is_empty() {
                    continue;
                }
                let mut decoded = BTreeSet::new();
                for (row_e, lid, positions) in db.iter_rows() {
                    if row_e == e && positions.binary_search(&v).is_ok() {
                        decoded.extend(db.leafset_items(lid).iter().copied());
                    }
                }
                let truth = true_neighborhood(g, v);
                if decoded != truth {
                    errors.push(LossError {
                        vertex: v,
                        coreset: e,
                        missing: truth.difference(&decoded).copied().collect(),
                        spurious: decoded.difference(&truth).copied().collect(),
                    });
                }
            }
        }
        errors
    }

    /// Corrupted databases — rows restored with a position dropped, a
    /// position added (inside and outside the coreset's positions) or a
    /// row missing, and mined databases checked against a perturbed
    /// graph — report the same errors, in the same order, as the
    /// oracle, with both missing and spurious values caught.
    #[test]
    fn corrupted_databases_match_the_oracle() {
        type Rows = Vec<(CoresetId, u32, Vec<VertexId>)>;
        let g = labelled_path(40, 4);
        let fresh = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let mut rows: Rows = fresh
            .iter_rows()
            .map(|(e, l, p)| (e, l, p.to_vec()))
            .collect();
        rows.sort();
        // Adds to the first row that can take one a vertex it lacks,
        // from inside or outside its coreset's positions.
        let add = |rows: &mut Rows, inside: bool| {
            for (e, _, positions) in rows.iter_mut() {
                let at = &fresh.coresets()[*e as usize].positions;
                let fresh_vertex = (0..g.vertex_count() as VertexId).find(|v| {
                    at.binary_search(v).is_ok() == inside && positions.binary_search(v).is_err()
                });
                if let Some(v) = fresh_vertex {
                    positions.push(v);
                    positions.sort_unstable();
                    return;
                }
            }
            panic!("no row can take another position");
        };
        let (mut missing, mut spurious) = (false, false);
        for case in 0..5 {
            let mut bad = rows.clone();
            match case {
                0 => {
                    bad[0].2.pop();
                }
                1 => add(&mut bad, true),
                2 => {
                    bad.remove(bad.len() / 2);
                }
                3 => {
                    // Positions outside the coreset decode nothing; the
                    // dropped one is still caught.
                    add(&mut bad, false);
                    bad[1].2.remove(0);
                }
                _ => {
                    bad[2].2.remove(0);
                    add(&mut bad, true);
                }
            }
            bad.retain(|r| !r.2.is_empty());
            let db = InvertedDb::from_pristine_rows(
                &g,
                GainPolicy::Total,
                bad.iter().map(|(e, l, p)| (*e, *l, p.as_slice())),
            )
            .expect("structurally valid rows");
            let errors = verify_lossless(&g, &db);
            assert!(!errors.is_empty(), "corruption went unnoticed");
            assert_eq!(errors, oracle_verify(&g, &db));
            missing |= errors.iter().any(|e| !e.missing.is_empty());
            spurious |= errors.iter().any(|e| !e.spurious.is_empty());
        }
        assert!(missing && spurious, "both kinds of loss must be exercised");

        // A merged database against graphs it does not describe.
        let mined = Miner::from_config(CspmConfig::default()).mine(&g);
        assert!(mined.merges > 0);
        for other in [
            labelled_path(40, 3),
            labelled_path(41, 4),
            labelled_path(40, 5),
        ] {
            let errors = verify_lossless(&other, &mined.db);
            assert!(!errors.is_empty());
            assert_eq!(errors, oracle_verify(&other, &mined.db));
        }
        assert_eq!(verify_lossless(&g, &mined.db), oracle_verify(&g, &mined.db));
    }

    #[test]
    fn corrupted_db_is_detected() {
        // Removing a merge's worth of information must be caught: build,
        // merge, then compare against a *different* graph.
        let (g, _) = paper_example();
        let g2 = labelled_path(5, 2);
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        assert!(!verify_lossless(&g2, &db).is_empty());
    }
}
