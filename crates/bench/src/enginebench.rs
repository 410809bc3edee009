//! Storage-layer benchmark harness for the mining engine.
//!
//! This module extracts a *storage-agnostic merge workload* from a real
//! inverted database — the initial rows plus a deterministic merge
//! schedule — and replays the §IV-E storage mutations on the flat
//! [`PostingStore`] arena ([`MergeWorkload::replay_flat`]: arena spans,
//! in-place difference and union, free-list reuse), so the storage
//! layer can be timed apart from gain scoring and scheduling.

use std::collections::HashMap;

use cspm_core::{CoresetMode, GainPolicy, InvertedDb, PostingStore};
use cspm_graph::{AttributedGraph, VertexId};

/// A storage-agnostic replay of the merge loop's row mutations.
#[derive(Debug, Clone)]
pub struct MergeWorkload {
    /// Initial rows: `(coreset, leafset, sorted positions)`.
    rows: Vec<(u32, u32, Vec<VertexId>)>,
    /// Merge schedule: `(x, y, union leafset)` triples.
    schedule: Vec<(u32, u32, u32)>,
    /// Number of coresets.
    n_coresets: usize,
}

impl MergeWorkload {
    /// Builds the workload from a graph: the initial inverted database's
    /// rows plus a schedule that merges every initially-sharing leafset
    /// pair in deterministic order.
    pub fn from_graph(g: &AttributedGraph) -> Self {
        let db = InvertedDb::build(g, CoresetMode::SingleValue, GainPolicy::Total);
        let rows: Vec<(u32, u32, Vec<VertexId>)> =
            db.iter_rows().map(|(e, l, p)| (e, l, p.to_vec())).collect();
        // Union ids are hashed into a small bucket space above the
        // existing leafset ids: distinct pairs can land on the same
        // union row, so the replay exercises union *growth* (in-place
        // merge and relocation), not just union creation. Bucket ids
        // never collide with scheduled parents (those all pre-exist).
        let base = rows.iter().map(|&(_, l, _)| l).max().unwrap_or(0) + 1;
        let schedule = db
            .sharing_pairs()
            .into_iter()
            .map(|(x, y)| (x, y, base + (x.wrapping_mul(31).wrapping_add(y)) % 64))
            .collect();
        Self {
            rows,
            schedule,
            n_coresets: db.coreset_count(),
        }
    }

    /// Total scheduled merges.
    pub fn merge_count(&self) -> usize {
        self.schedule.len()
    }

    /// Replays the schedule on the flat posting-list arena. Returns a
    /// position-sum checksum of the surviving rows.
    pub fn replay_flat(&self) -> u64 {
        let mut store =
            PostingStore::with_capacity(self.rows.iter().map(|(_, _, p)| p.len()).sum());
        let mut maps: Vec<HashMap<u32, cspm_core::RowId>> = vec![HashMap::new(); self.n_coresets];
        for (e, l, p) in &self.rows {
            maps[*e as usize].insert(*l, store.insert(p));
        }
        let mut common = Vec::new();
        for &(x, y, n) in &self.schedule {
            for map in maps.iter_mut() {
                let Some(&rx) = map.get(&x) else { continue };
                let Some(&ry) = map.get(&y) else { continue };
                store.intersect_into(rx, ry, &mut common);
                if common.is_empty() {
                    continue;
                }
                for (parent, row) in [(x, rx), (y, ry)] {
                    if store.difference(row, &common) == 0 {
                        map.remove(&parent);
                        store.release(row);
                    }
                }
                match map.get(&n) {
                    Some(&rn) => {
                        store.union_in_place(rn, &common);
                    }
                    None => {
                        let rn = store.insert(&common);
                        map.insert(n, rn);
                    }
                }
            }
        }
        maps.iter()
            .flat_map(|m| m.values())
            .map(|&r| store.positions(r).iter().map(|&v| v as u64).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_datasets::{dblp_like, Scale};

    // The expected checksums were produced by the `HashMap`-row
    // reference replay this harness used to compare against (one heap
    // `Vec` per row, rebuilt on every union), which agreed with
    // `replay_flat` on both fixtures.

    #[test]
    fn backends_do_identical_work() {
        let d = dblp_like(Scale::Tiny, 7);
        let w = MergeWorkload::from_graph(&d.graph);
        assert!(w.merge_count() > 0);
        assert_eq!(w.replay_flat(), 4220);
    }

    #[test]
    fn paper_example_checksums_agree() {
        let (g, _) = cspm_graph::fixtures::paper_example();
        let w = MergeWorkload::from_graph(&g);
        assert_eq!(w.replay_flat(), 15);
    }
}
