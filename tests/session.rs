//! Session-equivalence guarantees: a long-lived [`MiningSession`]
//! absorbing graph deltas must be *bit-identical* to cold re-mining —
//! same description lengths, same merges, same models, position for
//! position — at every thread count, and must stay reusable through
//! cancellation and compaction.

use std::ops::ControlFlow;

use cspm::core::{
    mine_dynamic, CspmConfig, CspmResult, FnObserver, IterationStat, Miner, SchedulePolicy,
};
use cspm::graph::dynamic::{DeltaVertex, GraphDelta, SnapshotSequence};
use cspm::graph::{AttrId, AttributedGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// One mined a-star flattened for comparison: coreset values, leafset
/// values, positions, frequency, and the code length *as bits*.
type AStarDigest = (Vec<AttrId>, Vec<AttrId>, Vec<VertexId>, u64, u64);

/// Full digest of a mined model: every field that could expose a
/// divergence between warm and cold mining. Floats are compared by
/// bits (`to_bits`), not by tolerance — "bit-identical" is the claim.
fn model_digest(res: &CspmResult) -> Vec<AStarDigest> {
    res.model
        .astars()
        .iter()
        .map(|m| {
            (
                m.astar.coreset().to_vec(),
                m.astar.leafset().to_vec(),
                m.positions.clone(),
                m.frequency,
                m.code_len.to_bits(),
            )
        })
        .collect()
}

fn assert_bit_identical(warm: &CspmResult, cold: &CspmResult, label: &str) {
    assert_eq!(
        warm.final_dl.to_bits(),
        cold.final_dl.to_bits(),
        "{label}: final DL diverged ({} vs {})",
        warm.final_dl,
        cold.final_dl
    );
    assert_eq!(warm.merges, cold.merges, "{label}: merge counts diverged");
    assert_eq!(
        warm.stats.total_gain_evals, cold.stats.total_gain_evals,
        "{label}: evaluation counts diverged"
    );
    assert_eq!(
        model_digest(warm),
        model_digest(cold),
        "{label}: mined models diverged"
    );
}

/// Deterministic xorshift for fixture construction inside proptest.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A small connected random graph over `k` label families.
fn random_graph(n: usize, k: usize, state: &mut u64) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_vertex([format!("a{}", xorshift(state) as usize % k)]);
    }
    for v in 1..n {
        b.add_edge(v as u32 - 1, v as u32).unwrap();
    }
    for _ in 0..n {
        let (u, w) = (xorshift(state) as usize % n, xorshift(state) as usize % n);
        if u != w {
            let _ = b.add_edge(u as u32, w as u32);
        }
    }
    b.build().unwrap()
}

/// A random additive delta against a graph of `n` vertices: new
/// vertices wired to existing ones, extra edges, extra labels.
fn random_delta(n: usize, k: usize, state: &mut u64) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let new = 1 + xorshift(state) as usize % 3;
    for _ in 0..new {
        let v = delta.add_vertex([
            format!("a{}", xorshift(state) as usize % k),
            format!("fresh{}", xorshift(state) as usize % 2),
        ]);
        delta.add_edge(
            v,
            DeltaVertex::Existing((xorshift(state) as usize % n) as u32),
        );
    }
    for _ in 0..xorshift(state) as usize % 3 {
        let (u, w) = (
            (xorshift(state) as usize % n) as u32,
            (xorshift(state) as usize % n) as u32,
        );
        if u != w {
            delta.add_edge(DeltaVertex::Existing(u), DeltaVertex::Existing(w));
        }
    }
    for _ in 0..xorshift(state) as usize % 3 {
        delta.add_label(
            (xorshift(state) as usize % n) as u32,
            format!("a{}", xorshift(state) as usize % k),
        );
    }
    delta
}

proptest! {
    /// (a) Replaying a snapshot sequence through one session —
    /// cold-mine the first snapshot, `apply_delta` each later one —
    /// ends bit-identical to `mine_dynamic` over the sequence *and* to
    /// a cold re-mine of the union graph, at threads ∈ {1, 4} and
    /// under both variants.
    #[test]
    fn session_replay_matches_mine_dynamic_and_cold(
        n in 5usize..12,
        k in 2usize..4,
        snapshots in 2usize..4,
        seed in 0u64..300,
    ) {
        let mut state = seed | 1;
        let seq: SnapshotSequence = (0..snapshots)
            .map(|_| random_graph(n, k, &mut state))
            .collect();
        let union = seq.union_graph();
        let (first, deltas) = seq.replay().unwrap();

        for schedule in [SchedulePolicy::FullRegeneration, SchedulePolicy::Incremental] {
            for threads in [1usize, 4] {
                let config = CspmConfig::default().with_threads(threads);
                let label = format!("{schedule:?} @ {threads} threads (seed {seed})");

                let mut session = Miner::from_config(config).policy(schedule).build();
                let mut warm = session.mine(&first);
                for delta in &deltas {
                    warm = session.apply_delta(delta).unwrap();
                }

                let dynamic = mine_dynamic(&seq, Miner::from_config(config).policy(schedule));
                assert_bit_identical(&warm, &dynamic.result, &format!("{label} vs mine_dynamic"));

                let cold = Miner::from_config(config).policy(schedule).build().mine(&union);
                assert_bit_identical(&warm, &cold, &format!("{label} vs cold re-mine"));
            }
        }
    }

    /// (a′) The stronger form: arbitrary additive deltas — cross-
    /// component edges, new labels on old vertices, brand-new values —
    /// applied one at a time, each warm result checked against a cold
    /// mine of the grown graph at threads ∈ {1, 4}.
    #[test]
    fn incremental_deltas_match_cold_mines(
        n in 5usize..12,
        k in 2usize..4,
        steps in 1usize..4,
        seed in 0u64..300,
    ) {
        let mut state = seed.wrapping_mul(2654435761) | 1;
        let base = random_graph(n, k, &mut state);
        for threads in [1usize, 4] {
            let mut state = seed | 1;
            let config = CspmConfig::default().with_threads(threads);
            let mut session = Miner::from_config(config).build();
            session.mine(&base);
            let mut current = base.clone();
            for step in 0..steps {
                let delta = random_delta(current.vertex_count(), k, &mut state);
                let warm = session.apply_delta(&delta).unwrap();
                current = delta.apply(&current).unwrap().graph;
                let cold = Miner::from_config(config).build().mine(&current);
                assert_bit_identical(
                    &warm,
                    &cold,
                    &format!("step {step} @ {threads} threads (seed {seed})"),
                );
            }
        }
    }

    /// (b) Cancelling through the observer never corrupts the session:
    /// the cancelled result is a valid monotone prefix, and the very
    /// next run — and the next cold `mine` of a *different* graph — are
    /// exactly what a fresh session produces.
    #[test]
    fn cancellation_leaves_session_reusable(
        n in 6usize..12,
        k in 2usize..4,
        cancel_after in 1usize..4,
        seed in 0u64..300,
    ) {
        let mut state = seed | 1;
        let g = random_graph(n, k, &mut state);
        let h = random_graph(n, k, &mut state);

        let mut session = Miner::new().build();
        let full = session.mine(&g);

        let mut left = cancel_after;
        let cancelled = session
            .run_with(&mut FnObserver(|_s: &IterationStat| {
                left -= 1;
                if left == 0 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
            }))
            .unwrap();
        if cancelled.stats.cancelled {
            prop_assert_eq!(cancelled.merges, cancel_after);
        } else {
            // The run converged before the cancellation point.
            prop_assert!(full.merges < cancel_after);
        }
        prop_assert!(cancelled.final_dl >= full.final_dl - 1e-9);
        prop_assert!(cancelled.final_dl <= cancelled.initial_dl + 1e-9);

        // Re-run completes and reproduces the uncancelled result.
        let rerun = session.run_with(&mut FnObserver(|_s: &IterationStat| {
            ControlFlow::Continue(())
        })).unwrap();
        assert_bit_identical(&rerun, &full, "re-run after cancellation");

        // And the session accepts fresh work as if nothing happened.
        let warm_h = session.mine(&h);
        let cold_h = Miner::new().build().mine(&h);
        assert_bit_identical(&warm_h, &cold_h, "mine after cancellation");
    }
}

/// Acceptance: a shrink-heavy delta sequence fragments the retained
/// arena; pressure-triggered compaction brings `live_len/arena_len`
/// back to 1.0 without perturbing results.
#[test]
fn delta_traffic_triggers_compaction_back_to_one() {
    let mut state = 42u64;
    let base = random_graph(24, 3, &mut state);
    let mut session = Miner::new().compact_above(1.05).build();
    session.mine(&base);

    let mut current = base;
    let mut compacted_at_least_once = false;
    for _ in 0..6 {
        let delta = random_delta(current.vertex_count(), 3, &mut state);
        let stats = session.stage_delta(&delta).unwrap();
        current = delta.apply(&current).unwrap().graph;
        compacted_at_least_once |= stats.compacted;
        if stats.compacted {
            assert_eq!(stats.fragmentation, 1.0, "compaction must be exact");
        }
    }
    assert!(
        compacted_at_least_once,
        "patch traffic at a 1.05 threshold must trigger compaction"
    );
    assert!(session.compactions() >= 1);

    // The compacted warm state still mines bit-identically.
    let warm = session
        .run_with(&mut FnObserver(|_s: &IterationStat| {
            ControlFlow::Continue(())
        }))
        .unwrap();
    let cold = Miner::new().build().mine(&current);
    assert_bit_identical(&warm, &cold, "post-compaction run");
}

/// Without auto-compaction, sustained delta traffic visibly fragments
/// the retained arena — the pressure the session API exists to relieve.
#[test]
fn fragmentation_accumulates_without_compaction() {
    let mut state = 7u64;
    let base = random_graph(24, 3, &mut state);
    let mut session = Miner::new().compact_above(f64::INFINITY).build();
    session.mine(&base);

    let mut current = base;
    for _ in 0..8 {
        let delta = random_delta(current.vertex_count(), 3, &mut state);
        session.stage_delta(&delta).unwrap();
        current = delta.apply(&current).unwrap().graph;
    }
    assert!(
        session.fragmentation() > 1.0,
        "expected fragmentation to accumulate, got {}",
        session.fragmentation()
    );
    assert_eq!(session.compactions(), 0);
    session.compact_now();
    assert_eq!(session.fragmentation(), 1.0);
}
