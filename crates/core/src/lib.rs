//! CSPM — Compressing Star Pattern Miner.
//!
//! The paper's primary contribution (Liu et al., ICDE 2022): a
//! parameter-free algorithm that mines *attribute-stars* from an
//! attributed graph by greedily merging leafsets in an inverted database
//! so as to minimise the description length under a conditional-entropy
//! code (§IV), with the partial-update optimization of §V.
//!
//! # Architecture
//!
//! Inputs arrive as [`cspm_graph::AttributedGraph`]s — built in code
//! via `cspm_graph::GraphBuilder`, generated by `cspm-datasets`, or
//! streamed from real dataset dumps by its `ingest` module (feature
//! `real-data`; formats in `docs/FORMATS.md`). From there everything
//! dispatches through one [`engine`] (the full repo-level data flow is
//! mapped in `ARCHITECTURE.md`):
//!
//! | Layer | Module | Role |
//! |---|---|---|
//! | storage | [`positions`] | sorted-slice set algebra + the flat [`PostingStore`] arena backing every row (+ [`PostingView`], its shared read-only snapshot; `compact()` repacks a fragmented arena) |
//! | database | [`InvertedDb`] | §IV-B rows over the arena, indexed once per leafset as sorted `(coreset, row)` records (per-coreset passes read a derived transpose; [`InvertedDb::iter_rows`] lists ascending `(coreset, leafset)`), exact DL bookkeeping, the §IV-E merge, in-place graph-delta patching; [`GainView`] scores candidates read-only (exact gain + the Algorithm 2 pruning bound) |
//! | engine | [`engine`] | the greedy merge loop + [`CandidateScheduler`]; Algorithm 1 and Algorithm 3 are its two [`SchedulePolicy`] values; candidate batches are scored across a scoped worker pool, deterministically at every thread count; a [`ProgressObserver`] rides along for per-merge callbacks and cancellation |
//! | **sessions** | [`session`] | the primary API: a [`Miner`]-built [`MiningSession`] owns the database + arena across calls, absorbs [`GraphDelta`](cspm_graph::dynamic::GraphDelta)s incrementally, re-mines warm (bit-identically), and compacts the arena under pressure |
//! | façade | [`cspm_basic`] / [`cspm_partial`] / [`mine`] / [`mine_dynamic`] | one-shot wrappers over a session |
//!
//! Scheduling is tuned by two [`CspmConfig`] knobs — `threads` (scoring
//! worker count, `0` = auto) and `full_regen_max_pairs` (candidate-pair
//! threshold past which [`SchedulePolicy::FullRegeneration`] delegates
//! to the incremental policy). Both change only how fast the model is
//! found, never which model; see the [`engine`] docs for the
//! determinism guarantees.
//!
//! # Quick example
//!
//! A long-lived session mines a graph, then absorbs an evolution step
//! and re-mines warm — bit-identical to a cold run on the grown graph:
//!
//! ```
//! use cspm_core::Miner;
//! use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
//! use cspm_graph::fixtures::paper_example;
//!
//! let (graph, _) = paper_example();
//! let mut session = Miner::new().threads(1).build();
//!
//! let cold = session.mine(&graph);
//! assert!(cold.final_dl <= cold.initial_dl);
//! for pattern in cold.model.astars().iter().take(3) {
//!     println!("{} ({:.2} bits)", pattern.astar.display(graph.attrs()), pattern.code_len);
//! }
//!
//! // The graph evolves: one new vertex, wired to an existing one.
//! let mut delta = GraphDelta::new();
//! let v = delta.add_vertex(["a", "c"]);
//! delta.add_edge(v, DeltaVertex::Existing(0));
//! let warm = session.apply_delta(&delta).unwrap();
//! assert!(warm.final_dl <= warm.initial_dl);
//! ```
//!
//! The one-shot free functions ([`cspm_partial`] & friends) remain for
//! single runs; they are documented wrappers over a throwaway session.

mod basic;
mod config;
mod decode;
mod dynamic;
pub mod engine;
mod inverted;
mod metrics;
mod model;
mod partial;
pub mod pool;
pub mod positions;
pub mod registry;
pub mod session;
mod stats;

pub use basic::cspm_basic;
pub use config::{CoresetMode, CspmConfig, GainPolicy, IterationStat, RunStats};
pub use decode::{decode_neighborhood, true_neighborhood, verify_lossless, LossError};
pub use dynamic::{mine_dynamic, DynamicResult, TemporalOccurrences};
pub use engine::{CandidateScheduler, CspmResult, ProgressObserver, SchedulePolicy};
pub use inverted::{
    Coreset, CoresetId, GainView, InvertedDb, LeafsetId, MergeOutcome, PairList, PatchError,
    PatchStats, RestoreError, SeedGains,
};
pub use model::{MinedAStar, MinedModel};
pub use partial::cspm_partial;
pub use pool::{PoolError, WorkerPool};
pub use positions::{PostingPolicy, PostingReprStats, PostingStore, PostingView, RowId};
pub use registry::{PressureOutcome, ResidentFootprint, SessionRegistry};
pub use session::{DeltaStats, FnObserver, Miner, MiningSession, SessionError};
pub use stats::ModelSummary;

use cspm_graph::AttributedGraph;

/// Which CSPM variant to run. Both variants are scheduling policies of
/// the same [`engine`]; see [`SchedulePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// CSPM-Basic (Algorithm 1): full candidate regeneration each
    /// iteration.
    Basic,
    /// CSPM-Partial (Algorithm 3): partial candidate updates via `rdict`.
    /// The default, as in the paper's applications ("CSPM-Partial is
    /// adopted for the two applications owing to its efficiency").
    #[default]
    Partial,
}

impl Variant {
    /// The engine scheduling policy this variant compiles down to.
    pub fn policy(self) -> SchedulePolicy {
        match self {
            Variant::Basic => SchedulePolicy::FullRegeneration,
            Variant::Partial => SchedulePolicy::Incremental,
        }
    }
}

/// High-level entry point: runs the selected variant through the
/// unified [`engine`].
pub fn mine(g: &AttributedGraph, variant: Variant, config: CspmConfig) -> CspmResult {
    engine::mine_with_policy(g, variant.policy(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_graph::fixtures::paper_example;

    #[test]
    fn mine_dispatches_both_variants() {
        let (g, _) = paper_example();
        let b = mine(&g, Variant::Basic, CspmConfig::default());
        let p = mine(&g, Variant::Partial, CspmConfig::default());
        assert!(b.final_dl <= b.initial_dl);
        assert!(p.final_dl <= p.initial_dl);
        assert_eq!(Variant::default(), Variant::Partial);
    }
}
