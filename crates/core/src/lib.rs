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
//! dispatches through one merge loop, driven by a [`Miner`] (the full
//! repo-level data flow is mapped in `ARCHITECTURE.md`):
//!
//! | Layer | Module | Role |
//! |---|---|---|
//! | storage | [`positions`] | sorted-slice set algebra + the flat [`PostingStore`] arena backing every row (+ [`PostingView`], its shared read-only snapshot; `compact()` repacks a fragmented arena) |
//! | database | [`InvertedDb`] | §IV-B rows over the arena, indexed once per leafset as sorted `(coreset, row)` records (per-coreset passes read a derived transpose; [`InvertedDb::iter_rows`] lists ascending `(coreset, leafset)`), exact DL bookkeeping, the §IV-E merge, in-place graph-delta patching; [`GainView`] scores candidates read-only (exact gain + the Algorithm 2 pruning bound) |
//! | engine | `engine` (private) | the greedy merge loop + [`CandidateScheduler`]; Algorithm 1 and Algorithm 3 are its two [`SchedulePolicy`] values; candidate batches are scored across a scoped worker pool, deterministically at every thread count; a [`ProgressObserver`] rides along for per-merge callbacks and cancellation |
//! | **sessions** | [`session`] | the primary API: a [`Miner`] mines one-shot ([`Miner::mine`], or [`Miner::run`] on a prebuilt database) or builds a [`MiningSession`] that owns the database + arena across calls, absorbs [`GraphDelta`](cspm_graph::dynamic::GraphDelta)s incrementally, re-mines warm (bit-identically), and compacts the arena under pressure; [`mine_dynamic`] mines a snapshot sequence |
//!
//! Scheduling is tuned by two [`CspmConfig`] knobs — `threads` (scoring
//! worker count, `0` = auto) and `full_regen_max_pairs` (candidate-pair
//! threshold past which [`SchedulePolicy::FullRegeneration`] delegates
//! to the incremental policy). `threads` changes only how fast the
//! model is found, never which model (the `engine` module docs in the
//! source give the determinism guarantees); a delegated run mines with
//! the incremental policy, whose model can differ.
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

mod config;
mod decode;
mod dynamic;
mod engine;
mod inverted;
mod metrics;
mod model;
pub mod pool;
pub mod positions;
pub mod registry;
pub mod session;
mod stats;

pub use config::{CoresetMode, CspmConfig, GainPolicy, IterationStat, RunStats};
pub use decode::{decode_neighborhood, true_neighborhood, verify_lossless, LossError};
pub use dynamic::{mine_dynamic, DynamicResult, TemporalOccurrences};
pub use engine::{CandidateScheduler, CspmResult, ProgressObserver, SchedulePolicy};
pub use inverted::{
    Coreset, CoresetId, GainView, InvertedDb, LeafsetId, MergeOutcome, PairList, PatchError,
    PatchStats, RestoreError, SeedGains,
};
pub use model::{MinedAStar, MinedModel};
pub use pool::{PoolError, WorkerPool};
pub use positions::{PostingPolicy, PostingReprStats, PostingStore, PostingView, RowId};
pub use registry::{PressureOutcome, ResidentFootprint, SessionRegistry};
pub use session::{DeltaStats, FnObserver, Miner, MiningSession, SessionError};
pub use stats::ModelSummary;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mine_dispatches_both_variants() {
        // CSPM-Partial is the default, as in the paper's applications.
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Incremental);
    }
}
