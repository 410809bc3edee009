//! Dynamic attributed-graph mining (the paper's future-work item 2):
//! mine a-stars across a sequence of snapshots and separate persistent
//! temporal patterns from one-off events.
//!
//! ```text
//! cargo run --release --example dynamic_mining
//! ```

use cspm::core::{mine_dynamic, Miner};
use cspm::datasets::{dblp_like, Scale};
use cspm::graph::dynamic::SnapshotSequence;

fn main() {
    // Five yearly snapshots of a DBLP-like co-authorship network. Each
    // year is generated independently, so recurring patterns reflect the
    // stable venue communities, not a single year's noise.
    let seq: SnapshotSequence = (0..5)
        .map(|year| dblp_like(Scale::Tiny, 100 + year).graph)
        .collect();
    println!(
        "{} snapshots, union graph: {} vertices / {} edges",
        seq.len(),
        seq.union_graph().vertex_count(),
        seq.union_graph().edge_count()
    );

    let result = mine_dynamic(&seq, Miner::new());
    println!(
        "mined {} a-stars over the union ({} merges)\n",
        result.result.model.len(),
        result.result.merges
    );

    let union = seq.union_graph();
    println!("persistent patterns (recurring in >= 3 of 5 snapshots):");
    let mut shown = 0;
    for t in result.persistent(3) {
        let m = &result.result.model.astars()[t.astar_index];
        if m.astar.leafset().len() < 2 {
            continue; // show the merged (summarising) patterns
        }
        println!(
            "  {}  in {}/5 snapshots, {} occurrences, L={:.2} bits",
            m.astar.display(union.attrs()),
            t.snapshot_support,
            t.occurrences.len(),
            m.code_len
        );
        shown += 1;
        if shown == 6 {
            break;
        }
    }
    if shown == 0 {
        println!("  (none at this scale — try a larger one)");
    }
}
