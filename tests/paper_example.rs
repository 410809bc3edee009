//! End-to-end reproduction of the paper's running example (Fig. 1–4)
//! through the public facade API.

use cspm::core::{CoresetMode, CspmConfig, GainPolicy, InvertedDb, Miner, SchedulePolicy};
use cspm::graph::fixtures::paper_example;
use cspm::graph::AStar;

#[test]
fn fig1_astar_semantics() {
    let (g, at) = paper_example();
    // Fig. 1(c): S = ({a}, {b, c}) matches the extended star of Fig. 1(b).
    let s = AStar::new(vec![at.a], vec![at.b, at.c]);
    assert!(s.matches_at(&g, 0));
    assert_eq!(s.support(&g), 2);
}

#[test]
fn fig2_mapping_table_and_inverted_database() {
    let (g, at) = paper_example();
    let mt = g.mapping_table();
    assert_eq!(mt.positions(at.a), &[0, 1, 4]);
    assert_eq!(mt.positions(at.b), &[3, 4]);
    assert_eq!(mt.positions(at.c), &[1, 2]);

    let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
    // The blue record of Fig. 2(b): ({a}, {c}, {v2, v3}).
    let cc = db
        .coresets()
        .iter()
        .position(|c| c.items == [at.c])
        .unwrap() as u32;
    let la = db
        .live_leafsets()
        .into_iter()
        .find(|&l| db.leafset_items(l) == [at.a])
        .unwrap();
    assert_eq!(db.row_positions(cc, la).as_deref(), Some(&[1u32, 2][..]));
}

#[test]
fn fig4_merge_appears_in_final_model() {
    let (g, at) = paper_example();
    // Both variants merge {b} and {c} under coreset {a} (§IV-E).
    for result in [
        Miner::new()
            .policy(SchedulePolicy::FullRegeneration)
            .mine(&g),
        Miner::new().mine(&g),
    ] {
        assert!(result.merges >= 1);
        assert!(result.final_dl < result.initial_dl);
        let bc = result.model.astars().iter().find(|m| {
            m.astar.coreset() == [at.a] && m.astar.leafset() == [at.b.min(at.c), at.b.max(at.c)]
        });
        let bc = bc.expect("({a},{b,c}) must be mined");
        assert_eq!(bc.frequency, 2); // positions {v1, v5}
        assert_eq!(bc.positions, vec![0, 4]);
    }
}

#[test]
fn output_is_ranked_by_code_length() {
    let (g, _) = paper_example();
    let result = Miner::new().mine(&g);
    let lens: Vec<f64> = result.model.astars().iter().map(|m| m.code_len).collect();
    assert!(lens.windows(2).all(|w| w[0] <= w[1] + 1e-12));
}

#[test]
fn conditional_entropy_drops_with_merging() {
    let (g, _) = paper_example();
    let before =
        InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::DataOnly).conditional_entropy();
    let after = Miner::from_config(CspmConfig {
        gain_policy: GainPolicy::DataOnly,
        ..Default::default()
    })
    .policy(SchedulePolicy::FullRegeneration)
    .mine(&g)
    .db
    .conditional_entropy();
    assert!(
        after <= before + 1e-9,
        "H(Y|X) should not increase: {before} -> {after}"
    );
}
