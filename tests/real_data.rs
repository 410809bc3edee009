//! End-to-end mining of the checked-in real-format fixtures.
//!
//! The CI `real-data` leg runs these: every fixture under
//! `tests/fixtures/` must ingest, mine, and actually compress
//! (ratio < 1), and the mined model must stay lossless. Snapshots are
//! disabled so the tests exercise the parsers, not the cache;
//! `tests/cli.rs` covers the snapshot path.
#![cfg(feature = "real-data")]

use std::path::PathBuf;

use cspm::core::{verify_lossless, Miner};
use cspm::datasets::ingest::{ingest, Format, SnapshotPolicy};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn mine_fixture(name: &str, expect: Format) -> f64 {
    let report =
        ingest(&fixture(name), None, SnapshotPolicy::Off).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(report.format, expect, "{name}: auto-detection");
    let g = &report.dataset.graph;
    assert!(
        (500..=1500).contains(&g.vertex_count()),
        "{name}: fixtures are ~1k-vertex cuts, got {}",
        g.vertex_count()
    );
    assert!(g.edge_count() > g.vertex_count(), "{name}: too sparse");

    let result = Miner::new().mine(g);
    let ratio = result.compression_ratio();
    assert!(
        ratio > 0.0 && ratio < 1.0,
        "{name}: expected real compression, got ratio {ratio}"
    );
    assert!(
        verify_lossless(g, &result.db).is_empty(),
        "{name}: mined model must decode losslessly"
    );
    ratio
}

#[test]
fn pokec_fixture_mines_and_compresses() {
    mine_fixture("pokec_small.txt", Format::Pokec);
}

#[test]
fn dblp_fixture_mines_and_compresses() {
    mine_fixture("dblp_small.csv", Format::Dblp);
}

#[test]
fn usflight_fixture_mines_and_compresses() {
    mine_fixture("usflight_small.csv", Format::UsFlight);
}

#[test]
fn explicit_format_overrides_sniffing() {
    // Forcing the wrong format on a fixture is a typed error, not a
    // panic (the DBLP parser rejects the Pokec edge list's header).
    let err = ingest(
        &fixture("pokec_small.txt"),
        Some(Format::Dblp),
        SnapshotPolicy::Off,
    )
    .unwrap_err();
    assert!(
        matches!(err, cspm::datasets::ingest::IngestError::Parse { .. }),
        "got {err}"
    );
}
