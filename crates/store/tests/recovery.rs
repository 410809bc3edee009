//! Crash-recovery property suite: every byte of every store write,
//! under every fault flavour, must recover to a state the in-memory
//! session actually passed through.
//!
//! The harness is deterministic — [`Fault`]s fire at scripted byte
//! offsets, not timers — so the sweeps below literally enumerate the
//! injection points:
//!
//! * **WAL append** (`Kill`/`Truncate`/`Flip` at `0..record_len`):
//!   the damaged record must be dropped and the reopened session must
//!   be bit-identical to the *pre-delta* in-memory session.
//! * **snapshot write** (same sweep over the whole file): a `Kill`
//!   before the atomic rename must preserve the *pre-checkpoint*
//!   state exactly; lying-fsync damage (`Truncate`/`Flip` that
//!   "succeed") must be *detected* — a typed refusal, an explicit
//!   fallback, or a salvaged graph that still mines bit-identically —
//!   never a silent wrong answer, never a panic.
//! * **WAL reset** (the checkpoint's second half): any fault lands in
//!   the crash window where the new snapshot already exists; recovery
//!   must land on the *post-checkpoint* state with an empty log.
//!
//! The fixture graph and deltas derive from `CSPM_FAULT_SEED` (CI runs
//! a seed matrix); the reference states come from a plain
//! [`MiningSession`] fed the same graph and deltas in memory.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cspm_core::{CspmResult, Miner, MiningSession, ProgressObserver};
use cspm_graph::dynamic::{DeltaVertex, GraphDelta};
use cspm_graph::{AttributedGraph, GraphBuilder};
use cspm_store::{Durable, DurableSession, Fault, FaultTarget, RecoveryOutcome, StoreError};

fn seed() -> u64 {
    std::env::var("CSPM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC5F1)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Seed-derived base graph: a ring (connectivity) plus random chords,
/// attributes drawn from a small pool so stars actually repeat.
fn fixture_graph(state: &mut u64) -> AttributedGraph {
    const POOL: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    let n = 8 + (xorshift(state) % 5) as u32;
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        let first = POOL[(xorshift(state) % 6) as usize];
        let second = POOL[(xorshift(state) % 6) as usize];
        if first == second {
            b.add_vertex([first]);
        } else {
            b.add_vertex([first, second]);
        }
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n).unwrap();
    }
    for _ in 0..n / 2 {
        let u = (xorshift(state) % n as u64) as u32;
        let v = (xorshift(state) % n as u64) as u32;
        if u != v {
            let _ = b.add_edge(u, v);
        }
    }
    b.build().unwrap()
}

/// Seed-derived delta: one new vertex wired to 1–2 existing ones,
/// plus churn — a guaranteed ring-edge removal (so every seed logs a
/// churn record and sweeps the churn WAL kind), and seed-dependent
/// label changes / vertex detachment. Removal targets are base ids
/// and absent targets no-op at apply, so any two fixture deltas stay
/// valid in either order.
fn fixture_delta(state: &mut u64, base_vertices: u32) -> GraphDelta {
    const POOL: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    let mut d = GraphDelta::new();
    let attr = POOL[(xorshift(state) % 6) as usize];
    let v = d.add_vertex([attr, "new"]);
    let u = (xorshift(state) % base_vertices as u64) as u32;
    d.add_edge(v, DeltaVertex::Existing(u));
    if xorshift(state).is_multiple_of(2) {
        let w = (xorshift(state) % base_vertices as u64) as u32;
        if w != u {
            d.add_edge(v, DeltaVertex::Existing(w));
        }
    }
    let r = (xorshift(state) % base_vertices as u64) as u32;
    d.remove_edge(r, (r + 1) % base_vertices);
    if xorshift(state).is_multiple_of(2) {
        let t = (xorshift(state) % base_vertices as u64) as u32;
        let old = POOL[(xorshift(state) % 6) as usize];
        let new = POOL[(xorshift(state) % 6) as usize];
        if old != new {
            d.change_label(t, old, new);
        }
    }
    if xorshift(state).is_multiple_of(4) {
        d.remove_vertex((xorshift(state) % base_vertices as u64) as u32);
    }
    d
}

fn temp_path(name: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("cspm-store-recovery");
    fs::create_dir_all(&dir).unwrap();
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{name}-{}-{n}.css", std::process::id()))
}

/// One a-star flattened for exact comparison: coreset, leafset,
/// positions, frequency, and the code length's raw float bits.
type AstarDigest = (Vec<u32>, Vec<u32>, Vec<u32>, u64, u64);

/// Mined-model digest with floats as bits: the bit-identity yardstick.
fn digest(res: &CspmResult) -> Vec<AstarDigest> {
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

struct RunToEnd;
impl ProgressObserver for RunToEnd {
    fn on_iteration(&mut self, _: &cspm_core::IterationStat) -> std::ops::ControlFlow<()> {
        std::ops::ControlFlow::Continue(())
    }
}

/// One in-memory reference state: the graph and the mining digest a
/// correct recovery must reproduce bit-for-bit.
struct Reference {
    graph: AttributedGraph,
    digest: Vec<AstarDigest>,
    dl_bits: u64,
}

impl Reference {
    fn of(session: &mut MiningSession) -> Self {
        let res = session.run_with(&mut RunToEnd).unwrap();
        Self {
            graph: session.graph().unwrap().clone(),
            digest: digest(&res),
            dl_bits: res.final_dl.to_bits(),
        }
    }

    /// Asserts the reopened durable session is bit-identical to this
    /// reference.
    fn assert_matches(&self, durable: &mut DurableSession, label: &str) {
        assert_eq!(
            durable.session().graph(),
            Some(&self.graph),
            "{label}: recovered graph diverged"
        );
        let res = durable.run().unwrap();
        assert_eq!(
            res.final_dl.to_bits(),
            self.dl_bits,
            "{label}: final DL diverged"
        );
        assert_eq!(digest(&res), self.digest, "{label}: mined model diverged");
    }
}

/// The shared scenario: a mined + checkpointed store with one logged
/// delta (`d0`), one further delta (`d1`) to inject faults around, and
/// in-memory references for both states.
struct Scenario {
    graph: AttributedGraph,
    d0: GraphDelta,
    d1: GraphDelta,
    pre: Reference,
    post: Reference,
    /// Pristine store files after mine + stage(d0): snapshot + WAL.
    snapshot: Vec<u8>,
    wal: Vec<u8>,
}

impl Scenario {
    fn build() -> Self {
        let mut state = seed();
        let graph = fixture_graph(&mut state);
        let d0 = fixture_delta(&mut state, graph.vertex_count() as u32);
        // d1 connects only to base vertices, so it applies no matter
        // whether d0 made it — both orders are valid sessions.
        let d1 = fixture_delta(&mut state, graph.vertex_count() as u32);

        let mut reference = Miner::new().threads(1).build();
        reference.mine(&graph);
        reference.stage_delta(&d0).unwrap();
        let pre = Reference::of(&mut reference);
        reference.stage_delta(&d1).unwrap();
        let post = Reference::of(&mut reference);

        // Materialise the pristine store once; sweeps copy the bytes.
        let path = temp_path("scenario");
        let mut durable = Miner::new().threads(1).durable(&path).unwrap();
        durable.mine(&graph).unwrap();
        durable.stage_delta(&d0).unwrap();
        let snapshot = fs::read(durable.store().path()).unwrap();
        let wal = fs::read(durable.store().wal_path()).unwrap();
        drop(durable);

        Self {
            graph,
            d0,
            d1,
            pre,
            post,
            snapshot,
            wal,
        }
    }

    /// Lays the pristine files down at a fresh path and opens them.
    fn open_fresh_copy(&self, name: &str) -> (PathBuf, DurableSession) {
        let path = temp_path(name);
        fs::write(&path, &self.snapshot).unwrap();
        let mut wal_path = path.clone().into_os_string();
        wal_path.push(".wal");
        fs::write(PathBuf::from(wal_path), &self.wal).unwrap();
        let durable = Miner::new().threads(1).durable(&path).unwrap();
        assert_eq!(
            *durable.recovery(),
            RecoveryOutcome::Clean { wal_records: 1 },
            "pristine copy must open clean"
        );
        (path, durable)
    }

    fn reopen(&self, path: &PathBuf) -> DurableSession {
        Miner::new().threads(1).durable(path).unwrap()
    }
}

/// Byte length of one WAL append batch for `d1` (frame overhead + the
/// serialized delta).
fn append_len(sc: &Scenario) -> u64 {
    let (path, mut durable) = sc.open_fresh_copy("measure");
    let before = durable.stats().wal_bytes;
    durable.stage_delta(&sc.d1).unwrap();
    let after = durable.stats().wal_bytes;
    drop(durable);
    let _ = path;
    after - before
}

/// Byte length of the snapshot a checkpoint writes (the *post-d0*
/// state — churn in `d0` can make it shorter than the pristine file,
/// so the snapshot sweeps must measure it rather than assume it).
fn checkpoint_snapshot_len(sc: &Scenario) -> u64 {
    let (path, mut durable) = sc.open_fresh_copy("measure-snapshot");
    durable.checkpoint().unwrap();
    drop(durable);
    fs::metadata(&path).unwrap().len()
}

#[test]
fn wal_append_fault_sweep_recovers_pre_delta_state() {
    let sc = Scenario::build();
    let len = append_len(&sc);
    assert!(len > 0);

    for at in 0..len {
        for fault in [
            Fault::Kill { at },
            Fault::Truncate { at },
            Fault::Flip { at },
        ] {
            let label = format!("append {fault:?}");
            let (path, mut durable) = sc.open_fresh_copy("append");
            durable.store_mut().arm_fault(FaultTarget::WalAppend, fault);
            let staged = durable.stage_delta(&sc.d1);
            match fault {
                // The injected crash surfaces; the torn batch is
                // trimmed so the in-process log stays consistent.
                Fault::Kill { .. } => assert!(staged.is_err(), "{label}: kill must surface"),
                // Lying-fsync flavours report success.
                _ => assert!(staged.is_ok(), "{label}: silent faults must not error"),
            }
            drop(durable);

            let mut reopened = sc.reopen(&path);
            assert!(
                !matches!(
                    reopened.recovery(),
                    RecoveryOutcome::SnapshotFallback { .. }
                ),
                "{label}: snapshot must be untouched by WAL damage"
            );
            assert_eq!(
                reopened.store().wal_records(),
                1,
                "{label}: d0 must survive, damaged d1 must be dropped"
            );
            sc.pre.assert_matches(&mut reopened, &label);
        }
    }
}

#[test]
fn snapshot_kill_sweep_preserves_pre_checkpoint_state_exactly() {
    let sc = Scenario::build();
    let len = checkpoint_snapshot_len(&sc);
    // Kill at every byte of the temp-file write: the rename never
    // happens, so the old snapshot + WAL must read back untouched.
    for at in 0..len {
        let label = format!("snapshot kill@{at}");
        let (path, mut durable) = sc.open_fresh_copy("snapkill");
        durable
            .store_mut()
            .arm_fault(FaultTarget::Snapshot, Fault::Kill { at });
        assert!(durable.checkpoint().is_err(), "{label}: kill must surface");
        drop(durable);

        let mut reopened = sc.reopen(&path);
        assert_eq!(
            *reopened.recovery(),
            RecoveryOutcome::Clean { wal_records: 1 },
            "{label}: old snapshot + log must be intact"
        );
        sc.pre.assert_matches(&mut reopened, &label);
    }
}

#[test]
fn snapshot_silent_damage_sweep_is_always_detected() {
    let sc = Scenario::build();
    let len = checkpoint_snapshot_len(&sc);
    for at in 0..len {
        for fault in [Fault::Truncate { at }, Fault::Flip { at }] {
            let label = format!("snapshot {fault:?}");
            let (path, mut durable) = sc.open_fresh_copy("snapsilent");
            durable.store_mut().arm_fault(FaultTarget::Snapshot, fault);
            // The write lies about durability, so the checkpoint
            // itself reports success and renames the damaged file in.
            durable.checkpoint().expect("silent faults must not error");
            drop(durable);

            // Recovery must *notice*. Three shapes are legitimate:
            // a typed refusal (damaged magic/version bytes), an
            // explicit snapshot fallback, or a salvaged state that
            // still mines bit-identically to the checkpointed session
            // (graph + d0). A silent wrong answer is the one forbidden
            // outcome — and a panic anywhere fails the test harness.
            match Miner::new().threads(1).durable(&path) {
                Err(StoreError::Magic { .. }) | Err(StoreError::Version { .. }) => {}
                Err(e) => panic!("{label}: unexpected hard error {e}"),
                Ok(mut reopened) => match reopened.recovery().clone() {
                    RecoveryOutcome::SnapshotFallback { .. } => {
                        assert!(reopened.session().graph().is_none(), "{label}");
                    }
                    RecoveryOutcome::Fresh => panic!("{label}: store vanished"),
                    _ => sc.pre.assert_matches(&mut reopened, &label),
                },
            }
        }
    }
}

#[test]
fn wal_reset_fault_sweep_recovers_post_checkpoint_state() {
    let sc = Scenario::build();
    // The reset file is header + generation frame; measure it from a
    // clean checkpoint.
    let reset_len = {
        let (_, mut durable) = sc.open_fresh_copy("measure-reset");
        durable.checkpoint().unwrap();
        durable.stats().wal_bytes
    };

    for at in 0..reset_len {
        for fault in [
            Fault::Kill { at },
            Fault::Truncate { at },
            Fault::Flip { at },
        ] {
            let label = format!("wal-reset {fault:?}");
            let (path, mut durable) = sc.open_fresh_copy("reset");
            durable.store_mut().arm_fault(FaultTarget::WalReset, fault);
            let checkpointed = durable.checkpoint();
            if matches!(fault, Fault::Kill { .. }) {
                assert!(checkpointed.is_err(), "{label}: kill must surface");
            }
            drop(durable);

            // Whatever happened to the log, the snapshot rename came
            // first: recovery must land on the post-checkpoint state
            // (d0 folded in) with an empty, working log.
            let mut reopened = sc.reopen(&path);
            assert!(
                !matches!(
                    reopened.recovery(),
                    RecoveryOutcome::SnapshotFallback { .. }
                ),
                "{label}: snapshot must be valid"
            );
            assert_eq!(reopened.store().wal_records(), 0, "{label}");
            sc.pre.assert_matches(&mut reopened, &label);
            // The recovered log accepts appends again.
            reopened.stage_delta(&sc.d1).unwrap();
            drop(reopened);
            let mut after = sc.reopen(&path);
            sc.post.assert_matches(&mut after, &format!("{label} + d1"));
        }
    }
}

#[test]
fn wal_unavailable_after_failed_reset_until_checkpoint_heals() {
    let sc = Scenario::build();
    let (path, mut durable) = sc.open_fresh_copy("unavailable");
    durable
        .store_mut()
        .arm_fault(FaultTarget::WalReset, Fault::Kill { at: 0 });
    assert!(durable.checkpoint().is_err());

    // The snapshot advanced but the log could not be rewritten:
    // appends must be refused (they would be ignored by recovery),
    // and a clean checkpoint must repair the store.
    let err = durable.stage_delta(&sc.d1).unwrap_err();
    assert!(matches!(
        err,
        cspm_store::DurableError::Store(StoreError::WalUnavailable)
    ));
    durable.checkpoint().unwrap();
    durable.stage_delta(&sc.d1).unwrap();
    drop(durable);
    let mut reopened = sc.reopen(&path);
    // d0 was staged before the sweep scenario; d1 twice now — once
    // rejected, once logged. The reference is pre + d1 applied twice?
    // No: the refused stage *did* reach the session but not the log,
    // and the healing checkpoint then persisted it. So the recovered
    // state is pre + d1 + d1 — compare against a fresh in-memory
    // replay of exactly that history.
    let mut reference = Miner::new().threads(1).build();
    reference.mine(&sc.graph);
    reference.stage_delta(&sc.d0).unwrap();
    reference.stage_delta(&sc.d1).unwrap();
    reference.stage_delta(&sc.d1).unwrap();
    Reference::of(&mut reference).assert_matches(&mut reopened, "healed store");
}

#[test]
fn version_1_files_without_churn_records_still_replay() {
    // A store written by the previous binary: additive-only deltas and
    // version-1 headers. The body formats are unchanged between v1 and
    // v2, so rewriting the version fields of a v2 additive-only store
    // reproduces the old files byte-for-byte. They must open clean and
    // mine bit-identically — the version bump gates *churn* records,
    // not old logs.
    let mut state = seed();
    let graph = fixture_graph(&mut state);
    let mut additive = GraphDelta::new();
    let v = additive.add_vertex(["a", "new"]);
    additive.add_edge(v, DeltaVertex::Existing(0));
    assert!(!additive.has_churn());

    let mut reference = Miner::new().threads(1).build();
    reference.mine(&graph);
    reference.stage_delta(&additive).unwrap();
    let expect = Reference::of(&mut reference);

    let path = temp_path("v1-compat");
    let mut durable = Miner::new().threads(1).durable(&path).unwrap();
    durable.mine(&graph).unwrap();
    durable.stage_delta(&additive).unwrap();
    let wal_path = durable.store().wal_path().to_path_buf();
    drop(durable);

    for file in [&path, &wal_path] {
        let mut bytes = fs::read(file).unwrap();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        fs::write(file, bytes).unwrap();
    }

    let mut reopened = Miner::new().threads(1).durable(&path).unwrap();
    assert_eq!(
        *reopened.recovery(),
        RecoveryOutcome::Clean { wal_records: 1 },
        "version-1 files must replay clean"
    );
    expect.assert_matches(&mut reopened, "v1 compat");
}

#[test]
fn fault_sweep_scenario_is_seed_stable() {
    // The scenario builder must be deterministic for a fixed seed —
    // the CI matrix relies on CSPM_FAULT_SEED selecting *different*
    // sweeps, and reproducibility relies on the same seed selecting
    // the *same* one.
    let a = Scenario::build();
    let b = Scenario::build();
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.snapshot, b.snapshot);
    assert_eq!(a.wal, b.wal);
    assert_eq!(a.d0.to_bytes(), b.d0.to_bytes());
    assert_eq!(a.d1.to_bytes(), b.d1.to_bytes());
}
