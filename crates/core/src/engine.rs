//! The unified mining engine: one greedy merge loop that both CSPM
//! variants (and dynamic mining, the CLI, and the benchmarks) compile
//! down to.
//!
//! # Mapping back to the paper
//!
//! The paper presents CSPM twice: Algorithm 1 ("CSPM-Basic") recomputes
//! every candidate gain after each merge (its candidate generation is
//! Algorithm 2), while Algorithm 3 ("CSPM-Partial", §V) keeps the
//! candidate set warm across merges and repairs only the entries a merge
//! could have changed (its update step is Algorithm 4, driven by the
//! `rdict` relation index). Both are the *same* greedy loop over the
//! inverted database of §IV-B — pick the best positive-gain pair (Eq.
//! 9), apply the merge of §IV-E, repeat — differing only in how the
//! candidate pool is maintained. This module implements that loop once:
//!
//! * [`CandidateScheduler`] — a gain-ordered priority queue over leafset
//!   pairs with the per-leafset partner index (`rdict`) of §V, shared by
//!   both policies;
//! * [`SchedulePolicy::FullRegeneration`] — Algorithm 1: the scheduler
//!   is cleared and reseeded from every sharing pair after each merge
//!   (large sweeps are evaluated across threads);
//! * [`SchedulePolicy::Incremental`] — Algorithm 3: popped gains are
//!   lazily revalidated (recomputed once before use, preserving the
//!   monotone-DL invariant), the new pattern is evaluated against
//!   `rdict[x] ∩ rdict[y]`, and pairs of partly-merged parents are
//!   re-scored — exactly the three update rules of Algorithm 4.
//!
//! The merge arithmetic itself lives in [`InvertedDb`]
//! over the flat [`PostingStore`](crate::positions::PostingStore) arena,
//! so the hot path of §IV-E runs over contiguous `(offset, len)` slices
//! rather than per-row heap allocations.
//!
//! # Parallel candidate scoring
//!
//! Between merges the database is immutable, and every candidate score
//! is a pure function of it — so both policies evaluate their candidate
//! batches across a `std::thread::scope` worker pool. Workers share the
//! posting arena read-only through [`GainView`] snapshots (no row is
//! cloned); batches are split into contiguous chunks and results are
//! reduced deterministically — per-pair gains are reassembled in input
//! order, and the full-regeneration sweep reduces per-chunk winners by
//! best gain with ties broken towards the smallest candidate pair id.
//! Mining output is therefore **bit-identical at every thread count**.
//!
//! Two knobs on [`CspmConfig`] control scheduling (both tune *speed*,
//! never *what* is mined):
//!
//! * [`CspmConfig::threads`] — scoring worker count (`0` = one per
//!   available core, capped at [`CspmConfig::MAX_AUTO_THREADS`]);
//! * [`CspmConfig::full_regen_max_pairs`] — Algorithm 1's sweeps are
//!   O(pairs × merges); past this many initial candidate pairs a
//!   FullRegeneration run delegates to the incremental policy (recorded
//!   in [`RunStats::delegated`](crate::RunStats)). `None` disables
//!   delegation.
//!
//! Candidate generation additionally applies the pruning bound of the
//! paper's Algorithm 2 ([`GainView::pair_gain_upper_bound`]): pairs
//! whose cheap length-only upper bound is non-positive are dismissed
//! before their exact gain — and before they ever enter the queue.
//!
//! # Batch seeding
//!
//! The initial sweep scores every sharing pair before the first merge.
//! On a pristine database (no merge applied: every leafset is a
//! singleton and no union row exists) it runs as one batch,
//! [`InvertedDb::seed_gains`]: one counting pass per coreset yields
//! every pair's overlaps, folded into per-pair accumulators (see
//! `inverted/seed.rs`). The kernel folds each pair's terms in ascending
//! coreset order with the expressions [`GainView`] uses, so its gains
//! are bit-identical to pair-by-pair scoring: `Incremental` keeps the
//! Algorithm 2 dismissal and its `pruned_pairs` count,
//! `FullRegeneration` keeps the exact gain and the smallest-pair
//! tie-break, and `total_gain_evals` still charges one evaluation per
//! pair. A database that already has merges can hold union rows, which
//! the kernel does not model; its sweeps (every `FullRegeneration`
//! sweep after the first, and the Algorithm 4 updates) are scored pair
//! by pair, across threads.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::time::Instant;

use cspm_graph::AttributedGraph;
use cspm_mdl::OrdF64;

use crate::config::{CspmConfig, IterationStat, RunStats};
use crate::inverted::{GainView, InvertedDb, LeafsetId, PairList};
use crate::model::MinedModel;

/// Gains this close to zero are treated as "no improvement".
pub(crate) const GAIN_EPS: f64 = 1e-9;

/// Hook into the merge loop: called after every accepted merge with
/// that iteration's [`IterationStat`], and in control of whether the
/// loop keeps going.
///
/// Returning [`ControlFlow::Break`] cancels **cooperatively**: the
/// current merge is already applied (the database never observes a
/// half-merge), the loop stops before the next one, and the returned
/// [`CspmResult`] is a valid intermediate model — total DL is monotone,
/// so it is simply the model after as many merges as were allowed. The
/// run is marked in [`RunStats::cancelled`].
///
/// Observers are how long-lived sessions surface progress (see
/// [`MiningSession::run_with`](crate::MiningSession::run_with)); the
/// one-shot entry points run with a no-op observer.
pub trait ProgressObserver {
    /// One accepted merge happened; `stat` describes it. Return
    /// [`ControlFlow::Continue`] to keep mining or
    /// [`ControlFlow::Break`] to stop after this merge.
    ///
    /// The observer is consulted *before* the scheduler upkeep that
    /// prepares the next iteration (so cancelling skips that work);
    /// `stat.gain_evals` here counts the evaluations spent reaching
    /// this merge, while the per-iteration records in
    /// [`RunStats::iterations`](crate::RunStats) additionally include
    /// the upkeep evaluations, as they always have.
    fn on_iteration(&mut self, stat: &IterationStat) -> ControlFlow<()>;

    /// A recoverable anomaly outside the merge loop — e.g. a durable
    /// session truncating a torn WAL tail or falling back from a
    /// corrupt snapshot during recovery. Purely informational: the
    /// operation already degraded gracefully. Default: ignored.
    fn on_warning(&mut self, message: &str) {
        let _ = message;
    }
}

/// The observer the plain entry points use: never cancels.
pub(crate) struct RunToCompletion;

impl ProgressObserver for RunToCompletion {
    fn on_iteration(&mut self, _stat: &IterationStat) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// How the engine maintains its candidate pool between merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Algorithm 1: regenerate every candidate gain after each merge.
    FullRegeneration,
    /// Algorithm 3 (§V): keep candidates warm, repair incrementally,
    /// revalidate lazily on pop. The default, as in the paper's
    /// applications.
    #[default]
    Incremental,
}

/// Result of a CSPM run (either variant).
#[derive(Debug, Clone)]
pub struct CspmResult {
    /// The mined model, ranked by ascending code length.
    pub model: MinedModel,
    /// The converged inverted database.
    pub db: InvertedDb,
    /// Total DL before any merge (singleton-leafset model).
    pub initial_dl: f64,
    /// Total DL after convergence.
    pub final_dl: f64,
    /// Number of accepted merges.
    pub merges: usize,
    /// Run statistics.
    pub stats: RunStats,
}

impl CspmResult {
    /// Compression ratio `final/initial` (lower = better).
    pub fn compression_ratio(&self) -> f64 {
        if self.initial_dl == 0.0 {
            1.0
        } else {
            self.final_dl / self.initial_dl
        }
    }
}

/// Gain-ordered candidate pool with per-leafset partner indexing.
///
/// Generalises the paper's `rdict` (§V): pairs are kept in a total order
/// `(gain, smallest-pair-first)` so [`Self::pop_max`] is deterministic
/// under gain ties, and every leafset knows its current partners so
/// merge updates touch only the affected entries.
#[derive(Debug, Default, Clone)]
pub struct CandidateScheduler {
    gains: HashMap<(LeafsetId, LeafsetId), f64>,
    order: BTreeSet<(OrdF64, Reverse<LeafsetId>, Reverse<LeafsetId>)>,
    /// `rdict`: leafset → related leafsets (partners in stored pairs).
    rdict: HashMap<LeafsetId, BTreeSet<LeafsetId>>,
}

impl CandidateScheduler {
    fn key(x: LeafsetId, y: LeafsetId) -> (LeafsetId, LeafsetId) {
        (x.min(y), x.max(y))
    }

    /// Inserts or updates a pair's stored gain.
    pub fn upsert(&mut self, x: LeafsetId, y: LeafsetId, gain: f64) {
        let key = Self::key(x, y);
        if let Some(old) = self.gains.insert(key, gain) {
            self.order
                .remove(&(OrdF64(old), Reverse(key.0), Reverse(key.1)));
        }
        self.order
            .insert((OrdF64(gain), Reverse(key.0), Reverse(key.1)));
        self.rdict.entry(x).or_default().insert(y);
        self.rdict.entry(y).or_default().insert(x);
    }

    /// Drops one pair, if stored.
    pub fn remove_pair(&mut self, x: LeafsetId, y: LeafsetId) {
        let key = Self::key(x, y);
        if let Some(old) = self.gains.remove(&key) {
            self.order
                .remove(&(OrdF64(old), Reverse(key.0), Reverse(key.1)));
        }
        self.unrelate(x, y);
        self.unrelate(y, x);
    }

    fn unrelate(&mut self, a: LeafsetId, b: LeafsetId) {
        if let Some(s) = self.rdict.get_mut(&a) {
            s.remove(&b);
            if s.is_empty() {
                self.rdict.remove(&a);
            }
        }
    }

    /// Removes every pair involving `l` (Algorithm 4, step 1).
    pub fn remove_leafset(&mut self, l: LeafsetId) {
        if let Some(partners) = self.rdict.remove(&l) {
            for p in partners {
                let key = Self::key(l, p);
                if let Some(old) = self.gains.remove(&key) {
                    self.order
                        .remove(&(OrdF64(old), Reverse(key.0), Reverse(key.1)));
                }
                self.unrelate(p, l);
            }
        }
    }

    /// Pops the stored pair with the maximum gain; gain ties break
    /// towards the smallest `(x, y)`.
    pub fn pop_max(&mut self) -> Option<(LeafsetId, LeafsetId, f64)> {
        let &(OrdF64(gain), Reverse(x), Reverse(y)) = self.order.last()?;
        self.remove_pair(x, y);
        Some((x, y, gain))
    }

    /// Current partners of `l` (`rdict[l]`).
    pub fn related(&self, l: LeafsetId) -> BTreeSet<LeafsetId> {
        self.rdict.get(&l).cloned().unwrap_or_default()
    }

    /// Whether no pair is stored.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Drops every stored pair.
    pub fn clear(&mut self) {
        self.gains.clear();
        self.order.clear();
        self.rdict.clear();
    }
}

/// Runs the engine on an attributed graph.
///
/// A thin wrapper over a one-shot [`MiningSession`](crate::MiningSession)
/// — equivalent to `Miner::from_config(config).policy(policy).build()`
/// followed by [`mine`](crate::MiningSession::mine), minus the state
/// retention. Keep the session instead when you expect graph deltas or
/// want progress callbacks.
pub fn mine_with_policy(
    g: &AttributedGraph,
    policy: SchedulePolicy,
    config: CspmConfig,
) -> CspmResult {
    let started = Instant::now();
    let db = InvertedDb::build(g, config.coreset_mode, config.gain_policy);
    let mut result = run_on_db(db, policy, config);
    result.stats.elapsed_secs = started.elapsed().as_secs_f64();
    result
}

/// Runs the greedy merge loop on a pre-built inverted database — the
/// shared core of CSPM-Basic, CSPM-Partial, dynamic mining and the
/// session API. Exposed so benchmarks can time the merge loop apart
/// from database construction.
///
/// A thin wrapper over a one-shot session adopting `db` (see
/// [`MiningSession::adopt_db`](crate::MiningSession::adopt_db)); unlike
/// a retained session it consumes the database and keeps nothing warm.
pub fn run_on_db(db: InvertedDb, policy: SchedulePolicy, config: CspmConfig) -> CspmResult {
    let mut session = crate::session::Miner::from_config(config)
        .policy(policy)
        .build();
    session.adopt_db(db);
    session.run_detached().expect("session was just loaded")
}

/// The merge loop itself (Algorithm 1 / Algorithm 3), with a progress
/// observer threaded through; every public mining entry point funnels
/// here.
pub(crate) fn run_loop(
    mut db: InvertedDb,
    policy: SchedulePolicy,
    config: CspmConfig,
    observer: &mut dyn ProgressObserver,
) -> CspmResult {
    let started = Instant::now();
    let initial_dl = db.total_dl();
    let mut stats = RunStats::default();
    let threads = resolve_threads(config.threads);
    let mut merges = 0usize;
    let mut scheduler = CandidateScheduler::default();
    let cap_reached = |merges: usize| config.max_merges.is_some_and(|m| merges >= m);

    // Algorithm 1 line 5 / Algorithm 3 lines 5–6: the initial candidate
    // pool. FullRegeneration only ever needs the front of the queue —
    // everything else is regenerated after the next merge anyway. A
    // pre-satisfied merge cap skips the sweep entirely.
    let mut policy = policy;
    if !cap_reached(merges) {
        let pairs = db.pair_list();
        // Scale escape hatch: full regeneration re-sweeps every pair
        // after every merge, O(pairs × merges). Past the configured
        // threshold the whole run delegates to the incremental policy,
        // which maintains the same greedy queue at a fraction of the
        // evaluations.
        if policy == SchedulePolicy::FullRegeneration
            && config
                .full_regen_max_pairs
                .is_some_and(|cap| pairs.len() > cap)
        {
            policy = SchedulePolicy::Incremental;
            stats.delegated = true;
        }
        stats.total_gain_evals += seed_initial(
            &db,
            &pairs,
            &mut scheduler,
            policy,
            threads,
            &mut stats.pruned_pairs,
        );
    }

    while !cap_reached(merges) {
        let Some((x, y, gain, mut gain_evals)) =
            pop_next_positive(&mut scheduler, &db, policy, &mut stats)
        else {
            break;
        };
        // Capture relations before any removal (the new pattern inherits
        // candidate partners from both parents).
        let (rel_x, rel_y) = match policy {
            SchedulePolicy::Incremental => (scheduler.related(x), scheduler.related(y)),
            SchedulePolicy::FullRegeneration => Default::default(),
        };
        let outcome = db.merge(x, y);
        debug_assert!(outcome.merged_any);
        merges += 1;

        // Consult the observer *before* the post-merge scheduler
        // upkeep: everything below this point only prepares the next
        // iteration (a full regeneration sweep, or the Algorithm 4
        // update batch) and would be wasted work on a cancellation.
        // The stat therefore counts the evals spent reaching this
        // merge; the recorded per-iteration stats additionally include
        // the upkeep evals, as they always have.
        let live = db.live_leafset_count() as u64;
        let mut stat = IterationStat {
            gain_evals,
            possible_pairs: live * live.saturating_sub(1) / 2,
            accepted_gain: gain,
            dl_after: db.total_dl(),
            data_dl_after: db.data_cost(),
        };
        if observer.on_iteration(&stat).is_break() {
            stats.total_gain_evals += gain_evals;
            if config.collect_stats {
                stats.iterations.push(stat);
            }
            stats.cancelled = true;
            break;
        }

        match policy {
            SchedulePolicy::FullRegeneration => {
                scheduler.clear();
                // Skip the regeneration sweep after the final permitted
                // merge — the loop is about to break on the cap anyway.
                if !cap_reached(merges) {
                    let pairs = db.sharing_pairs();
                    gain_evals += seed_pairs(
                        &db,
                        &pairs,
                        &mut scheduler,
                        policy,
                        threads,
                        &mut stats.pruned_pairs,
                    );
                }
            }
            SchedulePolicy::Incremental => {
                let n = outcome.new_leafset;
                // (1) Remove totally merged leafsets from the pool.
                if outcome.x_removed {
                    scheduler.remove_leafset(x);
                }
                if outcome.y_removed {
                    scheduler.remove_leafset(y);
                }
                // Algorithm 4's remaining update rules form one batch of
                // independent read-only scores against the post-merge
                // database, evaluated across the worker pool and applied
                // in sequential order (bit-identical to the serial path):
                // (2) pairs of the new leafset with rdict[x] ∩ rdict[y],
                // (3) re-scores of pairs involving a partly merged
                // parent (frequencies only shrink; gains may flip
                // negative). The two groups never overlap: group (2)
                // partners exclude both parents, so neither group edits
                // the other's rdict entries and the update set can be
                // snapshotted up front.
                let mut updates: Vec<(LeafsetId, LeafsetId)> = Vec::new();
                for &rel in rel_x.intersection(&rel_y) {
                    if rel == n || !db.is_live(rel) || !db.is_live(n) {
                        continue;
                    }
                    updates.push((rel, n));
                }
                let fresh_pairs = updates.len();
                for (parent, removed) in [(x, outcome.x_removed), (y, outcome.y_removed)] {
                    if removed {
                        continue;
                    }
                    for rel in scheduler.related(parent) {
                        updates.push((parent, rel));
                    }
                }
                gain_evals += updates.len() as u64;
                let (gains, pruned) = score_pairs(&db, &updates, threads);
                stats.pruned_pairs += pruned;
                for (i, (&(a, b), &gain)) in updates.iter().zip(&gains).enumerate() {
                    if gain > GAIN_EPS {
                        scheduler.upsert(a, b, gain);
                    } else if i >= fresh_pairs {
                        // Rule (3) drops influenced pairs that went
                        // non-positive; rule (2) pairs were never stored.
                        scheduler.remove_pair(a, b);
                    }
                }
            }
        }

        stats.total_gain_evals += gain_evals;
        if config.collect_stats {
            stat.gain_evals = gain_evals;
            stats.iterations.push(stat);
        }
    }

    stats.elapsed_secs = started.elapsed().as_secs_f64();
    stats.posting = db.posting_store().repr_stats();
    // The engine's single telemetry seam: once per run, never per merge.
    crate::metrics::record_run(merges, &stats);
    CspmResult {
        model: MinedModel::from_db(&db),
        initial_dl,
        final_dl: db.total_dl(),
        merges,
        stats,
        db,
    }
}

/// Pops scheduler entries until one whose validated gain is positive,
/// returning it together with the revalidation evals spent on the
/// accepted entry (evals spent on discarded stale entries are charged
/// to `stats.total_gain_evals` directly, as before).
///
/// `FullRegeneration` trusts stored gains — its queue is regenerated
/// from scratch after every merge, so entries are exact by
/// construction. `Incremental` lazily revalidates every pop: untouched
/// pairs go stale when a shared coreset's total frequency changes, and
/// a stale entry whose true gain flipped non-positive is dropped here —
/// it is never applied, which is what keeps the total DL monotone.
fn pop_next_positive(
    scheduler: &mut CandidateScheduler,
    db: &InvertedDb,
    policy: SchedulePolicy,
    stats: &mut RunStats,
) -> Option<(LeafsetId, LeafsetId, f64, u64)> {
    while let Some((x, y, stored)) = scheduler.pop_max() {
        let (gain, evals) = match policy {
            SchedulePolicy::FullRegeneration => (stored, 0),
            SchedulePolicy::Incremental => (db.pair_gain(x, y), 1),
        };
        if gain > GAIN_EPS {
            return Some((x, y, gain, evals));
        }
        stats.total_gain_evals += evals;
    }
    None
}

/// Resolves [`CspmConfig::threads`]: `0` means one worker per available
/// core, capped at [`CspmConfig::MAX_AUTO_THREADS`].
fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, CspmConfig::MAX_AUTO_THREADS)
    }
}

/// The initial sweep: fills the scheduler from the database's own
/// sharing pairs, exactly as [`seed_pairs`] would. A pristine database
/// scores every pair in one batch ([`InvertedDb::seed_gains`]); one
/// with merges already applied falls back to pair-by-pair scoring.
/// Returns the number of gain evaluations charged — one per pair
/// either way.
fn seed_initial(
    db: &InvertedDb,
    pairs: &PairList,
    scheduler: &mut CandidateScheduler,
    policy: SchedulePolicy,
    threads: usize,
    pruned: &mut u64,
) -> u64 {
    let prune_eps = (policy == SchedulePolicy::Incremental).then_some(GAIN_EPS);
    let Some(seed) = db.seed_gains(pairs, prune_eps) else {
        let pairs: Vec<_> = pairs.iter().collect();
        return seed_pairs(db, &pairs, scheduler, policy, threads, pruned);
    };
    let scored = pairs
        .iter()
        .zip(seed.gains)
        .filter(|&(_, gain)| gain > GAIN_EPS);
    match policy {
        SchedulePolicy::FullRegeneration => {
            // `best_pair`'s selection: pairs arrive in ascending order,
            // so a strictly-greater test keeps the smallest tied pair.
            let best = scored.fold(None, |best, ((x, y), gain)| better(best, (x, y, gain)));
            if let Some((x, y, gain)) = best {
                scheduler.upsert(x, y, gain);
            }
        }
        SchedulePolicy::Incremental => {
            *pruned += seed.pruned;
            for ((x, y), gain) in scored {
                scheduler.upsert(x, y, gain);
            }
        }
    }
    pairs.len() as u64
}

/// Fills the scheduler from the given sharing pairs. Returns the number
/// of gain evaluations charged. Under `FullRegeneration` only the best
/// pair is retained (Algorithm 2 reduced on the fly); under
/// `Incremental` every positive pair is stored.
fn seed_pairs(
    db: &InvertedDb,
    pairs: &[(LeafsetId, LeafsetId)],
    scheduler: &mut CandidateScheduler,
    policy: SchedulePolicy,
    threads: usize,
    pruned: &mut u64,
) -> u64 {
    let evals = pairs.len() as u64;
    match policy {
        SchedulePolicy::FullRegeneration => {
            if let Some((x, y, gain)) = best_pair(db, pairs, threads) {
                scheduler.upsert(x, y, gain);
            }
        }
        SchedulePolicy::Incremental => {
            let (gains, p) = score_pairs(db, pairs, threads);
            *pruned += p;
            for (&(x, y), &gain) in pairs.iter().zip(&gains) {
                if gain > GAIN_EPS {
                    scheduler.upsert(x, y, gain);
                }
            }
        }
    }
    evals
}

/// Batches below this size are scored inline — spawning workers costs
/// more than the evaluation itself.
const PARALLEL_SCORE_THRESHOLD: usize = 64;

/// Scores every pair against the current (immutable) database state,
/// fanning out to scoped worker threads for large batches. Returns the
/// per-pair gains in input order plus the number of pairs answered by
/// the Algorithm 2 upper bound without an exact evaluation.
///
/// Deterministic at every thread count: each gain is a pure function of
/// the database, chunks are contiguous, and results are reassembled in
/// input order — the output vector is bit-identical to the sequential
/// path regardless of partitioning.
fn score_pairs(
    db: &InvertedDb,
    pairs: &[(LeafsetId, LeafsetId)],
    threads: usize,
) -> (Vec<f64>, u64) {
    if threads <= 1 || pairs.len() < PARALLEL_SCORE_THRESHOLD {
        return score_chunk(db.gain_view(), pairs);
    }
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| {
                let view = db.gain_view();
                scope.spawn(move || score_chunk(view, slice))
            })
            .collect();
        let mut gains = Vec::with_capacity(pairs.len());
        let mut pruned = 0u64;
        for h in handles {
            let (g, p) = h.join().expect("gain worker must not panic");
            gains.extend_from_slice(&g);
            pruned += p;
        }
        (gains, pruned)
    })
}

/// Sequential scoring of one contiguous chunk through a read-only view.
/// Pairs dismissed by the pruning bound score as 0 ("no improvement") —
/// the bound guarantees their true gain is ≤ [`GAIN_EPS`], so the
/// scheduler state after applying the results is identical either way.
fn score_chunk(view: GainView<'_>, pairs: &[(LeafsetId, LeafsetId)]) -> (Vec<f64>, u64) {
    let mut pruned = 0u64;
    let mut scratch = Vec::new();
    let gains = pairs
        .iter()
        .map(
            |&(x, y)| match view.gain_pruned(x, y, GAIN_EPS, &mut scratch) {
                Some(gain) => gain,
                None => {
                    pruned += 1;
                    0.0
                }
            },
        )
        .collect();
    (gains, pruned)
}

/// Candidate sweeps beyond this size are evaluated across threads.
const PARALLEL_THRESHOLD: usize = 8_192;

/// The pair with the maximum positive gain, ties broken towards the
/// smallest `(x, y)` — identical selection in the sequential and
/// parallel paths, so full-regeneration mining stays deterministic.
fn best_pair(
    db: &InvertedDb,
    pairs: &[(LeafsetId, LeafsetId)],
    threads: usize,
) -> Option<(LeafsetId, LeafsetId, f64)> {
    if threads > 1 && pairs.len() >= PARALLEL_THRESHOLD {
        best_pair_parallel(db, pairs, threads)
    } else {
        best_pair_sequential(db.gain_view(), pairs)
    }
}

fn better(
    current: Option<(LeafsetId, LeafsetId, f64)>,
    candidate: (LeafsetId, LeafsetId, f64),
) -> Option<(LeafsetId, LeafsetId, f64)> {
    match current {
        None => Some(candidate),
        Some((cx, cy, cg)) => {
            let replace =
                candidate.2 > cg || (candidate.2 == cg && (candidate.0, candidate.1) < (cx, cy));
            Some(if replace { candidate } else { (cx, cy, cg) })
        }
    }
}

fn best_pair_sequential(
    view: GainView<'_>,
    pairs: &[(LeafsetId, LeafsetId)],
) -> Option<(LeafsetId, LeafsetId, f64)> {
    let mut best: Option<(LeafsetId, LeafsetId, f64)> = None;
    let mut scratch = Vec::new();
    for &(x, y) in pairs {
        // No Algorithm 2 bound here: the sweep retains only its best
        // pair, which the bound can never prune, and paying it for
        // every candidate measurably slows the sweep down. Queue-entry
        // scoring (score_chunk) is where the bound earns its keep.
        let gain = view.gain_with(x, y, &mut scratch);
        if gain > GAIN_EPS {
            best = better(best, (x, y, gain));
        }
    }
    best
}

/// Parallel candidate sweep (a shared-memory step towards the paper's
/// future-work item (3), a distributed CSPM): the inverted database is
/// read-only during gain evaluation, so chunks of the pair list are
/// scored on scoped worker threads and the per-thread winners reduced
/// with the same tie-breaking as the sequential sweep.
fn best_pair_parallel(
    db: &InvertedDb,
    pairs: &[(LeafsetId, LeafsetId)],
    threads: usize,
) -> Option<(LeafsetId, LeafsetId, f64)> {
    let chunk = pairs.len().div_ceil(threads);
    let locals = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| {
                let view = db.gain_view();
                scope.spawn(move || best_pair_sequential(view, slice))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gain worker must not panic"))
            .collect::<Vec<_>>()
    });
    locals.into_iter().flatten().fold(None, better)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoresetMode, GainPolicy};
    use cspm_graph::fixtures::paper_example;

    #[test]
    fn scheduler_invariants() {
        let mut c = CandidateScheduler::default();
        c.upsert(1, 2, 3.0);
        c.upsert(2, 3, 5.0);
        c.upsert(1, 3, 4.0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.pop_max(), Some((2, 3, 5.0)));
        c.upsert(1, 2, 10.0); // update overwrites
        assert_eq!(c.pop_max(), Some((1, 2, 10.0)));
        c.remove_leafset(3);
        assert!(c.is_empty());
        c.upsert(4, 5, 1.0);
        c.clear();
        assert!(c.is_empty() && c.related(4).is_empty());
    }

    #[test]
    fn pop_ties_break_towards_smallest_pair() {
        let mut c = CandidateScheduler::default();
        c.upsert(7, 9, 2.0);
        c.upsert(1, 4, 2.0);
        c.upsert(1, 3, 2.0);
        assert_eq!(c.pop_max(), Some((1, 3, 2.0)));
        assert_eq!(c.pop_max(), Some((1, 4, 2.0)));
        assert_eq!(c.pop_max(), Some((7, 9, 2.0)));
        assert_eq!(c.pop_max(), None);
    }

    #[test]
    fn policies_agree_on_paper_example() {
        // Under DataOnly pricing the two policies take identical greedy
        // paths on the paper example. (Under Total, Incremental may
        // legitimately stop earlier: Algorithm 3 only considers new
        // pairs from rdict[x] ∩ rdict[y], and a pair whose model cost
        // made it unprofitable before a merge is never revisited — the
        // trade-off §V accepts for its speed.)
        let (g, _) = paper_example();
        let cfg = CspmConfig {
            gain_policy: GainPolicy::DataOnly,
            ..Default::default()
        };
        let full = mine_with_policy(&g, SchedulePolicy::FullRegeneration, cfg);
        let inc = mine_with_policy(&g, SchedulePolicy::Incremental, cfg);
        assert!((full.final_dl - inc.final_dl).abs() < 1e-6);
        assert_eq!(full.merges, inc.merges);
        assert!(full.final_dl <= full.initial_dl);
    }

    #[test]
    fn both_policies_are_sound_under_total_pricing() {
        let (g, _) = paper_example();
        for policy in [
            SchedulePolicy::FullRegeneration,
            SchedulePolicy::Incremental,
        ] {
            let res = mine_with_policy(&g, policy, CspmConfig::instrumented());
            assert!(res.final_dl <= res.initial_dl + 1e-9);
            let mut prev = res.initial_dl;
            for it in &res.stats.iterations {
                assert!(it.dl_after < prev + 1e-9, "total DL must be monotone");
                prev = it.dl_after;
            }
        }
    }

    #[test]
    fn run_on_db_matches_mine_with_policy() {
        let (g, _) = paper_example();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let via_db = run_on_db(db, SchedulePolicy::Incremental, CspmConfig::default());
        let via_graph = mine_with_policy(&g, SchedulePolicy::Incremental, CspmConfig::default());
        assert_eq!(via_db.merges, via_graph.merges);
        assert!((via_db.final_dl - via_graph.final_dl).abs() < 1e-12);
    }

    #[test]
    fn parallel_sweep_matches_sequential_selection() {
        let d = cspm_graph::fixtures::labelled_path(60, 5);
        let db = InvertedDb::build(&d, CoresetMode::SingleValue, GainPolicy::Total);
        let pairs = db.sharing_pairs();
        assert!(!pairs.is_empty());
        let seq = best_pair_sequential(db.gain_view(), &pairs);
        for threads in [2, 4, 8] {
            let par = best_pair_parallel(&db, &pairs, threads);
            assert_eq!(seq.map(|(x, y, _)| (x, y)), par.map(|(x, y, _)| (x, y)));
            if let (Some(s), Some(p)) = (seq, par) {
                assert!((s.2 - p.2).abs() < 1e-12);
            }
        }
    }

    /// A connected graph with `k` interleaved label families, dense
    /// enough in distinct leafset pairs to exercise the parallel
    /// scoring fan-out.
    fn many_label_graph(n: usize, k: usize) -> cspm_graph::AttributedGraph {
        let mut b = cspm_graph::GraphBuilder::new();
        for i in 0..n {
            b.add_vertex([format!("a{}", i % k), format!("b{}", (i * 7 + 3) % k)]);
        }
        for i in 1..n {
            b.add_edge(i as u32 - 1, i as u32).unwrap();
        }
        for i in 0..n {
            let j = (i * 13 + 5) % n;
            if i != j {
                let _ = b.add_edge(i as u32, j as u32);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn score_pairs_is_identical_at_every_thread_count() {
        let d = many_label_graph(240, 16);
        let db = InvertedDb::build(&d, CoresetMode::SingleValue, GainPolicy::Total);
        let pairs = db.sharing_pairs();
        assert!(
            pairs.len() >= PARALLEL_SCORE_THRESHOLD,
            "need a batch large enough to fan out ({} pairs)",
            pairs.len()
        );
        let (seq, seq_pruned) = score_chunk(db.gain_view(), &pairs);
        for threads in [1, 2, 4, 8] {
            let (par, par_pruned) = score_pairs(&db, &pairs, threads);
            assert_eq!(seq, par, "gains must be bit-identical at {threads} threads");
            assert_eq!(seq_pruned, par_pruned);
        }
    }

    /// The batch initial sweep leaves the scheduler exactly as
    /// pair-by-pair seeding does: same entries, same gains to the bit,
    /// same pop order (so the same tie-breaks), same counters.
    #[test]
    fn batch_seeding_matches_pair_by_pair_seeding() {
        let d = many_label_graph(240, 16);
        for gain_policy in [GainPolicy::Total, GainPolicy::DataOnly] {
            let db = InvertedDb::build(&d, CoresetMode::SingleValue, gain_policy);
            let pairs = db.pair_list();
            let listed: Vec<_> = pairs.iter().collect();
            for policy in [
                SchedulePolicy::FullRegeneration,
                SchedulePolicy::Incremental,
            ] {
                let mut batch = CandidateScheduler::default();
                let mut reference = CandidateScheduler::default();
                let (mut batch_pruned, mut reference_pruned) = (0u64, 0u64);
                let batch_evals =
                    seed_initial(&db, &pairs, &mut batch, policy, 1, &mut batch_pruned);
                let reference_evals = seed_pairs(
                    &db,
                    &listed,
                    &mut reference,
                    policy,
                    4,
                    &mut reference_pruned,
                );
                assert_eq!(batch_evals, reference_evals);
                assert_eq!(batch_pruned, reference_pruned);
                assert!(
                    !reference.is_empty(),
                    "{policy:?}: fixture has positive pairs"
                );
                let drain = |mut c: CandidateScheduler| {
                    std::iter::from_fn(move || c.pop_max())
                        .map(|(x, y, g)| (x, y, g.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(drain(batch), drain(reference), "{gain_policy:?}/{policy:?}");
            }
        }
    }

    #[test]
    fn pruned_pairs_truly_have_no_positive_gain() {
        // The pruning bound may only dismiss pairs whose exact gain is
        // non-positive; anything else would change the mining path.
        let d = many_label_graph(240, 16);
        let db = InvertedDb::build(&d, CoresetMode::SingleValue, GainPolicy::Total);
        let view = db.gain_view();
        for &(x, y) in db.sharing_pairs().iter() {
            if view.pair_gain_upper_bound(x, y) <= GAIN_EPS {
                assert!(view.pair_gain(x, y) <= GAIN_EPS);
            }
        }
    }

    /// Under Total pricing the Algorithm 2 bound must actually dismiss
    /// pairs whose union row would cost more ST bits than the data side
    /// can possibly save. Constructed instance: a tiny-overlap pair
    /// (`rx` row of length 1, globally rare `ry`) under a small "hub"
    /// coreset, padded with an off-coreset chain that inflates `ry`'s
    /// standard code without growing the hub coreset's frequency.
    #[test]
    fn pruning_bound_dismisses_uneconomic_pairs() {
        let mut b = cspm_graph::GraphBuilder::new();
        let hubs: Vec<u32> = (0..4).map(|_| b.add_vertex(["hub"])).collect();
        for w in hubs.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let u = b.add_vertex(["rx"]);
        b.add_edge(u, hubs[0]).unwrap();
        let v1 = b.add_vertex(["ry"]);
        let v2 = b.add_vertex(["ry"]);
        b.add_edge(v1, hubs[0]).unwrap();
        b.add_edge(v1, hubs[1]).unwrap();
        b.add_edge(v2, hubs[2]).unwrap();
        b.add_edge(v2, hubs[3]).unwrap();
        // Padding chain: boosts every rare value's ST code length while
        // touching the hub coreset through a single bridge edge.
        let pads: Vec<u32> = (0..100).map(|_| b.add_vertex(["pad"])).collect();
        for w in pads.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.add_edge(pads[0], hubs[3]).unwrap();
        let g = b.build().unwrap();
        let db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        let view = db.gain_view();
        let rx = g.attrs().get("rx").unwrap();
        let ry = g.attrs().get("ry").unwrap();
        let find = |a| {
            db.live_leafsets()
                .into_iter()
                .find(|&l| db.leafset_items(l) == [a])
                .expect("singleton leafset")
        };
        let (lx, ly) = (find(rx), find(ry));
        let ub = view.pair_gain_upper_bound(lx, ly);
        assert!(ub <= GAIN_EPS, "bound should dismiss (rx, ry), got {ub}");
        assert!(view.pair_gain(lx, ly) <= GAIN_EPS, "and the prune is sound");
    }

    /// A stale queue entry whose gain flipped non-positive must never be
    /// applied. Incremental revalidates on pop and drops it here;
    /// FullRegeneration never sees one (its queue is rebuilt from exact
    /// gains after every merge — `seed_pairs` only stores fresh values).
    #[test]
    fn stale_flipped_entry_is_never_popped_as_positive() {
        let (g, _) = paper_example();
        let mut db = InvertedDb::build(&g, CoresetMode::SingleValue, GainPolicy::Total);
        // Stale the pool: merge the globally best pair directly, behind
        // the scheduler's back.
        let pairs = db.sharing_pairs();
        let (bx, by, _) = best_pair_sequential(db.gain_view(), &pairs).expect("a positive pair");
        db.merge(bx, by);
        // Poison the queue with entries whose *stored* gain is huge but
        // whose true post-merge gain is non-positive.
        let mut scheduler = CandidateScheduler::default();
        let mut poisoned = 0u64;
        for (x, y) in db.sharing_pairs() {
            if db.pair_gain(x, y) <= GAIN_EPS {
                scheduler.upsert(x, y, 1e6);
                poisoned += 1;
            }
        }
        assert!(poisoned > 0, "fixture must yield stale candidates");
        let mut stats = RunStats::default();
        let popped =
            pop_next_positive(&mut scheduler, &db, SchedulePolicy::Incremental, &mut stats);
        assert!(
            popped.is_none(),
            "revalidation let a stale entry through: {popped:?}"
        );
        assert!(scheduler.is_empty(), "all poisoned entries were drained");
        assert_eq!(stats.total_gain_evals, poisoned, "one revalidation each");
    }

    #[test]
    fn full_regeneration_delegates_past_pair_threshold() {
        let (g, _) = paper_example();
        let strict = CspmConfig {
            full_regen_max_pairs: Some(0), // everything is "too large"
            ..Default::default()
        };
        let res = mine_with_policy(&g, SchedulePolicy::FullRegeneration, strict);
        assert!(res.stats.delegated, "run must record the delegation");
        // The delegated run is exactly the incremental run.
        let inc = mine_with_policy(&g, SchedulePolicy::Incremental, CspmConfig::default());
        assert_eq!(res.final_dl, inc.final_dl);
        assert_eq!(res.merges, inc.merges);
        // Delegation disabled: the policy is honoured no matter the size.
        let honoured = CspmConfig {
            full_regen_max_pairs: None,
            ..Default::default()
        };
        let res = mine_with_policy(&g, SchedulePolicy::FullRegeneration, honoured);
        assert!(!res.stats.delegated);
    }

    #[test]
    fn mining_is_bit_identical_across_thread_counts() {
        let (g, _) = paper_example();
        for policy in [
            SchedulePolicy::FullRegeneration,
            SchedulePolicy::Incremental,
        ] {
            let base = mine_with_policy(&g, policy, CspmConfig::default().with_threads(1));
            for threads in [2, 4, 8] {
                let run = mine_with_policy(&g, policy, CspmConfig::default().with_threads(threads));
                assert_eq!(
                    base.final_dl, run.final_dl,
                    "{policy:?} @ {threads} threads"
                );
                assert_eq!(base.merges, run.merges);
                assert_eq!(base.stats.total_gain_evals, run.stats.total_gain_evals);
                assert_eq!(base.stats.pruned_pairs, run.stats.pruned_pairs);
            }
        }
    }

    #[test]
    fn tie_breaking_prefers_smallest_pair() {
        assert_eq!(better(None, (3, 4, 1.0)), Some((3, 4, 1.0)));
        assert_eq!(better(Some((3, 4, 1.0)), (1, 2, 1.0)), Some((1, 2, 1.0)));
        assert_eq!(better(Some((1, 2, 1.0)), (3, 4, 1.0)), Some((1, 2, 1.0)));
        assert_eq!(better(Some((1, 2, 1.0)), (3, 4, 2.0)), Some((3, 4, 2.0)));
    }
}
