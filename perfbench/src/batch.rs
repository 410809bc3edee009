//! The batch workloads, `pokec_partial` and `dblp_basic`: what an
//! analyst running `cspm mine` / `cspm verify` waits for.
//!
//! One operation parses a generated graph text and mines it (and, on
//! `dblp_basic`, checks that the result decodes losslessly). The loop
//! is closed: one operation at a time, round-robin over the run's
//! inputs, until the run's seconds are up and every input has been
//! mined at least once.

use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

use cspm_core::{
    verify_lossless, CspmResult, FnObserver, IterationStat, LossError, MinedModel, Miner, RunStats,
    SchedulePolicy,
};
use cspm_datasets::{dblp_like, pokec_like, Dataset, Scale};
use cspm_graph::{read_graph, write_graph, AttributedGraph};
use cspm_serve::dl_bits;

use crate::inputs::input_seed;
use crate::stats::{check_digest, mean, median, Tally};
use crate::trace::{layer_self_per_op, Tracer, PROBE};
use crate::{Args, Outcome, DEFAULT_SEED};

/// One batch workload.
pub struct BatchSpec {
    generate: fn(Scale, u64) -> Dataset,
    scale: Scale,
    /// Inputs per run. Mine time depends on the generated graph, so a
    /// run spreads its operations over several graphs derived from the
    /// seed; that keeps medians steady from seed to seed.
    inputs: usize,
    policy: SchedulePolicy,
    /// Whether every operation also runs `verify_lossless`.
    verify_each: bool,
    /// Final DL digest of input 0 at the default seed.
    pinned: &'static str,
}

pub const POKEC_PARTIAL: BatchSpec = BatchSpec {
    generate: pokec_like,
    scale: Scale::Small,
    inputs: 4,
    policy: SchedulePolicy::Incremental,
    verify_each: false,
    pinned: "4153207949202dc0",
};

pub const DBLP_BASIC: BatchSpec = BatchSpec {
    generate: dblp_like,
    scale: Scale::Paper,
    inputs: 12,
    policy: SchedulePolicy::FullRegeneration,
    verify_each: true,
    pinned: "40f4a9fc76d4522f",
};

impl BatchSpec {
    /// The miner an operation uses. CSPM-Basic runs undelegated: the
    /// full-regeneration sweep is what that workload measures.
    fn miner(&self, threads: usize) -> Miner {
        let m = Miner::new().threads(threads).policy(self.policy);
        match self.policy {
            SchedulePolicy::FullRegeneration => m.full_regen_cap(None),
            SchedulePolicy::Incremental => m,
        }
    }
}

/// Scoring threads of a timed mine.
const THREADS: usize = 2;

/// A graph text with the digest mining it must produce.
pub struct Input {
    pub text: String,
    /// Final DL digest of a single-threaded mine made in set-up.
    pub reference: String,
    /// The digest pinned for input 0 at the default seed.
    pub pinned: Option<&'static str>,
}

/// Serialises a generated graph as the text the program receives.
pub fn graph_text(graph: &AttributedGraph) -> String {
    let mut bytes = Vec::new();
    write_graph(graph, &mut bytes).expect("writing to memory cannot fail");
    String::from_utf8(bytes).expect("graph text is UTF-8")
}

/// Generates input `j` and mines its single-threaded reference.
fn set_up(spec: &BatchSpec, seed: u64, j: usize) -> Input {
    let text = graph_text(&(spec.generate)(spec.scale, input_seed(seed, j)).graph);
    let parsed = read_graph(text.as_bytes()).expect("generated text parses");
    let reference = dl_bits(spec.miner(1).build().mine(&parsed).final_dl);
    Input {
        text,
        reference,
        pinned: (j == 0 && seed == DEFAULT_SEED).then_some(spec.pinned),
    }
}

/// Whether one operation's output is right: the digest equals the
/// reference (and the pinned value, where there is one); with
/// `loss`, the result also decodes losslessly and compresses.
fn check_op(
    what: &str,
    input: &Input,
    result: &CspmResult,
    loss: Option<&[LossError]>,
) -> Result<(), String> {
    let got = dl_bits(result.final_dl);
    check_digest(what, &got, &input.reference)?;
    if let Some(pinned) = input.pinned {
        check_digest(what, &got, pinned)?;
    }
    if let Some(loss) = loss {
        if !loss.is_empty() {
            return Err(format!("{what}: {} occurrences do not decode", loss.len()));
        }
        let ratio = result.compression_ratio();
        if !(ratio > 0.0 && ratio < 1.0) {
            return Err(format!("{what}: compression ratio {ratio} outside (0, 1)"));
        }
    }
    Ok(())
}

/// Samples of one untraced operation.
struct Plain {
    input: usize,
    mine_s: f64,
    verify_s: f64,
    op_s: f64,
}

fn plain_op(
    spec: &BatchSpec,
    j: usize,
    input: &Input,
    what: &str,
    tally: &mut Tally,
) -> Option<Plain> {
    let start = Instant::now();
    let graph = match read_graph(input.text.as_bytes()) {
        Ok(g) => g,
        Err(e) => {
            tally.record(Err(format!("{what}: parse failed: {e}")));
            return None;
        }
    };
    let result = spec.miner(THREADS).build().mine(&graph);
    let mine_s = start.elapsed().as_secs_f64();
    let verified = Instant::now();
    let loss = spec
        .verify_each
        .then(|| verify_lossless(&graph, &result.db));
    let verify_s = verified.elapsed().as_secs_f64();
    let op_s = start.elapsed().as_secs_f64();
    tally.record(check_op(what, input, black_box(&result), loss.as_deref()));
    Some(Plain {
        input: j,
        mine_s,
        verify_s,
        op_s,
    })
}

/// One traced operation's layer split and engine counters.
#[derive(Debug, Clone)]
pub struct Split {
    pub op_s: f64,
    pub parse_s: f64,
    pub build_s: f64,
    pub first_merge_s: f64,
    pub merge_s: f64,
    pub finish_s: f64,
    pub verify_s: Option<f64>,
    pub merges: usize,
    pub stats: RunStats,
}

/// One traced operation: its split and what it produced.
pub struct Traced {
    pub split: Split,
    pub graph: AttributedGraph,
    pub result: CspmResult,
}

/// The operation split at layer boundaries: parse, database build, and
/// the merge loop timed from outside through a timestamping observer
/// (call → first merge → last merge → return), then the optional
/// lossless check. `mine` (load + run) is the same work untraced.
pub fn traced_op(
    miner: Miner,
    verify: bool,
    input: &Input,
    what: &str,
    op: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Option<Traced> {
    let root = tr.open("bench.op", None, op);
    let start = Instant::now();
    let parsed = read_graph(input.text.as_bytes());
    let parsed_at = Instant::now();
    tr.record("graph.parse", start, parsed_at, Some(root), op);
    let graph = match parsed {
        Ok(g) => g,
        Err(e) => {
            tr.close(root);
            tally.record(Err(format!("{what}: parse failed: {e}")));
            return None;
        }
    };
    let mut session = miner.build();
    let build_start = Instant::now();
    session.load(&graph);
    let call = Instant::now();
    tr.record("inverted.build", build_start, call, Some(root), op);
    let (mut first, mut last) = (None, None);
    let result = {
        let mut observer = FnObserver(|_: &IterationStat| {
            let now = Instant::now();
            first.get_or_insert(now);
            last = Some(now);
            ControlFlow::Continue(())
        });
        session.run_with(&mut observer)
    };
    let ret = Instant::now();
    let result = result.expect("the session was just loaded");
    let run = tr.record("engine.run_with", call, ret, Some(root), op);
    let (first, last) = (first.unwrap_or(ret), last.unwrap_or(ret));
    tr.record("engine.first_merge", call, first, Some(run), op);
    tr.record("engine.merge", first, last, Some(run), op);
    tr.record("engine.finish", last, ret, Some(run), op);
    let (loss, verify_s) = if verify {
        let v = Instant::now();
        let loss = verify_lossless(&graph, &result.db);
        let end = Instant::now();
        tr.record("decode.verify", v, end, Some(root), op);
        (Some(loss), Some((end - v).as_secs_f64()))
    } else {
        (None, None)
    };
    tr.close(root);
    tally.record(check_op(what, input, &result, loss.as_deref()));
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let split = Split {
        op_s: tr.spans()[root].duration(),
        parse_s: secs(start, parsed_at),
        build_s: secs(build_start, call),
        first_merge_s: secs(call, first),
        merge_s: secs(first, last),
        finish_s: secs(last, ret),
        verify_s,
        merges: result.merges,
        stats: result.stats.clone(),
    };
    Some(Traced {
        split,
        graph,
        result,
    })
}

pub fn run(spec: &BatchSpec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let inputs: Vec<Input> = (0..spec.inputs)
        .map(|j| {
            let start = Instant::now();
            let input = set_up(spec, args.seed, j);
            setup_s.push(start.elapsed().as_secs_f64());
            input
        })
        .collect();
    out.set("setup_s", median(&setup_s).expect("at least one input"));

    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let mut plain: Vec<Plain> = Vec::new();
    let mut splits: Vec<Split> = Vec::new();
    // Only the last traced operation's graph and model are kept, for
    // the probes after the loop.
    let mut last: Option<(usize, Traced)> = None;
    let mut i = 0usize;
    while origin.elapsed().as_secs_f64() < args.seconds || i < spec.inputs {
        let j = i % spec.inputs;
        let what = format!("op {i} (input {j})");
        // The traced run alternates traced and untraced operations, so
        // tracing overhead is measured within one run; the phase flips
        // every pass, so each input is mined both ways.
        if args.trace && (i / spec.inputs + j) % 2 == 1 {
            let t = traced_op(
                spec.miner(THREADS),
                spec.verify_each,
                &inputs[j],
                &what,
                i as u64,
                &mut tr,
                &mut out.tally,
            );
            if let Some(t) = t {
                splits.push(t.split.clone());
                last = Some((j, t));
            }
        } else if let Some(p) = plain_op(spec, j, &inputs[j], &what, &mut out.tally) {
            plain.push(p);
        }
        i += 1;
    }
    let loop_s = origin.elapsed().as_secs_f64();

    out.note(format!(
        "{i} ops over {} inputs in {loop_s:.3} s ({} traced)",
        spec.inputs,
        splits.len()
    ));
    // Statistics over an even mix of the inputs: each input counts
    // once, however many operations the run gave it.
    let by_input = |f: fn(&Plain) -> f64, reduce: fn(&[f64]) -> Option<f64>| -> Vec<f64> {
        (0..spec.inputs)
            .filter_map(|j| {
                let v: Vec<f64> = plain.iter().filter(|p| p.input == j).map(f).collect();
                reduce(&v)
            })
            .collect()
    };
    let mine = by_input(|p| p.mine_s, median);
    let shown: Vec<String> = mine.iter().map(|m| format!("{m:.3}")).collect();
    out.note(format!("mine_s median per input: {}", shown.join(" ")));
    out.set("mine_s_p50", median(&mine).unwrap_or(0.0));
    out.set(
        "cli_s_p50",
        median(&by_input(|p| p.op_s, median)).unwrap_or(0.0),
    );
    out.set(
        "ops_per_s",
        1.0 / mean(&by_input(|p| p.op_s, mean)).unwrap_or(f64::INFINITY),
    );
    if spec.verify_each {
        out.set(
            "decode.verify_s",
            median(&by_input(|p| p.verify_s, median)).unwrap_or(0.0),
        );
    }
    if !args.trace {
        return out;
    }

    set_traced_layers(&mut out, &splits);
    let traced_p50 = median(&splits.iter().map(|t| t.op_s).collect::<Vec<_>>()).unwrap_or(0.0);
    out.set("trace.op_s", traced_p50);
    let untraced: Vec<f64> = plain.iter().map(|p| p.op_s).collect();
    out.set(
        "trace.overhead_s",
        traced_p50 - median(&untraced).unwrap_or(0.0),
    );
    for (layer, t) in layer_self_per_op(tr.spans()) {
        out.set_self(layer, t);
    }

    let (last_input, last) = last.expect("a traced run traces at least one operation");
    probe_layers(spec.miner(1), &last, &mut tr, &mut out);
    if !spec.verify_each {
        // Too slow to run per operation on this workload, but the
        // number belongs in the trace.
        let loss = tr.time("decode.verify", None, PROBE, || {
            verify_lossless(&last.graph, &last.result.db)
        });
        out.set("decode.verify_s", last_duration(&tr));
        out.tally.record(check_op(
            &format!("verify probe (input {last_input})"),
            &inputs[last_input],
            &last.result,
            Some(&loss),
        ));
    }
    out.tracer = Some(tr);
    out
}

/// Per-layer medians over traced operations: the time split and the
/// engine and posting counters each run reports.
pub fn set_traced_layers(out: &mut Outcome, splits: &[Split]) {
    let med = |f: &dyn Fn(&Split) -> f64| {
        median(&splits.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.set("graph.parse_s", med(&|t| t.parse_s));
    out.set("inverted.build_s", med(&|t| t.build_s));
    out.set("engine.first_merge_s", med(&|t| t.first_merge_s));
    out.set("engine.merge_s", med(&|t| t.merge_s));
    out.set("engine.finish_s", med(&|t| t.finish_s));
    if splits.iter().all(|t| t.verify_s.is_some()) {
        out.set("decode.verify_s", med(&|t| t.verify_s.unwrap_or(0.0)));
    }
    let evals = |t: &Split| t.stats.total_gain_evals as f64;
    out.set("engine.merges", med(&|t| t.merges as f64));
    out.set("engine.gain_evals", med(&evals));
    out.set(
        "engine.evals_per_merge",
        med(&|t| evals(t) / (t.merges as f64).max(1.0)),
    );
    out.set(
        "engine.pruned_ratio",
        med(&|t| t.stats.pruned_pairs as f64 / evals(t).max(1.0)),
    );
    out.set(
        "engine.delegated",
        med(&|t| f64::from(u8::from(t.stats.delegated))),
    );
    out.set(
        "positions.sparse_rows",
        med(&|t| t.stats.posting.sparse_rows as f64),
    );
    out.set(
        "positions.bitmap_rows",
        med(&|t| t.stats.posting.bitmap_rows as f64),
    );
    out.set(
        "positions.flips",
        med(&|t| (t.stats.posting.flips_to_bitmap + t.stats.posting.flips_to_sparse) as f64),
    );
}

/// Times the pieces of the merge loop's set-up in isolation on one
/// traced operation's graph: database clone, candidate-pair
/// enumeration, seed scoring of every sharing pair (exact gain, then
/// the Algorithm 2 bound, one thread), model extraction; plus the
/// database's size and a render of the metrics registry.
pub fn probe_layers(miner: Miner, last: &Traced, tr: &mut Tracer, out: &mut Outcome) {
    let mut session = miner.build();
    session.load(&last.graph);
    let db = session.pristine_db().expect("just loaded");
    let clones: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(db.clone());
            let end = Instant::now();
            tr.record("engine.clone", start, end, None, PROBE);
            (end - start).as_secs_f64()
        })
        .collect();
    out.set("engine.clone_s", median(&clones).expect("three clones"));
    let pairs = tr.time("inverted.sharing_pairs", None, PROBE, || db.sharing_pairs());
    out.set("inverted.sharing_pairs_s", last_duration(tr));
    out.set("inverted.sharing_pairs", pairs.len() as f64);
    let gv = db.gain_view();
    black_box(tr.time("inverted.seed_gain", None, PROBE, || {
        pairs.iter().map(|&(x, y)| gv.pair_gain(x, y)).sum::<f64>()
    }));
    out.set("inverted.seed_gain_s", last_duration(tr));
    black_box(tr.time("inverted.seed_bound", None, PROBE, || {
        pairs
            .iter()
            .map(|&(x, y)| gv.pair_gain_upper_bound(x, y))
            .sum::<f64>()
    }));
    out.set("inverted.seed_bound_s", last_duration(tr));
    out.set("inverted.rows", db.row_count() as f64);
    out.set("inverted.approx_bytes", db.approx_bytes() as f64);
    black_box(tr.time("model.extract", None, PROBE, || {
        MinedModel::from_db(&last.result.db)
    }));
    out.set("model.extract_s", last_duration(tr));
    out.set(
        "decode.occurrences",
        occurrences(&last.graph, &last.result) as f64,
    );
    let text = tr.time("telemetry.scrape", None, PROBE, || {
        cspm_telemetry::global().render()
    });
    out.set("telemetry.scrape_s", last_duration(tr));
    out.set("telemetry.exposition_bytes", text.len() as f64);
}

fn last_duration(tr: &Tracer) -> f64 {
    tr.spans()
        .last()
        .expect("a span was just recorded")
        .duration()
}

/// Coreset occurrences `verify_lossless` decodes: every (coreset,
/// vertex) pair whose vertex has neighbours.
fn occurrences(graph: &AttributedGraph, result: &CspmResult) -> usize {
    result
        .db
        .coresets()
        .iter()
        .map(|c| {
            c.positions
                .iter()
                .filter(|&&v| !graph.neighbors(v).is_empty())
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_input(spec: &BatchSpec) -> Input {
        let text = graph_text(&(spec.generate)(Scale::Tiny, 5).graph);
        let graph = read_graph(text.as_bytes()).expect("parses");
        let reference = dl_bits(spec.miner(1).build().mine(&graph).final_dl);
        Input {
            text,
            reference,
            pinned: None,
        }
    }

    #[test]
    fn matching_operations_pass() {
        let input = tiny_input(&DBLP_BASIC);
        let mut tally = Tally::default();
        plain_op(&DBLP_BASIC, 0, &input, "op", &mut tally).expect("parses");
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.reasons
        );
    }

    #[test]
    fn forged_reference_digest_fails_the_operation() {
        let mut input = tiny_input(&DBLP_BASIC);
        input.reference = "0000000000000000".to_string();
        let mut tally = Tally::default();
        plain_op(&DBLP_BASIC, 0, &input, "op", &mut tally).expect("parses");
        plain_op(&DBLP_BASIC, 0, &input, "op", &mut tally).expect("parses");
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }

    #[test]
    fn forged_pinned_digest_fails_the_traced_operation() {
        let mut input = tiny_input(&POKEC_PARTIAL);
        input.pinned = Some("4153207949202dc0");
        let mut tally = Tally::default();
        let mut tr = Tracer::new(Instant::now());
        let miner = POKEC_PARTIAL.miner(THREADS);
        traced_op(miner, false, &input, "op", 0, &mut tr, &mut tally).expect("parses");
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.reasons[0].contains("4153207949202dc0"));
    }

    #[test]
    fn traced_op_layers_cover_the_operation() {
        let input = tiny_input(&DBLP_BASIC);
        let mut tally = Tally::default();
        let mut tr = Tracer::new(Instant::now());
        let miner = DBLP_BASIC.miner(THREADS);
        let t = traced_op(miner, true, &input, "op", 0, &mut tr, &mut tally).expect("parses");
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "bench.op",
                "graph.parse",
                "inverted.build",
                "engine.run_with",
                "engine.first_merge",
                "engine.merge",
                "engine.finish",
                "decode.verify"
            ]
        );
        let t = &t.split;
        let split = t.parse_s
            + t.build_s
            + t.first_merge_s
            + t.merge_s
            + t.finish_s
            + t.verify_s.expect("verified");
        assert!(split <= t.op_s + 1e-9 && split > 0.0);
    }
}
