//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pokec_partial|dblp_basic|serve_tenants> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload drives CSPM through its public library API from this
//! one process; the program only ever receives generated graph text
//! and wire lines. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` records spans around the calls into each
//! layer and reports the per-layer metrics instead. Human-readable
//! lines come first; the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for what every metric means.

mod batch;
mod inputs;
mod prom;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use stats::Tally;
use trace::Tracer;

/// Seed of the pinned digests.
pub const DEFAULT_SEED: u64 = 2022;

pub const WORKLOADS: [&str; 3] = ["pokec_partial", "dblp_basic", "serve_tenants"];

/// Metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mine_s_p50", "s"),
    ("cli_s_p50", "s"),
    ("ops_per_s", "1/s"),
];

/// Metrics of a traced run, with their units. A layer the workload
/// never calls reports 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("graph.parse_s", "s"),
    ("inverted.build_s", "s"),
    ("inverted.sharing_pairs_s", "s"),
    ("inverted.sharing_pairs", "count"),
    ("inverted.seed_gain_s", "s"),
    ("inverted.seed_bound_s", "s"),
    ("inverted.rows", "count"),
    ("inverted.approx_bytes", "bytes"),
    ("engine.first_merge_s", "s"),
    ("engine.merge_s", "s"),
    ("engine.finish_s", "s"),
    ("engine.clone_s", "s"),
    ("engine.merges", "count"),
    ("engine.gain_evals", "count"),
    ("engine.evals_per_merge", "count"),
    ("engine.pruned_ratio", "ratio"),
    ("engine.delegated", "count"),
    ("positions.sparse_rows", "count"),
    ("positions.bitmap_rows", "count"),
    ("positions.flips", "count"),
    ("model.extract_s", "s"),
    ("decode.verify_s", "s"),
    ("decode.occurrences", "count"),
    ("session.stage_delta_s", "s"),
    ("session.run_with_s", "s"),
    ("store.open_warm_s", "s"),
    ("store.fsync_s_p50", "s"),
    ("store.fsyncs_per_delta", "count"),
    ("store.wal_bytes_per_delta", "bytes"),
    ("store.checkpoint_s_p50", "s"),
    ("serve.connect_s_p50", "s"),
    ("serve.daemon_open_s_p50", "s"),
    ("serve.daemon_delta_s_p50", "s"),
    ("serve.daemon_mine_s_p50", "s"),
    ("serve.daemon_stats_s_p50", "s"),
    ("serve.daemon_close_s_p50", "s"),
    ("serve.lock_wait_s_p50", "s"),
    ("serve.cli_overhead_s_p50", "s"),
    ("serve.sdk_overhead_s_p50", "s"),
    ("serve.cli_rtt_s_p50", "s"),
    ("serve.cli_rtt_s_tail", "s"),
    ("serve.delta_s_p50", "s"),
    ("serve.delta_s_tail", "s"),
    ("serve.remine_s_p50", "s"),
    ("serve.remine_s_tail", "s"),
    ("serve.reopen_s_p50", "s"),
    ("telemetry.scrape_s", "s"),
    ("telemetry.exposition_bytes", "bytes"),
    ("self.bench_s", "s"),
    ("self.graph_s", "s"),
    ("self.inverted_s", "s"),
    ("self.engine_s", "s"),
    ("self.decode_s", "s"),
    ("self.serve_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("run.fail_ratio", "ratio"),
    ("run.threads_available", "count"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    const USAGE: &'static str =
        "usage: perfbench --workload <pokec_partial|dblp_basic|serve_tenants> \
                                 [--seed N] [--seconds S] [--trace 0|1]";

    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Sets a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|&(n, _)| n)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values.insert(key, value);
    }

    /// Sets a layer's mean self time per operation; layers the metric
    /// list does not name are only noted.
    pub fn set_self(&mut self, layer: &str, secs: f64) {
        let name = format!("self.{layer}_s");
        if unit_of(&name).is_some() {
            self.set(&name, secs);
        } else {
            self.note(format!("{name} {secs:.6} s"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// The result line: every metric of the run's set, by name and unit.
fn result_line(out: &Outcome, trace: bool) -> String {
    let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = set
        .iter()
        .map(|&(name, unit)| {
            let value = out.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0 && out.tally.attempted > 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", Args::USAGE);
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "pokec_partial" => batch::run(&batch::POKEC_PARTIAL, &args),
        "dblp_basic" => batch::run(&batch::DBLP_BASIC, &args),
        _ => serve::run(&args),
    };

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.trace {
        out.set("run.fail_ratio", out.tally.fail_ratio());
        out.set("run.threads_available", threads as f64);
    } else {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    if let Some(tr) = out.tracer.take() {
        out.set("trace.spans", tr.spans().len() as f64);
        let dir = Path::new(".perfbench").join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&path)) {
            Ok(()) => out.note(format!("spans written to {}", path.display())),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    println!(
        "workload {} seed {} seconds {} trace {} threads_available {threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, value) in &out.values {
        println!("  {name} {value} {}", unit_of(name).unwrap_or(""));
    }
    println!(
        "  fail_ratio {} ({} failed / {} attempted)",
        out.tally.fail_ratio(),
        out.tally.failed,
        out.tally.attempted
    );
    for why in &out.tally.reasons {
        println!("  failure: {why}");
    }
    println!("{}", result_line(&out, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspm_serve::json::{parse, Value};

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "dblp_basic",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dblp_basic", 7, 3.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "dblp_basic", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "dblp_basic", "--seconds", "0"]).is_err());
        assert!(args(&[]).is_err());
    }

    #[test]
    fn result_line_carries_every_metric_of_the_set() {
        let mut out = Outcome::default();
        out.tally.record(Ok(()));
        out.set("mine_s_p50", 1.25);
        for (trace, set) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let v = parse(&result_line(&out, trace)).expect("valid JSON");
            assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
            let metrics = v.get("metrics").expect("metrics");
            for (name, unit) in set {
                let m = metrics.get(name).expect("every metric present");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
            }
        }
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.tally.record(Ok(()));
        out.tally.record(Err("forged".into()));
        let v = parse(&result_line(&out, false)).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
    }

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let v = parse(&text).expect("BENCHMARK.json is JSON");
        for (key, set) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = set
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
