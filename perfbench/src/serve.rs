//! The `serve_tenants` workload: service clients sending deltas and
//! re-mines to `cspm serve`, and operators re-opening durable tenants.
//!
//! An in-process daemon (`Server::spawn`, a store directory, two pool
//! threads) serves two closed-loop clients with zero think time:
//! `cli` opens a fresh Unix-socket connection per request, as
//! `cspm client` does, and `sdk` holds one connection for the whole
//! run. Each client replays a script on a fresh tenant name: open (a
//! DBLP-like Small graph), 16 × (delta, mine) with deltas alternating
//! additive and churn, stats, close, open (warm restore), mine, close.
//! Every `mine` digest is compared with digests precomputed in set-up
//! from a local replica driven through the same wire-decoded deltas,
//! so the clients do no mining while the run measures.

use std::io::{BufRead as _, BufReader, Write as _};
use std::ops::ControlFlow;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cspm_core::{FnObserver, IterationStat, Miner, MiningSession};
use cspm_datasets::{dblp_like, Scale};
use cspm_graph::dynamic::GraphDelta;
use cspm_graph::{read_graph, AttributedGraph};
use cspm_serve::json::{parse, Value};
use cspm_serve::proto::delta_from_value;
use cspm_serve::{dl_bits, Server, ServerConfig};
use cspm_store::{Durable as _, DurableSession};

use crate::batch::{graph_text, probe_layers, set_traced_layers, traced_op, Input};
use crate::inputs::{input_seed, SplitMix64};
use crate::prom::Scrape;
use crate::stats::{check_digest, median, tail, Tally};
use crate::trace::{layer_self_per_op, Tracer, PROBE};
use crate::{Args, Outcome};

/// Distinct scripts (graph + deltas) per run; clients cycle through
/// them, so medians do not hang on one generated graph.
const SCRIPTS: usize = 8;
/// (delta, mine) steps per script.
const STEPS: usize = 16;
const POOL_THREADS: usize = 2;

/// The daemon mines with one scoring thread per run.
fn daemon_miner() -> Miner {
    Miner::new().threads(1)
}

fn run_quietly(session: &mut MiningSession) -> cspm_core::CspmResult {
    session
        .run_with(&mut FnObserver(|_: &IterationStat| {
            ControlFlow::Continue(())
        }))
        .expect("the session is loaded")
}

/// One tenant conversation, prepared in set-up.
struct Script {
    text: String,
    base_digest: String,
    /// Delta fields of each step, spliced into a request line.
    deltas: Vec<String>,
    /// Final DL digest of a mine after each step.
    digests: Vec<String>,
}

fn json_str(s: &str) -> String {
    Value::Str(s.to_string()).to_json()
}

fn delta_line(session: &str, fields: &str) -> String {
    format!(
        "{{\"op\":\"delta\",\"session\":{},{fields}}}",
        json_str(session)
    )
}

/// Decodes delta fields exactly as the daemon decodes a request line.
fn decode_delta(fields: &str) -> GraphDelta {
    let line = delta_line("replica", fields);
    let value = parse(&line).expect("generated delta is JSON");
    delta_from_value(&value).expect("generated delta decodes")
}

/// One new vertex with one or two existing values, wired to up to two
/// existing vertices.
fn additive(g: &AttributedGraph, rng: &mut SplitMix64) -> String {
    let names: Vec<&str> = g.attrs().iter().map(|(_, n)| n).collect();
    let mut labels = vec![names[rng.below(names.len())]];
    let second = names[rng.below(names.len())];
    if second != labels[0] {
        labels.push(second);
    }
    let n = g.vertex_count();
    let (u, w) = (rng.below(n), rng.below(n));
    let mut edges = vec![format!("[{u},{{\"new\":0}}]")];
    if w != u {
        edges.push(format!("[{w},{{\"new\":0}}]"));
    }
    let labels: Vec<String> = labels.iter().map(|l| json_str(l)).collect();
    format!(
        "\"add_vertices\":[[{}]],\"add_edges\":[{}]",
        labels.join(","),
        edges.join(",")
    )
}

/// Removes two existing edges and swaps one vertex's value for another
/// while every value stays in use somewhere.
fn churn(g: &AttributedGraph, rng: &mut SplitMix64) -> String {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let a = rng.below(edges.len());
    let b = (a + 1 + rng.below(edges.len() - 1)) % edges.len();
    let mut fields = format!(
        "\"remove_edges\":[[{},{}],[{},{}]]",
        edges[a].0, edges[a].1, edges[b].0, edges[b].1
    );
    let mut freq = vec![0usize; g.attrs().len()];
    for v in g.vertices() {
        for &l in g.labels(v) {
            freq[l as usize] += 1;
        }
    }
    let name = |id: u32| g.attrs().name(id).expect("interned value");
    for _ in 0..64 {
        let v = rng.below(g.vertex_count()) as u32;
        let labels = g.labels(v);
        if labels.is_empty() {
            continue;
        }
        let old = labels[rng.below(labels.len())];
        let new = rng.below(freq.len()) as u32;
        if freq[old as usize] < 2 || labels.contains(&new) {
            continue;
        }
        fields.push_str(&format!(
            ",\"change_labels\":[[{v},{},{}]]",
            json_str(name(old)),
            json_str(name(new))
        ));
        break;
    }
    fields
}

fn build_script(seed: u64, j: usize) -> Script {
    let s = input_seed(seed, j);
    let text = graph_text(&dblp_like(Scale::Small, s).graph);
    let graph = read_graph(text.as_bytes()).expect("generated text parses");
    let mut session = daemon_miner().build();
    session.load(&graph);
    let base_digest = dl_bits(run_quietly(&mut session).final_dl);
    let mut rng = SplitMix64(s ^ 0xD17A_5EED);
    let (mut deltas, mut digests) = (Vec::new(), Vec::new());
    for k in 0..STEPS {
        let g = session.graph().expect("loaded from a graph");
        let fields = if k % 2 == 0 {
            additive(g, &mut rng)
        } else {
            churn(g, &mut rng)
        };
        session
            .stage_delta(&decode_delta(&fields))
            .expect("generated delta applies");
        digests.push(dl_bits(run_quietly(&mut session).final_dl));
        deltas.push(fields);
    }
    Script {
        text,
        base_digest,
        deltas,
        digests,
    }
}

/// What a request is, for sorting its round trip into a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Open,
    Delta,
    /// A mine after a delta.
    Mine,
    Stats,
    Close,
    /// An open of a closed durable tenant (warm restore).
    Reopen,
    /// The mine after the warm restore.
    RestoredMine,
}

impl Kind {
    fn daemon_op(self) -> &'static str {
        match self {
            Kind::Open | Kind::Reopen => "open",
            Kind::Delta => "delta",
            Kind::Mine | Kind::RestoredMine => "mine",
            Kind::Stats => "stats",
            Kind::Close => "close",
        }
    }
}

/// What a response must say besides `"ok":true`.
enum Expect {
    Ok,
    Digest(String),
    Warm,
}

fn check_response(what: &str, line: &str, expect: &Expect) -> Result<(), String> {
    let v = parse(line.trim_end()).map_err(|e| format!("{what}: bad JSON response: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{what}: refused: {}", line.trim_end()));
    }
    match expect {
        Expect::Ok => Ok(()),
        Expect::Digest(want) => {
            let got = v
                .get("final_dl_bits")
                .and_then(Value::as_str)
                .ok_or(format!("{what}: no final_dl_bits"))?;
            check_digest(what, got, want)
        }
        Expect::Warm => match v.get("warm").and_then(Value::as_bool) {
            Some(true) => Ok(()),
            _ => Err(format!("{what}: re-open was not warm")),
        },
    }
}

/// The request lines of one script on tenant `name`.
fn steps(script: &Script, name: &str) -> Vec<(Kind, String, Expect)> {
    let session = json_str(name);
    let simple = |op: &str| format!("{{\"op\":\"{op}\",\"session\":{session}}}");
    let open = Value::Obj(vec![
        ("op".into(), Value::Str("open".into())),
        ("session".into(), Value::Str(name.into())),
        ("graph".into(), Value::Str(script.text.clone())),
    ])
    .to_json();
    let mut out = vec![(Kind::Open, open, Expect::Ok)];
    for (fields, digest) in script.deltas.iter().zip(&script.digests) {
        out.push((Kind::Delta, delta_line(name, fields), Expect::Ok));
        out.push((Kind::Mine, simple("mine"), Expect::Digest(digest.clone())));
    }
    let last = script.digests.last().expect("scripts have steps").clone();
    out.push((Kind::Stats, simple("stats"), Expect::Ok));
    out.push((Kind::Close, simple("close"), Expect::Ok));
    out.push((Kind::Reopen, simple("open"), Expect::Warm));
    out.push((Kind::RestoredMine, simple("mine"), Expect::Digest(last)));
    out.push((Kind::Close, simple("close"), Expect::Ok));
    out
}

/// A client connection: fresh per request, or held for the run.
struct Conn<'a> {
    socket: &'a Path,
    fresh: bool,
    held: Option<(UnixStream, BufReader<UnixStream>)>,
}

/// One answered request as the client timed it.
struct Exchange {
    response: String,
    start: Instant,
    connected: Instant,
    end: Instant,
}

impl<'a> Conn<'a> {
    fn new(socket: &'a Path, fresh: bool) -> Self {
        Self {
            socket,
            fresh,
            held: None,
        }
    }

    fn connect(&self) -> Result<(UnixStream, BufReader<UnixStream>), String> {
        let stream = UnixStream::connect(self.socket).map_err(|e| format!("connect: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok((stream, BufReader::new(reader)))
    }

    /// Sends one request line and reads one response line.
    fn round_trip(&mut self, line: &str) -> Result<Exchange, String> {
        let start = Instant::now();
        if self.fresh || self.held.is_none() {
            self.held = Some(self.connect()?);
        }
        let connected = Instant::now();
        let (stream, reader) = self.held.as_mut().expect("connected above");
        let mut response = String::new();
        let sent = stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| reader.read_line(&mut response));
        let end = Instant::now();
        if self.fresh {
            self.held = None;
        }
        match sent {
            Ok(n) if n > 0 => Ok(Exchange {
                response,
                start,
                connected,
                end,
            }),
            Ok(_) => {
                self.held = None;
                Err("connection closed before a response".into())
            }
            Err(e) => {
                self.held = None;
                Err(format!("transport: {e}"))
            }
        }
    }
}

/// One answered request.
struct Sample {
    kind: Kind,
    rtt: f64,
    connect: f64,
    traced: bool,
}

struct ClientLog {
    samples: Vec<Sample>,
    tally: Tally,
    tracer: Tracer,
}

/// Replays scripts until the deadline. In a traced run every other
/// script is traced, so tracing overhead is measured within the run.
fn drive(
    label: &'static str,
    client: u64,
    socket: &Path,
    scripts: &[Script],
    deadline: Instant,
    trace: bool,
    origin: Instant,
) -> ClientLog {
    let mut conn = Conn::new(socket, label == "cli");
    let mut log = ClientLog {
        samples: Vec::new(),
        tally: Tally::default(),
        tracer: Tracer::new(origin),
    };
    let mut request = 0u64;
    for it in 0.. {
        let name = format!("{label}-{it}");
        let traced = trace && it % 2 == 0;
        for (i, (kind, line, expect)) in steps(&scripts[it % scripts.len()], &name)
            .into_iter()
            .enumerate()
        {
            if Instant::now() >= deadline {
                return log;
            }
            let what = format!("{name} request {i} ({kind:?})");
            request += 1;
            let ex = match conn.round_trip(&line) {
                Ok(ex) => ex,
                Err(e) => {
                    log.tally.record(Err(format!("{what}: {e}")));
                    continue;
                }
            };
            log.tally
                .record(check_response(&what, &ex.response, &expect));
            if traced {
                let op = client << 32 | request;
                let root = log
                    .tracer
                    .record("serve.request", ex.start, ex.end, None, op);
                if conn.fresh {
                    log.tracer
                        .record("serve.connect", ex.start, ex.connected, Some(root), op);
                }
            }
            log.samples.push(Sample {
                kind,
                rtt: (ex.end - ex.start).as_secs_f64(),
                connect: (ex.connected - ex.start).as_secs_f64(),
                traced,
            });
        }
    }
    log
}

/// A held connection that scrapes the daemon's `metrics` op.
fn scrape(conn: &mut Conn) -> Result<(Scrape, f64, usize), String> {
    let ex = conn.round_trip("{\"op\":\"metrics\"}")?;
    let v = parse(ex.response.trim_end()).map_err(|e| format!("metrics: {e}"))?;
    let text = v
        .get("text")
        .and_then(Value::as_str)
        .ok_or("metrics response without text")?;
    Ok((
        Scrape::parse(text),
        (ex.end - ex.start).as_secs_f64(),
        text.len(),
    ))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let scripts: Vec<Script> = (0..SCRIPTS)
        .map(|j| {
            let start = Instant::now();
            let script = build_script(args.seed, j);
            setup_s.push(start.elapsed().as_secs_f64());
            script
        })
        .collect();

    let dir = PathBuf::from(".perfbench").join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let socket = dir.join("daemon.sock");
    let mut config = ServerConfig::new(&socket);
    config.store_dir = Some(dir.join("store"));
    config.threads = POOL_THREADS;
    let spawned = Instant::now();
    let server = Server::spawn(config).expect("the daemon starts");
    let spawn_s = spawned.elapsed().as_secs_f64();
    out.set(
        "setup_s",
        median(&setup_s).expect("at least one script") + spawn_s,
    );

    let mut scraper = Conn::new(&socket, false);
    let before = if args.trace {
        Some(scrape(&mut scraper).expect("the daemon answers a metrics scrape"))
    } else {
        None
    };
    let origin = Instant::now();
    let deadline = origin + std::time::Duration::from_secs_f64(args.seconds);
    let (mut cli, mut sdk) = std::thread::scope(|s| {
        let cli = s.spawn(|| drive("cli", 1, &socket, &scripts, deadline, args.trace, origin));
        let sdk = s.spawn(|| drive("sdk", 2, &socket, &scripts, deadline, args.trace, origin));
        (
            cli.join().expect("cli client thread"),
            sdk.join().expect("sdk client thread"),
        )
    });
    let loop_s = origin.elapsed().as_secs_f64();
    let after = if args.trace {
        Some(scrape(&mut scraper).expect("the daemon answers a metrics scrape"))
    } else {
        None
    };
    drop(scraper);

    let answered = cli.samples.len() + sdk.samples.len();
    let rtts = |log: &ClientLog, kind: Option<Kind>| -> Vec<f64> {
        log.samples
            .iter()
            .filter(|s| kind.is_none_or(|k| s.kind == k))
            .map(|s| s.rtt)
            .collect()
    };
    let cli_rtt = rtts(&cli, None);
    let delta = rtts(&sdk, Some(Kind::Delta));
    let remine = rtts(&sdk, Some(Kind::Mine));
    let reopen = rtts(&sdk, Some(Kind::Reopen));
    out.note(format!(
        "{answered} requests answered in {loop_s:.3} s: cli {}, sdk {}",
        cli.samples.len(),
        sdk.samples.len()
    ));
    for (name, samples, tail_metric) in [
        ("cli_rtt", &cli_rtt, Some("serve.cli_rtt_s_tail")),
        ("delta", &delta, Some("serve.delta_s_tail")),
        ("remine", &remine, Some("serve.remine_s_tail")),
        ("reopen", &reopen, None),
    ] {
        out.set(
            &format!("serve.{name}_s_p50"),
            median(samples).unwrap_or(0.0),
        );
        match tail(samples) {
            Some(t) => {
                if let Some(metric) = tail_metric {
                    out.set(metric, t.value);
                }
                out.note(format!(
                    "serve.{name}_s_tail {} s = p{} of {} samples",
                    t.value, t.percentile, t.samples
                ));
            }
            None => out.note(format!(
                "serve.{name}_s_tail omitted: {} samples",
                samples.len()
            )),
        }
    }
    out.set("mine_s_p50", median(&remine).unwrap_or(0.0));
    out.set("cli_s_p50", median(&cli_rtt).unwrap_or(0.0));
    out.set("ops_per_s", answered as f64 / loop_s);
    out.tally.absorb(std::mem::take(&mut cli.tally));
    out.tally.absorb(std::mem::take(&mut sdk.tally));
    if !args.trace {
        stop(server, &dir);
        return out;
    }

    let connects: Vec<f64> = cli.samples.iter().map(|s| s.connect).collect();
    out.set("serve.connect_s_p50", median(&connects).unwrap_or(0.0));

    let (before, _, _) = before.expect("scraped in a traced run");
    let (after, scrape_s, bytes) = after.expect("scraped in a traced run");
    let window = after.since(&before);
    set_daemon_layers(&mut out, &window, &cli, &sdk);

    let sdk_rtt = |traced: bool| -> Vec<f64> {
        sdk.samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.rtt)
            .collect()
    };
    let traced_p50 = median(&sdk_rtt(true)).unwrap_or(0.0);
    out.set("trace.op_s", traced_p50);
    out.set(
        "trace.overhead_s",
        traced_p50 - median(&sdk_rtt(false)).unwrap_or(0.0),
    );
    let mut tracer = Tracer::new(origin);
    tracer.absorb(cli.tracer);
    tracer.absorb(sdk.tracer);
    for (layer, t) in layer_self_per_op(tracer.spans()) {
        out.set_self(layer, t);
    }

    probe_replica(&scripts[0], &dir, &mut tracer, &mut out);
    // Scraping through the daemon, not rendering in process, is the
    // telemetry cost an operator pays.
    out.set("telemetry.scrape_s", scrape_s);
    out.set("telemetry.exposition_bytes", bytes as f64);
    out.tracer = Some(tracer);
    stop(server, &dir);
    out
}

fn stop(server: Server, dir: &Path) {
    if let Err(e) = server.stop() {
        eprintln!("perfbench: daemon shutdown: {e}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Daemon-side numbers of the measured window, from the difference of
/// two `metrics` scrapes, and each client's overhead: its round trip
/// minus the daemon's median time for the same op.
fn set_daemon_layers(out: &mut Outcome, window: &Scrape, cli: &ClientLog, sdk: &ClientLog) {
    const REQ: &str = "cspm_serve_request_seconds";
    let p50 = |op: &str| window.quantile(REQ, &format!("op=\"{op}\""), 0.5);
    for (metric, op) in [
        ("serve.daemon_open_s_p50", "open"),
        ("serve.daemon_delta_s_p50", "delta"),
        ("serve.daemon_mine_s_p50", "mine"),
        ("serve.daemon_stats_s_p50", "stats"),
        ("serve.daemon_close_s_p50", "close"),
    ] {
        out.set(metric, p50(op).unwrap_or(0.0));
    }
    out.set(
        "serve.lock_wait_s_p50",
        window
            .quantile("cspm_serve_registry_lock_wait_seconds", "", 0.5)
            .unwrap_or(0.0),
    );
    for (metric, log) in [
        ("serve.cli_overhead_s_p50", cli),
        ("serve.sdk_overhead_s_p50", sdk),
    ] {
        let overhead: Vec<f64> = log
            .samples
            .iter()
            .filter_map(|s| Some(s.rtt - p50(s.kind.daemon_op())?))
            .collect();
        out.set(metric, median(&overhead).unwrap_or(0.0));
    }
    let deltas = window
        .value("cspm_serve_requests_total{op=\"delta\"}")
        .max(1.0);
    out.set(
        "store.fsync_s_p50",
        window
            .quantile("cspm_store_fsync_seconds", "", 0.5)
            .unwrap_or(0.0),
    );
    out.set(
        "store.fsyncs_per_delta",
        window.value("cspm_store_fsync_total") / deltas,
    );
    out.set(
        "store.wal_bytes_per_delta",
        window.value("cspm_store_wal_bytes_total") / deltas,
    );
    out.set(
        "store.checkpoint_s_p50",
        window
            .quantile("cspm_store_checkpoint_seconds", "", 0.5)
            .unwrap_or(0.0),
    );
}

/// Layer timings of the daemon's work, taken on local replicas of one
/// script: a traced mine of the tenant graph (parse, build, merge
/// loop, decode check), the session calls of every step, and a warm
/// open of a checkpointed durable replica.
fn probe_replica(script: &Script, dir: &Path, tr: &mut Tracer, out: &mut Outcome) {
    let input = Input {
        text: script.text.clone(),
        reference: script.base_digest.clone(),
        pinned: None,
    };
    let traced = traced_op(
        daemon_miner(),
        true,
        &input,
        "replica mine",
        PROBE,
        tr,
        &mut out.tally,
    )
    .expect("script text parses");
    set_traced_layers(out, std::slice::from_ref(&traced.split));
    probe_layers(daemon_miner(), &traced, tr, out);

    let graph = read_graph(script.text.as_bytes()).expect("script text parses");
    let mut session = daemon_miner().build();
    session.load(&graph);
    let (mut stage, mut run) = (Vec::new(), Vec::new());
    for (k, fields) in script.deltas.iter().enumerate() {
        let delta = decode_delta(fields);
        let t0 = Instant::now();
        let staged = session.stage_delta(&delta);
        let t1 = Instant::now();
        let result = run_quietly(&mut session);
        let t2 = Instant::now();
        tr.record("session.stage_delta", t0, t1, None, PROBE);
        tr.record("session.run_with", t1, t2, None, PROBE);
        stage.push((t1 - t0).as_secs_f64());
        run.push((t2 - t1).as_secs_f64());
        let what = format!("replica step {k}");
        out.tally.record(
            staged
                .map_err(|e| format!("{what}: {e}"))
                .and_then(|_| check_digest(&what, &dl_bits(result.final_dl), &script.digests[k])),
        );
    }
    out.set("session.stage_delta_s", median(&stage).unwrap_or(0.0));
    out.set("session.run_with_s", median(&run).unwrap_or(0.0));

    let path = dir.join("replica.csps");
    let mut durable = daemon_miner().durable(&path).expect("a fresh store opens");
    durable.load(&graph).expect("the replica loads");
    for fields in &script.deltas {
        durable
            .stage_delta(&decode_delta(fields))
            .expect("the replica absorbs the script");
    }
    durable.checkpoint().expect("the replica checkpoints");
    drop(durable);
    let opens: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let reopened = DurableSession::open(daemon_miner(), &path);
            let t1 = Instant::now();
            tr.record("store.open_warm", t0, t1, None, PROBE);
            out.tally.record(
                reopened
                    .map(drop)
                    .map_err(|e| format!("warm open of the replica: {e}")),
            );
            (t1 - t0).as_secs_f64()
        })
        .collect();
    out.set("store.open_warm_s", median(&opens).expect("three opens"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_alternate_churn() {
        let a = build_script(9, 1);
        let b = build_script(9, 1);
        assert_eq!(a.deltas, b.deltas);
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.deltas.len(), STEPS);
        assert!(a.deltas[0].contains("add_vertices"));
        assert!(a.deltas[1].contains("remove_edges"));
        assert!(decode_delta(&a.deltas[1]).has_churn());
    }

    #[test]
    fn responses_are_checked() {
        let what = "req";
        let mine = "{\"ok\":true,\"op\":\"mine\",\"final_dl_bits\":\"40f4a9fc76d4522f\"}";
        let want = Expect::Digest("40f4a9fc76d4522f".into());
        assert!(check_response(what, mine, &want).is_ok());
        let forged = Expect::Digest("40f4a9fc76d4522e".into());
        let mut tally = Tally::default();
        tally.record(check_response(what, mine, &forged));
        tally.record(check_response(
            what,
            "{\"ok\":false,\"error\":\"x\"}",
            &Expect::Ok,
        ));
        tally.record(check_response(what, "not json", &Expect::Ok));
        tally.record(check_response(
            what,
            "{\"ok\":true,\"warm\":false}",
            &Expect::Warm,
        ));
        assert_eq!((tally.attempted, tally.failed), (4, 4));
    }
}
