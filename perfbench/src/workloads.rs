//! The three workloads. Serving workloads boot the shipped `t2v-serve`
//! binary and drive it over loopback; `rob-eval` runs in-process.

use crate::child::{self, Server};
use crate::inputs::{self, Item, LADDER};
use crate::loadgen::{self, ClosedLog, OpenDone, ReplyReader};
use crate::stats::{self, percentile, StepVerdict};
use crate::trace::{
    self, render_split, self_times, traced_gred, EditTally, ServeReplay, Span, Tracer,
};
use crate::{Args, Metric, Outcome};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use t2v_core::{BackendInfo, TranslateError, TranslateRequest, TranslateResponse, Translator};
use t2v_corpus::{generate, Corpus};
use t2v_dvq::components::ComponentMatch;
use t2v_engine::Json;
use t2v_gred::{default_gred, GredConfig};
use t2v_perturb::{build_rob, NvBenchRob, RobVariant};
use t2v_serve::server::{normalize_nlq, translate_body, ServerState};
use t2v_serve::{CorpusProfile, ServeConfig};

/// The server's configuration: defaults plus these (and a free port).
pub const SERVER_ARGS: [&str; 3] = ["addr=127.0.0.1:0", "corpus=paper:7", "backends=gred"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The open loop's SLO: a 200 within this many µs of the due time.
const SLO_LIMIT_US: f64 = 25_000.0;
/// Width of the windows latency medians and completion rates are taken over.
const WINDOW_NS: u64 = 1_000_000_000;
const VARIANTS: [RobVariant; 4] = [
    RobVariant::Original,
    RobVariant::Nlq,
    RobVariant::Schema,
    RobVariant::Both,
];

/// Load-generator clients: one thread and one keep-alive connection each,
/// never more than the host's processors.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load-generator threads a workload runs: one per closed-loop client, a
/// writer and a reader for the open loop, none in-process.
pub fn loadgen_threads(workload: &str) -> usize {
    match workload {
        "popular-hot" => clients(),
        "rob-unique" => 2,
        _ => 0,
    }
}

pub fn loadgen_connections(workload: &str) -> usize {
    match workload {
        "rob-eval" => 0,
        _ => clients(),
    }
}

fn corpus() -> Corpus {
    generate(&CorpusProfile::Paper(7).corpus_config())
}

fn server_config() -> Result<ServeConfig, String> {
    let mut c = ServeConfig::default();
    for kv in SERVER_ARGS {
        let (k, v) = kv.split_once('=').expect("key=value");
        c.set(k, v).map_err(|e| e.message)?;
    }
    Ok(c)
}

/// The in-process reference: the server's own state, built from the same
/// corpus and configuration, whose `translate_body` every served body must
/// equal byte for byte.
fn reference_state(corpus: &Corpus) -> Result<ServerState, String> {
    ServerState::from_corpus(corpus, server_config()?).map_err(|e| e.to_string())
}

fn reference_body(state: &ServerState, it: &Item) -> Vec<u8> {
    let backend = state.registry.get("gred").expect("gred is registered");
    let entry = &state.dbs[&it.db];
    translate_body(
        backend.as_ref(),
        "gred",
        &normalize_nlq(&it.nlq),
        entry,
        true,
    )
}

/// Exact `ComponentMatch` of the DVQ inside a served body against gold.
fn grade_body(body: &[u8], target: &t2v_dvq::Dvq) -> bool {
    let Ok(j) = Json::parse(&String::from_utf8_lossy(body)) else {
        return false;
    };
    j.get("dvq")
        .and_then(Json::as_str)
        .and_then(|d| t2v_dvq::parse(d).ok())
        .is_some_and(|p| ComponentMatch::grade(&p, target).overall)
}

/// Boot the server `SETUPS` times; keep the last, report the median time.
fn boot(args: &Args) -> Result<(Server, Metric), String> {
    let argv: Vec<String> = SERVER_ARGS.iter().map(|s| s.to_string()).collect();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (s, t) = Server::boot(&args.server, &argv).map_err(|e| e.to_string())?;
        times.push(t);
        last = Some(s);
    }
    let setup = stats::median(&times).unwrap_or(0.0);
    Ok((last.expect("booted"), m("setup_s", setup, "s", SETUPS)))
}

/// Throughput as the median of the per-second completion counts over every
/// whole second of the run (a partial last second is left out). The host's
/// speed drifts by tens of percent over tens of seconds, evenly across the
/// requests of a closed loop; the median over the whole run reads that drift
/// more steadily than an upper decile, which follows whichever fast spell a
/// run happened to catch.
fn median_rate(done_ns: &[u64], wall_s: f64) -> f64 {
    let windows = ((wall_s * 1e9) as u64 / WINDOW_NS).max(1) as usize;
    let mut counts = vec![0f64; windows];
    for &t in done_ns {
        if let Some(c) = counts.get_mut((t / WINDOW_NS) as usize) {
            *c += 1.0;
        }
    }
    stats::median(&counts).unwrap_or(0.0) * 1e9 / WINDOW_NS as f64
}

/// Values grouped into 1 s windows by their timestamp, each window sorted.
fn windows(samples: &[(u64, f64)]) -> Vec<Vec<f64>> {
    let n = samples
        .iter()
        .map(|s| s.0 / WINDOW_NS + 1)
        .max()
        .unwrap_or(0) as usize;
    let mut out = vec![Vec::new(); n];
    for &(t, v) in samples {
        out[(t / WINDOW_NS) as usize].push(v);
    }
    for w in &mut out {
        w.sort_by(f64::total_cmp);
    }
    out
}

/// Each 1 s window's latency p50, ascending; `None` with fewer than five
/// windows.
fn window_p50s(samples: &[(u64, f64)]) -> Option<Vec<f64>> {
    let mut p50s: Vec<f64> = windows(samples)
        .iter()
        .filter_map(|w| percentile(w, 0.5))
        .collect();
    if p50s.len() < 5 {
        return None;
    }
    p50s.sort_by(f64::total_cmp);
    Some(p50s)
}

/// The latency median of a closed loop or an offline pass: the median of
/// the per-second p50s (the same reading as [`median_rate`]).
fn median_p50(samples: &[(u64, f64)]) -> Option<f64> {
    stats::median(&window_p50s(samples)?)
}

/// The latency median of the open loop's calm seconds: the lower decile of
/// the per-second p50s. In an open loop a slow spell of the host does not
/// slow the arrivals, so the backlog it builds inflates the seconds after
/// it as well; the lower decile reads the service latency outside those
/// spells, and still rises when the service itself gets slower.
fn calm_p50(samples: &[(u64, f64)]) -> Option<f64> {
    let p50s = window_p50s(samples)?;
    Some(p50s[(p50s.len() - 1) / 10])
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn delta(a: &HashMap<String, f64>, b: &HashMap<String, f64>, k: &str) -> f64 {
    b.get(k).copied().unwrap_or(0.0) - a.get(k).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Server-side per-layer counters over a phase, from `/metrics` deltas and
/// the admin status.
fn server_counters(server: &Server, before: &HashMap<String, f64>) -> Result<Vec<Metric>, String> {
    let after = server.metrics().map_err(|e| e.to_string())?;
    let status = server.status().map_err(|e| e.to_string())?;
    let d = |k: &str| delta(before, &after, k);
    let hits = d("t2v_cache_hits_total");
    let lookups = hits + d("t2v_cache_misses_total");
    let waits = d("t2v_queue_wait_seconds_count");
    let batches = d("t2v_batches_total");
    let evicted = status
        .get("cache")
        .and_then(|c| c.get("evicted"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    Ok(vec![
        m("net.connections", d("t2v_connections_total"), "count", 1),
        m(
            "cache.hit_share",
            ratio(hits, lookups),
            "share",
            lookups as usize,
        ),
        m("cache.evictions", evicted, "count", 1),
        m(
            "pool.queue_wait_us",
            ratio(d("t2v_queue_wait_seconds_sum") * 1e6, waits),
            "us",
            waits as usize,
        ),
        m("pool.rejected", d("t2v_rejected_total"), "count", 1),
        m(
            "batch.mean_size",
            ratio(d("t2v_batched_lookups_total"), batches),
            "count",
            batches as usize,
        ),
        m("batch.retries", d("t2v_batch_retries_total"), "count", 1),
    ])
}

/// Mean per-request µs of each traced layer, plus the sum the layers
/// account for (every span but the request roots).
fn layer_means(requests: &[Vec<Span>]) -> (BTreeMap<&'static str, f64>, f64) {
    let n = requests.len().max(1) as f64;
    let totals = self_times(requests);
    let means: BTreeMap<&'static str, f64> = totals
        .iter()
        .map(|(k, v)| (*k, *v as f64 / n / 1e3))
        .collect();
    let attributed = means
        .iter()
        .filter(|(k, _)| !SPLITS.contains(*k))
        .map(|(_, v)| v)
        .sum();
    (means, attributed)
}

/// Spans outside the request partition: roots (their self time is the
/// benchmark's own glue, left in the remainder) and the re-measured splits
/// of `render` and of the GRED stages.
const SPLITS: [&str; 6] = [
    "request",
    "example",
    "embed",
    "dvq.parse",
    "engine.execute",
    "engine.vegalite",
];

const LAYER_SPANS: [(&str, &str); 17] = [
    ("http.parse", "http.parse_us"),
    ("http.write", "http.write_us"),
    ("route.json_parse", "route.json_parse_us"),
    ("route.normalize", "route.normalize_us"),
    ("cache.lookup", "cache.lookup_us"),
    ("cache.insert", "cache.insert_us"),
    ("pool.handoff", "pool.handoff_us"),
    ("embed", "embed.us"),
    ("retrieve.nlq", "retrieve.nlq_us"),
    ("retrieve.dvq", "retrieve.dvq_us"),
    ("gred.generator", "gred.generator_self_us"),
    ("gred.retuner", "gred.retuner_self_us"),
    ("gred.debugger", "gred.debugger_self_us"),
    ("render", "render.us"),
    ("dvq.parse", "dvq.parse_us"),
    ("engine.execute", "engine.execute_us"),
    ("engine.vegalite", "engine.vegalite_us"),
];

/// Turn traced spans into per-layer metrics and the reconciliation note:
/// layer self times plus `net.unattributed_us` equal `client_mean_us`.
fn layer_report(requests: &[Vec<Span>], client_mean_us: f64, out: &mut Outcome, what: &str) {
    let (means, attributed) = layer_means(requests);
    for (span, metric) in LAYER_SPANS {
        out.metrics.push(m(
            metric,
            means.get(span).copied().unwrap_or(0.0),
            "us",
            requests.len(),
        ));
    }
    if let Some(g) = means.get("eval.grade") {
        out.metrics
            .push(m("eval.grade_us", *g, "us", requests.len()));
    }
    let unattributed = client_mean_us - attributed;
    out.metrics
        .push(m("net.unattributed_us", unattributed, "us", requests.len()));
    out.metrics
        .push(m("latency.mean_us", client_mean_us, "us", requests.len()));
    out.notes.push(format!(
        "reconciliation ({what}): layers {attributed:.1} us + unattributed {unattributed:.1} us = client mean {client_mean_us:.1} us"
    ));
}

fn edit_metrics(edits: &EditTally) -> [Metric; 2] {
    let [(rtn, rtn_n), (dbg, dbg_n)] = edits.shares();
    [
        m("gred.retuner_edit_share", rtn, "share", rtn_n),
        m("gred.debugger_edit_share", dbg, "share", dbg_n),
    ]
}

fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_build")
        .join("perfbench-traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn finish_trace(args: &Args, requests: &[Vec<Span>], out: &mut Outcome) {
    let path = trace_path(args);
    match trace::write_spans(&path, requests) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("spans not written ({e})")),
    }
}

// ---------------------------------------------------------------- popular-hot

/// `popular-hot`: closed loop, one client per processor, each cycling the
/// popular set after the cache has been filled. Every timed request is a
/// cache hit, so the connection, HTTP and cache layers do all the work.
pub fn popular_hot(args: &Args) -> Result<Outcome, String> {
    let corpus = corpus();
    let state = reference_state(&corpus)?;
    let items = inputs::popular(&corpus);
    let expected: Vec<Vec<u8>> = items.iter().map(|it| reference_body(&state, it)).collect();
    let requests: Vec<Vec<u8>> = items.iter().map(|it| it.bytes.clone()).collect();
    let (server, setup) = boot(args)?;

    // Fill: each popular request once, answers checked and graded.
    let mut fill_failed = 0usize;
    let mut correct = 0usize;
    {
        let mut s = loadgen::connect(&server.addr).map_err(|e| e.to_string())?;
        let mut reader = ReplyReader::default();
        for (i, it) in items.iter().enumerate() {
            match loadgen::round_trip(&mut s, &mut reader, &it.bytes) {
                Ok(r) if r.status == 200 && r.body == expected[i] => {
                    correct += grade_body(&r.body, &it.target) as usize;
                }
                _ => fill_failed += 1,
            }
        }
    }

    let clients = clients();
    let orders = inputs::popular_orders(args.seed, clients, items.len());
    let before = server.metrics().map_err(|e| e.to_string())?;
    let cpu0 = server.cpu_s().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let logs: Vec<ClosedLog> = std::thread::scope(|sc| {
        let hs: Vec<_> = orders
            .iter()
            .map(|order| {
                let (addr, rq, ex) = (&server.addr, &requests, &expected);
                sc.spawn(move || loadgen::closed_loop(addr, rq, ex, order, start, end))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu = server.cpu_s().map_err(|e| e.to_string())? - cpu0;
    let counters = server_counters(&server, &before)?;
    let rss = server.peak_rss_mb().map_err(|e| e.to_string())?;

    let sent: usize = logs.iter().map(|l| l.sent).sum();
    let ok: usize = logs.iter().map(|l| l.ok).sum();
    let failed = fill_failed + logs.iter().map(|l| l.failed).sum::<usize>();
    let samples: Vec<(u64, u64)> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let lat_mean_us = stats::mean(&samples.iter().map(|s| s.1 as f64 / 1e3).collect::<Vec<_>>());

    let timed_lat: Vec<(u64, f64)> = samples.iter().map(|&(t, l)| (t, l as f64 / 1e3)).collect();
    let p50 = median_p50(&timed_lat).ok_or("too few samples for a windowed p50")?;
    let p99 = stats::median(
        &windows(&timed_lat)
            .iter()
            .filter_map(|w| percentile(w, 0.99))
            .collect::<Vec<_>>(),
    )
    .ok_or("too few samples for p99 per window")?;
    let rate = median_rate(&samples.iter().map(|s| s.0).collect::<Vec<_>>(), wall);

    let mut out = Outcome {
        attempted: sent + items.len(),
        failed,
        metrics: Vec::new(),
        notes: vec![
            format!("fill: sent={} failed={fill_failed}", items.len()),
            format!("timed: clients={clients} sent={sent} ok={ok} wall_s={wall:.3}"),
        ],
    };
    let n = samples.len();
    out.metrics.extend([
        setup,
        m("peak_rss_mb", rss, "MB", 1),
        m("cpu_us_per_op", ratio(cpu * 1e6, ok as f64), "us", ok),
        m("throughput_per_s", rate, "1/s", ok),
        m("latency_p50_us", p50, "us", n),
        m("latency_p99_us", p99, "us", n),
        m(
            "accuracy",
            ratio(correct as f64, items.len() as f64),
            "share",
            items.len(),
        ),
        m(
            "accuracy.original",
            ratio(correct as f64, items.len() as f64),
            "share",
            items.len(),
        ),
        m("loadgen.sent", sent as f64, "count", 1),
        m("loadgen.ok", ok as f64, "count", 1),
        m("loadgen.failed", (sent - ok) as f64, "count", 1),
    ]);
    out.metrics.extend(counters);
    out.notes.push(format!(
        "cache hit share over the timed phase: {:.4}",
        out.metrics
            .iter()
            .find(|x| x.name == "cache.hit_share")
            .map_or(0.0, |x| x.value)
    ));
    drop(server);

    if args.trace {
        // Replay: fill an in-process cache with the popular bodies, then
        // cycle the same requests through the hit path, traced and not.
        let replay = ServeReplay::new(&state);
        let epoch = Instant::now();
        for it in &items {
            replay.request(&mut Tracer::new(false, epoch, 0), &it.bytes)?;
        }
        let rounds = 200usize;
        let run = |on: bool, traced: &mut Vec<Vec<Span>>, failed: &mut usize| {
            let t0 = Instant::now();
            for r in 0..rounds {
                for (i, it) in items.iter().enumerate() {
                    let mut tr = Tracer::new(on, epoch, (r * items.len() + i) as u32);
                    match replay.request(&mut tr, &it.bytes) {
                        Ok((body, _)) if *body == expected[i] => {}
                        _ => *failed += 1,
                    }
                    if on {
                        traced.push(tr.spans);
                    }
                }
            }
            t0.elapsed().as_secs_f64()
        };
        let (mut traced, mut untraced_t, mut traced_t) = (Vec::new(), 0.0, 0.0);
        for _ in 0..3 {
            untraced_t += run(false, &mut traced, &mut out.failed);
            traced.clear();
            traced_t += run(true, &mut traced, &mut out.failed);
        }
        out.attempted += 6 * rounds * items.len();
        layer_report(&traced, lat_mean_us, &mut out, "hit path");
        out.metrics.push(m(
            "trace.overhead_share",
            traced_t / untraced_t - 1.0,
            "share",
            3,
        ));
        finish_trace(args, &traced, &mut out);
    }
    Ok(out)
}

// ----------------------------------------------------------------- rob-unique

/// `rob-unique`: open loop of Poisson arrivals up the rate ladder, pipelined
/// over one keep-alive connection per processor. Every request is a new
/// question, so every one misses the cache, runs GRED and inserts.
pub fn rob_unique(args: &Args) -> Result<Outcome, String> {
    let corpus = corpus();
    let state = reference_state(&corpus)?;
    let schedule = inputs::schedule(args.seed, args.seconds);
    let (warm, mut timed) = inputs::rob_unique(&corpus, args.seed, schedule.len());
    timed.truncate(schedule.len());
    let (server, setup) = boot(args)?;
    let clients = clients();

    // Warm-up: one question per database, so per-database lazy work (the
    // debugger's schema annotations) is done before timing.
    let warm_replies: Vec<Option<loadgen::Reply>> = {
        let mut s = loadgen::connect(&server.addr).map_err(|e| e.to_string())?;
        let mut reader = ReplyReader::default();
        warm.iter()
            .map(|it| loadgen::round_trip(&mut s, &mut reader, &it.bytes).ok())
            .collect()
    };

    let before = server.metrics().map_err(|e| e.to_string())?;
    let cpu0 = server.cpu_s().map_err(|e| e.to_string())?;
    let jobs: Vec<(u64, &[u8])> = schedule
        .iter()
        .zip(&timed)
        .map(|(a, it)| (a.due_us * 1000, it.bytes.as_slice()))
        .collect();
    let epoch = Instant::now();
    // A minute of grace drains a backlog built while the host is 4× slower
    // than usual; only a server that stops answering leaves requests missing.
    let done = loadgen::open_loop(&server.addr, clients, &jobs, epoch, Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    let cpu = server.cpu_s().map_err(|e| e.to_string())? - cpu0;
    let counters = server_counters(&server, &before)?;
    let rss = server.peak_rss_mb().map_err(|e| e.to_string())?;
    drop(server);

    // Check every answer against the in-process rendering, then grade.
    let all: Vec<&Item> = warm.iter().chain(timed.iter()).collect();
    let expected: Vec<Vec<u8>> = t2v_parallel::par_map(&all, |it| reference_body(&state, it));
    let (exp_warm, exp_timed) = expected.split_at(warm.len());
    let warm_failed = warm_replies
        .iter()
        .zip(exp_warm)
        .filter(|(r, e)| !r.as_ref().is_some_and(|r| r.status == 200 && r.body == **e))
        .count();
    let mut failed = warm_failed;
    let mut ok = vec![false; done.len()];
    let mut tally: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for d in &done {
        let good = d
            .reply
            .as_ref()
            .is_some_and(|r| r.status == 200 && r.body == exp_timed[d.idx]);
        ok[d.idx] = good;
        if !good {
            failed += 1;
            continue;
        }
        let it = &timed[d.idx];
        let t = tally.entry(variant_key(it.variant)).or_default();
        t.0 += 1;
        t.1 += grade_body(&d.reply.as_ref().expect("checked").body, &it.target) as usize;
    }

    // Per-step figures.
    let mut verdicts = Vec::new();
    let mut step_lat: Vec<Vec<f64>> = vec![Vec::new(); LADDER.len()];
    let mut notes = vec![format!("warm-up: sent={} failed={warm_failed}", warm.len())];
    let mut all_lag = Vec::new();
    for (s, step) in LADDER.iter().enumerate() {
        let in_step: Vec<&OpenDone> = done.iter().filter(|d| schedule[d.idx].step == s).collect();
        let lags: Vec<f64> = in_step
            .iter()
            .map(|d| d.sent_ns.saturating_sub(d.due_ns) as f64 / 1e3)
            .collect();
        all_lag.extend_from_slice(&lags);
        let half = lags.len() / 2;
        let mut within = 0;
        for d in &in_step {
            if let (true, Some(l)) = (ok[d.idx], d.latency_ns()) {
                let l_us = l as f64 / 1e3;
                step_lat[s].push(l_us);
                within += (l_us <= SLO_LIMIT_US) as usize;
            }
        }
        step_lat[s].sort_by(f64::total_cmp);
        let v = StepVerdict {
            rate: step.rate,
            sent: in_step.len(),
            within_limit: within,
            lag_first_half_us: stats::mean(&lags[..half]),
            lag_second_half_us: stats::mean(&lags[half..]),
        };
        let p =
            |q| percentile(&step_lat[s], q).map_or("refused".to_string(), |v| format!("{v:.0}"));
        notes.push(format!(
            "{}: rate={}/s sent={} ok={} within_{}ms={} p50_us={} p99_us={} lag_us={:.0}->{:.0} slo={}",
            step.name,
            step.rate,
            v.sent,
            step_lat[s].len(),
            SLO_LIMIT_US / 1e3,
            within,
            p(0.5),
            p(0.99),
            v.lag_first_half_us,
            v.lag_second_half_us,
            if v.meets_slo() { "met" } else { "missed" }
        ));
        verdicts.push(v);
    }
    all_lag.sort_by(f64::total_cmp);
    let (light, heavy) = (0, 2);
    let need = |s: usize, q: f64| {
        percentile(&step_lat[s], q).ok_or_else(|| {
            format!(
                "{}\ntoo few {} samples for p{}; raise --seconds",
                notes.join("\n"),
                LADDER[s].name,
                q * 100.0
            )
        })
    };
    // Heavy requests answered per second, from the step's first due time
    // to its last answer: the offered rate while the server keeps up.
    let heavy_reqs: Vec<&OpenDone> = done
        .iter()
        .filter(|d| schedule[d.idx].step == heavy)
        .collect();
    let heavy_from = heavy_reqs.first().map_or(0, |d| d.due_ns);
    let heavy_to = heavy_reqs
        .iter()
        .filter_map(|d| d.done_ns)
        .max()
        .unwrap_or(heavy_from);
    let delivered = heavy_reqs.iter().filter(|d| ok[d.idx]).count();
    let graded: usize = tally.values().map(|t| t.0).sum();
    let exact: usize = tally.values().map(|t| t.1).sum();
    let sent = done.len();
    let n_ok = ok.iter().filter(|&&o| o).count();
    let ladder_samples: Vec<(u64, f64)> = done
        .iter()
        .filter(|d| ok[d.idx])
        .filter_map(|d| Some((d.due_ns, d.latency_ns()? as f64 / 1e3)))
        .collect();
    let calm = calm_p50(&ladder_samples).ok_or("too few samples for a windowed p50")?;
    let mut all_lat: Vec<f64> = step_lat.concat();
    all_lat.sort_by(f64::total_cmp);
    let (light_p50, heavy_p99) = (need(light, 0.5)?, need(heavy, 0.99)?);
    let mut out = Outcome {
        attempted: warm.len() + sent,
        failed,
        metrics: Vec::new(),
        notes,
    };
    out.metrics.extend([
        setup,
        m("peak_rss_mb", rss, "MB", 1),
        m("cpu_us_per_op", ratio(cpu * 1e6, n_ok as f64), "us", n_ok),
        m(
            "throughput_per_s",
            ratio(delivered as f64 * 1e9, (heavy_to - heavy_from) as f64),
            "1/s",
            delivered,
        ),
        m("latency_p50_us", calm, "us", ladder_samples.len()),
        m(
            "latency_p99_us",
            percentile(&all_lat, 0.99).unwrap_or(0.0),
            "us",
            all_lat.len(),
        ),
        m(
            "accuracy",
            ratio(exact as f64, graded as f64),
            "share",
            graded,
        ),
        m(
            "light.latency_p50_us",
            light_p50,
            "us",
            step_lat[light].len(),
        ),
        m(
            "heavy.latency_p99_us",
            heavy_p99,
            "us",
            step_lat[heavy].len(),
        ),
        m(
            "slo_rate_rps",
            stats::slo_rate(&verdicts),
            "1/s",
            LADDER.len(),
        ),
        m(
            "loadgen.lag_p99_us",
            percentile(&all_lag, 0.99).unwrap_or(0.0),
            "us",
            all_lag.len(),
        ),
        m("loadgen.sent", sent as f64, "count", 1),
        m("loadgen.ok", n_ok as f64, "count", 1),
        m("loadgen.failed", (sent - n_ok) as f64, "count", 1),
    ]);
    for (key, (n, e)) in &tally {
        out.metrics.push(m(
            accuracy_name(key),
            ratio(*e as f64, *n as f64),
            "share",
            *n,
        ));
    }
    out.metrics.extend(counters);
    out.notes.push(format!(
        "cache hit share over the ladder: {:.4}",
        out.metrics
            .iter()
            .find(|x| x.name == "cache.hit_share")
            .map_or(0.0, |x| x.value)
    ));

    if args.trace {
        // Replay the light step's questions through the miss path, each pass
        // on a fresh in-process cache; untraced and traced passes alternate.
        let light_items: Vec<usize> = (0..sent)
            .filter(|&i| schedule[i].step == light && ok[i])
            .collect();
        let light_mean = stats::mean(&step_lat[light]);
        let epoch = Instant::now();
        let mut traced: Vec<Vec<Span>> = Vec::new();
        let (mut untraced_t, mut traced_t) = (0.0, 0.0);
        let mut edits = EditTally::default();
        for on in [false, true, false, true] {
            let replay = ServeReplay::new(&state);
            let t0 = Instant::now();
            for &i in &light_items {
                let mut tr = Tracer::new(on, epoch, i as u32);
                match replay.request(&mut tr, &timed[i].bytes) {
                    Ok((body, e)) if *body == exp_timed[i] => {
                        if on {
                            edits.add(e.unwrap_or_default());
                            if let Some(dvq) = Json::parse(&String::from_utf8_lossy(&body))
                                .ok()
                                .and_then(|j| {
                                    j.get("dvq").and_then(Json::as_str).map(str::to_string)
                                })
                            {
                                render_split(&mut tr, &dvq, &state.dbs[&timed[i].db].store);
                            }
                        }
                    }
                    _ => out.failed += 1,
                }
                if on {
                    traced.push(tr.spans);
                }
            }
            let t = t0.elapsed().as_secs_f64();
            if on {
                traced_t += t;
            } else {
                untraced_t += t;
            }
        }
        out.attempted += 4 * light_items.len();
        // `traced` holds two passes over the same items; both count.
        layer_report(&traced, light_mean, &mut out, "miss path, light step");
        out.metrics.extend(edit_metrics(&edits));
        out.metrics.push(m(
            "trace.overhead_share",
            traced_t / untraced_t - 1.0,
            "share",
            2,
        ));
        finish_trace(args, &traced, &mut out);
    }
    Ok(out)
}

fn variant_key(v: RobVariant) -> &'static str {
    match v {
        RobVariant::Original => "original",
        RobVariant::Nlq => "nlq",
        RobVariant::Schema => "schema",
        RobVariant::Both => "both",
    }
}

fn accuracy_name(key: &str) -> &'static str {
    match key {
        "original" => "accuracy.original",
        "nlq" => "accuracy.nlq",
        "schema" => "accuracy.schema",
        _ => "accuracy.both",
    }
}

// ------------------------------------------------------------------- rob-eval

/// A benchmark-owned `Translator` that times each call of the one it wraps.
struct Timed<'a> {
    inner: &'a dyn Translator,
    start: Instant,
    /// (completion ns since `start`, latency ns) per call.
    log: Mutex<Vec<(u64, u64)>>,
}

impl Translator for Timed<'_> {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }

    fn translate(&self, req: &TranslateRequest<'_>) -> Result<TranslateResponse, TranslateError> {
        let t0 = Instant::now();
        let r = self.inner.translate(req);
        let ns = t0.elapsed().as_nanos() as u64;
        let done = self.start.elapsed().as_nanos() as u64;
        self.log.lock().expect("latency log").push((done, ns));
        r
    }
}

/// `rob-eval`: the paper's evaluation in-process — GRED over all four
/// nvBench-Rob variants of `paper:7` with `evaluate_set_parallel`, repeated
/// in whole passes until the run's seconds are spent.
pub fn rob_eval(args: &Args) -> Result<Outcome, String> {
    let setups = if args.trace { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..setups {
        drop(prepared.take());
        let t0 = Instant::now();
        let corpus = corpus();
        let gred = default_gred(&corpus, GredConfig::default());
        let rob = build_rob(&corpus, args.seed);
        times.push(t0.elapsed().as_secs_f64());
        prepared = Some((corpus, gred, rob));
    }
    let (corpus, gred, rob) = prepared.expect("set up");
    let n_examples: usize = VARIANTS.iter().map(|&v| rob.set(v).len()).sum();
    if args.trace {
        return rob_eval_trace(args, &corpus, &gred, &rob, n_examples);
    }

    let cpu0 = child::self_cpu_s().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let timed = Timed {
        inner: &gred,
        start,
        log: Mutex::new(Vec::new()),
    };
    let mut passes = 0usize;
    let mut last_pass_s = 0.0;
    let mut first: Option<Vec<t2v_eval::EvalRun>> = None;
    let mut failed = 0usize;
    let mut attempted = 0usize;
    // Whole passes, stopping at the pass end nearest the run's seconds.
    while first.is_none() || start.elapsed().as_secs_f64() + last_pass_s / 2.0 < args.seconds {
        let t0 = Instant::now();
        let runs: Vec<t2v_eval::EvalRun> = VARIANTS
            .iter()
            .map(|&v| t2v_eval::evaluate_set_parallel(&timed, &corpus, &rob, v, None))
            .collect();
        last_pass_s = t0.elapsed().as_secs_f64();
        passes += 1;
        attempted += n_examples;
        match &first {
            None => first = Some(runs),
            // A later pass must predict exactly what the first did.
            Some(f) => {
                for (a, b) in f.iter().zip(&runs) {
                    failed += a
                        .records
                        .iter()
                        .zip(&b.records)
                        .filter(|(x, y)| x.predicted != y.predicted)
                        .count();
                }
            }
        }
    }
    let cpu = child::self_cpu_s().map_err(|e| e.to_string())? - cpu0;
    let runs = first.expect("one pass");
    let acc: Vec<f64> = runs.iter().map(|r| r.accuracies.overall).collect();
    let mut notes = vec![format!(
        "passes={} examples_per_pass={} threads={}",
        passes,
        n_examples,
        t2v_parallel::thread_count()
    )];
    for (r, v) in runs.iter().zip(VARIANTS) {
        notes.push(format!(
            "{}: n={} overall={:.4}",
            variant_key(v),
            r.accuracies.n,
            r.accuracies.overall
        ));
    }
    // The paper's ordering is part of a correct answer.
    if !(acc[0] > acc[1] && acc[2] > acc[3]) {
        notes.push("paper ordering violated: need original > nlq and schema > both".into());
        failed += 1;
    }
    let exact: f64 = runs
        .iter()
        .map(|r| r.accuracies.overall * r.accuracies.n as f64)
        .sum();
    let wall = start.elapsed().as_secs_f64();
    let log = timed.log.into_inner().expect("latency log");
    let mut lat: Vec<f64> = log.iter().map(|&(_, ns)| ns as f64 / 1e3).collect();
    lat.sort_by(f64::total_cmp);
    let done: Vec<u64> = log.iter().map(|&(t, _)| t).collect();
    let mut out = Outcome {
        attempted,
        failed,
        metrics: Vec::new(),
        notes,
    };
    out.metrics.extend([
        m("setup_s", stats::median(&times).unwrap_or(0.0), "s", setups),
        m(
            "peak_rss_mb",
            child::self_peak_rss_mb().map_err(|e| e.to_string())?,
            "MB",
            1,
        ),
        m(
            "cpu_us_per_op",
            ratio(cpu * 1e6, attempted as f64),
            "us",
            attempted,
        ),
        m(
            "throughput_per_s",
            median_rate(&done, wall),
            "1/s",
            done.len(),
        ),
        m(
            "latency_p50_us",
            median_p50(
                &log.iter()
                    .map(|&(t, ns)| (t, ns as f64 / 1e3))
                    .collect::<Vec<_>>(),
            )
            .ok_or("too few examples")?,
            "us",
            lat.len(),
        ),
        m(
            "latency_p99_us",
            percentile(&lat, 0.99).ok_or("too few examples")?,
            "us",
            lat.len(),
        ),
        m(
            "accuracy",
            ratio(exact, n_examples as f64),
            "share",
            n_examples,
        ),
    ]);
    Ok(out)
}

/// The traced replay of `rob-eval`: every example through GRED and grading
/// on `t2v-parallel`, untraced and traced passes alternating.
fn rob_eval_trace(
    args: &Args,
    corpus: &Corpus,
    gred: &t2v_gred::Gred<t2v_llm::SimulatedChatModel>,
    rob: &NvBenchRob,
    n_examples: usize,
) -> Result<Outcome, String> {
    let work: Vec<(RobVariant, usize)> = VARIANTS
        .iter()
        .flat_map(|&v| (0..rob.set(v).len()).map(move |i| (v, i)))
        .collect();
    let threads = t2v_parallel::thread_count();
    let epoch = Instant::now();
    let pass = |on: bool| {
        let t0 = Instant::now();
        let results = t2v_parallel::par_map_indexed(&work, |i, &(v, j)| {
            let ex = &rob.set(v)[j];
            let mut tr = Tracer::new(on, epoch, i as u32);
            let t_root = tr.now();
            let root = Some(tr.record("example", t_root, t_root, None));
            let db = rob.database(corpus, ex);
            let (result, edits) = traced_gred(&mut tr, gred, &ex.nlq, db, root);
            let predicted = result.ok().map(|r| r.dvq);
            let exact = tr.span("eval.grade", root, || {
                predicted
                    .as_deref()
                    .and_then(|t| t2v_dvq::parse(t).ok())
                    .is_some_and(|p| ComponentMatch::grade(&p, &ex.target).overall)
            });
            let t_end = tr.now();
            if let Some(s) = tr.spans.first_mut() {
                s.end = t_end;
            }
            (tr.spans, exact, edits)
        });
        (t0.elapsed().as_secs_f64(), results)
    };
    let (mut untraced_t, mut traced_t) = (0.0, 0.0);
    let mut last = Vec::new();
    for on in [false, true, false, true] {
        let (t, r) = pass(on);
        if on {
            traced_t += t;
            last = r;
        } else {
            untraced_t += t;
        }
    }
    let traced_wall = traced_t / 2.0;
    let mut out = Outcome {
        attempted: 4 * n_examples,
        failed: 0,
        metrics: Vec::new(),
        notes: vec![format!("examples={n_examples} threads={threads}")],
    };
    let mut tally: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    let mut edits = EditTally::default();
    let mut busy_ns = 0u64;
    let mut example_us = Vec::with_capacity(last.len());
    let mut requests = Vec::with_capacity(last.len());
    for ((spans, exact, e), &(v, _)) in last.into_iter().zip(&work) {
        let t = tally.entry(variant_key(v)).or_default();
        t.0 += 1;
        t.1 += exact as usize;
        edits.add(e);
        let dur = spans.first().map_or(0, |s| s.end - s.start);
        busy_ns += dur;
        example_us.push(dur as f64 / 1e3);
        requests.push(spans);
    }
    let per_example_us = threads as f64 * (untraced_t / 2.0) * 1e6 / n_examples as f64;
    layer_report(
        &requests,
        per_example_us,
        &mut out,
        "per example, threads x wall / examples",
    );
    for (key, (n, e)) in &tally {
        out.metrics.push(m(
            accuracy_name(key),
            ratio(*e as f64, *n as f64),
            "share",
            *n,
        ));
    }
    out.metrics.extend(edit_metrics(&edits));
    out.metrics.extend([
        m(
            "parallel.busy_share",
            busy_ns as f64 / 1e9 / (threads as f64 * traced_wall),
            "share",
            n_examples,
        ),
        m(
            "trace.overhead_share",
            traced_t / untraced_t - 1.0,
            "share",
            2,
        ),
    ]);
    example_us.sort_by(f64::total_cmp);
    if let Some(p99) = percentile(&example_us, 0.99) {
        out.metrics
            .push(m("latency_p99_us", p99, "us", example_us.len()));
    }
    finish_trace(args, &requests, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = WINDOW_NS;

    #[test]
    fn median_rate_reads_the_typical_second_and_drops_the_partial_one() {
        // Seconds 0..7 complete 100 each, seconds 7..10 only 10 each, and
        // 5 more land in the partial eleventh second.
        let mut done = Vec::new();
        for sec in 0..10u64 {
            let n = if sec < 7 { 100 } else { 10 };
            done.extend((0..n).map(|i| sec * S + i * (S / n)));
        }
        done.extend((0..5).map(|i| 10 * S + i));
        assert_eq!(median_rate(&done, 10.5), 100.0);
    }

    #[test]
    fn windowed_p50s_take_the_median_or_the_calm_decile() {
        // Ten seconds of 21 samples each; second k has every sample at k + 1.
        let samples: Vec<(u64, f64)> = (0..10u64)
            .flat_map(|k| (0..21).map(move |i| (k * S + i, (k + 1) as f64)))
            .collect();
        assert_eq!(median_p50(&samples), Some(5.5));
        assert_eq!(calm_p50(&samples), Some(1.0));
        // Fewer than five seconds: no reading.
        assert_eq!(median_p50(&samples[..4 * 21]), None);
    }
}
