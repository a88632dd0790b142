//! The traced run: spans recorded by the benchmark around its calls into
//! each layer's public functions, kept in memory, and folded into per-layer
//! self times. The program itself is not instrumented.

use crate::stats::self_time;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use t2v_core::{StageRecord, TranslateError, TranslateRequest, TranslateResponse};
use t2v_corpus::Database;
use t2v_embed::Hit;
use t2v_engine::Json;
use t2v_gred::{AutoRetriever, Gred, Retrieve};
use t2v_llm::SimulatedChatModel;
use t2v_serve::cache::Lookup;
use t2v_serve::http::{parse_request, Parse, Response};
use t2v_serve::server::{normalize_nlq, render_translation, CacheKey, ServerState};
use t2v_serve::{Metrics, OneShot, ShardedTtlLruCache, WorkerPool};

/// One recorded interval. Times are ns from the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span within the same request's spans.
    pub parent: Option<usize>,
    pub req: u32,
}

/// Span recorder for one request. With `on == false` it reads no clock and
/// records nothing, which is the untraced replay the overhead compares to.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    req: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, req: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            req,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        if self.on {
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                req: self.req,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.record(name, t0, t1, parent);
        r
    }
}

/// Self time per span name, summed over `spans` (one request's spans, or
/// many requests' concatenated — parents are resolved per request).
pub fn self_times(requests: &[Vec<Span>]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for spans in requests {
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let kids = children.get(&i).map(Vec::as_slice).unwrap_or(&[]);
            *out.entry(s.name).or_insert(0) += self_time(s.start, s.end, kids);
        }
    }
    out
}

/// Write every span as one JSON line.
pub fn write_spans(path: &std::path::Path, requests: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for spans in requests {
        for s in spans {
            writeln!(
                w,
                "{{\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.req,
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )?;
        }
    }
    w.flush()
}

/// The benchmark's `Retrieve` wrapper: times each top-k around
/// `AutoRetriever` (the server's unbatched routing).
struct TimedRetriever<'a> {
    inner: AutoRetriever<'a>,
    tracer_on: bool,
    epoch: Instant,
    /// (name, start, end) of each lookup, in call order.
    calls: RefCell<Vec<(&'static str, u64, u64)>>,
}

impl TimedRetriever<'_> {
    fn timed(&self, name: &'static str, f: impl FnOnce() -> Vec<Hit>) -> Vec<Hit> {
        if !self.tracer_on {
            return f();
        }
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        let hits = f();
        let t1 = self.epoch.elapsed().as_nanos() as u64;
        self.calls.borrow_mut().push((name, t0, t1));
        hits
    }
}

impl Retrieve for TimedRetriever<'_> {
    fn retrieve_nlq(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.timed("retrieve.nlq", || self.inner.retrieve_nlq(query, k))
    }

    fn retrieve_dvq(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.timed("retrieve.dvq", || self.inner.retrieve_dvq(query, k))
    }
}

/// Which GRED stages changed the DVQ they were handed.
#[derive(Default, Clone, Copy)]
pub struct Edits {
    pub retuner_ran: bool,
    pub retuner_edit: bool,
    pub debugger_ran: bool,
    pub debugger_edit: bool,
}

/// Counts of [`Edits`] over many requests.
#[derive(Default)]
pub struct EditTally {
    retuner_ran: usize,
    retuner_edits: usize,
    debugger_ran: usize,
    debugger_edits: usize,
}

impl EditTally {
    pub fn add(&mut self, e: Edits) {
        self.retuner_ran += e.retuner_ran as usize;
        self.retuner_edits += e.retuner_edit as usize;
        self.debugger_ran += e.debugger_ran as usize;
        self.debugger_edits += e.debugger_edit as usize;
    }

    /// (retuner, debugger) edit shares with the counts they are shares of.
    pub fn shares(&self) -> [(f64, usize); 2] {
        let share = |n: usize, d: usize| if d > 0 { n as f64 / d as f64 } else { 0.0 };
        [
            (
                share(self.retuner_edits, self.retuner_ran),
                self.retuner_ran,
            ),
            (
                share(self.debugger_edits, self.debugger_ran),
                self.debugger_ran,
            ),
        ]
    }
}

/// GRED through `translate_api`, with stage spans cut at the stage callback
/// and the two retrievals as their children. Embedding runs inside the
/// stages where no callback can see it, so it is measured by calling
/// `TextEmbedder::embed` again on the NLQ and on the generator's DVQ, as
/// root spans outside the request (a split of the stage self times).
pub fn traced_gred(
    tr: &mut Tracer,
    gred: &Gred<SimulatedChatModel>,
    nlq: &str,
    db: &Database,
    parent: Option<usize>,
) -> (Result<TranslateResponse, TranslateError>, Edits) {
    let retriever = TimedRetriever {
        inner: AutoRetriever::new(gred.library()),
        tracer_on: tr.on,
        epoch: tr.epoch,
        calls: RefCell::new(Vec::new()),
    };
    let t_call = tr.now();
    let mut marks: Vec<(&'static str, u64, Option<String>)> = Vec::new();
    let result = {
        let mut sink = |s: &StageRecord| marks.push((s.name, tr.now(), s.dvq.clone()));
        gred.translate_api(&TranslateRequest::new(nlq, db), &retriever, Some(&mut sink))
    };
    let calls = retriever.calls.into_inner();
    let mut edits = Edits::default();
    let mut prev_t = t_call;
    let mut current: Option<String> = None;
    for (name, t, dvq) in &marks {
        let span_name = match *name {
            "generator" => "gred.generator",
            "retuner" => "gred.retuner",
            _ => "gred.debugger",
        };
        let stage = tr.record(span_name, prev_t, *t, parent);
        let lookup = match *name {
            "generator" => Some("retrieve.nlq"),
            "retuner" => Some("retrieve.dvq"),
            _ => None,
        };
        if let Some(&(rname, rs, re)) = lookup.and_then(|l| calls.iter().find(|c| c.0 == l)) {
            tr.record(rname, rs, re, Some(stage));
        }
        match *name {
            "retuner" => {
                edits.retuner_ran = true;
                edits.retuner_edit = dvq.is_some() && *dvq != current;
            }
            "debugger" => {
                edits.debugger_ran = true;
                edits.debugger_edit = dvq.is_some() && *dvq != current;
            }
            _ => {}
        }
        if dvq.is_some() {
            current = dvq.clone();
        }
        prev_t = *t;
    }
    if tr.on {
        let gen_dvq = marks.first().and_then(|m| m.2.clone());
        for text in std::iter::once(nlq.to_string()).chain(gen_dvq) {
            tr.span("embed", None, || gred.embedder().embed(&text));
        }
    }
    (result, edits)
}

/// The in-process copy of the serving path the replay drives: the server's
/// state plus a cache and worker pool built with the server's defaults.
pub struct ServeReplay<'a> {
    pub state: &'a ServerState,
    pub cache: ShardedTtlLruCache<CacheKey, Arc<Vec<u8>>>,
    pub pool: WorkerPool,
}

impl<'a> ServeReplay<'a> {
    pub fn new(state: &'a ServerState) -> ServeReplay<'a> {
        let c = &state.config;
        ServeReplay {
            state,
            cache: ShardedTtlLruCache::new(
                c.cache_capacity,
                c.cache_ttl(),
                c.effective_cache_shards(),
            ),
            pool: WorkerPool::new(
                c.effective_workers(),
                c.effective_shards(),
                c.queue_capacity,
                Arc::new(Metrics::new()),
            ),
        }
    }

    /// One request through parse → route → cache → (pool hand-off → GRED →
    /// render → cache insert) → response write. Returns the response body
    /// and the GRED stage edits (on a miss).
    pub fn request(
        &self,
        tr: &mut Tracer,
        bytes: &[u8],
    ) -> Result<(Arc<Vec<u8>>, Option<Edits>), String> {
        let t_root = tr.now();
        let root = tr.record("request", t_root, t_root, None);
        let root = Some(root);
        let req = match tr.span("http.parse", root, || {
            parse_request(bytes, self.state.config.max_body_bytes)
        }) {
            Parse::Complete(req, _) => req,
            _ => return Err("request bytes did not parse".into()),
        };
        let text = std::str::from_utf8(&req.body).map_err(|_| "body not UTF-8")?;
        let parsed = tr
            .span("route.json_parse", root, || Json::parse(text))
            .map_err(|e| format!("{e:?}"))?;
        let nlq = parsed.get("nlq").and_then(Json::as_str).ok_or("no nlq")?;
        let db = parsed.get("db").and_then(Json::as_str).ok_or("no db")?;
        let norm = tr.span("route.normalize", root, || normalize_nlq(nlq));
        let entry = self.state.dbs.get(db).ok_or("unknown db")?;
        let key: CacheKey = (0, 0, norm.clone().into_boxed_str(), entry.fingerprint, true);
        let lookup = tr.span("cache.lookup", root, || self.cache.lookup(&key));
        let (body, edits, hit) = match lookup {
            Lookup::Fresh(body) => (body, None, true),
            _ => {
                tr.span("pool.handoff", root, || self.handoff());
                let (result, edits) = traced_gred(tr, &self.state.gred, &norm, &entry.db, root);
                let body = tr.span("render", root, || {
                    Arc::new(render_translation("gred", &norm, entry, true, &result))
                });
                tr.span("cache.insert", root, || {
                    self.cache.insert(key, Arc::clone(&body))
                });
                (body, Some(edits), false)
            }
        };
        let mut wire = Vec::with_capacity(body.len() + 256);
        tr.span("http.write", root, || {
            Response::json(200, Arc::clone(&body))
                .with_header("x-t2v-cache", if hit { "hit" } else { "miss" })
                .with_header("x-t2v-backend", "gred")
                .write_to(&mut wire, true)
        })
        .map_err(|e| e.to_string())?;
        let t_end = tr.now();
        if let Some(r) = root {
            if let Some(s) = tr.spans.get_mut(r) {
                s.end = t_end;
            }
        }
        Ok((body, edits))
    }

    /// An empty job through the worker pool and back over a `OneShot`.
    pub fn handoff(&self) {
        let slot: OneShot<()> = OneShot::new();
        let tx = slot.clone();
        if self.pool.submit(move || tx.send(())).is_ok() {
            let _ = slot.recv_timeout(Duration::from_secs(10));
        }
    }
}

impl Drop for ServeReplay<'_> {
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

/// The render split: DVQ parse, execution and Vega-Lite rendering of the
/// final DVQ, recorded as root spans of their own (outside the request, so
/// they do not count twice against `render`).
pub fn render_split(tr: &mut Tracer, dvq: &str, store: &t2v_engine::Store) {
    let Ok(q) = tr.span("dvq.parse", None, || t2v_dvq::parse(dvq)) else {
        return;
    };
    let Ok(rs) = tr.span("engine.execute", None, || t2v_engine::execute(&q, store)) else {
        return;
    };
    tr.span("engine.vegalite", None, || t2v_engine::to_vegalite(&q, &rs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_a_request() {
        let s = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            req: 0,
        };
        let spans = vec![
            s("request", 0, 100, None),
            s("http.parse", 0, 10, Some(0)),
            s("gred.generator", 10, 90, Some(0)),
            s("embed", 10, 30, Some(2)),
            s("retrieve.nlq", 30, 50, Some(2)),
        ];
        let t = self_times(&[spans]);
        assert_eq!(t["request"], 10);
        assert_eq!(t["http.parse"], 10);
        assert_eq!(t["gred.generator"], 40);
        assert_eq!(t["embed"] + t["retrieve.nlq"], 40);
        assert_eq!(t.values().sum::<u64>(), 100);
    }
}
