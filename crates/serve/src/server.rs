//! The service itself: state construction, request handling, and the
//! TCP transport.
//!
//! Thread model (DESIGN.md §7): one acceptor thread hands each socket to a
//! lightweight connection thread (blocking reads, keep-alive); connection
//! threads answer health/metrics/cache-hits inline and push translation
//! jobs into the sharded [`WorkerPool`], which bounds CPU-stage concurrency
//! regardless of how many sockets are open. Overload — full queues or too
//! many sockets — answers 503 immediately instead of queueing unboundedly.
//!
//! The HTTP surface is versioned (DESIGN.md §8): every registered
//! [`Translator`] backend serves through `POST /v1/translate` (with
//! `"backend"` selection and optional NDJSON stage streaming),
//! `POST /v1/translate/batch`, and `GET /v1/backends`; the pre-redesign
//! unversioned `POST /translate` answers its deprecation policy
//! (308 redirect or 410 gone, `legacy_translate` knob).

use crate::access_log::AccessLog;
use crate::batch::{BatchRetriever, Batcher};
use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::cache::ShardedTtlLruCache;
use crate::config::NetMode;
use crate::config::{AnnMode, ConfigError, LegacyRoute, ServeConfig};
use crate::http::{self, BodySink, Request, Response};
use crate::metrics::{Metrics, Route, TenantMetrics};
use crate::pool::{OneShot, SubmitError, WorkerPool};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use t2v_baselines::{BaselineTrainConfig, NeuralSeq2Seq, RgVisNet, Seq2Vis, TransformerBaseline};
use t2v_core::{
    BackendInfo, BackendRegistry, StageRecord, StageSink, TranslateError, TranslateRequest,
    TranslateResponse, Translator,
};
use t2v_corpus::{generate, Corpus, Database};
use t2v_engine::{execute, Json, Store};
use t2v_gred::{AutoRetriever, DirectRetriever, Gred};
use t2v_llm::{LlmConfig, SimulatedChatModel};
use t2v_store::{EmbedderPool, LibrarySource, Provenance, SnapshotError};
use t2v_tenant::{snapshot_filename, CorpusSpec, RcuCell, TenantSpec, DEFAULT_TENANT_ID};
use t2v_trace::{FinishedTrace, Recorder, Stage, Trace};

/// Why the server could not start. Every variant prints as one line and
/// exits cleanly in the binaries — startup problems are operator errors or
/// environment damage, not panics.
#[derive(Debug)]
pub enum StartupError {
    /// A knob that parsed cleanly points at an environment that cannot
    /// work (missing snapshot_save parent, absent tenant_dir, ...). Caught
    /// by `ServeConfig::validate` *before* any expensive build.
    Config(ConfigError),
    /// The library snapshot could not be loaded or trusted.
    Snapshot(SnapshotError),
    /// The startup tenant set could not be materialised (catalog scan
    /// failure, per-tenant snapshot failure, ...).
    Tenant(String),
    /// Binding the listen address (or other socket setup) failed.
    Io(std::io::Error),
}

impl std::fmt::Display for StartupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartupError::Config(e) => write!(f, "config: {e}"),
            StartupError::Snapshot(e) => write!(f, "library snapshot: {e}"),
            StartupError::Tenant(e) => write!(f, "tenant: {e}"),
            StartupError::Io(e) => write!(f, "cannot bind: {e}"),
        }
    }
}

impl std::error::Error for StartupError {}

impl From<SnapshotError> for StartupError {
    fn from(e: SnapshotError) -> Self {
        StartupError::Snapshot(e)
    }
}

impl From<std::io::Error> for StartupError {
    fn from(e: std::io::Error) -> Self {
        StartupError::Io(e)
    }
}

/// One servable database: schema, synthesized rows, and the fingerprint that
/// scopes cache entries to exactly this (schema, data) pair.
pub struct DbEntry {
    pub db: Database,
    pub store: Store,
    pub fingerprint: u64,
}

/// Cache key: tenant epoch × backend index × normalised NLQ × database
/// fingerprint × response shape. The backend index namespaces the cache
/// per backend — the same question through different models must never
/// share an entry — and the tenant epoch namespaces it per *attachment*:
/// every attach mints a fresh epoch, so tenants can never cross-hit, and a
/// detach-then-reattach cycle can never resurrect stale entries (the old
/// epoch's entries simply age out of the LRU).
pub type CacheKey = (u32, u16, Box<str>, u64, bool);

/// What the worker pool hands back for one translation: the serialised body
/// plus the HTTP status the connection thread frames it with. Translation
/// outcomes — including structured translation-level errors like
/// `no_output` — are 200 by the v1 contract; `internal` failures (bugs,
/// injected faults, a worker that died mid-job) are 500, and a job whose
/// deadline was already spent when a worker picked it up is 504.
#[derive(Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Arc<Vec<u8>>,
}

/// Late-bound handle to the micro-batcher's retriever. The backend registry
/// is built with server state (before the batcher thread exists); the
/// spawned server plugs the retriever in, and until then — and in tests
/// that never spawn — the GRED backend falls back to direct lookups, which
/// are bit-identical by the batcher's correctness contract.
#[derive(Clone, Default)]
pub struct RetrieverSlot(Arc<OnceLock<BatchRetriever>>);

impl RetrieverSlot {
    fn set(&self, retriever: BatchRetriever) {
        let _ = self.0.set(retriever);
    }

    fn get(&self) -> Option<&BatchRetriever> {
        self.0.get()
    }
}

/// The GRED pipeline as a registry backend: same `Translator` surface as
/// every baseline, with retrieval routed through the server's micro-batcher
/// once it is running.
struct GredBackend {
    gred: Gred<SimulatedChatModel>,
    slot: RetrieverSlot,
    /// ANN routing for the direct (non-batched) path: `None` = exact flat
    /// scan, `Some(n)` = probe the library's attached IVF index with
    /// `n` cells (0 ⇒ the index default). Mirrors the batcher's routing so
    /// batched and direct lookups stay identical.
    ann_nprobe: Option<usize>,
}

impl GredBackend {
    fn run(
        &self,
        req: &TranslateRequest<'_>,
        sink: Option<&mut dyn StageSink>,
    ) -> Result<TranslateResponse, TranslateError> {
        match (self.slot.get(), self.ann_nprobe) {
            (Some(r), _) => self.gred.translate_api(req, r, sink),
            (None, Some(nprobe)) => self.gred.translate_api(
                req,
                &AutoRetriever {
                    library: self.gred.library(),
                    nprobe,
                },
                sink,
            ),
            (None, None) => {
                self.gred
                    .translate_api(req, &DirectRetriever(self.gred.library()), sink)
            }
        }
    }
}

impl Translator for GredBackend {
    fn info(&self) -> BackendInfo {
        self.gred.info()
    }

    fn translate(&self, req: &TranslateRequest<'_>) -> Result<TranslateResponse, TranslateError> {
        self.run(req, None)
    }

    fn translate_streamed(
        &self,
        req: &TranslateRequest<'_>,
        sink: &mut dyn StageSink,
    ) -> Result<TranslateResponse, TranslateError> {
        self.run(req, Some(sink))
    }
}

/// One tenant's complete serving runtime: its corpus's backends, GRED
/// pipeline, databases, library provenance, and metrics handle. Immutable
/// once built — attach/detach swaps whole `Arc<TenantRuntime>`s in and out
/// of the RCU table, never mutates one in place.
pub struct TenantRuntime {
    /// The tenant id (`default` for the implicit tenant the unprefixed
    /// `/v1/*` routes serve).
    pub id: String,
    /// Unique per attachment within the process — the cache-key namespace.
    pub epoch: u32,
    /// Canonical `profile:seed` label of the corpus this tenant serves.
    pub corpus_label: String,
    pub gred: Gred<SimulatedChatModel>,
    pub registry: BackendRegistry,
    pub dbs: HashMap<String, Arc<DbEntry>>,
    /// How this tenant's embedding library materialised.
    pub library_provenance: Provenance,
    /// Fingerprint of the training split the tenant's library covers.
    pub library_fingerprint: u64,
    /// Per-backend circuit breakers, parallel to `registry` order. A
    /// backend whose breaker is open fast-fails (or degrades) instead of
    /// queueing doomed work; see DESIGN.md §11.
    pub breakers: Vec<Arc<CircuitBreaker>>,
    /// Lock-free recording handle into the `tenant="<id>"` counter family.
    pub metrics: Arc<TenantMetrics>,
    /// Only the default tenant participates in the weighted worker-pool
    /// classes and the unlabelled per-backend metric families (both are
    /// sized/registered at startup for a fixed backend list).
    pub is_default: bool,
    /// ANN routing in effect for this tenant's GRED retrieval (`None` =
    /// exact flat scans; `Some(n)` = attached IVF index probed with `n`
    /// cells, 0 ⇒ index default).
    pub ann_nprobe: Option<usize>,
    batch_slot: RetrieverSlot,
}

impl TenantRuntime {
    /// The index kind actually serving this tenant's retrieval: the
    /// library's attached ANN index when routing is enabled and training
    /// succeeded, flat otherwise (ann=off, or ann=on over a corpus too
    /// small to benefit).
    pub fn index_kind(&self) -> t2v_embed::IndexKind {
        match self.ann_nprobe {
            Some(_) => self.gred.library().index_kind(),
            None => t2v_embed::IndexKind::Flat,
        }
    }

    /// The per-query probe count in effect (`None` when serving flat).
    pub fn effective_nprobe(&self) -> Option<usize> {
        let pair = self.gred.library().ann()?;
        let n = self.ann_nprobe?;
        Some(if n == 0 {
            pair.nlq.default_nprobe()
        } else {
            n.min(pair.nlq.cells())
        })
    }
}

/// The immutable tenant set readers resolve against, in attach order
/// (default first). Swapped wholesale through [`RcuCell`] on admin
/// mutations; linear lookup — tenant counts are dozens, not thousands, and
/// a scan over inline `Arc`s beats a hash probe at that size.
pub struct TenantTable {
    list: Vec<Arc<TenantRuntime>>,
}

impl TenantTable {
    pub fn get(&self, id: &str) -> Option<&Arc<TenantRuntime>> {
        self.list.iter().find(|t| t.id == id)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Arc<TenantRuntime>> {
        self.list.iter()
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// A runtime attach request (the admin route's parsed body).
pub struct AttachRequest {
    pub id: String,
    pub corpus: CorpusSpec,
    /// Load the tenant's library from this verified snapshot instead of
    /// building it.
    pub snapshot: Option<PathBuf>,
    /// Backends to register for the tenant (default: the server's
    /// configured backend list).
    pub backends: Option<String>,
}

/// Why an admin tenant mutation was refused.
#[derive(Debug)]
pub enum TenantAdminError {
    /// Attach of an id that is already serving.
    Duplicate(String),
    /// Detach/lookup of an id that is not serving.
    Unknown(String),
    /// The default tenant cannot be detached.
    Undetachable,
    /// The tenant's snapshot could not be loaded or trusted.
    Snapshot(SnapshotError),
    /// A malformed id or backend list.
    Invalid(String),
}

impl std::fmt::Display for TenantAdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantAdminError::Duplicate(id) => write!(f, "tenant '{id}' is already attached"),
            TenantAdminError::Unknown(id) => write!(f, "unknown tenant '{id}'"),
            TenantAdminError::Undetachable => {
                write!(f, "the '{DEFAULT_TENANT_ID}' tenant cannot be detached")
            }
            TenantAdminError::Snapshot(e) => write!(f, "snapshot: {e}"),
            TenantAdminError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl TenantAdminError {
    /// Stable wire code for the structured error envelope.
    pub fn code(&self) -> &'static str {
        match self {
            TenantAdminError::Duplicate(_) => "duplicate_tenant",
            TenantAdminError::Unknown(_) => "unknown_tenant",
            TenantAdminError::Undetachable => "undetachable",
            TenantAdminError::Snapshot(_) => "snapshot_error",
            TenantAdminError::Invalid(_) => "bad_request",
        }
    }

    fn status(&self) -> u16 {
        match self {
            TenantAdminError::Duplicate(_) => 409,
            TenantAdminError::Unknown(_) => 404,
            TenantAdminError::Undetachable => 400,
            TenantAdminError::Snapshot(_) => 422,
            TenantAdminError::Invalid(_) => 400,
        }
    }
}

/// Everything the request path reads. Shared read-only across all threads
/// — except the tenant table, which admin routes swap RCU-style (readers
/// never lock on the fast path; see `t2v_tenant::RcuCell`).
pub struct ServerState {
    pub config: ServeConfig,
    /// The default tenant's GRED pipeline (shared `Arc` internals with
    /// `default_tenant` — kept as a field for the pre-tenant API surface).
    pub gred: Gred<SimulatedChatModel>,
    /// The default tenant's registry (same sharing note as `gred`).
    pub registry: BackendRegistry,
    /// The default tenant's databases (same sharing note as `gred`).
    pub dbs: HashMap<String, Arc<DbEntry>>,
    /// One translation cache across all tenants, namespaced by the tenant
    /// epoch in [`CacheKey`]: global capacity stays bounded no matter how
    /// many tenants attach, and a detached tenant's entries age out of the
    /// shared LRU instead of needing an eager purge.
    pub cache: ShardedTtlLruCache<CacheKey, Arc<Vec<u8>>>,
    pub metrics: Arc<Metrics>,
    /// How the default tenant's embedding library materialised.
    pub library_provenance: Provenance,
    /// Fingerprint of the default tenant's training split.
    pub library_fingerprint: u64,
    /// The implicit tenant the unprefixed `/v1/*` routes serve.
    pub default_tenant: Arc<TenantRuntime>,
    /// Flight recorder for completed request traces (`None` when
    /// `trace_buffer=0`); backs `GET /v1/admin/trace/*`. See DESIGN.md §12.
    pub recorder: Option<Recorder>,
    /// Structured JSON access log (`None` when `access_log=` is unset).
    /// `Arc`-shared with the observability sampler thread, which appends
    /// SLO state-transition lines between request lines.
    pub access_log: Option<Arc<AccessLog>>,
    /// The live tenant table (default + attached), RCU-swapped by admin
    /// mutations.
    tenants: RcuCell<TenantTable>,
    /// Serialises attach/detach and owns the embedder dedup pool (tenants
    /// sharing an embedder fingerprint share one table in memory).
    admin: Mutex<EmbedderPool>,
    /// Mints cache-key epochs for attachments (0 is the default tenant).
    next_epoch: AtomicU32,
}

impl ServerState {
    /// Generate the configured corpus, prepare every configured backend
    /// over it, synthesize the execution stores. The expensive part of
    /// startup (the neural baselines train here).
    pub fn build(config: ServeConfig) -> Result<ServerState, StartupError> {
        // Environment validation runs before the corpus exists: a broken
        // snapshot_save path must cost milliseconds, not a full build.
        config.validate().map_err(StartupError::Config)?;
        let corpus = generate(&config.corpus.corpus_config());
        ServerState::from_corpus(&corpus, config)
    }

    /// Like [`ServerState::build`] for an already-generated corpus (tests
    /// and benches reuse one corpus across servers).
    ///
    /// The default tenant's embedding library resolves through the
    /// [`LibrarySource`] seam: `library_snapshot=` loads the snapshot
    /// (falling back to a build only when the file does not exist — corrupt
    /// or mismatched snapshots fail startup loudly), and `snapshot_save=`
    /// writes a freshly built library through to disk so the *next* restart
    /// is warm. Startup tenants (`tenants=` / `tenant_dir=`) materialise
    /// after the default, sharing embedder tables where fingerprints match.
    pub fn from_corpus(corpus: &Corpus, config: ServeConfig) -> Result<ServerState, StartupError> {
        config.validate().map_err(StartupError::Config)?;
        let source = if config.library_snapshot.is_empty() {
            LibrarySource::Build
        } else {
            LibrarySource::SnapshotOrBuild {
                path: config.library_snapshot.clone().into(),
            }
        };
        let mut embedder_pool = EmbedderPool::new();
        let mut resolved = source.resolve(corpus, &t2v_embed::EmbedConfig::default())?;
        embedder_pool.adopt(&mut resolved);
        let mut snapshots_written = 0u64;
        if resolved.provenance == Provenance::Built && !config.snapshot_save.is_empty() {
            t2v_store::save(&config.snapshot_save, &resolved.library, &resolved.embedder)?;
            snapshots_written = 1;
        }
        let ids = config.backend_ids();
        let metrics = Arc::new(Metrics::with_backends(&ids));
        let default_tenant = Arc::new(build_tenant_runtime(
            DEFAULT_TENANT_ID,
            0,
            config.corpus.label(),
            corpus,
            resolved,
            &config,
            &ids,
            metrics.register_tenant(DEFAULT_TENANT_ID),
            true,
        ));
        let cache = ShardedTtlLruCache::new(
            config.cache_capacity,
            config.cache_ttl(),
            config.effective_cache_shards(),
        );
        metrics
            .cache_shards
            .store(cache.shard_count() as u64, Ordering::Relaxed);
        metrics.set_library_info(
            default_tenant.library_fingerprint,
            default_tenant.library_provenance.label(),
            default_tenant.gred.library().len(),
        );
        metrics
            .snapshots_written
            .fetch_add(snapshots_written, Ordering::Relaxed);

        // Startup tenants: declared by the tenants= knob (snapshots pulled
        // from tenant_dir when the conventionally-named file exists), or —
        // with no declarations — by scanning tenant_dir as a catalog.
        let mut list = vec![Arc::clone(&default_tenant)];
        let mut next_epoch = 1u32;
        for (spec, tenant_source) in startup_tenants(&config)? {
            let tenant_corpus = generate(&spec.corpus.corpus_config());
            let mut tenant_resolved = tenant_source
                .resolve(&tenant_corpus, &t2v_embed::EmbedConfig::default())
                .map_err(|e| StartupError::Tenant(format!("'{}': {e}", spec.id)))?;
            embedder_pool.adopt(&mut tenant_resolved);
            list.push(Arc::new(build_tenant_runtime(
                &spec.id,
                next_epoch,
                spec.corpus.label(),
                &tenant_corpus,
                tenant_resolved,
                &config,
                &ids,
                metrics.register_tenant(&spec.id),
                false,
            )));
            next_epoch += 1;
        }

        let recorder = (config.trace_buffer > 0).then(|| Recorder::new(config.trace_buffer));
        let access_log = if config.access_log.is_empty() {
            None
        } else {
            // validate() already vetted the parent directory; an open
            // failure here (permissions, races) still fails startup loudly.
            Some(Arc::new(AccessLog::open(
                &config.access_log,
                config.access_log_rotate_mb,
                config.access_log_keep,
            )?))
        };

        Ok(ServerState {
            gred: default_tenant.gred.clone(),
            registry: default_tenant.registry.clone(),
            dbs: default_tenant.dbs.clone(),
            cache,
            metrics,
            library_provenance: default_tenant.library_provenance.clone(),
            library_fingerprint: default_tenant.library_fingerprint,
            default_tenant,
            recorder,
            access_log,
            tenants: RcuCell::new(TenantTable { list }),
            admin: Mutex::new(embedder_pool),
            next_epoch: AtomicU32::new(next_epoch),
            config,
        })
    }

    /// The live tenant table (lock-free on the reader fast path).
    pub fn tenants(&self) -> Arc<TenantTable> {
        self.tenants.load()
    }

    /// Attach a tenant to the running server: generate its corpus, resolve
    /// its library (verified snapshot or fresh build), construct its
    /// backend registry, and RCU-swap it into the table. In-flight requests
    /// never block on this — they keep reading the old table until the swap
    /// lands. This is also the backend hot-registration path: a fresh
    /// registry (any configured backend subset) materialises without a
    /// restart.
    pub fn attach_tenant(
        &self,
        req: &AttachRequest,
    ) -> Result<Arc<TenantRuntime>, TenantAdminError> {
        t2v_tenant::validate_tenant_id(&req.id)
            .map_err(|e| TenantAdminError::Invalid(e.message))?;
        let backends = match &req.backends {
            None => self.config.backends.clone(),
            Some(list) => {
                // Borrow the config grammar so the admin route accepts
                // exactly what the backends= knob accepts.
                let mut probe = self.config.clone();
                probe
                    .set("backends", list)
                    .map_err(|e| TenantAdminError::Invalid(e.message))?;
                probe.backends
            }
        };
        // The admin mutex serialises the whole read-build-swap sequence
        // (and guards the embedder pool); readers never touch it.
        let mut pool = self.admin.lock().expect("admin lock poisoned");
        if self.tenants.load().get(&req.id).is_some() {
            return Err(TenantAdminError::Duplicate(req.id.clone()));
        }
        let corpus = generate(&req.corpus.corpus_config());
        let source = match &req.snapshot {
            Some(path) => LibrarySource::Snapshot { path: path.clone() },
            None => LibrarySource::Build,
        };
        let mut resolved = source
            .resolve(&corpus, &t2v_embed::EmbedConfig::default())
            .map_err(TenantAdminError::Snapshot)?;
        pool.adopt(&mut resolved);
        let mut tenant_config = self.config.clone();
        tenant_config.backends = backends;
        let ids = tenant_config.backend_ids();
        let epoch = self.next_epoch.fetch_add(1, Ordering::AcqRel);
        let runtime = Arc::new(build_tenant_runtime(
            &req.id,
            epoch,
            req.corpus.label(),
            &corpus,
            resolved,
            &tenant_config,
            &ids,
            self.metrics.register_tenant(&req.id),
            false,
        ));
        let published = Arc::clone(&runtime);
        self.tenants.update(move |table| {
            let mut list = table.list.clone();
            list.push(Arc::clone(&published));
            TenantTable { list }
        });
        Ok(runtime)
    }

    /// Detach a tenant: RCU-swap a table without it. Translations already
    /// in flight hold their own `Arc<TenantRuntime>` and complete normally;
    /// the next request for the id gets a structured 404. The tenant's
    /// cache entries are left to age out of the shared LRU (their epoch is
    /// never minted again).
    pub fn detach_tenant(&self, id: &str) -> Result<(), TenantAdminError> {
        if id == DEFAULT_TENANT_ID {
            return Err(TenantAdminError::Undetachable);
        }
        let _pool = self.admin.lock().expect("admin lock poisoned");
        if self.tenants.load().get(id).is_none() {
            return Err(TenantAdminError::Unknown(id.to_string()));
        }
        self.tenants.update(|table| TenantTable {
            list: table.list.iter().filter(|t| t.id != id).cloned().collect(),
        });
        self.metrics.drop_tenant(id);
        Ok(())
    }
}

/// Build one tenant's runtime from its resolved library. The expensive
/// part of attach (the trained baselines train here, on the tenant's own
/// corpus).
#[allow(clippy::too_many_arguments)]
fn build_tenant_runtime(
    id: &str,
    epoch: u32,
    corpus_label: String,
    corpus: &Corpus,
    resolved: t2v_store::ResolvedLibrary,
    config: &ServeConfig,
    backend_ids: &[&str],
    tenant_metrics: Arc<TenantMetrics>,
    is_default: bool,
) -> TenantRuntime {
    // ANN adoption/training happens before the pipeline is assembled: a
    // snapshot-borne index is already attached (the decoder did it), and
    // `train_ann` declines rather than replaces, so this is idempotent.
    // With ann=on a too-small corpus declines and the tenant serves flat;
    // ann=force trains regardless (tests and smoke rigs).
    let ann_nprobe = config.effective_ann();
    if ann_nprobe.is_some() && resolved.library.ann().is_none() {
        let ivf_cfg = t2v_ann::IvfConfig {
            min_rows: match config.ann {
                AnnMode::Force => 1,
                _ => t2v_ann::DEFAULT_MIN_ROWS,
            },
            ..Default::default()
        };
        resolved.library.train_ann(&ivf_cfg);
    }
    let gred = Gred::from_parts(
        Arc::clone(&resolved.embedder),
        Arc::clone(&resolved.library),
        SimulatedChatModel::new(LlmConfig::default()),
        config.gred_config(),
    );
    let batch_slot = RetrieverSlot::default();
    let mut registry = BackendRegistry::new();
    // Trained baselines use a minimal profile: serving startup must stay
    // bounded (it runs in tests and CI), and the serving surface routes
    // requests — model quality is the bench binaries' concern.
    let train_cfg = BaselineTrainConfig {
        seed: config.store_seed,
        max_train: 64,
        epochs: 3,
        hidden: 24,
        emb: 16,
        ..BaselineTrainConfig::fast()
    };
    for backend_id in backend_ids {
        let backend: Arc<dyn Translator> = match *backend_id {
            "gred" => Arc::new(GredBackend {
                gred: gred.clone(),
                slot: batch_slot.clone(),
                ann_nprobe,
            }),
            "seq2vis" => Arc::new(Seq2Vis::train(corpus, &train_cfg)),
            "transformer" => Arc::new(TransformerBaseline::train(corpus, &train_cfg)),
            "rgvisnet" => Arc::new(RgVisNet::build(corpus)),
            "neural" => Arc::new(NeuralSeq2Seq::train(corpus, &train_cfg)),
            other => unreachable!("config validated backend id '{other}'"),
        };
        registry.register(*backend_id, backend);
    }
    // One breaker per backend, and the gauge cells go straight into the
    // tenant's metric family so `/metrics` renders
    // `t2v_breaker_state{tenant,backend}` without ever touching the
    // breaker's lock.
    let breakers: Vec<Arc<CircuitBreaker>> = backend_ids
        .iter()
        .map(|_| {
            Arc::new(CircuitBreaker::new(BreakerConfig {
                window: config.breaker_window,
                min_samples: config.breaker_min_samples,
                threshold_pct: config.breaker_threshold_pct,
                open_ms: config.breaker_open_ms,
            }))
        })
        .collect();
    let _ = tenant_metrics.breaker_states.set(
        backend_ids
            .iter()
            .zip(&breakers)
            .map(|(id, b)| (id.to_string(), b.state_cell()))
            .collect(),
    );
    let dbs = corpus
        .databases
        .iter()
        .map(|db| {
            let store = Store::synthesize(db, config.store_seed, config.store_rows);
            let fingerprint = db_fingerprint(db, config.store_seed, config.store_rows);
            (
                db.id.clone(),
                Arc::new(DbEntry {
                    db: db.clone(),
                    store,
                    fingerprint,
                }),
            )
        })
        .collect();
    TenantRuntime {
        id: id.to_string(),
        epoch,
        corpus_label,
        gred,
        registry,
        dbs,
        library_provenance: resolved.provenance,
        library_fingerprint: resolved.corpus_fingerprint,
        breakers,
        metrics: tenant_metrics,
        is_default,
        ann_nprobe,
        batch_slot,
    }
}

/// The startup tenant set: `(spec, library source)` pairs, derived from
/// the `tenants=` and `tenant_dir=` knobs.
fn startup_tenants(config: &ServeConfig) -> Result<Vec<(TenantSpec, LibrarySource)>, StartupError> {
    let declared = config.tenant_specs();
    if !declared.is_empty() {
        // Declared tenants: prefer the conventionally-named catalog
        // snapshot when one exists (strict — a present-but-broken file
        // fails startup), build otherwise.
        return Ok(declared
            .into_iter()
            .map(|spec| {
                let source = if config.tenant_dir.is_empty() {
                    LibrarySource::Build
                } else {
                    let path =
                        std::path::Path::new(&config.tenant_dir).join(snapshot_filename(&spec));
                    if path.exists() {
                        LibrarySource::Snapshot { path }
                    } else {
                        LibrarySource::Build
                    }
                };
                (spec, source)
            })
            .collect());
    }
    if config.tenant_dir.is_empty() {
        return Ok(Vec::new());
    }
    // Catalog mode: every conforming snapshot in the directory declares a
    // tenant; corrupt conforming files fail the whole scan loudly.
    let entries = t2v_tenant::scan_catalog(&config.tenant_dir)
        .map_err(|e| StartupError::Tenant(e.to_string()))?;
    Ok(entries
        .into_iter()
        .map(|e| (e.spec, LibrarySource::Snapshot { path: e.path }))
        .collect())
}

/// FNV-1a over everything that determines a translation + execution result
/// for a database: id, rendered schema, and the store synthesis parameters.
pub fn db_fingerprint(db: &Database, store_seed: u64, store_rows: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(db.id.as_bytes());
    eat(&[0xff]);
    eat(db.render_prompt_schema().as_bytes());
    eat(&store_seed.to_le_bytes());
    eat(&(store_rows as u64).to_le_bytes());
    h
}

/// Lowercase + collapse runs of whitespace: the embedder tokenizes
/// case-insensitively on non-alphanumerics, so NLQs that normalise equal
/// translate identically and may share a cache entry.
pub fn normalize_nlq(nlq: &str) -> String {
    let mut out = String::with_capacity(nlq.len());
    let mut pending_space = false;
    for c in nlq.chars() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
        } else {
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            out.extend(c.to_lowercase());
        }
    }
    out
}

fn opt_str(s: &Option<String>) -> Json {
    match s {
        Some(s) => Json::str(s.as_str()),
        None => Json::Null,
    }
}

fn stages_json(stages: &[StageRecord]) -> Json {
    Json::Arr(
        stages
            .iter()
            .map(|s| Json::obj([("name", Json::str(s.name)), ("dvq", opt_str(&s.dvq))]))
            .collect(),
    )
}

/// Serialise one translation outcome as the `/v1/translate` response body.
/// Pure and timing-free: the same inputs always serialise the same bytes,
/// which is what makes cache hits bit-identical to cold translations
/// (stage timings go to the per-backend metrics histograms instead).
/// Failures are structured `{"error": {"code", "message"}}` objects from
/// the [`TranslateError`] taxonomy.
pub fn render_translation(
    backend_id: &str,
    nlq_normalized: &str,
    entry: &DbEntry,
    want_vegalite: bool,
    result: &Result<TranslateResponse, TranslateError>,
) -> Vec<u8> {
    let mut body = Json::obj([
        ("backend", Json::str(backend_id)),
        ("db", Json::str(entry.db.id.as_str())),
        ("nlq", Json::str(nlq_normalized)),
    ]);
    match result {
        Ok(resp) => {
            body.set("stages", stages_json(&resp.stages));
            body.set("dvq", Json::str(resp.dvq.as_str()));
            if want_vegalite {
                match t2v_dvq::parse(&resp.dvq) {
                    Ok(q) => match execute(&q, &entry.store) {
                        Ok(rs) => body.set("vegalite", t2v_engine::to_vegalite(&q, &rs)),
                        Err(e) => {
                            body.set("vegalite", Json::Null);
                            body.set("vegalite_error", Json::str(format!("{e:?}")));
                        }
                    },
                    Err(e) => {
                        body.set("vegalite", Json::Null);
                        body.set("vegalite_error", Json::str(format!("{e}")));
                    }
                }
            }
        }
        Err(e) => {
            let stages: &[StageRecord] = match e {
                TranslateError::NoOutput { stages, .. }
                | TranslateError::InvalidOutput { stages, .. } => stages,
                _ => &[],
            };
            body.set("stages", stages_json(stages));
            body.set("dvq", Json::Null);
            body.set(
                "error",
                Json::obj([
                    ("code", Json::str(e.code())),
                    ("message", Json::str(e.to_string())),
                ]),
            );
        }
    }
    body.compact().into_bytes()
}

/// Run one translation through `backend` and serialise it — the body the
/// worker pool computes on a cache miss.
pub fn translate_body(
    backend: &dyn Translator,
    backend_id: &str,
    nlq_normalized: &str,
    entry: &DbEntry,
    want_vegalite: bool,
) -> Vec<u8> {
    let result = backend.translate(&TranslateRequest::new(nlq_normalized, &entry.db));
    render_translation(backend_id, nlq_normalized, entry, want_vegalite, &result)
}

/// What both connection drivers — the thread-per-connection loop and the
/// epoll event loop — share with every in-flight request.
pub(crate) struct Shared {
    pub(crate) state: Arc<ServerState>,
    pub(crate) pool: WorkerPool,
    pub(crate) shutdown: AtomicBool,
    /// Requests parsed by the event loop but not yet picked up by a
    /// dispatch thread (0 under the threaded driver). Surfaced in
    /// `/v1/admin/status` as the accept-side queue depth.
    pub(crate) dispatch_depth: AtomicU64,
    /// The self-contained ops plane (ring-buffer TSDB, SLO burn-rate
    /// engine, stage profiler); `None` when `obs_sample_ms=0` and
    /// `obs_profile_hz=0`. See DESIGN.md §15.
    pub(crate) obs: Option<Arc<t2v_obs::ObsEngine>>,
    /// Event-loop occupancy, published by the `t2v-event` thread every
    /// ~250ms (all zeros under the threaded driver). Read by
    /// `/v1/admin/status`.
    pub(crate) event_stats: EventStats,
}

/// Connection-state census of the epoll event loop, refreshed by the loop
/// itself so the status endpoint never has to lock the connection table.
#[derive(Default)]
pub(crate) struct EventStats {
    /// Connections currently accumulating request bytes.
    pub(crate) reading: AtomicU64,
    /// Connections with a request in flight on a dispatch thread.
    pub(crate) dispatched: AtomicU64,
    /// Connections flushing a response under write backpressure.
    pub(crate) writing: AtomicU64,
    /// Idle keep-alive connections parked between requests.
    pub(crate) keep_alive: AtomicU64,
    /// Read buffers currently parked in the loop's buffer pool.
    pub(crate) pool_buffers: AtomicU64,
    /// 1 while the loop is in its shutdown drain window.
    pub(crate) draining: AtomicU64,
}

/// The transport serving the listener: the classic thread-per-connection
/// acceptor, or the epoll event loop (`net=event`, the default).
enum Driver {
    Threaded(JoinHandle<()>),
    Event(crate::event::EventDriver),
}

/// A running server. Bind with [`Server::spawn`]; stop with
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<Batcher>,
    driver: Option<Driver>,
    addr: SocketAddr,
}

impl Server {
    /// Bind `state.config.addr` and start serving.
    pub fn spawn(state: Arc<ServerState>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&state.config.addr)?;
        let addr = listener.local_addr()?;
        let config = &state.config;
        // Arm the deterministic fault plan, if one is configured. The
        // injection points live in leaf crates that know nothing about
        // server instances, so arming is process-global — the knob exists
        // for chaos drills, which run one server per process. The spec
        // already parsed when the knob was set; a failure here means the
        // field was mutated directly, and silently serving unfaulted is
        // the safe answer.
        if !config.fault_plan.is_empty() {
            if let Ok(plan) = t2v_fault::FaultPlan::parse(&config.fault_plan) {
                t2v_fault::arm(&plan);
            }
        }
        // The batcher only serves the default tenant's GRED retrieval; skip
        // the thread entirely when gred is not registered. Attached tenants
        // fall back to direct lookups — bit-identical by the batcher's
        // correctness contract, so tenancy never changes translation bytes.
        let batcher = if config.batch && state.registry.get("gred").is_some() {
            let b = Batcher::spawn(
                state.gred.shared_library(),
                Duration::from_micros(config.batch_window_us),
                Arc::clone(&state.metrics),
                config.effective_ann(),
            );
            // From here on the GRED backend coalesces retrieval through the
            // batcher (bit-identical to the direct lookups it replaces).
            state.default_tenant.batch_slot.set(b.retriever());
            Some(b)
        } else {
            None
        };
        // One submission class per registered backend, weighted by the
        // `backend_weights` knob: heavy backends get proportionally more
        // in-system pool shares than trivial ones. With no weights
        // configured the pool stays *unclassed* — equal implicit weights
        // would still cap every backend at 1/N of the pool, a silent
        // throughput regression for skewed traffic nobody asked to shape.
        let weights = if config.backend_weights.is_empty() {
            Vec::new()
        } else {
            config.backend_weight_vector()
        };
        let pool = WorkerPool::new_weighted(
            config.effective_workers(),
            config.effective_shards(),
            config.queue_capacity,
            &weights,
            Arc::clone(&state.metrics),
        );
        for idx in 0..weights.len() {
            if let Some(share) = pool.class_share(idx) {
                state
                    .metrics
                    .backend(idx)
                    .pool_share
                    .store(share as u64, Ordering::Relaxed);
            }
        }
        let obs = build_obs(&state);
        let shared = Arc::new(Shared {
            state,
            pool,
            shutdown: AtomicBool::new(false),
            dispatch_depth: AtomicU64::new(0),
            obs,
            event_stats: EventStats::default(),
        });
        let driver = match shared.state.config.net {
            NetMode::Threaded => {
                let shared = Arc::clone(&shared);
                Driver::Threaded(
                    std::thread::Builder::new()
                        .name("t2v-acceptor".to_string())
                        .spawn(move || accept_loop(&shared, listener))
                        .expect("spawn acceptor thread"),
                )
            }
            NetMode::Event => Driver::Event(crate::event::EventDriver::spawn(
                Arc::clone(&shared),
                listener,
            )?),
        };
        Ok(Server {
            shared,
            batcher,
            driver: Some(driver),
            addr,
        })
    }

    /// The bound address (useful with `addr = 127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> &ServerState {
        &self.shared.state
    }

    /// Orderly stop: close the listener, drain the pool, stop the batcher.
    /// Under the threaded driver open keep-alive connections die on their
    /// next read timeout; the event driver drains in-flight requests (idle
    /// sockets close immediately, busy ones finish their response) before
    /// its loop exits.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        match self.driver.take() {
            Some(Driver::Threaded(h)) => {
                // Poke the acceptor out of its blocking accept().
                let _ = TcpStream::connect(self.addr);
                let _ = h.join();
            }
            Some(Driver::Event(driver)) => driver.shutdown(),
            None => {}
        }
        self.shared.pool.shutdown();
        if let Some(b) = self.batcher.take() {
            b.shutdown();
        }
        if let Some(obs) = &self.shared.obs {
            obs.stop();
        }
    }
}

/// Construct and start the ops plane from the `obs_*` / `slo*` knobs.
/// Returns `None` when both cadence knobs are zero — the request path then
/// carries no observability overhead beyond the atomics it already bumps.
fn build_obs(state: &Arc<ServerState>) -> Option<Arc<t2v_obs::ObsEngine>> {
    let config = &state.config;
    if config.obs_sample_ms == 0 && config.obs_profile_hz == 0 {
        return None;
    }
    // The spec parsed when the knob was set (same contract as fault_plan);
    // a parse failure here means the field was mutated directly, and an
    // SLO-less ops plane is the safe answer.
    let slos = t2v_obs::parse_slos(&config.slo).unwrap_or_default();
    let sources = t2v_obs::SloSources {
        latency_bounds_s: crate::metrics::BUCKET_BOUNDS_NS
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect(),
        ..t2v_obs::SloSources::default()
    };
    let windows = t2v_obs::BurnWindows {
        fast_ms: config.slo_fast_s.saturating_mul(1000),
        slow_ms: config.slo_slow_s.saturating_mul(1000),
        ..t2v_obs::BurnWindows::default()
    };
    let engine = Arc::new(t2v_obs::ObsEngine::new(t2v_obs::ObsConfig {
        sample_ms: config.obs_sample_ms,
        retention_s: config.obs_retention_s,
        profile_hz: config.obs_profile_hz,
        slos,
        sources,
        windows,
    }));
    // The collector captures only the metrics registry (not the server
    // state) so the engine can never keep tenants or caches alive.
    let metrics = Arc::clone(&state.metrics);
    let collector: t2v_obs::Collector = Box::new(move || {
        let (requests, requests_5xx) = metrics.requests_all();
        let mut out = vec![
            ("http.requests".to_string(), requests),
            ("http.requests_5xx".to_string(), requests_5xx),
            (
                "http.rejected".to_string(),
                metrics.rejected.load(Ordering::Relaxed),
            ),
            (
                "cache.hits".to_string(),
                metrics.cache_hits.load(Ordering::Relaxed),
            ),
            (
                "cache.misses".to_string(),
                metrics.cache_misses.load(Ordering::Relaxed),
            ),
            (
                "deadline.exceeded".to_string(),
                metrics.deadline_exceeded.load(Ordering::Relaxed),
            ),
            (
                "degraded".to_string(),
                metrics.degraded.load(Ordering::Relaxed),
            ),
            (
                "breaker.opens".to_string(),
                metrics.breaker_opens.load(Ordering::Relaxed),
            ),
            (
                "worker.panics".to_string(),
                metrics.worker_panics.load(Ordering::Relaxed),
            ),
            (
                "conn.reaped".to_string(),
                metrics.conn_reaped.load(Ordering::Relaxed),
            ),
            (
                "queue.depth".to_string(),
                metrics.queue_depth.load(Ordering::Relaxed),
            ),
            (
                "connections.active".to_string(),
                metrics.connections_active.load(Ordering::Relaxed),
            ),
        ];
        let cumulative = metrics.request_total_latency.cumulative_counts();
        for (i, c) in cumulative.iter().enumerate() {
            out.push((format!("request_seconds.bucket:{i}"), *c));
        }
        out.push((
            "request_seconds.bucket:inf".to_string(),
            metrics.request_total_latency.count(),
        ));
        out
    });
    // SLO state flips land in the access log between request lines, so an
    // operator tailing it sees "when did it start burning" in context.
    let sink: Option<t2v_obs::TransitionSink> = state.access_log.as_ref().map(|log| {
        let log = Arc::clone(log);
        Box::new(move |t: &t2v_obs::SloTransition| {
            log.write_line(&crate::access_log::render_slo_transition(
                t2v_obs::unix_ms(),
                &t.slo,
                t.firing,
                t.fast_burn,
                t.slow_burn,
            ));
        }) as t2v_obs::TransitionSink
    });
    engine.start(collector, sink);
    Some(engine)
}

/// Accept failures that mean *we* (or the host) ran out of file
/// descriptors. Retrying immediately cannot succeed — the listener stays
/// readable with the pending connection still queued — so without a pause
/// the loop spins at 100% CPU exactly when the box is saturated.
pub(crate) fn fd_exhausted(err: &std::io::Error) -> bool {
    matches!(err.raw_os_error(), Some(libc_emfile) if libc_emfile == 24 || libc_emfile == 23)
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let metrics = &shared.state.metrics;
        let stream = match stream {
            Ok(stream) => stream,
            Err(err) => {
                metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                if fd_exhausted(&err) {
                    // EMFILE/ENFILE: back off until existing connections
                    // release fds instead of spinning on a hot listener.
                    std::thread::sleep(Duration::from_millis(20));
                }
                continue;
            }
        };
        metrics.connections_total.fetch_add(1, Ordering::Relaxed);
        let active = metrics.connections_active.fetch_add(1, Ordering::AcqRel) + 1;
        if active as usize > shared.state.config.max_connections {
            // Shed before spawning anything: canned bytes, no allocation.
            let mut s = stream;
            let _ = s.write_all(http::overload_response_bytes());
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
            metrics.connections_active.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // Cloned up front: if the thread spawn fails the stream is gone
        // (moved into the dropped closure), and the peer deserves a 503
        // rather than a silent hangup.
        let reply_half = stream.try_clone();
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("t2v-conn".to_string())
            .spawn(move || {
                connection_loop(&shared, stream);
                shared
                    .state
                    .metrics
                    .connections_active
                    .fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            // Thread exhaustion is overload like any other: shed loudly.
            metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
            metrics.connections_active.fetch_sub(1, Ordering::AcqRel);
            if let Ok(mut s) = reply_half {
                let _ = s.write_all(http::overload_response_bytes());
            }
        }
    }
}

fn connection_loop(shared: &Shared, stream: TcpStream) {
    let keep_alive = Duration::from_secs(shared.state.config.keep_alive_secs.max(1));
    if stream.set_read_timeout(Some(keep_alive)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let max_body = shared.state.config.max_body_bytes;

    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Block until the *first byte* of the next request without
        // consuming it: the trace clock starts here, so keep-alive idle
        // never counts against `conn.read` and span durations sum to the
        // latency the client actually observed.
        use std::io::BufRead as _;
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF between requests
            Ok(_) => {}
            Err(_) => return, // keep-alive timeout or transport failure
        }
        let t0 = Instant::now();
        let req = match http::read_request(&mut reader, max_body) {
            Ok(req) => req,
            Err(http::ReadError::Closed) | Err(http::ReadError::Io(_)) => return,
            Err(err) => {
                write_read_error(shared, &err, &mut writer);
                return;
            }
        };
        let read_dur = t0.elapsed();
        if !handle_request(shared, &req, t0, read_dur, &mut writer) {
            return;
        }
    }
}

/// Answer an unreadable request (the driver-independent half of read-error
/// handling): a 400 for a malformed head, a 413 for an oversized body,
/// counted under `Route::Other`. `Closed`/`Io` errors never reach here —
/// both drivers hang up silently on those.
pub(crate) fn write_read_error<W: BodySink + ?Sized>(
    shared: &Shared,
    err: &http::ReadError,
    writer: &mut W,
) {
    let (status, message): (u16, &str) = match err {
        http::ReadError::Malformed(why) => (400, why),
        http::ReadError::BodyTooLarge => (413, "request body too large"),
        http::ReadError::Closed | http::ReadError::Io(_) => return,
    };
    let resp = Response::error(status, message);
    shared.state.metrics.record_request(Route::Other, status);
    let _ = resp.write_to_sink(writer, false);
}

/// Serve one parsed request end to end — trace setup, routing, response
/// write, trace publication — and say whether the connection may carry
/// another. The threaded driver runs every request through here, and the
/// event driver every request it does not finish on its loop thread (see
/// [`answer_on_loop`]); both paths share [`start_trace`] and
/// [`finish_request`], which is what keeps their response bytes identical
/// by construction.
pub(crate) fn handle_request<W: BodySink + ?Sized>(
    shared: &Shared,
    req: &Request,
    t0: Instant,
    read_dur: Duration,
    writer: &mut W,
) -> bool {
    let rt = start_trace(shared, req, t0, read_dur);
    let scope = rt.trace.scope();
    let (route, handled) = respond(shared, req, writer);
    finish_request(shared, req, rt, scope, route, handled, writer)
}

/// One request's trace, started before routing and sealed by
/// [`finish_request`]. `Send`, so a translate request whose front half ran
/// on the event loop carries it to the dispatch thread that runs the rest.
pub(crate) struct RequestTrace {
    trace: Trace,
    t0: Instant,
    force: bool,
    sampled: bool,
}

/// Trace setup (DESIGN.md §12). Every request gets an id (it rides the
/// `x-t2v-trace-id` header regardless); spans are recorded only when
/// something could consume them — the client forced it, the sampler hit,
/// the slow/error override is armed, or the access log needs per-stage
/// timings. With `trace_sample=0 trace_force_slow_ms=0` and no access log,
/// the whole machinery is id generation plus no-op guards.
fn start_trace(shared: &Shared, req: &Request, t0: Instant, read_dur: Duration) -> RequestTrace {
    let config = &shared.state.config;
    let force = req
        .header("x-t2v-trace")
        .is_some_and(|v| v.trim() == "1" || v.trim().eq_ignore_ascii_case("true"));
    let trace_id = t2v_trace::new_trace_id();
    let sampled = config.trace_sample > 0.0 && t2v_trace::sample_hit(trace_id, config.trace_sample);
    let record = force
        || sampled
        || (config.trace_force_slow_ms > 0 && shared.state.recorder.is_some())
        || shared.state.access_log.is_some();
    let trace = Trace::start_at(trace_id, record, t0);
    trace.add_span(Stage::ConnRead, t0, read_dur);
    RequestTrace {
        trace,
        t0,
        force,
        sampled,
    }
}

/// Answer one routed request: count it, seal its trace, write the response
/// (or the trailing trace line of a stream), and publish the trace. `scope`
/// is the request's trace installed on this thread. Returns whether the
/// connection may carry another request.
fn finish_request<W: BodySink + ?Sized>(
    shared: &Shared,
    req: &Request,
    rt: RequestTrace,
    scope: t2v_trace::ScopeGuard,
    route: Route,
    handled: Handled,
    writer: &mut W,
) -> bool {
    let RequestTrace {
        trace,
        t0,
        force,
        sampled,
    } = rt;
    let trace_id = trace.id();
    let keep = !req.wants_close();
    match handled {
        Handled::Reply(resp) => {
            // Chaos seam: a `conn.write_stall` fault delays the response
            // write, modelling a peer (or proxy) draining us slowly.
            t2v_fault::inject_delay(t2v_fault::FaultPoint::ConnWriteStall);
            shared.state.metrics.record_request(route, resp.status);
            // Seal the trace before writing: request-level fields come
            // off the response itself (headers the endpoints already
            // set), and the inline tree — when the client asked for it
            // — must ride in this very body. The `resp.write` span is
            // appended to the sealed trace after the write (it cannot
            // be inside a body that is being written), so the recorder
            // and access log see it; the inline copy does not.
            drop(scope);
            let tenant = request_tenant(&req.path);
            let backend = resp_header(&resp, "x-t2v-backend").unwrap_or("");
            let cache = resp_header(&resp, "x-t2v-cache").unwrap_or("bypass");
            let degraded = resp_header(&resp, "x-t2v-degraded");
            let mut finished = trace.finish(resp.status, tenant, backend, cache, degraded);
            let mut resp = resp.with_header("x-t2v-trace-id", t2v_trace::format_id(trace_id));
            if force {
                if let Some(f) = &finished {
                    if resp.content_type.starts_with("application/json") {
                        resp.body = splice_trace(resp.body.as_slice(), f).into();
                    }
                }
            }
            let wstart = Instant::now();
            let ok = resp.write_to_sink(writer, keep);
            if let Some(f) = &mut finished {
                let wdur = wstart.elapsed();
                f.spans.push(t2v_trace::Span {
                    stage: Stage::Write,
                    start_ns: wstart.duration_since(t0).as_nanos() as u64,
                    dur_ns: wdur.as_nanos() as u64,
                    parent: Some(0),
                    notes: Vec::new(),
                });
                f.total_ns = t0.elapsed().as_nanos() as u64;
                f.spans[0].dur_ns = f.total_ns;
            }
            if let Some(f) = finished {
                publish_trace(shared, req, force, sampled, f);
            }
            ok.is_ok() && keep
        }
        // The endpoint already wrote an EOF-delimited streaming body;
        // the connection closes to mark the end of the stream. A traced
        // stream gets its span tree as one final NDJSON line.
        Handled::Streamed(status) => {
            shared.state.metrics.record_request(route, status);
            drop(scope);
            let tenant = request_tenant(&req.path);
            if let Some(f) = trace.finish(status, tenant, "", "bypass", None) {
                if force {
                    let line = Json::obj([("trace", trace_json(&f))]).compact();
                    let _ = writer
                        .write_all(line.as_bytes())
                        .and_then(|_| writer.write_all(b"\n"))
                        .and_then(|_| writer.flush());
                }
                publish_trace(shared, req, force, sampled, f);
            }
            false
        }
    }
}

/// What the event loop did with a parsed request (see [`answer_on_loop`]).
pub(crate) enum OnLoop {
    /// Answered and written into the loop's sink; the flag says whether
    /// the connection may carry another request.
    Answered(bool),
    /// Needs the worker pool, or might block: run [`Deferred::run`] on a
    /// dispatch thread.
    Deferred(Box<Deferred>),
}

/// A request the event loop hands to a dispatch thread. Either untouched
/// (`front: None`, routed there from scratch) or a translate request whose
/// front half already ran on the loop: its trace, route and resolved item
/// ride along, so nothing is parsed, looked up, counted or traced twice.
pub(crate) struct Deferred {
    req: Request,
    t0: Instant,
    read_dur: Duration,
    front: Option<(RequestTrace, Route, Pending)>,
}

impl Deferred {
    /// Serve the rest of the request and write its response; returns
    /// whether the connection may carry another.
    pub(crate) fn run<W: BodySink + ?Sized>(self, shared: &Shared, writer: &mut W) -> bool {
        match self.front {
            None => handle_request(shared, &self.req, self.t0, self.read_dur, writer),
            Some((rt, route, pending)) => {
                let scope = rt.trace.scope();
                let handled = translate_back(shared, pending, writer);
                finish_request(shared, &self.req, rt, scope, route, handled, writer)
            }
        }
    }
}

/// The event loop's entry point for a parsed request. Translate routes run
/// their front half here, on the loop thread: a fresh cache hit or a
/// validation 4xx is answered into `writer` through the same
/// [`finish_request`] as every other response. Everything else — a miss,
/// a stale entry, `stream`, other routes — comes back as [`Deferred`].
/// While a fault plan is armed every request is deferred: the
/// `conn.write_stall` point sleeps inside [`finish_request`], and the loop
/// must never sleep.
pub(crate) fn answer_on_loop<W: BodySink + ?Sized>(
    shared: &Shared,
    req: Request,
    t0: Instant,
    read_dur: Duration,
    writer: &mut W,
) -> OnLoop {
    let target = if t2v_fault::is_armed() {
        None
    } else {
        translate_route(shared, &req)
    };
    let Some((route, tenant)) = target else {
        return OnLoop::Deferred(Box::new(Deferred {
            req,
            t0,
            read_dur,
            front: None,
        }));
    };
    let rt = start_trace(shared, &req, t0, read_dur);
    let scope = rt.trace.scope();
    match translate_front(shared, &req, &tenant) {
        Front::Done(resp) => OnLoop::Answered(finish_request(
            shared,
            &req,
            rt,
            scope,
            route,
            Handled::Reply(resp),
            writer,
        )),
        Front::Pending(pending) => {
            drop(scope);
            OnLoop::Deferred(Box::new(Deferred {
                req,
                t0,
                read_dur,
                front: Some((rt, route, pending)),
            }))
        }
    }
}

/// The tenant a request path addresses (`default` for unprefixed routes).
fn request_tenant(path: &str) -> &str {
    path.strip_prefix("/v1/t/")
        .and_then(|rest| rest.split('/').next())
        .filter(|id| !id.is_empty())
        .unwrap_or(DEFAULT_TENANT_ID)
}

/// First value of a response header (the endpoints communicate per-request
/// observability facts — backend, cache outcome, degradation — through the
/// headers they already set for clients).
fn resp_header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
    resp.headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Splice `,"trace": {...}` into a serialised JSON object body (the
/// `X-T2V-Trace: 1` opt-in). Like `mark_degraded`, this happens *after* the
/// cache, so cached bodies stay byte-identical across plain requests.
fn splice_trace(body: &[u8], f: &FinishedTrace) -> Vec<u8> {
    match body.last() {
        Some(b'}') => {
            let tree = trace_json(f).compact();
            let mut out = Vec::with_capacity(body.len() + tree.len() + 12);
            out.extend_from_slice(&body[..body.len() - 1]);
            out.extend_from_slice(b",\"trace\":");
            out.extend_from_slice(tree.as_bytes());
            out.push(b'}');
            out
        }
        // Not an object: serve untouched rather than corrupt it.
        _ => body.to_vec(),
    }
}

/// Store / log / count one sealed trace according to the knobs: the
/// recorder keeps it when the client forced it, the sampler hit, or the
/// slow/error override fires; the access log always gets its line; a
/// slow request also charges `t2v_slow_requests_total{stage}` with its
/// dominant stage.
fn publish_trace(shared: &Shared, req: &Request, force: bool, sampled: bool, f: FinishedTrace) {
    let config = &shared.state.config;
    let slow = config.trace_force_slow_ms > 0
        && f.total_ns >= config.trace_force_slow_ms.saturating_mul(1_000_000);
    let error = f.status >= 500;
    if slow {
        // A trace that hit the span cap lost spans — its "dominant stage"
        // would be computed from a partial tree, silently mis-attributing
        // the slowness. Charge those to an explicit `truncated` bucket
        // instead (raise `trace_max_spans=` when it grows).
        if f.dropped_spans > 0 {
            shared.state.metrics.record_slow_truncated();
        } else {
            shared.state.metrics.record_slow(f.dominant_stage());
        }
    }
    if let Some(log) = &shared.state.access_log {
        log.write_line(&crate::access_log::render_line(&req.method, &req.path, &f));
    }
    if force || sampled || slow || error {
        if let Some(recorder) = &shared.state.recorder {
            // This trace is retrievable via `/v1/admin/trace/{id}`, so it
            // can serve as the latency exemplar for its histogram bucket —
            // the `/metrics` → flight recorder jump (DESIGN.md §15).
            shared
                .state
                .metrics
                .request_total_latency
                .record_exemplar(f.total_ns, f.id);
            recorder.store(Arc::new(f));
        }
    }
}

/// How a request was answered: a framed response to write, or a streaming
/// body the endpoint already wrote itself.
enum Handled {
    Reply(Response),
    Streamed(u16),
}

/// Route one request. Health, metrics, backend listings, and cache hits are
/// answered on the connection thread; translation misses go through the
/// worker pool. Tenant-scoped traffic lives under `/v1/t/{tenant}/...`
/// (same sub-routes as the default tenant's unprefixed `/v1/*`).
fn respond<W: BodySink + ?Sized>(
    shared: &Shared,
    req: &Request,
    writer: &mut W,
) -> (Route, Handled) {
    let reply = |route: Route, resp: Response| (route, Handled::Reply(resp));
    if let Some((route, tenant)) = translate_route(shared, req) {
        return (route, translate_endpoint(shared, req, writer, &tenant));
    }
    // Tenant-scoped routes: /v1/t/{tenant}/{sub}.
    if let Some(rest) = req.path.strip_prefix("/v1/t/") {
        let Some((tenant_id, sub)) = rest.split_once('/') else {
            return reply(Route::Tenant, Response::error(404, "no such route"));
        };
        if !matches!(sub, "translate" | "translate/batch" | "backends") {
            return reply(Route::Tenant, Response::error(404, "no such route"));
        }
        let table = shared.state.tenants();
        let Some(tenant) = table.get(tenant_id) else {
            return reply(
                Route::Tenant,
                Response::error_code(
                    404,
                    "unknown_tenant",
                    &format!("unknown tenant '{tenant_id}'"),
                ),
            );
        };
        return match (req.method.as_str(), sub) {
            ("POST", "translate/batch") => {
                reply(Route::Tenant, batch_endpoint(shared, req, tenant))
            }
            ("GET", "backends") => reply(
                Route::Tenant,
                backends_endpoint(&shared.state, tenant, true),
            ),
            _ => reply(Route::Tenant, Response::error(405, "method not allowed")),
        };
    }
    // Trace admin routes: a path suffix (the id), so prefix-matched.
    if let Some(rest) = req.path.strip_prefix("/v1/admin/trace/") {
        if req.method != "GET" {
            return reply(Route::Admin, Response::error(405, "method not allowed"));
        }
        let resp = if rest == "recent" {
            admin_trace_recent(&shared.state, req)
        } else {
            admin_trace_get(&shared.state, rest)
        };
        return reply(Route::Admin, resp);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => reply(Route::Healthz, healthz(&shared.state)),
        ("GET", "/v1/admin/status") => reply(Route::Admin, admin_status(shared)),
        ("GET", "/v1/admin/tsdb") => reply(Route::Admin, admin_tsdb(shared, req)),
        ("GET", "/v1/admin/alerts") => reply(Route::Admin, admin_alerts(shared)),
        ("GET", "/v1/admin/profile") => reply(Route::Admin, admin_profile(shared, req)),
        ("GET", "/metrics") => reply(
            Route::Metrics,
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                headers: Vec::new(),
                body: render_metrics(shared).into(),
            },
        ),
        ("GET", "/v1/backends") => reply(
            Route::Backends,
            backends_endpoint(&shared.state, &shared.state.default_tenant, false),
        ),
        ("POST", "/v1/admin/snapshot") => {
            reply(Route::Admin, admin_snapshot_endpoint(&shared.state, req))
        }
        ("GET", "/v1/admin/tenants") => reply(Route::Admin, admin_tenants_list(&shared.state)),
        ("POST", "/v1/admin/tenants/attach") => {
            reply(Route::Admin, admin_tenants_attach(&shared.state, req))
        }
        ("DELETE", "/v1/admin/tenants/detach") => {
            reply(Route::Admin, admin_tenants_detach(&shared.state, req))
        }
        ("POST", "/v1/translate/batch") => reply(
            Route::TranslateBatch,
            batch_endpoint(shared, req, &shared.state.default_tenant),
        ),
        ("POST", "/translate") => reply(Route::Legacy, legacy_endpoint(&shared.state)),
        (
            _,
            "/healthz"
            | "/metrics"
            | "/translate"
            | "/v1/translate"
            | "/v1/translate/batch"
            | "/v1/backends"
            | "/v1/admin/snapshot"
            | "/v1/admin/status"
            | "/v1/admin/tsdb"
            | "/v1/admin/alerts"
            | "/v1/admin/profile"
            | "/v1/admin/tenants"
            | "/v1/admin/tenants/attach"
            | "/v1/admin/tenants/detach",
        ) => reply(Route::Other, Response::error(405, "method not allowed")),
        _ => reply(Route::Other, Response::error(404, "no such route")),
    }
}

/// The route and tenant of a single-translate request: `POST
/// /v1/translate` or `POST /v1/t/{tenant}/translate` for a known tenant.
/// `None` for anything else, which [`respond`] routes on its own.
fn translate_route(shared: &Shared, req: &Request) -> Option<(Route, Arc<TenantRuntime>)> {
    if req.method != "POST" {
        return None;
    }
    if req.path == "/v1/translate" {
        return Some((Route::Translate, Arc::clone(&shared.state.default_tenant)));
    }
    let tenant_id = req
        .path
        .strip_prefix("/v1/t/")?
        .strip_suffix("/translate")?;
    if tenant_id.contains('/') {
        return None;
    }
    let tenant = shared.state.tenants().get(tenant_id).map(Arc::clone)?;
    Some((Route::Tenant, tenant))
}

/// Serialise one sealed trace as the wire span tree (admin endpoints, the
/// inline `X-T2V-Trace: 1` splice, and the final NDJSON trace line).
fn trace_json(f: &FinishedTrace) -> Json {
    let spans: Vec<Json> = f
        .spans
        .iter()
        .map(|s| {
            let mut span = Json::obj([
                ("stage", Json::str(s.stage.name())),
                ("start_ms", Json::Num(s.start_ns as f64 / 1e6)),
                ("dur_ms", Json::Num(s.dur_ns as f64 / 1e6)),
                (
                    "parent",
                    match s.parent {
                        Some(p) => Json::Num(p as f64),
                        None => Json::Null,
                    },
                ),
            ]);
            if !s.notes.is_empty() {
                span.set(
                    "notes",
                    Json::Arr(s.notes.iter().map(|n| Json::str(n.as_str())).collect()),
                );
            }
            span
        })
        .collect();
    let mut body = Json::obj([
        ("id", Json::str(t2v_trace::format_id(f.id))),
        ("wall_ms", Json::Num(f.wall_ms as f64)),
        ("tenant", Json::str(&*f.tenant)),
        ("backend", Json::str(&*f.backend)),
        ("cache", Json::str(&*f.cache)),
        (
            "degraded",
            match &f.degraded {
                Some(d) => Json::str(&**d),
                None => Json::Null,
            },
        ),
        ("status", Json::Num(f.status as f64)),
        ("total_ms", Json::Num(f.total_ns as f64 / 1e6)),
        ("dominant_stage", Json::str(f.dominant_stage().name())),
        ("spans", Json::Arr(spans)),
    ]);
    if f.dropped_spans > 0 {
        body.set("dropped_spans", Json::Num(f.dropped_spans as f64));
    }
    body
}

/// One row of `GET /v1/admin/trace/recent`: the request-level facts without
/// the span tree (fetch the id for the full tree).
fn trace_summary_json(f: &FinishedTrace) -> Json {
    Json::obj([
        ("id", Json::str(t2v_trace::format_id(f.id))),
        ("wall_ms", Json::Num(f.wall_ms as f64)),
        ("tenant", Json::str(&*f.tenant)),
        ("backend", Json::str(&*f.backend)),
        ("cache", Json::str(&*f.cache)),
        ("status", Json::Num(f.status as f64)),
        ("total_ms", Json::Num(f.total_ns as f64 / 1e6)),
        ("dominant_stage", Json::str(f.dominant_stage().name())),
    ])
}

/// `GET /v1/admin/trace/{id}` — one trace from the flight recorder, full
/// span tree.
fn admin_trace_get(state: &ServerState, id_str: &str) -> Response {
    let Some(recorder) = &state.recorder else {
        return Response::error_code(
            404,
            "recorder_disabled",
            "the flight recorder is disabled (trace_buffer=0)",
        );
    };
    let Some(id) = t2v_trace::parse_id(id_str) else {
        return Response::error(400, "malformed trace id (expected 32 hex chars)");
    };
    match recorder.get(id) {
        Some(t) => Response::json(200, trace_json(&t).compact()),
        None => Response::error_code(
            404,
            "unknown_trace",
            "trace not found (never recorded, or already evicted from the flight recorder)",
        ),
    }
}

/// One `key=value` out of a query string (no percent-decoding — trace
/// filters are plain identifiers and integers).
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// `GET /v1/admin/trace/recent?tenant=&min_ms=&limit=` — newest recorded
/// traces, summarised.
fn admin_trace_recent(state: &ServerState, req: &Request) -> Response {
    let Some(recorder) = &state.recorder else {
        return Response::error_code(
            404,
            "recorder_disabled",
            "the flight recorder is disabled (trace_buffer=0)",
        );
    };
    let tenant = query_param(&req.query, "tenant").filter(|t| !t.is_empty());
    let min_ms = match query_param(&req.query, "min_ms") {
        None => 0u64,
        Some(v) => match v.parse() {
            Ok(ms) => ms,
            Err(_) => return Response::error(400, "min_ms must be a non-negative integer"),
        },
    };
    let limit = match query_param(&req.query, "limit") {
        None => 50usize,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n.min(500),
            _ => return Response::error(400, "limit must be a positive integer"),
        },
    };
    let traces = recorder.recent(tenant, min_ms.saturating_mul(1_000_000), limit);
    let body = Json::obj([
        ("count", Json::Num(traces.len() as f64)),
        (
            "traces",
            Json::Arr(traces.iter().map(|t| trace_summary_json(t)).collect()),
        ),
    ]);
    Response::json(200, body.compact())
}

/// `GET /v1/admin/status` — one JSON snapshot of what an operator checks
/// first: pool pressure, per-tenant breaker states, cache effectiveness,
/// attached tenants, recorder fill, and build/format versions.
fn admin_status(shared: &Shared) -> Response {
    let state = &shared.state;
    let table = state.tenants();
    let cache = state.cache.stats();
    let probes = cache.hits + cache.misses;
    let hit_rate = if probes == 0 {
        0.0
    } else {
        cache.hits as f64 / probes as f64
    };
    let tenants: Vec<Json> = table
        .iter()
        .map(|t| {
            let breakers: Vec<Json> = t
                .registry
                .ids()
                .zip(&t.breakers)
                .map(|(id, b)| {
                    Json::obj([
                        ("backend", Json::str(id)),
                        ("state", Json::str(breaker_state_label(b.state()))),
                        ("opens", Json::Num(b.opens() as f64)),
                        (
                            "mean_latency_ms",
                            Json::Num(b.mean_latency_ns() as f64 / 1e6),
                        ),
                    ])
                })
                .collect();
            Json::obj([
                ("id", Json::str(t.id.as_str())),
                ("corpus", Json::str(t.corpus_label.as_str())),
                ("epoch", Json::Num(t.epoch as f64)),
                ("index", Json::str(t.index_kind().label())),
                ("rows", Json::Num(t.gred.library().len() as f64)),
                (
                    "nprobe",
                    match t.effective_nprobe() {
                        Some(n) => Json::Num(n as f64),
                        None => Json::Null,
                    },
                ),
                ("breakers", Json::Arr(breakers)),
            ])
        })
        .collect();
    let body = Json::obj([
        (
            "build",
            Json::obj([
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                (
                    "snapshot_format",
                    Json::Num(t2v_store::FORMAT_VERSION_ANN as f64),
                ),
            ]),
        ),
        (
            "pool",
            Json::obj([
                (
                    "workers",
                    Json::Num(state.config.effective_workers() as f64),
                ),
                ("shards", Json::Num(state.config.effective_shards() as f64)),
                ("queue_depth", Json::Num(shared.pool.queue_depth() as f64)),
                (
                    "queue_capacity",
                    Json::Num(state.config.queue_capacity as f64),
                ),
            ]),
        ),
        (
            "connections",
            Json::obj([
                ("net", Json::str(state.config.net.label())),
                (
                    "open",
                    Json::Num(state.metrics.connections_active.load(Ordering::Relaxed) as f64),
                ),
                ("max", Json::Num(state.config.max_connections as f64)),
                (
                    "reaped",
                    Json::Num(state.metrics.conn_reaped.load(Ordering::Relaxed) as f64),
                ),
                (
                    "accept_errors",
                    Json::Num(state.metrics.accept_errors.load(Ordering::Relaxed) as f64),
                ),
                (
                    "dispatch_queue_depth",
                    Json::Num(shared.dispatch_depth.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ),
        (
            "event",
            Json::obj([
                (
                    "reading",
                    Json::Num(shared.event_stats.reading.load(Ordering::Relaxed) as f64),
                ),
                (
                    "dispatched",
                    Json::Num(shared.event_stats.dispatched.load(Ordering::Relaxed) as f64),
                ),
                (
                    "writing",
                    Json::Num(shared.event_stats.writing.load(Ordering::Relaxed) as f64),
                ),
                (
                    "keep_alive",
                    Json::Num(shared.event_stats.keep_alive.load(Ordering::Relaxed) as f64),
                ),
                (
                    "pool_buffers",
                    Json::Num(shared.event_stats.pool_buffers.load(Ordering::Relaxed) as f64),
                ),
                (
                    "draining",
                    Json::Bool(shared.event_stats.draining.load(Ordering::Relaxed) != 0),
                ),
                (
                    "loop_answered",
                    Json::Num(state.metrics.loop_answered.load(Ordering::Relaxed) as f64),
                ),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("entries", Json::Num(cache.len as f64)),
                ("hits", Json::Num(cache.hits as f64)),
                ("misses", Json::Num(cache.misses as f64)),
                ("hit_rate", Json::Num(hit_rate)),
                ("expired", Json::Num(cache.expired as f64)),
                ("evicted", Json::Num(cache.evicted as f64)),
                ("shards", Json::Num(state.cache.shard_count() as f64)),
            ]),
        ),
        (
            "trace",
            match &state.recorder {
                Some(r) => Json::obj([
                    ("recorded", Json::Num(r.len() as f64)),
                    ("capacity", Json::Num(r.capacity() as f64)),
                    ("sample", Json::Num(state.config.trace_sample)),
                    (
                        "force_slow_ms",
                        Json::Num(state.config.trace_force_slow_ms as f64),
                    ),
                ]),
                None => Json::Null,
            },
        ),
        ("tenants", Json::Arr(tenants)),
    ]);
    Response::json(200, body.compact())
}

/// `/metrics` — the Prometheus registry, plus the SLO gauges the burn-rate
/// engine maintains (when `slo=` objectives are configured and the sampler
/// is running).
fn render_metrics(shared: &Shared) -> String {
    let mut out = shared.state.metrics.render_prometheus();
    let Some(slo) = shared.obs.as_ref().and_then(|o| o.slo()) else {
        return out;
    };
    let statuses = slo.last();
    if statuses.is_empty() {
        return out;
    }
    out.push_str("# HELP t2v_slo_burn_rate Error-budget burn rate per SLO and window (1 = spending exactly the budget).\n");
    out.push_str("# TYPE t2v_slo_burn_rate gauge\n");
    for s in &statuses {
        let name = crate::metrics::escape_label(&s.name);
        out.push_str(&format!(
            "t2v_slo_burn_rate{{slo=\"{name}\",window=\"fast\"}} {}\n",
            s.fast_burn
        ));
        out.push_str(&format!(
            "t2v_slo_burn_rate{{slo=\"{name}\",window=\"slow\"}} {}\n",
            s.slow_burn
        ));
    }
    out.push_str("# HELP t2v_slo_error_budget_remaining Fraction of the error budget left over the slow window (negative = overspent).\n");
    out.push_str("# TYPE t2v_slo_error_budget_remaining gauge\n");
    for s in &statuses {
        let name = crate::metrics::escape_label(&s.name);
        out.push_str(&format!(
            "t2v_slo_error_budget_remaining{{slo=\"{name}\"}} {}\n",
            s.budget_remaining
        ));
    }
    out
}

/// The ops plane, if the sampler half of it is running.
fn obs_sampling(shared: &Shared) -> Option<&Arc<t2v_obs::ObsEngine>> {
    shared.obs.as_ref().filter(|o| o.sample_ms() > 0)
}

/// `GET /v1/admin/tsdb?series=&window=&step=` — the in-process ring-buffer
/// TSDB. Without `series=`, lists what is retained; with it, returns the
/// windowed points plus the delta and per-second rate over the window.
fn admin_tsdb(shared: &Shared, req: &Request) -> Response {
    let Some(obs) = obs_sampling(shared) else {
        return Response::error_code(
            404,
            "obs_disabled",
            "the metrics sampler is disabled (obs_sample_ms=0)",
        );
    };
    let tsdb = obs.tsdb();
    let Some(series) = query_param(&req.query, "series").filter(|s| !s.is_empty()) else {
        let names = tsdb.series_names();
        let body = Json::obj([
            ("sample_ms", Json::Num(obs.sample_ms() as f64)),
            ("count", Json::Num(names.len() as f64)),
            (
                "series",
                Json::Arr(names.iter().map(|n| Json::str(n.as_str())).collect()),
            ),
        ]);
        return Response::json(200, body.compact());
    };
    let window_s = match query_param(&req.query, "window") {
        None => 300u64,
        Some(v) => match v.parse() {
            Ok(s) if s >= 1 => s,
            _ => return Response::error(400, "window must be a positive integer (seconds)"),
        },
    };
    let step_s = match query_param(&req.query, "step") {
        None => 0u64, // 0 = native sample cadence
        Some(v) => match v.parse() {
            Ok(s) => s,
            Err(_) => return Response::error(400, "step must be a non-negative integer (seconds)"),
        },
    };
    let now_ms = t2v_obs::unix_ms();
    let window_ms = window_s.saturating_mul(1000);
    let step_ms = step_s.saturating_mul(1000).max(obs.sample_ms());
    let points = tsdb.points(series, window_ms, step_ms, now_ms);
    if points.is_empty() {
        return Response::error_code(
            404,
            "unknown_series",
            "series not found (never collected, or outside retention)",
        );
    }
    let delta = tsdb.delta(series, window_ms, now_ms);
    let rate = tsdb.rate(series, window_ms, now_ms);
    let body = Json::obj([
        ("series", Json::str(series)),
        ("window_s", Json::Num(window_s as f64)),
        ("step_ms", Json::Num(step_ms as f64)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|&(t, v)| Json::Arr(vec![Json::Num(t as f64), Json::Num(v as f64)]))
                    .collect(),
            ),
        ),
        (
            "delta",
            match delta {
                Some(d) => Json::Num(d as f64),
                None => Json::Null,
            },
        ),
        (
            "rate",
            match rate {
                Some(r) => Json::Num(r),
                None => Json::Null,
            },
        ),
    ]);
    Response::json(200, body.compact())
}

/// `GET /v1/admin/alerts` — every configured SLO with its multi-window
/// burn state: the first page an operator checks (DESIGN.md §15).
fn admin_alerts(shared: &Shared) -> Response {
    let Some(slo) = obs_sampling(shared).and_then(|o| o.slo()) else {
        return Response::error_code(
            404,
            "slo_disabled",
            "no SLOs configured (set slo= and obs_sample_ms>0)",
        );
    };
    let statuses = slo.last();
    let firing = statuses.iter().filter(|s| s.firing).count();
    let w = slo.windows();
    let body = Json::obj([
        ("firing", Json::Num(firing as f64)),
        (
            "windows",
            Json::obj([
                ("fast_s", Json::Num(w.fast_ms as f64 / 1000.0)),
                ("slow_s", Json::Num(w.slow_ms as f64 / 1000.0)),
                ("threshold", Json::Num(w.threshold)),
            ]),
        ),
        (
            "slos",
            Json::Arr(
                statuses
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(&s.name)),
                            ("target", Json::Num(s.target)),
                            ("firing", Json::Bool(s.firing)),
                            ("fast_burn", Json::Num(s.fast_burn)),
                            ("slow_burn", Json::Num(s.slow_burn)),
                            ("budget_remaining", Json::Num(s.budget_remaining)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, body.compact())
}

/// `GET /v1/admin/profile?seconds=N` — the last N seconds of stage
/// occupancy as flamegraph-compatible folded stacks (`stack count` lines).
fn admin_profile(shared: &Shared, req: &Request) -> Response {
    let Some(obs) = shared.obs.as_ref().filter(|o| o.profile_hz() > 0) else {
        return Response::error_code(
            404,
            "profiler_disabled",
            "the stage profiler is disabled (obs_profile_hz=0)",
        );
    };
    let seconds = match query_param(&req.query, "seconds") {
        None => 60u64,
        Some(v) => match v.parse() {
            Ok(s) if s >= 1 => s,
            _ => return Response::error(400, "seconds must be a positive integer"),
        },
    };
    Response {
        status: 200,
        content_type: "text/plain; charset=utf-8",
        headers: Vec::new(),
        body: obs.profile().render(seconds, t2v_obs::unix_ms()).into(),
    }
}

fn breaker_state_label(state: crate::breaker::BreakerState) -> &'static str {
    match state {
        crate::breaker::BreakerState::Closed => "closed",
        crate::breaker::BreakerState::Open => "open",
        crate::breaker::BreakerState::HalfOpen => "half_open",
    }
}

fn healthz(state: &ServerState) -> Response {
    let body = Json::obj([
        ("status", Json::str("ok")),
        ("databases", Json::Num(state.dbs.len() as f64)),
        ("library", Json::Num(state.gred.library().len() as f64)),
        ("backends", Json::Num(state.registry.len() as f64)),
        ("tenants", Json::Num(state.tenants().len() as f64)),
    ]);
    Response::json(200, body.compact())
}

/// `GET /v1/backends` (and `GET /v1/t/{tenant}/backends`): capability
/// metadata for every backend the tenant registers. The tenant-scoped
/// variant additionally names its tenant; the default route's body is
/// byte-identical to the pre-tenant surface.
fn backends_endpoint(_state: &ServerState, tenant: &TenantRuntime, named: bool) -> Response {
    let backends: Vec<Json> = tenant
        .registry
        .infos()
        .into_iter()
        .map(|(id, info)| {
            Json::obj([
                ("id", Json::str(id)),
                ("name", Json::str(info.name)),
                ("kind", Json::str(info.kind.label())),
                (
                    "stages",
                    Json::Arr(info.stages.iter().map(|s| Json::str(*s)).collect()),
                ),
                ("deterministic", Json::Bool(info.deterministic)),
                ("description", Json::str(info.description)),
            ])
        })
        .collect();
    let mut body = Json::obj([
        (
            "default",
            Json::str(tenant.registry.default_id().unwrap_or("")),
        ),
        ("backends", Json::Arr(backends)),
        (
            "library",
            Json::obj([
                (
                    "fingerprint",
                    Json::str(format!("{:#018x}", tenant.library_fingerprint)),
                ),
                ("source", Json::str(tenant.library_provenance.label())),
                ("entries", Json::Num(tenant.gred.library().len() as f64)),
            ]),
        ),
    ]);
    if named {
        body.set("tenant", Json::str(tenant.id.as_str()));
        body.set("corpus", Json::str(tenant.corpus_label.as_str()));
    }
    Response::json(200, body.compact())
}

/// One tenant's row in `GET /v1/admin/tenants` / the attach reply.
fn tenant_json(tenant: &TenantRuntime) -> Json {
    Json::obj([
        ("id", Json::str(tenant.id.as_str())),
        ("corpus", Json::str(tenant.corpus_label.as_str())),
        (
            "fingerprint",
            Json::str(format!("{:#018x}", tenant.library_fingerprint)),
        ),
        ("source", Json::str(tenant.library_provenance.label())),
        ("entries", Json::Num(tenant.gred.library().len() as f64)),
        (
            "backends",
            Json::Arr(tenant.registry.ids().map(Json::str).collect()),
        ),
        ("databases", Json::Num(tenant.dbs.len() as f64)),
        ("epoch", Json::Num(tenant.epoch as f64)),
        ("default", Json::Bool(tenant.is_default)),
    ])
}

fn tenant_admin_error(e: &TenantAdminError) -> Response {
    Response::error_code(e.status(), e.code(), &e.to_string())
}

/// `GET /v1/admin/tenants` — the live tenant table, in attach order.
fn admin_tenants_list(state: &ServerState) -> Response {
    let table = state.tenants();
    let body = Json::obj([(
        "tenants",
        Json::Arr(table.iter().map(|t| tenant_json(t)).collect()),
    )]);
    Response::json(200, body.compact())
}

/// `POST /v1/admin/tenants/attach` — load a tenant into the live server.
/// Body: `{"id", "corpus", "snapshot"?, "backends"?}`. Builds the tenant's
/// corpus + library + registry on this connection thread (attach is a rare
/// admin action; blocking the admin's own connection is the honest cost),
/// then RCU-swaps the table — translations in flight never stall.
fn admin_tenants_attach(state: &ServerState, req: &Request) -> Response {
    let Ok(body_text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let parsed = match Json::parse(body_text) {
        Ok(j) => j,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let Some(id) = parsed.get("id").and_then(Json::as_str) else {
        return Response::error(400, "missing string field 'id'");
    };
    let Some(corpus_spec) = parsed.get("corpus").and_then(Json::as_str) else {
        return Response::error(400, "missing string field 'corpus' (e.g. \"tiny:8\")");
    };
    let corpus = match t2v_tenant::parse_corpus_spec(corpus_spec) {
        Ok(c) => c,
        Err(e) => return Response::error(400, &e.message),
    };
    let snapshot = match parsed.get("snapshot") {
        None | Some(Json::Null) => None,
        Some(Json::Str(p)) => Some(PathBuf::from(p.as_str())),
        Some(_) => return Response::error(400, "field 'snapshot' must be a string path"),
    };
    let backends = match parsed.get("backends") {
        None | Some(Json::Null) => None,
        Some(Json::Str(b)) => Some(b.clone()),
        Some(_) => return Response::error(400, "field 'backends' must be a string list"),
    };
    let attach = AttachRequest {
        id: id.to_string(),
        corpus,
        snapshot,
        backends,
    };
    match state.attach_tenant(&attach) {
        Ok(runtime) => Response::json(
            200,
            Json::obj([("attached", tenant_json(&runtime))]).compact(),
        ),
        Err(e) => tenant_admin_error(&e),
    }
}

/// `DELETE /v1/admin/tenants/detach` — body `{"id"}`. The tenant vanishes
/// from the table atomically; in-flight translations on it complete.
fn admin_tenants_detach(state: &ServerState, req: &Request) -> Response {
    let Ok(body_text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not UTF-8");
    };
    let parsed = match Json::parse(body_text) {
        Ok(j) => j,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let Some(id) = parsed.get("id").and_then(Json::as_str) else {
        return Response::error(400, "missing string field 'id'");
    };
    match state.detach_tenant(id) {
        Ok(()) => Response::json(200, Json::obj([("detached", Json::str(id))]).compact()),
        Err(e) => tenant_admin_error(&e),
    }
}

/// `POST /v1/admin/snapshot` — persist the live embedding library to disk.
/// Body: `{"path": "..."}` (optional; defaults to the `snapshot_save`
/// knob). The written artifact is exactly what `library_snapshot=` loads on
/// the next start.
fn admin_snapshot_endpoint(state: &ServerState, req: &Request) -> Response {
    let mut path = state.config.snapshot_save.clone();
    if !req.body.is_empty() {
        let Ok(body_text) = std::str::from_utf8(&req.body) else {
            return Response::error(400, "body is not UTF-8");
        };
        let parsed = match Json::parse(body_text) {
            Ok(j) => j,
            Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
        };
        match parsed.get("path") {
            None => {}
            Some(Json::Str(p)) => path = p.clone(),
            Some(_) => return Response::error(400, "field 'path' must be a string"),
        }
    }
    if path.is_empty() {
        return Response::error_code(
            400,
            "no_path",
            "no snapshot path: pass {\"path\": ...} or set snapshot_save=",
        );
    }
    match t2v_store::save(&path, state.gred.library(), state.gred.embedder()) {
        Ok(manifest) => {
            state
                .metrics
                .snapshots_written
                .fetch_add(1, Ordering::Relaxed);
            let body = Json::obj([
                ("path", Json::str(path)),
                ("bytes", Json::Num(manifest.file_len as f64)),
                ("entries", Json::Num(manifest.entries as f64)),
                (
                    "fingerprint",
                    Json::str(format!("{:#018x}", manifest.corpus_fingerprint)),
                ),
            ]);
            Response::json(200, body.compact())
        }
        Err(e) => Response::error_code(500, e.code(), &format!("snapshot not written: {e}")),
    }
}

/// The deprecated unversioned route: never translates any more.
fn legacy_endpoint(state: &ServerState) -> Response {
    let message =
        "POST /translate is deprecated; use POST /v1/translate (with optional \"backend\")";
    match state.config.legacy_translate {
        LegacyRoute::Redirect => Response::error_code(308, "deprecated", message)
            .with_header("Location", "/v1/translate"),
        LegacyRoute::Gone => Response::error_code(410, "deprecated", message)
            .with_header("Location", "/v1/translate"),
    }
}

/// One parsed-and-resolved translate item (shared by the single and batch
/// endpoints). Holds its tenant runtime: a detach mid-request cannot pull
/// the registry, databases, or metrics out from under the translation.
struct Item {
    tenant: Arc<TenantRuntime>,
    backend_idx: usize,
    backend_id: String,
    backend: Arc<dyn Translator>,
    entry: Arc<DbEntry>,
    nlq_normalized: String,
    want_vegalite: bool,
}

/// Parse one translate object (`{"nlq", "db", "backend"?, "vegalite"?}`)
/// against the tenant's registry and database set.
fn resolve_item(tenant: &Arc<TenantRuntime>, parsed: &Json) -> Result<Item, Response> {
    let Some(nlq) = parsed.get("nlq").and_then(Json::as_str) else {
        return Err(Response::error(400, "missing string field 'nlq'"));
    };
    let Some(db_id) = parsed.get("db").and_then(Json::as_str) else {
        return Err(Response::error(400, "missing string field 'db'"));
    };
    let backend_req = match parsed.get("backend") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s) => Some(s),
            None => return Err(Response::error(400, "field 'backend' must be a string")),
        },
    };
    let want_vegalite = match parsed.get("vegalite") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return Err(Response::error(400, "field 'vegalite' must be a boolean")),
        },
    };
    let (backend_idx, backend_id, backend) = match tenant.registry.resolve(backend_req) {
        Ok((i, id, b)) => (i, id.to_string(), Arc::clone(b)),
        Err(unknown) => {
            return Err(Response::error_code(
                404,
                "unknown_backend",
                &format!(
                    "unknown backend '{unknown}' (registered: {})",
                    tenant.registry.ids().collect::<Vec<_>>().join(", ")
                ),
            ))
        }
    };
    let nlq_normalized = normalize_nlq(nlq);
    if nlq_normalized.is_empty() {
        return Err(Response::error_code(400, "empty_query", "'nlq' is empty"));
    }
    let Some(entry) = tenant.dbs.get(db_id) else {
        return Err(Response::error_code(
            404,
            "unknown_database",
            &format!("unknown database '{db_id}'"),
        ));
    };
    Ok(Item {
        tenant: Arc::clone(tenant),
        backend_idx,
        backend_id,
        backend,
        entry: Arc::clone(entry),
        nlq_normalized,
        want_vegalite,
    })
}

impl Item {
    fn cache_key(&self) -> CacheKey {
        (
            self.tenant.epoch,
            self.backend_idx as u16,
            self.nlq_normalized.clone().into_boxed_str(),
            self.entry.fingerprint,
            self.want_vegalite,
        )
    }

    /// Record a cache hit/miss into the tenant family and — default tenant
    /// only, where the index maps onto the startup-registered set — the
    /// unlabelled per-backend family.
    fn record_cache(&self, state: &ServerState, hit: bool) {
        let (global, tenant) = if hit {
            (&state.metrics.cache_hits, &self.tenant.metrics.cache_hits)
        } else {
            (
                &state.metrics.cache_misses,
                &self.tenant.metrics.cache_misses,
            )
        };
        global.fetch_add(1, Ordering::Relaxed);
        tenant.fetch_add(1, Ordering::Relaxed);
        if self.tenant.is_default {
            let bm = state.metrics.backend(self.backend_idx);
            if hit {
                bm.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                bm.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Rides inside every pool job: if the job never answers — a worker panic
/// (injected or real) unwinds the closure — dropping the guard fulfils the
/// caller's slot with a structured 500 and records the failure on the
/// backend's breaker, so the connection thread fails fast instead of
/// waiting out its deadline on a reply that will never come.
struct ReplyGuard {
    slot: OneShot<Reply>,
    breaker: Arc<CircuitBreaker>,
    metrics: Arc<Metrics>,
    answered: bool,
}

impl ReplyGuard {
    fn answer(mut self, reply: Reply) {
        self.answered = true;
        self.slot.send(reply);
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.answered {
            return;
        }
        if self.breaker.record(false, 0) {
            self.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
        self.slot
            .send(error_reply(500, "translation worker failed"));
    }
}

/// A structured-error [`Reply`] (the body reuses the HTTP error envelope).
fn error_reply(status: u16, message: &str) -> Reply {
    Reply {
        status,
        body: Arc::new(Response::error(status, message).body.as_slice().to_vec()),
    }
}

/// The effective deadline for one request: the `deadline_ms` knob, lowered
/// — never raised — by an `X-T2V-Deadline-Ms` header. `None` when both are
/// unset (deadlines disabled).
fn request_deadline(config: &ServeConfig, req: &Request, started: Instant) -> Option<Instant> {
    let mut ms = config.deadline_ms;
    if let Some(h) = req.header("x-t2v-deadline-ms") {
        if let Ok(v) = h.trim().parse::<u64>() {
            if v > 0 {
                ms = if ms == 0 { v } else { ms.min(v) };
            }
        }
    }
    (ms > 0).then(|| started + Duration::from_millis(ms))
}

/// Splice `"degraded": "<reason>"` into a serialised response object, so a
/// stale or fallback body is always self-describing. The reason is an
/// internal constant (never client data), so no escaping is needed.
fn mark_degraded(body: &[u8], reason: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + reason.len() + 16);
    match body.last() {
        Some(b'}') => {
            out.extend_from_slice(&body[..body.len() - 1]);
            out.extend_from_slice(b",\"degraded\":\"");
            out.extend_from_slice(reason.as_bytes());
            out.extend_from_slice(b"\"}");
        }
        // Not an object (can't happen for our own bodies): serve untouched
        // rather than corrupt it.
        _ => out.extend_from_slice(body),
    }
    out
}

/// First rung of the degradation ladder: the item's cache entry *ignoring
/// TTL*, marked `degraded: stale_cache`. `None` when disabled
/// (`degrade_stale=false`) or nothing was ever cached for the key.
fn stale_degraded_body(shared: &Shared, key: &CacheKey) -> Option<Vec<u8>> {
    if !shared.state.config.degrade_stale {
        return None;
    }
    let stale = shared.state.cache.get_stale(key)?;
    shared
        .state
        .metrics
        .degraded
        .fetch_add(1, Ordering::Relaxed);
    t2v_trace::note("degrade:stale_cache");
    Some(mark_degraded(&stale, "stale_cache"))
}

/// Submit one item's cold translation to the pool. The returned slot
/// resolves to a [`Reply`]; the worker also caches successful bodies and
/// records per-backend, per-tenant, and breaker outcomes. A `deadline`
/// already spent when a worker picks the job up short-circuits to 504
/// without running the backend.
fn submit_translation(
    shared: &Shared,
    item: &Item,
    key: CacheKey,
    stage_tx: Option<mpsc::Sender<String>>,
    deadline: Option<Instant>,
) -> Result<OneShot<Reply>, SubmitError> {
    let slot: OneShot<Reply> = OneShot::new();
    let job_slot = slot.clone();
    let state = Arc::clone(&shared.state);
    let tenant = Arc::clone(&item.tenant);
    let backend = Arc::clone(&item.backend);
    let breaker = Arc::clone(&item.tenant.breakers[item.backend_idx]);
    let backend_idx = item.backend_idx;
    let backend_id = item.backend_id.clone();
    let entry = Arc::clone(&item.entry);
    let want_vegalite = item.want_vegalite;
    let enqueued = Instant::now();
    // The connection thread's trace rides into the job: the worker installs
    // it as *its* current trace, so the backend span (and the embed/retrieve
    // spans the leaf crates open) land in the same tree.
    let trace = t2v_trace::current();
    let job = move || {
        let _trace_scope = trace.as_ref().map(Trace::scope);
        let guard = ReplyGuard {
            slot: job_slot,
            breaker: Arc::clone(&breaker),
            metrics: Arc::clone(&state.metrics),
            answered: false,
        };
        let queue_wait = enqueued.elapsed();
        if let Some(t) = &trace {
            t.add_span(Stage::QueueWait, enqueued, queue_wait);
        }
        state
            .metrics
            .queue_wait
            .observe_ns(queue_wait.as_nanos() as u64);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // The budget died in the queue: don't burn a worker on a body
            // nobody is waiting for.
            state
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            guard.answer(error_reply(
                504,
                "deadline exceeded before translation started",
            ));
            return;
        }
        if state.config.debug_translate_sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(state.config.debug_translate_sleep_ms));
        }
        let t0 = Instant::now();
        let result = {
            // The backend span covers fault firing + the translate call, so
            // the embed/retrieve child spans (and any fault note) nest here.
            let _span = t2v_trace::span(Stage::Backend);
            // Chaos seams: an armed `backend.panic` unwinds here (the guard
            // and the pool's catch_unwind turn it into a structured 500 +
            // metrics); an armed `backend.error` swaps the translation for
            // an internal error without touching the backend.
            if t2v_fault::fire_for(t2v_fault::FaultPoint::BackendPanic, &backend_id).is_some() {
                panic!("injected fault: backend '{backend_id}' panic");
            }
            let injected =
                t2v_fault::fire_for(t2v_fault::FaultPoint::BackendError, &backend_id).is_some();
            let req = TranslateRequest::new(&key.2, &entry.db);
            if injected {
                Err(TranslateError::Internal {
                    message: format!("injected fault: backend '{backend_id}' error"),
                })
            } else {
                match &stage_tx {
                    // Streaming: forward each stage line as the pipeline
                    // produces it (timings included — stream lines are never
                    // cached).
                    Some(tx) => backend.translate_streamed(&req, &mut |s: &StageRecord| {
                        let line = Json::obj([(
                            "stage",
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("dvq", opt_str(&s.dvq)),
                                ("micros", Json::Num(s.micros as f64)),
                            ]),
                        )])
                        .compact();
                        let _ = tx.send(line);
                    }),
                    None => backend.translate(&req),
                }
            }
        };
        let elapsed = t0.elapsed().as_nanos() as u64;
        state.metrics.translate.observe_ns(elapsed);
        tenant.metrics.translations.fetch_add(1, Ordering::Relaxed);
        tenant.metrics.translate.observe_ns(elapsed);
        if result.is_err() {
            tenant.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        if tenant.is_default {
            // The unlabelled per-backend family indexes the startup
            // registry; only the default tenant's indices map onto it.
            let bm = state.metrics.backend(backend_idx);
            bm.translations.fetch_add(1, Ordering::Relaxed);
            bm.translate.observe_ns(elapsed);
            if result.is_err() {
                bm.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Breaker accounting: `internal` failures (bugs, injected faults)
        // say the *backend* is unhealthy. Input-level outcomes — including
        // structured no_output/invalid_output — are properties of the
        // query, not the backend, and must never trip it.
        let internal_failure = matches!(result, Err(TranslateError::Internal { .. }));
        if breaker.record(!internal_failure, elapsed) {
            state.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
        let status = if internal_failure { 500 } else { 200 };
        let body = Arc::new(render_translation(
            &backend_id,
            &key.2,
            &entry,
            want_vegalite,
            &result,
        ));
        if status == 200 {
            // Transient internal failures are never cached — a retry (or
            // the storm simply passing) must be able to succeed.
            state.cache.insert(key, Arc::clone(&body));
        }
        guard.answer(Reply { status, body });
    };
    // The weighted class budgets are keyed by the default tenant's
    // registry order, but admission is by backend *id*: tenant traffic
    // through a backend the default tenant also registers shares that
    // backend's budget (so `backend_weights=` keeps protecting heavy
    // backends no matter which tenant the traffic arrives under). Only a
    // backend the startup registry never saw is admitted unclassed, with
    // the queue-capacity backstop.
    let class = if item.tenant.is_default {
        Some(item.backend_idx)
    } else {
        shared.state.registry.index_of(&item.backend_id)
    };
    match class {
        Some(class) => shared.pool.submit_classed(class, job)?,
        None => shared.pool.submit(job)?,
    }
    Ok(slot)
}

/// `POST /v1/translate` (and `/v1/t/{tenant}/translate`) — single
/// translation against `tenant`, optionally streamed: the front half, then
/// the back half when the front half could not answer.
fn translate_endpoint<W: BodySink + ?Sized>(
    shared: &Shared,
    req: &Request,
    writer: &mut W,
    tenant: &Arc<TenantRuntime>,
) -> Handled {
    match translate_front(shared, req, tenant) {
        Front::Done(resp) => Handled::Reply(resp),
        Front::Pending(pending) => translate_back(shared, pending, writer),
    }
}

/// How far the translate front half got.
enum Front {
    /// Answered without the pool: a fresh cache hit or a validation 4xx.
    Done(Response),
    /// A miss, a stale entry, or a stream: the back half takes it from here.
    Pending(Pending),
}

/// A validated translate request the cache could not answer.
pub(crate) struct Pending {
    item: Item,
    key: CacheKey,
    deadline: Option<Instant>,
    started: Instant,
    stream: bool,
}

/// The translate front half, which never waits: parse and validate the
/// body, resolve the item, fix the deadline, and answer from the cache
/// when it holds a fresh body. Counts the cache hit or miss. The event
/// loop runs this on its own thread (see [`answer_on_loop`]).
fn translate_front(shared: &Shared, req: &Request, tenant: &Arc<TenantRuntime>) -> Front {
    let started = Instant::now();
    let state = &shared.state;
    let fail = |status: u16, message: &str| Front::Done(Response::error(status, message));

    let body_text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return fail(400, "body is not UTF-8"),
    };
    let parsed = match Json::parse(body_text) {
        Ok(j) => j,
        Err(e) => return fail(400, &format!("invalid JSON: {e}")),
    };
    let stream = match parsed.get("stream") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return fail(400, "field 'stream' must be a boolean"),
        },
    };
    let item = match resolve_item(tenant, &parsed) {
        Ok(item) => item,
        Err(resp) => return Front::Done(resp),
    };
    let deadline = request_deadline(&state.config, req, started);
    let key = item.cache_key();

    // A stream bypasses the cache read: a cached body has no stages left
    // to stream. Otherwise `lookup` (not `get`), so an expired entry
    // survives in place: if the breaker rejects the recompute in the back
    // half, `stale_degraded_body` serves it.
    if !stream {
        let lookup = {
            let _span = t2v_trace::span(Stage::CacheLookup);
            state.cache.lookup(&key)
        };
        if let crate::cache::Lookup::Fresh(hit) = lookup {
            item.record_cache(state, true);
            state
                .metrics
                .request_total_latency
                .observe_ns(started.elapsed().as_nanos() as u64);
            // The Arc goes straight into the response — no body copy on a hit.
            return Front::Done(
                Response::json(200, hit)
                    .with_header("x-t2v-cache", "hit")
                    .with_header("x-t2v-backend", item.backend_id.clone()),
            );
        }
    }
    item.record_cache(state, false);
    Front::Pending(Pending {
        item,
        key,
        deadline,
        started,
        stream,
    })
}

/// The translate back half: breaker admission, the pool round trip and its
/// wait, stale or fallback degradation, or the NDJSON stream. Blocks, so it
/// runs on a connection or dispatch thread, never on the event loop.
fn translate_back<W: BodySink + ?Sized>(
    shared: &Shared,
    pending: Pending,
    writer: &mut W,
) -> Handled {
    let Pending {
        item,
        key,
        deadline,
        started,
        stream,
    } = pending;
    if stream {
        return stream_endpoint(shared, item, key, writer, deadline);
    }
    let state = &shared.state;
    let reply = Handled::Reply;

    // ---- breaker admission, then the CPU stage through the bounded pool ----
    let admission = {
        let _span = t2v_trace::span(Stage::Breaker);
        item.tenant.breakers[item.backend_idx].admit()
    };
    if let Admission::Reject { retry_after_ms } = admission {
        return reply(breaker_rejection(
            shared,
            &item,
            &key,
            retry_after_ms,
            deadline,
        ));
    }
    let slot = match submit_translation(shared, &item, key.clone(), None, deadline) {
        Ok(slot) => slot,
        Err(SubmitError::Overloaded) | Err(SubmitError::ShuttingDown) => {
            if admission == Admission::Probe {
                item.tenant.breakers[item.backend_idx].probe_aborted();
            }
            state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return reply(
                Response::error(503, "server overloaded").with_header("Retry-After", "1"),
            );
        }
    };
    let wait = deadline
        .map(|d| d.saturating_duration_since(Instant::now()))
        .unwrap_or(Duration::from_secs(60));
    let Some(r) = slot.recv_timeout(wait) else {
        // The budget ran out waiting on the worker. Degrade to a marked
        // stale body when we have one; the orphaned job's reply goes to
        // nobody (and an injected-fault body was never cached anyway).
        if deadline.is_some() {
            state
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            if let Some(body) = stale_degraded_body(shared, &key) {
                return reply(
                    Response::json(200, body)
                        .with_header("x-t2v-cache", "stale")
                        .with_header("x-t2v-degraded", "stale_cache")
                        .with_header("x-t2v-backend", item.backend_id),
                );
            }
            return reply(Response::error(
                504,
                "deadline exceeded before the translation finished",
            ));
        }
        return reply(Response::error(500, "translation timed out"));
    };
    state
        .metrics
        .request_total_latency
        .observe_ns(started.elapsed().as_nanos() as u64);
    reply(
        Response::json(r.status, r.body)
            .with_header("x-t2v-cache", "miss")
            .with_header("x-t2v-backend", item.backend_id),
    )
}

/// The response for a request whose backend breaker is open: walk the
/// degradation ladder — a stale-but-marked cache hit, then a fallback
/// through the tenant's cheap `gred` backend — before admitting defeat
/// with a structured 503 `backend_unavailable` + `Retry-After`.
fn breaker_rejection(
    shared: &Shared,
    item: &Item,
    key: &CacheKey,
    retry_after_ms: u64,
    deadline: Option<Instant>,
) -> Response {
    let state = &shared.state;
    state
        .metrics
        .breaker_rejections
        .fetch_add(1, Ordering::Relaxed);
    // The whole ladder is one degradation decision in the trace; notes say
    // which rung answered.
    let _span = t2v_trace::span(Stage::Degrade);
    t2v_trace::note(format!("breaker:open:{}", item.backend_id));
    if let Some(body) = stale_degraded_body(shared, key) {
        return Response::json(200, body)
            .with_header("x-t2v-cache", "stale")
            .with_header("x-t2v-degraded", "stale_cache")
            .with_header("x-t2v-backend", item.backend_id.clone());
    }
    if let Some(resp) = gred_fallback(shared, item, deadline) {
        return resp;
    }
    let secs = retry_after_ms.div_ceil(1000).max(1);
    Response::error_code(
        503,
        "backend_unavailable",
        &format!(
            "backend '{}' is unavailable (circuit open); retry or degrade",
            item.backend_id
        ),
    )
    .with_header("Retry-After", secs.to_string())
}

/// Second rung of the degradation ladder: re-run the request through the
/// tenant's `gred` backend (retrieval is cheap and has no trained weights
/// to be wedged) when the refused backend isn't gred itself and gred's own
/// breaker admits. The body is marked `degraded: fallback:gred`.
fn gred_fallback(shared: &Shared, item: &Item, deadline: Option<Instant>) -> Option<Response> {
    if item.backend_id == "gred" {
        return None;
    }
    let (idx, id, backend) = item.tenant.registry.resolve(Some("gred")).ok()?;
    let fb = Item {
        tenant: Arc::clone(&item.tenant),
        backend_idx: idx,
        backend_id: id.to_string(),
        backend: Arc::clone(backend),
        entry: Arc::clone(&item.entry),
        nlq_normalized: item.nlq_normalized.clone(),
        want_vegalite: item.want_vegalite,
    };
    let key = fb.cache_key();
    let degraded_ok = |body: Vec<u8>| {
        shared
            .state
            .metrics
            .degraded
            .fetch_add(1, Ordering::Relaxed);
        t2v_trace::note("degrade:fallback:gred");
        Some(
            Response::json(200, body)
                .with_header("x-t2v-degraded", "fallback:gred")
                .with_header("x-t2v-backend", "gred"),
        )
    };
    if let crate::cache::Lookup::Fresh(hit) = shared.state.cache.lookup(&key) {
        return degraded_ok(mark_degraded(&hit, "fallback:gred"));
    }
    let admission = fb.tenant.breakers[idx].admit();
    if matches!(admission, Admission::Reject { .. }) {
        return None;
    }
    let slot = match submit_translation(shared, &fb, key, None, deadline) {
        Ok(slot) => slot,
        Err(_) => {
            if admission == Admission::Probe {
                fb.tenant.breakers[idx].probe_aborted();
            }
            return None;
        }
    };
    let wait = deadline
        .map(|d| d.saturating_duration_since(Instant::now()))
        .unwrap_or(Duration::from_secs(60));
    let r = slot.recv_timeout(wait)?;
    if r.status != 200 {
        return None;
    }
    degraded_ok(mark_degraded(&r.body, "fallback:gred"))
}

/// The NDJSON streaming variant of `/v1/translate`: one line per completed
/// stage as the backend produces it, then the full (non-streamed-identical)
/// response object as the final line. EOF-delimited: the connection closes
/// when the stream ends. Bypasses the cache read path (a cached body has no
/// stages left to stream) but still populates the cache for later requests.
fn stream_endpoint<W: BodySink + ?Sized>(
    shared: &Shared,
    item: Item,
    key: CacheKey,
    writer: &mut W,
    deadline: Option<Instant>,
) -> Handled {
    let state = &shared.state;
    let admission = item.tenant.breakers[item.backend_idx].admit();
    if let Admission::Reject { retry_after_ms } = admission {
        state
            .metrics
            .breaker_rejections
            .fetch_add(1, Ordering::Relaxed);
        let secs = retry_after_ms.div_ceil(1000).max(1);
        return Handled::Reply(
            Response::error_code(
                503,
                "backend_unavailable",
                &format!(
                    "backend '{}' is unavailable (circuit open)",
                    item.backend_id
                ),
            )
            .with_header("Retry-After", secs.to_string()),
        );
    }
    let (tx, rx) = mpsc::channel::<String>();
    let slot = match submit_translation(shared, &item, key, Some(tx), deadline) {
        Ok(slot) => slot,
        Err(SubmitError::Overloaded) | Err(SubmitError::ShuttingDown) => {
            if admission == Admission::Probe {
                item.tenant.breakers[item.backend_idx].probe_aborted();
            }
            state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Handled::Reply(
                Response::error(503, "server overloaded").with_header("Retry-After", "1"),
            );
        }
    };
    if http::write_streaming_head(writer, 200, "application/x-ndjson").is_err() {
        return Handled::Streamed(200);
    }
    // Relay stage lines until the worker hangs up the channel (it drops the
    // sender when the job finishes), then emit the final body. One shared
    // deadline (the request budget, or 60 s with deadlines disabled) covers
    // the whole stream, and a dead client ends the relay immediately — no
    // second timeout stacks on top.
    let deadline = deadline.unwrap_or_else(|| Instant::now() + Duration::from_secs(60));
    let mut client_gone = false;
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                if writer
                    .write_all(line.as_bytes())
                    .and_then(|_| writer.write_all(b"\n"))
                    .and_then(|_| writer.flush())
                    .is_err()
                {
                    client_gone = true;
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
    }
    if !client_gone {
        let left = deadline.saturating_duration_since(Instant::now());
        if let Some(r) = slot.recv_timeout(left) {
            let _ = writer
                .write_all(&r.body)
                .and_then(|_| writer.write_all(b"\n"))
                .and_then(|_| writer.flush());
        }
    }
    Handled::Streamed(200)
}

/// `POST /v1/translate/batch` — `{"requests": [{...}, ...]}` →
/// `{"results": [...]}`, one result object per item in order. Item-level
/// failures (unknown backend/database, overload) are inline structured
/// error objects; only a malformed envelope fails the whole request.
fn batch_endpoint(shared: &Shared, req: &Request, tenant: &Arc<TenantRuntime>) -> Response {
    let started = Instant::now();
    let state = &shared.state;
    let body_text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let parsed = match Json::parse(body_text) {
        Ok(j) => j,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let Some(Json::Arr(requests)) = parsed.get("requests") else {
        return Response::error(400, "missing array field 'requests'");
    };
    if requests.is_empty() {
        return Response::error(400, "'requests' is empty");
    }
    if requests.len() > state.config.max_batch_items {
        return Response::error(
            400,
            &format!(
                "'requests' has {} items; max_batch_items is {}",
                requests.len(),
                state.config.max_batch_items
            ),
        );
    }

    // Phase 1: resolve every item, serve cache hits, submit every *distinct*
    // miss so the pool works on all of them concurrently. Identical items
    // within one batch (same backend × NLQ × db × shape) share a single
    // cold translation instead of racing the cache. An open breaker
    // degrades to a marked stale body or fails the item inline — it never
    // queues doomed work.
    enum Pending {
        Done(Arc<Vec<u8>>),
        Waiting {
            slot: OneShot<Reply>,
            /// Kept for transient-failure retries in phase 2.
            item: Item,
            key: CacheKey,
        },
        Failed(Vec<u8>),
        /// Same key as an earlier item in this batch: reuse its result.
        Dup(usize),
    }
    let deadline = request_deadline(&state.config, req, started);
    let mut in_flight: HashMap<CacheKey, usize> = HashMap::new();
    let pending: Vec<Pending> = requests
        .iter()
        .enumerate()
        .map(|(i, obj)| {
            let item = match resolve_item(tenant, obj) {
                Ok(item) => item,
                // Reuse the single-endpoint error body as the item result.
                Err(resp) => return Pending::Failed(resp.body.as_slice().to_vec()),
            };
            let key = item.cache_key();
            if let Some(&first) = in_flight.get(&key) {
                return Pending::Dup(first);
            }
            // Non-destructive lookup, same reason as the single endpoint:
            // a stale entry must survive for the rejection path below.
            if let crate::cache::Lookup::Fresh(hit) = state.cache.lookup(&key) {
                item.record_cache(state, true);
                return Pending::Done(hit);
            }
            item.record_cache(state, false);
            let admission = item.tenant.breakers[item.backend_idx].admit();
            if let Admission::Reject { .. } = admission {
                state
                    .metrics
                    .breaker_rejections
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(body) = stale_degraded_body(shared, &key) {
                    return Pending::Done(Arc::new(body));
                }
                return Pending::Failed(
                    Response::error_code(
                        503,
                        "backend_unavailable",
                        &format!(
                            "backend '{}' is unavailable (circuit open)",
                            item.backend_id
                        ),
                    )
                    .body
                    .as_slice()
                    .to_vec(),
                );
            }
            in_flight.insert(key.clone(), i);
            match submit_translation(shared, &item, key.clone(), None, deadline) {
                Ok(slot) => Pending::Waiting { slot, item, key },
                Err(_) => {
                    if admission == Admission::Probe {
                        item.tenant.breakers[item.backend_idx].probe_aborted();
                    }
                    state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    Pending::Failed(
                        Response::error(503, "server overloaded")
                            .body
                            .as_slice()
                            .to_vec(),
                    )
                }
            }
        })
        .collect();

    // Phase 2: collect in order, under one shared deadline (the request
    // budget, or 60 s with deadlines disabled). A transient `internal`
    // failure retries with jittered exponential backoff while budget
    // remains — chaos storms pass; the batch shouldn't fail for one blip.
    let deadline_i = deadline.unwrap_or(started + Duration::from_secs(60));
    let timeout_body = || {
        let (status, msg) = if deadline.is_some() {
            state
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            (504, "deadline exceeded before the translation finished")
        } else {
            (500, "translation timed out")
        };
        Response::error(status, msg).body.as_slice().to_vec()
    };
    // Resolved bodies by item index, so later duplicates can reference
    // earlier results (a Dup always points backwards).
    let mut resolved: Vec<Option<Arc<Vec<u8>>>> = Vec::with_capacity(pending.len());
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(b"{\"results\": [");
    for (i, p) in pending.into_iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        let body: Option<Arc<Vec<u8>>> = match p {
            Pending::Done(body) => Some(body),
            Pending::Failed(bytes) => {
                out.extend_from_slice(&bytes);
                resolved.push(None);
                continue;
            }
            Pending::Waiting { slot, item, key } => {
                let left = deadline_i.saturating_duration_since(Instant::now());
                let mut reply = slot.recv_timeout(left);
                let mut attempt = 0usize;
                while reply.as_ref().is_some_and(|r| r.status == 500)
                    && attempt < state.config.retry_max
                {
                    attempt += 1;
                    let base = state.config.retry_base_ms.max(1);
                    // Deterministic jitter — (item, attempt)-dependent so
                    // concurrent batches don't retry in lockstep, with no
                    // RNG to perturb fault-plan replay.
                    let backoff = base * (1u64 << (attempt - 1).min(6))
                        + (i as u64 * 7 + attempt as u64 * 13) % base;
                    if deadline_i.saturating_duration_since(Instant::now())
                        <= Duration::from_millis(backoff)
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(backoff));
                    if matches!(
                        item.tenant.breakers[item.backend_idx].admit(),
                        Admission::Reject { .. }
                    ) {
                        // The failures already tripped the breaker: stop
                        // hammering, the inline error stands.
                        break;
                    }
                    state.metrics.batch_retries.fetch_add(1, Ordering::Relaxed);
                    match submit_translation(shared, &item, key.clone(), None, deadline) {
                        Ok(slot) => {
                            reply = slot
                                .recv_timeout(deadline_i.saturating_duration_since(Instant::now()))
                        }
                        Err(_) => break,
                    }
                }
                reply.map(|r| r.body)
            }
            Pending::Dup(first) => resolved[first].clone(),
        };
        match &body {
            Some(b) => out.extend_from_slice(b),
            None => out.extend_from_slice(&timeout_body()),
        }
        resolved.push(body);
    }
    out.extend_from_slice(b"]}");
    state
        .metrics
        .request_total_latency
        .observe_ns(started.elapsed().as_nanos() as u64);
    Response::json(200, out)
}

/// Convenience: build state from config and spawn, one call.
pub fn serve(config: ServeConfig) -> Result<Server, StartupError> {
    let state = Arc::new(ServerState::build(config)?);
    Server::spawn(state).map_err(StartupError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gred_only_state() -> (t2v_corpus::Corpus, ServerState) {
        let corpus = generate(&t2v_corpus::CorpusConfig::tiny(7));
        let mut config = ServeConfig::default();
        config.set("backends", "gred").unwrap();
        let state = ServerState::from_corpus(&corpus, config).expect("no snapshot configured");
        (corpus, state)
    }

    #[test]
    fn normalization_lowercases_and_collapses_whitespace() {
        assert_eq!(
            normalize_nlq("  Show   ME\tthe  Wages "),
            "show me the wages"
        );
        assert_eq!(normalize_nlq(""), "");
        assert_eq!(normalize_nlq("   "), "");
        assert_eq!(normalize_nlq("É é"), "é é");
    }

    #[test]
    fn fingerprints_separate_dbs_and_store_params() {
        let corpus = generate(&t2v_corpus::CorpusConfig::tiny(7));
        let a = db_fingerprint(&corpus.databases[0], 7, 30);
        let b = db_fingerprint(&corpus.databases[1], 7, 30);
        let a_rows = db_fingerprint(&corpus.databases[0], 7, 31);
        let a_seed = db_fingerprint(&corpus.databases[0], 8, 30);
        assert_ne!(a, b);
        assert_ne!(a, a_rows);
        assert_ne!(a, a_seed);
        assert_eq!(a, db_fingerprint(&corpus.databases[0], 7, 30));
    }

    #[test]
    fn translate_body_is_deterministic_and_parses() {
        let (corpus, state) = gred_only_state();
        let ex = &corpus.dev[0];
        let entry = state.dbs.get(&corpus.databases[ex.db].id).unwrap();
        let backend = Arc::clone(state.registry.get("gred").unwrap());
        let nlq = normalize_nlq(&ex.nlq);
        let a = translate_body(backend.as_ref(), "gred", &nlq, entry, true);
        let b = translate_body(backend.as_ref(), "gred", &nlq, entry, true);
        assert_eq!(a, b, "same inputs must serialise identical bytes");
        let doc = Json::parse(std::str::from_utf8(&a).unwrap()).unwrap();
        assert_eq!(doc.get("backend").and_then(Json::as_str), Some("gred"));
        let dvq = doc.get("dvq").and_then(Json::as_str).expect("a DVQ");
        t2v_dvq::parse(dvq).unwrap();
        assert!(doc.get("vegalite").is_some());
        // Stages are the full GRED pipeline, name + dvq only (no timings —
        // body bytes must be clock-independent for cache identity).
        let Some(Json::Arr(stages)) = doc.get("stages") else {
            panic!("stages array");
        };
        assert_eq!(stages.len(), 3);
        assert_eq!(
            stages[0].get("name").and_then(Json::as_str),
            Some("generator")
        );
        assert!(stages[0].get("micros").is_none());
    }

    #[test]
    fn translate_body_matches_the_raw_gred_pipeline() {
        // The acceptance bar: the /v1 surface serves byte-serialisations of
        // exactly what the pre-redesign pipeline computed.
        let (corpus, state) = gred_only_state();
        for ex in corpus.dev.iter().take(5) {
            let entry = state.dbs.get(&corpus.databases[ex.db].id).unwrap();
            let backend = Arc::clone(state.registry.get("gred").unwrap());
            let nlq = normalize_nlq(&ex.nlq);
            let body = translate_body(backend.as_ref(), "gred", &nlq, entry, false);
            let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            let legacy = state.gred.translate(&nlq, &entry.db);
            assert_eq!(
                doc.get("dvq").and_then(Json::as_str),
                legacy.final_dvq(),
                "served DVQ must equal the raw pipeline's"
            );
        }
    }

    #[test]
    fn translation_errors_are_structured_objects() {
        let (_corpus, state) = gred_only_state();
        let entry = state.dbs.values().next().unwrap();
        // A mute backend produces a structured no_output error body.
        let mute = t2v_core::FnBackend::new("mute", |_: &str, _: &Database| None);
        let body = translate_body(&mute, "mute", "show wages", entry, false);
        let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(matches!(doc.get("dvq"), Some(Json::Null)));
        let err = doc.get("error").expect("error object");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("no_output"));
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("mute"));
    }
}
