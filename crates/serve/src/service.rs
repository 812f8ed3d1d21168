//! The explanation service: named datasets, spec-addressed detectors and
//! explainers, and the request executor behind the JSON-lines front end.
//!
//! [`ExplanationService`] owns the long-lived state — registered
//! datasets, the [`ModelRegistry`] of fitted models, and one shared
//! [`ScoreCache`] per (dataset, detector) pair — and executes one
//! [`RequestBody`] at a time. Explanations run through a real
//! [`ExplanationEngine`] over those shared caches, so a served response
//! is **bit-identical** to calling the engine directly with the same
//! dataset, detector and spec (the `crosscheck` integration tests assert
//! this per detector).
//!
//! [`ServeHandle`] couples a service to a [`Batcher`]: requests submitted
//! through the handle are micro-batched, executed on the worker pool, and
//! annotated with queue/execution timing.

use crate::batch::{BatchConfig, BatchContext, BatchCounters, Batcher, ServeError, Ticket};
use crate::protocol::{
    DatasetInfo, ErrorCode, RankedEntry, Request, RequestBody, Response, ServeTiming, ServiceStats,
};
use crate::registry::{ModelKey, ModelRegistry};
use crate::shed::{LoadShedder, SloConfig};
use anomex_core::{
    ExplainerKind, ExplanationEngine, RankedSubspaces, RunSpec, RunStats, ScoreCache,
};
use anomex_dataset::gen::hics::{generate_hics, HicsPreset};
use anomex_dataset::{Dataset, Subspace};
use anomex_detectors::{build_detector, Detector};
use anomex_spec::json::{self, Json};
use anomex_spec::{DatasetRef, DetectorSpec, ExplainerSpec, PipelineSpec};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// A typed execution failure: a wire [`ErrorCode`] plus prose. Every
/// path through [`ExplanationService::execute`] classifies its failures
/// so clients can branch on the category instead of parsing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Machine-readable failure category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl ServiceError {
    /// A `map_err`-ready constructor currying the category.
    fn of(code: ErrorCode) -> impl Fn(String) -> ServiceError {
        move |message| ServiceError { code, message }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServiceError {}

/// What one executed operation produced; [`ExplanationService::respond`]
/// folds it into a [`Response`].
#[derive(Debug, Default)]
struct Outcome {
    score: Option<f64>,
    explanation: Option<Vec<RankedEntry>>,
    dataset: Option<DatasetInfo>,
    service: Option<ServiceStats>,
    run: Option<RunStats>,
}

/// A registered dataset plus its append generation. The epoch bumps on
/// every `append`, and model-registry / score-cache keys embed it
/// (`name` at epoch 0, `name@e{N}` after), so entries fitted against a
/// pre-append snapshot are never consulted again — no stale model can
/// serve post-append requests, even when a lazy fit races the append.
struct DatasetEntry {
    data: Arc<Dataset>,
    epoch: u64,
}

impl DatasetEntry {
    /// The epoch-qualified internal id used for registry and cache keys.
    fn keyed_id(&self, name: &str) -> String {
        if self.epoch == 0 {
            name.to_string()
        } else {
            format!("{name}@e{}", self.epoch)
        }
    }
}

fn obs_append_migrated() -> &'static anomex_obs::Counter {
    static C: OnceLock<&'static anomex_obs::Counter> = OnceLock::new();
    C.get_or_init(|| anomex_obs::counter("serve.append.migrated_models"))
}

fn obs_append_deferred() -> &'static anomex_obs::Counter {
    static C: OnceLock<&'static anomex_obs::Counter> = OnceLock::new();
    C.get_or_init(|| anomex_obs::counter("serve.append.deferred_refits"))
}

/// The serving state machine — see the [module docs](self).
pub struct ExplanationService {
    datasets: RwLock<BTreeMap<String, DatasetEntry>>,
    registry: ModelRegistry,
    /// One score cache per (dataset, canonical detector) pair, shared by
    /// every explanation request against that pair.
    caches: Mutex<BTreeMap<(String, String), Arc<ScoreCache>>>,
    /// Scheduler counters, attached by [`ServeHandle::start`] so the
    /// `stats` operation can report them from inside a handler.
    batch_counters: OnceLock<Arc<BatchCounters>>,
}

impl Default for ExplanationService {
    fn default() -> Self {
        Self::new()
    }
}

impl ExplanationService {
    /// A service with an unbounded fitted-model registry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_registry(ModelRegistry::new())
    }

    /// A service over a caller-configured registry (e.g. FIFO-bounded
    /// via [`ModelRegistry::with_capacity`] for memory-constrained
    /// serving).
    #[must_use]
    pub fn with_registry(registry: ModelRegistry) -> Self {
        ExplanationService {
            datasets: RwLock::new(BTreeMap::new()),
            registry,
            caches: Mutex::new(BTreeMap::new()),
            batch_counters: OnceLock::new(),
        }
    }

    /// The fitted-model registry.
    #[must_use]
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Registers `dataset` under `name`.
    ///
    /// # Errors
    /// When the name is empty or already taken — fitted models are keyed
    /// by dataset name, so replacing data under a live name would serve
    /// stale models.
    pub fn register_dataset(&self, name: &str, dataset: Dataset) -> Result<DatasetInfo, String> {
        if name.is_empty() {
            return Err("dataset name must not be empty".to_string());
        }
        let mut w = self
            .datasets
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if w.contains_key(name) {
            return Err(format!("dataset '{name}' is already registered"));
        }
        let info = DatasetInfo {
            name: name.to_string(),
            n_rows: dataset.n_rows(),
            n_features: dataset.n_features(),
        };
        w.insert(
            name.to_string(),
            DatasetEntry {
                data: Arc::new(dataset),
                epoch: 0,
            },
        );
        Ok(info)
    }

    /// Resolves a dataset by name: registered datasets first, then the
    /// synthetic `hicsN[@seed]` presets (e.g. `"hics14"`, `"hics23@7"`),
    /// which are generated on first use and cached.
    ///
    /// # Errors
    /// When the name is neither registered nor a recognizable preset.
    pub fn resolve_dataset(&self, name: &str) -> Result<Arc<Dataset>, String> {
        self.resolve_keyed(name).map(|(ds, _)| ds)
    }

    /// Resolves a dataset together with its epoch-qualified internal id
    /// — the string the model registry and score caches key on. Equal to
    /// the public name until the first `append` bumps the epoch.
    fn resolve_keyed(&self, name: &str) -> Result<(Arc<Dataset>, String), String> {
        {
            let r = self.datasets.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = r.get(name) {
                return Ok((Arc::clone(&entry.data), entry.keyed_id(name)));
            }
        }
        let (preset, seed) = parse_hics_name(name)
            .ok_or_else(|| format!("unknown dataset '{name}' (register it with a load request)"))?;
        let generated = Arc::new(generate_hics(preset, seed).dataset);
        let mut w = self
            .datasets
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = w.entry(name.to_string()).or_insert(DatasetEntry {
            data: generated,
            epoch: 0,
        });
        Ok((Arc::clone(&entry.data), entry.keyed_id(name)))
    }

    /// Service-wide counters. The obs snapshot is taken while holding no
    /// service lock (the registry's interior mutex is a leaf — see
    /// `crates/analyze/lock_order.txt`).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            registry: self.registry.stats(),
            batch: self
                .batch_counters
                .get()
                .map(|c| c.snapshot())
                .unwrap_or_default(),
            datasets: self
                .datasets
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            obs: anomex_obs::snapshot().counters,
        }
    }

    /// Wires the scheduler's counters into the `stats` operation; called
    /// by [`ServeHandle::start`]. Later calls are no-ops.
    pub fn attach_scheduler(&self, counters: Arc<BatchCounters>) {
        // anomex: allow(swallowed-error) OnceLock::set rejection is the documented later-call no-op
        let _ = self.batch_counters.set(counters);
    }

    /// Executes one request and folds the outcome (or failure) into a
    /// [`Response`] with queue/execution timing. Handler panics become
    /// error responses, so one degenerate request cannot take down the
    /// worker pool.
    #[must_use]
    pub fn respond(&self, req: &Request, ctx: &BatchContext) -> Response {
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| self.execute(&req.body)));
        let mut timing = ServeTiming {
            queue_micros: duration_micros(ctx.queued),
            exec_micros: duration_micros(started.elapsed()),
            batch_size: ctx.batch_size,
            run: None,
        };
        match result {
            Ok(Ok(outcome)) => {
                timing.run = outcome.run;
                let mut resp = Response::success(req.id);
                resp.score = outcome.score;
                resp.explanation = outcome.explanation;
                resp.dataset = outcome.dataset;
                resp.service = outcome.service;
                resp.timing = Some(timing);
                resp
            }
            Ok(Err(e)) => {
                let mut resp = Response::failure_coded(req.id, e.code, e.message);
                resp.timing = Some(timing);
                resp
            }
            Err(payload) => {
                let msg = crate::batch::panic_message(payload.as_ref());
                let mut resp = Response::failure_coded(
                    req.id,
                    ErrorCode::Internal,
                    format!("request panicked: {msg}"),
                );
                resp.timing = Some(timing);
                resp
            }
        }
    }

    /// The shared score cache of one (dataset, canonical detector) pair.
    fn cache_for(&self, dataset: &str, detector: &str) -> Arc<ScoreCache> {
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            caches
                .entry((dataset.to_string(), detector.to_string()))
                .or_insert_with(|| Arc::new(ScoreCache::new())),
        )
    }

    fn execute(&self, body: &RequestBody) -> Result<Outcome, ServiceError> {
        let bad_request = ServiceError::of(ErrorCode::BadRequest);
        let unknown_dataset = ServiceError::of(ErrorCode::UnknownDataset);
        let unknown_spec = ServiceError::of(ErrorCode::UnknownSpec);
        match body {
            RequestBody::Load { dataset, rows } => {
                let ds =
                    Dataset::from_rows(rows.clone()).map_err(|e| bad_request(e.to_string()))?;
                let info = self.register_dataset(dataset, ds).map_err(bad_request)?;
                Ok(Outcome {
                    dataset: Some(info),
                    ..Outcome::default()
                })
            }
            RequestBody::Append {
                dataset,
                rows,
                window,
            } => self.append_dataset(dataset, rows, *window),
            RequestBody::Score {
                dataset,
                detector,
                subspace,
                point,
            } => {
                let (ds, keyed) = self.resolve_keyed(dataset).map_err(unknown_dataset)?;
                let (canonical, det) = parse_detector(detector).map_err(unknown_spec)?;
                check_point(&ds, *point).map_err(&bad_request)?;
                if ds.n_rows() < 2 {
                    return Err(bad_request("scoring needs at least 2 rows".to_string()));
                }
                let sub = match subspace {
                    Some(features) => check_subspace(&ds, features).map_err(bad_request)?,
                    None => Subspace::full(ds.n_features()),
                };
                let key = ModelKey::new(keyed, canonical, sub);
                let entry = self
                    .registry
                    .try_get_or_fit(&key, &ds, det.as_ref())
                    .map_err(|e| ServiceError::of(ErrorCode::FitFailed)(e.to_string()))?;
                let score = entry.try_score_of(*point).ok_or_else(|| {
                    ServiceError::of(ErrorCode::Internal)(format!(
                        "validated point {point} missing from the frozen score vector"
                    ))
                })?;
                Ok(Outcome {
                    score: Some(score),
                    ..Outcome::default()
                })
            }
            RequestBody::Explain {
                dataset,
                detector,
                explainer,
                pipeline,
                point,
                dim,
            } => {
                let (ds, keyed) = self.resolve_keyed(dataset).map_err(unknown_dataset)?;
                let (canonical, det, kind) =
                    resolve_pipeline(detector, explainer, pipeline.as_ref())
                        .map_err(unknown_spec)?;
                check_point(&ds, *point).map_err(&bad_request)?;
                check_dim(&ds, *dim).map_err(bad_request)?;
                self.run_engine(
                    &keyed,
                    &canonical,
                    &ds,
                    det.as_ref(),
                    &kind,
                    &[*point],
                    *dim,
                )
            }
            RequestBody::Summarize {
                dataset,
                detector,
                explainer,
                pipeline,
                points,
                dim,
            } => {
                let (ds, keyed) = self.resolve_keyed(dataset).map_err(unknown_dataset)?;
                let (canonical, det, kind) =
                    resolve_pipeline(detector, explainer, pipeline.as_ref())
                        .map_err(unknown_spec)?;
                if points.is_empty() {
                    return Err(bad_request(
                        "summarize needs at least one point".to_string(),
                    ));
                }
                for &p in points {
                    check_point(&ds, p).map_err(&bad_request)?;
                }
                check_dim(&ds, *dim).map_err(bad_request)?;
                self.run_engine(&keyed, &canonical, &ds, det.as_ref(), &kind, points, *dim)
            }
            RequestBody::Stats => Ok(Outcome {
                service: Some(self.stats()),
                ..Outcome::default()
            }),
        }
    }

    /// Executes the `append` operation: extends the named dataset with
    /// new rows (optionally bounded to a sliding window of the most
    /// recent `window` rows), bumps its append epoch, and migrates
    /// fitted models forward. Models whose detector supports
    /// incremental extension are updated in place via
    /// [`anomex_detectors::FittedModel::append_rows`] and republished
    /// under the new
    /// epoch's keys; the rest — and every model when the window dropped
    /// rows, since vanished neighbors invalidate an incremental merge —
    /// refit lazily on next use. The obs counters
    /// `serve.append.{migrated_models,deferred_refits}` separate the two
    /// paths, and the detector layer's `detectors.append.{merges,rebuilds}`
    /// split the migration work itself.
    fn append_dataset(
        &self,
        name: &str,
        rows: &[Vec<f64>],
        window: Option<usize>,
    ) -> Result<Outcome, ServiceError> {
        let bad_request = ServiceError::of(ErrorCode::BadRequest);
        if rows.is_empty() {
            return Err(bad_request("append needs at least one row".to_string()));
        }
        if window == Some(0) {
            return Err(bad_request("append window must be at least 1".to_string()));
        }
        // Materialize presets first so `append` works against `hicsN`
        // names exactly like registered datasets.
        self.resolve_dataset(name)
            .map_err(ServiceError::of(ErrorCode::UnknownDataset))?;
        let added = Dataset::from_rows(rows.to_vec()).map_err(|e| bad_request(e.to_string()))?;

        // Swap the dataset under the write lock; migration below works
        // on owned snapshots, holding no service lock.
        let (old_id, new_id, dropped_rows, info) = {
            let mut map = self
                .datasets
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let entry = map.get_mut(name).ok_or_else(|| {
                ServiceError::of(ErrorCode::UnknownDataset)(format!(
                    "dataset '{name}' disappeared during append"
                ))
            })?;
            if added.n_features() != entry.data.n_features() {
                return Err(bad_request(format!(
                    "appended rows have {} features, dataset '{name}' has {}",
                    added.n_features(),
                    entry.data.n_features()
                )));
            }
            let mut combined: Vec<Vec<f64>> = (0..entry.data.n_rows())
                .map(|i| entry.data.row(i))
                .collect();
            combined.extend(rows.iter().cloned());
            let mut dropped = 0usize;
            if let Some(limit) = window {
                if combined.len() > limit {
                    dropped = combined.len() - limit;
                    combined.drain(..dropped);
                }
            }
            let new_data =
                Arc::new(Dataset::from_rows(combined).map_err(|e| bad_request(e.to_string()))?);
            let old_id = entry.keyed_id(name);
            entry.epoch += 1;
            let info = DatasetInfo {
                name: name.to_string(),
                n_rows: new_data.n_rows(),
                n_features: new_data.n_features(),
            };
            entry.data = new_data;
            (old_id, entry.keyed_id(name), dropped, info)
        };

        // The superseded epoch's score caches are unreachable (new
        // requests key on `new_id`); release them eagerly.
        {
            let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
            caches.retain(|(ds, _), _| ds != &old_id);
        }

        // Migrate fitted models forward under the new epoch's keys.
        for (key, entry) in self.registry.ready_entries_for_dataset(&old_id) {
            let migrated = if dropped_rows == 0 {
                let t0 = Instant::now();
                let projected = added.project(&key.subspace);
                entry
                    .model()
                    .append_rows(&projected)
                    .map(|model| (model, t0.elapsed()))
            } else {
                None
            };
            match migrated {
                Some((model, took)) => {
                    let new_key = ModelKey::new(new_id.clone(), key.detector, key.subspace);
                    self.registry.insert_ready(&new_key, model, took);
                    obs_append_migrated().incr();
                }
                None => obs_append_deferred().incr(),
            }
        }
        self.registry.remove_dataset(&old_id);
        Ok(Outcome {
            dataset: Some(info),
            ..Outcome::default()
        })
    }

    /// Runs a real [`ExplanationEngine`] over the pair's shared cache —
    /// the same code path a direct caller would use, which is what makes
    /// served explanations bit-identical to library calls.
    #[allow(clippy::too_many_arguments)]
    fn run_engine(
        &self,
        dataset_name: &str,
        canonical_detector: &str,
        ds: &Arc<Dataset>,
        det: &dyn Detector,
        kind: &ExplainerKind,
        points: &[usize],
        dim: usize,
    ) -> Result<Outcome, ServiceError> {
        let first = points.first().copied().ok_or_else(|| {
            ServiceError::of(ErrorCode::BadRequest)("no points to explain".to_string())
        })?;
        let cache = self.cache_for(dataset_name, canonical_detector);
        let engine = ExplanationEngine::with_cache(ds, det, cache);
        let run = engine
            .run(kind, &RunSpec::new(points.to_vec(), vec![dim]))
            .into_single();
        let ranked = run.explanations.get(&first).cloned().unwrap_or_default();
        Ok(Outcome {
            explanation: Some(ranked_entries(&ranked)),
            run: Some(run.stats),
            ..Outcome::default()
        })
    }
}

/// The outcome of handing one input line to a [`ServeHandle`].
pub enum Submitted {
    /// The request was queued; redeem the ticket for the response.
    Queued(u64, Ticket<Response>),
    /// The line failed before queueing (parse error, backpressure); the
    /// response is already final.
    Immediate(Box<Response>),
}

impl Submitted {
    /// Blocks until the response is available, converting scheduler
    /// errors (timeout, shutdown) into error responses.
    #[must_use]
    pub fn resolve(self) -> Response {
        match self {
            Submitted::Immediate(resp) => *resp,
            Submitted::Queued(id, ticket) => ticket.wait().unwrap_or_else(|e| e.to_response(id)),
        }
    }
}

/// A running service: an [`ExplanationService`] coupled to a micro-batch
/// scheduler. Dropping the handle shuts the worker pool down.
pub struct ServeHandle {
    service: Arc<ExplanationService>,
    batcher: Batcher<Request, Response>,
    default_deadline: Option<Duration>,
    /// SLO admission control; `None` = admit everything the queue takes.
    shedder: Option<LoadShedder>,
}

impl ServeHandle {
    /// Starts the worker pool over `service` with no SLO admission
    /// control. `default_deadline` bounds every request's time in the
    /// system (queue wait + execution); `None` lets requests wait
    /// indefinitely.
    #[must_use]
    pub fn start(
        service: Arc<ExplanationService>,
        cfg: BatchConfig,
        default_deadline: Option<Duration>,
    ) -> Self {
        Self::start_with_slo(service, cfg, default_deadline, None)
    }

    /// Starts the worker pool with optional SLO-driven load shedding:
    /// when `slo` is set, a [`LoadShedder`] watches the queue-wait
    /// histogram and [`ServeHandle::submit`] rejects with
    /// [`ServeError::Shed`] while the configured quantile exceeds the
    /// budget — the queue stays short instead of merely bounded.
    #[must_use]
    pub fn start_with_slo(
        service: Arc<ExplanationService>,
        cfg: BatchConfig,
        default_deadline: Option<Duration>,
        slo: Option<SloConfig>,
    ) -> Self {
        let svc = Arc::clone(&service);
        let batcher = Batcher::new(cfg, move |req: &Request, ctx: &BatchContext| {
            svc.respond(req, ctx)
        });
        service.attach_scheduler(batcher.counters());
        ServeHandle {
            service,
            batcher,
            default_deadline,
            shedder: slo.map(LoadShedder::new),
        }
    }

    /// The underlying service.
    #[must_use]
    pub fn service(&self) -> &Arc<ExplanationService> {
        &self.service
    }

    /// The deadline applied to every submitted request.
    #[must_use]
    pub fn default_deadline(&self) -> Option<Duration> {
        self.default_deadline
    }

    /// Queues one request.
    ///
    /// # Errors
    /// [`ServeError::Shed`] while the queue-wait SLO is being violated,
    /// [`ServeError::Rejected`] under queue-capacity backpressure,
    /// [`ServeError::ShutDown`] after shutdown.
    pub fn submit(&self, req: Request) -> Result<Ticket<Response>, ServeError> {
        if let Some(shedder) = &self.shedder {
            if shedder.should_shed() {
                return Err(ServeError::Shed {
                    retry_after_ms: shedder.retry_after_ms(),
                });
            }
        }
        self.batcher.submit(req, self.default_deadline)
    }

    /// Parses one JSON line and queues it. Returns `None` for blank
    /// lines; parse failures and backpressure produce an
    /// [`Submitted::Immediate`] error response. A line is parsed once:
    /// a request that fails to decode still answers with its `id` when
    /// the line was a JSON object with an integer `id`, and 0 otherwise.
    #[must_use]
    pub fn submit_line(&self, line: &str) -> Option<Submitted> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let bad_request = |id, err: String| {
            Submitted::Immediate(Box::new(Response::failure_coded(
                id,
                ErrorCode::BadRequest,
                format!("bad request: {err}"),
            )))
        };
        let tree = match json::parse(line) {
            Ok(tree) => tree,
            Err(err) => return Some(bad_request(0, err)),
        };
        Some(match Request::from_json(&tree) {
            Ok(req) => {
                let id = req.id;
                match self.submit(req) {
                    Ok(ticket) => Submitted::Queued(id, ticket),
                    Err(e) => Submitted::Immediate(Box::new(e.to_response(id))),
                }
            }
            Err(err) => {
                let id = tree.get("id").and_then(Json::integer).unwrap_or(0);
                bad_request(id, err)
            }
        })
    }

    /// Submits one request and blocks for its response — the convenience
    /// path for in-process callers and tests.
    #[must_use]
    pub fn roundtrip(&self, req: Request) -> Response {
        let id = req.id;
        match self.submit(req) {
            Ok(ticket) => Submitted::Queued(id, ticket).resolve(),
            Err(e) => e.to_response(id),
        }
    }
}

/// Converts a ranking into its wire representation.
fn ranked_entries(ranked: &RankedSubspaces) -> Vec<RankedEntry> {
    ranked
        .entries()
        .iter()
        .map(|(s, score)| RankedEntry {
            subspace: s.iter().collect(),
            score: *score,
        })
        .collect()
}

fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn check_point(ds: &Dataset, point: usize) -> Result<(), String> {
    if point >= ds.n_rows() {
        return Err(format!(
            "point {point} out of range (dataset has {} rows)",
            ds.n_rows()
        ));
    }
    Ok(())
}

fn check_dim(ds: &Dataset, dim: usize) -> Result<(), String> {
    if dim == 0 || dim > ds.n_features() {
        return Err(format!(
            "dim {dim} out of range (dataset has {} features)",
            ds.n_features()
        ));
    }
    Ok(())
}

fn check_subspace(ds: &Dataset, features: &[usize]) -> Result<Subspace, String> {
    if features.is_empty() {
        return Err("subspace must not be empty".to_string());
    }
    if let Some(&bad) = features.iter().find(|&&f| f >= ds.n_features()) {
        return Err(format!(
            "feature {bad} out of range (dataset has {} features)",
            ds.n_features()
        ));
    }
    Ok(Subspace::new(features.iter().copied()))
}

/// Parses `hicsN[@seed]` preset names (seed defaults to 42), via the
/// canonical [`DatasetRef`] parser.
fn parse_hics_name(name: &str) -> Option<(HicsPreset, u64)> {
    match DatasetRef::parse(name) {
        DatasetRef::Synthetic { dims, seed } => {
            let preset = match dims {
                14 => HicsPreset::D14,
                23 => HicsPreset::D23,
                39 => HicsPreset::D39,
                70 => HicsPreset::D70,
                100 => HicsPreset::D100,
                _ => return None,
            };
            Some((preset, seed))
        }
        DatasetRef::Named(_) => None,
    }
}

/// Parses a detector spec (`"lof"`, `"lof:k=5"`,
/// `"iforest:trees=50,psi=128,reps=2,seed=7"`, `"abod:k=10"`, or a
/// `DetectorSpec` JSON object) into its
/// **canonical** description — every hyper-parameter spelled out, so
/// equivalent specs share registry and cache entries — plus the
/// configured detector. Parsing and construction both go through
/// `anomex-spec`, so the wire grammar is the one the whole workspace
/// shares.
///
/// # Errors
/// On unknown detector names, unknown parameters, or invalid values.
pub fn parse_detector(spec: &str) -> Result<(String, Box<dyn Detector>), String> {
    let parsed = DetectorSpec::parse(spec)?;
    let det = build_detector(&parsed).map_err(|e| e.to_string())?;
    Ok((parsed.canonical(), det))
}

/// Parses an explainer spec (`"beam"`, `"refout[:seed=s]"`,
/// `"lookout[:budget=b]"`, `"hics[:seed=s]"`, or an `ExplainerSpec`
/// JSON object) through the shared `anomex-spec` grammar.
///
/// # Errors
/// On unknown explainer names, unknown parameters, or invalid values.
pub fn parse_explainer(spec: &str) -> Result<ExplainerKind, String> {
    ExplainerKind::from_spec(&ExplainerSpec::parse(spec)?)
}

/// Resolves the (canonical detector, detector, explainer) triple of an
/// explain/summarize request: either the legacy separate `detector` /
/// `explainer` strings, or an inline `pipeline` spec (compact string or
/// JSON object, decoded straight from the request's tree) — but not
/// both.
fn resolve_pipeline(
    detector: &str,
    explainer: &str,
    pipeline: Option<&Json>,
) -> Result<(String, Box<dyn Detector>, ExplainerKind), String> {
    match pipeline {
        Some(value) => {
            if !detector.is_empty() || !explainer.is_empty() {
                return Err(
                    "request carries both 'pipeline' and 'detector'/'explainer' specs".to_string(),
                );
            }
            let spec = PipelineSpec::from_json(value)?;
            let det = build_detector(&spec.detector).map_err(|e| e.to_string())?;
            let kind = ExplainerKind::from_spec(&spec.explainer)?;
            Ok((spec.detector.canonical(), det, kind))
        }
        None => {
            if detector.is_empty() || explainer.is_empty() {
                return Err(
                    "request needs 'detector' and 'explainer' specs (or an inline 'pipeline')"
                        .to_string(),
                );
            }
            let (canonical, det) = parse_detector(detector)?;
            let kind = parse_explainer(explainer)?;
            Ok((canonical, det, kind))
        }
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    fn toy_rows() -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01])
            .collect();
        rows.push(vec![3.0, 3.0]);
        rows
    }

    fn service_with_toy() -> Arc<ExplanationService> {
        let svc = Arc::new(ExplanationService::new());
        let ds = Dataset::from_rows(toy_rows()).unwrap();
        svc.register_dataset("toy", ds).unwrap();
        svc
    }

    #[test]
    fn detector_specs_canonicalize() {
        assert_eq!(parse_detector("lof").unwrap().0, "lof:k=15");
        assert_eq!(parse_detector("LOF:k=5").unwrap().0, "lof:k=5");
        assert_eq!(parse_detector("fastabod").unwrap().0, "abod:k=10");
        assert_eq!(
            parse_detector("iforest:trees=50,seed=7").unwrap().0,
            "iforest:trees=50,psi=256,reps=10,seed=7"
        );
        assert!(parse_detector("lof:q=1").is_err());
        assert!(parse_detector("lof:k=0").is_err());
        assert!(parse_detector("svm").is_err());
        assert!(parse_detector("knndist").is_err());
    }

    #[test]
    fn explainer_specs_parse() {
        assert!(matches!(
            parse_explainer("beam").unwrap(),
            ExplainerKind::Point(_)
        ));
        assert!(matches!(
            parse_explainer("lookout:budget=3").unwrap(),
            ExplainerKind::Summary(_)
        ));
        assert!(parse_explainer("lookout:budget=0").is_err());
        assert!(parse_explainer("shap").is_err());
    }

    #[test]
    fn inline_pipeline_specs_resolve() {
        let (canon, _, kind) =
            resolve_pipeline("", "", Some(&Json::Str("beam+lof:k=3".into()))).unwrap();
        assert_eq!(canon, "lof:k=3");
        assert!(matches!(kind, ExplainerKind::Point(_)));

        let obj = json::parse(
            r#"{"detector": {"kind": "lof", "k": 3}, "explainer": {"kind": "lookout", "budget": 2}}"#,
        )
        .unwrap();
        let (canon, _, kind) = resolve_pipeline("", "", Some(&obj)).unwrap();
        assert_eq!(canon, "lof:k=3");
        assert!(matches!(kind, ExplainerKind::Summary(_)));

        // Both forms at once are ambiguous; neither form is an error.
        assert!(resolve_pipeline("lof", "", Some(&Json::Str("beam+lof".into()))).is_err());
        assert!(resolve_pipeline("lof", "", None).is_err());
        assert!(resolve_pipeline("", "", None).is_err());
    }

    #[test]
    fn hics_preset_names_resolve() {
        let svc = ExplanationService::new();
        let ds = svc.resolve_dataset("hics14").unwrap();
        assert_eq!(ds.n_features(), 14);
        // Cached: the second resolve returns the same Arc.
        let again = svc.resolve_dataset("hics14").unwrap();
        assert!(Arc::ptr_eq(&ds, &again));
        assert!(svc.resolve_dataset("hics15").is_err());
        assert!(svc.resolve_dataset("nope").is_err());
    }

    #[test]
    fn load_rejects_duplicate_names() {
        let svc = service_with_toy();
        let out = svc.execute(&RequestBody::Load {
            dataset: "toy".into(),
            rows: toy_rows(),
        });
        assert!(out.is_err());
    }

    #[test]
    fn score_validates_inputs() {
        let svc = service_with_toy();
        let base = |point: usize, subspace: Option<Vec<usize>>| RequestBody::Score {
            dataset: "toy".into(),
            detector: "lof:k=3".into(),
            subspace,
            point,
        };
        assert!(svc.execute(&base(999, None)).is_err());
        assert!(svc.execute(&base(0, Some(vec![9]))).is_err());
        assert!(svc.execute(&base(0, Some(vec![]))).is_err());
        let ok = svc.execute(&base(20, None)).unwrap();
        assert!(ok.score.is_some());
    }

    #[test]
    fn failures_carry_typed_codes() {
        let svc = service_with_toy();
        let code = |body: RequestBody| svc.execute(&body).unwrap_err().code;
        let score = |dataset: &str, detector: &str, point: usize| RequestBody::Score {
            dataset: dataset.into(),
            detector: detector.into(),
            subspace: None,
            point,
        };
        assert_eq!(code(score("missing", "lof", 0)), ErrorCode::UnknownDataset);
        assert_eq!(code(score("toy", "svm", 0)), ErrorCode::UnknownSpec);
        assert_eq!(code(score("toy", "lof", 999)), ErrorCode::BadRequest);
        assert_eq!(
            code(RequestBody::Explain {
                dataset: "toy".into(),
                detector: "lof".into(),
                explainer: "shap".into(),
                pipeline: None,
                point: 0,
                dim: 1,
            }),
            ErrorCode::UnknownSpec
        );
        assert_eq!(
            code(RequestBody::Summarize {
                dataset: "toy".into(),
                detector: "lof".into(),
                explainer: "lookout".into(),
                pipeline: None,
                points: vec![],
                dim: 1,
            }),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn score_fit_failures_are_typed_not_panics() {
        let svc = service_with_toy();
        let two = Dataset::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        svc.register_dataset("two", two).unwrap();
        let res = svc.execute(&RequestBody::Score {
            dataset: "two".into(),
            detector: "lof:k=5".into(),
            subspace: None,
            point: 0,
        });
        match res {
            // Either the fit degrades gracefully (a score comes back) or
            // it fails as a typed FitFailed — never a panic.
            Ok(outcome) => assert!(outcome.score.is_some()),
            Err(e) => assert_eq!(e.code, ErrorCode::FitFailed),
        }
    }

    #[test]
    fn append_then_score_matches_a_refit_from_scratch() {
        let all = toy_rows();
        let (head, tail) = all.split_at(16);
        // Incremental service: load the head, fit via a score, append
        // the tail — the fitted LOF migrates instead of refitting.
        let svc = Arc::new(ExplanationService::new());
        svc.register_dataset("toy", Dataset::from_rows(head.to_vec()).unwrap())
            .unwrap();
        let score_req = |point: usize| RequestBody::Score {
            dataset: "toy".into(),
            detector: "lof:k=3".into(),
            subspace: None,
            point,
        };
        svc.execute(&score_req(0)).unwrap();
        assert_eq!(svc.registry().stats().fits, 1);
        let out = svc
            .execute(&RequestBody::Append {
                dataset: "toy".into(),
                rows: tail.to_vec(),
                window: None,
            })
            .unwrap();
        let info = out.dataset.expect("append reports the new shape");
        assert_eq!(info.n_rows, all.len());
        assert_eq!(info.name, "toy", "the public name is epoch-free");

        // Reference service: the full dataset loaded at once.
        let fresh = service_with_toy();
        for point in 0..all.len() {
            let a = svc.execute(&score_req(point)).unwrap().score.unwrap();
            let b = fresh.execute(&score_req(point)).unwrap().score.unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "point {point}");
        }
        // Every post-append score came from the migrated model: the only
        // fit this registry ever ran was the pre-append one.
        assert_eq!(svc.registry().stats().fits, 1);
    }

    #[test]
    fn windowed_append_defers_to_a_lazy_refit() {
        let svc = service_with_toy(); // 21 rows
        let score = RequestBody::Score {
            dataset: "toy".into(),
            detector: "lof:k=3".into(),
            subspace: None,
            point: 0,
        };
        svc.execute(&score).unwrap();
        assert_eq!(svc.registry().stats().fits, 1);
        // Keep only the most recent 10 of 25 rows: old rows vanish, so
        // the fitted model cannot merge and the registry is left cold.
        let out = svc
            .execute(&RequestBody::Append {
                dataset: "toy".into(),
                rows: vec![vec![0.02, 0.03]; 4],
                window: Some(10),
            })
            .unwrap();
        assert_eq!(out.dataset.unwrap().n_rows, 10);
        assert_eq!(
            svc.registry().len(),
            0,
            "no model migrates across a window drop"
        );
        // Scoring after the window refits on the surviving rows and
        // matches a from-scratch service over exactly those rows.
        let a = svc.execute(&score).unwrap().score.unwrap();
        assert_eq!(svc.registry().stats().fits, 2);
        let mut rows = toy_rows();
        rows.extend(std::iter::repeat_n(vec![0.02, 0.03], 4));
        let survivors = rows.split_off(rows.len() - 10);
        let fresh = Arc::new(ExplanationService::new());
        fresh
            .register_dataset("toy", Dataset::from_rows(survivors).unwrap())
            .unwrap();
        let b = fresh.execute(&score).unwrap().score.unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn explanations_after_append_match_a_fresh_service() {
        let all = toy_rows();
        let (head, tail) = all.split_at(16);
        let svc = Arc::new(ExplanationService::new());
        svc.register_dataset("toy", Dataset::from_rows(head.to_vec()).unwrap())
            .unwrap();
        svc.execute(&RequestBody::Append {
            dataset: "toy".into(),
            rows: tail.to_vec(),
            window: None,
        })
        .unwrap();
        let explain = RequestBody::Explain {
            dataset: "toy".into(),
            detector: "lof:k=3".into(),
            explainer: "beam".into(),
            pipeline: None,
            point: 20,
            dim: 2,
        };
        let a = svc.execute(&explain).unwrap().explanation.unwrap();
        let b = service_with_toy()
            .execute(&explain)
            .unwrap()
            .explanation
            .unwrap();
        assert_eq!(a, b, "served explanations see the appended data");
    }

    #[test]
    fn append_validates_inputs() {
        let svc = service_with_toy();
        let append =
            |dataset: &str, rows: Vec<Vec<f64>>, window: Option<usize>| RequestBody::Append {
                dataset: dataset.into(),
                rows,
                window,
            };
        let code = |body: RequestBody| svc.execute(&body).unwrap_err().code;
        assert_eq!(
            code(append("missing", vec![vec![0.0, 0.0]], None)),
            ErrorCode::UnknownDataset
        );
        assert_eq!(code(append("toy", vec![], None)), ErrorCode::BadRequest);
        assert_eq!(
            code(append("toy", vec![vec![1.0]], None)),
            ErrorCode::BadRequest,
            "width mismatch"
        );
        assert_eq!(
            code(append("toy", vec![vec![1.0, 2.0]], Some(0))),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn score_is_served_from_the_registry() {
        let svc = service_with_toy();
        let req = RequestBody::Score {
            dataset: "toy".into(),
            detector: "lof:k=3".into(),
            subspace: Some(vec![0, 1]),
            point: 20,
        };
        let a = svc.execute(&req).unwrap().score.unwrap();
        let b = svc.execute(&req).unwrap().score.unwrap();
        assert_eq!(a, b);
        let stats = svc.registry().stats();
        assert_eq!(stats.fits, 1, "second request must be a registry hit");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn handle_roundtrips_and_times_requests() {
        let svc = service_with_toy();
        let handle = ServeHandle::start(svc, BatchConfig::default(), None);
        let resp = handle.roundtrip(Request {
            id: 11,
            body: RequestBody::Explain {
                dataset: "toy".into(),
                detector: "lof:k=3".into(),
                explainer: "beam".into(),
                pipeline: None,
                point: 20,
                dim: 2,
            },
        });
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(resp.id, 11);
        let explanation = resp.explanation.expect("explain returns a ranking");
        assert!(!explanation.is_empty());
        let timing = resp.timing.expect("timing is always attached");
        assert!(timing.batch_size >= 1);
        assert!(timing.run.is_some(), "explain reports engine stats");
    }

    #[test]
    fn parse_failures_become_error_responses() {
        let svc = service_with_toy();
        let handle = ServeHandle::start(svc, BatchConfig::default(), None);
        for line in [
            r#"{"id": 5, "op": "frobnicate"}"#,
            r#"{"id": 5, "op": "replicate", "from": "127.0.0.1:7878"}"#,
        ] {
            let resp = handle.submit_line(line).expect("non-blank line").resolve();
            assert!(!resp.ok);
            assert_eq!(resp.code, Some(ErrorCode::BadRequest), "{line}");
            assert_eq!(resp.id, 5, "id recovered from malformed request");
        }
        assert!(handle.submit_line("   ").is_none());
    }

    #[test]
    fn wire_decoding_accepts_and_rejects_like_typed_serde() {
        let svc = service_with_toy();
        let handle = ServeHandle::start(svc, BatchConfig::default(), None);
        let bad = Some(ErrorCode::BadRequest);
        #[rustfmt::skip]
        let cases: &[(&str, Option<ErrorCode>, u64)] = &[
            // Accepted: unknown (even repeated) fields are ignored...
            (r#"{"id":1,"op":"stats","extra":[1,{"x":null}],"x":1,"x":"again"}"#, None, 1),
            // ...`null` optional fields read as absent...
            (r#"{"id":2,"op":"score","dataset":"toy","detector":"lof:k=3","subspace":null,"point":20}"#, None, 2),
            (r#"{"id":3,"op":"explain","dataset":"toy","detector":"lof:k=3","explainer":"beam","pipeline":null,"point":20,"dim":1}"#, None, 3),
            (r#"{"id":6,"op":"append","dataset":"toy","rows":[[0.5,1]],"window":null}"#, None, 6),
            // ...and an inline pipeline replaces absent detector/explainer.
            (r#"{"id":4,"op":"explain","dataset":"toy","pipeline":"beam+lof:k=3","point":20,"dim":1}"#, None, 4),
            (r#"{"id":5,"op":"summarize","dataset":"toy","pipeline":{"explainer":{"kind":"lookout"},"detector":{"kind":"lof","k":3}},"points":[20],"dim":1}"#, None, 5),
            // A surrogate pair is one character: a well-formed (unknown) name.
            (r#"{"id":7,"op":"score","dataset":"\ud83d\ude00","detector":"lof","point":0}"#, Some(ErrorCode::UnknownDataset), 7),
            // Rejected: missing or repeated fields...
            (r#"{"id":8,"op":"score","dataset":"toy","point":0}"#, bad, 8),
            (r#"{"id":9,"op":"load","rows":[[1.0]]}"#, bad, 9),
            (r#"{"op":"stats"}"#, bad, 0),
            (r#"{"id":10,"id":10,"op":"stats"}"#, bad, 10),
            (r#"{"id":11,"op":"score","dataset":"toy","detector":"lof","point":0,"point":1}"#, bad, 11),
            // ...integers that are negative, quoted, `1.0` or fractional...
            (r#"{"id":12,"op":"score","dataset":"toy","detector":"lof","point":-1}"#, bad, 12),
            (r#"{"id":13,"op":"score","dataset":"toy","detector":"lof","point":"1"}"#, bad, 13),
            (r#"{"id":14,"op":"score","dataset":"toy","detector":"lof","point":1.0}"#, bad, 14),
            (r#"{"id":15,"op":"explain","dataset":"toy","detector":"lof","explainer":"beam","point":0,"dim":1.5}"#, bad, 15),
            (r#"{"id":16,"op":"append","dataset":"toy","rows":[[1.0,1.0]],"window":-5}"#, bad, 16),
            // ...a null where a string is required...
            (r#"{"id":17,"op":"explain","dataset":"toy","detector":null,"explainer":"beam","point":0,"dim":1}"#, bad, 17),
            // ...unknown or missing ops...
            (r#"{"id":18,"op":"frobnicate"}"#, bad, 18),
            (r#"{"id":19,"op":"profile","dataset":"toy"}"#, bad, 19),
            (r#"{"id":20,"op":"recommend","dataset":"toy"}"#, bad, 20),
            (r#"{"id":21,"op":"replicate","from":"127.0.0.1:7878"}"#, bad, 21),
            (r#"{"id":22,"dataset":"toy"}"#, bad, 22),
            // ...lines that are not JSON objects...
            ("[1,2]", bad, 0),
            ("42", bad, 0),
            (r#"{"id":23,"op":"stats"} trailing"#, bad, 0),
            (r#"{"id":24,"op":"stats""#, bad, 0),
            // ...and lone surrogates or numbers no f64 holds, even in
            // ignored fields: the line is not JSON, so its id reads as 0.
            (r#"{"id":25,"op":"stats","x":"\ud800"}"#, bad, 0),
            (r#"{"id":26,"op":"load","dataset":"big","rows":[[1e400]]}"#, bad, 0),
            (r#"{"id":26,"op":"stats","x":-1e400}"#, bad, 0),
            // The failure's id is the line's id only when it is an integer.
            (r#"{"id":"27","op":"stats"}"#, bad, 0),
            (r#"{"id":28.0,"op":"stats"}"#, bad, 0),
            (r#"{"id":-29,"op":"stats"}"#, bad, 0),
        ];
        for &(line, code, id) in cases {
            let resp = handle.submit_line(line).expect("non-blank line").resolve();
            assert_eq!(resp.code, code, "{line}: {:?}", resp.error);
            assert_eq!(resp.ok, code.is_none(), "{line}");
            assert_eq!(resp.id, id, "{line}");
            if id == 7 {
                assert!(resp.error.unwrap().contains('\u{1f600}'));
            }
        }
    }

    #[test]
    fn nesting_bombs_answer_typed_errors_and_the_service_survives() {
        let svc = service_with_toy();
        let handle = ServeHandle::start(svc, BatchConfig::default(), None);
        // A detector spec string starting with `{` is parsed as JSON on
        // a batch worker: 10 000 nested arrays must not overflow its stack.
        let spec_bomb = format!(
            r#"{{"id":1,"op":"score","dataset":"hics14","detector":"{{\"kind\":{}","point":0}}"#,
            "[".repeat(10_000)
        );
        let resp = handle.submit_line(&spec_bomb).unwrap().resolve();
        assert_eq!(resp.code, Some(ErrorCode::UnknownSpec), "{:?}", resp.error);
        assert_eq!(resp.id, 1);
        // A whole line of `[` is parsed on the submitting thread.
        let line_bomb = "[".repeat(1 << 20);
        let resp = handle.submit_line(&line_bomb).unwrap().resolve();
        assert_eq!(resp.code, Some(ErrorCode::BadRequest), "{:?}", resp.error);
        // The service still answers.
        let resp = handle
            .submit_line(r#"{"id":3,"op":"stats"}"#)
            .unwrap()
            .resolve();
        assert!(resp.ok, "{:?}", resp.error);
    }

    #[test]
    fn panics_become_error_responses() {
        // A 1-row dataset passes the point/dim validators but makes the
        // kNN table build panic inside the detector — the catch_unwind
        // in respond() must turn that into an error response.
        let svc = service_with_toy();
        let handle = ServeHandle::start(Arc::clone(&svc), BatchConfig::default(), None);
        let one_row = Dataset::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        svc.register_dataset("one", one_row).unwrap();
        let resp = handle.roundtrip(Request {
            id: 3,
            body: RequestBody::Explain {
                dataset: "one".into(),
                detector: "lof:k=3".into(),
                explainer: "beam".into(),
                pipeline: None,
                point: 0,
                dim: 1,
            },
        });
        assert!(!resp.ok, "kNN on a 1-row dataset must fail, not hang");
        assert_eq!(resp.id, 3);
        assert_eq!(resp.code, Some(ErrorCode::Internal));
    }

    #[test]
    fn slo_shedding_rejects_typed_then_recovers() {
        let svc = service_with_toy();
        let handle = ServeHandle::start_with_slo(
            svc,
            BatchConfig::default(),
            None,
            Some(SloConfig {
                queue_wait_limit_micros: 1_000,
                quantile: 0.99,
                min_observations: 8,
                eval_interval: Duration::from_millis(0),
            }),
        );
        // Simulate a violated SLO: the live queue-wait histogram records
        // a burst of 60ms waits after the shedder's baseline snapshot.
        let h = anomex_obs::histogram(crate::shed::QUEUE_WAIT_METRIC);
        for _ in 0..100 {
            h.observe(60_000);
        }
        let req = || Request {
            id: 9,
            body: RequestBody::Stats,
        };
        let Err(err) = handle.submit(req()) else {
            panic!("a violated SLO must shed the submit");
        };
        assert!(matches!(err, ServeError::Shed { .. }), "{err:?}");
        assert_eq!(err.code(), ErrorCode::Overloaded, "typed wire rejection");
        assert_eq!(
            err.retry_after_ms(),
            Some(1),
            "a zero eval interval still hints at least 1ms"
        );
        // With a zero eval interval every submit re-evaluates, so keep
        // the violation visible for the wire-shaped check...
        for _ in 0..100 {
            h.observe(60_000);
        }
        // ...and submit_line degrades identically, as the wire would see.
        let resp = handle
            .submit_line(r#"{"id": 9, "op": "stats"}"#)
            .unwrap()
            .resolve();
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(ErrorCode::Overloaded));
        assert_eq!(
            resp.retry_after_ms,
            Some(1),
            "the shed response carries the retry hint on the wire"
        );
        // The next window is quiet, so admission control releases.
        let resp = handle.roundtrip(req());
        assert!(resp.ok, "shed must release once the window drains");
    }
}
