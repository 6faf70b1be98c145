//! The multi-tenant batched inference server.
//!
//! Requests are single samples addressed to a named model. A shared FIFO
//! queue feeds a fixed pool of worker threads; each worker claims the
//! oldest pending request plus up to `max_batch - 1` more *for the same
//! model* (skipping over other tenants' requests without reordering them),
//! coalesces the batch, replays the model's shared [`CompiledPlan`]
//! through a worker-local [`PlanArena`], and answers every request in the
//! batch. Plans live in the byte-bounded [`PlanCache`]; the arena is keyed
//! by model and reused across batches, so a warm worker replays without
//! activation allocation.
//!
//! ## Shutdown contract
//!
//! [`Server::begin_shutdown`] flips the queue into draining mode: new
//! submissions are rejected with [`SubmitError::Shutdown`], while every
//! request accepted before the flip is still batched, executed, and
//! answered. Workers exit only when the queue is empty *and* shutdown is
//! set, so [`Server::join`] (or drop) cannot strand an accepted request —
//! the stress suite submits from many producers, flips shutdown
//! mid-burst, and holds the server to exactly this.

use crate::batcher::{coalesce, split_batch};
use crate::cache::{CacheStats, PlanCache};
use nb_nn::{CompiledPlan, PlanArena};
use nb_tensor::Tensor;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a plan for one tenant model is built on demand.
pub struct ModelSpec {
    name: String,
    sample_dims: Vec<usize>,
    factory: Box<dyn Fn() -> CompiledPlan + Send + Sync>,
}

impl ModelSpec {
    /// A tenant model: `name` keys the plan cache, `sample_dims` is the
    /// per-request sample shape (no batch dimension, e.g. `[3, 32, 32]`),
    /// and `factory` compiles the plan (deterministically — eviction
    /// round-trips recompile through it).
    pub fn new(
        name: impl Into<String>,
        sample_dims: impl Into<Vec<usize>>,
        factory: impl Fn() -> CompiledPlan + Send + Sync + 'static,
    ) -> Self {
        ModelSpec {
            name: name.into(),
            sample_dims: sample_dims.into(),
            factory: Box::new(factory),
        }
    }

    /// The model's cache key.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Server sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads replaying batches (each holds its own arenas).
    pub workers: usize,
    /// Largest batch a worker coalesces from the queue.
    pub max_batch: usize,
    /// Pending-request bound; submissions beyond it are rejected with
    /// [`SubmitError::QueueFull`] (open-loop backpressure).
    pub queue_cap: usize,
    /// Byte capacity of the LRU plan cache.
    pub cache_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            queue_cap: 4096,
            cache_bytes: usize::MAX,
        }
    }
}

/// A completed request: the model output (leading batch dim 1) and the
/// instant the worker finished its batch (for latency accounting).
pub struct Response {
    /// The per-request model output, shape `[1, ...]`.
    pub output: Tensor,
    /// When the worker finished the batch containing this request.
    pub finished: Instant,
}

/// Why a submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is draining; no new requests are accepted.
    Shutdown,
    /// The pending queue is at `queue_cap`.
    QueueFull,
    /// No registered model has that name.
    UnknownModel,
    /// The input's dims differ from the model's registered sample dims.
    BadShape,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Shutdown => write!(f, "server is shutting down"),
            SubmitError::QueueFull => write!(f, "request queue is full"),
            SubmitError::UnknownModel => write!(f, "unknown model"),
            SubmitError::BadShape => write!(f, "input dims do not match the model's sample dims"),
        }
    }
}

/// Claim on an accepted request's eventual [`Response`].
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Panics
    ///
    /// Panics if the server dropped the request without answering — a
    /// violation of the drain contract, kept loud on purpose.
    pub fn wait(self) -> Response {
        self.rx
            .recv()
            .expect("server dropped an accepted request without responding")
    }

    /// Blocks up to `timeout`; `None` if no response arrived in time.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Response> {
        self.rx.recv_timeout(timeout).ok()
    }
}

struct Request {
    model: usize,
    input: Tensor,
    tx: mpsc::Sender<Response>,
}

struct Queue {
    pending: VecDeque<Request>,
    shutdown: bool,
}

struct Shared {
    cfg: ServeConfig,
    models: Vec<ModelSpec>,
    queue: Mutex<Queue>,
    cv: Condvar,
    cache: PlanCache,
    accepted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
}

/// Lifetime counters for one server.
#[derive(Clone, Copy, Debug)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
}

impl ServerStats {
    /// Mean requests per executed batch (1.0 = batching never engaged).
    pub fn batch_occupancy(&self) -> f64 {
        self.completed as f64 / (self.batches.max(1)) as f64
    }
}

/// A running multi-tenant inference server; see the module docs.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `cfg.workers` worker threads over the given tenant models.
    ///
    /// # Panics
    ///
    /// Panics on zero workers, a zero batch cap, or duplicate model names.
    pub fn start(cfg: ServeConfig, models: Vec<ModelSpec>) -> Self {
        assert!(cfg.workers >= 1, "server needs at least one worker");
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        for (i, m) in models.iter().enumerate() {
            assert!(
                models[..i].iter().all(|p| p.name != m.name),
                "duplicate model name {:?}",
                m.name
            );
        }
        let shared = Arc::new(Shared {
            cfg,
            models,
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            cache: PlanCache::new(cfg.cache_bytes),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nb-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn nb-serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// Enqueues one sample for `model`, returning a [`Ticket`] for the
    /// response. Rejections ([`SubmitError`]) never enqueue anything.
    pub fn submit(&self, model: &str, input: Tensor) -> Result<Ticket, SubmitError> {
        let idx = self
            .shared
            .models
            .iter()
            .position(|m| m.name == model)
            .ok_or(SubmitError::UnknownModel)?;
        if input.dims() != &self.shared.models[idx].sample_dims[..] {
            return Err(SubmitError::BadShape);
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock();
            if q.shutdown {
                return Err(SubmitError::Shutdown);
            }
            if q.pending.len() >= self.shared.cfg.queue_cap {
                return Err(SubmitError::QueueFull);
            }
            q.pending.push_back(Request {
                model: idx,
                input,
                tx,
            });
        }
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.cv.notify_one();
        Ok(Ticket { rx })
    }

    /// Flips the server into draining mode: rejects new submissions while
    /// workers finish (and answer) everything already accepted.
    pub fn begin_shutdown(&self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.cv.notify_all();
    }

    /// [`Server::begin_shutdown`] plus joining every worker; returns once
    /// the queue is fully drained.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn join(mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            h.join().expect("nb-serve worker panicked");
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
        }
    }

    /// The plan cache (resident keys / bytes, for tests and ops).
    pub fn cache(&self) -> &PlanCache {
        &self.shared.cache
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.begin_shutdown();
            for h in self.workers.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Claims the oldest request plus up to `cap - 1` later requests for the
/// same model, preserving the relative order of everything left behind.
fn take_batch(q: &mut Queue, cap: usize) -> Vec<Request> {
    let first = q.pending.pop_front().expect("take_batch on empty queue");
    let model = first.model;
    let mut batch = vec![first];
    let mut i = 0;
    while batch.len() < cap && i < q.pending.len() {
        if q.pending[i].model == model {
            batch.push(q.pending.remove(i).expect("indexed request"));
        } else {
            i += 1;
        }
    }
    batch
}

fn worker_loop(shared: &Shared) {
    // One warm arena per model this worker has served; plan recompiles
    // after cache eviction are structurally identical, so arenas stay
    // valid across them (run_in asserts this).
    let mut arenas: HashMap<usize, PlanArena> = HashMap::new();
    loop {
        let batch = {
            let mut q = shared.queue.lock();
            loop {
                if !q.pending.is_empty() {
                    break take_batch(&mut q, shared.cfg.max_batch);
                }
                if q.shutdown {
                    return;
                }
                q = shared.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let mi = batch[0].model;
        let spec = &shared.models[mi];
        let plan = shared.cache.get_or_compile(&spec.name, || (spec.factory)());
        let inputs: Vec<Tensor> = batch.iter().map(|r| r.input.clone()).collect();
        let x = coalesce(&inputs);
        let arena = arenas.entry(mi).or_insert_with(|| plan.new_arena());
        let y = plan.run_in(arena, &x);
        let outputs = split_batch(&y, batch.len());
        let finished = Instant::now();
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .completed
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for (req, output) in batch.into_iter().zip(outputs) {
            // A dropped ticket just means the client stopped waiting.
            let _ = req.tx.send(Response { output, finished });
        }
    }
}
