//! LRU cache of compiled plans, bounded by resident bytes.
//!
//! A multi-tenant server keeps many models warm; each resident
//! [`CompiledPlan`] costs every weight and table its kernels hold
//! ([`CompiledPlan::packed_bytes`]) plus the activation arena a warm
//! replay keeps around ([`CompiledPlan::arena_bytes`]). The cache charges
//! every entry that sum and evicts least-recently-used plans until the
//! total fits the configured capacity. Evicted models are not gone —
//! the next request recompiles them through the registered factory, and
//! compilation is deterministic, so a round-trip through eviction
//! reproduces the same logits bit for bit (the test suite checks this).
//!
//! Plans are handed out as `Arc<CompiledPlan>`: eviction drops the cache's
//! reference, while in-flight replays keep theirs until the batch
//! finishes.

use nb_nn::CompiledPlan;
use parking_lot::Mutex;
use std::sync::Arc;

/// Hit/miss/eviction counters, as of one [`PlanCache::stats`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident plan.
    pub hits: u64,
    /// Lookups that compiled (or recompiled after eviction).
    pub misses: u64,
    /// Plans evicted to fit the capacity.
    pub evictions: u64,
}

struct CacheEntry {
    key: String,
    plan: Arc<CompiledPlan>,
    cost: usize,
}

struct CacheInner {
    /// LRU order: front is coldest, back is the most recently used.
    entries: Vec<CacheEntry>,
    resident_bytes: usize,
    stats: CacheStats,
}

/// A byte-capacity-bounded LRU of compiled plans, shared across worker
/// threads (interior mutex; lookups that miss compile under the lock so a
/// model is never compiled twice concurrently).
pub struct PlanCache {
    capacity_bytes: usize,
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    /// A cache evicting down to `capacity_bytes` of resident plan cost
    /// (packed panels + warm arena). A single plan larger than the
    /// capacity is still admitted — the server could not answer its
    /// requests otherwise — making the bound `max(capacity, largest plan)`.
    pub fn new(capacity_bytes: usize) -> Self {
        PlanCache {
            capacity_bytes,
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                resident_bytes: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Returns the plan for `key`, compiling it with `make` on a miss and
    /// evicting cold plans until the capacity bound holds again.
    pub fn get_or_compile(
        &self,
        key: &str,
        make: impl FnOnce() -> CompiledPlan,
    ) -> Arc<CompiledPlan> {
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.entries.iter().position(|e| e.key == key) {
            inner.stats.hits += 1;
            // Touch: move to the MRU end.
            let entry = inner.entries.remove(pos);
            let plan = Arc::clone(&entry.plan);
            inner.entries.push(entry);
            return plan;
        }
        inner.stats.misses += 1;
        let plan = Arc::new(make());
        let cost = plan_cost(&plan);
        inner.resident_bytes += cost;
        inner.entries.push(CacheEntry {
            key: key.to_string(),
            plan: Arc::clone(&plan),
            cost,
        });
        while inner.resident_bytes > self.capacity_bytes && inner.entries.len() > 1 {
            let evicted = inner.entries.remove(0);
            inner.resident_bytes -= evicted.cost;
            inner.stats.evictions += 1;
        }
        plan
    }

    /// True when `key` is resident (does not touch LRU order).
    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().entries.iter().any(|e| e.key == key)
    }

    /// Resident keys, coldest first.
    pub fn resident_keys(&self) -> Vec<String> {
        self.inner
            .lock()
            .entries
            .iter()
            .map(|e| e.key.clone())
            .collect()
    }

    /// Total bytes charged for resident plans.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().resident_bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }
}

/// What one resident plan costs the cache: every weight and table the
/// plan's kernels hold plus the probe-batch activation arena a warm replay
/// keeps.
///
/// Both terms come from the plan itself and count f32 and int8 plans the
/// same way: packed GEMM panels, depthwise taps, biases and unfolded
/// batch-norm tables, then the arena. An int8 plan
/// ([`CompiledPlan::compile_quantized`]) holds i8 panels and taps with
/// their scale tables (roughly a quarter of the f32 weights) plus its u8
/// quantization scratch, so mixed f32/i8 residency evicts by true
/// footprint — a quantized tenant is cheaper to keep warm, exactly as
/// deployment intends.
pub fn plan_cost(plan: &CompiledPlan) -> usize {
    plan.packed_bytes() + plan.arena_bytes()
}
