//! nb-serve: multi-tenant batched inference over shared compiled plans.
//!
//! The serving story rests on the `&self` replay split in `nb-nn`: a
//! [`CompiledPlan`](nb_nn::CompiledPlan) is immutable after compilation
//! (`Send + Sync`), and all per-request replay state lives in a
//! [`PlanArena`](nb_nn::PlanArena). One plan per model is therefore shared
//! across every worker thread behind an `Arc`, while each worker keeps its
//! own warm arenas — concurrent replay with zero synchronization on the
//! hot path, bitwise identical to serial replay.
//!
//! The crate stacks four pieces on that foundation:
//!
//! - [`batcher`]: coalesce single-sample requests into one batched tensor
//!   and split the output back, with per-sample bitwise batch-invariance
//!   for f32 and int8 plans alike.
//! - [`cache`]: a byte-bounded LRU of compiled plans keyed by model name,
//!   each charged for the weights, tables and warm arena it holds, so many
//!   tenants share a fixed memory budget.
//! - [`server`]: the request queue, dynamic batching policy, worker pool,
//!   and the accepted-implies-answered shutdown/drain contract.
//! - [`traffic`]: seeded open-loop Poisson/bursty arrival schedules for
//!   honest tail-latency measurement (nbbench's `serve-steady` workload).

pub mod batcher;
pub mod cache;
pub mod server;
pub mod traffic;

pub use batcher::{coalesce, split_batch};
pub use cache::{plan_cost, CacheStats, PlanCache};
pub use server::{ModelSpec, Response, ServeConfig, Server, ServerStats, SubmitError, Ticket};
pub use traffic::{arrival_schedule, TrafficConfig};
