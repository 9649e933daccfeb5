//! Barrier-tuning-as-a-service: the `hbar serve` daemon and its client.
//!
//! The ROADMAP's north star is serving tuned barrier schedules at
//! scale; this crate is the concrete daemon: a long-running TCP service
//! that accepts cost matrices (the `O`/`L` profiles of §VI) and returns
//! tuned hybrid schedules plus, on request, generated C, with a warm
//! path built to answer in tens of microseconds:
//!
//! * [`frame`] — the `[tag][len][payload]` stream every connection
//!   speaks, and its drain and shutdown tags;
//! * [`proto`] — the binary request/response frames carried on it, and
//!   the versioned [`CacheKey`] (cost fingerprint × tuner-knob
//!   fingerprint);
//! * [`cache`] — the sharded slab-LRU schedule cache (per-shard locks,
//!   entry + bytes budgets);
//! * [`server`] — accept loop, per-connection readers with
//!   flush-before-block batching, the in-flight coalescing map
//!   (concurrent misses on one key tune once), and the bounded worker
//!   pool with per-worker reusable `CostEvaluator`s;
//! * [`client`] — the pipelining [`TuneClient`] used by
//!   `hbar tune-client`, the tests, and the `serve_zipf` benchmark workload;
//! * [`workload`] — seeded synthetic topologies and Zipf sampling for
//!   load generation.
//!
//! Determinism contract: the tuner is deterministic, so a served
//! schedule — cached, coalesced, or freshly tuned — is always
//! bit-identical to `tune_hybrid_costs` run locally on the same
//! matrices and knobs. The integration tests assert exactly that.

pub mod cache;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod workload;

pub use cache::{CacheConfig, ShardedCache};
pub use client::{shutdown_server, TuneClient, TuneReply};
pub use proto::{CacheKey, ServeStats, TuneRequest, TuneResponse};
pub use server::{serve, ServeConfig, ServerHandle};
