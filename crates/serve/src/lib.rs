//! `wsyn-serve`: a sharded multi-tenant synopsis server.
//!
//! A persistent in-memory store of named columns — each holding its
//! data, its wavelet synopsis, its maximum-error guarantee, and reusable
//! solver storage — served over a hand-rolled length-prefixed binary
//! protocol on `std::net` (the workspace's zero-dependency discipline
//! extends to the network layer).
//!
//! The layering, bottom-up:
//!
//! * [`protocol`] — versioned frames carrying canonical-bytes JSON; the
//!   codec both sides of the `server-identity` byte-diff rely on.
//! * [`store`] — the per-column state machine: batched ingest through
//!   the streaming rebuild policy, scratch-reusing builds, per-answer
//!   error intervals from `wsyn-aqp`.
//! * [`shard`] — deterministic FNV-1a column routing and the worker
//!   loop; per-column operations serialize lock-free through their one
//!   owning shard.
//! * [`server`] — the concurrent shell: accept loop, per-connection
//!   handler threads, bounded shard queues.
//! * [`client`] — a minimal blocking client, exposing raw response
//!   bytes for identity checking.
//!
//! The determinism contract: answer *content* is a pure function of the
//! per-column request order. Scheduling (shard interleaving, connection
//! acceptance order) affects only *when* an answer is computed, never
//! what it says — asserted byte-for-byte against cold library runs by
//! the `server-identity` conformance family.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod store;

pub use client::Client;
pub use protocol::{QueryKind, Request, Response};
pub use server::{ServeConfig, Server};
pub use store::{AnyColumn, BuiltEngine, Column, StreamColumn};

/// The workspace's **full synopsis-family registry**: the core families
/// hosted by `wsyn-synopsis` (`minmax`, `greedy`, `hist`) plus the
/// probabilistic relative-error solvers from `wsyn-prob` and the
/// one-pass streaming builder from `wsyn-stream`.
///
/// This is the single assembly point every consumer shares — CLI
/// `--algo` parsing, server-side build dispatch, and the conformance
/// suite's solver enumeration all call this function, so a family added
/// here appears everywhere at once (and nowhere maintains its own id
/// list). `wsyn-serve` hosts it because it is the one crate that
/// already links every solver layer.
#[must_use]
pub fn registry() -> wsyn_synopsis::Registry {
    let mut registry = wsyn_synopsis::Registry::core();
    for family in wsyn_prob::families() {
        registry.install(family);
    }
    for family in wsyn_stream::families() {
        registry.install(family);
    }
    registry
}

#[cfg(test)]
mod registry_tests {
    #[test]
    fn full_registry_spans_every_solver_layer() {
        let ids = super::registry().ids();
        for id in [
            "minmax",
            "greedy",
            "hist",
            "minrelvar",
            "minrelbias",
            "stream",
        ] {
            assert!(ids.contains(&id), "missing family '{id}' in {ids:?}");
        }
        assert_eq!(ids.len(), 6, "unexpected families: {ids:?}");
    }
}
