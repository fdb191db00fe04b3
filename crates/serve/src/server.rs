//! The TCP serving shell: accept loop and connection handlers.
//!
//! Concurrency model ("deterministic core, concurrent shell"): one
//! accept loop hands each connection to its own handler thread. A
//! handler decodes a frame, routes a column-addressed request to the
//! owning shard ([`crate::shard::shard_of`]), takes that shard's lock,
//! runs [`crate::shard::handle`] on its own thread, and releases the
//! lock before writing the answer. A connection therefore pipelines its
//! own requests in order, every operation on one column serializes
//! through one lock, distinct shards run in parallel, and the answer to
//! any request is computed by single-threaded deterministic library
//! code. The only nondeterminism in the system is *scheduling* (which
//! connection takes a shard's lock first, which connection is accepted
//! first); answer *content* is a pure function of the per-column
//! request order, which is what the `server-identity` conformance
//! family asserts byte-for-byte.
//!
//! `Ping` and `Shutdown` are connection-layer requests: they touch no
//! column, so they answer without taking a shard lock. `Shutdown` flips
//! a stop flag and nudges the accept loop awake with a throwaway
//! loopback connection.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use wsyn_core::json::Value;
use wsyn_core::Pool;
use wsyn_stream::RebuildPolicy;

use crate::protocol::{read_frame, write_frame, Request, Response};
use crate::shard::{handle, shard_of};
use crate::store::AnyColumn;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of column partitions, each behind one lock: operations on
    /// the columns of one shard serialize, distinct shards run in
    /// parallel. `0` defers to the workspace thread policy
    /// (`Pool::new().threads()`, i.e. `WSYN_POOL_THREADS` or the host
    /// parallelism).
    pub shards: usize,
    /// Has no effect. Requests run on their connection's thread, so
    /// there is no shard queue to bound; the field stays only until no
    /// caller names it in a struct literal.
    pub queue_depth: usize,
    /// Rebuild tolerance for every column's batched-update policy
    /// (see [`crate::store::Column::new`]); must be `>= 1`.
    pub tolerance: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 0,
            queue_depth: 64,
            tolerance: 2.0,
        }
    }
}

impl ServeConfig {
    fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            Pool::new().threads()
        } else {
            self.shards
        }
    }
}

/// One shard: the columns it owns, behind the lock every operation on
/// them takes.
type Shard = Mutex<BTreeMap<String, AnyColumn>>;

fn empty_shards(count: usize) -> Vec<Shard> {
    (0..count).map(|_| Mutex::new(BTreeMap::new())).collect()
}

/// What every connection handler shares.
#[derive(Debug)]
struct Shared {
    shards: Vec<Shard>,
    tolerance: f64,
    stop: AtomicBool,
}

/// A bound synopsis server: the listener is ready, [`Server::run`]
/// serves until a `Shutdown` request arrives.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// creates the empty shards.
    ///
    /// # Errors
    /// A bind failure, or an invalid configuration.
    pub fn bind(addr: &str, config: &ServeConfig) -> Result<Server, String> {
        RebuildPolicy::new(config.tolerance).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                shards: empty_shards(config.resolved_shards().max(1)),
                tolerance: config.tolerance,
                stop: AtomicBool::new(false),
            }),
            addr: local,
        })
    }

    /// The bound address (resolves the port when bound to `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until shutdown. Each accepted connection gets a handler
    /// thread; handlers outlive `run` only while their client keeps the
    /// connection open, and the columns are dropped with the last one.
    ///
    /// # Errors
    /// An accept-loop I/O failure. Per-connection I/O failures terminate
    /// that connection only.
    pub fn run(self) -> Result<(), String> {
        let Server {
            listener,
            shared,
            addr,
        } = self;
        for stream in listener.incoming() {
            // ORDERING: SeqCst pairs with the store in `serve_connection`;
            // the flag gates shutdown only, never answer content.
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream.map_err(|e| format!("accept: {e}"))?;
            // Answers are small frames on a request/response protocol:
            // Nagle buys nothing and costs a delayed-ACK stall per
            // round trip.
            let _ = stream.set_nodelay(true);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || serve_connection(stream, &shared, addr));
        }
        Ok(())
    }
}

/// Serves one connection: a frame in, a frame out, until EOF, a fatal
/// protocol error, or shutdown.
fn serve_connection(mut stream: TcpStream, shared: &Shared, addr: SocketAddr) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean EOF: client is done.
            Ok(None) => return,
            Err(e) => {
                // Best-effort error answer; the stream may be beyond
                // recovery (unskippable oversize frame), so close.
                let _ = write_frame(&mut stream, &Response::error(e).to_bytes());
                return;
            }
        };
        let mut shutting_down = false;
        let response = match Request::from_bytes(&payload) {
            Err(e) => Response::error(e),
            Ok(Request::Ping) => {
                Response::ok(vec![("shards", Value::Number(shared.shards.len() as f64))])
            }
            Ok(Request::Shutdown) => {
                shutting_down = true;
                Response::ok(vec![("stopping", Value::Bool(true))])
            }
            Ok(request) => on_shard(&shared.shards, &request, shared.tolerance),
        };
        if write_frame(&mut stream, &response.to_bytes()).is_err() {
            return;
        }
        if shutting_down {
            // ORDERING: SeqCst makes the flag visible before the wake-up
            // connection below lands in the accept loop.
            shared.stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            drop(TcpStream::connect(addr));
            return;
        }
    }
}

/// Runs one column-addressed request under its shard's lock; the lock
/// is released when the answer is returned, before it is written.
///
/// A shard whose lock was poisoned (a request panicked inside
/// [`handle`]) may hold a half-applied column, so it refuses every
/// later request instead of serving that state. Other shards answer on.
fn on_shard(shards: &[Shard], request: &Request, tolerance: f64) -> Response {
    // Every op that reaches here is column-addressed by construction
    // (`Request::from_json` requires a non-empty column).
    let name = request.column().unwrap_or("");
    let shard = &shards[shard_of(name, shards.len())];
    let mut columns = shard.lock().unwrap_or_else(PoisonError::into_inner);
    if shard.is_poisoned() {
        return Response::error("shard poisoned by an earlier panicked request");
    }
    handle(&mut columns, request, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(column: &str) -> Request {
        Request::Put {
            column: column.to_string(),
            data: (0..16).map(|i| f64::from(i % 7)).collect(),
        }
    }

    fn query(column: &str) -> Request {
        Request::Query {
            column: column.to_string(),
            kind: crate::protocol::QueryKind::RangeSum(2, 11),
            trace: false,
        }
    }

    fn build(column: &str) -> Request {
        Request::Build {
            column: column.to_string(),
            budget: 4,
            metric: "abs".to_string(),
            family: None,
            trace: false,
        }
    }

    #[test]
    fn a_poisoned_shard_refuses_and_the_other_shard_answers() {
        // Two columns that route to different shards of two.
        let names: Vec<String> = (0..16).map(|k| format!("c{k}")).collect();
        let victim = names.iter().find(|n| shard_of(n, 2) == 0).unwrap();
        let healthy = names.iter().find(|n| shard_of(n, 2) == 1).unwrap();
        let shards = empty_shards(2);
        for name in [victim, healthy] {
            assert!(on_shard(&shards, &put(name), 2.0).is_ok());
            assert!(on_shard(&shards, &build(name), 2.0).is_ok());
        }

        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = shards[0].lock().unwrap();
                panic!("a request panics while it holds the shard");
            })
            .join()
        });
        assert!(poisoned.is_err());
        assert!(shards[0].is_poisoned());

        let refused = on_shard(&shards, &query(victim), 2.0);
        assert_eq!(
            refused.error_message(),
            Some("shard poisoned by an earlier panicked request")
        );

        // The healthy shard answers with the bytes a fresh map gives.
        let mut fresh = BTreeMap::new();
        for request in [put(healthy), build(healthy)] {
            handle(&mut fresh, &request, 2.0);
        }
        let expected = handle(&mut fresh, &query(healthy), 2.0);
        let answer = on_shard(&shards, &query(healthy), 2.0);
        assert!(answer.is_ok(), "{answer:?}");
        assert_eq!(answer.to_bytes(), expected.to_bytes());
    }
}
