//! The TCP serving shell: accept loop, connection handlers, shard
//! worker threads.
//!
//! Concurrency model ("deterministic core, concurrent shell"): one
//! accept loop hands each connection to its own handler thread; handlers
//! decode frames and route column-addressed requests to the owning
//! shard's bounded queue ([`crate::shard::shard_of`]), then block on the
//! per-job reply channel — so a connection pipelines its own requests in
//! order, every operation on one column serializes through one shard
//! worker, and the answer to any request is computed by single-threaded
//! deterministic library code. The only nondeterminism in the system is
//! *scheduling* (which shard runs when, which connection is accepted
//! first); answer *content* is a pure function of the per-column request
//! order, which is what the `server-identity` conformance family
//! asserts byte-for-byte.
//!
//! `Ping` and `Shutdown` are connection-layer requests: they touch no
//! column, so they answer without a shard round-trip. `Shutdown` flips
//! a stop flag and nudges the accept loop awake with a throwaway
//! loopback connection.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use wsyn_core::json::Value;
use wsyn_core::Pool;
use wsyn_stream::RebuildPolicy;

use crate::protocol::{read_frame, write_frame, Request, Response};
use crate::shard::{run_worker, shard_of, Job};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard worker threads. `0` defers to the workspace
    /// thread policy (`Pool::new().threads()`, i.e. `WSYN_POOL_THREADS`
    /// or the host parallelism).
    pub shards: usize,
    /// Bound on each shard's job queue; ingest backpressure surfaces as
    /// connection handlers blocking on a full queue rather than as
    /// unbounded memory growth.
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

/// A bound synopsis server: shard workers are running, the listener is
/// ready, [`Server::run`] serves until a `Shutdown` request arrives.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    senders: Vec<mpsc::SyncSender<Job>>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// spawns the shard workers.
    ///
    /// # Errors
    /// A bind failure, or an invalid configuration.
    pub fn bind(addr: &str, config: &ServeConfig) -> Result<Server, String> {
        RebuildPolicy::new(config.tolerance).map_err(|e| e.to_string())?;
        if config.queue_depth == 0 {
            return Err("queue depth must be positive".to_string());
        }
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shards = config.resolved_shards().max(1);
        let mut senders = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
            let tolerance = config.tolerance;
            // Workers exit when every sender clone is dropped (server
            // and all connection handlers gone); nothing to join.
            std::thread::spawn(move || run_worker(&rx, tolerance));
            senders.push(tx);
        }
        Ok(Server {
            listener,
            senders,
            stop: Arc::new(AtomicBool::new(false)),
            addr: local,
        })
    }

    /// The bound address (resolves the port when bound to `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that makes [`Server::run`] return: store `true`, then
    /// open-and-drop a connection to [`Server::local_addr`] (or just
    /// send a `Shutdown` request, which does both).
    #[must_use]
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves until shutdown. Each accepted connection gets a handler
    /// thread; handlers outlive `run` only while their client keeps the
    /// connection open (shard workers drain outstanding jobs and exit
    /// once the last handler drops its queue senders).
    ///
    /// # Errors
    /// An accept-loop I/O failure. Per-connection I/O failures terminate
    /// that connection only.
    pub fn run(self) -> Result<(), String> {
        let Server {
            listener,
            senders,
            stop,
            addr,
        } = self;
        for stream in listener.incoming() {
            // ORDERING: SeqCst pairs with the store in `serve_connection`;
            // the flag gates shutdown only, never answer content.
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream.map_err(|e| format!("accept: {e}"))?;
            // Answers are small frames on a request/response protocol:
            // Nagle buys nothing and costs a delayed-ACK stall per
            // round trip.
            let _ = stream.set_nodelay(true);
            let senders = senders.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve_connection(stream, &senders, &stop, addr));
        }
        Ok(())
    }
}

/// Serves one connection: a frame in, a frame out, until EOF, a fatal
/// protocol error, or shutdown.
fn serve_connection(
    mut stream: TcpStream,
    senders: &[mpsc::SyncSender<Job>],
    stop: &AtomicBool,
    addr: SocketAddr,
) {
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
                Response::ok(vec![("shards", Value::Number(senders.len() as f64))])
            }
            Ok(Request::Shutdown) => {
                shutting_down = true;
                Response::ok(vec![("stopping", Value::Bool(true))])
            }
            Ok(request) => {
                // Every remaining op is column-addressed by
                // construction (`Request::from_json` requires a
                // non-empty column), so route to the owning shard.
                let name = request.column().unwrap_or("");
                let shard = shard_of(name, senders.len());
                let (reply_tx, reply_rx) = mpsc::channel();
                let job = Job {
                    request,
                    reply: reply_tx,
                };
                match senders[shard].send(job) {
                    Err(_) => Response::error("shard worker is gone"),
                    Ok(()) => match reply_rx.recv() {
                        Ok(response) => response,
                        Err(_) => Response::error("shard dropped the request"),
                    },
                }
            }
        };
        if write_frame(&mut stream, &response.to_bytes()).is_err() {
            return;
        }
        if shutting_down {
            // ORDERING: SeqCst makes the flag visible before the wake-up
            // connection below lands in the accept loop.
            stop.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            drop(TcpStream::connect(addr));
            return;
        }
    }
}
