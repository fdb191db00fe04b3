//! The `wsyn-serve` binary: bind, optionally preload synthetic
//! columns, serve until a `Shutdown` request.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use wsyn_serve::{ServeConfig, Server};

const USAGE: &str = "\
wsyn-serve — sharded multi-tenant wavelet-synopsis server

USAGE:
    wsyn-serve [--addr HOST:PORT] [--shards N] [--tolerance T]
               [--preload K:N]

OPTIONS:
    --addr HOST:PORT   Listen address (default 127.0.0.1:7878).
    --shards N         Column partitions, each behind one lock;
                       0 = workspace thread policy (default 0).
    --tolerance T      Rebuild tolerance for batched updates, >= 1
                       (default 2).
    --preload K:N      Preload K zipf columns ('z0'..) of N values
                       each (N a power of two), built at budget N/16
                       with the absolute metric, before serving.
    --help             Print this help.

The server answers the length-prefixed JSON protocol documented in
DESIGN.md §14; `wsyn query --server ADDR` is the matching client.";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServeConfig::default();
    let mut preload: Option<(usize, usize)> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |k: usize| {
            args.get(k + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--addr" => addr = value(i)?,
            "--shards" => config.shards = parse(&value(i)?, "--shards")?,
            "--tolerance" => config.tolerance = parse(&value(i)?, "--tolerance")?,
            "--preload" => {
                let spec = value(i)?;
                let Some((k, n)) = spec.split_once(':') else {
                    return Err(format!("--preload expects K:N, got '{spec}'"));
                };
                preload = Some((parse(k, "--preload K")?, parse(n, "--preload N")?));
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
        // Every flag that falls through consumed itself plus a value.
        i += 2;
    }

    let server = Server::bind(&addr, &config)?;
    let local = server.local_addr();
    println!("wsyn-serve listening on {local}");
    // Preload goes through the server's own front door, so it must run
    // alongside `server.run()` — a preload *before* the accept loop
    // would block forever waiting for replies nobody sends.
    if let Some((k, n)) = preload {
        let addr = local.to_string();
        std::thread::spawn(move || {
            if let Err(e) = preload_columns(&addr, k, n) {
                eprintln!("preload failed: {e}");
            }
        });
    }
    server.run()
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{what}: cannot parse '{s}'"))
}

/// Loads `k` deterministic zipf columns through the server's own front
/// door — put, then build at budget `n/16` — so preloaded state is
/// indistinguishable from client-loaded state and the server answers
/// queries the moment it prints its listening line.
fn preload_columns(addr: &str, k: usize, n: usize) -> Result<(), String> {
    use wsyn_datagen::{zipf, ZipfPlacement};
    let budget = (n / 16).max(1);
    let mut client = wsyn_serve::Client::connect(addr)?;
    for i in 0..k {
        let data = zipf(n, 1.1, 1e6, ZipfPlacement::Shuffled, 42 + i as u64);
        let name = format!("z{i}");
        client.put(&name, &data)?;
        client.build(&name, budget, "abs", false)?;
    }
    println!("preloaded {k} zipf columns of {n} values (budget {budget}, metric abs)");
    Ok(())
}
