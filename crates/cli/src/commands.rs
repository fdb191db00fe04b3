//! Subcommand implementations.

use wsyn_aqp::{bounds, QueryEngine1d, StepEngine};
use wsyn_datagen as datagen;
use wsyn_haar::transform;
use wsyn_obs::Collector;
use wsyn_serve::BuiltEngine;
use wsyn_synopsis::family::{GuaranteeKind, MetricSupport};
use wsyn_synopsis::thresholder::RunParams;
use wsyn_synopsis::{rmse, AnySynopsis, ErrorMetric};

use crate::args::{parse_metric, Args};
use crate::io::{self, SynopsisDoc, SynopsisPayload};

/// Top-level usage text.
pub const USAGE: &str = "\
usage: wsyn <command> [flags]

commands:
  generate   --kind zipf|bumps|piecewise --n <N> [--seed S] [--skew Z] [--total T] --out FILE
  transform  --input FILE
  build      --input FILE --budget B [--metric abs|rel:S]
             [--algo FAMILY]   (a synopsis family id; see 'wsyn families')
             --out FILE
             [--eps E]         (stream only: quantization step, default 0.1)
             [--report FILE]   (write a JSON run report: spans + counters)
  families   (list the registered synopsis families and their guarantees)
  eval       --synopsis FILE --input FILE [--metric abs|rel:S]
  query      --synopsis FILE  point <i> | range <lo> <hi> | avg <lo> <hi>
  query      --server HOST:PORT --column NAME  point <i> | range <lo> <hi> | avg <lo> <hi>
             (answers from a running wsyn-serve column, with its live guarantee)
  serve      [--addr HOST:PORT] [--shards N] [--queue-depth N] [--tolerance T]
             (sharded multi-tenant synopsis server; see DESIGN.md §14)

data files hold one value per line ('#' comments allowed); synopses are JSON.";

/// Dispatches a full argv (without the program name).
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no command given".into());
    };
    match cmd.as_str() {
        "generate" => generate(&Args::parse(rest)?),
        "transform" => transform_cmd(&Args::parse(rest)?),
        "build" => build(&Args::parse(rest)?),
        "families" => families(&Args::parse(rest)?),
        "eval" => eval(&Args::parse(rest)?),
        "query" => query(&Args::parse(rest)?),
        "serve" => serve(&Args::parse(rest)?),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Prints the synopsis-family registry: every `--algo` id the CLI, the
/// server, and the conformance suite accept, with its guarantee kind
/// and metric support.
fn families(a: &Args) -> Result<(), String> {
    a.ensure_known(&[])?;
    println!("{:<12} {:<13} {:<10} summary", "id", "guarantee", "metrics");
    for family in wsyn_serve::registry().families() {
        let guarantee = match family.guarantee {
            GuaranteeKind::Deterministic => "deterministic",
            GuaranteeKind::Measured => "measured",
        };
        let metrics = match family.metrics {
            MetricSupport::Both => "abs, rel",
            MetricSupport::AbsoluteOnly => "abs",
            MetricSupport::RelativeOnly => "rel",
        };
        println!(
            "{:<12} {:<13} {:<10} {}",
            family.id, guarantee, metrics, family.summary
        );
    }
    println!(
        "\n(server builds also accept 'auto': solve minmax and hist, keep the\n\
         smaller objective, ties to minmax)"
    );
    Ok(())
}

fn generate(a: &Args) -> Result<(), String> {
    a.ensure_known(&["kind", "n", "seed", "skew", "total", "out"])?;
    let kind = a.req("kind")?;
    let n: usize = a.req_parse("n")?;
    if !wsyn_haar::is_pow2(n) {
        return Err(format!("--n must be a power of two, got {n}"));
    }
    let seed: u64 = a.opt_parse("seed", 0u64)?;
    let out = a.req("out")?;
    let data = match kind {
        "zipf" => {
            let skew: f64 = a.opt_parse("skew", 1.0f64)?;
            let total: f64 = a.opt_parse("total", 100_000.0f64)?;
            datagen::zipf(n, skew, total, datagen::ZipfPlacement::Shuffled, seed)
        }
        "bumps" => datagen::gaussian_bumps(n, 5, (50.0, 400.0), (0.02, 0.12), 2.0, seed),
        "piecewise" => datagen::piecewise_constant(n, 10, (1.0, 500.0), 0.0, seed),
        other => return Err(format!("unknown --kind '{other}'")),
    };
    io::ensure_parent(out)?;
    io::write_data(out, &data)?;
    println!("wrote {n} values ({kind}, seed {seed}) to {out}");
    Ok(())
}

fn transform_cmd(a: &Args) -> Result<(), String> {
    a.ensure_known(&["input"])?;
    let data = io::read_data(a.req("input")?)?;
    let w = transform::forward(&data).map_err(|e| e.to_string())?;
    // Bulk output is routinely piped into `head`/`grep`; treat a closed
    // pipe as a normal early exit instead of panicking.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (j, c) in w.iter().enumerate() {
        if let Err(e) = writeln!(out, "{j}\t{c}") {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            return Err(format!("cannot write to stdout: {e}"));
        }
    }
    Ok(())
}

fn build(a: &Args) -> Result<(), String> {
    a.ensure_known(&["input", "budget", "metric", "algo", "out", "report", "eps"])?;
    let data = io::read_data(a.req("input")?)?;
    let budget: usize = a.req_parse("budget")?;
    let metric_spec = a.opt("metric").unwrap_or("rel:1.0").to_string();
    let metric = parse_metric(&metric_spec)?;
    let algo = a.opt("algo").unwrap_or("minmax");
    let out = a.req("out")?;
    let report_path = a.opt("report").map(str::to_string);
    // Every family answers the same (budget, metric) question; the
    // registry resolves the id to a solver and the uniform trait drives
    // it. Unknown ids fail with the registry's canonical error listing
    // every valid id.
    let thresholder = wsyn_serve::registry()
        .build(algo, &data)
        .map_err(|e| e.to_string())?;
    // Collection is free unless a report was asked for (no-op collector).
    let obs = if report_path.is_some() {
        Collector::recording()
    } else {
        Collector::noop()
    };
    let mut params = RunParams::new(budget, metric).obs(obs.clone());
    if let Some(eps) = a.opt("eps") {
        let eps: f64 = eps
            .parse()
            .map_err(|e| format!("--eps must be a number: {e}"))?;
        params = params.eps(eps);
    }
    let run = thresholder
        .threshold_with(&params)
        .map_err(|e| e.to_string())?;
    let payload = match run.synopsis {
        AnySynopsis::One(s) => SynopsisPayload::Wavelet(s),
        AnySynopsis::Histogram(s) => SynopsisPayload::Histogram(s),
        _ => return Err("the CLI builds 1-D synopses only".into()),
    };
    if thresholder.has_guarantee() {
        println!(
            "{}: retained {} {}, guaranteed max error {:.6}",
            thresholder.name(),
            payload.len(),
            payload.unit(),
            run.objective
        );
        if let (ErrorMetric::Relative { sanity }, true) = (metric, run.objective >= 1.0 - 1e-12) {
            eprintln!(
                "note: the max relative error saturates at {:.3} — the budget cannot \
                 cover every spike (the optimum may retain few or no coefficients). \
                 Consider a larger --budget, a larger sanity bound than {sanity}, or \
                 --metric abs.",
                run.objective
            );
        }
    } else {
        println!(
            "{}: retained {} {}, measured max error {:.6} (no guarantee)",
            thresholder.name(),
            payload.len(),
            payload.unit(),
            run.objective
        );
    }
    let doc = SynopsisDoc {
        algorithm: thresholder.name().into(),
        metric: thresholder.has_guarantee().then(|| metric_spec.clone()),
        objective: thresholder.has_guarantee().then_some(run.objective),
        payload,
    };
    io::ensure_parent(out)?;
    io::write_synopsis(out, &doc)?;
    println!("wrote synopsis to {out}");
    if let Some(path) = report_path {
        let report = obs
            .report(wsyn_obs::run_meta(thresholder.name(), budget, &metric_spec))
            .ok_or_else(|| "recording collector lost".to_string())?;
        io::ensure_parent(&path)?;
        std::fs::write(&path, report.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote run report to {path}");
    }
    Ok(())
}

fn eval(a: &Args) -> Result<(), String> {
    a.ensure_known(&["synopsis", "input", "metric"])?;
    let doc = io::read_synopsis(a.req("synopsis")?)?;
    let data = io::read_data(a.req("input")?)?;
    if data.len() != doc.payload.n() {
        return Err(format!(
            "domain mismatch: synopsis N = {}, data N = {}",
            doc.payload.n(),
            data.len()
        ));
    }
    let metric_spec = a
        .opt("metric")
        .map(str::to_string)
        .or_else(|| doc.metric.clone())
        .unwrap_or_else(|| "rel:1.0".into());
    let metric = parse_metric(&metric_spec)?;
    let recon = doc.payload.reconstruct();
    println!("algorithm          : {}", doc.algorithm);
    println!("{:<19}: {}", doc.payload.unit(), doc.payload.len());
    if doc.payload.is_empty() {
        println!("note               : empty synopsis — reconstruction is all zeros");
    }
    println!("metric             : {metric_spec}");
    println!(
        "max error          : {:.6}",
        metric.max_error(&data, &recon)
    );
    println!(
        "mean error         : {:.6}",
        metric.mean_error(&data, &recon)
    );
    println!("rmse               : {:.6}", rmse(&data, &recon));
    if let Some(obj) = doc.objective {
        println!("built-in guarantee : {obj:.6}");
    }
    Ok(())
}

/// Runs a `wsyn-serve` server in the foreground until a client sends a
/// `shutdown` request.
fn serve(a: &Args) -> Result<(), String> {
    a.ensure_known(&["addr", "shards", "queue-depth", "tolerance"])?;
    let addr = a.opt("addr").unwrap_or("127.0.0.1:7878");
    let config = wsyn_serve::ServeConfig {
        shards: a.opt_parse("shards", 0usize)?,
        queue_depth: a.opt_parse("queue-depth", 64usize)?,
        tolerance: a.opt_parse("tolerance", 2.0f64)?,
    };
    let server = wsyn_serve::Server::bind(addr, &config)?;
    println!("wsyn serving on {}", server.local_addr());
    server.run()
}

/// The shared grammar of both query modes: `point <i>`, `range <lo>
/// <hi>`, or `avg <lo> <hi>`, validated against the domain size `n`.
fn parse_query(pos: &[String], n: usize) -> Result<wsyn_serve::QueryKind, String> {
    let parse_idx = |s: &str, what: &str| -> Result<usize, String> {
        let v: usize = s.parse().map_err(|_| format!("bad {what} '{s}'"))?;
        if v > n {
            return Err(format!("{what} {v} out of range (N = {n})"));
        }
        Ok(v)
    };
    match pos.first().map(String::as_str) {
        Some("point") => {
            let [_, i] = pos else {
                return Err("usage: query point <i>".into());
            };
            let i = parse_idx(i, "index")?;
            if i >= n {
                return Err(format!("index {i} out of range (N = {n})"));
            }
            Ok(wsyn_serve::QueryKind::Point(i))
        }
        Some("range") | Some("avg") => {
            let [kind, lo, hi] = pos else {
                return Err("usage: query range|avg <lo> <hi>".into());
            };
            let lo = parse_idx(lo, "lo")?;
            let hi = parse_idx(hi, "hi")?;
            if lo > hi {
                return Err(format!("empty range [{lo}, {hi})"));
            }
            if kind == "range" {
                Ok(wsyn_serve::QueryKind::RangeSum(lo, hi))
            } else {
                if lo == hi {
                    return Err("empty range for avg".into());
                }
                Ok(wsyn_serve::QueryKind::RangeAvg(lo, hi))
            }
        }
        _ => Err("usage: query point <i> | range <lo> <hi> | avg <lo> <hi>".into()),
    }
}

/// Client mode: answers a query from a running server's column, under
/// the column's *live* guarantee (which may have drifted past the
/// built objective since the last rebuild — the local `--synopsis` mode
/// can only report the frozen build-time guarantee).
fn query_server(a: &Args) -> Result<(), String> {
    a.ensure_known(&["server", "column"])?;
    let addr = a.req("server")?;
    let column = a.req("column")?;
    let mut client = wsyn_serve::Client::connect(addr)?;
    let info = client.info(column)?;
    let n = info
        .get("n")
        .and_then(wsyn_core::json::Value::as_usize)
        .ok_or_else(|| format!("server sent no domain size for '{column}'"))?;
    let kind = parse_query(&a.positional, n)?;
    let answer = client.query(column, kind, false)?;
    let est = answer
        .get("est")
        .and_then(wsyn_core::json::Value::as_f64)
        .ok_or_else(|| "server sent no estimate".to_string())?;
    match kind {
        wsyn_serve::QueryKind::Point(i) => println!("point({i}) = {est}"),
        wsyn_serve::QueryKind::RangeSum(lo, hi) => println!("sum[{lo}, {hi}) = {est}"),
        wsyn_serve::QueryKind::RangeAvg(lo, hi) => println!("avg[{lo}, {hi}) = {est}"),
    }
    if let Some(iv) = answer
        .get("interval")
        .and_then(wsyn_core::json::Value::as_array)
    {
        // Non-finite interval ends serialize as JSON null; restore them.
        let lo = iv
            .first()
            .and_then(wsyn_core::json::Value::as_f64)
            .unwrap_or(f64::NEG_INFINITY);
        let hi = iv
            .get(1)
            .and_then(wsyn_core::json::Value::as_f64)
            .unwrap_or(f64::INFINITY);
        println!("guaranteed interval: [{lo}, {hi}]");
    }
    Ok(())
}

fn query(a: &Args) -> Result<(), String> {
    if a.opt("server").is_some() {
        return query_server(a);
    }
    a.ensure_known(&["synopsis"])?;
    let doc = io::read_synopsis(a.req("synopsis")?)?;
    // Both families answer the same workload; the interval derivations
    // below consume only (estimate, guarantee) pairs.
    let engine = match &doc.payload {
        SynopsisPayload::Wavelet(s) => BuiltEngine::Wavelet(QueryEngine1d::new(s.clone())),
        SynopsisPayload::Histogram(s) => BuiltEngine::Hist(StepEngine::new(s.clone())),
    };
    let pos = &a.positional;
    let n = doc.payload.n();
    let parse_idx = |s: &str, what: &str| -> Result<usize, String> {
        let v: usize = s.parse().map_err(|_| format!("bad {what} '{s}'"))?;
        if v > n {
            return Err(format!("{what} {v} out of range (N = {n})"));
        }
        Ok(v)
    };
    match pos.first().map(String::as_str) {
        Some("point") => {
            let [_, i] = pos.as_slice() else {
                return Err("usage: query point <i>".into());
            };
            let i = parse_idx(i, "index")?;
            if i >= n {
                return Err(format!("index {i} out of range (N = {n})"));
            }
            let est = engine.point(i) + 0.0; // normalizes -0
            println!("point({i}) = {est}");
            if let (Some(obj), Some(metric)) = (doc.objective, doc.metric.as_deref()) {
                let iv = match parse_metric(metric)? {
                    ErrorMetric::Absolute => bounds::point_absolute(est, obj),
                    ErrorMetric::Relative { sanity } => bounds::point_relative(est, obj, sanity),
                };
                println!("guaranteed interval: [{}, {}]", iv.lo, iv.hi);
            }
        }
        Some("range") | Some("avg") => {
            let [kind, lo, hi] = pos.as_slice() else {
                return Err("usage: query range|avg <lo> <hi>".into());
            };
            let lo = parse_idx(lo, "lo")?;
            let hi = parse_idx(hi, "hi")?;
            if lo > hi {
                return Err(format!("empty range [{lo}, {hi})"));
            }
            if kind == "range" {
                let est = engine.range_sum(lo..hi) + 0.0; // normalizes -0
                println!("sum[{lo}, {hi}) = {est}");
                if let (Some(obj), Some("abs")) = (doc.objective, doc.metric.as_deref()) {
                    let iv = bounds::range_sum_absolute(est, obj, hi - lo);
                    println!("guaranteed interval: [{}, {}]", iv.lo, iv.hi);
                }
            } else {
                if lo == hi {
                    return Err("empty range for avg".into());
                }
                println!("avg[{lo}, {hi}) = {}", engine.range_avg(lo..hi) + 0.0);
            }
        }
        _ => return Err("usage: query point <i> | range <lo> <hi> | avg <lo> <hi>".into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    fn tmpdir(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("wsyn-cli-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn end_to_end_generate_build_eval_query() {
        let dir = tmpdir("e2e");
        let data_path = format!("{dir}/data.txt");
        let syn_path = format!("{dir}/syn.json");
        dispatch(&v(&[
            "generate", "--kind", "zipf", "--n", "64", "--seed", "3", "--out", &data_path,
        ]))
        .unwrap();
        dispatch(&v(&[
            "build", "--input", &data_path, "--budget", "8", "--metric", "rel:1.0", "--algo",
            "minmax", "--out", &syn_path,
        ]))
        .unwrap();
        dispatch(&v(&[
            "eval",
            "--synopsis",
            &syn_path,
            "--input",
            &data_path,
        ]))
        .unwrap();
        dispatch(&v(&["query", "--synopsis", &syn_path, "point", "5"])).unwrap();
        dispatch(&v(&["query", "--synopsis", &syn_path, "range", "0", "32"])).unwrap();
        dispatch(&v(&["query", "--synopsis", &syn_path, "avg", "0", "64"])).unwrap();
    }

    #[test]
    fn build_greedy_and_eval() {
        let dir = tmpdir("greedy");
        let data_path = format!("{dir}/data.txt");
        let syn_path = format!("{dir}/syn.json");
        crate::io::write_data(&data_path, &[2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0]).unwrap();
        dispatch(&v(&[
            "build", "--input", &data_path, "--budget", "3", "--algo", "greedy", "--out", &syn_path,
        ]))
        .unwrap();
        let doc = crate::io::read_synopsis(&syn_path).unwrap();
        assert_eq!(doc.algorithm, "greedy");
        assert!(doc.payload.len() <= 3);
    }

    #[test]
    fn build_stream_and_eval() {
        let dir = tmpdir("streambuild");
        let data_path = format!("{dir}/data.txt");
        let syn_path = format!("{dir}/syn.json");
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        crate::io::write_data(&data_path, &data).unwrap();
        dispatch(&v(&[
            "build", "--input", &data_path, "--budget", "3", "--metric", "abs", "--algo", "stream",
            "--eps", "0.25", "--out", &syn_path,
        ]))
        .unwrap();
        let doc = crate::io::read_synopsis(&syn_path).unwrap();
        assert_eq!(doc.algorithm, "stream");
        assert!(doc.payload.len() <= 3);
        // The streaming objective is a guarantee, so it is persisted and
        // must upper-bound the measured error.
        let objective = doc.objective.expect("stream carries a guarantee");
        let measured =
            wsyn_synopsis::ErrorMetric::absolute().max_error(&data, &doc.payload.reconstruct());
        assert!(measured <= objective + 1e-9);
        // The streaming builder serves the absolute metric only.
        assert!(dispatch(&v(&[
            "build",
            "--input",
            &data_path,
            "--budget",
            "3",
            "--metric",
            "rel:1.0",
            "--algo",
            "stream",
            "--out",
            &format!("{dir}/rel.json"),
        ]))
        .is_err());
    }

    #[test]
    fn build_probabilistic_baselines() {
        let dir = tmpdir("probbuild");
        let data_path = format!("{dir}/data.txt");
        crate::io::write_data(&data_path, &[2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0]).unwrap();
        for algo in ["minrelvar", "minrelbias"] {
            let syn_path = format!("{dir}/{algo}.json");
            dispatch(&v(&[
                "build", "--input", &data_path, "--budget", "3", "--metric", "rel:1.0", "--algo",
                algo, "--out", &syn_path,
            ]))
            .unwrap();
            let doc = crate::io::read_synopsis(&syn_path).unwrap();
            assert_eq!(doc.algorithm, algo);
            // Baselines carry no guarantee, so none is persisted.
            assert!(doc.objective.is_none());
            // A budget past N is clamped, not packed into the DP's unit
            // budget `b·q` (5e9 × q overflows u32).
            dispatch(&v(&[
                "build",
                "--input",
                &data_path,
                "--budget",
                "5000000000",
                "--metric",
                "rel:1",
                "--algo",
                algo,
                "--out",
                &syn_path,
            ]))
            .unwrap();
        }
        // The GG baselines are relative-error algorithms; absolute is
        // rejected through the uniform interface rather than mis-served.
        assert!(dispatch(&v(&[
            "build",
            "--input",
            &data_path,
            "--budget",
            "3",
            "--metric",
            "abs",
            "--algo",
            "minrelvar",
            "--out",
            &format!("{dir}/abs.json"),
        ]))
        .is_err());
    }

    #[test]
    fn build_hist_eval_query_end_to_end() {
        let dir = tmpdir("histbuild");
        let data_path = format!("{dir}/data.txt");
        let syn_path = format!("{dir}/syn.json");
        let data = [2.0, 2.0, 2.0, 9.0, 9.0, 9.0, 9.0, 4.0];
        crate::io::write_data(&data_path, &data).unwrap();
        dispatch(&v(&[
            "build", "--input", &data_path, "--budget", "3", "--metric", "abs", "--algo", "hist",
            "--out", &syn_path,
        ]))
        .unwrap();
        let doc = crate::io::read_synopsis(&syn_path).unwrap();
        assert_eq!(doc.algorithm, "hist");
        assert_eq!(doc.objective, Some(0.0), "three plateaus, three buckets");
        assert!(matches!(doc.payload, SynopsisPayload::Histogram(_)));
        dispatch(&v(&[
            "eval",
            "--synopsis",
            &syn_path,
            "--input",
            &data_path,
        ]))
        .unwrap();
        dispatch(&v(&["query", "--synopsis", &syn_path, "point", "4"])).unwrap();
        dispatch(&v(&["query", "--synopsis", &syn_path, "range", "0", "8"])).unwrap();
        dispatch(&v(&["query", "--synopsis", &syn_path, "avg", "2", "6"])).unwrap();
        assert!(dispatch(&v(&["query", "--synopsis", &syn_path, "point", "99"])).is_err());
    }

    #[test]
    fn every_registry_family_builds_through_the_cli() {
        // The --algo grammar IS the registry: every registered id
        // builds, and an unknown id fails with the registry's error
        // (listing the whole valid set). This is the CLI's half of the
        // one-id-set contract shared with the server and conform.
        let dir = tmpdir("allfamilies");
        let data_path = format!("{dir}/data.txt");
        crate::io::write_data(&data_path, &[2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0]).unwrap();
        for family in wsyn_serve::registry().families() {
            let metric = match family.metrics {
                MetricSupport::Both | MetricSupport::AbsoluteOnly => "abs",
                MetricSupport::RelativeOnly => "rel:1.0",
            };
            let syn_path = format!("{dir}/{}.json", family.id);
            dispatch(&v(&[
                "build", "--input", &data_path, "--budget", "3", "--metric", metric, "--algo",
                family.id, "--out", &syn_path,
            ]))
            .unwrap_or_else(|e| panic!("family '{}' must build: {e}", family.id));
            assert_eq!(
                crate::io::read_synopsis(&syn_path).unwrap().algorithm,
                family.id
            );
        }
        let err = dispatch(&v(&[
            "build",
            "--input",
            &data_path,
            "--budget",
            "3",
            "--algo",
            "zorp",
            "--out",
            &format!("{dir}/zorp.json"),
        ]))
        .unwrap_err();
        for id in wsyn_serve::registry().ids() {
            assert!(err.contains(id), "error must list '{id}': {err}");
        }
    }

    #[test]
    fn families_subcommand_prints() {
        dispatch(&v(&["families"])).unwrap();
        assert!(dispatch(&v(&["families", "--bogus", "1"])).is_err());
    }

    #[test]
    fn build_report_is_deterministic_and_nonempty() {
        let dir = tmpdir("report");
        let data_path = format!("{dir}/data.txt");
        crate::io::write_data(&data_path, &[2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0]).unwrap();
        let mut renders = Vec::new();
        for round in 0..2 {
            let syn_path = format!("{dir}/syn{round}.json");
            let rep_path = format!("{dir}/rep{round}.json");
            dispatch(&v(&[
                "build", "--input", &data_path, "--budget", "3", "--metric", "abs", "--algo",
                "minmax", "--out", &syn_path, "--report", &rep_path,
            ]))
            .unwrap();
            let text = std::fs::read_to_string(&rep_path).unwrap();
            let value = wsyn_core::json::Value::parse(&text).unwrap();
            let report = wsyn_obs::Report::from_json(&value).unwrap();
            assert_eq!(report.root.name, wsyn_obs::ROOT_SPAN);
            assert!(
                !report.root.children.is_empty(),
                "span tree must be non-empty"
            );
            renders.push(report.strip_timing().render());
        }
        assert_eq!(
            renders[0], renders[1],
            "untimed reports must be byte-identical"
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(dispatch(&v(&["nope"])).is_err());
        assert!(dispatch(&v(&[])).is_err());
        assert!(dispatch(&v(&[
            "generate", "--kind", "zipf", "--n", "63", "--out", "/tmp/x"
        ]))
        .is_err()); // not a power of two
        assert!(dispatch(&v(&[
            "build",
            "--input",
            "/nonexistent",
            "--budget",
            "4",
            "--out",
            "/tmp/x"
        ]))
        .is_err());
    }

    #[test]
    fn query_bad_args() {
        let dir = tmpdir("querybad");
        let data_path = format!("{dir}/data.txt");
        let syn_path = format!("{dir}/syn.json");
        crate::io::write_data(&data_path, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        dispatch(&v(&[
            "build", "--input", &data_path, "--budget", "2", "--out", &syn_path,
        ]))
        .unwrap();
        assert!(dispatch(&v(&["query", "--synopsis", &syn_path, "point"])).is_err());
        assert!(dispatch(&v(&["query", "--synopsis", &syn_path, "point", "99"])).is_err());
        assert!(dispatch(&v(&["query", "--synopsis", &syn_path, "range", "3", "1"])).is_err());
    }

    #[test]
    fn query_server_mode_end_to_end() {
        // A real server on an ephemeral port; the CLI queries it as a
        // client and validates its own argument handling against the
        // served column's domain.
        let server =
            wsyn_serve::Server::bind("127.0.0.1:0", &wsyn_serve::ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let data: Vec<f64> = (0..16).map(|i| f64::from(i % 7) * 3.0).collect();
        let mut client = wsyn_serve::Client::connect(&addr).unwrap();
        client.put("cli-test", &data).unwrap();
        client.build("cli-test", 4, "abs", false).unwrap();

        for q in [
            vec!["point", "5"],
            vec!["range", "0", "8"],
            vec!["avg", "0", "16"],
        ] {
            let mut argv = v(&["query", "--server", &addr, "--column", "cli-test"]);
            argv.extend(q.iter().map(|s| (*s).to_string()));
            dispatch(&argv).unwrap();
        }
        // Out-of-range and unknown-column errors surface cleanly.
        assert!(dispatch(&v(&[
            "query", "--server", &addr, "--column", "cli-test", "point", "99"
        ]))
        .is_err());
        assert!(dispatch(&v(&[
            "query", "--server", &addr, "--column", "ghost", "point", "0"
        ]))
        .is_err());

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn transform_prints_coefficients() {
        let dir = tmpdir("transform");
        let data_path = format!("{dir}/data.txt");
        crate::io::write_data(&data_path, &[2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0]).unwrap();
        dispatch(&v(&["transform", "--input", &data_path])).unwrap();
    }
}
