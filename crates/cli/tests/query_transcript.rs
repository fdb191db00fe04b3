//! Output pin for `wsyn query --synopsis` and `wsyn eval`: every answer,
//! refusal and evaluation the CLI prints for a fixed set of synopsis
//! documents, recorded once and compared byte for byte.
//!
//! The documents cover each persisted family (`minmax` under `abs` and
//! `rel:1`, `hist` under both, `greedy`, `stream`) over two N = 64
//! inputs: a seeded Zipf vector from `wsyn generate` and a signed
//! vector with spikes. Each document is asked the same point, range and
//! avg queries, valid and refused (out-of-range indices, empty and
//! inverted ranges, bad usage), and each case records the exit code,
//! stdout and stderr. The usage text that follows every `error:` line
//! is recorded once, at the top, and marked `(usage)` in each case.
//!
//! A mismatch means the CLI's answers changed. The transcript of the
//! failing run is written to `query_transcript.now.txt` under the cargo
//! target's test scratch directory for diffing.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The queries every document is asked, as positional arguments.
const QUERIES: &[&[&str]] = &[
    &["point", "0"],
    &["point", "5"],
    &["point", "63"],
    &["point", "64"],
    &["point"],
    &["point", "x"],
    &["point", "1", "2"],
    &["range", "0", "64"],
    &["range", "3", "17"],
    &["range", "10", "10"],
    &["range", "20", "10"],
    &["range", "0", "65"],
    &["range", "5"],
    &["avg", "0", "64"],
    &["avg", "5", "9"],
    &["avg", "7", "7"],
    &["avg", "9", "3"],
    &[],
    &["frob", "1"],
];

/// `(name, build flags)` of every document built per input.
const DOCUMENTS: &[(&str, &[&str])] = &[
    ("minmax-abs", &["--algo", "minmax", "--metric", "abs"]),
    ("minmax-rel1", &["--algo", "minmax", "--metric", "rel:1"]),
    ("hist-abs", &["--algo", "hist", "--metric", "abs"]),
    ("hist-rel1", &["--algo", "hist", "--metric", "rel:1"]),
    ("greedy", &["--algo", "greedy", "--metric", "abs"]),
    ("stream", &["--algo", "stream", "--metric", "abs"]),
];

/// Exit code, stdout and stderr of one `wsyn` run.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_wsyn"))
        .args(args)
        .output()
        .expect("spawn wsyn");
    (
        output.status.code(),
        String::from_utf8(output.stdout).expect("UTF-8 stdout"),
        String::from_utf8(output.stderr).expect("UTF-8 stderr"),
    )
}

/// Appends one case: the command as shown (`shown`), then the run's
/// exit code, stdout and stderr, with the trailing usage block marked.
fn record(out: &mut String, usage: &str, shown: &str, args: &[&str]) {
    let (code, stdout, stderr) = run(args);
    let stderr = stderr
        .strip_suffix(usage)
        .map_or(stderr.clone(), |head| format!("{head}(usage)\n"));
    let _ = write!(
        out,
        "$ wsyn {shown}\nexit: {code:?}\nstdout:\n{stdout}stderr:\n{stderr}\n"
    );
}

/// The signed input: a sawtooth with spikes of both signs.
fn signed_data() -> String {
    (0..64i32)
        .map(|i| {
            let base = f64::from((i * 37 + 11) % 23) * 1.5 - 16.0;
            let spike = match i % 16 {
                5 => 120.0,
                12 => -75.25,
                _ => 0.0,
            };
            format!("{}\n", base + spike)
        })
        .collect()
}

fn transcript(dir: &Path) -> String {
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (help_code, usage, _) = run(&["help"]);
    assert_eq!(help_code, Some(0));
    let mut out = format!("usage block:\n{usage}\n");

    let zipf = path("zipf.txt");
    let (code, _, stderr) = run(&[
        "generate", "--kind", "zipf", "--n", "64", "--seed", "42", "--out", &zipf,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let signed = path("signed.txt");
    std::fs::write(&signed, signed_data()).unwrap();

    for (input_name, input) in [("zipf", &zipf), ("signed", &signed)] {
        for &(doc_name, flags) in DOCUMENTS {
            let name = format!("{input_name}-{doc_name}.json");
            let doc = path(&name);
            let mut args = vec!["build", "--input", input, "--budget", "8", "--out", &doc];
            args.extend_from_slice(flags);
            let (code, _, stderr) = run(&args);
            assert_eq!(code, Some(0), "build {name}: {stderr}");

            for metric in [None, Some("abs"), Some("rel:1")] {
                let mut args = vec!["eval", "--synopsis", &doc, "--input", input];
                let mut shown = format!("eval --synopsis {name} --input {input_name}.txt");
                if let Some(m) = metric {
                    args.extend_from_slice(&["--metric", m]);
                    let _ = write!(shown, " --metric {m}");
                }
                record(&mut out, &usage, &shown, &args);
            }
            for query in QUERIES {
                let mut args = vec!["query", "--synopsis", &doc];
                args.extend_from_slice(query);
                let shown = format!("query --synopsis {name} {}", query.join(" "));
                record(&mut out, &usage, shown.trim_end(), &args);
            }
        }
    }
    out
}

#[test]
fn query_and_eval_output_matches_the_recording() {
    let dir = std::env::temp_dir().join(format!("wsyn-query-transcript-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let now = transcript(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    let recorded = include_str!("transcripts/query_transcript.txt");
    if now != recorded {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("query_transcript.now.txt");
        std::fs::write(&dump, &now).unwrap();
        let first = now
            .lines()
            .zip(recorded.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map_or_else(
                || {
                    format!(
                        "(no line-level diff; lengths {} vs {})",
                        now.lines().count(),
                        recorded.lines().count()
                    )
                },
                |(i, (a, b))| format!("line {}:\n  now:      {a}\n  recorded: {b}", i + 1),
            );
        panic!(
            "CLI query transcript drifted from its recording (now written to {});\n\
             first diverging line:\n{first}",
            dump.display()
        );
    }
}
