//! Output pins for the two solver-facing conformance reports: the
//! `family-race` and `streaming-approx` transcripts, recorded once and
//! compared byte for byte.
//!
//! CI already diffs each report against itself across pool sizes, but a
//! change that moves every objective bit consistently would pass that
//! diff. These recordings catch it: the family race pins the offline
//! wavelet DP's objective bits and kept counts (and the server's `auto`
//! build bytes), the streaming report pins the one-pass sketch's
//! objective bits, kept counts and `peak_cells`.
//!
//! Inputs are the golden corpus (N ≤ 32) plus a fixed-seed slice of
//! larger 1-D instances (N = 256 and 512) shaped like the generator
//! families, so the error tree has memoized levels above the bottom two
//! and budgets that split across many subtrees. A mismatch means the
//! solvers' outputs changed; it is never a re-recording opportunity
//! unless that change is the intent.

use wsyn_conform::gen::{Instance, MetricSpec};
use wsyn_conform::{corpus, family_race, streaming_approx};
use wsyn_datagen::ZipfPlacement;

/// One large instance; names end in `-<seed>` so the family race
/// tallies them under their generator shape.
fn large(shape: &str, seed: u64, data: Vec<i64>) -> Instance {
    let n = data.len();
    Instance {
        name: format!("{shape}-n{n}-{seed}"),
        shape: vec![n],
        data,
        budgets: vec![0, 1, 2, 3, 5, 8, 16, 32],
        metrics: vec![MetricSpec::Abs, MetricSpec::Rel(50.0)],
        updates: Vec::new(),
        seed,
    }
}

/// The fixed-seed slice of larger instances: zipf, spikes, plateaus and
/// the two tie-heavy shapes (sign-alternating, near-tie).
fn large_slice() -> Vec<Instance> {
    let q = wsyn_datagen::quantize_to_i64;
    let seed = 7;
    let alternating: Vec<i64> = (0..256i64)
        .map(|i| (if i % 2 == 0 { 17 } else { -17 }) + i / 32)
        .collect();
    let near_tie: Vec<i64> = q(&wsyn_datagen::spikes(256, 0, (0.0, 0.0), (-1.0, 1.0), seed))
        .into_iter()
        .map(|v| if v < 0 { -9 + v } else { 9 + v })
        .collect();
    vec![
        large(
            "zipf",
            seed,
            q(&wsyn_datagen::zipf(
                256,
                1.0,
                20_000.0,
                ZipfPlacement::Shuffled,
                seed,
            )),
        ),
        large(
            "spikes",
            seed,
            q(&wsyn_datagen::spikes(
                256,
                6,
                (60.0, 200.0),
                (-3.0, 3.0),
                seed,
            )),
        ),
        large(
            "plateaus",
            seed,
            q(&wsyn_datagen::piecewise_constant(
                512,
                6,
                (-40.0, 40.0),
                0.0,
                seed,
            )),
        ),
        large("sign-alternating", seed, alternating),
        large("near-tie", seed, near_tie),
    ]
}

/// Golden corpus followed by the large slice, in that fixed order.
fn instances() -> Vec<Instance> {
    let docs = corpus::load_dir(&corpus::default_dir()).expect("corpus directory loads");
    assert!(!docs.is_empty(), "golden corpus must be present");
    let mut out: Vec<Instance> = docs.into_iter().map(|(_, doc)| doc.instance).collect();
    out.extend(large_slice());
    out
}

/// Byte comparison with the first diverging line in the message.
fn assert_matches_recording(what: &str, now: &str, recorded: &str) {
    assert!(
        now == recorded,
        "{what} transcript drifted from its recording;\nfirst diverging line:\n{}",
        now.lines()
            .zip(recorded.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map_or_else(
                || format!(
                    "(no line-level diff; lengths {} vs {})",
                    now.lines().count(),
                    recorded.lines().count()
                ),
                |(i, (a, b))| format!("line {}:\n  now:      {a}\n  recorded: {b}", i + 1)
            )
    );
}

#[test]
fn family_race_report_matches_the_recording() {
    let owned = instances();
    let refs: Vec<&Instance> = owned.iter().collect();
    let now = family_race::report(&refs).expect("family race report");
    assert_matches_recording(
        "family-race",
        &now,
        include_str!("transcripts/family_race_report.txt"),
    );
}

#[test]
fn streaming_approx_report_matches_the_recording() {
    let owned = instances();
    let refs: Vec<&Instance> = owned.iter().collect();
    let now = streaming_approx::report(&refs).expect("streaming-approx report");
    assert_matches_recording(
        "streaming-approx",
        &now,
        include_str!("transcripts/streaming_approx_report.txt"),
    );
}
