//! The ledger's correctness checks are live — each one fails when fed a
//! corrupted expectation — and its exact counters repeat bit for bit at
//! a seed while the seed reaches every input generator.

use wsyn_ledger::clock::Stopwatch;
use wsyn_ledger::serve::{self, Frame, Harness};
use wsyn_ledger::trace::Tracer;
use wsyn_ledger::{build_1d, run, serve_mixed, serve_read, stream_ingest, Workload, TEST};

#[test]
fn build_checks_catch_a_halved_objective_or_a_flipped_bit() {
    let instances = build_1d::instances(5, &TEST);
    let built: Vec<_> = instances
        .iter()
        .map(|i| build_1d::build(i, None, 0).unwrap())
        .collect();
    assert_eq!(build_1d::check_guarantees(&instances, &built), Ok(()));

    let mut halved = built.clone();
    for b in &mut halved {
        b.wavelet.objective /= 2.0;
    }
    assert!(build_1d::check_guarantees(&instances, &halved).is_err());
    let mut halved = built.clone();
    for b in &mut halved {
        b.hist.objective /= 2.0;
    }
    assert!(build_1d::check_guarantees(&instances, &halved).is_err());

    let bits = build_1d::objective_bits(&built);
    assert_eq!(build_1d::check_same_bits(&bits, &bits), Ok(()));
    let mut flipped = bits.clone();
    flipped[3] ^= 1;
    assert!(build_1d::check_same_bits(&bits, &flipped).is_err());
}

#[test]
fn stream_checks_catch_a_halved_objective_or_an_exceeded_bound() {
    let (data, bound) = stream_ingest::input(5, &TEST);
    let pass = stream_ingest::pass(&data, bound, None).unwrap();
    assert_eq!(stream_ingest::check_pass(&data, &pass), Ok(()));

    let mut halved = pass.clone();
    halved.run.objective /= 2.0;
    assert!(stream_ingest::check_pass(&data, &halved).is_err());
    let mut tight = pass.clone();
    tight.bound_cells = tight.run.peak_cells - 1;
    assert!(stream_ingest::check_pass(&data, &tight).is_err());

    let objective = pass.run.objective;
    assert_eq!(
        stream_ingest::check_same_objective(objective, &[objective]),
        Ok(())
    );
    assert!(stream_ingest::check_same_objective(objective, &[objective * 1.5]).is_err());
}

/// Changes the first digit of a response payload, keeping it valid JSON.
fn corrupt(frame: &mut Frame) {
    let at = frame
        .response
        .iter()
        .position(u8::is_ascii_digit)
        .expect("a response with a number");
    frame.response[at] = b'0' + (frame.response[at] - b'0' + 1) % 10;
}

#[test]
fn serve_checks_catch_shifted_truth_and_altered_bytes() {
    let columns = serve_read::columns(5, &TEST);
    let scripts = serve_read::scripts(5, &TEST);
    let harness = Harness::start(&columns).unwrap();
    let setup = harness.setup_frames.clone();
    let mut clients: Vec<_> = scripts.iter().map(|_| harness.connect().unwrap()).collect();
    let (_, conns) = serve::run_round(&mut clients, &scripts, Some(Stopwatch::start())).unwrap();
    drop(clients);
    harness.stop().unwrap();
    let frames: Vec<Vec<Frame>> = conns.into_iter().map(|c| c.frames).collect();
    let flat = frames.concat();

    assert!(serve::check_point_intervals(&columns, &flat).unwrap() > 0);
    let mut shifted = columns.clone();
    for c in &mut shifted {
        for v in &mut c.data {
            *v += 1e9;
        }
    }
    assert!(serve::check_point_intervals(&shifted, &flat).is_err());

    let replay = |frames: &[Vec<Frame>]| {
        let from = vec![0; frames.len()];
        let handled = serve::replay_handle(&setup, frames, &from, &mut Tracer::new()).unwrap();
        serve::check_replay(handled.mismatches)
    };
    assert_eq!(replay(&frames), Ok(()));
    let mut altered = frames.clone();
    corrupt(&mut altered[0][4]);
    assert!(replay(&altered).is_err());

    let prints = [1u64, 2];
    assert_eq!(
        serve::check_same_fingerprints(&prints, &[prints.to_vec()]),
        Ok(())
    );
    assert!(serve::check_same_fingerprints(&prints, &[vec![1, 3]]).is_err());
    assert_eq!(serve_mixed::check_rebuilds(3, 3), Ok(()));
    assert!(serve_mixed::check_rebuilds(3, 4).is_err());
}

/// The metrics of a traced run that are exact counts.
fn exact_counters(workload: Workload, seed: u64) -> Vec<(&'static str, u64)> {
    let outcome = run(workload, seed, 0.0, true, &TEST).unwrap();
    assert!(
        outcome.correct(),
        "{}: {:?}",
        workload.name(),
        outcome.checks
    );
    outcome
        .metrics
        .iter()
        .filter(|m| matches!(m.unit, "count" | "B"))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn exact_counters_repeat_at_a_seed() {
    for w in Workload::ALL {
        assert_eq!(exact_counters(w, 11), exact_counters(w, 11), "{}", w.name());
    }
}

#[test]
fn the_seed_reaches_every_generator() {
    let data = |cols: Vec<serve::ColumnSpec>| cols.into_iter().map(|c| c.data).collect::<Vec<_>>();
    let inputs = |i: Vec<build_1d::Instance>| i.into_iter().map(|i| i.data).collect::<Vec<_>>();
    assert_ne!(
        inputs(build_1d::instances(11, &TEST)),
        inputs(build_1d::instances(12, &TEST))
    );
    assert_ne!(
        data(serve_read::columns(11, &TEST)),
        data(serve_read::columns(12, &TEST))
    );
    assert_ne!(
        format!("{:?}", serve_read::scripts(11, &TEST)),
        format!("{:?}", serve_read::scripts(12, &TEST))
    );
    assert_ne!(
        data(serve_mixed::columns(11, &TEST)),
        data(serve_mixed::columns(12, &TEST))
    );
    assert_ne!(
        stream_ingest::input(11, &TEST),
        stream_ingest::input(12, &TEST)
    );
    assert_ne!(
        exact_counters(Workload::Build1d, 11),
        exact_counters(Workload::Build1d, 12)
    );
}
