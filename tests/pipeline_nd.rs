//! Cross-crate integration for the multi-dimensional schemes (§3.2):
//! datagen cubes → nonstandard error tree → approximate DPs → N-D range
//! queries on the synopsis, verifying the theorems' guarantees end to end.

use wavelet_synopses::datagen::{cube_bumps, quantize_to_i64};
use wavelet_synopses::haar::nd::{NdArray, NdShape};
use wavelet_synopses::synopsis::multi_dim::additive::AdditiveScheme;
use wavelet_synopses::synopsis::multi_dim::integer::IntegerExact;
use wavelet_synopses::synopsis::multi_dim::oneplus::OnePlusEps;
use wavelet_synopses::synopsis::ErrorMetric;

fn cube_2d(side: usize, seed: u64) -> (NdShape, Vec<i64>) {
    let shape = NdShape::hypercube(side, 2).unwrap();
    let data = quantize_to_i64(&cube_bumps(side, 2, 3, (50.0, 200.0), 5.0, seed));
    (shape, data)
}

/// Theorem 3.4 on synthetic cubes: the (1+ε) scheme's true objective never
/// exceeds (1+ε)·OPT, with OPT from the pseudo-polynomial exact DP.
#[test]
fn oneplus_guarantee_on_cubes() {
    let (shape, data) = cube_2d(8, 4);
    let exact = IntegerExact::new(&shape, &data).unwrap();
    let scheme = OnePlusEps::new(&shape, &data).unwrap();
    for b in [4usize, 8, 16] {
        let opt = exact.run(b).true_objective;
        for eps in [0.5, 0.1] {
            let r = scheme.run(b, eps);
            assert!(
                r.true_objective <= (1.0 + eps) * opt + 1e-9,
                "b={b} eps={eps}: {} vs (1+eps)*{opt}",
                r.true_objective
            );
            assert!(r.true_objective >= opt - 1e-9);
        }
    }
}

/// Theorem 3.2 on synthetic cubes: additive scheme within εR (+ sub-1
/// truncation slack) of the exact optimum.
#[test]
fn additive_guarantee_on_cubes() {
    let (shape, data) = cube_2d(4, 9);
    let data_f: Vec<f64> = data.iter().map(|&v| v as f64).collect();
    let arr = NdArray::new(shape.clone(), data_f.clone()).unwrap();
    let scheme = AdditiveScheme::new(&arr).unwrap();
    let exact = IntegerExact::new(&shape, &data).unwrap();
    let r_max = scheme
        .tree()
        .coeffs()
        .data()
        .iter()
        .fold(0.0f64, |a, &c| a.max(c.abs()));
    let hops = 4.0 * 2.0 + 1.0;
    for b in [2usize, 6, 10] {
        for eps in [0.4, 0.1] {
            let r = scheme.run(b, ErrorMetric::absolute(), eps);
            let opt = exact.run(b).true_objective;
            assert!(
                r.true_objective <= opt + eps * r_max + hops + 1e-9,
                "b={b} eps={eps}: {} vs {opt} + {}",
                r.true_objective,
                eps * r_max
            );
        }
    }
}

/// N-D range queries from a multi-dimensional synopsis agree with its own
/// reconstruction, and absolute guarantees transfer to range sums.
#[test]
fn nd_queries_consistent_with_reconstruction() {
    let (shape, data) = cube_2d(8, 13);
    let scheme = OnePlusEps::new(&shape, &data).unwrap();
    let r = scheme.run(12, 0.25);
    let recon = r.synopsis.reconstruct();
    for (r0, r1) in [
        (0..8usize, 0..8usize),
        (2..6, 1..7),
        (0..1, 0..8),
        (7..8, 7..8),
    ] {
        let mut expect = 0.0;
        for x0 in r0.clone() {
            for x1 in r1.clone() {
                expect += recon.get(&[x0, x1]);
            }
        }
        let got = r.synopsis.range_sum(&[r0.clone(), r1.clone()]);
        assert!(
            (got - expect).abs() < 1e-6 * (1.0 + expect.abs()),
            "{r0:?}x{r1:?}: {got} vs {expect}"
        );
        // Guarantee transfer: true range sum within ±err·cells.
        let mut truth = 0.0;
        for x0 in r0.clone() {
            for x1 in r1.clone() {
                truth += data[shape.linearize(&[x0, x1])] as f64;
            }
        }
        let cells = ((r0.end - r0.start) * (r1.end - r1.start)) as f64;
        assert!(
            (got - truth).abs() <= r.true_objective * cells + 1e-6,
            "{r0:?}x{r1:?}: |{got} - {truth}| > {} * {cells}",
            r.true_objective
        );
    }
}

/// Three-dimensional end-to-end smoke: both schemes run and respect their
/// budgets on a 4^3 cube.
#[test]
fn three_d_end_to_end() {
    let shape = NdShape::hypercube(4, 3).unwrap();
    let data = quantize_to_i64(&cube_bumps(4, 3, 2, (20.0, 80.0), 2.0, 21));
    let data_f: Vec<f64> = data.iter().map(|&v| v as f64).collect();
    let arr = NdArray::new(shape.clone(), data_f.clone()).unwrap();

    let additive = AdditiveScheme::new(&arr).unwrap();
    let ra = additive.run(10, ErrorMetric::relative(1.0), 0.3);
    assert!(ra.synopsis.len() <= 10);
    assert!(ra.true_objective.is_finite());

    let oneplus = OnePlusEps::new(&shape, &data).unwrap();
    let ro = oneplus.run(10, 0.5);
    assert!(ro.synopsis.len() <= 10);

    // More budget helps (both schemes, same config).
    let ra_full = additive.run(64, ErrorMetric::relative(1.0), 0.3);
    assert!(ra_full.true_objective <= ra.true_objective + 1e-9);
    assert_eq!(oneplus.run(64, 0.5).true_objective, 0.0);
}
