//! The histogram family behind the uniform [`Thresholder`] interface.
//!
//! `wsyn-hist` is a pure algorithm crate: it solves the optimal
//! at-most-`b`-bucket L∞ step-function problem over raw data and
//! per-item error denominators, and knows nothing about
//! [`ErrorMetric`]. This adapter owns the mapping: the absolute metric
//! becomes the uniform (denominator-free) fast path, the relative
//! metric becomes the weighted problem with `r_i = max{|d_i|, s}` —
//! exactly [`ErrorMetric::denom`] per item — so the DP's objective *is*
//! the guaranteed maximum error under the requested metric. The DP
//! always runs its binary-search split; `wsyn_hist::solve` takes the
//! exhaustive twin for certification.

use wsyn_core::{DpStats, WsynError};
use wsyn_hist::SplitStrategy;

use crate::metric::ErrorMetric;
use crate::thresholder::{AnySynopsis, RunParams, ThresholdRun, Thresholder};

/// Stout's optimal b-bucket L∞ step-function solver as a
/// [`Thresholder`]: "budget" counts buckets instead of coefficients,
/// and the reported objective is the guaranteed optimal maximum error.
#[derive(Debug, Clone)]
pub struct HistThresholder {
    data: Vec<f64>,
}

impl HistThresholder {
    /// Builds the solver over raw data (validated at solve time, like
    /// the other families' constructors validate at transform time).
    #[must_use]
    pub fn new(data: &[f64]) -> HistThresholder {
        HistThresholder {
            data: data.to_vec(),
        }
    }
}

impl Thresholder for HistThresholder {
    fn name(&self) -> &'static str {
        "hist"
    }

    fn has_guarantee(&self) -> bool {
        true
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("hist");
        let denoms: Option<Vec<f64>> = match params.metric {
            ErrorMetric::Absolute => None,
            ErrorMetric::Relative { .. } => {
                Some(self.data.iter().map(|&d| params.metric.denom(d)).collect())
            }
        };
        let r = {
            let _dp = params.obs.span("dp");
            let r = wsyn_hist::solve(
                &self.data,
                denoms.as_deref(),
                params.budget,
                SplitStrategy::Binary,
            )?;
            let stats = DpStats {
                // One DP cell per (buckets-used, prefix-length) pair.
                states: (params.budget.min(self.data.len()) + 1) * (self.data.len() + 1),
                leaf_evals: r.cost_evals,
                probes: 0,
                peak_live: 0,
            };
            params.obs.record_dp_stats(&stats);
            (r, stats)
        };
        params.obs.add("buckets", r.0.synopsis.len());
        Ok(ThresholdRun {
            synopsis: AnySynopsis::Histogram(r.0.synopsis),
            objective: r.0.objective,
            stats: r.1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholder::SolverScratch;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn objective_is_the_measured_error_of_the_buckets() {
        let t = HistThresholder::new(&EXAMPLE);
        for metric in [ErrorMetric::absolute(), ErrorMetric::relative(1.0)] {
            for b in 0..=8usize {
                let run = t.threshold(b, metric).unwrap();
                assert!(run.synopsis.len() <= b, "b={b}");
                let AnySynopsis::Histogram(syn) = &run.synopsis else {
                    panic!("hist must produce a histogram synopsis");
                };
                let measured = metric.max_error(&EXAMPLE, &syn.reconstruct());
                assert!(
                    measured <= run.objective + 1e-9,
                    "b={b} {metric:?}: measured {measured} > objective {}",
                    run.objective
                );
            }
        }
    }

    #[test]
    fn reusing_matches_cold_and_eps_is_ignored() {
        let t = HistThresholder::new(&EXAMPLE);
        let mut scratch = SolverScratch::new();
        let params = RunParams::new(4, ErrorMetric::absolute()).eps(0.5);
        let cold = t.threshold(4, ErrorMetric::absolute()).unwrap();
        let reused = t.threshold_with_reusing(&params, &mut scratch).unwrap();
        assert_eq!(cold.objective.to_bits(), reused.objective.to_bits());
    }

    #[test]
    fn emits_a_span_tree_with_dp_counters() {
        let obs = wsyn_obs::Collector::recording();
        let t = HistThresholder::new(&EXAMPLE);
        let params = RunParams::new(3, ErrorMetric::absolute()).obs(obs.clone());
        t.threshold_with(&params).unwrap();
        drop(params);
        let root = obs.into_root().unwrap();
        assert_eq!(root.children[0].name, "hist");
        assert_eq!(root.children[0].children[0].name, "dp");
        assert!(root.children[0].children[0].counters.contains_key("states"));
    }
}
