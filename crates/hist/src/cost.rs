//! Bucket cost machinery shared by the DP and the enumeration oracle.
//!
//! The cost of fitting one constant to items `l..=r` under per-item
//! denominators `r_i` (the weighted L∞ fit) has a closed pairwise form:
//! the optimal value `v` satisfies `d_i − t·r_i ≤ v ≤ d_j + t·r_j` for
//! every pair, so the optimal error is
//!
//! ```text
//! t*(l, r) = max_{l ≤ i, j ≤ r} (d_i − d_j) / (r_i + r_j)   (clamped ≥ 0)
//! ```
//!
//! Everything in this crate computes costs as **exactly this maximum
//! over a finite candidate set**, where each candidate is the fixed
//! float expression `fl(fl(|d_i − d_j|) / fl(r_i + r_j))` (taken on
//! halved operands where `r_i + r_j` overflows; see `candidate`). That
//! choice is load-bearing for the solver's twin discipline: a bucket's
//! candidate set only shrinks when the bucket shrinks, and `max` over a
//! subset is `≤` the max over the superset *bit-exactly* — so the DP's
//! cost matrix is monotone in the sense the binary-search split
//! strategy needs, with no epsilon anywhere.
//!
//! For the uniform (absolute-metric) case all denominators are `1`, the
//! pairwise max collapses to `fl(fl(max − min) / 2)`, and range
//! max/min come from O(1) sparse-table queries. The collapse is itself
//! bit-exact (rounding is monotone, and the extreme pair is a
//! candidate), which `uniform_denominators_match_the_sparse_table`
//! verifies. Where `max − min` overflows (data near `f64::MAX`), the
//! uniform half-range is taken as `max/2 − min/2` instead: halving is
//! exact, so both forms round the same real `(max − min)/2`, and every
//! input whose range is finite keeps its bits.

/// `(hi − lo) / 2`, computed as `hi/2 − lo/2` only when `hi − lo`
/// overflows, so it is finite whenever `hi` and `lo` are.
fn half_range(hi: f64, lo: f64) -> f64 {
    let range = hi - lo;
    if range.is_finite() {
        range / 2.0
    } else {
        hi / 2.0 - lo / 2.0
    }
}

/// The weighted candidate `|d_i − d_j| / (r_i + r_j)`. Where the
/// denominator sum overflows — for the relative metric's `r ≥ |d|` it
/// does whenever the difference does — both sides are halved first:
/// halving is exact, so the quotient rounds the same real value, where
/// the plain form would give `0` or `NaN` and understate the bucket's
/// cost. Every input whose sums are finite keeps its bits.
#[inline]
fn candidate(di: f64, dj: f64, ri: f64, rj: f64) -> f64 {
    let rsum = ri + rj;
    if rsum.is_finite() {
        (di - dj).abs() / rsum
    } else {
        (di / 2.0 - dj / 2.0).abs() / (ri / 2.0 + rj / 2.0)
    }
}

/// Sparse tables answering range max/min over `data` in O(1).
pub(crate) struct RangeExtrema {
    maxes: Vec<Vec<f64>>,
    mins: Vec<Vec<f64>>,
}

impl RangeExtrema {
    pub(crate) fn new(data: &[f64]) -> RangeExtrema {
        let n = data.len();
        let mut maxes = vec![data.to_vec()];
        let mut mins = vec![data.to_vec()];
        let mut half = 1usize;
        while half * 2 <= n {
            let prev_max = &maxes[maxes.len() - 1];
            let prev_min = &mins[mins.len() - 1];
            let mut row_max = Vec::with_capacity(n - half * 2 + 1);
            let mut row_min = Vec::with_capacity(n - half * 2 + 1);
            for i in 0..=(n - half * 2) {
                row_max.push(prev_max[i].max(prev_max[i + half]));
                row_min.push(prev_min[i].min(prev_min[i + half]));
            }
            maxes.push(row_max);
            mins.push(row_min);
            half *= 2;
        }
        RangeExtrema { maxes, mins }
    }

    /// `floor(log2(len))` for `len ≥ 1`.
    fn level(len: usize) -> usize {
        (usize::BITS - 1 - len.leading_zeros()) as usize
    }

    /// Maximum over the inclusive index range `l..=r`.
    pub(crate) fn max(&self, l: usize, r: usize) -> f64 {
        let k = Self::level(r - l + 1);
        self.maxes[k][l].max(self.maxes[k][r + 1 - (1 << k)])
    }

    /// Minimum over the inclusive index range `l..=r`.
    pub(crate) fn min(&self, l: usize, r: usize) -> f64 {
        let k = Self::level(r - l + 1);
        self.mins[k][l].min(self.mins[k][r + 1 - (1 << k)])
    }
}

/// The cost oracle a solver run consults: `cost(m, end)` is the
/// weighted L∞ fit error of the bucket covering items `m..=end`.
///
/// Uniform denominators answer from [`RangeExtrema`] in O(1). The
/// weighted form maintains one cost row per right endpoint, extended
/// incrementally (`O(n)` per endpoint, `O(n²)` for a whole forward
/// sweep); asking for an earlier endpoint rebuilds the row from
/// scratch, which only the reconstruction scan does.
pub(crate) struct Costs<'a> {
    data: &'a [f64],
    denoms: Option<&'a [f64]>,
    extrema: Option<RangeExtrema>,
    /// Weighted only: `row[m]` = cost of `m..=end` for the current
    /// `end`.
    row: Vec<f64>,
    end: Option<usize>,
    /// Cost queries served (the solver's work counter).
    pub(crate) evals: usize,
}

impl<'a> Costs<'a> {
    pub(crate) fn new(data: &'a [f64], denoms: Option<&'a [f64]>) -> Costs<'a> {
        let extrema = match denoms {
            None => Some(RangeExtrema::new(data)),
            Some(_) => None,
        };
        Costs {
            data,
            denoms,
            extrema,
            row: vec![0.0; data.len()],
            end: None,
            evals: 0,
        }
    }

    /// Makes `cost(·, end)` answerable. Sequential calls (`end` equal
    /// to or one past the previous) are incremental; anything else
    /// rebuilds from item 0.
    pub(crate) fn advance_to(&mut self, end: usize) {
        if self.denoms.is_none() || self.end == Some(end) {
            return;
        }
        let from = match self.end {
            Some(prev) if prev + 1 == end => end,
            _ => 0,
        };
        for e in from..=end {
            self.extend(e);
        }
    }

    /// Extends the weighted cost row by one item on the right: every
    /// `row[m]` absorbs the new pairs `(e, s)` for `s ∈ m..e` via a
    /// running suffix max, keeping each entry the exact pairwise max
    /// over its bucket.
    fn extend(&mut self, e: usize) {
        let (data, den) = (self.data, self.denoms.unwrap_or(&[]));
        self.row[e] = 0.0;
        let mut suffix = 0.0f64;
        for m in (0..e).rev() {
            suffix = suffix.max(candidate(data[e], data[m], den[e], den[m]));
            self.row[m] = self.row[m].max(suffix);
        }
        self.end = Some(e);
    }

    /// The fit cost of the bucket `m..=end`. Weighted callers must have
    /// called [`Costs::advance_to`] with this `end`.
    pub(crate) fn cost(&mut self, m: usize, end: usize) -> f64 {
        self.evals += 1;
        match &self.extrema {
            Some(ex) => half_range(ex.max(m, end), ex.min(m, end)),
            None => {
                debug_assert_eq!(self.end, Some(end), "weighted row not advanced");
                self.row[m]
            }
        }
    }
}

/// The fit of one bucket computed standalone: `(cost, value)`. The cost
/// bit-matches what [`Costs`] answers for the same bucket (same
/// candidate set, same float expressions); the value is the midpoint of
/// the feasible band at that cost.
pub(crate) fn fit(data: &[f64], denoms: Option<&[f64]>, l: usize, r: usize) -> (f64, f64) {
    match denoms {
        None => {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &d in &data[l..=r] {
                lo = lo.min(d);
                hi = hi.max(d);
            }
            let half = half_range(hi, lo);
            (half, lo + half)
        }
        Some(den) => {
            let mut cost = 0.0f64;
            for i in l..=r {
                for j in l..i {
                    cost = cost.max(candidate(data[i], data[j], den[i], den[j]));
                }
            }
            // The feasible band for the value at error `cost`:
            // every item demands v ∈ [d_i − cost·r_i, d_i + cost·r_i].
            let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
            for i in l..=r {
                lo = lo.max(data[i] - cost * den[i]);
                hi = hi.min(data[i] + cost * den[i]);
            }
            (cost, lo + half_range(hi, lo))
        }
    }
}

/// The objective of the empty (zero-bucket) synopsis, which
/// reconstructs every value as `0.0`: `max_i |d_i| / r_i`. Mirrors the
/// wavelet solvers' `B = 0` convention.
pub(crate) fn zero_objective(data: &[f64], denoms: Option<&[f64]>) -> f64 {
    let mut worst = 0.0f64;
    for (i, &d) in data.iter().enumerate() {
        let err = match denoms {
            None => d.abs(),
            Some(den) => d.abs() / den[i],
        };
        worst = worst.max(err);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<f64> {
        (0..37)
            .map(|i| f64::from((i * 31 + 7) % 19) - 9.0)
            .collect()
    }

    #[test]
    fn sparse_table_matches_scans() {
        let d = data();
        let ex = RangeExtrema::new(&d);
        for l in 0..d.len() {
            for r in l..d.len() {
                let hi = d[l..=r].iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let lo = d[l..=r].iter().copied().fold(f64::INFINITY, f64::min);
                assert_eq!(ex.max(l, r).to_bits(), hi.to_bits(), "[{l}, {r}]");
                assert_eq!(ex.min(l, r).to_bits(), lo.to_bits(), "[{l}, {r}]");
            }
        }
    }

    #[test]
    fn uniform_denominators_match_the_sparse_table() {
        // The pairwise weighted cost with all denominators 1 must be
        // bit-identical to the (max − min)/2 fast path — both are the
        // max over the same rounded candidate set.
        let d = data();
        let ones = vec![1.0; d.len()];
        let mut uniform = Costs::new(&d, None);
        let mut weighted = Costs::new(&d, Some(&ones));
        for end in 0..d.len() {
            weighted.advance_to(end);
            for m in 0..=end {
                assert_eq!(
                    uniform.cost(m, end).to_bits(),
                    weighted.cost(m, end).to_bits(),
                    "bucket [{m}, {end}]"
                );
            }
        }
    }

    #[test]
    fn incremental_row_matches_standalone_fit() {
        let d = data();
        let den: Vec<f64> = d.iter().map(|v| v.abs().max(1.0)).collect();
        let mut costs = Costs::new(&d, Some(&den));
        for end in 0..d.len() {
            costs.advance_to(end);
            for m in 0..=end {
                let (standalone, _) = fit(&d, Some(&den), m, end);
                assert_eq!(
                    costs.cost(m, end).to_bits(),
                    standalone.to_bits(),
                    "bucket [{m}, {end}]"
                );
            }
        }
        // Rebuilding for an earlier endpoint (the reconstruction-scan
        // access pattern) answers the same bits.
        costs.advance_to(3);
        let (standalone, _) = fit(&d, Some(&den), 1, 3);
        assert_eq!(costs.cost(1, 3).to_bits(), standalone.to_bits());
    }

    #[test]
    fn fit_value_achieves_the_cost_on_integer_data() {
        let d = data();
        for (l, r) in [(0usize, 0usize), (0, 5), (3, 17), (10, 36)] {
            let (cost, value) = fit(&d, None, l, r);
            let achieved = d[l..=r]
                .iter()
                .map(|&x| (x - value).abs())
                .fold(0.0f64, f64::max);
            assert_eq!(achieved.to_bits(), cost.to_bits(), "[{l}, {r}]");
        }
    }

    #[test]
    fn zero_objective_is_the_worst_zero_reconstruction_error() {
        let d = data();
        assert_eq!(zero_objective(&d, None), 9.0);
        let den: Vec<f64> = d.iter().map(|v| v.abs().max(1.0)).collect();
        let z = zero_objective(&d, Some(&den));
        assert!((0.0..=1.0).contains(&z));
    }
}
