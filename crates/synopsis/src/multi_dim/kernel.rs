//! The one dynamic program behind every multi-dimensional scheme (§3.2).
//!
//! Theorems 3.2 and 3.4 tabulate the same recurrence. `M[node, b, e]` is
//! the least maximum error reachable in `node`'s subtree with budget `b`
//! when dropped ancestors contribute the incoming error `e`. A node picks
//! a retained subset of its coefficients, which fixes each of its `2^D`
//! children's incoming error, and splits the rest of its budget across the
//! children with the paper's "list" generalization: suffix tables over the
//! children, one `O(log B)` split search per cell.
//!
//! The schemes differ only in their [`ErrorDomain`]: how an incoming error
//! is represented (rounded to `±(1+ε')^k`, or an exact scaled integer),
//! how a data cell values it, and which coefficients are forced. Rows are
//! memoized by `(node, error bits)` and hold every budget `0..=B`;
//! `states` counts row cells. Each run builds a fresh memo and row arena,
//! so its counters are a function of `(tree, domain, b)` alone. Memo
//! insertion order is part of the output (`probes` and `peak_live` depend
//! on it): retained subsets are tried in ascending mask order, children
//! are requested in quadrant order, and both the row and the root replace
//! an incumbent only when strictly better.

use wsyn_core::{is_zero, narrow_u32, DpStats, RowArena, RowId, StateTable};
use wsyn_haar::nd::NodeChildren;
use wsyn_haar::{ErrorTreeNd, NodeRef};

use crate::one_dim::{best_split, SplitSearch};

/// The two number types the DP runs on, as incoming errors (memo key,
/// zero test, accumulation of dropped coefficients) and as values (the
/// infeasible sentinel rows start from). `Default` is zero: the error
/// under a kept ancestor, and the value of an exact answer.
pub(crate) trait Scalar: Copy + PartialOrd + Default {
    /// Row initializer, worse than every reachable value.
    const INFEASIBLE: Self;
    /// Whether a root value means "no synopsis retains every forced
    /// coefficient". Only the integer DPs force coefficients.
    fn is_infeasible(self) -> bool;
    /// The error's bits in the memo key.
    fn key_bits(self) -> u64;
    /// Whether a coefficient is zero: a zero coefficient is left out of
    /// the subset enumeration unless forced, and a zero root average is
    /// never kept.
    fn is_zero(self) -> bool;
    /// `self` plus the dropped coefficient `v` entering with `sign` (±1).
    fn add_signed(self, sign: f64, v: Self) -> Self;
}

impl Scalar for f64 {
    const INFEASIBLE: f64 = f64::INFINITY;

    /// `f64` rows belong to schemes without forced coefficients, so a
    /// root of `+∞` is an overflowed error, traced like any other value.
    fn is_infeasible(self) -> bool {
        false
    }

    fn key_bits(self) -> u64 {
        self.to_bits()
    }

    fn is_zero(self) -> bool {
        is_zero(self)
    }

    fn add_signed(self, sign: f64, v: f64) -> f64 {
        self + sign * v
    }
}

impl Scalar for i64 {
    /// DP values are never added, only compared, so saturation is safe.
    const INFEASIBLE: i64 = i64::MAX;

    fn is_infeasible(self) -> bool {
        self == i64::MAX
    }

    fn key_bits(self) -> u64 {
        self as u64
    }

    fn is_zero(self) -> bool {
        self == 0
    }

    fn add_signed(self, sign: f64, v: i64) -> i64 {
        self.checked_add(if sign > 0.0 { v } else { -v })
            // The scaled-coefficient domain bound (checked at transform
            // time) keeps every path sum inside i64; overflow here means
            // corrupted inputs, not a recoverable state.
            // wsyn: allow(no-panic)
            .expect("integer error accumulation overflow")
    }
}

/// How one scheme represents incoming errors and values.
pub(crate) trait ErrorDomain {
    /// An incoming error, and a coefficient in the same units.
    type Err: Scalar;
    /// A DP value.
    type Val: Scalar;
    /// The coefficient at linear position `pos` (the root average at 0).
    fn coeff(&self, pos: usize) -> Self::Err;
    /// Whether the coefficient at `pos` must be retained.
    fn forced(&self, _pos: usize) -> bool {
        false
    }
    /// The error a subtree is tabulated under, once every dropped
    /// ancestor coefficient has been added.
    fn settle(&self, e: Self::Err) -> Self::Err {
        e
    }
    /// The value of data cell `cell` under incoming error `e`.
    fn leaf(&self, e: Self::Err, cell: usize) -> Self::Val;
}

/// Result of one kernel run.
pub(crate) struct DpOutcome<V> {
    /// The optimal objective in the domain's units. When it
    /// [`is_infeasible`](Scalar::is_infeasible), nothing was traced.
    pub value: V,
    /// Retained coefficient positions in trace order (the root average
    /// first, then each node's coefficients before its children's).
    pub retained: Vec<usize>,
    /// The run's DP counters.
    pub stats: DpStats,
}

impl<V: Scalar> DpOutcome<V> {
    /// The objective, or `None` when the forced set does not fit.
    pub fn feasible_value(&self) -> Option<V> {
        (!self.value.is_infeasible()).then_some(self.value)
    }
}

/// Solves `tree` under `dom` with budget `b`, in a memo and row arena
/// of its own. The budget is clamped to the number of coefficients `N`,
/// since every memo row holds `b + 1` cells and no synopsis keeps more
/// than `N`.
pub(crate) fn solve<D: ErrorDomain>(tree: &ErrorTreeNd, dom: &D, b: usize) -> DpOutcome<D::Val> {
    let b = b.min(tree.coeffs().data().len());
    let mut k = Kernel {
        tree,
        dom,
        b,
        memo: StateTable::new(),
        arena: RowArena::new(),
        states: 0,
        leaf_evals: 0,
    };
    // The root average reaches its one child subtree with sign +1.
    let avg = dom.coeff(0);
    let keep_ok = b >= 1 && !avg.is_zero();
    let forced = dom.forced(0);
    let drop_err = dom.settle(avg);
    let infeasible = D::Val::INFEASIBLE;
    let (value, keep_avg, child_budget) = match tree.root_children() {
        NodeChildren::Cells(cells) => {
            // One-cell domain: a dropped average reaches the cell as is.
            if keep_ok {
                (D::Val::default(), true, 0)
            } else if forced {
                (infeasible, false, 0)
            } else {
                (dom.leaf(avg, cells[0]), false, 0)
            }
        }
        NodeChildren::Nodes(nodes) => {
            let drop_val = if forced {
                infeasible
            } else {
                let row = k.node_row(nodes[0], drop_err);
                k.arena.values(row)[b]
            };
            let keep_val = if keep_ok {
                let row = k.node_row(nodes[0], D::Err::default());
                k.arena.values(row)[b - 1]
            } else {
                infeasible
            };
            if keep_val < drop_val {
                (keep_val, true, b - 1)
            } else {
                (drop_val, false, b)
            }
        }
    };
    let mut retained = Vec::new();
    if !value.is_infeasible() {
        if keep_avg {
            retained.push(0);
        }
        if let NodeChildren::Nodes(nodes) = tree.root_children() {
            let e0 = if keep_avg {
                D::Err::default()
            } else {
                drop_err
            };
            k.trace(nodes[0], child_budget, e0, &mut retained);
        }
    }
    DpOutcome {
        value,
        retained,
        stats: DpStats {
            states: k.states,
            leaf_evals: k.leaf_evals,
            probes: k.memo.probes(),
            // Arena rows live for the whole solve, so the peak is the
            // total number of budget cells materialized.
            peak_live: k.arena.elements(),
        },
    }
}

/// A node coefficient the subset enumeration ranges over.
struct Coeff<E> {
    bmask: u32,
    pos: usize,
    value: E,
    forced: bool,
}

/// One child's value per budget: a memoized row, or a data cell's value,
/// which no budget changes.
enum Child<V> {
    Row(RowId),
    Leaf(V),
}

impl<V: Copy> Child<V> {
    #[inline]
    fn get(&self, arena: &RowArena<V>, b: usize) -> V {
        match self {
            Child::Row(r) => arena.values(*r)[b],
            Child::Leaf(v) => *v,
        }
    }
}

struct Kernel<'a, D: ErrorDomain> {
    tree: &'a ErrorTreeNd,
    dom: &'a D,
    b: usize,
    memo: StateTable<RowId>,
    arena: RowArena<D::Val>,
    states: usize,
    leaf_evals: usize,
}

impl<D: ErrorDomain> Kernel<'_, D> {
    /// The node's coefficients the enumeration ranges over: the non-zero
    /// ones, plus any forced one whose value is zero in the domain's units
    /// (retention is about the original magnitude, not the scaled one).
    fn coeffs_of(&self, node: NodeRef) -> Vec<Coeff<D::Err>> {
        self.tree
            .node_coeffs(node)
            .into_iter()
            .filter_map(|c| {
                let value = self.dom.coeff(c.pos);
                let forced = self.dom.forced(c.pos);
                (forced || !value.is_zero()).then_some(Coeff {
                    bmask: c.bmask,
                    pos: c.pos,
                    value,
                    forced,
                })
            })
            .collect()
    }

    /// Computes (or fetches) the complete budget row for `(node, e)`.
    fn node_row(&mut self, node: NodeRef, e: D::Err) -> RowId {
        let key = node.state_key(e.key_bits());
        if let Some(&row) = self.memo.get(key) {
            return row;
        }
        let coeffs = self.coeffs_of(node);
        let children = self.tree.children(node);
        let forced_mask: u32 = coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.forced)
            .map(|(i, _)| 1u32 << i)
            .sum();
        let mut values = vec![D::Val::INFEASIBLE; self.b + 1];
        let mut choice = vec![0u32; self.b + 1];
        for s_mask in 0..(1u32 << coeffs.len()) {
            let cost = s_mask.count_ones() as usize;
            if s_mask & forced_mask != forced_mask || cost > self.b {
                continue;
            }
            let e_children = self.child_errors(e, &coeffs, s_mask, &children);
            let suffix = self.suffix_tables(&children, &e_children, self.b - cost);
            for b in cost..=self.b {
                let v = suffix[0][b - cost];
                if v < values[b] {
                    values[b] = v;
                    choice[b] = s_mask;
                }
            }
        }
        self.states += values.len();
        let row = self.arena.alloc(values, choice);
        self.memo.insert(key, row);
        row
    }

    /// Each child quadrant's incoming error when the node retains the
    /// subset `s_mask` of `coeffs`: `e` plus every dropped coefficient
    /// with its quadrant sign, then settled.
    fn child_errors(
        &self,
        e: D::Err,
        coeffs: &[Coeff<D::Err>],
        s_mask: u32,
        children: &NodeChildren,
    ) -> Vec<D::Err> {
        let count = match children {
            NodeChildren::Nodes(v) => v.len(),
            NodeChildren::Cells(v) => v.len(),
        };
        (0..count)
            .map(|delta| {
                let mut ec = e;
                for (ci, c) in coeffs.iter().enumerate() {
                    if s_mask >> ci & 1 == 0 {
                        let sign = ErrorTreeNd::child_sign(c.bmask, narrow_u32(delta));
                        ec = ec.add_signed(sign, c.value);
                    }
                }
                self.dom.settle(ec)
            })
            .collect()
    }

    /// Suffix allocation tables: `suffix[i][b]` is the least maximum error
    /// over children `i..` with total budget `≤ b` (the paper's list
    /// generalization). `suffix[0]` answers the node's query; the rest
    /// serve traceback. Materializes every child row it reads.
    fn suffix_tables(
        &mut self,
        children: &NodeChildren,
        e_children: &[D::Err],
        avail: usize,
    ) -> Vec<Vec<D::Val>> {
        let m = e_children.len();
        let child_vals: Vec<Child<D::Val>> = match children {
            NodeChildren::Nodes(nodes) => nodes
                .iter()
                .zip(e_children)
                .map(|(n, &ec)| Child::Row(self.node_row(*n, ec)))
                .collect(),
            NodeChildren::Cells(cells) => {
                self.leaf_evals += cells.len();
                cells
                    .iter()
                    .zip(e_children)
                    .map(|(&cell, &ec)| Child::Leaf(self.dom.leaf(ec, cell)))
                    .collect()
            }
        };
        let arena = &self.arena;
        let mut tables: Vec<Vec<D::Val>> = vec![Vec::new(); m];
        tables[m - 1] = (0..=avail)
            .map(|b| child_vals[m - 1].get(arena, b))
            .collect();
        for i in (0..m - 1).rev() {
            let row = (0..=avail)
                .map(|b| {
                    best_split(
                        &mut (),
                        b,
                        SplitSearch::Binary,
                        |_, bp| child_vals[i].get(arena, bp),
                        |_, bp| tables[i + 1][b - bp],
                    )
                    .0
                })
                .collect();
            tables[i] = row;
        }
        tables
    }

    /// Emits the retained coefficient positions of the optimal choice at
    /// `(node, b, e)` and recurses into children with their allotments.
    fn trace(&mut self, node: NodeRef, b: usize, e: D::Err, out: &mut Vec<usize>) {
        let row = self.node_row(node, e);
        debug_assert!(
            !self.arena.values(row)[b].is_infeasible(),
            "tracing infeasible state"
        );
        let s_mask = self.arena.choices(row)[b];
        let coeffs = self.coeffs_of(node);
        for (ci, c) in coeffs.iter().enumerate() {
            if s_mask >> ci & 1 == 1 {
                out.push(c.pos);
            }
        }
        let cost = s_mask.count_ones() as usize;
        let children = self.tree.children(node);
        let e_children = self.child_errors(e, &coeffs, s_mask, &children);
        let avail = b - cost;
        let tables = self.suffix_tables(&children, &e_children, avail);
        // Cells have nothing below them to trace.
        if let NodeChildren::Nodes(nodes) = &children {
            let child_rows: Vec<RowId> = nodes
                .iter()
                .zip(&e_children)
                .map(|(n, &ec)| self.node_row(*n, ec))
                .collect();
            let m = nodes.len();
            let mut budget = avail;
            for i in 0..m {
                let bi = if i + 1 == m {
                    budget
                } else {
                    let arena = &self.arena;
                    best_split(
                        &mut (),
                        budget,
                        SplitSearch::Binary,
                        |_, bp| arena.values(child_rows[i])[bp],
                        |_, bp| tables[i + 1][budget - bp],
                    )
                    .1
                };
                self.trace(nodes[i], bi, e_children[i], out);
                budget -= bi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::additive::AdditiveScheme;
    use super::super::integer::IntegerExact;
    use super::super::oneplus::OnePlusEps;
    use super::super::NdThresholdResult;
    use crate::metric::ErrorMetric;
    use wsyn_haar::nd::{NdArray, NdShape};

    /// A budget past `N` solves as `N`: the clamp at the kernel's entry
    /// keeps `1 << 40` from sizing every memo row.
    #[test]
    fn budgets_past_n_solve_as_n() {
        for (side, d) in [(4usize, 2usize), (1, 2)] {
            let shape = NdShape::hypercube(side, d).unwrap();
            let n = shape.len();
            let data: Vec<i64> = (0..n as i64).map(|i| (i * 7 + 3) % 11 - 4).collect();
            let data_f = data.iter().map(|&v| v as f64).collect();
            let additive =
                AdditiveScheme::new(&NdArray::new(shape.clone(), data_f).unwrap()).unwrap();
            let exact = IntegerExact::new(&shape, &data).unwrap();
            let oneplus = OnePlusEps::new(&shape, &data).unwrap();
            let solvers: [(&str, &dyn Fn(usize) -> NdThresholdResult); 5] = [
                ("additive abs", &|b| {
                    additive.run(b, ErrorMetric::absolute(), 0.1)
                }),
                ("additive rel", &|b| {
                    additive.run(b, ErrorMetric::relative(2.0), 0.1)
                }),
                ("exact abs", &|b| exact.run(b)),
                ("exact rel", &|b| exact.run_relative(b, 2.0)),
                ("oneplus", &|b| oneplus.run(b, 0.25)),
            ];
            for (name, run) in solvers {
                let at_n = run(n);
                for b in [n + 1, 1 << 40] {
                    let r = run(b);
                    assert_eq!(
                        (r.dp_objective.to_bits(), r.true_objective.to_bits()),
                        (at_n.dp_objective.to_bits(), at_n.true_objective.to_bits()),
                        "{name} N={n} b={b}"
                    );
                    assert!(r.synopsis.len() <= n, "{name} N={n} b={b}");
                }
            }
        }
    }
}
