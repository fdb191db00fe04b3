//! Default `MinMaxErr` engine: a recursive branch-and-bound kernel with
//! memoization on the *incoming error* scalar and a reusable workspace.
//!
//! **State.** For a subtree `T_j`, an ancestor subset `S ⊆ path(c_j)`
//! influences the subtree's attainable errors only through
//! `e = Σ_{c_k ∈ path(c_j) \ S} sign_{jk}·c_k` — the signed sum of the
//! *dropped* ancestors' contributions, which is constant over all of `T_j`
//! because each ancestor's sign is fixed across a child subtree. States are
//! therefore keyed `(node, budget, e)`; two subsets with the same `e`
//! collapse into one subproblem. The search space is exactly the paper's;
//! only duplicate states are merged, so the computed optimum is identical
//! (asserted against the subset-mask engine in tests).
//!
//! `e` is accumulated top-down (`e ± c_j` on drop), so equal subsets
//! produce bitwise-equal `f64` values and hash-consing on the bit pattern
//! is sound. Distinct-but-mathematically-equal float values would merely
//! miss a merge — never produce a wrong value.
//!
//! **Branch and bound.** `opt(j, b, e) >= |e| / bound[j]`, where
//! `bound[j]` is the *maximum* leaf denominator in `T_j` (see
//! `ErrorTree1d::subtree_leaf_max` and DESIGN.md §9 for the induction).
//! The kernel evaluates the branch (keep vs. drop) with the smaller lower
//! bound first and skips the sibling branch when its bound already proves
//! it cannot win; the same bound floors the budget-split search. Pruning
//! is *lossless by construction*: a branch is skipped only when the bound
//! forces the unpruned comparison's outcome, and the tie-break direction
//! (keep wins ties) is preserved by using `>=` to skip drop but strict
//! `>` to skip keep. Consequently every memo entry the pruned kernel
//! writes is bit-identical to the unpruned kernel's entry for that state
//! — the pruned run just writes fewer of them. [`super::Engine`]'s
//! `DedupExhaustive` variant runs this same kernel unpruned for ablation
//! and the lossless-ness assertions.
//!
//! **Inline bottom levels.** Only the root and the nodes at height ≥ 3
//! of the error tree are memoized. A child at slot `id >= n / 4` roots a
//! subtree of height ≤ 2 (or is the lone leaf when `N = 1`), and
//! [`super::closed_form`] evaluates it inline. On the ledger's
//! `build-1d` instances such states would be 79–85 % of the memo, each a
//! hash probe for a value a few flops compute. The closed forms apply
//! the same keep-on-tie and leftmost-split rules to the same `f64`
//! expressions, so they return exactly the entries the memo would hold,
//! under either split search, pruned or not; `trace` replays them with
//! [`super::closed_form::Height2At::kept`]. `StreamingMaxErr` builds its
//! height-2 tables from the same code. Height 3 stays memoized: inlining
//! it re-solves whole subtrees per split probe and measured slower
//! (DESIGN.md §9).
//!
//! **Recursive kernel.** `solve` is plain recursion: a memoized child
//! that misses is solved and inserted in place, so every state's split
//! search runs once, and each state is inserted when its own solve
//! completes (post-order). At height 3 both children are closed forms, and
//! each branch evaluates each child once ([`Height2::at`]) instead of at
//! every split probe. Only the root and nodes at height ≥ 3 nest a solve,
//! so the recursion is at most `log2 N - 1` solves deep: 19 at
//! `N = 2^20`, and 30 for the largest domain a `u32` slot id allows
//! (`N = 2^31`). `trace` walks the decisions on an explicit stack.
//!
//! **Workspace.** [`DedupWorkspace`] owns the memo across runs. States
//! are keyed `(node, budget, e)` and their values are independent of the
//! top-level budget, so a B-sweep over one signal reuses entries
//! verbatim — descending sweeps make every smaller budget nearly free,
//! and ascending sweeps still share all overlapping states. When the
//! instance changes (different data, metric, or split policy — detected
//! via an `Arc` identity token) the workspace clears but keeps its
//! allocations, which is the reuse story for τ-sweeps and streaming
//! rebuilds.

use std::sync::Arc;

use wsyn_core::{is_zero, narrow_u32, pack_state_1d, DpStats, DpWorkspace, StateTable};
use wsyn_haar::ErrorTree1d;

use super::closed_form::{vmax, Height1, Height2};
use super::{best_split_above, MetricTables, SplitSearch, ThresholdResult};
use crate::synopsis::Synopsis1d;

#[derive(Clone, Copy)]
struct Entry {
    value: f64,
    keep: bool,
    left_allot: u32,
}

/// A pending subproblem on the trace stack.
#[derive(Clone, Copy)]
struct Frame {
    id: u32,
    b: u32,
    e: f64,
}

/// Reusable DP storage for the dedup kernel: the `(node, budget, e)`
/// memo plus the identity token of the instance it was filled for.
///
/// Thread one workspace through [`super::MinMaxErr::run_warm`] calls to
/// reuse the memo across a B-sweep (warm states are hit verbatim — the
/// entries are budget-keyed and sweep-order independent) and to reuse
/// the allocations across instance changes (metric switches, τ-sweep
/// roundings, streaming rebuilds), where the token mismatch triggers a
/// capacity-retaining clear.
pub struct DedupWorkspace {
    core: DpWorkspace<Entry>,
    token: Option<(Arc<MetricTables>, SplitSearch)>,
}

impl Default for DedupWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl DedupWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        DedupWorkspace {
            core: DpWorkspace::new(),
            token: None,
        }
    }

    /// Validates the memo against the instance about to run: a token
    /// match keeps the warm memo; a mismatch clears contents but keeps
    /// allocations. `Arc::ptr_eq` on the metric tables is the identity
    /// check — `MinMaxErr` caches one table `Arc` per metric, so pointer
    /// identity implies same data *and* same metric (and a clone of the
    /// solver shares the cache, which is equally sound).
    fn ensure(&mut self, tables: &Arc<MetricTables>, split: SplitSearch) {
        let valid = self
            .token
            .as_ref()
            .is_some_and(|(t, s)| Arc::ptr_eq(t, tables) && *s == split);
        if !valid {
            if self.token.is_some() {
                self.core.clear();
            }
            self.token = Some((Arc::clone(tables), split));
        }
    }

    /// Peak live memo entries over the workspace's lifetime (across
    /// clears) — the honest [`DpStats::peak_live`] for reused memos.
    #[must_use]
    pub fn peak_live(&self) -> usize {
        self.core.peak_live()
    }

    /// How many times the workspace has been cleared (token changes).
    #[must_use]
    pub fn clears(&self) -> usize {
        self.core.clears()
    }

    /// Currently resident memo entries.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.core.table().len()
    }
}

impl std::fmt::Debug for DedupWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupWorkspace")
            .field("resident", &self.resident())
            .field("peak_live", &self.peak_live())
            .field("clears", &self.clears())
            .field("warm", &self.token.is_some())
            .finish()
    }
}

/// Runs the kernel for budget `b` inside `ws` (cleared automatically if
/// `ws` was filled for a different instance). `prune` toggles the
/// branch-and-bound cuts; results are identical either way (the pruned
/// kernel writes a subset of the unpruned kernel's bit-identical memo).
pub(super) fn run(
    tree: &ErrorTree1d,
    tables: &Arc<MetricTables>,
    b: usize,
    split: SplitSearch,
    prune: bool,
    ws: &mut DedupWorkspace,
) -> ThresholdResult {
    ws.ensure(tables, split);
    let (objective, retained, leaf_evals) = {
        let mut kernel = Kernel {
            tree,
            denom: &tables.denom,
            bound: &tables.bound,
            n: tree.n(),
            split,
            prune,
            memo: ws.core.table_mut(),
            leaf_evals: 0,
        };
        let objective = kernel.solve(b);
        let mut retained = Vec::new();
        kernel.trace(b, &mut retained);
        (objective, retained, kernel.leaf_evals)
    };
    let stats = DpStats {
        // Resident entries (height ≥ 3 and the root) — for a warm
        // workspace this accumulates over the runs sharing the memo (the
        // sweep's working set).
        states: ws.core.table().len(),
        leaf_evals,
        probes: ws.core.table().probes(),
        // Lifetime peak, not final size: a reused memo may have been
        // larger before a clear than it is now.
        peak_live: ws.peak_live(),
    };
    ThresholdResult {
        synopsis: Synopsis1d::from_indices(tree, &retained),
        objective,
        stats,
    }
}

struct Kernel<'a> {
    tree: &'a ErrorTree1d,
    /// Per-leaf error denominator (`max{|d_i|, s}` or 1).
    denom: &'a [f64],
    /// Per-node subtree *maximum* of `denom` (combined-slot indexing).
    bound: &'a [f64],
    n: usize,
    split: SplitSearch,
    prune: bool,
    memo: &'a mut StateTable<Entry>,
    /// Inline closed-form evaluations of height ≤ 2 subtrees
    /// ([`DpStats::leaf_evals`]).
    leaf_evals: usize,
}

impl Kernel<'_> {
    /// Admissible lower bound on the optimal value of the subtree at
    /// combined slot `id` under incoming error `e`, for any budget:
    /// some leaf receives at least `|e|` of dropped-ancestor error, and
    /// no leaf divides by more than `bound[id]` (DESIGN.md §9).
    #[inline]
    fn lb(&self, id: usize, e: f64) -> f64 {
        e.abs() / self.bound[id]
    }

    /// Value of the child subproblem `(id, b, e)`: subtrees of height
    /// at most 2 (slots `id >= n / 4`) are evaluated inline in closed
    /// form and never memoized, memoized higher nodes are a table hit,
    /// and a missing higher node is solved and inserted first.
    #[inline]
    fn child_value(&mut self, id: usize, b: usize, e: f64) -> f64 {
        if id >= self.n / 4 {
            self.leaf_evals += 1;
            return self.bottom_value(id, b, e);
        }
        self.memo_value(id, b, e)
    }

    /// The memoized state `(id, b, e)`, solved and inserted on a miss.
    fn memo_value(&mut self, id: usize, b: usize, e: f64) -> f64 {
        let key = pack_state_1d(narrow_u32(id), narrow_u32(b), e.to_bits());
        if let Some(entry) = self.memo.get(key) {
            return entry.value;
        }
        let entry = self.solve_state(id, b, e);
        self.memo.insert(key, entry);
        entry.value
    }

    /// The height-1 node at combined slot `id` (`n / 2 <= id < n`).
    #[inline]
    fn height1(&self, id: usize) -> Height1 {
        let leaf = 2 * id - self.n;
        Height1 {
            c: self.tree.coeff(id),
            dl: self.denom[leaf],
            dr: self.denom[leaf + 1],
        }
    }

    /// The height-2 node at combined slot `id` (`n / 4 <= id < n / 2`).
    #[inline]
    fn height2(&self, id: usize) -> Height2 {
        Height2 {
            c: self.tree.coeff(id),
            left: self.height1(2 * id),
            right: self.height1(2 * id + 1),
        }
    }

    /// Closed-form value of the subtree at slot `id >= n / 4`: a leaf
    /// (only the root's child when `N = 1`; spare budget is wasted,
    /// never harmful, so its value ignores `b`), or a height-1 or
    /// height-2 node ([`super::closed_form`]).
    #[inline]
    fn bottom_value(&self, id: usize, b: usize, e: f64) -> f64 {
        if id >= self.n {
            e.abs() / self.denom[id - self.n]
        } else if id >= self.n / 2 {
            self.height1(id).solve(b, e).value
        } else {
            self.height2(id).solve(b, e).value
        }
    }

    /// One branch of the non-root node at slot `id`: the best split of
    /// `budget` between its children, the left seeing incoming error
    /// `el` and the right `er`, as `(value, left allotment)`. `floor` is
    /// the branch's admissible bound; the pruned kernel hands it to the
    /// split search ([`super::best_split_above`]).
    ///
    /// At height 3 both children are height-2 closed forms whose leaf
    /// terms depend on the branch's errors only, so each child is
    /// evaluated once ([`Height2::at`]) and the split search answers
    /// every probe from that evaluation — the same `f64` expressions
    /// [`Kernel::bottom_value`] runs, hence the same values.
    fn branch(&mut self, id: usize, budget: usize, floor: f64, el: f64, er: f64) -> (f64, u32) {
        let (lc, rc) = (2 * id, 2 * id + 1);
        let (split, floor) = (self.split, self.prune.then_some(floor));
        let (value, left) = if lc >= self.n / 4 {
            self.leaf_evals += 2;
            let (l, r) = (self.height2(lc).at(el), self.height2(rc).at(er));
            best_split_above(
                self,
                budget,
                split,
                floor,
                |_, bp| l.solve(bp).value,
                |_, bp| r.solve(budget - bp).value,
            )
        } else {
            best_split_above(
                self,
                budget,
                split,
                floor,
                |s, bp| s.child_value(lc, bp, el),
                |s, bp| s.child_value(rc, budget - bp, er),
            )
        };
        (value, narrow_u32(left))
    }

    /// Computes the entry of the memoized state `(id, b, e)`, solving
    /// any missing memoized child on the way (recursion nests once per
    /// memoized level; see the module docs for the depth bound).
    ///
    /// Keep/drop branch order and pruning: the branch with the smaller
    /// admissible bound is evaluated first (keep first on equal bounds);
    /// the sibling is skipped when its bound already proves the
    /// comparison's outcome. Skipping drop requires `drop_lb >=
    /// keep_val` (then `drop_val >= keep_val`, and keep wins ties
    /// anyway); skipping keep requires strictly `keep_lb > drop_val`
    /// (on equality keep could still win the tie). Either way the entry
    /// written is exactly the unpruned kernel's entry.
    fn solve_state(&mut self, id: usize, b: usize, e: f64) -> Entry {
        let c = self.tree.coeff(id);
        // Keeping a zero coefficient wastes budget, matching the
        // paper's path(u) containing non-zero ancestors only.
        let can_keep = b >= 1 && !is_zero(c);
        if id == 0 {
            // Root: single child (c_1, or the lone leaf when N = 1),
            // contribution sign +1; no budget split to search.
            let child = if self.n == 1 { self.n } else { 1 };
            if !can_keep {
                return Entry {
                    value: self.child_value(child, b, e + c),
                    keep: false,
                    left_allot: narrow_u32(b),
                };
            }
            let keep_lb = self.lb(child, e);
            let drop_lb = self.lb(child, e + c);
            let (keep_val, drop_val) = if keep_lb <= drop_lb {
                let kv = self.child_value(child, b - 1, e);
                let dv = if self.prune && drop_lb >= kv {
                    f64::INFINITY
                } else {
                    self.child_value(child, b, e + c)
                };
                (kv, dv)
            } else {
                let dv = self.child_value(child, b, e + c);
                let kv = if self.prune && keep_lb > dv {
                    f64::INFINITY
                } else {
                    self.child_value(child, b - 1, e)
                };
                (kv, dv)
            };
            return if keep_val <= drop_val {
                Entry {
                    value: keep_val,
                    keep: true,
                    left_allot: narrow_u32(b - 1),
                }
            } else {
                Entry {
                    value: drop_val,
                    keep: false,
                    left_allot: narrow_u32(b),
                }
            };
        }
        let (lc, rc) = (2 * id, 2 * id + 1);
        // Branch bounds: max over the two children's subtree bounds at
        // the error each branch sends them — valid for any allotment.
        let drop_lb = vmax(self.lb(lc, e + c), self.lb(rc, e - c));
        if !can_keep {
            let (value, left_allot) = self.branch(id, b, drop_lb, e + c, e - c);
            return Entry {
                value,
                keep: false,
                left_allot,
            };
        }
        let keep_lb = vmax(self.lb(lc, e), self.lb(rc, e));
        let ((keep_val, keep_allot), (drop_val, drop_allot)) = if keep_lb <= drop_lb {
            let keep = self.branch(id, b - 1, keep_lb, e, e);
            if self.prune && drop_lb >= keep.0 {
                (keep, (f64::INFINITY, 0))
            } else {
                (keep, self.branch(id, b, drop_lb, e + c, e - c))
            }
        } else {
            let drop = self.branch(id, b, drop_lb, e + c, e - c);
            if self.prune && keep_lb > drop.0 {
                ((f64::INFINITY, 0), drop)
            } else {
                (self.branch(id, b - 1, keep_lb, e, e), drop)
            }
        };
        if keep_val <= drop_val {
            Entry {
                value: keep_val,
                keep: true,
                left_allot: keep_allot,
            }
        } else {
            Entry {
                value: drop_val,
                keep: false,
                left_allot: drop_allot,
            }
        }
    }

    /// Minimum possible maximum error for the whole domain with budget
    /// `b`: the memoized root state `(c_0, b, 0)`, solved recursively on
    /// a miss.
    fn solve(&mut self, b: usize) -> f64 {
        self.memo_value(0, b, 0.0)
    }

    /// Re-walks the memoized decisions to emit the retained coefficient
    /// indices, LIFO (right child pushed first) so the output order
    /// matches a recursive depth-first preorder.
    fn trace(&self, b: usize, out: &mut Vec<usize>) {
        let mut stack = vec![Frame {
            id: 0,
            b: narrow_u32(b),
            e: 0.0,
        }];
        while let Some(fr) = stack.pop() {
            let id = fr.id as usize;
            let b = fr.b as usize;
            let e = fr.e;
            // The root is memoized even when `N < 4` makes `n / 4` zero.
            if id != 0 && id >= self.n / 4 {
                self.trace_bottom(id, b, e, out);
                continue;
            }
            let entry = *self
                .memo
                .get(pack_state_1d(fr.id, fr.b, e.to_bits()))
                // Trace replays decisions along states solve()
                // materialized; every state on a decision path was
                // probed (hence solved) when its parent's entry was
                // computed, and warm entries are never cleared while
                // the workspace token matches.
                // wsyn: allow(no-panic)
                .expect("trace visits only states materialized by solve");
            let c = self.tree.coeff(id);
            if id == 0 {
                let child = narrow_u32(if self.n == 1 { self.n } else { 1 });
                if entry.keep {
                    out.push(0);
                    stack.push(Frame {
                        id: child,
                        b: entry.left_allot,
                        e,
                    });
                } else {
                    stack.push(Frame {
                        id: child,
                        b: entry.left_allot,
                        e: e + c,
                    });
                }
                continue;
            }
            let (lc, rc) = (narrow_u32(2 * id), narrow_u32(2 * id + 1));
            let la = entry.left_allot as usize;
            if entry.keep {
                out.push(id);
                stack.push(Frame {
                    id: rc,
                    b: narrow_u32(b - 1 - la),
                    e,
                });
                stack.push(Frame {
                    id: lc,
                    b: entry.left_allot,
                    e,
                });
            } else {
                stack.push(Frame {
                    id: rc,
                    b: narrow_u32(b - la),
                    e: e - c,
                });
                stack.push(Frame {
                    id: lc,
                    b: entry.left_allot,
                    e: e + c,
                });
            }
        }
    }

    /// Emits the retained coefficients of the closed-form subtree at
    /// slot `id >= n / 4` in preorder, replaying the decision
    /// [`Kernel::bottom_value`] made for `(id, b, e)`.
    fn trace_bottom(&self, id: usize, b: usize, e: f64, out: &mut Vec<usize>) {
        if id >= self.n {
            return;
        }
        if id >= self.n / 2 {
            if self.height1(id).solve(b, e).keep {
                out.push(id);
            }
            return;
        }
        let (_, kept) = self.height2(id).at(e).kept(b);
        for (slot, keep) in [id, 2 * id, 2 * id + 1].into_iter().zip(kept) {
            if keep {
                out.push(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::super::MinMaxErr;
    use crate::ErrorMetric;

    /// The recursion nests one solve per memoized level, `log2 N - 1`
    /// deep (module docs): at `N = 2^14` the default kernel fits a
    /// 256 KiB thread stack and returns the same bits there as on the
    /// test thread.
    #[test]
    fn recursion_fits_a_small_stack() {
        let mut rng = StdRng::seed_from_u64(14);
        let data: Vec<f64> = (0..1 << 14)
            .map(|_| f64::from(rng.gen_range(-500i32..=500)))
            .collect();
        let solver = MinMaxErr::new(&data).unwrap();
        let run = || {
            let r = solver.run(12, ErrorMetric::absolute());
            (r.objective.to_bits(), r.synopsis.indices())
        };
        let here = run();
        let small = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(256 << 10)
                .spawn_scoped(scope, run)
                .expect("spawn a small-stack thread")
                .join()
                .expect("the small-stack run completes")
        });
        assert_eq!(small, here);
    }
}
