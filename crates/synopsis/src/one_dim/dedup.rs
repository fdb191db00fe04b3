//! Default `MinMaxErr` engine: an iterative branch-and-bound kernel with
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
//! **Iterative kernel.** `solve` runs on an explicit frame stack instead
//! of recursion: a frame's evaluation either completes from memoized
//! children (insert + pop) or reports the first missing child, which is
//! pushed and solved first. Re-walks after a resume cost only memo hits.
//! No call-stack depth limits at `N = 2^20`, and no recursion in `trace`
//! either.
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

use super::{MetricTables, SplitSearch, ThresholdResult};
use crate::synopsis::Synopsis1d;

#[derive(Clone, Copy)]
struct Entry {
    value: f64,
    keep: bool,
    left_allot: u32,
}

/// A pending subproblem on the explicit solve/trace stack.
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
        // Resident entries — for a warm workspace this accumulates over
        // the runs sharing the memo (the sweep's working set).
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

#[inline]
fn vmax(a: f64, b: f64) -> f64 {
    if a >= b {
        a
    } else {
        b
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

    /// Value of the child subproblem `(id, b, e)`: leaves are computed
    /// inline (they are never memoized), memoized internal nodes are a
    /// table hit, and a missing internal node is reported as the frame
    /// to solve first.
    #[inline]
    fn child_value(&mut self, id: usize, b: usize, e: f64) -> Result<f64, Frame> {
        if id >= self.n {
            // Leaf: spare budget is wasted, never harmful, so the value
            // is independent of `b` (keeps the table monotone in the
            // budget).
            self.leaf_evals += 1;
            return Ok(e.abs() / self.denom[id - self.n]);
        }
        let fr = Frame {
            id: narrow_u32(id),
            b: narrow_u32(b),
            e,
        };
        match self.memo.get(pack_state_1d(fr.id, fr.b, e.to_bits())) {
            Some(entry) => Ok(entry.value),
            None => Err(fr),
        }
    }

    /// Optimal split of `budget` between left child `f` and right child
    /// `g` (both non-increasing in their own allotment), returning
    /// `(best value, best left allotment)`.
    ///
    /// `floor` is the branch's admissible lower bound, valid for *every*
    /// allotment: once the incumbent reaches it, no other allotment can
    /// be strictly better, so the pruned `Linear` scan stops early and
    /// the pruned `Binary` probe skips its `lo - 1` refinement. Both
    /// cuts preserve the exact `(value, allotment)` pair the unpruned
    /// search returns — only strict improvements move the incumbent.
    fn split_value<F, G>(
        &mut self,
        budget: usize,
        floor: f64,
        f: F,
        g: G,
    ) -> Result<(f64, u32), Frame>
    where
        F: Fn(&mut Self, usize) -> Result<f64, Frame>,
        G: Fn(&mut Self, usize) -> Result<f64, Frame>,
    {
        match self.split {
            SplitSearch::Linear => {
                let mut best = vmax(f(self, 0)?, g(self, 0)?);
                let mut best_b = 0usize;
                if !(self.prune && best <= floor) {
                    for bp in 1..=budget {
                        let v = vmax(f(self, bp)?, g(self, bp)?);
                        if v < best {
                            best = v;
                            best_b = bp;
                            if self.prune && best <= floor {
                                break;
                            }
                        }
                    }
                }
                Ok((best, narrow_u32(best_b)))
            }
            SplitSearch::Binary => {
                // Smallest b' with f(b') <= g(b'); the optimum is at
                // that crossover or immediately before it.
                let mut lo = 0usize;
                let mut hi = budget;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if f(self, mid)? <= g(self, mid)? {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                let mut best = vmax(f(self, lo)?, g(self, lo)?);
                let mut best_b = lo;
                if lo > 0 && !(self.prune && best <= floor) {
                    let v = vmax(f(self, lo - 1)?, g(self, lo - 1)?);
                    if v < best {
                        best = v;
                        best_b = lo - 1;
                    }
                }
                // Leftmost tie-break, matching `Linear` and the shared
                // [`super::best_split`]: the minimizer set is contiguous
                // and its left edge is the smallest allotment with
                // `f <= best`. Runs after the floor cut — the cut only
                // certifies `best` is optimal, not that it is leftmost.
                if best_b > 0 {
                    let mut llo = 0usize;
                    let mut lhi = best_b;
                    while llo < lhi {
                        let mid = llo + (lhi - llo) / 2;
                        if f(self, mid)? <= best {
                            lhi = mid;
                        } else {
                            llo = mid + 1;
                        }
                    }
                    if llo != best_b {
                        best_b = llo;
                        // Equal to `best` by construction; re-evaluating
                        // materializes both children's memo entries at the
                        // chosen split so traceback can replay it.
                        best = vmax(f(self, best_b)?, g(self, best_b)?);
                    }
                }
                Ok((best, narrow_u32(best_b)))
            }
        }
    }

    /// One attempt at computing a frame's entry from memoized children.
    /// `Err` reports the first missing child; after it is solved the
    /// re-attempt replays the prefix as cheap memo hits.
    ///
    /// Keep/drop branch order and pruning: the branch with the smaller
    /// admissible bound is evaluated first (keep first on equal bounds);
    /// the sibling is skipped when its bound already proves the
    /// comparison's outcome. Skipping drop requires `drop_lb >=
    /// keep_val` (then `drop_val >= keep_val`, and keep wins ties
    /// anyway); skipping keep requires strictly `keep_lb > drop_val`
    /// (on equality keep could still win the tie). Either way the entry
    /// written is exactly the unpruned kernel's entry.
    fn try_solve(&mut self, fr: Frame) -> Result<Entry, Frame> {
        let id = fr.id as usize;
        let b = fr.b as usize;
        let e = fr.e;
        let c = self.tree.coeff(id);
        // Keeping a zero coefficient wastes budget, matching the
        // paper's path(u) containing non-zero ancestors only.
        let can_keep = b >= 1 && !is_zero(c);
        if id == 0 {
            // Root: single child (c_1, or the lone leaf when N = 1),
            // contribution sign +1; no budget split to search.
            let child = if self.n == 1 { self.n } else { 1 };
            if !can_keep {
                return Ok(Entry {
                    value: self.child_value(child, b, e + c)?,
                    keep: false,
                    left_allot: narrow_u32(b),
                });
            }
            let keep_lb = self.lb(child, e);
            let drop_lb = self.lb(child, e + c);
            let (keep_val, drop_val) = if keep_lb <= drop_lb {
                let kv = self.child_value(child, b - 1, e)?;
                let dv = if self.prune && drop_lb >= kv {
                    f64::INFINITY
                } else {
                    self.child_value(child, b, e + c)?
                };
                (kv, dv)
            } else {
                let dv = self.child_value(child, b, e + c)?;
                let kv = if self.prune && keep_lb > dv {
                    f64::INFINITY
                } else {
                    self.child_value(child, b - 1, e)?
                };
                (kv, dv)
            };
            return Ok(if keep_val <= drop_val {
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
            });
        }
        let (lc, rc) = (2 * id, 2 * id + 1);
        // Branch bounds: max over the two children's subtree bounds at
        // the error each branch sends them — valid for any allotment.
        let drop_lb = vmax(self.lb(lc, e + c), self.lb(rc, e - c));
        let eval_drop = |s: &mut Self| {
            s.split_value(
                b,
                drop_lb,
                |s, bp| s.child_value(lc, bp, e + c),
                |s, bp| s.child_value(rc, b - bp, e - c),
            )
        };
        if !can_keep {
            let (drop_val, drop_allot) = eval_drop(self)?;
            return Ok(Entry {
                value: drop_val,
                keep: false,
                left_allot: drop_allot,
            });
        }
        let keep_lb = vmax(self.lb(lc, e), self.lb(rc, e));
        let eval_keep = |s: &mut Self| {
            s.split_value(
                b - 1,
                keep_lb,
                |s, bp| s.child_value(lc, bp, e),
                |s, bp| s.child_value(rc, b - 1 - bp, e),
            )
        };
        let (keep_val, keep_allot, drop_val, drop_allot) = if keep_lb <= drop_lb {
            let (kv, ka) = eval_keep(self)?;
            if self.prune && drop_lb >= kv {
                (kv, ka, f64::INFINITY, 0)
            } else {
                let (dv, da) = eval_drop(self)?;
                (kv, ka, dv, da)
            }
        } else {
            let (dv, da) = eval_drop(self)?;
            if self.prune && keep_lb > dv {
                (f64::INFINITY, 0, dv, da)
            } else {
                let (kv, ka) = eval_keep(self)?;
                (kv, ka, dv, da)
            }
        };
        Ok(if keep_val <= drop_val {
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
        })
    }

    /// Minimum possible maximum error for the whole domain with budget
    /// `b` — the explicit-stack driver rooted at `(c_0, b, 0)`. The stack
    /// always holds a root-to-descendant dependency chain (node ids
    /// strictly increase downward), so its depth is bounded by the tree
    /// height.
    fn solve(&mut self, b: usize) -> f64 {
        let root = Frame {
            id: 0,
            b: narrow_u32(b),
            e: 0.0,
        };
        let root_key = pack_state_1d(root.id, root.b, root.e.to_bits());
        if self.memo.get(root_key).is_none() {
            let mut stack = vec![root];
            while let Some(&top) = stack.last() {
                let key = pack_state_1d(top.id, top.b, top.e.to_bits());
                if self.memo.get(key).is_some() {
                    // A sibling dependency chain already solved it.
                    stack.pop();
                    continue;
                }
                match self.try_solve(top) {
                    Ok(entry) => {
                        self.memo.insert(key, entry);
                        stack.pop();
                    }
                    Err(missing) => stack.push(missing),
                }
            }
        }
        self.memo
            .get(root_key)
            // The loop above terminates only once the root is memoized.
            // wsyn: allow(no-panic)
            .expect("solve loop memoizes the root state")
            .value
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
            if id >= self.n {
                continue;
            }
            let b = fr.b as usize;
            let e = fr.e;
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
}
