//! Closed forms for the bottom two levels of the error tree, shared by
//! the offline dedup kernel and the one-pass streaming builder.
//!
//! A **height-1** node is one detail coefficient `c` over two leaves
//! with error denominators `dl`, `dr` ([`Height1`]). Its value at
//! incoming error `e` with budget `b` is one of two terms:
//!
//! * drop: `vmax(|e + c| / dl, |e - c| / dr)`;
//! * keep: `vmax(|e| / dl, |e| / dr)`, allowed iff `b ≥ 1 && c ≠ 0`.
//!
//! A **height-2** node is a coefficient over two height-1 children
//! ([`Height2`]). Keep forwards `e` to both children and splits `b - 1`
//! between them; drop forwards `e + c` left and `e - c` right and
//! splits `b`. A height-1 child's value takes only two values in its
//! allotment (`b = 0` and `b ≥ 1`), so the split search over
//! `0..=budget` reduces to at most three candidates — `0`, `1` and
//! `budget` — scanned left to right with strict improvement. The leaf
//! terms depend on `e` only: [`Height2::at`] computes them once and
//! [`Height2At::kept`] answers any budget from them.
//!
//! Tie-breaks are the DP's: keep wins ties (`keep ≤ drop`), and among
//! equal splits the leftmost left allotment wins. Both split searches of
//! [`super::SplitSearch`] return the leftmost minimizer of a monotone
//! split (see `best_split` in the parent module), so these closed forms
//! return the exact `(value, keep, left allotment)` the memoized kernel
//! would have stored for the same state, bit for bit — under either
//! search, pruned or exhaustive. Inputs are assumed finite
//! (`ErrorTree1d::from_data` refuses non-finite data).
//!
//! The streaming builder calls [`Height2`] with unit denominators. There
//! the drop term `vmax(|e + c|, |e - c|)` equals `fl(|e| + |c|)` for
//! finite inputs (the larger of the two magnitudes is the rounded sum),
//! so keeping a non-zero coefficient never loses at height 1.

use wsyn_core::is_zero;

/// The larger of two values, first argument on ties — the DP's `max`.
#[inline]
pub(crate) fn vmax<V: PartialOrd + Copy>(a: V, b: V) -> V {
    if a >= b {
        a
    } else {
        b
    }
}

/// The optimal decision at a closed-form node for one `(budget, error)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Choice {
    /// Optimal maximum (weighted) leaf error of the subtree.
    pub value: f64,
    /// Whether the node's own coefficient is retained.
    pub keep: bool,
    /// Budget given to the left child (the rest of the branch's budget
    /// goes right). Always `0` at height 1, whose children are leaves.
    pub left_allot: usize,
}

/// A height-1 node: coefficient `c` over leaves with error denominators
/// `dl` (left) and `dr` (right).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Height1 {
    /// The detail coefficient.
    pub c: f64,
    /// Left leaf's error denominator.
    pub dl: f64,
    /// Right leaf's error denominator.
    pub dr: f64,
}

impl Height1 {
    /// A height-1 node under the absolute metric (unit denominators).
    #[must_use]
    pub fn unit(c: f64) -> Height1 {
        Height1 {
            c,
            dl: 1.0,
            dr: 1.0,
        }
    }

    /// Optimal decision with budget `b` and incoming error `e`.
    #[must_use]
    pub fn solve(&self, b: usize, e: f64) -> Choice {
        let (drop, keep) = self.terms(e);
        if b >= 1 && !is_zero(self.c) && keep <= drop {
            Choice {
                value: keep,
                keep: true,
                left_allot: 0,
            }
        } else {
            Choice {
                value: drop,
                keep: false,
                left_allot: 0,
            }
        }
    }

    /// The drop and keep terms at incoming error `e`.
    #[inline]
    fn terms(&self, e: f64) -> (f64, f64) {
        let a = e.abs();
        (
            vmax((e + self.c).abs() / self.dl, (e - self.c).abs() / self.dr),
            vmax(a / self.dl, a / self.dr),
        )
    }

    /// The node's two-valued profile at incoming error `e`.
    #[inline]
    fn profile(&self, e: f64) -> Profile {
        let (drop, keep) = self.terms(e);
        let keeps = !is_zero(self.c) && keep <= drop;
        Profile {
            at0: drop,
            at1: if keeps { keep } else { drop },
            keeps,
        }
    }
}

/// A height-1 node's value as a function of its allotment at one
/// incoming error: `at0` at budget `0`, `at1` at any budget `≥ 1`, and
/// whether a budget `≥ 1` keeps the coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Profile {
    at0: f64,
    at1: f64,
    keeps: bool,
}

/// A height-2 node: coefficient `c` over two height-1 children.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Height2 {
    /// The node's coefficient.
    pub c: f64,
    /// Left child (receives `e + c` when `c` is dropped).
    pub left: Height1,
    /// Right child (receives `e - c` when `c` is dropped).
    pub right: Height1,
}

impl Height2 {
    /// Optimal decision with budget `b` and incoming error `e`.
    #[must_use]
    pub(crate) fn solve(&self, b: usize, e: f64) -> Choice {
        self.at(e).solve(b)
    }

    /// The node evaluated at incoming error `e`: the leaf terms every
    /// budget's decision needs, so a caller sweeping budgets at one
    /// error pays for them once.
    #[must_use]
    pub fn at(&self, e: f64) -> Height2At {
        Height2At {
            can_keep: !is_zero(self.c),
            keep: (self.left.profile(e), self.right.profile(e)),
            drop: (
                self.left.profile(e + self.c),
                self.right.profile(e - self.c),
            ),
        }
    }
}

/// A [`Height2`] node evaluated at one incoming error ([`Height2::at`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Height2At {
    can_keep: bool,
    /// Children's profiles when the node keeps (both see `e`).
    keep: (Profile, Profile),
    /// Children's profiles when the node drops (`e + c`, `e - c`).
    drop: (Profile, Profile),
}

impl Height2At {
    /// Optimal decision with budget `b`.
    #[must_use]
    pub(crate) fn solve(&self, b: usize) -> Choice {
        let (value, la) = split(self.drop, b);
        let drop = Choice {
            value,
            keep: false,
            left_allot: la,
        };
        if b == 0 || !self.can_keep {
            return drop;
        }
        let (value, la) = split(self.keep, b - 1);
        if value <= drop.value {
            Choice {
                value,
                keep: true,
                left_allot: la,
            }
        } else {
            drop
        }
    }

    /// The decision `solve(b)` together with which of the subtree's
    /// three coefficients it retains, in preorder: `[node, left, right]`.
    #[must_use]
    pub fn kept(&self, b: usize) -> (Choice, [bool; 3]) {
        let ch = self.solve(b);
        let (branch, budget) = if ch.keep {
            (self.keep, b - 1)
        } else {
            (self.drop, b)
        };
        let kept = [
            ch.keep,
            ch.left_allot >= 1 && branch.0.keeps,
            budget - ch.left_allot >= 1 && branch.1.keeps,
        ];
        (ch, kept)
    }
}

/// Leftmost optimal split of `budget` between two height-1 children:
/// minimizes `vmax(f(bp), g(budget - bp))` over `bp ∈ 0..=budget`.
/// Allotments strictly between `1` and `budget` repeat `bp = 1`'s
/// value, so only `0`, `1` and `budget` can be the leftmost minimizer.
fn split((f, g): (Profile, Profile), budget: usize) -> (f64, usize) {
    let at = |bp: usize| {
        let fv = if bp == 0 { f.at0 } else { f.at1 };
        let gv = if bp == budget { g.at0 } else { g.at1 };
        vmax(fv, gv)
    };
    let mut best = (at(0), 0);
    for bp in [1, budget] {
        if bp <= budget {
            let v = at(bp);
            if v < best.0 {
                best = (v, bp);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every kept subset of non-zero coefficients within budget:
    /// minimum over subsets of the maximum weighted leaf error, with
    /// errors accumulated top-down exactly as the DP forwards them.
    fn enum_h1(n: &Height1, b: usize, e: f64) -> f64 {
        let drop = vmax((e + n.c).abs() / n.dl, (e - n.c).abs() / n.dr);
        if b >= 1 && !is_zero(n.c) {
            drop.min(vmax(e.abs() / n.dl, e.abs() / n.dr))
        } else {
            drop
        }
    }

    /// Brute-force height-2 optimum restricted to one branch of the
    /// node's coefficient, scanning every left allotment: the branch's
    /// optimum, its leftmost optimal allotment, and whether a later
    /// allotment ties it. `None` when the branch is not allowed.
    fn enum_h2_branch(n: &Height2, b: usize, e: f64, keep: bool) -> Option<(f64, usize, bool)> {
        if keep && (b == 0 || is_zero(n.c)) {
            return None;
        }
        let (budget, el, er) = if keep {
            (b - 1, e, e)
        } else {
            (b, e + n.c, e - n.c)
        };
        let mut best = (f64::INFINITY, 0, false);
        for bp in 0..=budget {
            let v = vmax(enum_h1(&n.left, bp, el), enum_h1(&n.right, budget - bp, er));
            if v < best.0 {
                best = (v, bp, false);
            } else if v == best.0 {
                best.2 = true;
            }
        }
        Some(best)
    }

    /// Maximum weighted leaf error when exactly the coefficients flagged
    /// in `kept` (preorder: node, left, right) are retained.
    fn subset_value(n: &Height2, kept: [bool; 3], e: f64) -> f64 {
        let (el, er) = if kept[0] { (e, e) } else { (e + n.c, e - n.c) };
        let leaf = |x: &Height1, ex: f64, k: bool| {
            if k {
                vmax(ex.abs() / x.dl, ex.abs() / x.dr)
            } else {
                vmax((ex + x.c).abs() / x.dl, (ex - x.c).abs() / x.dr)
            }
        };
        vmax(leaf(&n.left, el, kept[1]), leaf(&n.right, er, kept[2]))
    }

    /// Brute-force height-2 value over every kept subset of non-zero
    /// coefficients with at most `b` members.
    fn enum_h2_subsets(n: &Height2, b: usize, e: f64) -> f64 {
        let coeffs = [n.c, n.left.c, n.right.c];
        let mut best = f64::INFINITY;
        for mask in 0u32..8 {
            let kept = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
            if mask.count_ones() as usize > b || (0..3).any(|i| kept[i] && is_zero(coeffs[i])) {
                continue;
            }
            best = best.min(subset_value(n, kept, e));
        }
        best
    }

    /// A coefficient drawn to hit zeros and exact ties often.
    fn coeff(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..4) {
            0 => 0.0,
            1 => f64::from(rng.gen_range(-4i32..=4)),
            2 => f64::from(rng.gen_range(-8i32..=8)) / 4.0,
            _ => rng.gen_range(-10.0..10.0),
        }
    }

    /// Unit denominators (absolute metric) or relative-metric ones that
    /// differ widely between the two leaves.
    fn denom(rng: &mut StdRng, unit: bool) -> f64 {
        if unit {
            1.0
        } else {
            [1.0, 0.5, 2.0, 3.0, 10.0, 100.0][rng.gen_range(0usize..6)]
        }
    }

    fn h1(rng: &mut StdRng, unit: bool) -> Height1 {
        Height1 {
            c: coeff(rng),
            dl: denom(rng, unit),
            dr: denom(rng, unit),
        }
    }

    #[test]
    fn height1_matches_enumeration() {
        let mut rng = StdRng::seed_from_u64(2004);
        let (mut drop_beats_keep, mut ties, mut zeros) = (0, 0, 0);
        for i in 0..20_000 {
            let n = h1(&mut rng, i % 3 == 0);
            let e = coeff(&mut rng);
            for b in 0..=3 {
                let ch = n.solve(b, e);
                assert_eq!(
                    ch.value.to_bits(),
                    enum_h1(&n, b, e).to_bits(),
                    "{n:?} b={b} e={e}"
                );
                assert_eq!(ch.left_allot, 0);
                let keep = vmax(e.abs() / n.dl, e.abs() / n.dr);
                let drop = vmax((e + n.c).abs() / n.dl, (e - n.c).abs() / n.dr);
                let can_keep = b >= 1 && !is_zero(n.c);
                assert_eq!(ch.keep, can_keep && keep <= drop, "{n:?} b={b} e={e}");
                drop_beats_keep += usize::from(can_keep && drop < keep);
                ties += usize::from(can_keep && drop == keep);
                zeros += usize::from(b >= 1 && is_zero(n.c));
            }
        }
        assert!(drop_beats_keep > 100 && ties > 100 && zeros > 100);
    }

    #[test]
    fn height2_matches_enumeration() {
        let mut rng = StdRng::seed_from_u64(7);
        let (mut drop_beats_keep, mut keep_ties, mut split_ties) = (0, 0, 0);
        for i in 0..20_000 {
            let unit = i % 3 == 0;
            let n = Height2 {
                c: coeff(&mut rng),
                left: h1(&mut rng, unit),
                right: h1(&mut rng, unit),
            };
            let e = coeff(&mut rng);
            for b in 0..=5 {
                let ch = n.solve(b, e);
                let what = format!("{n:?} b={b} e={e}");
                let value = enum_h2_subsets(&n, b, e);
                assert_eq!(ch.value.to_bits(), value.to_bits(), "{what}");
                // Enumerated drop branch always exists.
                let drop = enum_h2_branch(&n, b, e, false).unwrap_or_default();
                let chosen = match enum_h2_branch(&n, b, e, true) {
                    Some(keep) if keep.0 <= drop.0 => {
                        keep_ties += usize::from(keep.0 == drop.0);
                        (true, keep)
                    }
                    Some(_) => {
                        drop_beats_keep += 1;
                        (false, drop)
                    }
                    None => (false, drop),
                };
                split_ties += usize::from(chosen.1 .2);
                assert_eq!((ch.keep, ch.left_allot), (chosen.0, chosen.1 .1), "{what}");
                // `kept` replays the decision within budget and attains
                // the optimum.
                let (again, k) = n.at(e).kept(b);
                assert_eq!(again, ch, "{what}");
                assert_eq!(k[0], ch.keep, "{what}");
                assert!(k.iter().filter(|&&x| x).count() <= b, "{what}");
                assert_eq!(subset_value(&n, k, e).to_bits(), value.to_bits(), "{what}");
            }
        }
        assert!(drop_beats_keep > 100 && keep_ties > 100 && split_ties > 100);
    }

    #[test]
    fn unit_drop_term_is_the_rounded_magnitude_sum() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100_000 {
            let (e, c) = (rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6));
            let n = Height1::unit(c);
            assert_eq!(n.solve(0, e).value.to_bits(), (e.abs() + c.abs()).to_bits());
        }
    }
}
