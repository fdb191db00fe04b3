//! One-pass streaming B-term maximum-error construction.
//!
//! [`StreamingMaxErr`] consumes the data vector `d_0 … d_{N-1}` strictly
//! in time order and finalizes into a [`Synopsis1d`] with an explicit
//! absolute-error guarantee, holding only poly(`B`, `log N`, `1/ε`)
//! sketch state — never the data and never the full coefficient array.
//! The construction follows Guha & Harb's quantized-error streaming DP
//! (*Approximation Algorithms for Wavelet Transform Coding of Data
//! Streams*), specialized to the unnormalized Haar basis and the
//! maximum-absolute-error objective of the source paper:
//!
//! * **Partial coefficients on the frontier.** Arriving items are merged
//!   pairwise exactly like [`wsyn_haar::transform::forward`]'s cascade
//!   (`avg = (l + r) / 2`, `detail = (l - r) / 2`), so at any moment the
//!   sketch holds one *pending* subtree per level — the classic binary
//!   counter over completed dyadic blocks. The coefficients produced are
//!   bit-identical to the offline transform's.
//! * **Quantized incoming-error DP per completed subtree.** For every
//!   completed subtree the sketch keeps a table indexed by a budget
//!   `b ∈ 0..=min(B, 2^h - 1)` and a *quantized incoming error*
//!   `e = q·δ`, `q ∈ -Q..=Q`, holding the optimal max-absolute error of
//!   the subtree's leaves when `b` coefficients may be kept inside it and
//!   the ancestors above contribute reconstruction error `e`. Tables
//!   merge bottom-up: a *keep* of the merged node's coefficient forwards
//!   `e` unchanged to both children; a *drop* forwards `e ± c`, rounded
//!   to the child's grid. Every table is non-increasing in the budget,
//!   so a merge fills a whole error column — all budgets at one grid
//!   error — in one forward pass ([`best_splits`]): `O(B)` per column
//!   instead of a split scan per cell. Height-1 subtrees (a single
//!   detail coefficient over two leaves) are never materialized — their
//!   optimal value has a closed form evaluated with the **exact**
//!   incoming error, which removes two rounding levels from the drift
//!   bound. The height-1 and height-2 closed forms are the offline
//!   kernel's own ([`wsyn_synopsis::one_dim::closed_form`], unit
//!   denominators).
//! * **Grid radius and step.** With a caller-supplied scale `S ≥` (the
//!   offline optimum; any upper bound such as `max |d_i|` works), step
//!   `δ = ε·S / max(m - 1, 1)` and radius `Q = ⌈(1 + ε)·max(m - 1, 1) /
//!   ε⌉` (`m = log2 N`), the grid covers `|e| ≤ S(1 + ε)`. An optimal
//!   solution's incoming error never exceeds the optimum itself at any
//!   node (each dropped descendant coefficient averages to zero over the
//!   node's support, so some leaf under the node sees at least `|e|`),
//!   hence the optimal trajectory stays on-grid even after accumulating
//!   the worst-case rounding drift, and the DP value is within
//!   `(m - 1)·δ/2 ≤ ε·S/2` of the true optimum.
//!
//! **Guarantee.** `finalize` reports `objective = dp + (m - 1)·δ/2`: the
//! true maximum absolute error of the returned synopsis is at most
//! `objective`, and `objective ≤ OPT(B) + ε·S`. Both sides are certified
//! against the offline [`MinMaxErr`](wsyn_synopsis::one_dim::MinMaxErr)
//! optimum by the `streaming-approx` conformance family.
//!
//! **Space.** Live tables exist only along the right spine of the
//! frontier — at most one per height — so peak state is bounded by
//! `(m + 1) · (B + 1) · (2Q + 1)` cells. Each cell holds its value and
//! one handle into a single reference-counted node store shared by the
//! whole builder: a keep adds one node `(j, c, left, right)` over the
//! children's sets, a drop reuses the only non-empty child set (or
//! joins two with one entry-less node), and a released child table
//! gives its references back, freeing nodes that reach zero. No cell
//! copies its children's entries; a cell's set of at most `B` entries
//! spans at most `2B − 1` nodes, so the store is `O(B² · log²(N) / ε)`
//! nodes in the worst case (sharing keeps it far smaller in practice),
//! independent of `N` beyond the `log` factors. The builder counts its
//! own peak working set ([`StreamingMaxErr::peak_cells`],
//! [`StreamingMaxErr::peak_bytes`]) so tests can assert sublinearity
//! instead of trusting the analysis.

use wsyn_core::{is_zero, narrow_u32, DpStats, WsynError};
use wsyn_haar::{is_pow2, log2_exact};
use wsyn_obs::Collector;
use wsyn_synopsis::one_dim::best_splits;
use wsyn_synopsis::one_dim::closed_form::{Height1, Height2};
use wsyn_synopsis::{AnySynopsis, ErrorMetric, RunParams, Synopsis1d, ThresholdRun, Thresholder};

/// A completed subtree's DP table over `(budget, quantized error)`.
///
/// Stored column by column: the `b_cap + 1` budgets of grid error `qi`
/// sit contiguously at `qi * (b_cap + 1)`, so a merge reads each child
/// column as one slice. Every cell holds its optimal objective and one
/// handle into the builder's shared [`SetStore`] (`0` is the empty set);
/// the table owns one reference per non-empty handle and gives them
/// back through [`SetStore::release_table`]. Tables are pooled and reset
/// between subtrees so their allocations are reused.
#[derive(Default)]
struct Table {
    /// Largest useful budget: `min(B, 2^h - 1)`. Values are monotone
    /// non-increasing in the budget, so lookups clamp to this cap.
    b_cap: usize,
    grid: usize,
    values: Vec<f64>,
    sets: Vec<u32>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("b_cap", &self.b_cap)
            .field("grid", &self.grid)
            .field("cells", &self.cells())
            .finish()
    }
}

/// Resident bytes of one table cell: an `f64` value and a `u32` handle.
const CELL_BYTES: usize = 12;

impl Table {
    fn reset(&mut self, b_cap: usize, grid: usize) {
        self.b_cap = b_cap;
        self.grid = grid;
        self.values.clear();
        self.values.resize(self.cells(), f64::INFINITY);
        self.sets.clear();
        self.sets.resize(self.cells(), 0);
    }

    /// Index of cell `(b, qi)`, clamping the budget to the cap.
    fn at(&self, b: usize, qi: usize) -> usize {
        qi * (self.b_cap + 1) + b.min(self.b_cap)
    }

    fn value(&self, b: usize, qi: usize) -> f64 {
        self.values[self.at(b, qi)]
    }

    fn set_of(&self, b: usize, qi: usize) -> u32 {
        self.sets[self.at(b, qi)]
    }

    /// Grid error `qi`'s values as a function of the budget, clamped to
    /// the cap.
    fn column(&self, qi: usize) -> impl Fn(usize) -> f64 + '_ {
        let w = self.b_cap + 1;
        let col = &self.values[qi * w..(qi + 1) * w];
        move |b| col[b.min(w - 1)]
    }

    fn cells(&self) -> usize {
        (self.b_cap + 1) * self.grid
    }

    /// Whether every column is non-increasing in the budget.
    fn non_increasing(&self) -> bool {
        self.values
            .chunks(self.b_cap + 1)
            .all(|col| col.windows(2).all(|w| w[0] >= w[1]))
    }

    fn bytes(&self) -> usize {
        self.cells() * CELL_BYTES
    }
}

/// Marks a [`SetNode`] that joins two non-empty sets without an entry.
const NO_ENTRY: u32 = u32::MAX;

/// One node of a shared retained set: an optional coefficient followed
/// by two subsets. A set's entries are its nodes in preorder.
#[derive(Debug, Clone, Copy)]
struct SetNode {
    j: u32,
    c: f64,
    left: u32,
    right: u32,
    /// References from table cells and parent nodes.
    refs: u32,
}

/// Resident bytes of one [`SetNode`] slot.
const NODE_BYTES: usize = std::mem::size_of::<SetNode>();

/// The builder's retained sets, shared across cells and tables and
/// reference-counted. A keep makes one node over the two children's
/// sets; a drop reuses the only non-empty child set or joins two with
/// one entry-less node; so a cell never copies its children's entries,
/// and a set of `k ≤ B` entries spans at most `2k - 1` nodes. Handle `0`
/// is the empty set (slot 0 is never used); freed slots are reused.
#[derive(Debug)]
struct SetStore {
    nodes: Vec<SetNode>,
    free: Vec<u32>,
    /// Scratch stack of [`SetStore::release`].
    pending: Vec<u32>,
}

impl SetStore {
    fn new() -> SetStore {
        SetStore {
            nodes: vec![SetNode {
                j: NO_ENTRY,
                c: 0.0,
                left: 0,
                right: 0,
                refs: 0,
            }],
            free: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// A new set: entry `j` (or none, for [`NO_ENTRY`]) followed by
    /// `left` then `right`; takes a reference on each. The caller owns
    /// the returned reference.
    fn node(&mut self, j: u32, c: f64, left: u32, right: u32) -> u32 {
        self.share(left);
        self.share(right);
        let node = SetNode {
            j,
            c,
            left,
            right,
            refs: 1,
        };
        match self.free.pop() {
            Some(h) => {
                self.nodes[h as usize] = node;
                h
            }
            None => {
                self.nodes.push(node);
                narrow_u32(self.nodes.len() - 1)
            }
        }
    }

    /// The set holding `left`'s entries then `right`'s, owned by the
    /// caller: shared as-is when one side is empty.
    fn join(&mut self, left: u32, right: u32) -> u32 {
        match (left, right) {
            (0, h) | (h, 0) => self.share(h),
            _ => self.node(NO_ENTRY, 0.0, left, right),
        }
    }

    /// Takes one more reference on `h`.
    fn share(&mut self, h: u32) -> u32 {
        if h != 0 {
            self.nodes[h as usize].refs += 1;
        }
        h
    }

    /// Gives back one reference on `h`, freeing every node whose count
    /// reaches zero.
    fn release(&mut self, h: u32) {
        self.pending.push(h);
        while let Some(h) = self.pending.pop() {
            if h == 0 {
                continue;
            }
            let node = &mut self.nodes[h as usize];
            node.refs -= 1;
            if node.refs == 0 {
                self.pending.push(node.left);
                self.pending.push(node.right);
                self.free.push(h);
            }
        }
    }

    /// Gives back every reference a table's cells hold.
    fn release_table(&mut self, table: &Table) {
        for &h in &table.sets {
            self.release(h);
        }
    }

    /// Appends the entries of `h` in preorder.
    fn entries(&self, h: u32, out: &mut Vec<(usize, f64)>) {
        let mut pending = vec![h];
        while let Some(h) = pending.pop() {
            if h == 0 {
                continue;
            }
            let node = self.nodes[h as usize];
            if node.j != NO_ENTRY {
                out.push((node.j as usize, node.c));
            }
            pending.push(node.right);
            pending.push(node.left);
        }
    }

    /// Resident bytes: every slot, live or free.
    fn bytes(&self) -> usize {
        self.nodes.len() * NODE_BYTES + self.free.len() * 4
    }
}

/// One pending subtree on the merge frontier.
#[derive(Debug)]
enum Repr {
    /// A single raw item (height 0); its value is the entry's `avg`.
    Leaf,
    /// A completed height-1 subtree: coefficient `c` at index `j`,
    /// evaluated by closed form — never materialized as a table.
    VNode { j: u32, c: f64 },
    /// A completed subtree of height ≥ 2 with a materialized DP table.
    Table(Box<Table>),
}

#[derive(Debug)]
struct Pending {
    height: u32,
    /// Average of the covered block — the partial coefficient this
    /// subtree contributes upward (bit-identical to the offline
    /// transform's cascade).
    avg: f64,
    repr: Repr,
}

/// Result of [`StreamingMaxErr::finalize`].
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// The selected synopsis (at most `B` coefficients).
    pub synopsis: Synopsis1d,
    /// Certified guarantee: the true maximum absolute error of
    /// `synopsis` is at most `objective`, and `objective ≤ OPT(B) +
    /// ε·scale` whenever `scale` upper-bounds the offline optimum.
    pub objective: f64,
    /// The raw quantized-DP value (`objective` minus the drift
    /// allowance).
    pub dp_objective: f64,
    /// Rounding-drift allowance `(m - 1)·δ/2` added on top of the DP
    /// value to make `objective` a sound upper bound.
    pub drift: f64,
    /// Unified DP instrumentation (`states` = table cells materialized,
    /// `leaf_evals` = closed-form evaluations — one per grid error of
    /// each height-2 base table, two at an `N = 2` root — `peak_live` =
    /// peak live cells).
    pub stats: DpStats,
    /// Peak number of simultaneously live DP cells across the pass.
    pub peak_cells: usize,
    /// Peak resident sketch bytes: 12 per live table cell (value and
    /// set handle), the shared retained-set node store counted once
    /// (every slot, live or free), and the frontier stack.
    pub peak_bytes: usize,
}

/// One-pass streaming B-term max-absolute-error builder (module docs
/// give the algorithm, guarantee, and space accounting).
///
/// ```
/// use wsyn_stream::StreamingMaxErr;
/// use wsyn_synopsis::{ErrorMetric, RunParams};
///
/// let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
/// let scale = 5.0; // any upper bound on the offline optimum
/// let params = RunParams::new(2, ErrorMetric::absolute()).eps(0.25);
/// let mut b = StreamingMaxErr::new(data.len(), scale, &params).unwrap();
/// for &v in &data {
///     b.push(v).unwrap();
/// }
/// let run = b.finalize().unwrap();
/// assert!(run.synopsis.len() <= 2);
/// assert!(run.synopsis.max_error(&data, ErrorMetric::absolute()) <= run.objective + 1e-9);
/// ```
#[derive(Debug)]
pub struct StreamingMaxErr {
    n: usize,
    levels: u32,
    budget: usize,
    eps: f64,
    scale: f64,
    delta: f64,
    q_radius: usize,
    pushed: usize,
    stack: Vec<Pending>,
    // Boxed so tables move between the frontier (`Summary::Table`) and
    // this pool without copying their cell storage.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Table>>,
    sets: SetStore,
    /// The refusal that poisoned the builder, repeated by every later
    /// `push` and `finalize`.
    failed: Option<WsynError>,
    stats: DpStats,
    peak_cells: usize,
    peak_bytes: usize,
    obs: Collector,
}

impl StreamingMaxErr {
    /// Creates a builder for a stream of exactly `n` items.
    ///
    /// `scale` must upper-bound the offline optimum for the approximation
    /// guarantee to hold (`max |d_i|` always works: the empty synopsis
    /// achieves it). A scale that is *too small* never yields a wrong
    /// answer — the DP goes infeasible and `finalize` reports an error.
    /// `params` supplies the budget `B`, the quantization `eps`
    /// (`params.eps`), and the observability collector.
    ///
    /// # Errors
    /// [`WsynError::Unsupported`] for a relative metric (the streaming
    /// DP quantizes *absolute* incoming error; relative denominators
    /// need the data, which a one-pass sketch cannot revisit), and
    /// [`WsynError::Invalid`] for a non-power-of-two `n`, a
    /// non-positive or non-finite `eps`, or a negative or non-finite
    /// `scale`.
    pub fn new(n: usize, scale: f64, params: &RunParams) -> Result<StreamingMaxErr, WsynError> {
        match params.metric {
            ErrorMetric::Absolute => {}
            ErrorMetric::Relative { .. } => {
                return Err(WsynError::unsupported(
                    "stream",
                    "streaming construction supports the absolute metric only \
                     (relative denominators need a second pass over the data)",
                ));
            }
        }
        if n == 0 || !is_pow2(n) {
            return Err(WsynError::invalid(format!(
                "stream length must be a positive power of two, got {n}"
            )));
        }
        if !(params.eps.is_finite() && params.eps > 0.0) {
            return Err(WsynError::invalid(format!(
                "stream eps must be positive and finite, got {}",
                params.eps
            )));
        }
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(WsynError::invalid(format!(
                "stream scale must be non-negative and finite, got {scale}"
            )));
        }
        let levels = log2_exact(n);
        // Rounding happens once per materialized-table level entered by
        // a drop: heights m..3 plus the root's c_0 drop — `m - 1` levels
        // for m ≥ 2, none below (everything is exact).
        let round_levels = (levels as usize).saturating_sub(1).max(1);
        // `scale == 0` promises a zero optimum: the grid degenerates to
        // the single point `e = 0`, any nonzero forwarded error is
        // infeasible, and no rounding can ever occur — so the mode is
        // exact (a violated promise surfaces as an infeasible DP, never
        // a wrong answer).
        let (delta, q_radius) = if scale > 0.0 {
            (
                params.eps * scale / round_levels as f64,
                ((1.0 + params.eps) * round_levels as f64 / params.eps).ceil() as usize,
            )
        } else {
            (1.0, 0)
        };
        Ok(StreamingMaxErr {
            n,
            levels,
            budget: params.budget,
            eps: params.eps,
            scale,
            delta,
            q_radius,
            pushed: 0,
            stack: Vec::with_capacity(levels as usize + 1),
            free: Vec::new(),
            sets: SetStore::new(),
            failed: None,
            stats: DpStats::default(),
            peak_cells: 0,
            peak_bytes: 0,
            obs: params.obs.clone(),
        })
    }

    /// Declared stream length `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Items consumed so far.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Whether all `N` items have arrived.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.pushed == self.n
    }

    /// The budget `B`.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The approximation knob `ε` the run was configured with.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The quantization step `δ`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The grid radius `Q` (grid indices span `-Q..=Q`).
    #[must_use]
    pub fn q_radius(&self) -> usize {
        self.q_radius
    }

    /// Peak number of simultaneously live DP cells so far.
    #[must_use]
    pub fn peak_cells(&self) -> usize {
        self.peak_cells
    }

    /// Peak resident sketch bytes so far (DP table cells, the shared
    /// retained-set node store, and the frontier stack; see
    /// [`StreamRun::peak_bytes`]).
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The documented worst-case bound on [`StreamingMaxErr::peak_cells`]:
    /// at most one live table per level plus one in flight, each at most
    /// `(B + 1) × (2Q + 1)` cells. Independent of `N` beyond the
    /// `log2 N` factor — the sublinearity witness tests assert against.
    #[must_use]
    pub fn state_bound_cells(&self) -> usize {
        (self.levels as usize + 1) * (self.budget + 1) * (2 * self.q_radius + 1)
    }

    /// Consumes the next item.
    ///
    /// # Errors
    /// [`WsynError::Invalid`] when the stream is already complete, the
    /// value is not finite, or it completes a block whose Haar average or
    /// detail overflows. An overflow poisons the builder: every later
    /// `push` and `finalize` returns the same error.
    pub fn push(&mut self, value: f64) -> Result<(), WsynError> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        if self.pushed >= self.n {
            return Err(WsynError::invalid(format!(
                "stream already complete ({} items)",
                self.n
            )));
        }
        if !value.is_finite() {
            return Err(WsynError::invalid(format!(
                "stream values must be finite, got {value} at position {}",
                self.pushed
            )));
        }
        let obs = self.obs.clone();
        let _guard = obs.span("stream_push");
        obs.add("stream_items", 1);
        self.pushed += 1;
        self.stack.push(Pending {
            height: 0,
            avg: value,
            repr: Repr::Leaf,
        });
        while self.stack.len() >= 2
            && self.stack[self.stack.len() - 1].height == self.stack[self.stack.len() - 2].height
        {
            if let Err(err) = self.merge_top() {
                self.failed = Some(err.clone());
                return Err(err);
            }
        }
        Ok(())
    }

    /// Consumes a batch of items in order.
    ///
    /// # Errors
    /// Same conditions as [`StreamingMaxErr::push`].
    pub fn push_slice(&mut self, values: &[f64]) -> Result<(), WsynError> {
        for &v in values {
            self.push(v)?;
        }
        Ok(())
    }

    /// Merges the two equal-height subtrees on top of the frontier.
    ///
    /// # Errors
    /// [`WsynError::Invalid`] when the merged block's average or detail
    /// coefficient overflows to a non-finite value (finite items near
    /// `f64::MAX`): no certificate over such a coefficient is sound.
    fn merge_top(&mut self) -> Result<(), WsynError> {
        self.obs.add("stream_merges", 1);
        // `push` guarantees two equal-height entries are on top.
        // wsyn: allow(no-panic)
        let right = self.stack.pop().expect("merge needs two entries");
        // wsyn: allow(no-panic)
        let left = self.stack.pop().expect("merge needs two entries");
        let height = left.height + 1;
        // Bit-identical to `transform::forward`'s pairwise cascade.
        let c = (left.avg - right.avg) / 2.0;
        let avg = (left.avg + right.avg) / 2.0;
        if !(c.is_finite() && avg.is_finite()) {
            return Err(WsynError::invalid(format!(
                "stream value at position {} overflows the Haar transform: the \
                 average or detail of the {}-item block ending there is not finite",
                self.pushed - 1,
                1u64 << height
            )));
        }
        let block = (self.pushed - 1) >> height;
        let level = self.levels - height;
        let j = (1usize << level) + block;
        let repr = match (left.repr, right.repr) {
            (Repr::Leaf, Repr::Leaf) => Repr::VNode {
                j: narrow_u32(j),
                c,
            },
            (Repr::VNode { j: jl, c: cl }, Repr::VNode { j: jr, c: cr }) => {
                let table = self.build_base_table(j, c, (jl, cl), (jr, cr));
                self.note_peak(table.cells(), table.bytes());
                Repr::Table(table)
            }
            (Repr::Table(l), Repr::Table(r)) => {
                let table = self.merge_tables(height, j, c, &l, &r);
                // Children are still resident here — the honest peak.
                self.note_peak(
                    table.cells() + l.cells() + r.cells(),
                    table.bytes() + l.bytes() + r.bytes(),
                );
                self.sets.release_table(&l);
                self.sets.release_table(&r);
                self.free.push(l);
                self.free.push(r);
                Repr::Table(table)
            }
            // Siblings cover equal-size blocks, so equal height implies
            // equal representation by construction.
            // wsyn: allow(no-panic)
            _ => unreachable!("equal-height siblings share a representation"),
        };
        self.stack.push(Pending { height, avg, repr });
        Ok(())
    }

    /// Records a peak candidate: `extra` cells/bytes beyond what the
    /// frontier stack and the shared set store currently hold.
    fn note_peak(&mut self, extra_cells: usize, extra_bytes: usize) {
        let mut cells = extra_cells;
        let mut bytes = extra_bytes
            + self.sets.bytes()
            + self.stack.capacity() * std::mem::size_of::<Pending>();
        for p in &self.stack {
            if let Repr::Table(t) = &p.repr {
                cells += t.cells();
                bytes += t.bytes();
            }
        }
        self.peak_cells = self.peak_cells.max(cells);
        self.peak_bytes = self.peak_bytes.max(bytes);
        self.obs.gauge_max("stream_peak_cells", self.peak_cells);
    }

    fn take_table(&mut self, b_cap: usize) -> Box<Table> {
        let mut t = self.free.pop().unwrap_or_default();
        t.reset(b_cap, 2 * self.q_radius + 1);
        t
    }

    /// Rounds an incoming error onto the child grid; `None` when it
    /// falls outside the representable range (the corresponding drop is
    /// infeasible — any solution routed there already exceeds
    /// `scale·(1+ε)` and cannot be optimal).
    fn quantize(&self, e: f64) -> Option<usize> {
        if self.q_radius == 0 {
            // Degenerate zero-scale grid: only an exactly-zero error is
            // representable, so quantization never rounds.
            return if is_zero(e) { Some(0) } else { None };
        }
        let t = (e / self.delta).round();
        if t.abs() > self.q_radius as f64 {
            None
        } else {
            Some((t + self.q_radius as f64) as usize)
        }
    }

    /// Materializes the DP table of a height-2 subtree from the shared
    /// [`Height2`] closed form, evaluated once per **exact** grid error
    /// (children see `e ± c` exactly on a drop) — no rounding is
    /// introduced at this level. A cell's retained set is one of at most
    /// eight subset chains (one per kept mask of the three
    /// coefficients), shared by every cell that keeps that mask.
    fn build_base_table(
        &mut self,
        j: usize,
        c: f64,
        left: (u32, f64),
        right: (u32, f64),
    ) -> Box<Table> {
        self.obs.add("stream_tables", 1);
        let (jl, cl) = left;
        let (jr, cr) = right;
        let node = Height2 {
            c,
            left: Height1::unit(cl),
            right: Height1::unit(cr),
        };
        let b_cap = self.budget.min(3);
        let grid = 2 * self.q_radius + 1;
        self.stats.leaf_evals += grid;
        let coeffs = [(narrow_u32(j), c), (jl, cl), (jr, cr)];
        let mut chains = [None::<u32>; 8];
        let mut table = self.take_table(b_cap);
        for qi in 0..grid {
            // The leaf terms depend on the grid error only, not the budget.
            let at = node.at((qi as f64 - self.q_radius as f64) * self.delta);
            for b in 0..=b_cap {
                let (choice, kept) = at.kept(b);
                let mask = kept
                    .iter()
                    .enumerate()
                    .fold(0, |m, (i, &k)| m | (usize::from(k) << i));
                let chain = *chains[mask].get_or_insert_with(|| {
                    // Built back to front, so entries read in `coeffs` order.
                    let mut h = 0;
                    for (&(ji, ci), _) in coeffs.iter().zip(kept).rev().filter(|(_, k)| *k) {
                        let next = self.sets.node(ji, ci, h, 0);
                        self.sets.release(h);
                        h = next;
                    }
                    h
                });
                let i = table.at(b, qi);
                table.values[i] = choice.value;
                table.sets[i] = self.sets.share(chain);
            }
        }
        for chain in chains.into_iter().flatten() {
            self.sets.release(chain);
        }
        self.stats.states += table.cells();
        table
    }

    /// Merges two materialized child tables (height ≥ 2 each) into the
    /// parent subtree's table. Drops round the forwarded error onto the
    /// children's grid — the only place rounding enters the pass.
    ///
    /// Each grid error is one forward pass over the budgets
    /// ([`best_splits`]): the keep column splits `b - 1` between the
    /// children's columns at `e`, the drop column splits `b` between the
    /// columns at the rounded `e + c` and `e - c`. A kept cell's set is
    /// one new node over the children's sets; a dropped cell's set joins
    /// them ([`SetStore::join`]).
    fn merge_tables(&mut self, height: u32, j: usize, c: f64, l: &Table, r: &Table) -> Box<Table> {
        self.obs.add("stream_tables", 1);
        // `best_splits` needs every child column non-increasing in budget.
        debug_assert!(l.non_increasing() && r.non_increasing());
        let sub_coeffs = if height >= 32 {
            usize::MAX
        } else {
            (1usize << height) - 1
        };
        let b_cap = self.budget.min(sub_coeffs);
        let grid = 2 * self.q_radius + 1;
        let can_keep = !is_zero(c);
        let j = narrow_u32(j);
        let mut table = self.take_table(b_cap);
        // `keep[b - 1]` and `drop[b]`: (value, left allotment) per budget.
        let mut keep = vec![(f64::INFINITY, 0usize); b_cap];
        let mut drop = vec![(f64::INFINITY, 0usize); b_cap + 1];
        for qi in 0..grid {
            let e = (qi as f64 - self.q_radius as f64) * self.delta;
            // Keep: `e` (hence the grid index) forwards unchanged.
            if can_keep && b_cap >= 1 {
                best_splits(b_cap - 1, l.column(qi), r.column(qi), |k, v, la| {
                    keep[k] = (v, la);
                });
            }
            // Drop: children see `e ± c`, rounded to their grid.
            let targets = match (self.quantize(e + c), self.quantize(e - c)) {
                (Some(ql), Some(qr)) => {
                    best_splits(b_cap, l.column(ql), r.column(qr), |b, v, la| {
                        drop[b] = (v, la);
                    });
                    Some((ql, qr))
                }
                _ => {
                    drop.fill((f64::INFINITY, 0));
                    None
                }
            };
            for b in 0..=b_cap {
                let (drop_val, drop_la) = drop[b];
                let kept = (can_keep && b >= 1)
                    .then(|| keep[b - 1])
                    .filter(|&(keep_val, _)| keep_val <= drop_val);
                let (value, set) = match (kept, targets) {
                    (Some((v, la)), _) if v.is_finite() => {
                        let set = self
                            .sets
                            .node(j, c, l.set_of(la, qi), r.set_of(b - 1 - la, qi));
                        (v, set)
                    }
                    (Some((v, _)), _) => (v, 0),
                    // A finite drop value implies the targets exist.
                    (None, Some((ql, qr))) if drop_val.is_finite() => {
                        let set = self
                            .sets
                            .join(l.set_of(drop_la, ql), r.set_of(b - drop_la, qr));
                        (drop_val, set)
                    }
                    (None, _) => (drop_val, 0),
                };
                let i = table.at(b, qi);
                table.values[i] = value;
                table.sets[i] = set;
            }
        }
        self.stats.states += table.cells();
        table
    }

    /// Finalizes the pass: resolves the overall-average coefficient
    /// `c_0` against the top table and traces out the synopsis.
    ///
    /// # Errors
    /// [`WsynError::Invalid`] when the stream is incomplete, a `push`
    /// was refused for overflow, or the DP is infeasible (the declared
    /// `scale` was smaller than the optimum).
    pub fn finalize(mut self) -> Result<StreamRun, WsynError> {
        if let Some(err) = self.failed {
            return Err(err);
        }
        if self.pushed != self.n {
            return Err(WsynError::invalid(format!(
                "stream incomplete: got {} of {} items",
                self.pushed, self.n
            )));
        }
        let obs = self.obs.clone();
        let guard = obs.span("stream_finalize");
        // A complete stream leaves exactly the height-m root pending.
        // wsyn: allow(no-panic)
        let top = self.stack.pop().expect("complete stream has a root");
        let c0 = top.avg;
        let b = self.budget;
        let can_keep = b >= 1 && !is_zero(c0);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        let mut drift = 0.0;
        let dp_value = match top.repr {
            Repr::Leaf => {
                // N = 1: the lone coefficient is the value itself.
                if can_keep {
                    entries.push((0, c0));
                    0.0
                } else {
                    c0.abs()
                }
            }
            Repr::VNode { j, c } => {
                // N = 2: both options evaluate exactly.
                let node = Height1::unit(c);
                let keep = if can_keep {
                    Some(node.solve(b - 1, 0.0))
                } else {
                    None
                };
                let drop = node.solve(b, c0);
                self.stats.leaf_evals += 2;
                match keep {
                    Some(k) if k.value <= drop.value => {
                        entries.push((0, c0));
                        if k.keep {
                            entries.push((j as usize, c));
                        }
                        k.value
                    }
                    _ => {
                        if drop.keep {
                            entries.push((j as usize, c));
                        }
                        drop.value
                    }
                }
            }
            Repr::Table(t) => {
                // The degenerate zero-scale grid never rounds, so it
                // carries no drift allowance.
                if self.q_radius > 0 {
                    drift = (self.levels as usize - 1) as f64 * self.delta / 2.0;
                }
                let q_zero = self.q_radius;
                let keep_val = if can_keep {
                    t.value(b - 1, q_zero)
                } else {
                    f64::INFINITY
                };
                let drop_q = self.quantize(c0);
                let drop_val = drop_q.map_or(f64::INFINITY, |q| t.value(b, q));
                let keep = can_keep && keep_val <= drop_val;
                let chosen = if keep { keep_val } else { drop_val };
                if chosen.is_infinite() {
                    return Err(WsynError::invalid(format!(
                        "streaming DP infeasible: scale {} is below the \
                         offline optimum for this stream; rebuild with a \
                         larger scale (max |d_i| always suffices)",
                        self.scale
                    )));
                }
                let set = if keep {
                    entries.push((0, c0));
                    t.set_of(b - 1, q_zero)
                } else {
                    // A finite drop value implies the target exists.
                    // wsyn: allow(no-panic)
                    t.set_of(b, drop_q.expect("finite drop has a target"))
                };
                self.sets.entries(set, &mut entries);
                chosen
            }
        };
        let objective = dp_value + drift;
        debug_assert!(entries.len() <= self.budget);
        let synopsis = Synopsis1d::from_entries(self.n, entries)
            .map_err(|e| WsynError::invalid(format!("stream finalize: {e}")))?;
        self.stats.peak_live = self.peak_cells;
        obs.record_dp_stats(&self.stats);
        obs.gauge_max("stream_peak_cells", self.peak_cells);
        obs.add("stream_retained", synopsis.len());
        drop(guard);
        Ok(StreamRun {
            synopsis,
            objective,
            dp_objective: dp_value,
            drift,
            stats: self.stats,
            peak_cells: self.peak_cells,
            peak_bytes: self.peak_bytes,
        })
    }
}

/// Offline [`Thresholder`] adapter over [`StreamingMaxErr`]: holds the
/// data once (like every other algorithm behind `wsyn build`), derives
/// the scale as `max |d_i|`, and replays the vector through the one-pass
/// builder. The reported objective is the streaming *guarantee*, so
/// [`Thresholder::has_guarantee`] holds.
#[derive(Debug)]
pub struct StreamMaxErr {
    data: Vec<f64>,
    scale: f64,
}

impl StreamMaxErr {
    /// Wraps a data vector (length must be a positive power of two).
    ///
    /// # Errors
    /// [`WsynError::Invalid`] for an empty or non-power-of-two vector.
    pub fn new(data: &[f64]) -> Result<StreamMaxErr, WsynError> {
        if data.is_empty() || !is_pow2(data.len()) {
            return Err(WsynError::invalid(format!(
                "stream data length must be a positive power of two, got {}",
                data.len()
            )));
        }
        let scale = data.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        Ok(StreamMaxErr {
            data: data.to_vec(),
            scale,
        })
    }

    /// The derived scale (`max |d_i|` — an upper bound on the offline
    /// optimum, since the empty synopsis achieves it).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Thresholder for StreamMaxErr {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn has_guarantee(&self) -> bool {
        true
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let mut builder = StreamingMaxErr::new(self.data.len(), self.scale, params)?;
        builder.push_slice(&self.data)?;
        let run = builder.finalize()?;
        Ok(ThresholdRun {
            synopsis: AnySynopsis::One(run.synopsis),
            objective: run.objective,
            stats: run.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsyn_synopsis::one_dim::MinMaxErr;

    fn stream_build(data: &[f64], b: usize, eps: f64) -> StreamRun {
        let scale = data.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let params = RunParams::new(b, ErrorMetric::absolute()).eps(eps);
        let mut builder = StreamingMaxErr::new(data.len(), scale, &params).unwrap();
        builder.push_slice(data).unwrap();
        builder.finalize().unwrap()
    }

    #[test]
    fn paper_example_certifies_against_offline_optimum() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let scale = 5.0;
        let offline = MinMaxErr::new(&data).unwrap();
        for b in 0..=data.len() {
            for &eps in &[0.5, 0.1] {
                let run = stream_build(&data, b, eps);
                let opt = offline
                    .threshold(b, ErrorMetric::absolute())
                    .unwrap()
                    .objective;
                let measured = run.synopsis.max_error(&data, ErrorMetric::absolute());
                assert!(run.synopsis.len() <= b, "budget violated at b={b}");
                assert!(
                    measured <= run.objective + 1e-9,
                    "guarantee unsound at b={b} eps={eps}: measured {measured} > {}",
                    run.objective
                );
                assert!(
                    run.objective <= opt + eps * scale + 1e-9,
                    "approx factor violated at b={b} eps={eps}: {} > {opt} + {}",
                    run.objective,
                    eps * scale
                );
            }
        }
    }

    #[test]
    fn tiny_domains_are_exact() {
        // N = 1.
        let run = stream_build(&[3.5], 1, 0.5);
        assert!(is_zero(run.objective));
        assert_eq!(run.synopsis.entries(), &[(0, 3.5)]);
        let run = stream_build(&[3.5], 0, 0.5);
        assert!((run.objective - 3.5).abs() < 1e-12);
        // N = 2.
        let data = [4.0, -2.0];
        for b in 0..=2 {
            let run = stream_build(&data, b, 0.5);
            let opt = MinMaxErr::new(&data)
                .unwrap()
                .threshold(b, ErrorMetric::absolute())
                .unwrap()
                .objective;
            assert!(
                (run.objective - opt).abs() < 1e-12,
                "N=2 must be exact at b={b}: {} vs {opt}",
                run.objective
            );
        }
    }

    #[test]
    fn two_passes_are_byte_identical() {
        let data: Vec<f64> = (0..64)
            .map(|i| f64::from((i * 37 + 11) % 23) - 7.0)
            .collect();
        let a = stream_build(&data, 6, 0.25);
        let b = stream_build(&data, 6, 0.25);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.synopsis.entries().len(), b.synopsis.entries().len());
        for (x, y) in a.synopsis.entries().iter().zip(b.synopsis.entries()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        assert_eq!(a.peak_cells, b.peak_cells);
    }

    #[test]
    fn zero_data_with_zero_scale_is_trivial() {
        let run = stream_build(&[0.0; 16], 3, 0.5);
        assert!(is_zero(run.objective));
        assert!(run.synopsis.is_empty());
    }

    #[test]
    fn undersized_scale_reports_infeasible_not_wrong() {
        let data = [10.0, -10.0, 30.0, 2.0, 5.0, -8.0, 0.0, 1.0];
        let params = RunParams::new(1, ErrorMetric::absolute()).eps(0.25);
        let mut b = StreamingMaxErr::new(data.len(), 0.01, &params).unwrap();
        b.push_slice(&data).unwrap();
        assert!(b.finalize().is_err());
    }

    #[test]
    fn relative_metric_is_unsupported() {
        let params = RunParams::new(2, ErrorMetric::relative(1.0));
        assert!(StreamingMaxErr::new(8, 1.0, &params).is_err());
    }

    #[test]
    fn stream_guards_length_and_values() {
        let params = RunParams::new(2, ErrorMetric::absolute());
        assert!(StreamingMaxErr::new(0, 1.0, &params).is_err());
        assert!(StreamingMaxErr::new(12, 1.0, &params).is_err());
        let mut b = StreamingMaxErr::new(2, 1.0, &params).unwrap();
        assert!(b.push(f64::NAN).is_err());
        b.push_slice(&[1.0, 2.0]).unwrap();
        assert!(b.push(3.0).is_err());
        let mut b = StreamingMaxErr::new(4, 1.0, &params).unwrap();
        b.push(1.0).unwrap();
        assert!(b.finalize().is_err());
    }

    #[test]
    fn peak_state_respects_documented_bound() {
        let n = 1 << 14;
        let data: Vec<f64> = (0..n).map(|i| ((i * 131 + 7) % 97) as f64).collect();
        let params = RunParams::new(4, ErrorMetric::absolute()).eps(0.5);
        let scale = 96.0;
        let mut builder = StreamingMaxErr::new(n, scale, &params).unwrap();
        let bound = builder.state_bound_cells();
        // Every live cell holds a value, a handle, and a set of at most
        // `2B - 1` shared nodes (each with a possible free-list slot);
        // the store also keeps its unused slot 0, and the frontier
        // stack never outgrows its initial capacity.
        let bound_bytes = bound * (CELL_BYTES + (2 * builder.budget() - 1) * (NODE_BYTES + 4))
            + NODE_BYTES
            + builder.stack.capacity() * std::mem::size_of::<Pending>();
        builder.push_slice(&data).unwrap();
        let run = builder.finalize().unwrap();
        assert!(
            run.peak_cells <= bound,
            "peak {} exceeds documented bound {bound}",
            run.peak_cells
        );
        assert!(
            run.peak_bytes <= bound_bytes,
            "peak bytes {} exceed documented bound {bound_bytes}",
            run.peak_bytes
        );
        // Sublinearity witness: the bound (and the measurement) are far
        // below N — the sketch never holds the data.
        assert!(run.peak_cells < n / 2, "peak {} not o(N)", run.peak_cells);
    }

    /// Finite items whose Haar average or detail overflows are refused
    /// at the `push` that completes the block, naming its position, and
    /// the builder stays refused: no later call yields a certificate.
    #[test]
    fn overflowing_merges_are_refused_not_certified() {
        const MAX: f64 = f64::MAX;
        let cases: [(&[f64], usize); 5] = [
            (&[MAX, -MAX, MAX, 0.0], 8),
            (&[MAX, MAX, -MAX, MAX], 1),
            (&[MAX, MAX, -MAX, MAX], 4),
            (&[1e308, 1e308, -1e308, 1e308], 1),
            (&[MAX; 8], 2),
        ];
        for (data, b) in cases {
            let scale = data.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let params = RunParams::new(b, ErrorMetric::absolute()).eps(0.25);
            let mut builder = StreamingMaxErr::new(data.len(), scale, &params).unwrap();
            let err = builder.push_slice(data).unwrap_err();
            match &err {
                WsynError::Invalid(msg) => assert!(
                    msg.contains("position 1") && msg.contains("not finite"),
                    "{data:?} b={b}: {msg}"
                ),
                other => panic!("{data:?} b={b}: expected Invalid, got {other:?}"),
            }
            assert_eq!(builder.pushed(), 2, "{data:?} b={b}");
            assert_eq!(builder.push(0.0).unwrap_err(), err, "{data:?} b={b}");
            assert_eq!(builder.finalize().unwrap_err(), err, "{data:?} b={b}");
        }
    }

    #[test]
    fn thresholder_adapter_reports_guarantee() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let t = StreamMaxErr::new(&data).unwrap();
        assert!(t.has_guarantee());
        assert_eq!(t.name(), "stream");
        let run = t
            .threshold_with(&RunParams::new(3, ErrorMetric::absolute()))
            .unwrap();
        let syn = run.synopsis.into_one("stream test").unwrap();
        assert!(syn.len() <= 3);
        assert!(syn.max_error(&data, ErrorMetric::absolute()) <= run.objective + 1e-9);
    }
}
