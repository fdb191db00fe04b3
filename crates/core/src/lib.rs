//! # wsyn-core — the shared dynamic-programming substrate
//!
//! Every maximum-error guarantee in Garofalakis & Kumar (PODS 2004) is
//! computed by a dynamic program over the same abstract state — a
//! `(node, budget, incoming-error)` triple. This crate centralizes the
//! machinery those DPs share, so the six solvers in `wsyn-synopsis`
//! (and the probabilistic baselines in `wsyn-prob`) stop hand-rolling
//! their own memo tables and row storage:
//!
//! * [`StateTable`] — an open-addressing memo table keyed on a packed
//!   `u128` state with a hand-rolled multiply-xor (FxHash-style) hasher.
//!   Insert-only workloads (every top-down DP here) probe it 2–4× faster
//!   than `std::collections::HashMap`'s SipHash on tuple keys, and it
//!   keeps a running sum of probe displacement so table pressure is
//!   visible in [`DpStats`] without a counter in the lookup path.
//! * [`RowArena`] / [`RowId`] — arena-allocated DP rows (a value and a
//!   choice slice per node state) replacing per-row `Rc` clones: one
//!   allocation pool per solve, `Copy` handles in the memo. A multi-D
//!   run builds a fresh table and arena and drops them when it returns,
//!   so its counters never depend on an earlier run.
//! * [`DpStats`] — the unified statistics block every solver reports:
//!   materialized states, leaf evaluations, hash probes, peak live
//!   entries.
//! * [`json`] — a small dependency-free JSON reader/writer used by the
//!   CLI persistence layer and the benchmark artifact emitters.
//!
//! The crate is dependency-free by policy (DESIGN.md §6): hasher, table,
//! arena, and JSON are all hand-rolled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod json;
pub mod pool;

pub use error::WsynError;
pub use pool::Pool;

/// Unified statistics block reported by every DP solver in the workspace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Distinct `(node, budget, error)` states materialized. The 1-D
    /// `Dedup` kernel memoizes only nodes at height ≥ 3 of the error
    /// tree (and the root); the streaming builder counts table cells.
    pub states: usize,
    /// Evaluations done without the memo, each computing leaf errors
    /// `|e| / denom` directly. Most solvers count one per leaf. The
    /// streaming builder counts one per closed-form evaluation of a
    /// subtree of height ≤ 2, whatever its leaf count. The 1-D `Dedup`
    /// kernel counts one per closed-form child per branch it evaluates:
    /// a height-3 node's branch evaluates each height-2 child once for
    /// its whole split search, and the root counts each evaluation of
    /// its closed-form child (height ≤ 2, or the lone leaf when `N = 1`).
    pub leaf_evals: usize,
    /// Memo-table probe displacement — slots between each resident
    /// entry's hashed home slot and where it lives. `0` means every
    /// entry sits at its home slot.
    pub probes: usize,
    /// Peak number of memoized entries simultaneously resident.
    pub peak_live: usize,
}

impl DpStats {
    /// Component-wise sum — for aggregating per-τ or per-thread runs.
    #[must_use]
    pub fn merged(self, other: DpStats) -> DpStats {
        DpStats {
            states: self.states + other.states,
            leaf_evals: self.leaf_evals + other.leaf_evals,
            probes: self.probes + other.probes,
            peak_live: self.peak_live.max(other.peak_live),
        }
    }

    /// Serializes the counters as a JSON object with a stable field
    /// order — the persistence hook the conformance harness uses to
    /// record per-run DP statistics next to golden solver outputs.
    #[must_use]
    pub fn to_json(&self) -> json::Value {
        json::object(vec![
            ("states", json::Value::Number(self.states as f64)),
            ("leaf_evals", json::Value::Number(self.leaf_evals as f64)),
            ("probes", json::Value::Number(self.probes as f64)),
            ("peak_live", json::Value::Number(self.peak_live as f64)),
        ])
    }

    /// Parses counters serialized by [`DpStats::to_json`].
    ///
    /// # Errors
    /// Names the first missing or non-numeric field.
    pub fn from_json(v: &json::Value) -> Result<DpStats, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(json::Value::as_usize)
                .ok_or_else(|| format!("DpStats: missing or non-numeric field `{name}`"))
        };
        Ok(DpStats {
            states: field("states")?,
            leaf_evals: field("leaf_evals")?,
            probes: field("probes")?,
            peak_live: field("peak_live")?,
        })
    }
}

/// Packs a one-dimensional DP state `(node id, budget, error bits)` into
/// the `u128` key a [`StateTable`] expects.
#[inline]
#[must_use]
pub fn pack_state_1d(node: u32, budget: u32, error_bits: u64) -> u128 {
    (u128::from(node) << 96) | (u128::from(budget) << 64) | u128::from(error_bits)
}

/// Packs a multi-dimensional DP state `(packed node key, error bits)`.
/// The node key is the 64-bit `(level, index)` packing produced by
/// `wsyn_haar::nd::NodeRef::key`.
#[inline]
#[must_use]
pub fn pack_state_nd(node_key: u64, error_bits: u64) -> u128 {
    (u128::from(node_key) << 64) | u128::from(error_bits)
}

/// Whether `x` is exactly `±0.0`, decided on the bit pattern.
///
/// The determinism lint (`wsyn-analyze`, rule `float-eq`) bans float
/// `==`/`!=` in solver crates because accidental equality tie-breaks on
/// computed values are where reproducibility quietly dies. The solvers
/// *do* need one exact predicate — "is this coefficient structurally
/// zero?" (a zero coefficient never earns budget) — and this is it:
/// shifting out the sign bit leaves zero for `+0.0` and `-0.0` only.
/// `NaN` is not zero.
#[inline]
#[must_use]
pub fn is_zero(x: f64) -> bool {
    x.to_bits() << 1 == 0
}

/// Bit-identical `f64` equality (`a` and `b` have the same bit pattern).
///
/// The companion to [`is_zero`] for the rare solver-path comparisons
/// that genuinely mean "the *same* value, reproducibly": memo keys,
/// geometric-breakpoint membership, certification checks. Unlike `==`
/// this distinguishes `+0.0` from `-0.0` and equates `NaN` with itself
/// bit-for-bit — i.e. it is the equivalence the DP state packing
/// (`f64::to_bits` keys) already uses.
#[inline]
#[must_use]
pub fn total_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Checked `usize → u32` narrowing for DP state fields and row indices.
///
/// The lint rule `lossy-cast` bans bare narrowing `as` casts in solver
/// crates; every node-id/budget/allotment narrowing routes through here
/// instead so the (out-of-spec) overflow fails loudly rather than
/// wrapping into a wrong-but-plausible DP state.
///
/// # Panics
/// Panics when `x` does not fit in `u32` — all solvers bound node count
/// and budget well below `2^32`.
#[inline]
#[must_use]
pub fn narrow_u32(x: usize) -> u32 {
    match u32::try_from(x) {
        Ok(v) => v,
        // The single checked-narrowing choke point; reaching this arm
        // means a caller broke its documented N < 2^32 bound and no
        // recoverable answer exists.
        // wsyn: allow(no-panic)
        Err(_) => panic!("narrow_u32: {x} exceeds a u32 DP state field"),
    }
}

/// Checked `usize → u8` narrowing for tree-level counters.
///
/// Companion to [`narrow_u32`] for the `u8` level fields of
/// multi-dimensional error-tree nodes (`level ≤ 63` on any machine-word
/// domain, so overflow again means a broken caller invariant).
///
/// # Panics
/// Panics when `x` does not fit in `u8`.
#[inline]
#[must_use]
pub fn narrow_u8(x: usize) -> u8 {
    match u8::try_from(x) {
        Ok(v) => v,
        // Same contract as narrow_u32: fail loudly at the one choke point.
        // wsyn: allow(no-panic)
        Err(_) => panic!("narrow_u8: {x} exceeds a u8 tree-level field"),
    }
}

/// Checked `usize → i32` narrowing for exponent arguments (`powi` and
/// friends take `i32`; dimension/level counts are tiny by construction).
///
/// # Panics
/// Panics when `x` does not fit in `i32`.
#[inline]
#[must_use]
pub fn narrow_i32(x: usize) -> i32 {
    match i32::try_from(x) {
        Ok(v) => v,
        // Same contract as narrow_u32: fail loudly at the one choke point.
        // wsyn: allow(no-panic)
        Err(_) => panic!("narrow_i32: {x} exceeds an i32 exponent field"),
    }
}

/// FxHash-style multiply-xor hash of a packed state key. Not
/// collision-resistant against adversaries — DP states are not
/// attacker-controlled — but fast and well-mixed for the dense,
/// low-entropy keys the solvers produce.
#[inline]
#[must_use]
pub fn hash_state(key: u128) -> u64 {
    const M1: u64 = 0x9e37_79b9_7f4a_7c15; // 2^64 / φ
    const M2: u64 = 0xc2b2_ae3d_27d4_eb4f; // xxHash64 prime 2
    let lo = key as u64;
    let hi = (key >> 64) as u64;
    // Two independent multiplies (they pipeline) and one fold keep the
    // latency before the table index is known short — the hash sits on
    // the critical path in front of every memo cache miss.
    let h = lo.wrapping_mul(M1) ^ hi.wrapping_mul(M2);
    h ^ (h >> 32)
}

/// An open-addressing (linear-probe) memo table keyed on a packed `u128`
/// DP state. Insert-only *between resets* — the DPs never remove
/// individual entries, but a retained table may be [`Self::reset`]
/// wholesale and refilled for the next run while keeping its allocation.
///
/// Keys and values live in parallel arrays so the probe walk streams a
/// dense `u128` key array (four keys per cache line) instead of fat
/// key+value slots; values are only touched on a hit. An all-ones key is
/// the empty-slot sentinel — no packed DP state reaches it (it would
/// need an all-ones node id, budget, *and* error bit pattern at once),
/// and `insert` rejects it.
///
/// Table pressure for [`DpStats`] is not counted in the lookup path (a
/// per-lookup counter costs ~10% on memo-bound DPs); [`Self::probes`]
/// instead reports the total probe displacement of the resident entries,
/// a running sum that insert-only linear probing keeps exact: an entry's
/// slot never moves until the next growth or reset.
///
/// The slot count only depends on the reset that started the run and
/// the inserts since, never on the allocation behind it. A table that
/// was never reset is used once: each growth moves it into a fresh
/// allocation of exactly the new slot count and frees the old one. Once
/// reset, a table is kept for refills: growth rehashes inside its own
/// allocation (see [`Self::reset`]), so a table that once grew to `T`
/// slots holds at most `1.25 · T` slots of memory and refills to any
/// size up to `T` without allocating.
pub struct StateTable<V> {
    keys: Vec<u128>,
    vals: Vec<Option<V>>,
    len: usize,
    /// Sum of every resident entry's probe displacement.
    displacement: usize,
    /// Set by [`Self::reset`]: growth stays inside the allocation.
    kept: bool,
}

/// Empty-slot marker in the key array (see [`StateTable`] docs).
const EMPTY_KEY: u128 = u128::MAX;

impl<V> Default for StateTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> StateTable<V> {
    /// The fewest slots a table has: a fresh table's count, and the
    /// smallest [`Self::reset`] accepts.
    pub const MIN_SLOTS: usize = 16;

    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty table pre-sized for about `n` entries.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let cap = (n * 10 / 7 + 1).next_power_of_two().max(Self::MIN_SLOTS);
        StateTable {
            keys: vec![EMPTY_KEY; cap],
            vals: (0..cap).map(|_| None).collect(),
            len: 0,
            displacement: 0,
            kept: false,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total probe displacement of the resident entries: the number of
    /// slots between each entry's hashed home slot and where it actually
    /// lives. `0` means every entry sits at its home slot — every lookup
    /// lands directly. A running sum: `insert` adds each new entry's
    /// displacement, `grow` recomputes it for the rehashed layout and
    /// `reset` zeroes it, so reading it costs no table scan and the
    /// lookup path carries no counter.
    #[must_use]
    pub fn probes(&self) -> usize {
        self.displacement
    }

    /// [`Self::probes`] derived by one pass over the whole table: the
    /// reference the running sum is tested against.
    #[cfg(test)]
    fn scanned_probes(&self) -> usize {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != EMPTY_KEY)
            .map(|(i, &k)| self.displacement_at(i, k))
            .sum()
    }

    /// Where the slot arrays live and how many slots they can hold: a
    /// table that did not reallocate reports the same value.
    #[cfg(test)]
    fn allocation(&self) -> [(usize, usize); 2] {
        [
            (self.keys.as_ptr().addr(), self.keys.capacity()),
            (self.vals.as_ptr().addr(), self.vals.capacity()),
        ]
    }

    /// Slots between `key`'s hashed home slot and slot `i`.
    #[inline]
    fn displacement_at(&self, i: usize, key: u128) -> usize {
        i.wrapping_sub(hash_state(key) as usize) & (self.keys.len() - 1)
    }

    /// Index of the slot holding `key` (`true`), or of the empty slot
    /// where it would be inserted (`false`). A single pass over the key
    /// array — callers never re-compare the key. Indexing is written as
    /// `keys[i & mask]` with `mask == keys.len() - 1` so the bounds
    /// check compiles away. The loop carries no probe counter — `insert`
    /// records the displacement of the slot it fills ([`Self::probes`]).
    #[inline]
    fn probe(&self, key: u128) -> (usize, bool) {
        let keys = self.keys.as_slice();
        let mask = keys.len() - 1;
        let mut i = hash_state(key) as usize;
        let found = loop {
            let k = keys[i & mask];
            if k == key {
                break true;
            }
            if k == EMPTY_KEY {
                break false;
            }
            i += 1;
        };
        (i & mask, found)
    }

    /// Looks up a state.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u128) -> Option<&V> {
        match self.probe(key) {
            (i, true) => self.vals[i].as_ref(),
            (_, false) => None,
        }
    }

    /// Inserts a state, returning the previous value if the state was
    /// already present.
    ///
    /// # Panics
    /// Panics on the all-ones key, which is reserved as the empty-slot
    /// sentinel (no packed DP state produces it).
    pub fn insert(&mut self, key: u128, value: V) -> Option<V> {
        assert_ne!(key, EMPTY_KEY, "all-ones key is the empty-slot sentinel");
        if (self.len + 1) * 10 >= self.keys.len() * 7 {
            self.grow();
        }
        match self.probe(key) {
            (i, true) => self.vals[i].replace(value),
            (i, false) => {
                self.displacement += self.displacement_at(i, key);
                self.keys[i] = key;
                self.vals[i] = Some(value);
                self.len += 1;
                None
            }
        }
    }

    /// Rehashes into 4× the slots. A table used once moves to a fresh
    /// allocation of exactly the new count. A kept table rehashes inside
    /// its own allocation: the old slots move to a tail past the new slot
    /// count, the emptied head takes them back in slot order, and the
    /// tail is cut off; the allocation grows only when it holds fewer
    /// than `5 ×` the old slot count. Either way the result is the layout
    /// a rehash into a fresh table gives.
    fn grow(&mut self) {
        // Grow 4× per rehash: DP memos routinely reach millions of
        // states, and halving the number of full-table reinsert passes
        // matters more than the transiently lower load factor.
        let old_cap = self.keys.len();
        let new_cap = old_cap * 4;
        self.displacement = 0;
        if !self.kept {
            let keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
            let vals = std::mem::replace(&mut self.vals, (0..new_cap).map(|_| None).collect());
            for (key, val) in keys.into_iter().zip(vals) {
                if key != EMPTY_KEY {
                    self.place(new_cap - 1, key, val);
                }
            }
            return;
        }
        self.keys.reserve_exact(new_cap);
        self.vals.reserve_exact(new_cap);
        self.keys.resize(new_cap + old_cap, EMPTY_KEY);
        self.vals.resize_with(new_cap + old_cap, || None);
        let (head, tail) = self.keys.split_at_mut(new_cap);
        head[..old_cap].swap_with_slice(tail);
        let (head, tail) = self.vals.split_at_mut(new_cap);
        head[..old_cap].swap_with_slice(tail);
        for old in new_cap..new_cap + old_cap {
            let key = self.keys[old];
            if key != EMPTY_KEY {
                let val = self.vals[old].take();
                self.place(new_cap - 1, key, val);
            }
        }
        self.keys.truncate(new_cap);
        self.vals.truncate(new_cap);
    }

    /// Puts a rehashed entry into the first empty slot from its home
    /// among the first `mask + 1` slots.
    fn place(&mut self, mask: usize, key: u128, val: Option<V>) {
        let home = hash_state(key) as usize;
        let mut i = home & mask;
        while self.keys[i] != EMPTY_KEY {
            i = (i + 1) & mask;
        }
        self.displacement += i.wrapping_sub(home) & mask;
        self.keys[i] = key;
        self.vals[i] = val;
    }

    /// Number of slots (a power of two ≥ 16).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Removes every entry and sets the slot count to `slots`, inside
    /// the table's allocation when it is large enough.
    ///
    /// The next run then fills the table exactly as it would fill a
    /// fresh one started at `slots`: the same layout, the same
    /// [`Self::probes`], the same iteration order, and the same growth
    /// points. Only the allocation differs: from the first reset on, the
    /// table is kept, and growth rehashes inside its allocation, so a
    /// refill skips the page faults of a fresh table. Between resets the
    /// table stays insert-only, so the running displacement sum stays
    /// exact.
    ///
    /// # Panics
    /// Panics unless `slots` is a power of two of at least 16.
    pub fn reset(&mut self, slots: usize) {
        assert!(
            slots.is_power_of_two() && slots >= Self::MIN_SLOTS,
            "slot count {slots} must be a power of two of at least {}",
            Self::MIN_SLOTS
        );
        self.keys.clear();
        self.keys.reserve_exact(slots);
        self.keys.resize(slots, EMPTY_KEY);
        self.vals.clear();
        self.vals.reserve_exact(slots);
        self.vals.resize_with(slots, || None);
        self.len = 0;
        self.displacement = 0;
        self.kept = true;
    }

    /// Iterates over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, &V)> {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|&(&k, _)| k != EMPTY_KEY)
            .filter_map(|(&k, v)| v.as_ref().map(|v| (k, v)))
    }
}

/// A `Copy` handle to a row allocated in a [`RowArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(u32);

/// Arena storage for DP rows: each row is a value slice and a parallel
/// choice slice (`values[b]` = optimal objective with budget `b`,
/// `choices[b]` = the decision achieving it). Replaces per-row
/// `Rc<NodeRow>` clones — rows live as long as the solve, and handles
/// are `Copy`.
pub struct RowArena<V> {
    values: Vec<V>,
    choices: Vec<u32>,
    rows: Vec<(u32, u32)>, // (offset, len)
}

impl<V> Default for RowArena<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> RowArena<V> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        RowArena {
            values: Vec::new(),
            choices: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Allocates a row from parallel value/choice vectors.
    ///
    /// # Panics
    /// Panics when the vectors' lengths differ or the arena is full
    /// (more than `u32::MAX` rows or elements).
    pub fn alloc(&mut self, values: Vec<V>, choices: Vec<u32>) -> RowId {
        assert_eq!(values.len(), choices.len(), "row slices must be parallel");
        let offset = narrow_u32(self.values.len());
        let len = narrow_u32(values.len());
        let id = narrow_u32(self.rows.len());
        self.values.extend(values);
        self.choices.extend(choices);
        self.rows.push((offset, len));
        RowId(id)
    }

    /// The value slice of a row.
    #[must_use]
    pub fn values(&self, id: RowId) -> &[V] {
        let (off, len) = self.rows[id.0 as usize];
        &self.values[off as usize..(off + len) as usize]
    }

    /// The choice slice of a row.
    #[must_use]
    pub fn choices(&self, id: RowId) -> &[u32] {
        let (off, len) = self.rows[id.0 as usize];
        &self.choices[off as usize..(off + len) as usize]
    }

    /// Number of rows allocated.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Total elements stored across all rows.
    #[must_use]
    pub fn elements(&self) -> usize {
        self.values.len()
    }
}

/// Number of hardware threads the host exposes, with a deterministic
/// fallback of `1` when the query fails. This is the *host* half of the
/// thread-count policy; call sites should not consult it directly but
/// go through [`pool::configured_threads`] / [`Pool`], which layer the
/// `WSYN_POOL_THREADS` override and the min-work floor on top so every
/// layer agrees (single-core hosts skip thread-spawn overhead entirely
/// — the parallel τ-sweep measured 0.99× on a single-CPU host).
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_stats_json_roundtrip() {
        let s = DpStats {
            states: 12,
            leaf_evals: 345,
            probes: 6,
            peak_live: 78,
        };
        let v = s.to_json();
        assert_eq!(DpStats::from_json(&v).unwrap(), s);
        // Survives a serialize → parse cycle (as persisted on disk).
        let reparsed = json::Value::parse(&v.pretty()).unwrap();
        assert_eq!(DpStats::from_json(&reparsed).unwrap(), s);
        // Missing fields are named.
        let err = DpStats::from_json(&json::object(vec![("states", json::Value::Number(1.0))]))
            .unwrap_err();
        assert!(err.contains("leaf_evals"), "{err}");
    }

    #[test]
    fn table_roundtrips_and_counts() {
        let mut t: StateTable<u64> = StateTable::new();
        for i in 0..10_000u64 {
            let key = pack_state_1d(i as u32, (i % 64) as u32, i.wrapping_mul(0x5851_f42d));
            assert!(t.insert(key, i).is_none());
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u64 {
            let key = pack_state_1d(i as u32, (i % 64) as u32, i.wrapping_mul(0x5851_f42d));
            assert_eq!(t.get(key), Some(&i));
        }
        assert_eq!(t.get(pack_state_1d(99_999, 0, 0)), None);
        // 10k keys in a ≤16k-slot table must displace somewhere.
        assert!(t.probes() > 0, "probe-displacement accounting broken");
    }

    #[test]
    fn insert_replaces() {
        let mut t: StateTable<&str> = StateTable::new();
        assert_eq!(t.insert(7, "a"), None);
        assert_eq!(t.insert(7, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(7), Some(&"b"));
    }

    #[test]
    fn table_survives_growth_with_clustered_keys() {
        // Sequential keys stress linear probing across several growths.
        let mut t: StateTable<usize> = StateTable::with_capacity(4);
        for i in 0..5_000usize {
            t.insert(i as u128, i);
        }
        for i in 0..5_000usize {
            assert_eq!(t.get(i as u128), Some(&i));
        }
    }

    #[test]
    fn arena_rows_are_stable() {
        let mut a: RowArena<f64> = RowArena::new();
        let r1 = a.alloc(vec![1.0, 2.0], vec![0, 1]);
        let r2 = a.alloc(vec![3.0], vec![9]);
        let r3 = a.alloc(vec![], vec![]);
        assert_eq!(a.values(r1), &[1.0, 2.0]);
        assert_eq!(a.choices(r1), &[0, 1]);
        assert_eq!(a.values(r2), &[3.0]);
        assert_eq!(a.choices(r2), &[9]);
        assert_eq!(a.values(r3), &[] as &[f64]);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.elements(), 3);
    }

    #[test]
    fn table_reset_keeps_allocation_and_empties_contents() {
        let mut t: StateTable<u64> = StateTable::new();
        t.reset(StateTable::<u64>::MIN_SLOTS);
        for i in 0..1_000u64 {
            t.insert(pack_state_1d(i as u32, 0, i), i);
        }
        let alloc = t.allocation();
        t.reset(64);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.slots(), 64);
        assert_eq!(t.probes(), 0);
        for i in 0..1_000u64 {
            assert_eq!(t.get(pack_state_1d(i as u32, 0, i)), None);
        }
        // Refilling to the earlier size grows inside the same allocation.
        for i in 0..1_000u64 {
            assert!(t.insert(pack_state_1d(i as u32, 1, i), i * 2).is_none());
            assert_eq!(t.allocation(), alloc, "after {} inserts", i + 1);
        }
        assert_eq!(t.len(), 1_000);
        assert_eq!(t.get(pack_state_1d(17, 1, 17)), Some(&34));
    }

    /// A table that was never reset grows into allocations of exactly its
    /// slot count, and frees each one it outgrows.
    #[test]
    fn table_used_once_grows_into_exact_allocations() {
        let mut t: StateTable<u64> = StateTable::new();
        for i in 0..1_000u64 {
            t.insert(pack_state_1d(i as u32, 0, i), i);
            let slots = t.slots();
            assert_eq!(t.allocation().map(|(_, capacity)| capacity), [slots; 2]);
        }
        assert_eq!(t.slots(), 4_096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn table_reset_rejects_a_slot_count_below_sixteen() {
        StateTable::<u64>::new().reset(8);
    }

    #[test]
    fn host_parallelism_is_at_least_one() {
        // Direct probe of the policy primitive itself; everything else
        // must go through Pool. wsyn: allow(thread-policy)
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn stats_merge() {
        let a = DpStats {
            states: 1,
            leaf_evals: 2,
            probes: 3,
            peak_live: 10,
        };
        let b = DpStats {
            states: 4,
            leaf_evals: 5,
            probes: 6,
            peak_live: 7,
        };
        let m = a.merged(b);
        assert_eq!(
            m,
            DpStats {
                states: 5,
                leaf_evals: 7,
                probes: 9,
                peak_live: 10
            }
        );
    }

    #[test]
    fn packing_is_injective_on_components() {
        let a = pack_state_1d(1, 2, 3);
        let b = pack_state_1d(2, 1, 3);
        let c = pack_state_1d(1, 2, 4);
        assert!(a != b && a != c && b != c);
        assert_ne!(pack_state_nd(1, 2), pack_state_nd(2, 1));
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::StateTable;

    /// Packed keys, biased towards a small space so runs exercise
    /// overwrites and probe clusters, not just fresh inserts. The
    /// all-ones sentinel is remapped to zero (`insert` rejects it by
    /// contract, so it can never be a real DP state).
    fn key_strategy() -> impl Strategy<Value = u128> {
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(hi, lo, small)| {
            let k = if small {
                u128::from(lo % 97)
            } else {
                (u128::from(hi) << 64) | u128::from(lo)
            };
            if k == u128::MAX {
                0
            } else {
                k
            }
        })
    }

    /// An operation against the table: insert, lookup, or a wholesale
    /// reset to 16, 64 or 256 slots (the retained-memo lifecycle).
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u128, u64),
        Get(u128),
        Reset(usize),
    }

    /// Insert/lookup arms are repeated so `Reset` stays rare (the
    /// vendored `prop_oneof` has no weight syntax): long insert runs
    /// are needed to cross growth boundaries between resets.
    fn op_strategy() -> impl Strategy<Value = Op> {
        let insert = || (key_strategy(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v));
        let get = || key_strategy().prop_map(Op::Get);
        prop_oneof![
            insert(),
            insert(),
            insert(),
            insert(),
            get(),
            get(),
            get(),
            (0..3u32).prop_map(|p| Op::Reset(16 << (2 * p))),
        ]
    }

    proptest! {
        /// The open-addressing table is observationally equivalent to a
        /// `BTreeMap` reference model under any interleaving of inserts,
        /// lookups, and resets, across growth/rehash boundaries, and its
        /// final iteration contents match the model exactly. The running
        /// probe count equals a full-table displacement scan after every
        /// operation.
        #[test]
        fn state_table_matches_btreemap_model(
            ops in proptest::collection::vec(op_strategy(), 0..400),
        ) {
            let mut table: StateTable<u64> = StateTable::with_capacity(2);
            let mut model: BTreeMap<u128, u64> = BTreeMap::new();
            for &op in &ops {
                match op {
                    Op::Insert(key, value) => {
                        prop_assert_eq!(table.insert(key, value), model.insert(key, value));
                    }
                    Op::Get(key) => prop_assert_eq!(table.get(key), model.get(&key)),
                    Op::Reset(slots) => {
                        table.reset(slots);
                        model.clear();
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                prop_assert_eq!(table.probes(), table.scanned_probes());
            }
            let mut got: Vec<(u128, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
            got.sort_unstable();
            let want: Vec<(u128, u64)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A table that grew large and was reset to `slots` fills exactly
        /// like a fresh table started at `slots`: the same slot count,
        /// probes and iteration order after every insert, across growth
        /// boundaries. Its growth stays inside the retained allocation.
        #[test]
        fn state_table_reset_replays_like_a_fresh_table(
            keys in proptest::collection::vec(key_strategy(), 0..300),
            slots_pow in 0..3u32,
        ) {
            let slots = 16 << (2 * slots_pow);
            let mut retained: StateTable<u64> = StateTable::new();
            // 1,000 distinct keys reach 4,096 slots, beyond what 300
            // inserts grow any start below 4,096 slots to.
            for k in 0..1_000u128 {
                retained.insert(k << 64, 0);
            }
            retained.reset(slots);
            let alloc = retained.allocation();
            let mut fresh: StateTable<u64> = StateTable::new();
            fresh.reset(slots);
            for (v, &key) in keys.iter().enumerate() {
                let v = v as u64;
                prop_assert_eq!(retained.insert(key, v), fresh.insert(key, v));
                prop_assert_eq!(retained.slots(), fresh.slots());
                prop_assert_eq!(retained.probes(), fresh.probes());
                prop_assert_eq!(retained.allocation(), alloc);
            }
            let order = |t: &StateTable<u64>| t.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>();
            prop_assert_eq!(order(&retained), order(&fresh));
        }
    }
}
