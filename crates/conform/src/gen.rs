//! Seeded adversarial instance generators.
//!
//! Every instance is fully described by a [`Instance`] value and
//! serializes to hand-editable JSON; every generator is a pure function
//! of `(kind, seed)`, so a failing sweep round is reproducible from its
//! printed coordinates alone. Data is integer-valued throughout: the
//! engines' arithmetic is then dyadic-exact, which turns "nearly equal"
//! differential checks into **bit-identity** checks and makes float
//! tie-break regressions impossible to hide behind rounding slack.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsyn_core::json::{self, Value};
use wsyn_synopsis::ErrorMetric;

/// An error metric in serializable form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricSpec {
    /// Maximum absolute error.
    Abs,
    /// Maximum relative error with the given sanity bound.
    Rel(f64),
}

impl MetricSpec {
    /// The runtime metric.
    #[must_use]
    pub fn metric(self) -> ErrorMetric {
        match self {
            MetricSpec::Abs => ErrorMetric::absolute(),
            MetricSpec::Rel(s) => ErrorMetric::relative(s),
        }
    }

    /// Stable identifier, `"abs"` or `"rel:<sanity>"` (CLI `--metric`
    /// syntax of the main crate).
    #[must_use]
    pub fn id(self) -> String {
        match self {
            MetricSpec::Abs => "abs".to_string(),
            MetricSpec::Rel(s) => format!("rel:{s}"),
        }
    }

    /// Parses [`MetricSpec::id`] output with [`ErrorMetric::parse`].
    ///
    /// # Errors
    /// Describes the malformed spec.
    pub fn parse(text: &str) -> Result<MetricSpec, String> {
        Ok(match ErrorMetric::parse(text).map_err(|e| e.to_string())? {
            ErrorMetric::Absolute => MetricSpec::Abs,
            ErrorMetric::Relative { sanity } => MetricSpec::Rel(sanity),
        })
    }
}

/// One conformance instance: a data array plus the budgets, metrics and
/// streaming updates to exercise on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Unique name (generator coordinates or corpus file stem).
    pub name: String,
    /// Domain shape; every side a power of two. `len() == 1` is 1-D.
    pub shape: Vec<usize>,
    /// Row-major integer data, `len == shape.iter().product()`.
    pub data: Vec<i64>,
    /// Budgets to check, ascending.
    pub budgets: Vec<usize>,
    /// Metrics to check.
    pub metrics: Vec<MetricSpec>,
    /// Streaming updates `(index, delta)` for the rebuild-equivalence
    /// check (1-D instances only; ignored otherwise).
    pub updates: Vec<(usize, i64)>,
    /// The seed this instance was generated from (0 for hand-rolled).
    pub seed: u64,
}

impl Instance {
    /// Total number of cells.
    #[must_use]
    pub fn n(&self) -> usize {
        self.shape.iter().product()
    }

    /// Structural validation: non-empty power-of-two shape matching the
    /// data length, in-range update indices, positive budgets list.
    ///
    /// # Errors
    /// Describes the first structural problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.shape.is_empty() || self.shape.len() > 4 {
            return Err(format!("shape must have 1..=4 dims, got {:?}", self.shape));
        }
        for &s in &self.shape {
            if s == 0 || !s.is_power_of_two() {
                return Err(format!("side {s} is not a power of two"));
            }
        }
        if self.n() != self.data.len() {
            return Err(format!(
                "shape {:?} wants {} cells, data has {}",
                self.shape,
                self.n(),
                self.data.len()
            ));
        }
        if self.budgets.is_empty() || self.metrics.is_empty() {
            return Err("budgets and metrics must be non-empty".to_string());
        }
        for &(i, _) in &self.updates {
            if i >= self.n() {
                return Err(format!("update index {i} out of range 0..{}", self.n()));
            }
        }
        Ok(())
    }

    /// Serializes the instance (stable field order).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let nums = |v: &[usize]| Value::Array(v.iter().map(|&x| Value::Number(x as f64)).collect());
        json::object(vec![
            ("name", Value::String(self.name.clone())),
            ("shape", nums(&self.shape)),
            (
                "data",
                Value::Array(self.data.iter().map(|&x| Value::Number(x as f64)).collect()),
            ),
            ("budgets", nums(&self.budgets)),
            (
                "metrics",
                Value::Array(self.metrics.iter().map(|m| Value::String(m.id())).collect()),
            ),
            (
                "updates",
                Value::Array(
                    self.updates
                        .iter()
                        .map(|&(i, d)| {
                            Value::Array(vec![Value::Number(i as f64), Value::Number(d as f64)])
                        })
                        .collect(),
                ),
            ),
            ("seed", Value::Number(self.seed as f64)),
        ])
    }

    /// Parses [`Instance::to_json`] output (and hand-edited variants).
    ///
    /// # Errors
    /// Names the first missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Instance, String> {
        let arr = |name: &str| {
            v.get(name)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("instance: missing array `{name}`"))
        };
        let int_of = |x: &Value, what: &str| {
            let f = x
                .as_f64()
                .ok_or_else(|| format!("instance: non-numeric {what}"))?;
            if f.fract().abs() > 0.0 || f.abs() > 9e15 {
                return Err(format!("instance: {what} must be an integer, got {f}"));
            }
            Ok(f as i64)
        };
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("instance: missing `name`")?
            .to_string();
        let shape = arr("shape")?
            .iter()
            .map(|x| x.as_usize().ok_or("instance: bad shape entry".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let data = arr("data")?
            .iter()
            .map(|x| int_of(x, "data value"))
            .collect::<Result<Vec<_>, _>>()?;
        let budgets = arr("budgets")?
            .iter()
            .map(|x| x.as_usize().ok_or("instance: bad budget".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = arr("metrics")?
            .iter()
            .map(|x| {
                x.as_str()
                    .ok_or("instance: metric must be a string".to_string())
                    .and_then(MetricSpec::parse)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let updates = arr("updates")?
            .iter()
            .map(|x| {
                let pair = x
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .ok_or("instance: update must be [index, delta]")?;
                let i = pair[0]
                    .as_usize()
                    .ok_or("instance: bad update index".to_string())?;
                let d = int_of(&pair[1], "update delta")?;
                Ok::<(usize, i64), String>((i, d))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seed = v
            .get("seed")
            .and_then(Value::as_usize)
            .ok_or("instance: missing `seed`")? as u64;
        let inst = Instance {
            name,
            shape,
            data,
            budgets,
            metrics,
            updates,
            seed,
        };
        inst.validate()?;
        Ok(inst)
    }
}

/// Adversarial instance families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Mostly-flat signal with a few large isolated spikes: the greedy
    /// L2 baseline's worst case, and sparse non-zero coefficient sets.
    Spikes,
    /// Piecewise-constant plateaus: coefficients vanish except at the
    /// plateau boundaries, stressing the zero-coefficient filtering.
    Plateaus,
    /// Shuffled Zipfian frequencies: the paper's motivating workload.
    Zipf,
    /// Sign-alternating signal: every finest-level coefficient is
    /// non-zero with equal magnitude — maximal tie-break pressure.
    SignAlternating,
    /// Values drawn from `{±a, ±(a+1)}`: many coefficients collide in
    /// magnitude, so any engine ordering bug changes the retained set.
    NearTie,
    /// 2-D 4×4 bump field (quantized `cube_bumps`).
    Cube2d,
    /// 3-D 2×2×2 bump field.
    Cube3d,
}

impl Kind {
    /// Every family, in documentation order.
    pub const ALL: [Kind; 7] = [
        Kind::Spikes,
        Kind::Plateaus,
        Kind::Zipf,
        Kind::SignAlternating,
        Kind::NearTie,
        Kind::Cube2d,
        Kind::Cube3d,
    ];

    /// Stable identifier.
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            Kind::Spikes => "spikes",
            Kind::Plateaus => "plateaus",
            Kind::Zipf => "zipf",
            Kind::SignAlternating => "sign-alternating",
            Kind::NearTie => "near-tie",
            Kind::Cube2d => "cube-2d",
            Kind::Cube3d => "cube-3d",
        }
    }
}

/// Budgets for a 1-D domain of size `n`: the oracle-checkable small end
/// plus `n/2` and `n` (full recovery), deduplicated and ascending.
fn budget_ladder(n: usize) -> Vec<usize> {
    let mut b: Vec<usize> = vec![0, 1, 2, 3, n / 2, n];
    b.sort_unstable();
    b.dedup();
    b.retain(|&x| x <= n);
    b
}

/// Seeded streaming updates: a few nonzero integer deltas at seeded
/// positions.
fn gen_updates(rng: &mut StdRng, n: usize) -> Vec<(usize, i64)> {
    let count = rng.gen_range(2..=5);
    (0..count)
        .map(|_| {
            let i = rng.gen_range(0..n);
            let mut d: i64 = rng.gen_range(-20..=20);
            if d == 0 {
                d = 7;
            }
            (i, d)
        })
        .collect()
}

/// Generates one instance of the given family from a seed. Pure: the
/// same `(kind, seed)` always yields the same instance.
#[must_use]
pub fn generate(kind: Kind, seed: u64) -> Instance {
    // Decorrelate families sharing a sweep seed (fixed odd multiplier).
    let mixed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(kind.id().len() as u64);
    let mut rng = StdRng::seed_from_u64(mixed);
    let (shape, data) = match kind {
        Kind::Spikes => {
            let n = if seed % 2 == 0 { 16 } else { 32 };
            let mut data = vec![0i64; n];
            for v in &mut data {
                *v = rng.gen_range(-3..=3);
            }
            for _ in 0..rng.gen_range(1..=4) {
                let i = rng.gen_range(0..n);
                let sign: i64 = if rng.gen_range(0..2) == 0 { -1 } else { 1 };
                data[i] = sign * rng.gen_range(60i64..=200);
            }
            (vec![n], data)
        }
        Kind::Plateaus => {
            let n = if seed % 2 == 0 { 16 } else { 32 };
            let segments = rng.gen_range(2..=5);
            let f = wsyn_datagen::piecewise_constant(n, segments, (-40.0, 40.0), 0.0, mixed);
            (vec![n], wsyn_datagen::quantize_to_i64(&f))
        }
        Kind::Zipf => {
            let n = if seed % 2 == 0 { 16 } else { 32 };
            let skew = 0.7 + 0.1 * (seed % 8) as f64;
            let f =
                wsyn_datagen::zipf(n, skew, 400.0, wsyn_datagen::ZipfPlacement::Shuffled, mixed);
            (vec![n], wsyn_datagen::quantize_to_i64(&f))
        }
        Kind::SignAlternating => {
            let n = 32;
            let amp: i64 = rng.gen_range(5..=30);
            let drift: i64 = rng.gen_range(0..=2);
            let data = (0..n)
                .map(|i| {
                    let s: i64 = if i % 2 == 0 { 1 } else { -1 };
                    s * amp + drift * (i as i64 / 8)
                })
                .collect();
            (vec![n], data)
        }
        Kind::NearTie => {
            let n = if seed % 2 == 0 { 8 } else { 16 };
            let a: i64 = rng.gen_range(4..=12);
            let data = (0..n)
                .map(|_| {
                    let mag = a + rng.gen_range(0i64..=1);
                    let sign: i64 = if rng.gen_range(0..2) == 0 { -1 } else { 1 };
                    sign * mag
                })
                .collect();
            (vec![n], data)
        }
        Kind::Cube2d => {
            let f = wsyn_datagen::cube_bumps(4, 2, rng.gen_range(1..=3), (8.0, 60.0), 2.0, mixed);
            (vec![4, 4], wsyn_datagen::quantize_to_i64(&f))
        }
        Kind::Cube3d => {
            let f = wsyn_datagen::cube_bumps(2, 3, rng.gen_range(1..=2), (5.0, 40.0), 1.0, mixed);
            (vec![2, 2, 2], wsyn_datagen::quantize_to_i64(&f))
        }
    };
    let n: usize = shape.iter().product();
    let budgets = budget_ladder(n);
    let updates = if shape.len() == 1 {
        gen_updates(&mut rng, n)
    } else {
        Vec::new()
    };
    Instance {
        name: format!("{}-{seed}", kind.id()),
        shape,
        data,
        budgets,
        metrics: vec![MetricSpec::Abs, MetricSpec::Rel(1.0)],
        updates,
        seed,
    }
}
