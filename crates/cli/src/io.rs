//! File formats: data vectors (one f64 per line) and synopsis JSON.

use std::fs;
use std::path::Path;

use wsyn_aqp::AnySynopsis1d;
use wsyn_core::json::{self, Value};
use wsyn_synopsis::Synopsis1d;

/// Reads a data vector: one `f64` per line; blank lines and lines starting
/// with `#` are ignored.
pub fn read_data(path: &str) -> Result<Vec<f64>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v: f64 = line
            .parse()
            .map_err(|_| format!("{path}:{}: not a number: '{line}'", lineno + 1))?;
        out.push(v);
    }
    if out.is_empty() {
        return Err(format!("{path}: no data values"));
    }
    Ok(out)
}

/// Writes a data vector, one value per line.
pub fn write_data(path: &str, data: &[f64]) -> Result<(), String> {
    let body: String = data.iter().map(|v| format!("{v}\n")).collect();
    fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

/// What a synopsis's `len()` counts, for human-readable output.
pub fn unit(synopsis: &AnySynopsis1d) -> &'static str {
    match synopsis {
        AnySynopsis1d::Wavelet(_) => "coefficients",
        AnySynopsis1d::Histogram(_) => "buckets",
    }
}

/// On-disk synopsis document: the synopsis plus provenance metadata.
#[derive(Debug)]
pub struct SynopsisDoc {
    /// Which synopsis family built it (a registry id).
    pub algorithm: String,
    /// Metric spec string (`abs` / `rel:<sanity>`), if applicable.
    pub metric: Option<String>,
    /// The guaranteed maximum error at build time (guarantee-providing
    /// families only).
    pub objective: Option<f64>,
    /// The synopsis itself. Wavelet documents store `entries`
    /// (`[index, coefficient]` pairs); histogram documents store
    /// `buckets` (`[start, value]` pairs) — the key names double as the
    /// format tag.
    pub payload: AnySynopsis1d,
}

impl SynopsisDoc {
    fn to_json(&self) -> Value {
        let body = match &self.payload {
            AnySynopsis1d::Wavelet(s) => {
                let entries = s
                    .entries()
                    .iter()
                    .map(|&(j, v)| Value::Array(vec![Value::Number(j as f64), Value::Number(v)]))
                    .collect();
                json::object(vec![
                    ("n", Value::Number(s.n() as f64)),
                    ("entries", Value::Array(entries)),
                ])
            }
            AnySynopsis1d::Histogram(s) => {
                let buckets = s
                    .buckets()
                    .iter()
                    .map(|b| {
                        Value::Array(vec![Value::Number(b.start as f64), Value::Number(b.value)])
                    })
                    .collect();
                json::object(vec![
                    ("n", Value::Number(s.n() as f64)),
                    ("buckets", Value::Array(buckets)),
                ])
            }
        };
        json::object(vec![
            ("algorithm", Value::String(self.algorithm.clone())),
            (
                "metric",
                self.metric
                    .as_ref()
                    .map_or(Value::Null, |m| Value::String(m.clone())),
            ),
            (
                "objective",
                self.objective.map_or(Value::Null, Value::Number),
            ),
            ("synopsis", body),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let field = |key: &str| v.get(key).ok_or_else(|| format!("missing field '{key}'"));
        let algorithm = field("algorithm")?
            .as_str()
            .ok_or("'algorithm' is not a string")?
            .to_string();
        let metric = match v.get("metric") {
            None => None,
            Some(Value::Null) => None,
            Some(m) => Some(m.as_str().ok_or("'metric' is not a string")?.to_string()),
        };
        let objective = match v.get("objective") {
            None => None,
            Some(Value::Null) => None,
            // A guarantee bounds an error, so it is never negative.
            Some(o) => Some(
                o.as_f64()
                    .filter(|x| *x >= 0.0)
                    .ok_or("'objective' is not a non-negative number")?,
            ),
        };
        let syn = field("synopsis")?;
        let n = syn
            .get("n")
            .and_then(Value::as_usize)
            .ok_or("synopsis 'n' is not a non-negative integer")?;
        let pairs = |key: &str, raw: &[Value]| -> Result<Vec<(usize, f64)>, String> {
            let mut out = Vec::with_capacity(raw.len());
            for pair in raw {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("synopsis {key} entry is not a two-element pair"))?;
                let j = pair[0]
                    .as_usize()
                    .ok_or("synopsis entry index is not a non-negative integer")?;
                let value = pair[1]
                    .as_f64()
                    .ok_or("synopsis entry value is not a number")?;
                out.push((j, value));
            }
            Ok(out)
        };
        let payload = if let Some(raw) = syn.get("entries").and_then(Value::as_array) {
            // Construct without invariant checks; the caller validates,
            // so malformed documents surface as errors instead of
            // panics.
            AnySynopsis1d::Wavelet(Synopsis1d::from_raw_parts(n, pairs("entries", raw)?))
        } else if let Some(raw) = syn.get("buckets").and_then(Value::as_array) {
            let buckets = pairs("buckets", raw)?
                .into_iter()
                .map(|(start, value)| wsyn_hist::Bucket { start, value })
                .collect();
            AnySynopsis1d::Histogram(
                wsyn_hist::StepSynopsis::from_buckets(n, buckets)
                    .map_err(|e| format!("invalid histogram synopsis: {e}"))?,
            )
        } else {
            return Err("synopsis has neither 'entries' nor 'buckets'".to_string());
        };
        Ok(SynopsisDoc {
            algorithm,
            metric,
            objective,
            payload,
        })
    }
}

/// Writes a synopsis document as pretty JSON.
pub fn write_synopsis(path: &str, doc: &SynopsisDoc) -> Result<(), String> {
    let text = doc.to_json().pretty();
    fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Reads a synopsis document, validating the synopsis's structural
/// invariants (the parser alone would accept out-of-range or unsorted
/// entries, which later panic or silently mis-answer queries).
pub fn read_synopsis(path: &str) -> Result<SynopsisDoc, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = Value::parse(&text).map_err(|e| format!("{path}: bad synopsis JSON: {e}"))?;
    let doc =
        SynopsisDoc::from_json(&value).map_err(|e| format!("{path}: bad synopsis JSON: {e}"))?;
    // Histogram payloads are validated on construction in `from_json`.
    if let AnySynopsis1d::Wavelet(s) = &doc.payload {
        s.validate()
            .map_err(|e| format!("{path}: invalid synopsis: {e}"))?;
    }
    Ok(doc)
}

/// Ensures the parent directory of `path` exists.
pub fn ensure_parent(path: &str) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| format!("cannot create {parent:?}: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_roundtrip() {
        let dir = std::env::temp_dir().join("wsyn-cli-test-data");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.txt");
        let path = path.to_str().unwrap();
        write_data(path, &[1.5, -2.0, 3.25]).unwrap();
        assert_eq!(read_data(path).unwrap(), vec![1.5, -2.0, 3.25]);
    }

    #[test]
    fn data_skips_comments_and_blanks() {
        let dir = std::env::temp_dir().join("wsyn-cli-test-data2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.txt");
        std::fs::write(&path, "# header\n1.0\n\n2.0\n").unwrap();
        assert_eq!(read_data(path.to_str().unwrap()).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn malformed_synopsis_json_rejected_not_panicking() {
        let dir = std::env::temp_dir().join("wsyn-cli-test-evil");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evil.json");
        std::fs::write(
            &path,
            r#"{"algorithm":"minmax","metric":"abs","objective":1.0,
                "synopsis":{"n":8,"entries":[[99,5.0]]}}"#,
        )
        .unwrap();
        let err = read_synopsis(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        std::fs::write(
            &path,
            r#"{"algorithm":"minmax","metric":"abs","objective":0.0,
                "synopsis":{"n":8,"entries":[[5,1.0],[2,3.0]]}}"#,
        )
        .unwrap();
        let err = read_synopsis(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("sorted"), "{err}");
        std::fs::write(
            &path,
            r#"{"algorithm":"minmax","metric":"rel:1","objective":-1,
                "synopsis":{"n":8,"entries":[[0,1.0]]}}"#,
        )
        .unwrap();
        let err = read_synopsis(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn synopsis_roundtrip() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let tree = wsyn_haar::ErrorTree1d::from_data(&data).unwrap();
        let syn = Synopsis1d::from_indices(&tree, &[0, 1, 5]);
        let doc = SynopsisDoc {
            algorithm: "minmax".into(),
            metric: Some("rel:1.0".into()),
            objective: Some(0.5),
            payload: AnySynopsis1d::Wavelet(syn.clone()),
        };
        let dir = std::env::temp_dir().join("wsyn-cli-test-syn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.json");
        let path = path.to_str().unwrap();
        write_synopsis(path, &doc).unwrap();
        let back = read_synopsis(path).unwrap();
        assert_eq!(back.payload, AnySynopsis1d::Wavelet(syn));
        assert_eq!(back.objective, Some(0.5));
    }

    #[test]
    fn histogram_synopsis_roundtrip() {
        let run = wsyn_hist::solve(
            &[1.0, 1.0, 5.0, 5.0, 5.0, 2.0, 2.0, 2.0],
            None,
            3,
            wsyn_hist::SplitStrategy::Binary,
        )
        .unwrap();
        let doc = SynopsisDoc {
            algorithm: "hist".into(),
            metric: Some("abs".into()),
            objective: Some(run.objective),
            payload: AnySynopsis1d::Histogram(run.synopsis.clone()),
        };
        let dir = std::env::temp_dir().join("wsyn-cli-test-hist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.json");
        let path = path.to_str().unwrap();
        write_synopsis(path, &doc).unwrap();
        let back = read_synopsis(path).unwrap();
        assert_eq!(back.algorithm, "hist");
        assert_eq!(back.payload, AnySynopsis1d::Histogram(run.synopsis));
        // A malformed bucket list (unsorted starts) is rejected cleanly.
        std::fs::write(
            dir.join("bad.json"),
            r#"{"algorithm":"hist","metric":"abs","objective":0.0,
                "synopsis":{"n":8,"buckets":[[4,1.0],[0,2.0]]}}"#,
        )
        .unwrap();
        let err = read_synopsis(dir.join("bad.json").to_str().unwrap()).unwrap_err();
        assert!(err.contains("histogram"), "{err}");
    }
}
