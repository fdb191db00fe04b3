//! The wire protocol: versioned length-prefixed frames carrying
//! canonical-bytes JSON.
//!
//! A frame is `[u32 big-endian length][u8 version][payload]`, where
//! `length` counts the version byte plus the payload and the payload is
//! a single JSON document rendered by [`Value::compact`] — the
//! workspace's canonical writer, so two equal [`Value`]s always encode
//! to identical bytes. That canonical-bytes property is load-bearing:
//! the `server-identity` conformance family diffs server answers against
//! library answers *as bytes*, and CI diffs whole answer streams across
//! `WSYN_POOL_THREADS` settings.
//!
//! Requests and responses are JSON objects. A request carries an `"op"`
//! discriminant; a response carries `"ok"` plus either result fields or
//! an `"error"` string. Unknown ops, malformed frames, and oversized
//! frames are protocol errors — the server answers with `ok: false`
//! rather than dropping the connection, except for frames whose declared
//! length exceeds [`MAX_FRAME_BYTES`] (those poison the stream, since
//! the payload cannot be safely skipped).

use std::io::{Read, Write};

use wsyn_core::json::{object, Value};

/// Protocol version carried in every frame.
///
/// History: v1 = PR-8 launch surface; v2 = optional `family` field on
/// `build` (synopsis-family selection). Version mismatches error out of
/// [`read_frame`], and both the server's connection loop and the client
/// treat that as fatal for the stream — error-and-close, never
/// best-effort reinterpretation of a frame from the wrong dialect.
/// Responses to requests that omit `family` are byte-identical to v1
/// (pinned by conform's recorded-transcript compatibility test), so
/// upgrading both ends is a drop-in change.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a frame's declared length (version byte + payload).
/// 64 MiB comfortably holds the largest corpus column (`N = 2^20` f64
/// values render well under 16 MiB) while bounding a malicious or
/// corrupt header's allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// Writes one frame: header, version byte, then `payload` bytes.
///
/// # Errors
/// An I/O failure from `w`, or a payload larger than
/// [`MAX_FRAME_BYTES`] − 1.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), String> {
    let total = payload.len() + 1;
    if total > MAX_FRAME_BYTES {
        return Err(format!(
            "frame of {total} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        ));
    }
    let len = u32::try_from(total).map_err(|_| "frame length overflows u32".to_string())?;
    w.write_all(&len.to_be_bytes())
        .and_then(|()| w.write_all(&[PROTOCOL_VERSION]))
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| format!("write frame: {e}"))
}

/// Reads one frame's payload (the bytes after the version byte).
///
/// Returns `Ok(None)` on clean end-of-stream (the peer closed before a
/// header byte arrived).
///
/// # Errors
/// A truncated frame, an I/O failure, a declared length of zero or
/// above [`MAX_FRAME_BYTES`], or a version byte other than
/// [`PROTOCOL_VERSION`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, String> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err("eof inside frame header".to_string()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read frame header: {e}")),
        }
    }
    let total = u32::from_be_bytes(header) as usize;
    if total == 0 {
        return Err("frame declares zero length".to_string());
    }
    if total > MAX_FRAME_BYTES {
        return Err(format!(
            "frame declares {total} bytes, above the {MAX_FRAME_BYTES}-byte cap"
        ));
    }
    let mut body = vec![0u8; total];
    r.read_exact(&mut body)
        .map_err(|e| format!("read frame body: {e}"))?;
    let version = body[0];
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {version} (expected {PROTOCOL_VERSION})"
        ));
    }
    body.remove(0);
    Ok(Some(body))
}

/// The query shapes a `query` request carries; the type lives beside
/// the answer derivation in `wsyn-aqp`.
pub use wsyn_aqp::QueryKind;

/// The wire fields of a query shape.
fn query_fields(kind: QueryKind) -> Vec<(&'static str, Value)> {
    match kind {
        QueryKind::Point(i) => vec![
            ("kind", Value::String("point".to_string())),
            ("i", Value::Number(i as f64)),
        ],
        QueryKind::RangeSum(lo, hi) => vec![
            ("kind", Value::String("sum".to_string())),
            ("lo", Value::Number(lo as f64)),
            ("hi", Value::Number(hi as f64)),
        ],
        QueryKind::RangeAvg(lo, hi) => vec![
            ("kind", Value::String("avg".to_string())),
            ("lo", Value::Number(lo as f64)),
            ("hi", Value::Number(hi as f64)),
        ],
    }
}

/// Decodes a query shape from a request's fields.
fn query_from_json(v: &Value) -> Result<QueryKind, String> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("query missing string 'kind'")?;
    let idx = |key: &str| {
        v.get(key)
            .and_then(Value::as_usize)
            .ok_or_else(|| format!("query missing index '{key}'"))
    };
    match kind {
        "point" => Ok(QueryKind::Point(idx("i")?)),
        "sum" => Ok(QueryKind::RangeSum(idx("lo")?, idx("hi")?)),
        "avg" => Ok(QueryKind::RangeAvg(idx("lo")?, idx("hi")?)),
        other => Err(format!("unknown query kind '{other}'")),
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered at the connection layer.
    Ping,
    /// Create or replace a column with the given data vector.
    Put {
        /// Column name (shard-routing key).
        column: String,
        /// The data vector (length must be a power of two).
        data: Vec<f64>,
    },
    /// Build (or rebuild) the column's synopsis for `(budget, metric)`.
    Build {
        /// Column name.
        column: String,
        /// Space budget `B`.
        budget: usize,
        /// Metric spec: `abs` or `rel:<sanity>`.
        metric: String,
        /// Synopsis family id (a registry id, or `auto` for the
        /// server-side best-objective pick). `None` means the wavelet
        /// default and encodes exactly as a v1 `build` frame — the key
        /// is omitted, keeping responses byte-compatible for existing
        /// clients.
        family: Option<String>,
        /// Whether to return a per-request trace report.
        trace: bool,
    },
    /// Answer a query from the column's synopsis with an error interval.
    Query {
        /// Column name.
        column: String,
        /// The query shape.
        kind: QueryKind,
        /// Whether to return a per-request trace report.
        trace: bool,
    },
    /// Enqueue point updates `data[i] += delta` for batched application.
    Update {
        /// Column name.
        column: String,
        /// `(index, delta)` pairs, applied in order.
        updates: Vec<(usize, f64)>,
    },
    /// Apply all pending updates now (with any triggered rebuilds).
    Flush {
        /// Column name.
        column: String,
    },
    /// Column metadata: size, build state, pending updates, rebuilds.
    Info {
        /// Column name.
        column: String,
    },
    /// Create or replace a column in *streaming ingest mode*: items
    /// arrive in time order via [`Request::Append`] frames feeding a
    /// one-pass [`wsyn_stream::StreamingMaxErr`] builder, and the
    /// synopsis finalizes automatically when the `n`-th item lands.
    StreamCreate {
        /// Column name (shard-routing key).
        column: String,
        /// Declared stream length (a positive power of two).
        n: usize,
        /// Space budget `B` for the finalized synopsis.
        budget: usize,
        /// Quantization epsilon for the streaming DP.
        eps: f64,
        /// Declared scale (an upper bound on the offline optimum, e.g.
        /// a known bound on `max |d_i|`).
        scale: f64,
    },
    /// Feed the next batch of items, in time order, to a streaming
    /// column.
    Append {
        /// Column name.
        column: String,
        /// The next items of the stream, in order.
        values: Vec<f64>,
    },
    /// Stop the server after acknowledging.
    Shutdown,
}

impl Request {
    /// The column this request must be routed to, if any (`Ping` and
    /// `Shutdown` are handled at the connection layer).
    #[must_use]
    pub fn column(&self) -> Option<&str> {
        match self {
            Request::Ping | Request::Shutdown => None,
            Request::Put { column, .. }
            | Request::Build { column, .. }
            | Request::Query { column, .. }
            | Request::Update { column, .. }
            | Request::Flush { column }
            | Request::Info { column }
            | Request::StreamCreate { column, .. }
            | Request::Append { column, .. } => Some(column),
        }
    }

    /// Encodes to the canonical JSON value.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let op = |name: &str| ("op", Value::String(name.to_string()));
        let col = |c: &str| ("column", Value::String(c.to_string()));
        match self {
            Request::Ping => object(vec![op("ping")]),
            Request::Put { column, data } => object(vec![
                op("put"),
                col(column),
                (
                    "data",
                    Value::Array(data.iter().map(|&x| Value::Number(x)).collect()),
                ),
            ]),
            Request::Build {
                column,
                budget,
                metric,
                family,
                trace,
            } => {
                let mut fields = vec![
                    op("build"),
                    col(column),
                    ("budget", Value::Number(*budget as f64)),
                    ("metric", Value::String(metric.clone())),
                ];
                if let Some(f) = family {
                    fields.push(("family", Value::String(f.clone())));
                }
                fields.push(("trace", Value::Bool(*trace)));
                object(fields)
            }
            Request::Query {
                column,
                kind,
                trace,
            } => {
                let mut fields = vec![op("query"), col(column)];
                fields.extend(query_fields(*kind));
                fields.push(("trace", Value::Bool(*trace)));
                object(fields)
            }
            Request::Update { column, updates } => object(vec![
                op("update"),
                col(column),
                (
                    "updates",
                    Value::Array(
                        updates
                            .iter()
                            .map(|&(i, d)| {
                                Value::Array(vec![Value::Number(i as f64), Value::Number(d)])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Request::Flush { column } => object(vec![op("flush"), col(column)]),
            Request::Info { column } => object(vec![op("info"), col(column)]),
            Request::StreamCreate {
                column,
                n,
                budget,
                eps,
                scale,
            } => object(vec![
                op("stream_create"),
                col(column),
                ("n", Value::Number(*n as f64)),
                ("budget", Value::Number(*budget as f64)),
                ("eps", Value::Number(*eps)),
                ("scale", Value::Number(*scale)),
            ]),
            Request::Append { column, values } => object(vec![
                op("append"),
                col(column),
                (
                    "values",
                    Value::Array(values.iter().map(|&x| Value::Number(x)).collect()),
                ),
            ]),
            Request::Shutdown => object(vec![op("shutdown")]),
        }
    }

    /// Encodes to canonical frame-payload bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_json().compact().into_bytes()
    }

    /// Decodes from a JSON value.
    ///
    /// # Errors
    /// A message naming the missing or ill-typed field.
    pub fn from_json(v: &Value) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request missing string 'op'")?;
        let column = || -> Result<String, String> {
            let c = v
                .get("column")
                .and_then(Value::as_str)
                .ok_or("request missing string 'column'")?;
            if c.is_empty() {
                return Err("column name must be non-empty".to_string());
            }
            Ok(c.to_string())
        };
        let trace = v
            .get("trace")
            .is_some_and(|t| matches!(t, Value::Bool(true)));
        match op {
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "put" => {
                let raw = v
                    .get("data")
                    .and_then(Value::as_array)
                    .ok_or("put missing array 'data'")?;
                let mut data = Vec::with_capacity(raw.len());
                for (i, item) in raw.iter().enumerate() {
                    data.push(
                        item.as_f64()
                            .ok_or_else(|| format!("put data[{i}] is not a number"))?,
                    );
                }
                Ok(Request::Put {
                    column: column()?,
                    data,
                })
            }
            "build" => Ok(Request::Build {
                column: column()?,
                budget: v
                    .get("budget")
                    .and_then(Value::as_usize)
                    .ok_or("build missing non-negative integer 'budget'")?,
                metric: v
                    .get("metric")
                    .and_then(Value::as_str)
                    .ok_or("build missing string 'metric'")?
                    .to_string(),
                family: match v.get("family") {
                    None => None,
                    Some(Value::String(f)) if !f.is_empty() => Some(f.clone()),
                    Some(_) => return Err("build 'family' must be a non-empty string".to_string()),
                },
                trace,
            }),
            "query" => Ok(Request::Query {
                column: column()?,
                kind: query_from_json(v)?,
                trace,
            }),
            "update" => {
                let raw = v
                    .get("updates")
                    .and_then(Value::as_array)
                    .ok_or("update missing array 'updates'")?;
                let mut updates = Vec::with_capacity(raw.len());
                for (k, pair) in raw.iter().enumerate() {
                    let pair = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("updates[{k}] is not an [index, delta] pair"))?;
                    let i = pair[0].as_usize().ok_or_else(|| {
                        format!("updates[{k}] index is not a non-negative integer")
                    })?;
                    let d = pair[1]
                        .as_f64()
                        .ok_or_else(|| format!("updates[{k}] delta is not a number"))?;
                    updates.push((i, d));
                }
                Ok(Request::Update {
                    column: column()?,
                    updates,
                })
            }
            "flush" => Ok(Request::Flush { column: column()? }),
            "info" => Ok(Request::Info { column: column()? }),
            "stream_create" => Ok(Request::StreamCreate {
                column: column()?,
                n: v.get("n")
                    .and_then(Value::as_usize)
                    .ok_or("stream_create missing non-negative integer 'n'")?,
                budget: v
                    .get("budget")
                    .and_then(Value::as_usize)
                    .ok_or("stream_create missing non-negative integer 'budget'")?,
                eps: v
                    .get("eps")
                    .and_then(Value::as_f64)
                    .ok_or("stream_create missing number 'eps'")?,
                scale: v
                    .get("scale")
                    .and_then(Value::as_f64)
                    .ok_or("stream_create missing number 'scale'")?,
            }),
            "append" => {
                let raw = v
                    .get("values")
                    .and_then(Value::as_array)
                    .ok_or("append missing array 'values'")?;
                let mut values = Vec::with_capacity(raw.len());
                for (i, item) in raw.iter().enumerate() {
                    values.push(
                        item.as_f64()
                            .ok_or_else(|| format!("append values[{i}] is not a number"))?,
                    );
                }
                Ok(Request::Append {
                    column: column()?,
                    values,
                })
            }
            other => Err(format!("unknown op '{other}'")),
        }
    }

    /// Decodes from frame-payload bytes.
    ///
    /// # Errors
    /// Malformed JSON or a malformed request object.
    pub fn from_bytes(bytes: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        Request::from_json(&Value::parse(text)?)
    }
}

/// A server response: a JSON object with `"ok"` plus result fields
/// (`ok: true`) or an `"error"` string (`ok: false`).
#[derive(Debug, Clone, PartialEq)]
pub struct Response(pub Value);

impl Response {
    /// A success response carrying `fields`.
    #[must_use]
    pub fn ok(fields: Vec<(&str, Value)>) -> Response {
        let mut all = vec![("ok", Value::Bool(true))];
        all.extend(fields);
        Response(object(all))
    }

    /// An error response.
    #[must_use]
    pub fn error(message: impl Into<String>) -> Response {
        Response(object(vec![
            ("ok", Value::Bool(false)),
            ("error", Value::String(message.into())),
        ]))
    }

    /// Whether the response reports success.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self.0.get("ok"), Some(Value::Bool(true)))
    }

    /// The error message of a failed response.
    #[must_use]
    pub fn error_message(&self) -> Option<&str> {
        self.0.get("error").and_then(Value::as_str)
    }

    /// A result field by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Canonical frame-payload bytes ([`Value::compact`]).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.compact().into_bytes()
    }

    /// Decodes from frame-payload bytes.
    ///
    /// # Errors
    /// Malformed JSON, or a document without a boolean `"ok"` field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        let v = Value::parse(text)?;
        if !matches!(v.get("ok"), Some(Value::Bool(_))) {
            return Err("response missing boolean 'ok'".to_string());
        }
        Ok(Response(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        assert_eq!(
            buf[..4],
            (b"{\"op\":\"ping\"}".len() as u32 + 1).to_be_bytes()
        );
        assert_eq!(buf[4], PROTOCOL_VERSION);
        let mut cursor = std::io::Cursor::new(buf);
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(payload, b"{\"op\":\"ping\"}");
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn frame_rejects_bad_headers() {
        // Zero length.
        let mut cursor = std::io::Cursor::new(vec![0, 0, 0, 0]);
        assert!(read_frame(&mut cursor).is_err());
        // Above the cap.
        let mut over = Vec::new();
        over.extend_from_slice(&(u32::try_from(MAX_FRAME_BYTES).unwrap() + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(over);
        assert!(read_frame(&mut cursor).is_err());
        // Wrong version.
        let mut wrong = Vec::new();
        wrong.extend_from_slice(&2u32.to_be_bytes());
        wrong.push(PROTOCOL_VERSION + 1);
        wrong.push(b'x');
        let mut cursor = std::io::Cursor::new(wrong);
        assert!(read_frame(&mut cursor).is_err());
        // Truncated header.
        let mut cursor = std::io::Cursor::new(vec![0, 0]);
        assert!(read_frame(&mut cursor).is_err());
        // Truncated body.
        let mut short = Vec::new();
        short.extend_from_slice(&10u32.to_be_bytes());
        short.push(PROTOCOL_VERSION);
        short.extend_from_slice(b"abc");
        let mut cursor = std::io::Cursor::new(short);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn request_roundtrip_every_op() {
        let requests = vec![
            Request::Ping,
            Request::Shutdown,
            Request::Put {
                column: "sales".to_string(),
                data: vec![1.0, -2.5, 3.25, 0.0],
            },
            Request::Build {
                column: "sales".to_string(),
                budget: 8,
                metric: "rel:1.5".to_string(),
                family: None,
                trace: true,
            },
            Request::Build {
                column: "sales".to_string(),
                budget: 8,
                metric: "abs".to_string(),
                family: Some("hist".to_string()),
                trace: false,
            },
            Request::Build {
                column: "sales".to_string(),
                budget: 4,
                metric: "abs".to_string(),
                family: Some("auto".to_string()),
                trace: false,
            },
            Request::Query {
                column: "sales".to_string(),
                kind: QueryKind::Point(3),
                trace: false,
            },
            Request::Query {
                column: "sales".to_string(),
                kind: QueryKind::RangeSum(0, 4),
                trace: true,
            },
            Request::Query {
                column: "sales".to_string(),
                kind: QueryKind::RangeAvg(1, 3),
                trace: false,
            },
            Request::Update {
                column: "sales".to_string(),
                updates: vec![(0, 1.5), (3, -0.25)],
            },
            Request::Flush {
                column: "sales".to_string(),
            },
            Request::Info {
                column: "sales".to_string(),
            },
            Request::StreamCreate {
                column: "ticks".to_string(),
                n: 256,
                budget: 8,
                eps: 0.25,
                scale: 100.0,
            },
            Request::Append {
                column: "ticks".to_string(),
                values: vec![1.0, -2.5, 0.0],
            },
        ];
        for req in requests {
            let bytes = req.to_bytes();
            let back = Request::from_bytes(&bytes).unwrap();
            assert_eq!(back, req);
            // Canonical bytes: re-encoding the decoded request is
            // byte-identical.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    /// A family-less build encodes exactly as a v1 `build` payload: the
    /// `family` key is absent, not `null` — the wire-compat half of the
    /// "absent ⇒ wavelet, byte-for-byte" contract.
    #[test]
    fn family_less_build_payload_has_no_family_key() {
        let req = Request::Build {
            column: "sales".to_string(),
            budget: 8,
            metric: "abs".to_string(),
            family: None,
            trace: false,
        };
        let text = String::from_utf8(req.to_bytes()).unwrap();
        assert!(
            !text.contains("family"),
            "v1-shape payload grew a key: {text}"
        );
        assert_eq!(
            text,
            "{\"op\":\"build\",\"column\":\"sales\",\"budget\":8,\"metric\":\"abs\",\"trace\":false}"
        );
    }

    #[test]
    fn request_rejects_malformed() {
        assert!(Request::from_bytes(b"{}").is_err());
        assert!(Request::from_bytes(b"{\"op\":\"nope\"}").is_err());
        assert!(Request::from_bytes(b"{\"op\":\"put\",\"column\":\"\",\"data\":[]}").is_err());
        assert!(Request::from_bytes(b"{\"op\":\"build\",\"column\":\"c\"}").is_err());
        assert!(Request::from_bytes(
            b"{\"op\":\"build\",\"column\":\"c\",\"budget\":1,\"metric\":\"abs\",\"family\":7}"
        )
        .is_err());
        assert!(Request::from_bytes(
            b"{\"op\":\"build\",\"column\":\"c\",\"budget\":1,\"metric\":\"abs\",\"family\":\"\"}"
        )
        .is_err());
        assert!(
            Request::from_bytes(b"{\"op\":\"query\",\"column\":\"c\",\"kind\":\"cube\"}").is_err()
        );
        assert!(
            Request::from_bytes(b"{\"op\":\"update\",\"column\":\"c\",\"updates\":[[1]]}").is_err()
        );
        assert!(Request::from_bytes(b"{\"op\":\"stream_create\",\"column\":\"c\"}").is_err());
        assert!(Request::from_bytes(b"{\"op\":\"append\",\"column\":\"c\"}").is_err());
        assert!(
            Request::from_bytes(b"{\"op\":\"append\",\"column\":\"c\",\"values\":[\"x\"]}")
                .is_err()
        );
        assert!(Request::from_bytes(b"not json").is_err());
    }

    #[test]
    fn response_roundtrip() {
        let ok = Response::ok(vec![("est", Value::Number(4.25))]);
        assert!(ok.is_ok());
        let back = Response::from_bytes(&ok.to_bytes()).unwrap();
        assert_eq!(back, ok);
        assert_eq!(back.get("est").and_then(Value::as_f64), Some(4.25));

        let err = Response::error("no such column");
        assert!(!err.is_ok());
        assert_eq!(err.error_message(), Some("no such column"));
        assert!(Response::from_bytes(b"{\"est\":1}").is_err());
    }
}
