//! Telemetry event model: typed values and the four event kinds.

use crate::json::{write_escaped, write_f64};
use std::fmt::Write as _;

/// A structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (counters, iteration numbers).
    UInt(u64),
    /// A float; non-finite values encode as JSON `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// A homogeneous or mixed list (residual trajectories, …).
    Array(Vec<Value>),
}

impl Value {
    /// Appends this value's JSON encoding to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => write_f64(out, *v),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
        }
    }

    /// The value as `f64` (integers widen, booleans are 0/1).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Bool(v) => Some(f64::from(u8::from(*v))),
            Value::Int(v) => Some(*v as f64),
            Value::UInt(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            Value::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::Array(v.into_iter().map(Value::Float).collect())
    }
}

/// One telemetry record, as delivered to a [`TraceSink`](crate::TraceSink).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A completed scoped timer.
    Span {
        /// Span name (e.g. `place.field`).
        name: &'static str,
        /// Wall-clock duration in seconds.
        seconds: f64,
    },
    /// A monotonically accumulated quantity (sink-side summation).
    Counter {
        /// Counter name (e.g. `cg.iterations`).
        name: &'static str,
        /// Increment to add.
        value: u64,
    },
    /// A sampled instantaneous value; sinks keep the latest.
    Gauge {
        /// Gauge name (e.g. `place.peak_density`).
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// A structured event with arbitrary fields.
    Event {
        /// Event name (e.g. `iteration`, `cg.solve`).
        name: &'static str,
        /// Field key/value pairs, in emission order.
        fields: Vec<(&'static str, Value)>,
    },
    /// A flushed [`Histogram`](crate::Histogram): sparse log2 buckets.
    Histogram {
        /// Histogram name (e.g. `place.displacement`).
        name: &'static str,
        /// Sparse `(bucket index, count)` pairs, ascending by index.
        /// Bucket semantics are defined by
        /// [`bucket_bounds`](crate::bucket_bounds).
        buckets: Vec<(u8, u64)>,
    },
    /// A downsampled field or cell-position snapshot captured mid-run.
    Snapshot {
        /// What was captured: `density`, `potential`, or `cells`.
        kind: &'static str,
        /// 1-based transformation number the snapshot belongs to.
        iteration: u64,
        /// Grid columns (for `cells`: number of sampled cells).
        nx: u32,
        /// Grid rows (for `cells`: 2, the values are interleaved `x,y`).
        ny: u32,
        /// Row-major scalar samples (`nx * ny` of them).
        values: Vec<f64>,
    },
}

impl TraceEvent {
    /// Looks up a field by key (structured events only).
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            TraceEvent::Event { fields, .. } => {
                fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn values_encode_to_parseable_json() {
        let encode = |value: Value| {
            let mut out = String::new();
            value.write_json(&mut out);
            parse(&out).expect("valid json")
        };
        assert_eq!(encode(Value::from(3usize)).as_f64(), Some(3.0));
        assert_eq!(encode(Value::from(1234.5)).as_f64(), Some(1234.5));
        assert_eq!(encode(Value::from("a\"b")).as_str(), Some("a\"b"));
        assert_eq!(encode(Value::from(vec![1.0, 0.5])).as_array().map(<[Json]>::len), Some(2));
        assert_eq!(encode(Value::from(f64::NAN)), Json::Null);
    }

    #[test]
    fn field_lookup_and_conversions() {
        let ev = TraceEvent::Event {
            name: "x",
            fields: vec![("n", Value::from(7u64)), ("f", Value::from(1.5))],
        };
        assert_eq!(ev.field("n").and_then(Value::as_u64), Some(7));
        assert_eq!(ev.field("f").and_then(Value::as_f64), Some(1.5));
        assert_eq!(ev.field("missing"), None);
        assert_eq!(Value::from(true).as_f64(), Some(1.0));
        assert_eq!(Value::from(-1i64).as_u64(), None);
    }
}
