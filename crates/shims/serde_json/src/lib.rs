//! Offline stand-in for `serde_json`, write side only: the serde shim's
//! [`Value`] tree → JSON text.
//!
//! Provides `to_string` and `to_string_pretty` over the shim's `Serialize`
//! trait, for the figure reports and `crash_resume`'s curve. Integers are
//! written exactly (i128 internally), so `u64` cycle counters keep every
//! digit; floats use Rust's shortest round-trip form; non-finite floats
//! serialize as `null`, matching serde_json's default behavior.

pub use serde::{Error, Value};

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Currently infallible; the `Result` mirrors the real `serde_json` API.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to 2-space-indented JSON.
///
/// # Errors
///
/// Currently infallible; the `Result` mirrors the real `serde_json` API.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest round-trip float form; ensure a
                // decimal point or exponent so the value re-parses as float.
                let s = format!("{f:?}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The written integers parse back exactly, `u64::MAX` included.
    #[test]
    fn round_trip_vec() {
        let xs = vec![0u64, 1, u64::MAX];
        let text = to_string(&xs).unwrap();
        assert_eq!(text, "[0,1,18446744073709551615]");
        let back: Vec<u64> = text[1..text.len() - 1]
            .split(',')
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(back, xs);
    }

    /// Finite floats are written in their shortest form and parse back
    /// bit for bit.
    #[test]
    fn floats_round_trip() {
        let xs = vec![1.5f64, -0.25, 1e-9, 3.0, 0.1];
        let text = to_string(&xs).unwrap();
        assert_eq!(text, "[1.5,-0.25,1e-9,3.0,0.1]");
        for (token, x) in text[1..text.len() - 1].split(',').zip(&xs) {
            assert_eq!(token.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn non_finite_floats_write_null() {
        let xs = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        assert_eq!(to_string(&xs).unwrap(), "[null,null,null]");
        assert_eq!(to_string(&f32::NAN).unwrap(), "null");
    }

    #[test]
    fn strings_escape_exactly() {
        let s = "line\n\"quoted\" \\ tab\t\r bell\u{7} unit\u{1f} é".to_string();
        assert_eq!(
            to_string(&s).unwrap(),
            r#""line\n\"quoted\" \\ tab\t\r bell\u0007 unit\u001f é""#
        );
    }

    #[derive(serde::Serialize)]
    enum Kind {
        Dram,
        Hbm,
    }

    #[derive(serde::Serialize)]
    struct Inner {
        kind: Kind,
        bytes: u64,
    }

    #[derive(serde::Serialize)]
    struct Report {
        name: String,
        rows: Vec<Inner>,
        empty: Vec<u32>,
        pair: (u32, f64),
    }

    #[test]
    fn pretty_output_is_indented() {
        assert_eq!(to_string_pretty(&vec![1i32]).unwrap(), "[\n  1\n]");
        let report = Report {
            name: "fig".to_string(),
            rows: vec![
                Inner {
                    kind: Kind::Dram,
                    bytes: 7,
                },
                Inner {
                    kind: Kind::Hbm,
                    bytes: u64::MAX,
                },
            ],
            empty: Vec::new(),
            pair: (2, 0.5),
        };
        assert_eq!(
            to_string_pretty(&report).unwrap(),
            r#"{
  "name": "fig",
  "rows": [
    {
      "kind": "Dram",
      "bytes": 7
    },
    {
      "kind": "Hbm",
      "bytes": 18446744073709551615
    }
  ],
  "empty": [],
  "pair": [
    2,
    0.5
  ]
}"#
        );
        assert_eq!(
            to_string(&report).unwrap(),
            r#"{"name":"fig","rows":[{"kind":"Dram","bytes":7},{"kind":"Hbm","bytes":18446744073709551615}],"empty":[],"pair":[2,0.5]}"#
        );
    }
}
