//! Machine-readable bench reports: a minimal JSON value type with a
//! renderer, plus the shared `--json <path>` flag handling.
//!
//! The workspace serializes nothing through serde (no type derives its
//! traits), so `serving_throughput` builds its perf line through this
//! module instead: [`Json`] is a tiny JSON document model, rendered
//! deterministically (object keys keep insertion order).

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, rendered as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// Renders the document as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Extracts the value of a `--json <path>` flag from command-line
/// arguments (`None` when absent).
///
/// # Panics
///
/// Panics (with a usage message) if `--json` is present without a path.
pub fn json_path_flag() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let path = args.next().expect("usage: --json <path>");
            return Some(path.into());
        }
        if let Some(path) = arg.strip_prefix("--json=") {
            return Some(path.into());
        }
    }
    None
}

/// Emits a bench report: always prints the compact JSON line to stdout,
/// and additionally writes it (newline-terminated) to `path` when the
/// `--json` flag was given.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn emit(report: &Json, path: Option<&std::path::Path>) {
    let line = report.render();
    println!("{line}");
    if let Some(path) = path {
        std::fs::write(path, line + "\n")
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_report() {
        let doc = Json::obj()
            .field("bench", "serving_throughput")
            .field("requests", 500u64)
            .field("simulated_gops", 12.51)
            .field("verified", true)
            .field("families", Json::Arr(vec!["pc".into(), "sp\"trsv".into()]))
            .field("nested", Json::obj().field("a", 1u64).field("b", false));
        // Keys keep insertion order; integers render without a decimal
        // point, floats keep one.
        assert_eq!(
            doc.render(),
            r#"{"bench":"serving_throughput","requests":500,"simulated_gops":12.51,"verified":true,"families":["pc","sp\"trsv"],"nested":{"a":1,"b":false}}"#
        );
    }
}
