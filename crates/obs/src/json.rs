//! The one writer of the workspace's `BENCH_*.json` artifacts, except
//! the metrics dump `BENCH_baseline.json`, which is a compact
//! [`Snapshot::render_json`](crate::Snapshot::render_json).
//!
//! A [`Document`] is an object laid out for line diffs: each top-level
//! field on its own line, each array of rows with one row per line, and
//! each nested block with one field per line. Every value inside a line
//! is a [`Value`] rendered inline. Fields render in the order they were
//! added, so the same inputs always render the same bytes.

use std::fmt::{self, Write as _};

/// A JSON value, rendered on one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Uint(u128),
    /// A float printed with this many digits after the point.
    Fixed(f64, usize),
    Bool(bool),
    Str(String),
    Null,
    Object(Object),
    Array(Vec<Value>),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Uint(v) => write!(f, "{v}"),
            Value::Fixed(x, places) => write!(f, "{x:.places$}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => f.write_str(&json_string(s)),
            Value::Null => f.write_str("null"),
            Value::Object(o) => write!(f, "{o}"),
            Value::Array(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
        }
    }
}

macro_rules! from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Uint(v as u128)
            }
        }
    )*};
}

from_uint!(u32, u64, usize, u128);

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Object> for Value {
    fn from(o: Object) -> Self {
        Value::Object(o)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// `None` renders as `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// A JSON object whose fields keep the order they were added in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    pub fn new() -> Self {
        Object::default()
    }

    /// Append the field `key: value`.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.0.push((key.into(), value.into()));
        self
    }

    /// The rendered `"key": value` pairs, in order.
    fn pairs(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(key, value)| format!("{}: {value}", json_string(key)))
            .collect()
    }
}

/// Inline: `{"key": value, ...}`.
impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.pairs().join(", "))
    }
}

/// A whole artifact document (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// One rendered top-level entry each, without its trailing comma.
    entries: Vec<String>,
}

impl Document {
    pub fn new() -> Self {
        Document::default()
    }

    /// A top-level field on its own line.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.entries
            .push(format!("{}: {}", json_string(key), value.into()));
        self
    }

    /// An array with one row per line.
    pub fn rows<T: Into<Value>>(mut self, key: &str, rows: impl IntoIterator<Item = T>) -> Self {
        let rows: Vec<String> = rows.into_iter().map(|r| r.into().to_string()).collect();
        let rows = lines('[', &rows, 4, ']');
        self.entries.push(format!("{}: {rows}", json_string(key)));
        self
    }

    /// A nested object with one field per line.
    pub fn block(mut self, key: &str, block: Object) -> Self {
        let fields = lines('{', &block.pairs(), 4, '}');
        self.entries.push(format!("{}: {fields}", json_string(key)));
        self
    }

    /// The document, ending in a newline.
    pub fn render(&self) -> String {
        lines('{', &self.entries, 2, '}') + "\n"
    }
}

/// `open`, then each item on its own line indented by `indent` spaces
/// with a comma after all but the last, then `close` indented two
/// spaces less.
fn lines(open: char, items: &[String], indent: usize, close: char) -> String {
    let pad = " ".repeat(indent);
    let body: Vec<String> = items.iter().map(|item| format!("{pad}{item}")).collect();
    let newline = if items.is_empty() { "" } else { "\n" };
    format!("{open}\n{}{newline}{}{close}", body.join(",\n"), &pad[2..])
}

/// Escape a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_renders_every_layout_and_value_kind() {
        let doc = Document::new()
            .field("bench", "demo")
            .field("seed", 42u64)
            .field("ratio", Value::Fixed(2.0 / 3.0, 3))
            .field("gate", Option::<u64>::None)
            .field("label", "say \"hi\"\nbye")
            .field("empty_object", Object::new())
            .field("empty_array", Vec::<Value>::new())
            .rows(
                "rows",
                [
                    Object::new()
                        .field("ok", true)
                        .field("tags", vec!["a", "b"])
                        .field("counts", Object::new().field("x", 1u64).field("y", 2usize)),
                    Object::new()
                        .field("ok", false)
                        .field("tags", Vec::<Value>::new())
                        .field("counts", Object::new()),
                ],
            )
            .block(
                "summary",
                Object::new()
                    .field("rate", Value::Fixed(0.5, 4))
                    .field("ns", 7u128)
                    .field("last", Some(Value::Fixed(1.25, 2))),
            );
        assert_eq!(
            doc.render(),
            concat!(
                "{\n",
                "  \"bench\": \"demo\",\n",
                "  \"seed\": 42,\n",
                "  \"ratio\": 0.667,\n",
                "  \"gate\": null,\n",
                "  \"label\": \"say \\\"hi\\\"\\nbye\",\n",
                "  \"empty_object\": {},\n",
                "  \"empty_array\": [],\n",
                "  \"rows\": [\n",
                "    {\"ok\": true, \"tags\": [\"a\", \"b\"], \"counts\": {\"x\": 1, \"y\": 2}},\n",
                "    {\"ok\": false, \"tags\": [], \"counts\": {}}\n",
                "  ],\n",
                "  \"summary\": {\n",
                "    \"rate\": 0.5000,\n",
                "    \"ns\": 7,\n",
                "    \"last\": 1.25\n",
                "  }\n",
                "}\n",
            )
        );
    }
}
