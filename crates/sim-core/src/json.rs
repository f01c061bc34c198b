//! The workspace's one JSON codec: a value type, an RFC 8259 parser, a
//! string escaper and the renderer for the committed report layout.
//!
//! The workspace has no serde, and needs little: the committed reports
//! (`BENCH_hotloop.json`, `BENCH_scale.json`, `BENCH_policies.json`)
//! are built as [`Json`] values and rendered, their validators parse
//! them back and read fields by name, and the trace exporter escapes its
//! strings with [`escape`].
//!
//! Two choices keep round trips exact:
//!
//! - Objects are ordered member lists, not maps: field order is part of
//!   the rendered bytes (and the workspace bans hash collections).
//! - Numbers keep their source lexeme. `2^40` reads back exactly through
//!   [`Json::as_u64`], and a writer picks each number's precision by
//!   formatting it (`Json::num(format_args!("{x:.3}"))`).
//!
//! [`Json::render`] writes the report layout: top-level members one per
//! line, each element of a top-level array on its own line, everything
//! below that inline. `render(parse(f)) == f` byte for byte for every
//! report in that layout.
//!
//! # Examples
//!
//! ```
//! use mage_sim::json::{self, Json};
//!
//! let doc = Json::object([
//!     ("schema", Json::str("demo/v1")),
//!     ("rows", Json::Array(vec![Json::object([("id", Json::str("a")), ("n", Json::num(1u64 << 40))])])),
//! ]);
//! let text = doc.render();
//! assert_eq!(text, "{\n  \"schema\": \"demo/v1\",\n  \"rows\": [\n    {\"id\": \"a\", \"n\": 1099511627776}\n  ]\n}\n");
//! let back = json::parse(&text).unwrap();
//! assert_eq!(back, doc);
//! let row = &back.get("rows").and_then(Json::as_array).unwrap()[0];
//! assert_eq!(row.get("n").and_then(Json::as_u64), Some(1 << 40));
//! ```

use std::fmt::{Display, Write as _};

/// Nesting bound for [`parse`]: deeper input is an error rather than a
/// stack overflow.
const MAX_DEPTH: usize = 128;

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source lexeme (parsed on demand).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: members in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A number whose lexeme is `v`'s `Display` output. The caller owns
    /// the formatting: it must be a JSON number (finite, no `inf`/`NaN`).
    pub fn num(v: impl Display) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` members, in order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member `key` read through `read` (one of the `as_*` accessors);
    /// the error names the field when it is missing or mistyped.
    pub fn field<'a, T>(&'a self, key: &str, read: fn(&'a Json) -> Option<T>) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("field {key:?} is missing or mistyped"))
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if it is a non-negative integer
    /// lexeme in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders in the committed report layout (see the module docs),
    /// ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes `self` nested `depth` levels deep. The top-level object's
    /// members and the elements of its arrays go one per line; anything
    /// else is inline, with `", "` between items.
    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return out.push_str(&format!("\"{}\"", escape(s))),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(members) => (
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let lined = matches!((depth, open), (0, '{') | (1, '['));
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if lined {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                out.push_str(&format!("\"{}\": ", escape(key)));
            }
            value.write(out, depth + 1);
            if i + 1 < items.len() {
                out.push(',');
            }
        }
        if lined {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

/// Escapes `s` for use between JSON double quotes: `"`, `\` and the
/// control characters; everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses `s` as a single JSON value (RFC 8259 grammar; leading zeros in
/// numbers are tolerated). Errors name the byte offset of the problem.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            self.skip_ws();
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected '\"' at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte verbatim; the input is a `&str`, so the run is UTF-8.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.b[run..self.pos]).expect("input is a &str"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.pos + 1).copied();
                    self.pos += 2;
                    out.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    });
                }
                Some(_) => return Err(format!("raw control char at byte {}", self.pos)),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair into one character.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) && self.b[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("bad surrogate pair at byte {at}"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .b
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        let text = std::str::from_utf8(digits).expect("hex digits are ASCII");
        self.pos += 4;
        Ok(u32::from_str_radix(text, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("expected fraction digits at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected exponent digits at byte {}", self.pos));
            }
        }
        let lexeme = std::str::from_utf8(&self.b[start..self.pos]).expect("number is ASCII");
        Ok(Json::Num(lexeme.to_string()))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_and_rejects() {
        parse("{\"a\":[1,2.5,-3e4,true,false,null,\"s\\\"t\"]}").unwrap();
        parse("  [ ]  ").unwrap();
        assert!(parse("01").is_ok(), "leading zeros tolerated");
        for bad in [
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{1:2}",
            "-",
            "1.",
            "\"\\x\"",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(parse("[1,]").unwrap_err(), "expected a value at byte 3");
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn strings_unescape_and_escape_round_trips() {
        let s = parse(r#""q\" b\\ s\/ \b\f\n\r\t \u00e9 \ud83d\ude00 ü""#).unwrap();
        assert_eq!(s.as_str(), Some("q\" b\\ s/ \u{8}\u{c}\n\r\t é 😀 ü"));
        let text = s.render();
        assert_eq!(parse(&text).unwrap(), s);
        assert!(parse(r#""\ud800\u0041""#).is_err(), "lone high surrogate");
        assert!(parse("\"raw\ncontrol\"").is_err());
    }

    #[test]
    fn numbers_keep_their_lexeme() {
        let doc = parse("[1099511627776, 0.20, -1, 1e3, 18446744073709551616]").unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1 << 40));
        assert_eq!(items[1], Json::Num("0.20".into()), "lexeme kept verbatim");
        assert_eq!(items[1].as_f64(), Some(0.2));
        assert_eq!(items[1].as_u64(), None, "a fraction is not a u64");
        assert_eq!(items[2].as_u64(), None, "negative is not a u64");
        assert_eq!(items[3].as_f64(), Some(1000.0));
        assert_eq!(items[4].as_u64(), None, "2^64 overflows");
        assert_eq!(Json::str("7").as_u64(), None, "a quoted number is a string");
    }

    #[test]
    fn field_names_missing_and_mistyped_members() {
        let row = parse("{\"id\": \"x\", \"n\": \"12\"}").unwrap();
        assert_eq!(row.field("id", Json::as_str), Ok("x"));
        assert!(row.field("n", Json::as_u64).unwrap_err().contains("\"n\""));
        assert!(row
            .field("gone", Json::as_f64)
            .unwrap_err()
            .contains("\"gone\""));
    }

    #[test]
    fn render_writes_the_report_layout() {
        let doc = Json::object([
            ("schema", Json::str("s/v1")),
            (
                "rows",
                Json::Array(vec![Json::object([
                    ("a", Json::num(1)),
                    ("b", Json::Array(vec![Json::Null, Json::Bool(true)])),
                ])]),
            ),
            ("none", Json::Array(Vec::new())),
            (
                "total",
                Json::object([("x", Json::num(format_args!("{:.2}", 0.5)))]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"schema\": \"s/v1\",\n  \"rows\": [\n    {\"a\": 1, \"b\": [null, true]}\n  ],\n  \
             \"none\": [\n  ],\n  \"total\": {\"x\": 0.50}\n}\n"
        );
        assert_eq!(parse(&text).unwrap().render(), text);
        assert_eq!(Json::object([]).render(), "{\n}\n");
    }
}
