//! A minimal JSON document model: build, render, parse.
//!
//! The workspace deliberately carries no JSON dependency; the trace-record
//! codec in `workload`, which predates this module, is flat and
//! hand-rolled per record type.
//! The observability layer needs nested documents — registries of series,
//! per-shard profiles, merged artifacts — plus a *parser* so CI can
//! schema-check the emitted artifact and experiment binaries can
//! read-modify-write a shared file. [`Json`] is the small value tree that
//! serves all of those: six variants, deterministic rendering (object
//! fields keep insertion order; no HashMap iteration anywhere), and a
//! recursive-descent parser that accepts exactly the documents the
//! renderer produces (plus standard escapes and whitespace).

use std::fmt::Write as _;

/// One JSON value. Objects preserve field insertion order so rendering is
/// deterministic and diffs are stable across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::set`] chaining.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A numeric value (non-finite floats render as `null`).
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// An array from anything iterable over `Json`.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An array of numbers.
    pub fn nums(items: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(items.into_iter().map(Json::Num).collect())
    }

    /// Sets field `key` on an object (replacing an existing value), then
    /// returns `self` for chaining. Panics on non-objects.
    pub fn set(mut self, key: impl Into<String>, value: Json) -> Json {
        self.insert(key, value);
        self
    }

    /// In-place version of [`Json::set`].
    pub fn insert(&mut self, key: impl Into<String>, value: Json) {
        let Json::Obj(fields) = self else { panic!("Json::insert on a non-object") };
        let key = key.into();
        match fields.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => fields.push((key, value)),
        }
    }

    /// Field lookup on objects (`None` elsewhere or when absent).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline — the artifact format checked into CI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&render_num(*x)),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Flat arrays of scalars render on one line; nested ones
                // get one element per line.
                let scalar = items.iter().all(|v| !matches!(v, Json::Arr(_) | Json::Obj(_)));
                if scalar {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        v.render_into(out, depth + 1);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, v) in items.iter().enumerate() {
                        indent(out, depth + 1);
                        v.render_into(out, depth + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    indent(out, depth);
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    indent(out, depth + 1);
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Integral values print without a fraction (counters stay greppable);
/// everything else uses Rust's shortest-round-trip `{:?}`; non-finite
/// values have no JSON encoding and become `null`.
fn render_num(x: f64) -> String {
    if !x.is_finite() {
        "null".to_string()
    } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:?}")
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or(format!("bad \\u{hex} escape"))?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at once.
                    // Both are ASCII and the input came from a `&str`, so
                    // the run is whole UTF-8 characters.
                    let run = &self.bytes[self.pos..];
                    let len =
                        run.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(run.len());
                    out.push_str(std::str::from_utf8(&run[..len]).map_err(|e| e.to_string())?);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let doc = Json::obj()
            .set("name", Json::str("backbone"))
            .set("util", Json::nums([0.5, 0.75]))
            .set("count", Json::num(3.0));
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("backbone"));
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("util").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn set_replaces_existing_field() {
        let doc = Json::obj().set("x", Json::num(1.0)).set("x", Json::num(2.0));
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.as_obj().unwrap().len(), 1);
    }

    #[test]
    fn render_parse_roundtrip() {
        let doc = Json::obj()
            .set("artifact", Json::str("OBS_cluster"))
            .set("pi", Json::num(std::f64::consts::PI))
            .set("n", Json::num(42.0))
            .set("flag", Json::Bool(true))
            .set("nothing", Json::Null)
            .set("series", Json::nums([0.0, 0.125, 1e-9]))
            .set(
                "rows",
                Json::arr([Json::obj().set("shard", Json::num(0.0)).set("s", Json::str("a\"b"))]),
            );
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parse_accepts_standard_json() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5e3 , \"x\\u0041\" ] , \"b\" : { } } ").unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("xA"));
        assert_eq!(v.get("b").and_then(Json::as_obj).map(<[(String, Json)]>::len), Some(0));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("[1] trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn strings_roundtrip_multibyte_escapes_and_megabytes() {
        let mixed = "é€😀 \" \\ / \n \t \r \u{8} \u{c} \u{1} end";
        let doc = Json::arr([Json::str(mixed), Json::obj().set("clé€😀", Json::str("😀é"))]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        // Every short escape and a `\u` escape, as other writers emit them.
        let parsed = Json::parse(r#""\"\\\/\b\f\n\r\t\u00e9€""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t\u{e9}€"));
        // 1.5 MB, with an escape after every multibyte run.
        let big = Json::str("ab€\"".repeat(1 << 18));
        assert_eq!(Json::parse(&big.render()).unwrap(), big);
        assert_eq!(Json::parse("\"unterminated é\\n"), Err("unterminated string".to_string()));
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::num(f64::NAN).render(), "null\n");
        assert_eq!(Json::num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn integers_render_bare() {
        assert_eq!(Json::num(1234.0).render(), "1234\n");
        assert_eq!(Json::num(-7.0).render(), "-7\n");
        assert_eq!(Json::num(0.5).render(), "0.5\n");
    }
}
