//! The workspace's one JSON codec. Run reports, `SHOOTOUT.json`,
//! `BENCH_hotpath.json` and scenario verdicts are built as [`Json`]
//! values, written by [`Json::write`] and read by [`Json::parse`].
//!
//! Objects keep insertion order, and numbers keep their JSON text: a
//! `u64` never passes through `f64`, and `1.00` stays `1.00`. The parser
//! takes RFC 8259 JSON except number exponents and `\u` escapes outside
//! the Basic Multilingual Plane, which nothing here writes, nested at
//! most [`MAX_DEPTH`] deep. Other input is an `Err`, never a panic.
//!
//! The writer has one layout rule: a container goes on one line unless
//! it holds a non-empty object, directly or inside an array; then each
//! member goes on its own line, two spaces deeper. Members are written
//! `"key": value`, and the document ends with a newline. So for any
//! document it wrote, `write(parse(text)) == text` byte for byte.
//!
//! Accessors return `Err` with a short description when a value has
//! another type or an object lacks a key. The module uses nothing else
//! from the crate.

/// Deepest container nesting [`Json::parse`] accepts. The workspace's
/// documents nest four deep; the cap keeps hostile input off the stack.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its JSON text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v.to_string())
    }
}

impl Json {
    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// An object with `members` in the order given.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A 64-bit digest as the string `0x` plus 16 hex digits, which
    /// readers that hold numbers as `f64` cannot round.
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// `v` with `decimals` digits after the point; JSON has no NaN or
    /// infinity, so a non-finite `v` is written `0.0`.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            "0.0".to_string()
        })
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        let found = self.as_obj()?.iter().find(|(k, _)| k == key);
        found
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing {key:?}"))
    }

    /// The members of an object.
    pub fn as_obj(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(m) => Ok(m),
            _ => Err("expected an object".to_string()),
        }
    }

    /// The items of an array.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err("expected an array".to_string()),
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected a string".to_string()),
        }
    }

    /// A number read as `T` (`u64` rejects fractions and negatives).
    pub fn as_num<T: std::str::FromStr>(&self) -> Result<T, String> {
        match self {
            Json::Num(n) => n
                .parse()
                .map_err(|_| format!("number {n} is not a {}", std::any::type_name::<T>())),
            _ => Err("expected a number".to_string()),
        }
    }

    /// A digest written by [`Json::hex`].
    pub fn as_hex(&self) -> Result<u64, String> {
        let s = self.as_str()?;
        let hex = s
            .strip_prefix("0x")
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let v = hex.and_then(|h| u64::from_str_radix(h, 16).ok());
        v.ok_or_else(|| format!("bad hex digest {s:?}"))
    }

    /// Parses one JSON document; `Err` names the first problem and its
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value(0)?;
        p.ws();
        if p.pos < text.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }

    /// The value as a document, laid out by the module's one rule.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, 0);
        out.push('\n');
        out
    }

    /// True for a non-empty object or an array holding one: a container
    /// holding such a value is written one member per line.
    fn nests_object(&self) -> bool {
        match self {
            Json::Obj(m) => !m.is_empty(),
            Json::Arr(a) => a.iter().any(Json::nests_object),
            _ => false,
        }
    }

    fn write_to(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(a) => write_members(out, indent, ('[', ']'), a.iter().map(|v| (None, v))),
            Json::Obj(m) => {
                let members = m.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, indent, ('{', '}'), members);
            }
        }
    }
}

fn write_members<'a>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let multiline = members.clone().any(|(_, v)| v.nests_object());
    let newline = |out: &mut String, depth| out.push_str(&format!("\n{}", "  ".repeat(depth)));
    out.push(open);
    for (i, (key, v)) in members.enumerate() {
        if i > 0 {
            out.push_str(if multiline { "," } else { ", " });
        }
        if multiline {
            newline(out, indent + 1);
        }
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(": ");
        }
        v.write_to(out, indent + 1);
    }
    if multiline {
        newline(out, indent);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent parser. `pos` only stops on an ASCII byte or the
/// end, so every slice of `text` it takes is on a character boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `c` if it is next.
    fn skip(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// A value nested inside `depth` containers.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        let member = |p: &mut Self, depth| {
            let key = p.string()?;
            p.ws();
            if !p.skip(b':') {
                return Err(p.err("expected ':'"));
            }
            Ok((key, p.value(depth)?))
        };
        match self.peek() {
            Some(b'{') => self.members(depth, b'}', member).map(Json::Obj),
            Some(b'[') => self.members(depth, b']', Self::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            _ => Err(self.err("unexpected input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err("unexpected input"));
        }
        self.pos += word.len();
        Ok(v)
    }

    /// The members of the container opening at `pos`, up to `close`.
    fn members<T>(
        &mut self,
        depth: usize,
        close: u8,
        mut member: impl FnMut(&mut Self, usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.ws();
        let mut items = Vec::new();
        if self.skip(close) {
            return Ok(items);
        }
        loop {
            self.ws();
            items.push(member(self, depth + 1)?);
            self.ws();
            if self.skip(close) {
                return Ok(items);
            }
            if !self.skip(b',') {
                return Err(self.err(&format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.skip(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int = self.digits();
        let fraction = if self.skip(b'.') { self.digits() } else { 1 };
        if int == 0 || (leading_zero && int > 1) || fraction == 0 {
            return Err(self.err("bad number"));
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.skip(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.skip(b'"') {
                return Ok(out);
            }
            if !self.skip(b'\\') {
                return Err(self.err("unterminated string or control character"));
            }
            out.push(self.escape()?);
        }
    }

    /// The character an escape after `\` stands for.
    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' | b'\\' | b'/' => char::from(c),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                // Four hex digits naming a character; a surrogate names none.
                let hex = self.text.get(self.pos..self.pos + 4);
                let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                let ch = hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?));
                self.pos += 4;
                ch.ok_or_else(|| self.err("bad \\u escape"))?
            }
            _ => return Err(self.err("bad escape")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) {
        assert_eq!(Json::parse(text).unwrap().write(), text);
    }

    #[test]
    fn layout_rule_breaks_only_containers_that_hold_objects() {
        let v = Json::object([
            (
                "flat",
                Json::object([("a", 1.into()), ("b", Json::Arr(vec![]))]),
            ),
            ("nums", Json::Arr(vec![1.into(), 2.into()])),
            (
                "rows",
                Json::Arr(vec![Json::object([("x", Json::Bool(true))])]),
            ),
            ("empty", Json::object::<&str>([])),
            ("none", Json::Null),
        ]);
        let want = "{\n  \"flat\": {\"a\": 1, \"b\": []},\n  \"nums\": [1, 2],\n  \
                    \"rows\": [\n    {\"x\": true}\n  ],\n  \"empty\": {},\n  \"none\": null\n}\n";
        assert_eq!(v.write(), want);
        assert_eq!(Json::parse(want).unwrap(), v);
        round_trip("[]\n");
        round_trip("[[1, 2], [3], false]\n");
        round_trip("[\n  [\n    {\"a\": -0.5}\n  ]\n]\n");
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = Json::parse("[1.00, 22.130000, 18446744073709551615, -0]").unwrap();
        assert_eq!(v.write(), "[1.00, 22.130000, 18446744073709551615, -0]\n");
        let items = v.as_arr().unwrap();
        assert_eq!(items[2].as_num::<u64>(), Ok(u64::MAX));
        assert_eq!(
            items[0].as_num::<u64>(),
            Err("number 1.00 is not a u64".to_string())
        );
        assert_eq!(items[1].as_num::<f64>(), Ok(22.13));
        for bad in ["01", "1.", ".5", "-", "+1", "0x10", "1e5", "--1"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn constructors_write_the_pinned_spellings() {
        assert_eq!(
            Json::hex(0x420a_6a1e_f640_8bbe).write(),
            "\"0x420a6a1ef6408bbe\"\n"
        );
        assert_eq!(Json::hex(1).as_hex(), Ok(1));
        for bad in ["deadbeef", "0x", "0x+1", "0x10000000000000000"] {
            assert!(Json::str(bad).as_hex().is_err(), "{bad}");
        }
        assert_eq!(Json::fixed(22.13, 6), Json::Num("22.130000".into()));
        assert_eq!(Json::fixed(467_111.4, 0), Json::Num("467111".into()));
        assert_eq!(Json::fixed(f64::NAN, 6), Json::Num("0.0".into()));
        assert_eq!(Json::fixed(f64::INFINITY, 2), Json::Num("0.0".into()));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "q\"b\\n\nc\u{1}é😀";
        let text = Json::str(s).write();
        assert_eq!(text, "\"q\\\"b\\\\n\\nc\\u0001é😀\"\n");
        assert_eq!(Json::parse(&text).unwrap().as_str(), Ok(s));
        let v = Json::parse(r#""\/\b\f\r\t\u00e9\u20AC""#).unwrap();
        assert_eq!(v.as_str(), Ok("/\u{8}\u{c}\r\té€"));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\x""#,
            "\"a\tb\"",
            "\"abc",
            "\"\\",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn accessors_say_what_is_wrong() {
        let v = Json::parse(r#"{"a": [1], "b": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("c"), Err("missing \"c\"".to_string()));
        assert_eq!(
            v.get("b").unwrap().as_num::<u64>(),
            Err("expected a number".to_string())
        );
        assert!(v.get("a").unwrap().get("x").is_err());
    }

    #[test]
    fn rejects_malformed_input_and_nesting_past_the_cap() {
        let nest = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        for bad in [
            "", " ", "nul", "{", "{\"a\"}", "{\"a\":}", "[1,]", "[1 2]", "{} x",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
