//! Flat text records: the one codec behind every file the workspace
//! writes and reads back.
//!
//! Replay artifacts, resume journals, NDJSON event and span streams and
//! the `BENCH_*.json` snapshots are all *flat records*: one JSON object
//! whose values are scalars (strings, numbers, booleans). This module owns
//! that format once:
//!
//! * [`push_quoted`] — JSON string escaping (`"`, `\` and every control
//!   character);
//! * [`Record::parse`] — a strict parser. It rejects nested values,
//!   duplicate keys, missing separators, unterminated strings and trailing
//!   bytes, decodes `\uXXXX` escapes, and keeps number tokens verbatim so
//!   `u64` values above 2^53 read back exactly;
//! * [`Record::check_envelope`] — the `version` stamp and the `experiment`
//!   family tag, checked before any other field is read;
//! * [`words_to_hex`] / [`hex_to_words`] — word-stream payloads;
//! * [`write_atomic`] — temp file, `fsync`, `rename`: a crash leaves the
//!   previous file or the new one, never a torn one.
//!
//! Writers keep their own byte layouts (pretty artifacts, inline journal
//! lines, compact NDJSON) because committed files must regenerate
//! byte-for-byte; they share only the escaping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Appends `s` to `out` as a quoted JSON string, escaping `"`, `\` and
/// every character below U+0020.
pub fn push_quoted(out: &mut String, s: &str) {
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
}

/// One scalar field value.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    /// A string, unescaped.
    Str(String),
    /// A number, kept as its verbatim token (already checked to parse as
    /// an `f64`) so integer reads are exact.
    Num(String),
    /// `true` or `false`.
    Bool(bool),
}

/// A parsed flat record: one JSON object with scalar values only.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    fields: BTreeMap<String, Value>,
}

impl Record {
    /// Parses one flat JSON object, surrounding whitespace allowed.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser { s: text, i: 0 };
        p.ws();
        if !p.eat(b'{') {
            return Err("not a JSON object".to_string());
        }
        let mut fields = BTreeMap::new();
        p.ws();
        if !p.eat(b'}') {
            loop {
                p.ws();
                let key = p.string()?;
                p.ws();
                if !p.eat(b':') {
                    return Err(p.err("expected ':' after key"));
                }
                p.ws();
                let value = p.value()?;
                if fields.insert(key.clone(), value).is_some() {
                    return Err(format!("duplicate key {key:?}"));
                }
                p.ws();
                if p.eat(b',') {
                    continue;
                }
                if p.eat(b'}') {
                    break;
                }
                return Err(p.err("expected ',' or '}'"));
            }
        }
        p.ws();
        if p.i != text.len() {
            return Err(p.err("trailing bytes after the object"));
        }
        Ok(Record { fields })
    }

    fn field(&self, key: &str) -> Result<&Value, String> {
        self.fields
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Whether the record has a field named `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.fields.contains_key(key)
    }

    /// The field names, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.keys().map(String::as_str)
    }

    /// A string field, unescaped.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Value::Str(s) => Ok(s),
            _ => Err(format!("field {key:?} is not a string")),
        }
    }

    /// An unsigned integer field, read exactly from its token.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        match self.field(key)? {
            Value::Num(t) => t
                .parse()
                .map_err(|_| format!("field {key:?}: {t} is not an unsigned integer")),
            _ => Err(format!("field {key:?} is not a number")),
        }
    }

    /// A numeric field as an `f64`.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Value::Num(t) => t.parse().map_err(|e| format!("field {key:?}: {e}")),
            _ => Err(format!("field {key:?} is not a number")),
        }
    }

    /// A boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("field {key:?} is not a boolean")),
        }
    }

    /// Checks the envelope: the `version` stamp must equal `version` and
    /// the `experiment` family tag must equal `family` (`None`: untagged).
    /// Readers call this before reading any other field, so a stale or
    /// foreign file is rejected before it can be misread. Errors read as
    /// the predicate of a sentence whose subject the caller supplies
    /// ("artifact …", "journal …").
    pub fn check_envelope(&self, version: &str, family: Option<&str>) -> Result<(), String> {
        let stamp = self
            .str("version")
            .map_err(|_| format!("has no version stamp (this binary is {version})"))?;
        if stamp != version {
            return Err(format!(
                "was written by version {stamp}, this binary is {version}"
            ));
        }
        let tag = if self.contains("experiment") {
            Some(self.str("experiment")?)
        } else {
            None
        };
        if tag != family {
            let name = |t: Option<&str>| t.map_or("(untagged)".to_string(), |t| format!("{t:?}"));
            return Err(format!(
                "belongs to experiment {}, not {}",
                name(tag),
                name(family)
            ));
        }
        Ok(())
    }
}

/// Cursor over the text being parsed.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(
            self.s.as_bytes().get(self.i),
            Some(b' ' | b'\t' | b'\n' | b'\r')
        ) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.s.as_bytes().get(self.i) == Some(&b);
        self.i += usize::from(hit);
        hit
    }

    fn next_char(&mut self) -> Option<char> {
        let c = self.s[self.i..].chars().next()?;
        self.i += c.len_utf8();
        Some(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .s
            .get(self.i..self.i + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("expected 4 hex digits after \\u"))?;
        self.i += 4;
        u32::from_str_radix(digits, 16).map_err(|e| e.to_string())
    }

    /// A quoted string, unescaped.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let c = self
                .next_char()
                .ok_or_else(|| self.err("unterminated string"))?;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let decoded = match self.next_char() {
                        Some('"') => '"',
                        Some('\\') => '\\',
                        Some('/') => '/',
                        Some('b') => '\u{8}',
                        Some('f') => '\u{c}',
                        Some('n') => '\n',
                        Some('r') => '\r',
                        Some('t') => '\t',
                        Some('u') => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("unpaired surrogate escape"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("unpaired surrogate escape"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(decoded);
                }
                c if (c as u32) < 0x20 => return Err(self.err("raw control character in string")),
                c => out.push(c),
            }
        }
    }

    /// A scalar value: a string, `true`/`false`, or a number token.
    fn value(&mut self) -> Result<Value, String> {
        match self.s.as_bytes().get(self.i) {
            Some(b'"') => return self.string().map(Value::Str),
            Some(b'{' | b'[') => return Err(self.err("nested values are not supported")),
            _ => {}
        }
        let start = self.i;
        while let Some(&b) = self.s.as_bytes().get(self.i) {
            if b == b',' || b == b'}' || b.is_ascii_whitespace() {
                break;
            }
            self.i += 1;
        }
        match &self.s[start..self.i] {
            "" => Err(self.err("expected a value")),
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            t if t.parse::<f64>().is_ok() => Ok(Value::Num(t.to_string())),
            t => Err(format!("unparseable value {t:?} at byte {start}")),
        }
    }
}

/// Encodes a word stream as lowercase hex, 16 digits per word.
pub fn words_to_hex(words: &[u64]) -> String {
    let mut s = String::with_capacity(words.len() * 16);
    for w in words {
        let _ = write!(s, "{w:016x}");
    }
    s
}

/// Decodes a word stream written by [`words_to_hex`].
pub fn hex_to_words(s: &str) -> Result<Vec<u64>, String> {
    if s.len() % 16 != 0 {
        return Err(format!(
            "hex word stream has {} chars (not a multiple of 16)",
            s.len()
        ));
    }
    s.as_bytes()
        .chunks(16)
        .map(|c| {
            let t =
                std::str::from_utf8(c).map_err(|_| "non-ASCII byte in hex stream".to_string())?;
            if !t.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("bad hex word {t:?}"));
            }
            u64::from_str_radix(t, 16).map_err(|e| format!("bad hex word {t:?}: {e}"))
        })
        .collect()
}

/// Writes `text` to `path` atomically, creating parent directories: the
/// text goes to `PATH.tmp`, is synced to disk, then renamed over `path`.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_parser_reads_every_former_format_and_rejects_malformed_input() {
        let artifact = "{\n  \"version\": \"0.1.0\",\n  \"experiment\": \"chaos\",\n  \
                        \"seed\": 832025059895311014,\n  \"erasure\": 0.0,\n  \
                        \"guard\": false,\n  \"detail\": \"t=36 \\\"m0\\\"\"\n}\n";
        let r = Record::parse(artifact).unwrap();
        r.check_envelope("0.1.0", Some("chaos")).unwrap();
        assert_eq!(r.u64("seed").unwrap(), 832_025_059_895_311_014);
        assert_eq!(r.f64("erasure").unwrap(), 0.0);
        assert!(!r.bool("guard").unwrap());
        assert_eq!(r.str("detail").unwrap(), "t=36 \"m0\"");

        let header = "{\"journal_format\": 3, \"version\": \"0.1.0\", \"experiment\": \"fig7\", \
                      \"fingerprint\": \"00000000deadbeef\", \"crc\": \"0123456789abcdef\"}";
        let r = Record::parse(header).unwrap();
        assert_eq!(r.u64("journal_format").unwrap(), 3);
        assert_eq!(
            hex_to_words(r.str("fingerprint").unwrap()).unwrap(),
            [0xdead_beef]
        );

        let entry = "{\"cell\": 4, \"data\": \"0000000000000001ffffffffffffffff\", \
                     \"crc\": \"0123456789abcdef\"}";
        let r = Record::parse(entry).unwrap();
        assert_eq!(r.u64("cell").unwrap(), 4);
        assert_eq!(hex_to_words(r.str("data").unwrap()).unwrap(), [1, u64::MAX]);

        let event = "{\"schema_version\":1,\"seq\":0,\"slot\":0,\"t\":0,\"ev\":\"probe\",\
                     \"outcome\":\"idle\",\"dur\":64,\"segments\":1}";
        let r = Record::parse(event).unwrap();
        assert_eq!(r.str("outcome").unwrap(), "idle");
        assert_eq!(r.u64("dur").unwrap(), 64);

        let span = "{\"schema_version\":1,\"seq\":3,\"t\":50,\"ev\":\"span_close\",\
                    \"outcome\":\"dropped\",\"msg\":1,\"cause\":\"station_left\"}";
        assert_eq!(
            Record::parse(span).unwrap().str("cause").unwrap(),
            "station_left"
        );

        let bench = "{\n  \"engine_steps_per_sec_clean\": 11092457,\n  \
                     \"engine_light_jump_speedup\": 23.900,\n  \"host_parallelism\": 1\n}\n";
        let r = Record::parse(bench).unwrap();
        assert_eq!(r.keys().count(), 3);
        assert_eq!(r.f64("engine_light_jump_speedup").unwrap(), 23.9);

        let r = Record::parse("{\"seed\": 18446744073709551615}").unwrap();
        assert_eq!(r.u64("seed").unwrap(), u64::MAX);
        let r = Record::parse(r#"{"s": "a\u0001b", "q": "x\"y\\z"}"#).unwrap();
        assert_eq!(r.str("s").unwrap(), "a\u{1}b");
        assert_eq!(r.str("q").unwrap(), "x\"y\\z");
        assert_eq!(Record::parse(" {} \n").unwrap(), Record::default());

        for (bad, why) in [
            (r#"{"a": 1, "a": 2}"#, "duplicate key"),
            (r#"{"a": 1 "b": 2}"#, "expected ',' or '}'"),
            (r#"{"a": 1} x"#, "trailing bytes"),
            ("[]", "not a JSON object"),
            ("", "not a JSON object"),
            (r#"{"a": 1,}"#, "expected a string"),
            (r#"{"a" 1}"#, "expected ':'"),
            (r#"{"a": "x}"#, "unterminated string"),
            (r#"{"a": {"b": 1}}"#, "nested"),
            (r#"{"a": nope}"#, "unparseable value"),
            (r#"{"a": }"#, "expected a value"),
            (r#"{"a": "\q"}"#, "invalid escape"),
            (r#"{"a": "\u12"}"#, "hex digits"),
            (r#"{"a": "\ud800"}"#, "unpaired surrogate"),
            ("{\"a\": \"raw\ttab\"}", "raw control character"),
        ] {
            let e = Record::parse(bad).unwrap_err();
            assert!(e.contains(why), "{bad:?}: {e}");
        }
    }

    #[test]
    fn typed_reads_and_envelope_reject_mismatches() {
        let r = Record::parse(r#"{"version": "1.0", "n": 1.5, "s": "x", "b": true}"#).unwrap();
        assert!(r.u64("n").unwrap_err().contains("not an unsigned integer"));
        assert!(r.u64("s").is_err());
        assert!(r.str("n").is_err());
        assert!(r.bool("s").is_err());
        assert!(r.f64("missing").unwrap_err().contains("missing field"));
        assert!(r.contains("b") && !r.contains("missing"));

        r.check_envelope("1.0", None).unwrap();
        let e = r.check_envelope("2.0", None).unwrap_err();
        assert!(e.contains("1.0") && e.contains("2.0"), "{e}");
        let e = r.check_envelope("1.0", Some("chaos")).unwrap_err();
        assert!(e.contains("experiment"), "{e}");
        let tagged = Record::parse(r#"{"version": "1.0", "experiment": "chaos"}"#).unwrap();
        assert!(tagged.check_envelope("1.0", None).is_err());
        assert!(tagged.check_envelope("1.0", Some("adaptive")).is_err());
        let e = Record::default().check_envelope("1.0", None).unwrap_err();
        assert!(e.contains("no version stamp"), "{e}");
    }

    #[test]
    fn escaping_round_trips_control_characters_quotes_and_backslashes() {
        let mut all: String = (0u32..0x20).filter_map(char::from_u32).collect();
        all.push_str("\"\\/ é 𝄞");
        for s in all.chars().map(String::from).chain([all.clone()]) {
            let mut line = String::from("{\"s\":");
            push_quoted(&mut line, &s);
            line.push('}');
            assert_eq!(Record::parse(&line).unwrap().str("s").unwrap(), s, "{line}");
        }
        let mut out = String::new();
        push_quoted(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        let r = Record::parse(r#"{"s": "𝄞 é"}"#).unwrap();
        assert_eq!(r.str("s").unwrap(), "𝄞 é");
    }

    #[test]
    fn hex_words_round_trip_and_reject_malformed_payloads() {
        let words = [0, 1, 0xabcd, u64::MAX];
        assert_eq!(hex_to_words(&words_to_hex(&words)).unwrap(), words);
        assert!(hex_to_words("abc").is_err());
        assert!(hex_to_words("+000000000000001").is_err());
        assert!(hex_to_words("000000000000000g").is_err());
    }

    #[test]
    fn atomic_write_creates_directories_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("tcw_record_{}", std::process::id()));
        let path = dir.join("nested").join("out.json");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!dir.join("nested").join("out.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
