//! The one JSON value of the workspace.
//!
//! The container this project builds in resolves no external registry
//! (see CHANGES.md, PR 1), so there is no serde. Instead every document
//! the crates write is built as a [`Json`] tree and rendered by one of
//! its two renderers, every document they read comes out of
//! [`Json::parse`], and every document family's check walks the same
//! tree — one string escape, one number formatter, one parser:
//!
//! * [`Json::render`] — compact, no whitespace: JSONL lines and
//!   Chrome-trace events;
//! * [`Json::pretty`] — documents: two-space indent, one member per line,
//!   except that a container holding only scalars stays on its line;
//! * [`ChromeTraceWriter`] — the streaming writer for traces too long to
//!   build as one tree: it writes one compact event at a time.
//!
//! Objects keep insertion order (a `Vec` of pairs), so key order is part
//! of a document and `parse(render(x)) == x` holds for both renderers.
//! Integers are exact over the whole `i64`/`u64` range (mutation seeds
//! are full-width `u64`s); floats are quantised to the document
//! precision of three decimals when they enter a tree ([`Json::fixed`]),
//! so what a tree holds is what its text says.
//!
//! A family's emitter is also its schema: [`Json::conforms`] checks a
//! document against a sample the same emitter wrote, so keys and types
//! are stated once.

use std::fmt::{Display, Write as _};

/// Containers may nest this deep; deeper input is a parse error, not a
/// stack overflow.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent that fits `i64` or
    /// `u64`, kept exact.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}
json_from! {
    u8 => |v| Json::Int(v.into()),
    u16 => |v| Json::Int(v.into()),
    u32 => |v| Json::Int(v.into()),
    u64 => |v| Json::Int(v.into()),
    usize => |v| Json::Int(v as i128),
    i32 => |v| Json::Int(v.into()),
    f64 => |v| Json::fixed(v, 3),
    bool => |v| Json::Bool(v),
    &str => |v| Json::Str(v.to_owned()),
    String => |v| Json::Str(v),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    /// Collect values into an array.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// Build a [`Json`] object out of `source`'s fields and computed values:
/// `obj!(row; id, gpu, pct_error = row.pct_error())` has the members `id`
/// and `gpu` holding `row.id` and `row.gpu`, then `pct_error` holding the
/// given expression. A field's key is its name, stated once. With nothing
/// to take fields from, pass `()`.
#[macro_export]
macro_rules! obj {
    (@value $source:expr, $key:ident) => { $source.$key.to_owned() };
    (@value $source:expr, $key:ident, $value:expr) => { $value };
    ($source:expr; $($key:ident $(= $value:expr)?),* $(,)?) => {
        $crate::Json::Obj(vec![$((
            stringify!($key).to_owned(),
            $crate::Json::from($crate::obj!(@value $source, $key $(, $value)?)),
        )),*])
    };
}

/// Push `format!(...)` onto the error list `$errors` unless `$holds`.
#[macro_export]
macro_rules! ensure {
    ($errors:expr, $holds:expr, $($message:tt)+) => {
        if !$holds {
            $errors.push(format!($($message)+));
        }
    };
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A float rounded to `decimals` places — exactly the value its
    /// rendered text parses back to (`From<f64>` rounds to three).
    /// Non-finite values become `null`.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        let rounded = format!("{v:.decimals$}").parse().ok();
        rounded
            .filter(|_| v.is_finite())
            .map_or(Json::Null, Json::Num)
    }

    /// Append a member to an object (a no-op on anything else).
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(members) = self {
            members.push((key.to_owned(), value.into()));
        }
    }

    /// Append a member when there is a value: optional members stay out of
    /// a document instead of reading `null`.
    pub fn push_some(&mut self, key: &str, value: Option<impl Into<Json>>) {
        if let Some(value) = value {
            self.push(key, value);
        }
    }

    /// Append the members of `other` to an object (a no-op unless both are
    /// objects).
    pub fn extend(&mut self, other: Json) {
        if let (Json::Obj(members), Json::Obj(more)) = (self, other) {
            members.extend(more);
        }
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let mut members = self.as_obj()?.iter();
        members.find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable object member lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The elements of the array member `key` (empty when there is none).
    pub fn items(&self, key: &str) -> &[Json] {
        self[key].as_arr().unwrap_or(&[])
    }

    /// The non-negative integer member `key` (0 when there is none).
    pub fn count(&self, key: &str) -> u64 {
        self[key].as_u64().unwrap_or(0)
    }

    /// The string member `key` (empty when there is none).
    pub fn text(&self, key: &str) -> &str {
        self[key].as_str().unwrap_or("")
    }

    /// The non-negative integer member `key`, for readers that turn a
    /// document back into the value it was written from.
    ///
    /// # Errors
    ///
    /// A message naming `key` when it is missing or anything else.
    pub fn need_u64(&self, key: &str) -> Result<u64, String> {
        let value = self[key].as_u64();
        value.ok_or_else(|| format!("`{key}` must be a non-negative integer"))
    }

    /// The string member `key`.
    ///
    /// # Errors
    ///
    /// A message naming `key` when it is missing or anything else.
    pub fn need_str(&self, key: &str) -> Result<&str, String> {
        let value = self[key].as_str();
        value.ok_or_else(|| format!("`{key}` must be a string"))
    }

    /// The member of `all` whose `name` is the string member `key` — an
    /// enum read back against the table it was written from.
    ///
    /// # Errors
    ///
    /// As [`Json::need_str`], or a message listing the known names.
    pub fn need_tag<T: Copy>(
        &self,
        key: &str,
        all: &[T],
        name: impl Fn(T) -> &'static str,
    ) -> Result<T, String> {
        let tag = self.need_str(key)?;
        let known = || all.iter().map(|t| name(*t)).collect::<Vec<_>>();
        let found = all.iter().copied().find(|t| name(*t) == tag);
        found.ok_or_else(|| format!("{key} `{tag}` is not one of {:?}", known()))
    }

    /// The keys of an object, in document order (empty for anything else).
    pub fn keys(&self) -> Vec<&str> {
        let members = self.as_obj().unwrap_or(&[]);
        members.iter().map(|(k, _)| k.as_str()).collect()
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Int(_) => "an integer",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }

    /// The shape check every document family starts with: `self` (called
    /// `at` in the messages) must be shaped like `like`, a sample written
    /// by the same emitter. Types must agree (an integer may stand where
    /// the sample holds a float; a `null` in the sample admits anything);
    /// every key of a sample object must be present, in the sample's
    /// order (further keys may sit between them); every array element
    /// must be shaped like the sample's first. `at` is only formatted into
    /// a message, so walking a million sound trace events allocates nothing.
    pub fn conforms(&self, like: &Json, at: &dyn Display, errors: &mut Vec<String>) {
        match (like, self) {
            (Json::Null, _)
            | (Json::Bool(_), Json::Bool(_))
            | (Json::Int(_), Json::Int(_))
            | (Json::Num(_), Json::Int(_) | Json::Num(_))
            | (Json::Str(_), Json::Str(_)) => {}
            (Json::Arr(like), Json::Arr(items)) => {
                for (i, item) in items.iter().enumerate().filter(|_| !like.is_empty()) {
                    item.conforms(&like[0], &format_args!("{at}[{i}]"), errors);
                }
            }
            (Json::Obj(like), Json::Obj(members)) => {
                let mut after = 0;
                for (key, like) in like {
                    let Some(i) = members.iter().position(|(k, _)| k == key) else {
                        errors.push(format!("{at}: missing key `{key}`"));
                        continue;
                    };
                    ensure!(errors, i >= after, "{at}: key `{key}` is out of order");
                    after = after.max(i);
                    members[i]
                        .1
                        .conforms(like, &format_args!("{at}.{key}"), errors);
                }
            }
            _ => errors.push(format!(
                "{at}: expected {}, got {}",
                like.kind(),
                self.kind()
            )),
        }
    }

    /// Render compactly (no whitespace), member order preserved.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Render as a document: indented, newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `depth` is `None` for the compact form, else the indent level.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // `{:?}` is the shortest text that parses back to the same
            // float and always carries a `.` or an exponent, so a float
            // never reads back as an integer.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                write_members(out, depth, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, depth, ['{', '}'], members);
            }
        }
    }

    /// Parse a document.
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first syntax error,
    /// including trailing garbage after the top-level value and nesting
    /// deeper than 128 containers.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Object member lookup that reads a missing member (or a non-object)
    /// as `null`.
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&Json::Null)
    }
}

impl Display for Json {
    /// The compact rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    // In a document a container of scalars stays on its line; any other
    // puts each member on a line of its own, one level deeper.
    let nests = |(_, v): (_, &Json)| matches!(v, Json::Arr(_) | Json::Obj(_));
    let expand = depth.filter(|_| members.clone().any(nests));
    out.push(brackets[0]);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match expand {
            Some(d) => {
                out.push('\n');
                out.extend(std::iter::repeat_n("  ", d + 1));
            }
            None if i > 0 && depth.is_some() => out.push(' '),
            None => {}
        }
        if let Some(key) = key {
            escape(key, out);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        value.write(out, depth.map(|d| d + 1));
    }
    if let Some(d) = expand {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", d));
    }
    out.push(brackets[1]);
}

/// Append `s` as a JSON string literal (RFC 8259 escapes).
fn escape(s: &str, out: &mut String) {
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

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => {
                let item = |p: &mut Self| p.value(depth + 1);
                self.container(b']', item).map(Json::Arr)
            }
            Some(b'{') => {
                let member = |p: &mut Self| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    Ok((key, p.value(depth + 1)?))
                };
                self.container(b'}', member).map(Json::Obj)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// The comma-separated members of an array or object, each read by
    /// `member`, from the opening bracket up to `close`.
    fn container<T>(
        &mut self,
        close: u8,
        member: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(members);
        }
        loop {
            self.skip_ws();
            members.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(members);
                }
                _ => {
                    let close = close as char;
                    return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go
            // (both are ASCII, so the slice ends on a char boundary).
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4);
                    let code = hex
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    self.pos += 4;
                    // Surrogate pairs do not appear in our own documents;
                    // a surrogate maps to U+FFFD.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                other => return Err(format!("bad escape `\\{}`", other as char)),
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<i128>() {
            if (i128::from(i64::MIN)..=i128::from(u64::MAX)).contains(&n) {
                return Ok(Json::Int(n));
            }
        }
        let float = text.parse::<f64>().map(Json::Num);
        float.map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// Streaming writer for Chrome trace-event JSON (the format
/// `chrome://tracing` and Perfetto load).
///
/// Shared between the simulator's cycle-level export
/// ([`crate::timing::chrome_trace`]) and the service journal's job-level
/// export in `peakperf-bench`: both produce one `traceEvents` array of
/// metadata / complete / instant / counter records plus an `otherData`
/// trailer. A trace can hold millions of events, so the writer never
/// builds the array as a tree: each event goes straight into the buffer,
/// compactly, on a line of its own; only its `args` is a [`Json`].
#[derive(Debug)]
pub struct ChromeTraceWriter {
    out: String,
}

impl Default for ChromeTraceWriter {
    /// A writer with the `traceEvents` array opened.
    fn default() -> ChromeTraceWriter {
        ChromeTraceWriter {
            out: ChromeTraceWriter::OPENING.to_owned(),
        }
    }
}

impl ChromeTraceWriter {
    const OPENING: &'static str = "{\n  \"traceEvents\": [\n";

    /// One event, rendered compactly on a line of its own: `head` (its
    /// `name`, `ph` and timing members), then `pid`, `tid`, `cat` (unless
    /// empty) and `args`.
    fn event(&mut self, mut head: Json, tid: u64, cat: &str, args: Json) {
        head.push("pid", 0);
        head.push("tid", tid);
        if !cat.is_empty() {
            head.push("cat", cat);
        }
        head.push("args", args);
        let first = self.out.len() == ChromeTraceWriter::OPENING.len();
        self.out.push_str(if first { "    " } else { ",\n    " });
        head.write(&mut self.out, None);
    }

    /// A `thread_name` metadata record naming track `tid`.
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        let head = obj!((); name = "thread_name", ph = "M");
        self.event(head, tid, "", obj!((); name = name));
    }

    /// A complete (`"ph":"X"`) event spanning `[ts, ts+dur]` on one track.
    pub fn complete(&mut self, name: &str, cat: &str, ts: u64, dur: u64, tid: u64, args: Json) {
        self.event(
            obj!((); name = name, ph = "X", ts = ts, dur = dur),
            tid,
            cat,
            args,
        );
    }

    /// A thread-scoped instant (`"ph":"i"`) event.
    pub fn instant(&mut self, name: &str, cat: &str, ts: u64, tid: u64, args: Json) {
        self.event(
            obj!((); name = name, ph = "i", ts = ts, s = "t"),
            tid,
            cat,
            args,
        );
    }

    /// A counter (`"ph":"C"`) sample — Perfetto renders these as a value
    /// track (e.g. queue depth over time).
    pub fn counter(&mut self, name: &str, ts: u64, value: u64) {
        let head = obj!((); name = name, ph = "C", ts = ts);
        self.event(head, 0, "counter", obj!((); value = value));
    }

    /// Close the array, append `displayTimeUnit` and the members of
    /// `other` as the `otherData` trailer (one per line), and return the
    /// finished document.
    pub fn finish(mut self, other: &Json) -> String {
        self.out
            .push_str("\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {");
        for (i, (name, value)) in other.as_obj().unwrap_or(&[]).iter().enumerate() {
            self.out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            escape(name, &mut self.out);
            self.out.push_str(": ");
            value.write(&mut self.out, None);
        }
        self.out.push_str("\n  }\n}\n");
        self.out
    }
}

/// Check a Chrome trace-event document: the top-level keys, the shape of
/// every event (metadata records carry no timestamp), and that every
/// stall event names a known [`StallKind`](crate::timing::StallKind).
/// Stops after 20 violations.
pub fn check_chrome_trace(doc: &Json, errors: &mut Vec<String>) {
    let metadata = obj!((); name = "", ph = "", pid = 0, tid = 0);
    let timed = obj!((); name = "", ph = "", ts = 0, pid = 0, tid = 0);
    let events = Json::Arr(vec![]);
    let like = obj!((); traceEvents = events, displayTimeUnit = "", otherData = obj!(();));
    doc.conforms(&like, &"chrome trace", errors);
    let events = doc.items("traceEvents");
    ensure!(
        errors,
        !events.is_empty(),
        "chrome trace: traceEvents is empty"
    );
    for (i, event) in events.iter().enumerate() {
        let like = [&timed, &metadata][usize::from(event.text("ph") == "M")];
        event.conforms(like, &format_args!("traceEvents[{i}]"), errors);
        let name = event.text("name");
        let kind = name.strip_prefix("stall:").unwrap_or(name);
        let known = crate::timing::StallKind::parse(kind).is_some();
        let stall = event.text("cat") == "stall";
        ensure!(
            errors,
            known || !stall,
            "traceEvents[{i}]: unknown stall kind in `{name}`"
        );
        if errors.len() > 20 {
            return errors.push("... (stopping after 20 violations)".to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_documents_we_emit() {
        let doc = r#"{
  "schema": "peakperf-bench-v1",
  "ok": true,
  "none": null,
  "wall_ms": 12.500,
  "rows": [{"id": "table2/x", "n": -3, "share": 0.25}, {}],
  "esc": "a\"b\\c\ndA é \ud800"
}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.text("schema"), "peakperf-bench-v1");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("wall_ms"), Some(&Json::Num(12.5)));
        let rows = v.items("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("n"), Some(&Json::Int(-3)));
        assert_eq!(rows[0].get("n").unwrap().as_u64(), None);
        assert_eq!(v.text("esc"), "a\"b\\c\ndA é \u{fffd}");
        assert_eq!(v.keys()[..2], ["schema", "ok"]);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{1: 2}",
            "nul",
            "\"open",
            "\"bad \\x\"",
            "\"\\u12\"",
            "{\"a\": 1} trailing",
            "1e",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_are_exact_over_the_u64_and_i64_range() {
        for text in [
            "18446744073709551557",
            "18446744073709551615",
            "9007199254740993",
            "-9223372036854775808",
            "0",
        ] {
            let v = Json::parse(text).unwrap();
            assert!(matches!(v, Json::Int(_)), "{text} -> {v:?}");
            assert_eq!(v.render(), text);
        }
        let seed = Json::parse("18446744073709551557").unwrap();
        assert_eq!(seed.as_u64(), Some(18446744073709551557));
        assert_eq!(Json::from(u64::MAX).render(), u64::MAX.to_string());
        // One past u64::MAX is no longer exact; it degrades to a float.
        let past = Json::parse("18446744073709551616").unwrap();
        assert!(matches!(past, Json::Num(_)));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(2_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn string_parsing_is_linear_in_the_input() {
        // The old parser re-validated the whole remaining input per
        // character (quadratic: 160 kB took ~45x the 40 kB time).
        let time = |len: usize| {
            let text = format!("\"{}\"", "é".repeat(len / 2));
            let run = || {
                let t0 = std::time::Instant::now();
                assert_eq!(Json::parse(&text).unwrap().as_str().unwrap().len(), len);
                t0.elapsed()
            };
            (0..5).map(|_| run()).min().unwrap()
        };
        let (small, large) = (time(40_000), time(160_000));
        let bound = small * 4 + std::time::Duration::from_millis(2);
        assert!(large <= bound, "160 kB took {large:?}, 40 kB {small:?}");
    }

    struct Row {
        id: &'static str,
        ok: bool,
    }

    fn sample() -> Json {
        let row = Row {
            id: "a\tb",
            ok: true,
        };
        let nested = obj!((); nested = obj!((); deep = Json::Arr(vec![])));
        obj!((); schema = "demo", gpu = ["GTX580", "GTX680"].into_iter().collect::<Json>(),
            wall_ms = 12.3456, whole = 2.0, seed = u64::MAX, none = None::<u64>, nan = f64::NAN,
            empty = obj!(();), rows = Json::Arr(vec![obj!(row; id, ok), nested]))
    }

    #[test]
    fn both_renderers_round_trip_through_the_parser() {
        let doc = sample();
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
        assert_eq!(doc.to_string(), doc.render());
        assert!(!doc.render().contains(' '));
    }

    #[test]
    fn pretty_keeps_scalar_containers_on_their_line() {
        let want = r#"{
  "schema": "demo",
  "gpu": ["GTX580", "GTX680"],
  "wall_ms": 12.346,
  "whole": 2.0,
  "seed": 18446744073709551615,
  "none": null,
  "nan": null,
  "empty": {},
  "rows": [
    {"id": "a\tb", "ok": true},
    {
      "nested": {
        "deep": []
      }
    }
  ]
}
"#;
        assert_eq!(sample().pretty(), want);
    }

    #[test]
    fn floats_enter_a_tree_at_document_precision() {
        assert_eq!(Json::from(1.0005), Json::Num(1.0)); // just below the tie
        assert_eq!(Json::from(2.0 / 3.0), Json::Num(0.667));
        assert_eq!(Json::fixed(31.567, 2), Json::Num(31.57));
        assert_eq!(Json::from(1e21).render(), "1e21");
        assert_eq!(Json::from(f64::INFINITY), Json::Null);
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::from("x\\y\u{1}").render(), "\"x\\\\y\\u0001\"");
    }

    #[test]
    fn mutate_push_and_lookup() {
        let mut v = Json::parse(r#"{"a": 1, "b": {"c": [1, 2.5, "x"]}}"#).unwrap();
        *v.get_mut("a").unwrap() = Json::Int(110);
        v.push("d", "new");
        assert_eq!(v.render(), r#"{"a":110,"b":{"c":[1,2.5,"x"]},"d":"new"}"#);
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(110.0));
        assert_eq!((v.count("a"), v.count("d"), v.text("d")), (110, 0, "new"));
        assert_eq!(Json::Null.get("a"), None);
        assert!(Json::Null.keys().is_empty());
        assert!(v.items("a").is_empty());
    }

    #[test]
    fn conforms_names_what_departs_from_the_sample() {
        let like = obj!((); s = "", n = 0, f = 0.0, b = false, any = Json::Null,
            rows = Json::Arr(vec![obj!((); id = "")]), open = Json::Arr(vec![]));
        let good = r#"{"s": "x", "n": 1, "extra": [], "f": 2, "b": true, "any": {},
                       "rows": [{"id": "a"}, {"id": "b", "more": 1}], "open": [1, "x"]}"#;
        let mut errors = Vec::new();
        let good = Json::parse(good).unwrap();
        good.conforms(&like, &"doc", &mut errors);
        assert_eq!(errors, Vec::<String>::new());
        let bad = r#"{"n": 1.5, "s": "x", "b": 1, "any": null, "rows": [{"id": "a"}, {}, 3]}"#;
        let bad = Json::parse(bad).unwrap();
        bad.conforms(&like, &"doc", &mut errors);
        assert_eq!(
            errors,
            [
                "doc: key `n` is out of order",
                "doc.n: expected an integer, got a number",
                "doc: missing key `f`",
                "doc.b: expected a boolean, got an integer",
                "doc.rows[1]: missing key `id`",
                "doc.rows[2]: expected an object, got an integer",
                "doc: missing key `open`",
            ]
        );
    }

    #[test]
    fn trace_writer_streams_compact_events_and_the_check_reads_them() {
        let mut w = ChromeTraceWriter::default();
        w.thread_name(1, "worker \"0\"");
        w.complete("stall:pipe", "stall", 3, 1, 1, obj!((); scheduler = 0));
        w.instant("warp_exit", "exit", 4, 1, obj!(();));
        w.counter("queue_depth", 5, 2);
        let text = w.finish(&obj!((); unit = "shader cycles", dropped_events = 0));
        assert!(text.contains(
            "    {\"name\":\"stall:pipe\",\"ph\":\"X\",\"ts\":3,\"dur\":1,\"pid\":0,\"tid\":1,\
             \"cat\":\"stall\",\"args\":{\"scheduler\":0}},\n"
        ));
        assert!(text.ends_with(
            "  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n    \
             \"unit\": \"shader cycles\",\n    \"dropped_events\": 0\n  }\n}\n"
        ));
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.items("traceEvents").len(), 4);
        let mut errors = Vec::new();
        check_chrome_trace(&doc, &mut errors);
        assert_eq!(errors, Vec::<String>::new());
    }
}
