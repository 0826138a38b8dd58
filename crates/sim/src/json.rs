//! A minimal, dependency-free JSON layer.
//!
//! The workspace's serialization needs are narrow: emit figure artifacts,
//! parse batch-configuration files, and round-trip model configurations in
//! tests. [`Json`] is a small document model with a writer and a
//! recursive-descent parser covering exactly that — no derive macros, no
//! external crates, and an output format byte-compatible with the
//! artifacts the repository already ships (`results/*.json`):
//!
//! * objects keep insertion order (struct field order);
//! * `pretty()` indents with two spaces and puts one space after `:`;
//! * floats print their shortest round-trip representation, with a
//!   trailing `.0` for integral values (`1.0`, not `1`), exactly as the
//!   previous serde_json/ryu emitter did;
//! * integers print without a decimal point.
//!
//! Conversion to and from domain types goes through the [`ToJson`] and
//! [`FromJson`] traits. Config and output types are declared once through
//! [`named_enum!`](crate::named_enum) (fieldless enums) and
//! [`json_struct!`](crate::json_struct) (structs), which generate both
//! impls from the declaration; only custom encodings are written by hand.
//! The conventions mirror the previous serde derive output so existing
//! files (e.g. `configs/sample_batch.json`) keep parsing: unit enum
//! variants are plain strings (`"Best"`), data-carrying variants are
//! externally tagged single-key objects (`{"Uniform": {"max": 500}}`),
//! `Option` is `null` or the value, and unknown object keys are ignored.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without a decimal point or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

/// Convert a domain value into a [`Json`] document.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Reconstruct a domain value from a [`Json`] document.
pub trait FromJson: Sized {
    /// Parse `v`, describing the first problem found.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl Json {
    /// Build an object from key/value pairs (helper for `to_json` impls).
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Required object field, decoded via [`FromJson`].
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| format!("field '{key}': {e}")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    /// Optional object field: `Ok(None)` when missing or `null`.
    pub fn opt_field<T: FromJson>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .map_err(|e| format!("field '{key}': {e}")),
        }
    }

    /// Optional object field with a default for missing/`null`.
    pub fn field_or<T: FromJson>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt_field(key)?.unwrap_or(default))
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact rendering (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering: two-space indent, one space after `:` — the
    /// format of the repository's existing JSON artifacts.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            Json::Float(f) => out.push_str(&format_float(*f)),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
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
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Typed views of a value. Each view answers for the variants it reads
/// and is `None` for every other one.
#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "a view is None for every variant it does not read, a future one included"
)]
impl Json {
    /// Member lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float; integers widen.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) if i >= 0 => Some(i as u64),
            // Integrality test — fract() is exactly 0.0 for whole floats, by
            // IEEE 754 definition.
            Json::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => Some(i),
            Json::Float(f)
                // Integrality test — fract() is exactly 0.0 for whole floats,
                // by IEEE 754 definition.
                if f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&f) =>
            {
                Some(f as i64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    /// Member access; yields `Json::Null` for anything missing, so lookups
    /// chain like `v["panels"][0]["label"]`.
    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;
    /// Element access; yields `Json::Null` out of bounds or on non-arrays.
    fn index(&self, idx: usize) -> &Json {
        static NULL: Json = Json::Null;
        self.as_array()
            .and_then(|items| items.get(idx))
            .unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(other)
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

/// Shortest round-trip float formatting with ryu-compatible `.0` for
/// integral values. Non-finite values render as `null` (JSON has no
/// representation for them).
fn format_float(f: f64) -> String {
    if !f.is_finite() {
        return "null".to_string();
    }
    if f.fract() == 0.0 && f.abs() < 1e16 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----- primitive ToJson / FromJson impls -----

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("expected bool, got {v}"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_f64()
            .ok_or_else(|| format!("expected number, got {v}"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {v}"))
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                let i = v.as_i64().ok_or_else(|| format!("expected integer, got {v}"))?;
                <$t>::try_from(i).map_err(|_| format!("integer {i} out of range"))
            }
        }
    )*};
}
int_json!(i64, i32, u32, usize);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        // Counts in this workspace stay far below i64::MAX; widen to float
        // (exact up to 2^53) rather than wrap if one ever does not.
        if *self <= i64::MAX as u64 {
            Json::Int(*self as i64)
        } else {
            Json::Float(*self as f64)
        }
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| format!("expected unsigned integer, got {v}"))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        let items = v
            .as_array()
            .ok_or_else(|| format!("expected array, got {v}"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(format!("expected 2-element array, got {v}")),
        }
    }
}

// ----- declaration macros -----

/// Declare a fieldless enum once, with each variant's report/CLI name and
/// optional aliases; everything that mirrors the variant list is
/// generated from that one declaration:
///
/// * the enum itself, deriving `Clone, Copy, Debug, PartialEq, Eq, Hash`
///   (attributes on the enum and its variants pass through, so
///   `#[derive(Default)]` with a `#[default]` variant works);
/// * `ALL`, every variant in declaration order;
/// * `name()` and a `Display` that prints it;
/// * a `FromStr` accepting the name or any alias, ignoring ASCII case;
/// * [`ToJson`]/[`FromJson`] with the variant identifier as the wire
///   name (`"Best"`), matched case-sensitively.
///
/// ```
/// lockgran_sim::named_enum! {
///     /// How much to say.
///     pub enum Verbosity {
///         /// Nothing.
///         Quiet => "quiet" | "q",
///         /// Everything.
///         Loud => "loud",
///     }
/// }
/// use lockgran_sim::{FromJson, Json, ToJson};
/// assert_eq!(Verbosity::ALL, [Verbosity::Quiet, Verbosity::Loud]);
/// assert_eq!("Q".parse::<Verbosity>(), Ok(Verbosity::Quiet));
/// assert_eq!(Verbosity::Loud.to_string(), "loud");
/// assert_eq!(Verbosity::Loud.to_json(), Json::Str("Loud".into()));
/// assert!(Verbosity::from_json(&Json::Str("loud".into())).is_err());
/// ```
#[macro_export]
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $label:literal $(| $alias:literal)*,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$($label),+].len()] = [$($name::$variant),+];

            /// Short name used in reports and CLI arguments.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.name())
            }
        }

        impl ::std::str::FromStr for $name {
            type Err = String;
            fn from_str(s: &str) -> Result<Self, String> {
                $(if [$label $(, $alias)*].iter().any(|n| n.eq_ignore_ascii_case(s)) {
                    return Ok($name::$variant);
                })+
                Err(format!(
                    "unknown {} '{s}' ({})",
                    stringify!($name),
                    [$($label),+].join("|")
                ))
            }
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                let wire = match self {
                    $($name::$variant => stringify!($variant),)+
                };
                $crate::Json::Str(wire.to_string())
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> Result<Self, String> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($name::$variant),)+
                    _ => Err(format!(
                        "expected {} ({}), got {v}",
                        stringify!($name),
                        [$(stringify!($variant)),+].join("|")
                    )),
                }
            }
        }
    };
}

/// Declare a struct once and generate its JSON object encoding from the
/// declaration: [`ToJson`] writes every field under its own name, in
/// declaration order; [`FromJson`] reads them back, ignoring unknown
/// keys. A field written `name: Type = default` is optional — absent or
/// `null` in JSON, it takes `default` ([`Json::field_or`]); every other
/// field is required ([`Json::field`]). Attributes on the struct and its
/// fields pass through.
///
/// ```
/// lockgran_sim::json_struct! {
///     /// A retry policy.
///     #[derive(Debug, PartialEq)]
///     pub struct Retry {
///         /// Attempts before giving up.
///         pub attempts: u32,
///         /// Pause between attempts.
///         pub backoff: f64 = 0.5,
///     }
/// }
/// use lockgran_sim::{json, FromJson, ToJson};
/// let r = Retry::from_json(&json::parse(r#"{"attempts": 3}"#).unwrap()).unwrap();
/// assert_eq!(r, Retry { attempts: 3, backoff: 0.5 });
/// assert_eq!(r.to_json().to_string_compact(), r#"{"attempts":3,"backoff":0.5}"#);
/// assert!(Retry::from_json(&json::parse("{}").unwrap()).is_err());
/// ```
#[macro_export]
macro_rules! json_struct {
    (@read $v:ident, $field:ident) => {
        $v.field(stringify!($field))?
    };
    (@read $v:ident, $field:ident, $default:expr) => {
        $v.field_or(stringify!($field), $default)?
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty $(= $default:expr)?,)+
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)+
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::object(vec![
                    $((stringify!($field), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> Result<Self, String> {
                Ok($name {
                    $($field: $crate::json_struct!(@read v, $field $(, $default)?),)+
                })
            }
        }
    };
}

// ----- parsing -----

/// A parse failure, with a 1-based line/column position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// content rejected).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing content after JSON value"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if !(self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u'))
                                {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.error("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 character (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("0.5").unwrap(), Json::Float(0.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("-2.5e-2").unwrap(), Json::Float(-0.025));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(v["a"][0], Json::Int(1));
        assert_eq!(v["a"][1], Json::Float(2.5));
        assert_eq!(v["a"][2], "x");
        assert!(v["b"]["c"].is_null());
        assert!(v["nope"].is_null());
        assert!(v["a"][99].is_null());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\/d\n\t\u0041\u00e9""#).unwrap();
        assert_eq!(v, "a\"b\\c/d\n\tAé");
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), "😀");
        // Raw UTF-8 passes through.
        assert_eq!(parse("\"héllo — 世界\"").unwrap(), "héllo — 世界");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"unterminated",
            "[1] trailing",
            "\"\\ud800\"",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("true"));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn writes_compact_and_pretty() {
        let v = Json::object(vec![
            ("id", Json::Str("fig1".into())),
            ("xs", Json::Array(vec![Json::Int(1), Json::Float(2.0)])),
            ("empty", Json::Array(vec![])),
        ]);
        assert_eq!(
            v.to_string_compact(),
            r#"{"id":"fig1","xs":[1,2.0],"empty":[]}"#
        );
        assert_eq!(
            v.pretty(),
            "{\n  \"id\": \"fig1\",\n  \"xs\": [\n    1,\n    2.0\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn float_formatting_matches_previous_emitter() {
        assert_eq!(format_float(1.0), "1.0");
        assert_eq!(format_float(-3.0), "-3.0");
        assert_eq!(format_float(0.5769), "0.5769");
        assert_eq!(format_float(0.0019730233990840913), "0.0019730233990840913");
        assert_eq!(format_float(f64::NAN), "null");
        assert_eq!(format_float(f64::INFINITY), "null");
    }

    #[test]
    fn round_trips_preserve_values() {
        let src = r#"{"a": [0.1, 100, -5, true, null, "s\u00e9q"], "b": {"c": [[1, 2]]}}"#;
        let v = parse(src).unwrap();
        let emitted = v.pretty();
        assert_eq!(parse(&emitted).unwrap(), v);
        let compact = v.to_string_compact();
        assert_eq!(parse(&compact).unwrap(), v);
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{01} é 世界 😀";
        let v = Json::Str(nasty.to_string());
        assert_eq!(
            parse(&v.to_string_compact()).unwrap(),
            Json::Str(nasty.into())
        );
    }

    #[test]
    fn field_helpers_decode_and_default() {
        let v = parse(r#"{"n": 3, "s": "x", "f": 1.5, "opt": null}"#).unwrap();
        assert_eq!(v.field::<u64>("n").unwrap(), 3);
        assert_eq!(v.field::<String>("s").unwrap(), "x");
        assert_eq!(v.field::<f64>("f").unwrap(), 1.5);
        assert_eq!(v.field::<f64>("n").unwrap(), 3.0);
        assert_eq!(v.opt_field::<u64>("opt").unwrap(), None);
        assert_eq!(v.opt_field::<u64>("missing").unwrap(), None);
        assert_eq!(v.field_or("missing", 9u64).unwrap(), 9);
        assert!(v.field::<u64>("missing").is_err());
        assert!(v.field::<u64>("s").is_err());
        assert!(v.field::<u32>("f").is_err());
    }

    #[test]
    fn tuple_and_vec_round_trip() {
        let pairs: Vec<(f64, u64)> = vec![(0.8, 50), (0.2, 500)];
        let j = pairs.to_json();
        assert_eq!(j.to_string_compact(), "[[0.8,50],[0.2,500]]");
        let back: Vec<(f64, u64)> = FromJson::from_json(&j).unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(parse("5").unwrap().to_string_compact(), "5");
        assert_eq!(parse("5.0").unwrap().to_string_compact(), "5.0");
        // Integers beyond i64 fall back to floats.
        assert!(matches!(
            parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }

    crate::named_enum! {
        /// A test enum declared out of alphabetical order.
        #[derive(Default)]
        enum Tier {
            Gold => "gold" | "au",
            #[default]
            Bronze => "bronze",
            Silver => "silver" | "ag" | "argent",
        }
    }

    /// The listing mirrors of a `named_enum!` — `ALL`, `name()` and
    /// `Display` — hold every variant in declaration order, so none can
    /// skip a variant.
    #[test]
    fn named_enum_all_follows_the_declaration() {
        assert_eq!(Tier::ALL, [Tier::Gold, Tier::Bronze, Tier::Silver]);
        assert_eq!(Tier::default(), Tier::Bronze);
        let names: Vec<String> = Tier::ALL.iter().map(Tier::to_string).collect();
        assert_eq!(names, ["gold", "bronze", "silver"]);
        let names: Vec<&str> = Tier::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(names, ["gold", "bronze", "silver"]);
    }

    /// The parsing mirrors of a `named_enum!` — `FromStr` and both JSON
    /// directions — accept every variant and every alias, so no string
    /// match can miss one.
    #[test]
    fn named_enum_parsers_cover_every_variant() {
        for (t, spellings) in [
            (Tier::Gold, &["gold", "GOLD", "au", "Au"][..]),
            (Tier::Bronze, &["bronze", "Bronze"][..]),
            (Tier::Silver, &["silver", "ag", "ARGENT"][..]),
        ] {
            for s in spellings {
                assert_eq!(s.parse::<Tier>(), Ok(t), "{s}");
            }
            let wire = t.to_json();
            assert_eq!(wire, Json::Str(format!("{t:?}")));
            assert_eq!(Tier::from_json(&wire), Ok(t));
        }
        assert_eq!(
            "tin".parse::<Tier>(),
            Err("unknown Tier 'tin' (gold|bronze|silver)".into())
        );
        assert_eq!(
            Tier::from_json(&Json::Str("gold".into())),
            Err("expected Tier (Gold|Bronze|Silver), got \"gold\"".into())
        );
    }

    crate::json_struct! {
        #[derive(Debug, PartialEq)]
        struct Retry {
            attempts: u32,
            label: String,
            backoff: f64 = 0.5,
            cap: Option<u64> = None,
        }
    }

    /// `json_struct!` writes each field under its declared name, in
    /// declaration order, and reads the same names back: required
    /// fields must be present, defaulted ones take their default when
    /// absent or `null`.
    #[test]
    fn json_struct_round_trips_by_field_name() {
        let r = Retry {
            attempts: 3,
            label: "x".into(),
            backoff: 2.0,
            cap: Some(9),
        };
        let j = r.to_json();
        assert_eq!(
            j.to_string_compact(),
            r#"{"attempts":3,"label":"x","backoff":2.0,"cap":9}"#
        );
        assert_eq!(Retry::from_json(&j), Ok(r));
        let sparse = parse(r#"{"label": "y", "attempts": 1, "cap": null, "extra": 0}"#).unwrap();
        assert_eq!(
            Retry::from_json(&sparse),
            Ok(Retry {
                attempts: 1,
                label: "y".into(),
                backoff: 0.5,
                cap: None,
            })
        );
        let missing = parse(r#"{"attempts": 1}"#).unwrap();
        assert_eq!(
            Retry::from_json(&missing),
            Err("missing field 'label'".into())
        );
        let wrong = parse(r#"{"attempts": 1, "label": "y", "backoff": "slow"}"#).unwrap();
        assert!(Retry::from_json(&wrong)
            .unwrap_err()
            .starts_with("field 'backoff': "));
    }
}
