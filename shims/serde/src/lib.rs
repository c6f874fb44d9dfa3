//! Hermetic stand-in for the `serde` crate.
//!
//! The workspace builds in an environment with no registry access, so the
//! small slice of serde actually used here is implemented locally: a
//! [`Serialize`] trait that renders values as JSON. Unlike real serde the
//! data model *is* JSON — that is all the workspace needs (machine-readable
//! reports and metric dumps), and it keeps the shim dependency-free.
//!
//! Types implement [`Serialize`] by hand (there is no derive macro); the
//! [`ser::JsonMap`] and [`ser::JsonSeq`] builders make the impls short and
//! keep commas/escaping correct by construction.

#![warn(missing_docs)]

/// A value that can append its JSON encoding to a buffer.
pub trait Serialize {
    /// Append the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);

    /// The JSON encoding of `self` as a fresh string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.serialize_json(&mut s);
        s
    }
}

/// `serde_json`-flavoured convenience: the JSON encoding of a value.
pub mod json {
    use super::Serialize;

    /// Encode `value` as a JSON string.
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        value.to_json()
    }
}

/// Building blocks for hand-written [`Serialize`] impls.
pub mod ser {
    use super::Serialize;

    /// Append a JSON string literal (with escaping) to `out`.
    pub fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
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

    /// Append a JSON number for `v`, mapping non-finite values to `null`
    /// (JSON has no representation for them).
    pub fn write_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            use std::fmt::Write;
            // Shortest round-trip formatting, always with enough precision.
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }

    /// Incremental JSON object writer.
    pub struct JsonMap<'a> {
        out: &'a mut String,
        first: bool,
    }

    impl<'a> JsonMap<'a> {
        /// Open a `{`.
        pub fn new(out: &'a mut String) -> Self {
            out.push('{');
            JsonMap { out, first: true }
        }

        /// Write one `"key": value` pair.
        pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
            if !self.first {
                self.out.push(',');
            }
            self.first = false;
            write_str(self.out, key);
            self.out.push(':');
            value.serialize_json(self.out);
            self
        }

        /// Write a pair whose value is produced by a closure (for nesting
        /// without intermediate types).
        pub fn field_with(&mut self, key: &str, f: impl FnOnce(&mut String)) -> &mut Self {
            if !self.first {
                self.out.push(',');
            }
            self.first = false;
            write_str(self.out, key);
            self.out.push(':');
            f(self.out);
            self
        }

        /// Close the `}`.
        pub fn end(self) {
            self.out.push('}');
        }
    }

    /// Incremental JSON array writer.
    pub struct JsonSeq<'a> {
        out: &'a mut String,
        first: bool,
    }

    impl<'a> JsonSeq<'a> {
        /// Open a `[`.
        pub fn new(out: &'a mut String) -> Self {
            out.push('[');
            JsonSeq { out, first: true }
        }

        /// Write one element.
        pub fn item<T: Serialize + ?Sized>(&mut self, value: &T) -> &mut Self {
            if !self.first {
                self.out.push(',');
            }
            self.first = false;
            value.serialize_json(self.out);
            self
        }

        /// Write an element produced by a closure.
        pub fn item_with(&mut self, f: impl FnOnce(&mut String)) -> &mut Self {
            if !self.first {
                self.out.push(',');
            }
            self.first = false;
            f(self.out);
            self
        }

        /// Close the `]`.
        pub fn end(self) {
            self.out.push(']');
        }
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                use std::fmt::Write;
                // Writing to a `String` cannot fail.
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        ser::write_f64(out, *self);
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        ser::write_f64(out, f64::from(*self));
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        ser::write_str(out, self);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        ser::write_str(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        let mut seq = ser::JsonSeq::new(out);
        for v in self {
            seq.item(v);
        }
        seq.end();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize_json(&self, out: &mut String) {
        let mut seq = ser::JsonSeq::new(out);
        seq.item(&self.0).item(&self.1);
        seq.end();
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize_json(&self, out: &mut String) {
        let mut seq = ser::JsonSeq::new(out);
        seq.item(&self.0).item(&self.1).item(&self.2);
        seq.end();
    }
}

impl<K: AsRef<str>, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) {
        let mut map = ser::JsonMap::new(out);
        for (k, v) in self {
            map.field(k.as_ref(), v);
        }
        map.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_strings() {
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-3i32).to_json(), "-3");
        assert_eq!(i64::MIN.to_json(), "-9223372036854775808");
        assert_eq!(u64::MAX.to_json(), "18446744073709551615");
        assert_eq!(0u8.to_json(), "0");
        assert_eq!(7usize.to_json(), "7");
        assert_eq!(true.to_json(), "true");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!("a\"b\\c\nd".to_json(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn containers() {
        assert_eq!(vec![1u32, 2, 3].to_json(), "[1,2,3]");
        assert_eq!(Some(1u32).to_json(), "1");
        assert_eq!(None::<u32>.to_json(), "null");
        assert_eq!((1u32, "x").to_json(), r#"[1,"x"]"#);
        let mut m = std::collections::BTreeMap::new();
        m.insert("b", 2u32);
        m.insert("a", 1u32);
        assert_eq!(m.to_json(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn map_builder_handles_commas() {
        let mut s = String::new();
        let mut map = ser::JsonMap::new(&mut s);
        map.field("x", &1u32).field("y", &"two");
        map.end();
        assert_eq!(s, r#"{"x":1,"y":"two"}"#);
    }
}
