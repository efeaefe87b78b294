//! The `Serialize` trait, the [`Sink`] it writes into, and its impls for
//! std types.
//!
//! A type serializes by emitting events into a [`Sink`]: one scalar call,
//! or a bracketed sequence or map. `serde_json` supplies the JSON-text
//! sink (compact and pretty); a private `Value` builder is the sink behind
//! [`to_value`]. Both see the same events, so the text written directly
//! and the text of the built [`Value`] are the same bytes.

use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Receiver of serialization events.
///
/// A value is either one scalar call, a `begin_seq` … `end_seq` bracket
/// around its elements (each a value), or a `begin_map` … `end_map`
/// bracket around `key` + value pairs. The scalar calls map one to one
/// onto the [`Value`] variants.
pub trait Sink {
    /// `null` (also unit and `None`).
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// A signed integer ([`Value::I64`]).
    fn i64(&mut self, v: i64);
    /// An unsigned integer ([`Value::U64`]).
    fn u64(&mut self, v: u64);
    /// A float.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Opens a sequence.
    fn begin_seq(&mut self);
    /// Closes the innermost sequence.
    fn end_seq(&mut self);
    /// Opens a map.
    fn begin_map(&mut self);
    /// Names the next entry of the innermost map; its value follows.
    fn key(&mut self, k: &str);
    /// Closes the innermost map.
    fn end_map(&mut self);
}

/// Types that serialize into a [`Sink`].
pub trait Serialize {
    /// Emits `self` into `out` as exactly one value.
    fn serialize(&self, out: &mut dyn Sink);
}

/// Renders any serializable value into the data model.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    let mut b = ValueBuilder::default();
    value.serialize(&mut b);
    b.finish()
}

/// Emits one map entry: `key`, then `value`.
pub fn entry<T: Serialize + ?Sized>(out: &mut dyn Sink, key: &str, value: &T) {
    out.key(key);
    value.serialize(out);
}

/// The [`Sink`] that assembles a [`Value`] tree (see [`to_value`]).
#[derive(Debug, Default)]
struct ValueBuilder {
    /// Open containers, innermost last; a map carries its pending key.
    open: Vec<Open>,
    done: Option<Value>,
}

#[derive(Debug)]
enum Open {
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>, Option<String>),
}

impl ValueBuilder {
    /// The finished value (`Null` when nothing was emitted).
    ///
    /// # Panics
    /// Panics when a container is still open.
    fn finish(self) -> Value {
        assert!(self.open.is_empty(), "serialize left a container open");
        self.done.unwrap_or(Value::Null)
    }

    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            None => self.done = Some(v),
            Some(Open::Seq(items)) => items.push(v),
            Some(Open::Map(entries, key)) => {
                let k = key.take().expect("map value emitted without a key");
                entries.push((k, v));
            }
        }
    }
}

impl Sink for ValueBuilder {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, v: bool) {
        self.put(Value::Bool(v));
    }
    fn i64(&mut self, v: i64) {
        self.put(Value::I64(v));
    }
    fn u64(&mut self, v: u64) {
        self.put(Value::U64(v));
    }
    fn f64(&mut self, v: f64) {
        self.put(Value::F64(v));
    }
    fn str(&mut self, v: &str) {
        self.put(Value::Str(v.to_string()));
    }
    fn begin_seq(&mut self) {
        self.open.push(Open::Seq(Vec::new()));
    }
    fn end_seq(&mut self) {
        match self.open.pop() {
            Some(Open::Seq(items)) => self.put(Value::Seq(items)),
            other => panic!("end_seq without an open sequence: {other:?}"),
        }
    }
    fn begin_map(&mut self) {
        self.open.push(Open::Map(Vec::new(), None));
    }
    fn key(&mut self, k: &str) {
        match self.open.last_mut() {
            Some(Open::Map(_, key)) => *key = Some(k.to_string()),
            other => panic!("key outside a map: {other:?}"),
        }
    }
    fn end_map(&mut self) {
        match self.open.pop() {
            Some(Open::Map(entries, _)) => self.put(Value::Map(entries)),
            other => panic!("end_map without an open map: {other:?}"),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut dyn Sink) {
        (**self).serialize(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut dyn Sink) {
        (**self).serialize(out)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut dyn Sink) {
        out.bool(*self)
    }
}

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut dyn Sink) {
                out.i64(*self as i64)
            }
        }
    )*};
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut dyn Sink) {
                let v = *self as u64;
                match i64::try_from(v) {
                    Ok(i) => out.i64(i),
                    Err(_) => out.u64(v),
                }
            }
        }
    )*};
}

ser_signed!(i8, i16, i32, i64, isize);
ser_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f32 {
    fn serialize(&self, out: &mut dyn Sink) {
        out.f64(*self as f64)
    }
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut dyn Sink) {
        out.f64(*self)
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut dyn Sink) {
        out.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut dyn Sink) {
        out.str(self)
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut dyn Sink) {
        out.str(self)
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut dyn Sink) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::I64(n) => out.i64(*n),
            Value::U64(n) => out.u64(*n),
            Value::F64(f) => out.f64(*f),
            Value::Str(s) => out.str(s),
            Value::Seq(items) => seq(out, items),
            Value::Map(entries) => {
                out.begin_map();
                for (k, v) in entries {
                    entry(out, k, v);
                }
                out.end_map();
            }
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut dyn Sink) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }
}

/// Emits the items as one sequence.
fn seq<T: Serialize>(out: &mut dyn Sink, items: impl IntoIterator<Item = T>) {
    out.begin_seq();
    for item in items {
        item.serialize(out);
    }
    out.end_seq();
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut dyn Sink) {
        seq(out, self)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut dyn Sink) {
        seq(out, self)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self, out: &mut dyn Sink) {
        seq(out, self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut dyn Sink) {
        seq(out, self)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut dyn Sink) {
        seq(out, self)
    }
}

// Unordered containers are emitted in the canonical order of their
// items' `Value`s, so their output does not depend on hash order.
impl<T: Serialize> Serialize for HashSet<T> {
    fn serialize(&self, out: &mut dyn Sink) {
        let mut items: Vec<Value> = self.iter().map(to_value).collect();
        items.sort_by(|a, b| a.canonical_cmp(b));
        seq(out, &items)
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize(&self, out: &mut dyn Sink) {
        let mut pairs: Vec<Value> = self
            .iter()
            .map(|(k, v)| Value::Seq(vec![to_value(k), to_value(v)]))
            .collect();
        pairs.sort_by(|a, b| a.canonical_cmp(b));
        seq(out, &pairs)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut dyn Sink) {
        seq(out, self)
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut dyn Sink) {
                out.begin_seq();
                $(self.$n.serialize(out);)+
                out.end_seq();
            }
        }
    )*};
}

ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for () {
    fn serialize(&self, out: &mut dyn Sink) {
        out.null()
    }
}
