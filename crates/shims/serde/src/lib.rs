//! Offline stand-in for `serde`, write side only.
//!
//! The build environment has no network access, so this workspace carries a
//! small serialization framework under the `serde` package name: a JSON-ish
//! [`Value`] tree, the [`Serialize`] trait mapping types to it, and a derive
//! macro (re-exported from the sibling `serde_derive` shim) for structs with
//! named fields and enums whose variants are all unit — the shapes the
//! figure reports and `crash_resume`'s curve write. Nothing in the workspace
//! reads JSON back, so only the write half exists.
//!
//! The wire format (produced by the `serde_json` shim) matches serde's
//! defaults for those shapes: structs are objects and unit enum variants
//! are strings. Attribute-driven customization (`#[serde(...)]`) is not
//! supported.

pub use serde_derive::Serialize;

/// A JSON-like value, the form every [`Serialize`] type renders to.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer (kept exact so `u64` counters are written exactly).
    Int(i128),
    /// Floating-point number (written as `null` when not finite).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object (insertion-ordered).
    Obj(Vec<(String, Value)>),
}

/// Serialization error (the `serde_json` shim's `Result` error type).
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves as a [`Value`].
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, u128, i128);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}
tuple_impls! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_values_stay_exact() {
        assert_eq!(u64::MAX.to_value(), Value::Int(u64::MAX as i128));
        assert_eq!(
            (u64::MAX - 3).to_value(),
            Value::Int(18_446_744_073_709_551_612)
        );
    }
}
