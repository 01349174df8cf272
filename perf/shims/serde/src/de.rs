//! Deserialization half of the data model.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::{self, Display};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

/// Error raised by a deserializer or a visitor.
pub trait Error: Sized + std::error::Error {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;

    /// The input held a value of the wrong type for the visitor.
    fn invalid_type(unexpected: &str, expected: &dyn Expected) -> Self {
        Self::custom(format_args!(
            "invalid type: {unexpected}, expected {}",
            Describe(expected)
        ))
    }

    /// A sequence or struct ended after `len` elements.
    fn invalid_length(len: usize, expected: &dyn Expected) -> Self {
        Self::custom(format_args!(
            "invalid length {len}, expected {}",
            Describe(expected)
        ))
    }
}

/// What a visitor was waiting for, for error messages.
pub trait Expected {
    fn fmt(&self, formatter: &mut fmt::Formatter) -> fmt::Result;
}

impl<'de, V: Visitor<'de>> Expected for V {
    fn fmt(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
        self.expecting(formatter)
    }
}

impl Expected for &str {
    fn fmt(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
        formatter.write_str(self)
    }
}

struct Describe<'a>(&'a dyn Expected);

impl Display for Describe<'_> {
    fn fmt(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
        self.0.fmt(formatter)
    }
}

/// A value that can be read from any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A value that borrows nothing from its input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Stateful variant of [`Deserialize`].
pub trait DeserializeSeed<'de>: Sized {
    type Value;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    #[inline]
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// A data format's reading side.
pub trait Deserializer<'de>: Sized {
    type Error: Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    /// Formats without a 128-bit integer refuse it, as in the published crate.
    fn deserialize_i128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        let _ = visitor;
        Err(Error::custom("i128 is not supported"))
    }
    fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        let _ = visitor;
        Err(Error::custom("u128 is not supported"))
    }

    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! visit_forward {
    ($($method:ident($ty:ty) => $target:ident as $wide:ty,)*) => {$(
        #[inline]
        fn $method<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            self.$target(v as $wide)
        }
    )*};
}

macro_rules! visit_reject {
    ($($method:ident($ty:ty) => $what:expr,)*) => {$(
        fn $method<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            let _ = v;
            Err(E::invalid_type($what, &self))
        }
    )*};
}

/// Receives whatever the deserializer found in the input.
pub trait Visitor<'de>: Sized {
    type Value;

    fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result;

    visit_forward! {
        visit_i8(i8) => visit_i64 as i64,
        visit_i16(i16) => visit_i64 as i64,
        visit_i32(i32) => visit_i64 as i64,
        visit_u8(u8) => visit_u64 as u64,
        visit_u16(u16) => visit_u64 as u64,
        visit_u32(u32) => visit_u64 as u64,
        visit_f32(f32) => visit_f64 as f64,
    }

    visit_reject! {
        visit_bool(bool) => "a boolean",
        visit_i64(i64) => "an integer",
        visit_u64(u64) => "an integer",
        visit_f64(f64) => "a float",
        visit_i128(i128) => "an integer",
        visit_u128(u128) => "an integer",
        visit_str(&str) => "a string",
        visit_bytes(&[u8]) => "a byte array",
    }

    #[inline]
    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        self.visit_str(v.encode_utf8(&mut [0u8; 4]))
    }
    #[inline]
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }
    #[inline]
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }
    #[inline]
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }
    #[inline]
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::invalid_type("none", &self))
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(D::Error::invalid_type("some", &self))
    }
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::invalid_type("unit", &self))
    }
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(D::Error::invalid_type("a newtype struct", &self))
    }
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(A::Error::invalid_type("a sequence", &self))
    }
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(A::Error::invalid_type("a map", &self))
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(A::Error::invalid_type("an enum", &self))
    }
}

/// Hands a visitor the elements of a sequence.
pub trait SeqAccess<'de> {
    type Error: Error;
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;
    #[inline]
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Hands a visitor the entries of a map.
pub trait MapAccess<'de> {
    type Error: Error;
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;
    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;
    #[inline]
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }
    #[inline]
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }
    #[inline]
    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        match self.next_key()? {
            Some(key) => Ok(Some((key, self.next_value()?))),
            None => Ok(None),
        }
    }
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Hands a visitor the variant tag of an enum, then its payload.
pub trait EnumAccess<'de>: Sized {
    type Error: Error;
    type Variant: VariantAccess<'de, Error = Self::Error>;
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;
    #[inline]
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

/// The payload of an enum variant.
pub trait VariantAccess<'de>: Sized {
    type Error: Error;
    fn unit_variant(self) -> Result<(), Self::Error>;
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;
    #[inline]
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

/// Turns a plain value into a deserializer over it.
pub trait IntoDeserializer<'de, E: Error> {
    type Deserializer: Deserializer<'de, Error = E>;
    fn into_deserializer(self) -> Self::Deserializer;
}

pub mod value {
    //! Deserializers over plain values.
    use super::*;

    /// A deserializer holding one `u32` (an enum's variant index).
    pub struct U32Deserializer<E> {
        value: u32,
        marker: PhantomData<E>,
    }

    impl<'de, E: Error> IntoDeserializer<'de, E> for u32 {
        type Deserializer = U32Deserializer<E>;
        #[inline]
        fn into_deserializer(self) -> U32Deserializer<E> {
            U32Deserializer {
                value: self,
                marker: PhantomData,
            }
        }
    }

    macro_rules! forward_to_any {
        ($($method:ident)*) => {$(
            #[inline]
            fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
                self.deserialize_any(visitor)
            }
        )*};
    }

    impl<'de, E: Error> Deserializer<'de> for U32Deserializer<E> {
        type Error = E;

        #[inline]
        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
            visitor.visit_u32(self.value)
        }

        forward_to_any! {
            deserialize_bool deserialize_i8 deserialize_i16 deserialize_i32 deserialize_i64
            deserialize_u8 deserialize_u16 deserialize_u32 deserialize_u64 deserialize_f32
            deserialize_f64 deserialize_char deserialize_str deserialize_string
            deserialize_bytes deserialize_byte_buf deserialize_option deserialize_unit
            deserialize_seq deserialize_map deserialize_identifier deserialize_ignored_any
        }

        fn deserialize_unit_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_newtype_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_tuple<V: Visitor<'de>>(
            self,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_tuple_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            self.deserialize_any(visitor)
        }
    }
}

// ---- impls for std types --------------------------------------------------

macro_rules! primitive {
    ($($ty:ty, $deserialize:ident, $visit:ident, $wide_visit:ident($wide:ty), $what:expr;)*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct PrimitiveVisitor;
                impl<'de> Visitor<'de> for PrimitiveVisitor {
                    type Value = $ty;
                    fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                        formatter.write_str($what)
                    }
                    #[inline]
                    fn $visit<E: Error>(self, v: $ty) -> Result<$ty, E> {
                        Ok(v)
                    }
                    // A self-describing format may hand over the widest type.
                    fn $wide_visit<E: Error>(self, v: $wide) -> Result<$ty, E> {
                        <$ty>::try_from(v)
                            .map_err(|_| E::custom(format_args!("{v} out of range for {}", $what)))
                    }
                }
                deserializer.$deserialize(PrimitiveVisitor)
            }
        }
    )*};
}

primitive! {
    i8, deserialize_i8, visit_i8, visit_i64(i64), "i8";
    i16, deserialize_i16, visit_i16, visit_i64(i64), "i16";
    i32, deserialize_i32, visit_i32, visit_i64(i64), "i32";
    u8, deserialize_u8, visit_u8, visit_u64(u64), "u8";
    u16, deserialize_u16, visit_u16, visit_u64(u64), "u16";
    u32, deserialize_u32, visit_u32, visit_u64(u64), "u32";
}

macro_rules! exact_primitive {
    ($($ty:ty, $deserialize:ident, $visit:ident, $what:expr;)*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct PrimitiveVisitor;
                impl<'de> Visitor<'de> for PrimitiveVisitor {
                    type Value = $ty;
                    fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                        formatter.write_str($what)
                    }
                    #[inline]
                    fn $visit<E: Error>(self, v: $ty) -> Result<$ty, E> {
                        Ok(v)
                    }
                }
                deserializer.$deserialize(PrimitiveVisitor)
            }
        }
    )*};
}

exact_primitive! {
    bool, deserialize_bool, visit_bool, "a boolean";
    i64, deserialize_i64, visit_i64, "i64";
    u64, deserialize_u64, visit_u64, "u64";
    f64, deserialize_f64, visit_f64, "f64";
    i128, deserialize_i128, visit_i128, "i128";
    u128, deserialize_u128, visit_u128, "u128";
}

impl<'de> Deserialize<'de> for f32 {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct F32Visitor;
        impl<'de> Visitor<'de> for F32Visitor {
            type Value = f32;
            fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                formatter.write_str("f32")
            }
            #[inline]
            fn visit_f32<E: Error>(self, v: f32) -> Result<f32, E> {
                Ok(v)
            }
            fn visit_f64<E: Error>(self, v: f64) -> Result<f32, E> {
                Ok(v as f32)
            }
        }
        deserializer.deserialize_f32(F32Visitor)
    }
}

impl<'de> Deserialize<'de> for usize {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wide = u64::deserialize(deserializer)?;
        usize::try_from(wide).map_err(|_| D::Error::custom(format_args!("{wide} out of range")))
    }
}

impl<'de> Deserialize<'de> for isize {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wide = i64::deserialize(deserializer)?;
        isize::try_from(wide).map_err(|_| D::Error::custom(format_args!("{wide} out of range")))
    }
}

impl<'de> Deserialize<'de> for char {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct CharVisitor;
        impl<'de> Visitor<'de> for CharVisitor {
            type Value = char;
            fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                formatter.write_str("a character")
            }
            #[inline]
            fn visit_char<E: Error>(self, v: char) -> Result<char, E> {
                Ok(v)
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<char, E> {
                let mut chars = v.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(E::invalid_type("a string", &self)),
                }
            }
        }
        deserializer.deserialize_char(CharVisitor)
    }
}

impl<'de> Deserialize<'de> for String {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct StringVisitor;
        impl<'de> Visitor<'de> for StringVisitor {
            type Value = String;
            fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                formatter.write_str("a string")
            }
            #[inline]
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            #[inline]
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_string(StringVisitor)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a str {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct StrVisitor;
        impl<'a> Visitor<'a> for StrVisitor {
            type Value = &'a str;
            fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                formatter.write_str("a borrowed string")
            }
            #[inline]
            fn visit_borrowed_str<E: Error>(self, v: &'a str) -> Result<&'a str, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_str(StrVisitor)
    }
}

impl<'de> Deserialize<'de> for () {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct UnitVisitor;
        impl<'de> Visitor<'de> for UnitVisitor {
            type Value = ();
            fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                formatter.write_str("unit")
            }
            #[inline]
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        deserializer.deserialize_unit(UnitVisitor)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct OptionVisitor<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
            type Value = Option<T>;
            fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                formatter.write_str("an option")
            }
            #[inline]
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            #[inline]
            fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            #[inline]
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
                T::deserialize(d).map(Some)
            }
        }
        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

/// Caps a length read from input before it sizes an allocation, as serde's
/// `size_hint::cautious` does (at most 1 MiB reserved up front).
#[inline]
fn cautious<T>(hint: Option<usize>) -> usize {
    const MAX_PREALLOC_BYTES: usize = 1024 * 1024;
    match std::mem::size_of::<T>() {
        0 => 0,
        size => hint.unwrap_or(0).min(MAX_PREALLOC_BYTES / size),
    }
}

macro_rules! seq {
    ($($ty:ident <T $(: $b1:ident $(+ $b2:ident)*)? $(, $h:ident: $hb1:ident + $hb2:ident)?>,
       $with_capacity:expr, $insert:ident;)*) => {$(
        impl<'de, T: Deserialize<'de> $(+ $b1 $(+ $b2)*)? $(, $h: $hb1 + $hb2)?> Deserialize<'de>
            for $ty<T $(, $h)?>
        {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct SeqVisitor<T $(, $h)?>(PhantomData<$ty<T $(, $h)?>>);
                impl<'de, T: Deserialize<'de> $(+ $b1 $(+ $b2)*)? $(, $h: $hb1 + $hb2)?>
                    Visitor<'de> for SeqVisitor<T $(, $h)?>
                {
                    type Value = $ty<T $(, $h)?>;
                    fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                        formatter.write_str("a sequence")
                    }
                    #[inline]
                    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                        let capacity = cautious::<T>(seq.size_hint());
                        let mut out: Self::Value = ($with_capacity)(capacity);
                        while let Some(item) = seq.next_element()? {
                            out.$insert(item);
                        }
                        Ok(out)
                    }
                }
                deserializer.deserialize_seq(SeqVisitor(PhantomData))
            }
        }
    )*};
}

seq! {
    Vec<T>, Vec::with_capacity, push;
    VecDeque<T>, VecDeque::with_capacity, push_back;
    BTreeSet<T: Ord>, |_| BTreeSet::new(), insert;
    HashSet<T: Eq + Hash, H: BuildHasher + Default>,
        |n| HashSet::with_capacity_and_hasher(n, H::default()), insert;
}

macro_rules! map {
    ($($ty:ident <K: $kb1:ident $(+ $kb2:ident)*, V $(, $h:ident: $hb1:ident + $hb2:ident)?>,
       $with_capacity:expr;)*) => {$(
        impl<'de, K: Deserialize<'de> + $kb1 $(+ $kb2)*, V: Deserialize<'de>
             $(, $h: $hb1 + $hb2)?> Deserialize<'de> for $ty<K, V $(, $h)?>
        {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct MapVisitor<K, V $(, $h)?>(PhantomData<$ty<K, V $(, $h)?>>);
                impl<'de, K: Deserialize<'de> + $kb1 $(+ $kb2)*, V: Deserialize<'de>
                     $(, $h: $hb1 + $hb2)?> Visitor<'de> for MapVisitor<K, V $(, $h)?>
                {
                    type Value = $ty<K, V $(, $h)?>;
                    fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                        formatter.write_str("a map")
                    }
                    #[inline]
                    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                        let capacity = cautious::<(K, V)>(map.size_hint());
                        let mut out: Self::Value = ($with_capacity)(capacity);
                        while let Some((key, value)) = map.next_entry()? {
                            out.insert(key, value);
                        }
                        Ok(out)
                    }
                }
                deserializer.deserialize_map(MapVisitor(PhantomData))
            }
        }
    )*};
}

map! {
    BTreeMap<K: Ord, V>, |_| BTreeMap::new();
    HashMap<K: Eq + Hash, V, H: BuildHasher + Default>,
        |n| HashMap::with_capacity_and_hasher(n, H::default());
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct ArrayVisitor<T, const N: usize>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>, const N: usize> Visitor<'de> for ArrayVisitor<T, N> {
            type Value = [T; N];
            fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                write!(formatter, "an array of length {N}")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<[T; N], A::Error> {
                let mut items = Vec::with_capacity(N);
                while items.len() < N {
                    match seq.next_element()? {
                        Some(item) => items.push(item),
                        None => return Err(A::Error::invalid_length(items.len(), &self)),
                    }
                }
                items
                    .try_into()
                    .map_err(|_| A::Error::custom("array length mismatch"))
            }
        }
        deserializer.deserialize_tuple(N, ArrayVisitor::<T, N>(PhantomData))
    }
}

macro_rules! tuple {
    ($(($len:expr => $($idx:tt $name:ident)+))*) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct TupleVisitor<$($name),+>(PhantomData<($($name,)+)>);
                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($name),+> {
                    type Value = ($($name,)+);
                    fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result {
                        write!(formatter, "a tuple of size {}", $len)
                    }
                    #[inline]
                    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                        Ok(($(
                            match seq.next_element::<$name>()? {
                                Some(value) => value,
                                None => return Err(A::Error::invalid_length($idx, &self)),
                            },
                        )+))
                    }
                }
                deserializer.deserialize_tuple($len, TupleVisitor(PhantomData))
            }
        }
    )*};
}

tuple! {
    (1 => 0 T0)
    (2 => 0 T0 1 T1)
    (3 => 0 T0 1 T1 2 T2)
    (4 => 0 T0 1 T1 2 T2 3 T3)
    (5 => 0 T0 1 T1 2 T2 3 T3 4 T4)
    (6 => 0 T0 1 T1 2 T2 3 T3 4 T4 5 T5)
}
