//! Offline stand-in for `serde`.
//!
//! The sandbox has no crate registry, so the benchmark builds the paxi
//! crates against this crate instead of the published one. It declares the
//! part of serde's data model that `paxi-codec` implements and the derives
//! generate calls into, with the published signatures and the published
//! call sequences (a `Vec<u8>` is a sequence of `u8` elements, an enum
//! variant is identified through `deserialize_identifier`, and so on), so
//! codec timings keep their shape. It is not a general serde replacement.

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
