//! Offline shim for the `serde` crate.
//!
//! Instead of the real crate's `Serializer`/`Deserializer` machinery, this
//! shim has one event interface on each side:
//!
//! - `Serialize` has one method, which streams a value as events into a
//!   [`ser::Sink`]. `serde_json` (also shimmed) supplies the JSON-text
//!   sink, so `to_string` writes text directly and builds no tree.
//!   [`ser::to_value`] runs a second sink, which assembles the in-memory
//!   data model ([`value::Value`]).
//! - `Deserialize` reads a value back *out of* a [`value::Value`], which
//!   `serde_json::from_str` parses.
//!
//! The derive macros (`serde_derive` shim, re-exported under the `derive`
//! feature) generate impls of both traits for the struct/enum shapes used
//! in this workspace. See `shims/README.md`.

pub mod de;
pub mod ser;
pub mod value;

pub use de::Deserialize;
pub use ser::{to_value, Serialize};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
