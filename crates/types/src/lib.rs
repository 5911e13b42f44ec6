//! Fundamental types shared by every crate of the `waste-not` workspace.
//!
//! This crate is dependency-light on purpose: it defines the vocabulary —
//! scalar [`Value`]s, logical [`DataType`]s, tuple identifiers ([`Oid`]),
//! the workspace-wide [`BwdError`] type, bit-twiddling helpers used by the
//! bitwise-decomposition storage model, and a fast non-cryptographic hash
//! for the engine's hash tables.

pub mod bits;
pub mod date;
pub mod error;
pub mod fault;
pub mod hash;
pub mod rng;
pub mod value;

pub use bits::{bits_for_value, bits_for_width, low_mask};
pub use date::Date;
pub use error::{BwdError, Result};
pub use fault::{FaultKind, FaultPlan, FaultSite, FaultSpec};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::SplitMix64;
pub use value::{DataType, Value};

/// A tuple identifier ("object id" in MonetDB terminology).
///
/// Oids enumerate the tuples of a table (or of an intermediate candidate
/// list). They are dense and zero-based for persistent columns. 32 bits
/// comfortably cover the paper's largest dataset (~250 M GPS fixes).
pub type Oid = u32;
