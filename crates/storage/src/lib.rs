//! Bitwise-distributed columnar storage (the BWD model of Pirk et al.).
//!
//! This crate is the storage substrate of the `waste-not` engine:
//!
//! * [`bitpack`] — fixed-width bit-packed vectors, the physical format of
//!   both decomposition partitions;
//! * [`encoding`] — order-preserving payload↔unsigned encodings;
//! * [`swar`] — word-parallel range/point predicates evaluated directly
//!   on the packed words (no decode in the selection hot loop);
//! * [`lanes`] — fixed-lane batch kernels (`u64x8`, draining through
//!   `u64x4`) the SWAR matcher dispatches to for 64-aligned full blocks;
//! * [`prefix`] — shared-leading-bit compression with a factored base;
//! * [`decompose`] — the bitwise split of a column into a device-destined
//!   approximation and a host-resident residual;
//! * [`mod@column`] — full-resolution persistent columns and ordered string
//!   dictionaries;
//! * [`pieces`] — the one way a long pass runs on every core: contiguous
//!   pieces of rows, each written into its own part of one output buffer.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bitpack;
pub mod column;
pub mod decompose;
pub mod encoding;
pub mod lanes;
pub mod pieces;
pub mod prefix;
pub mod swar;

pub use bitpack::{BitPackedVec, BlockDecoder, DECODE_BLOCK};
pub use column::{Column, ColumnData, Dictionary, Payload, Storage, I24};
pub use decompose::{DecomposedColumn, DecompositionMeta, DecompositionSpec};
pub use lanes::{LaneParams, U64x4, U64x8, U64xN};
pub use prefix::{OutOfRange, PrefixBase, PrefixGranularity};
pub use swar::{mask_count, swar_applicable, RangeMatcher, SWAR_MAX_WIDTH};
