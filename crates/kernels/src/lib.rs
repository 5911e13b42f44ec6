//! Simulated massively-parallel device kernels.
//!
//! These are the "OpenCL operators" of the paper's implementation (§V-C):
//! the data-intensive halves of the approximation operators. Each kernel
//! performs its *real* computation (results are bit-exact) and charges
//! calibrated simulated time to the [`bwd_device::CostLedger`], modelling
//! the GTX 680's bandwidth, launch overhead, scattered-access penalty and
//! atomic write-conflict contention.
//!
//! Kernel inventory:
//!
//! * [`scan`] — relaxed range selections over packed approximations (SWAR
//!   word-parallel in the packed domain where the width allows), with
//!   the block-scrambled output order of a parallel selection;
//! * [`selvec`] — adaptive candidate representations: positional match
//!   bitmaps ([`SelMask`]) vs materialized index lists, emitting the
//!   same order bit for bit, and the window [`Cursor`] everything past
//!   the selection chain reads either through;
//! * [`gather`] — positional lookups (projections) and the cost of
//!   FK-indexed lookups (pre-indexed equi-joins, §IV-D);
//! * [`group`] — hash grouping with the write-conflict contention model
//!   behind Figure 8f;
//! * [`reduce`] — grouped aggregation over fully-resident columns
//!   (block-private, lane-replicated accumulator tables) and candidate-set
//!   producing min/max reductions (Figure 6).

pub mod array;
pub mod candidates;
pub mod gather;
pub mod group;
pub mod reduce;
pub mod scan;
pub mod selvec;

pub use array::DeviceArray;
pub use candidates::Candidates;
pub use group::{GroupResult, Grouper, MultiGroupResult};
pub use scan::{scan_block_ranges, ScanOptions, ScanRows, ScanSpec};
pub use selvec::{Cursor, Positions, SelMask, SelVec};
