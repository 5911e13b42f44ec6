//! The Approximate & Refine (A&R) processing paradigm — the primary
//! contribution of Pirk et al., ICDE 2014.
//!
//! Relational operators over bitwise-distributed data are split into
//! *approximation* operators (device-side candidate production over lossily
//! compressed approximations) and *refinement* operators (host-side false
//! positive elimination via residual bits). The crate provides:
//!
//! * [`mod@column`] — decomposed columns bound to the simulated device;
//! * [`translucent`] — the translucent join (Algorithm 1) with its
//!   invisible fast path;
//! * [`relax`] — predicate relaxation (`f(x)`, §IV-B) and granule
//!   certainty classification;
//! * [`ops`] — the operator pairs: selection (Algorithm 2), projection,
//!   the foreign-key index, and Figure 6's extremum candidate sets;
//! * [`plan`] — logical plans, the A&R physical plan, the `bwd_pipe`
//!   rewriter and the rule-based approximate-selection pushdown (§III-A,
//!   §V-B).

pub mod column;
pub mod ops;
pub mod plan;
pub mod relax;
pub mod translucent;

pub use column::BoundColumn;
pub use relax::{classify_granule, relax_to_stored, CmpOp, GranuleMatch, RangePred, StoredRange};
pub use translucent::{translucent_join_with, JoinPath};
