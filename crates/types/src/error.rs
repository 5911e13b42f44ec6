//! The workspace-wide error type.
//!
//! A single error enum keeps `?`-propagation across crate boundaries
//! friction-free (the alternative — one error type per crate — buys nothing
//! here because the crates form one system, not independent libraries).

use std::fmt;

/// Any error produced by the waste-not engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BwdError {
    /// Device memory exhausted: requested vs remaining bytes.
    DeviceOutOfMemory { requested: u64, available: u64 },
    /// A blocking device-memory reservation waited past its deadline.
    AdmissionTimeout { requested: u64, waited_ms: u64 },
    /// A device buffer handle was used after being freed or with the wrong device.
    InvalidBuffer(String),
    /// Mismatched or unsupported data types in an operator or expression.
    TypeMismatch(String),
    /// SQL lexing/parsing failure (message includes position).
    Parse(String),
    /// Name resolution / semantic analysis failure.
    Bind(String),
    /// Plan construction or rewrite failure.
    Plan(String),
    /// Runtime execution failure.
    Exec(String),
    /// A catalog object (table, column) does not exist.
    NotFound(String),
    /// Operation is valid but not supported by this implementation.
    Unsupported(String),
    /// An argument violates a documented precondition.
    InvalidArgument(String),
    /// The query was cancelled cooperatively (ticket cancel or peer
    /// disconnect) before it produced a result. Never retried: the
    /// caller asked for the stop.
    Cancelled,
    /// The query's deadline elapsed before it completed; `deadline_ms`
    /// is the budget the caller submitted with. Never retried.
    DeadlineExceeded {
        /// The submitted deadline budget, in milliseconds.
        deadline_ms: u64,
    },
    /// A device failed mid-operation (injected by a
    /// [`crate::FaultPlan`] or surfaced by the runtime). This is the
    /// *retryable* fault class: the work itself was valid and
    /// idempotent, only the card misbehaved, so the scheduler may retry
    /// it once on a healthy device.
    DeviceFault(String),
}

impl fmt::Display for BwdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BwdError::DeviceOutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
            BwdError::AdmissionTimeout {
                requested,
                waited_ms,
            } => write!(
                f,
                "device admission timed out: reservation of {requested} bytes still queued after {waited_ms} ms"
            ),
            BwdError::InvalidBuffer(m) => write!(f, "invalid device buffer: {m}"),
            BwdError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            BwdError::Parse(m) => write!(f, "parse error: {m}"),
            BwdError::Bind(m) => write!(f, "bind error: {m}"),
            BwdError::Plan(m) => write!(f, "plan error: {m}"),
            BwdError::Exec(m) => write!(f, "execution error: {m}"),
            BwdError::NotFound(m) => write!(f, "not found: {m}"),
            BwdError::Unsupported(m) => write!(f, "unsupported: {m}"),
            BwdError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            BwdError::Cancelled => write!(f, "query cancelled"),
            BwdError::DeadlineExceeded { deadline_ms } => {
                write!(f, "query deadline exceeded: budget was {deadline_ms} ms")
            }
            BwdError::DeviceFault(m) => write!(f, "device fault: {m}"),
        }
    }
}

impl std::error::Error for BwdError {}

/// Workspace-wide result alias.
pub type Result<T, E = BwdError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_details() {
        let e = BwdError::DeviceOutOfMemory {
            requested: 1024,
            available: 512,
        };
        let s = e.to_string();
        assert!(s.contains("1024") && s.contains("512"), "{s}");
        assert!(BwdError::Parse("line 3".into())
            .to_string()
            .contains("line 3"));
    }

    #[test]
    fn error_trait_object_compatible() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&BwdError::NotFound("t".into()));
    }
}
