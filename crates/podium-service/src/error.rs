//! Service-level errors and their stable wire codes.

use podium_core::engine::SelectError;
use podium_core::error::CoreError;

/// Everything that can go wrong while serving a request. Each variant maps
/// to a stable `code` string on the wire (see [`ServiceError::code`]);
/// handlers distinguish load-shedding conditions ([`ServiceError::Overloaded`],
/// [`ServiceError::DeadlineExceeded`]) from caller bugs
/// ([`ServiceError::BadRequest`]) so clients can retry the former and fix
/// the latter.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The bounded request queue is full — admission control rejected the
    /// request without queuing it. Retry with backoff.
    Overloaded,
    /// The request's deadline expired before the selection completed; any
    /// partial work is discarded.
    DeadlineExceeded,
    /// The request is malformed or references unknown entities.
    BadRequest(String),
    /// The referenced session id is unknown (never opened or already
    /// closed).
    UnknownSession(u64),
    /// The session's pinned epoch has fallen further behind the current
    /// epoch than the service's `max_session_lag` allows. The session is
    /// closed server-side; clients reopen and replay their feedback
    /// against current group ids.
    SessionRetired {
        /// The session id whose pin expired.
        session: u64,
        /// The epoch the session was pinned to.
        pinned: u64,
        /// The epoch current when the request arrived.
        current: u64,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// A constrained select's quota windows admit no feasible
    /// assignment within the budget. Not a caller bug (the constraints
    /// were well-formed) and not retryable as-is: the caller must relax
    /// a quota or raise the budget.
    Infeasible {
        /// The first group whose floor is individually unmeetable, when
        /// the defect is group-local.
        group: Option<u32>,
        /// Human-readable diagnosis from the feasibility oracle.
        reason: String,
    },
    /// An error surfaced from the core selection layer.
    Core(CoreError),
    /// The durable log or a checkpoint could not be written, or recovery
    /// from them failed. The service refuses to acknowledge updates it
    /// cannot make durable.
    Durability(String),
}

impl ServiceError {
    /// The stable wire code for the error (the `error` field of a failure
    /// response).
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Overloaded => "overloaded",
            ServiceError::DeadlineExceeded => "deadline_exceeded",
            ServiceError::BadRequest(_) => "bad_request",
            ServiceError::UnknownSession(_) => "unknown_session",
            ServiceError::SessionRetired { .. } => "session_retired",
            ServiceError::ShuttingDown => "shutting_down",
            ServiceError::Infeasible { .. } => "infeasible",
            ServiceError::Core(_) => "core",
            ServiceError::Durability(_) => "durability",
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "request queue full"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServiceError::SessionRetired {
                session,
                pinned,
                current,
            } => write!(
                f,
                "session {session} pinned to retired epoch {pinned} (current {current}); reopen the session"
            ),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::Infeasible { group, reason } => match group {
                Some(g) => write!(f, "infeasible quotas (group {g}): {reason}"),
                None => write!(f, "infeasible quotas: {reason}"),
            },
            ServiceError::Core(e) => write!(f, "{e}"),
            ServiceError::Durability(m) => write!(f, "durability: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl<W> From<SelectError<W>> for ServiceError {
    fn from(e: SelectError<W>) -> Self {
        match e {
            SelectError::Spec(e) => ServiceError::BadRequest(e.to_string()),
            SelectError::Infeasible(e) => ServiceError::Infeasible {
                group: e.group,
                reason: e.reason,
            },
            // The stop hook carries the request deadline; the prefix is dropped.
            SelectError::Stopped(_) => ServiceError::DeadlineExceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(ServiceError::Overloaded.code(), "overloaded");
        assert_eq!(ServiceError::DeadlineExceeded.code(), "deadline_exceeded");
        assert_eq!(ServiceError::BadRequest("x".into()).code(), "bad_request");
        assert_eq!(ServiceError::UnknownSession(3).code(), "unknown_session");
        assert_eq!(
            ServiceError::SessionRetired {
                session: 3,
                pinned: 1,
                current: 9,
            }
            .code(),
            "session_retired"
        );
        assert_eq!(ServiceError::ShuttingDown.code(), "shutting_down");
        assert_eq!(
            ServiceError::Infeasible {
                group: Some(2),
                reason: "x".into(),
            }
            .code(),
            "infeasible"
        );
        assert_eq!(ServiceError::Core(CoreError::ZeroBudget).code(), "core");
        assert_eq!(ServiceError::Durability("x".into()).code(), "durability");
    }
}
