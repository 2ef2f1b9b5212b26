//! Per-request outcomes as seen by the serving layer.

/// How one sandboxed request ended. Anything other than [`RequestOutcome::Ok`]
/// maps to a 5xx-style response: the request stream continues and machine
/// invariants have been restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request completed normally.
    Ok,
    /// The execution budget (step fuel or µop deadline) ran out.
    Timeout,
    /// The per-request memory ceiling was exceeded.
    OomKilled,
    /// The handler panicked for any other reason.
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The admission controller refused the request before it reached a
    /// worker (overload protection). The machine never ran it: shedding is
    /// deliberate back-pressure, not a failure of the serving stack.
    Shed,
}

impl RequestOutcome {
    /// Whether the request completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, RequestOutcome::Ok)
    }

    /// Whether the request was refused by admission control (it never ran).
    pub fn is_shed(&self) -> bool {
        matches!(self, RequestOutcome::Shed)
    }

    /// HTTP-style status code the outcome maps to.
    pub fn status_code(&self) -> u16 {
        match self {
            RequestOutcome::Ok => 200,
            // "Service Unavailable": the canonical please-retry-later
            // response of a load-shedding front end.
            RequestOutcome::Shed => 503,
            RequestOutcome::Timeout => 504,
            RequestOutcome::OomKilled | RequestOutcome::Panicked { .. } => 500,
        }
    }
}

/// Classifies a caught panic message into an outcome. The slab allocator's
/// memory-ceiling panic and the interpreter's budget errors carry
/// recognizable text; everything else is an opaque crash.
pub fn classify_panic(message: String) -> RequestOutcome {
    if message.contains("Allowed memory size") {
        RequestOutcome::OomKilled
    } else if message.contains("maximum execution budget exceeded") {
        RequestOutcome::Timeout
    } else {
        RequestOutcome::Panicked { message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_message() {
        assert_eq!(
            classify_panic(
                "Allowed memory size of 64 bytes exhausted (tried to allocate 80 bytes)".into()
            ),
            RequestOutcome::OomKilled
        );
        assert_eq!(
            classify_panic("template runs: RuntimeError { message: \"maximum execution budget exceeded\", kind: Timeout }".into()),
            RequestOutcome::Timeout
        );
        let p = classify_panic("index out of bounds".into());
        assert!(matches!(p, RequestOutcome::Panicked { .. }));
        assert_eq!(p.status_code(), 500);
        assert_eq!(RequestOutcome::Ok.status_code(), 200);
        assert_eq!(RequestOutcome::Timeout.status_code(), 504);
        assert_eq!(RequestOutcome::Shed.status_code(), 503);
        assert!(RequestOutcome::Shed.is_shed());
        assert!(!RequestOutcome::Shed.is_ok());
    }
}
