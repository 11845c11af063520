//! Error types for the rewrite pipeline.
//!
//! [`PipelineError`] is a typed enum whose variants keep the originating
//! engine error intact (`source()` walks to it), instead of flattening
//! everything to a string at the tier boundary. [`RewriteError`] stays a
//! lightweight newtype — rewrite failures are expected and non-fatal (the
//! pipeline degrades to the next tier), so all they need to carry is the
//! reason used for `fallback_reason` reporting.

use std::fmt;
use xsltdb_xml::{GuardExceeded, SinkError};

/// An error during XSLT→XQuery or XQuery→SQL/XML rewriting. Rewrite errors
/// are not fatal to a transformation: the pipeline falls back to the next
/// slower tier (see `pipeline`).
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteError(pub String);

impl RewriteError {
    pub fn new(msg: impl Into<String>) -> Self {
        RewriteError(msg.into())
    }
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rewrite error: {}", self.0)
    }
}

impl std::error::Error for RewriteError {}

/// One failed execution attempt in the fallback lattice: which tier ran
/// and why it gave up.
#[derive(Debug, Clone, PartialEq)]
pub struct TierFailure {
    /// `"sql"`, `"xquery"` or `"vm"`.
    pub tier: &'static str,
    /// The failure as reported at that tier boundary.
    pub reason: String,
    /// True when the tier died by panic (contained with `catch_unwind`)
    /// rather than by returning an error.
    pub panicked: bool,
}

impl fmt::Display for TierFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.panicked {
            write!(f, "{} tier panicked: {}", self.tier, self.reason)
        } else {
            write!(f, "{} tier failed: {}", self.tier, self.reason)
        }
    }
}

/// A pipeline error. Variants preserve the source error of the layer that
/// raised them; `source()` exposes it for error-chain walking.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Stylesheet compilation or VM-tier execution failed.
    Xslt(xsltdb_xslt::XsltError),
    /// The relational storage layer / SQL tier failed.
    Store(xsltdb_relstore::StoreError),
    /// The XQuery tier failed.
    XQuery(xsltdb_xquery::XqError),
    /// A rewrite step failed where no lower tier was available.
    Rewrite(RewriteError),
    /// A resource budget tripped. Guard trips are terminal: the work would
    /// exhaust the same shared budget on any tier, so there is no fallback.
    Guard(GuardExceeded),
    /// An engine panicked and the panic was contained at the tier
    /// boundary, with no lower tier left to fall back to.
    Panic {
        /// `"sql"`, `"xquery"` or `"vm"`.
        tier: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Every tier in the fallback lattice failed; `attempts` records the
    /// whole chain in the order it was tried.
    TiersExhausted { attempts: Vec<TierFailure> },
    /// A canonical plan referenced a table slot the execute-time bindings
    /// do not cover — the plan was bound incompletely, or not at all.
    UnboundSlot {
        /// The symbolic slot (`$t0`, `$t1`, …) with no concrete table.
        slot: String,
    },
    /// A view was bound to a plan prepared for a different canonical shape.
    /// Binding validates fingerprints so a plan can never silently execute
    /// against a view of the wrong structure.
    BindingMismatch {
        /// Canonical fingerprint the plan was prepared for.
        expected: u64,
        /// Canonical fingerprint of the view being bound.
        got: u64,
    },
    /// Pipeline-internal invariant violations (index probes out of range,
    /// malformed plans, …).
    Internal(String),
}

impl PipelineError {
    /// Shorthand for [`PipelineError::Internal`].
    pub fn internal(msg: impl Into<String>) -> Self {
        PipelineError::Internal(msg.into())
    }

    /// True when this error is a resource-budget trip ([`Guard`]
    /// variant). Callers holding cached plans branch on this: a trip is an
    /// outcome of one execution's budget, not evidence the plan is bad, so
    /// the cached entry stays valid and the call can be retried with a
    /// bigger budget.
    pub fn is_guard_trip(&self) -> bool {
        matches!(self, PipelineError::Guard(_))
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Xslt(e) => write!(f, "pipeline error: {e}"),
            PipelineError::Store(e) => write!(f, "pipeline error: {e}"),
            PipelineError::XQuery(e) => write!(f, "pipeline error: {e}"),
            PipelineError::Rewrite(e) => write!(f, "pipeline error: {e}"),
            PipelineError::Guard(e) => write!(f, "pipeline error: {e}"),
            PipelineError::Panic { tier, message } => {
                write!(f, "pipeline error: {tier} tier panicked: {message}")
            }
            PipelineError::TiersExhausted { attempts } => {
                write!(f, "pipeline error: every tier failed (")?;
                for (i, a) in attempts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            PipelineError::UnboundSlot { slot } => {
                write!(f, "pipeline error: unbound table slot {slot}")
            }
            PipelineError::BindingMismatch { expected, got } => write!(
                f,
                "pipeline error: binding mismatch: plan is for shape \
                 {expected:#018x}, view has shape {got:#018x}"
            ),
            PipelineError::Internal(msg) => write!(f, "pipeline error: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Xslt(e) => Some(e),
            PipelineError::Store(e) => Some(e),
            PipelineError::XQuery(e) => Some(e),
            PipelineError::Rewrite(e) => Some(e),
            PipelineError::Guard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<xsltdb_xslt::XsltError> for PipelineError {
    fn from(e: xsltdb_xslt::XsltError) -> Self {
        PipelineError::Xslt(e)
    }
}

impl From<xsltdb_relstore::StoreError> for PipelineError {
    fn from(e: xsltdb_relstore::StoreError) -> Self {
        // A store error that is really a guard trip (a streaming sink or a
        // scan ran out of budget mid-execution) classifies as `Guard`: the
        // lattice must treat it as terminal, and it must not demote the plan.
        match e.trip() {
            Some(trip) => PipelineError::Guard(trip),
            None => PipelineError::Store(e),
        }
    }
}

impl From<xsltdb_xquery::XqError> for PipelineError {
    fn from(e: xsltdb_xquery::XqError) -> Self {
        PipelineError::XQuery(e)
    }
}

impl From<RewriteError> for PipelineError {
    fn from(e: RewriteError) -> Self {
        PipelineError::Rewrite(e)
    }
}

impl From<GuardExceeded> for PipelineError {
    fn from(e: GuardExceeded) -> Self {
        PipelineError::Guard(e)
    }
}

impl From<SinkError> for PipelineError {
    fn from(e: SinkError) -> Self {
        // A sink that refuses on budget keeps its trip evidence; anything
        // else (a failed write, a misplaced event) is the result path's own
        // failure.
        match e {
            SinkError::Guard(trip) => PipelineError::Guard(trip),
            other => PipelineError::Internal(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn source_preserved_through_conversion() {
        let e: PipelineError = xsltdb_xslt::XsltError::new("boom").into();
        assert!(matches!(&e, PipelineError::Xslt(inner) if inner.0 == "boom"));
        assert_eq!(e.source().unwrap().to_string(), "XSLT error: boom");
    }

    #[test]
    fn tiers_exhausted_formats_chain_in_order() {
        let e = PipelineError::TiersExhausted {
            attempts: vec![
                TierFailure { tier: "sql", reason: "scan failed".into(), panicked: false },
                TierFailure { tier: "vm", reason: "oops".into(), panicked: true },
            ],
        };
        let s = e.to_string();
        let sql = s.find("sql tier failed").unwrap();
        let vm = s.find("vm tier panicked").unwrap();
        assert!(sql < vm, "{s}");
    }

    #[test]
    fn binding_errors_name_the_evidence() {
        let e = PipelineError::UnboundSlot { slot: "$t1".into() };
        assert!(e.to_string().contains("unbound table slot $t1"));
        let e = PipelineError::BindingMismatch { expected: 0xABCD, got: 0x1234 };
        let s = e.to_string();
        assert!(s.contains("0x000000000000abcd") && s.contains("0x0000000000001234"), "{s}");
        assert!(!e.is_guard_trip());
    }

    #[test]
    fn guard_trip_converts_with_evidence_intact() {
        use xsltdb_xml::{Guard, Limits};
        let g = Guard::new(Limits::UNLIMITED.with_fuel(1));
        let trip = g.charge(5).unwrap_err();
        let e: PipelineError = trip.into();
        assert!(e.is_guard_trip());
        assert!(!PipelineError::internal("x").is_guard_trip());
        match e {
            PipelineError::Guard(t) => {
                assert_eq!(t.limit, 1);
                assert_eq!(t.spent, 5);
            }
            other => panic!("expected Guard variant, got {other:?}"),
        }
    }
}
