//! ExecGuard: unified resource governance for the transformation pipeline.
//!
//! The mechanism lives in the XML substrate crate (`xsltdb_xml::guard`) so
//! every engine can charge the same handle without a dependency cycle; this
//! module re-exports it as the pipeline-facing surface.
//!
//! One [`Guard`] is cloned into all three tiers of a transformation, so the
//! fuel, recursion-depth, output-size and wall-clock budgets accumulate
//! *globally*: a query that burns half its fuel on a failed SQL-tier
//! attempt has only the other half left for the VM fallback.

pub use xsltdb_xml::guard::{FaultKind, FaultPoint, Guard, GuardExceeded, Limits, Resource};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexport_is_the_substrate_type() {
        // A guard built here trips exactly like the substrate's.
        let g = Guard::new(Limits::UNLIMITED.with_fuel(1));
        assert!(g.charge(2).is_err());
        assert_eq!(g.trip().unwrap().resource, Resource::Fuel);
    }
}
