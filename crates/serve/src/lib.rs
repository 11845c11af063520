//! The serving front door: admission-controlled XSLT transforms over a
//! shared plan cache and a transform-result cache.
//!
//! The engine below this crate is overload-*correct* but overload-*blind*:
//! every transform carries its own [`Guard`] budget, yet N concurrent
//! callers can each stay within budget while collectively exhausting the
//! process. [`FrontDoor`] closes the gap with one admission gate from
//! `xsltdb::admission`:
//!
//! 1. **Admit** — draw the request's output-byte budget and one stream
//!    slot against the fleet-wide ceilings of the
//!    [`AdmissionQueue`](xsltdb::admission::AdmissionQueue); shed with a
//!    typed [`Rejected`](xsltdb::admission::Rejected) when capacity does
//!    not free up within the deadline.
//! 2. **Execute** — run `BoundPlan::execute_to_writer` once, with a
//!    **fresh guard and a fresh output buffer**, so a failed request hands
//!    back no bytes at all. Nothing is retried: the engine is
//!    deterministic, so a tier that fails a plan demotes that plan inside
//!    the lattice, and the request's typed error is the answer.
//!
//! [`Server`] puts a minimal length-prefixed TCP protocol in front of a
//! `FrontDoor` (thread per connection, loopback only) — see [`proto`].

pub mod frontdoor;
pub mod proto;
pub mod server;

pub use frontdoor::{FrontDoor, FrontDoorConfig, FrontDoorStats, ServeError, ServeOutcome};
pub use proto::{read_frame, read_response, write_frame, write_request, Request, Response, Status};
pub use server::{Server, ServerHandle};
