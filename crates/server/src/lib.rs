//! The persistent typechecking server.
//!
//! One-shot CLI runs pay parse + schema-compile on every invocation and
//! throw the work away on exit. This crate keeps a process alive instead:
//! the `xmltad` daemon serves a versioned, line-delimited JSON protocol
//! over a Unix socket (and stdin/stdout), with per-connection sessions
//! that `register` instances once — by content-derived handle — and then
//! stream `typecheck`/`batch` requests against them. All connections share
//! one [`xmlta_service::SchemaCache`] and one content-addressed registry
//! of prepared instances, so warm-compile wins persist across requests,
//! clients, and batches.
//!
//! * [`proto`] — frame grammar, request parsing, response rendering, and
//!   request constructors (the protocol reference lives in its docs);
//! * [`state`] — the process-wide shared cache + prepared-instance
//!   registry;
//! * [`session`] — per-connection handle tables and request dispatch,
//!   with per-request panic isolation;
//! * [`net`] — the one connection core the daemon and the router both
//!   serve through (Unix and TCP listeners, thread-per-connection, read
//!   timeouts, overload shedding, graceful shutdown, leak-checked drain)
//!   and the stdio mode;
//! * [`router`] — the shard-fleet front-end's routing and supervision;
//! * [`client`] — the reference client and the reconnecting, replaying
//!   [`ResilientClient`] (`xmlta client` is a thin wrapper);
//! * [`fault`] — a seeded, deterministic fault-injection proxy for chaos
//!   testing the serving path.
//!
//! Responses on one connection are in request order and carry no timings
//! or counters (except the explicit `stats` op), so a connection's
//! transcript is byte-identical no matter how many other clients are
//! hammering the same server — the property the integration tests pin.

pub mod cli;
pub mod client;
pub mod fault;
pub mod net;
pub mod proto;
pub mod router;
pub mod session;
pub mod state;

pub use client::{Client, ResilientClient, RetryPolicy, ServerAddr};
pub use net::{serve_stdio, serve_unix, Bound, ServeError, ServerConfig};
pub use router::{Breaker, BreakerState, Ring, Router, RouterConfig};
pub use session::{serve_stream, Control, Session, SessionEnd};
pub use state::{Prepared, ServerCounters, Shared};
