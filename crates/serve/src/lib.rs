//! # ds-serve
//!
//! A long-running passivity-check daemon over the suite's unified pipeline
//! API: POST a SPICE deck, get back a versioned JSON verdict report
//! (`ds-check-report/v2`) keyed by the deck's canonical content hash.
//!
//! The stack is deliberately dependency-free (the build environment has no
//! registry access): a hand-rolled, hard-limited HTTP/1.1 layer over
//! `std::net::TcpListener` whose accept loop blocks in `accept` (it never
//! polls; `Server::stop` wakes it with one connection to its own address),
//! a thread per connection, and a bounded worker pool behind them.  Verdicts
//! are served from a two-tier cache — an in-memory LRU in front of the
//! persistent result store shared with `ds-sweep` — so a re-POSTed deck
//! (even reformatted: keys are *canonical* hashes) never recomputes, and a
//! restarted server still remembers every verdict it ever produced.  A deck
//! that does not parse answers 400, one that parses but is not a valid
//! circuit 422, and overload 429 with `Retry-After`; SIGTERM/SIGINT (or
//! `POST /shutdown`) drain the queue, flush the store segment, and exit 0.
//!
//! ```no_run
//! use ds_serve::{client, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServerConfig::default()
//! })?;
//! let reply = client::post(
//!     server.local_addr(),
//!     "/check?method=proposed",
//!     "R1 in 0 50\n.port in\n.end\n",
//! )?;
//! assert_eq!(reply.status, 200);
//! server.stop()?;
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod server;
pub mod service;
pub mod signal;

pub use server::{Server, ServerConfig};
pub use service::{CheckJob, CheckReply, CheckService, SubmitError, STATS_SCHEMA};
