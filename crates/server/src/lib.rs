//! # goofi-server — the campaign daemon and its worker processes
//!
//! Three pieces, all speaking the `goofi-net` protocol:
//!
//! * [`Daemon`] — a loopback TCP server exposing any `CampaignService`
//!   to remote clients: submit, status, watch (streamed events), cancel,
//!   jobs, shutdown. Version mismatches are answered with typed errors.
//! * [`ProcessService`] — the daemon's service: a served job runs
//!   through the same `CampaignRunner` plan and writer as a local one,
//!   and its runner pool drives `goofi worker` children instead of
//!   threads, so the database matches a single-process run byte for
//!   byte. This crate supplies the process worker kind (spawn, Init/Ready
//!   handshake, chunk round trip, dead-pipe detection); the runner
//!   re-issues a crashed (or `kill -9`ed) worker's chunk and starts a
//!   replacement, riding the storage engine's WAL for durability.
//! * [`worker_main`] — the worker-process entry point (frame loop over
//!   stdin/stdout).

#![warn(missing_docs)]

mod daemon;
mod process;
mod worker;

pub use daemon::Daemon;
pub use process::{ProcessService, ServerConfig};
pub use worker::{worker_loop, worker_main};
