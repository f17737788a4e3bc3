//! `sga-serve` — the incremental analysis daemon behind `sga serve`.
//!
//! A batch run ([`sga_pipeline::run`]) answers "what are the alarms of
//! this corpus?" once. The daemon keeps answering it as the corpus is
//! edited, re-analyzing only what an edit can actually affect:
//!
//! * [`engine`] — the state machine: per-unit results plus link
//!   [`sga_core::interface`]s, dependency-aware invalidation (a unit is
//!   re-analyzed only when a symbol it imports changed interface), and the
//!   convergence invariant — the accumulated report is byte-identical to a
//!   cold batch run of the corpus' current state. Its only durable state is
//!   the corpus directory and the content-keyed cache: a killed daemon
//!   restarts over a warm cache and re-analyzes only the units without an
//!   entry;
//! * [`server`] — the network front: line-delimited JSON over TCP and/or
//!   Unix sockets, an engine thread with edit coalescing and bounded-queue
//!   load shedding, supervised against analyzer panics, per-subscriber
//!   writer threads that isolate slow consumers, and a filesystem-polling
//!   fallback;
//! * [`stats`] — the daemon's live counters, as `status` prints them;
//! * [`client`] — the matching client helpers (`sga watch`): timeouts,
//!   bounded retry on shed edits;
//! * [`journal`] — [`RoundJournal`], a record writer the benchmark harness
//!   times; the daemon does not use it.

pub mod client;
pub mod engine;
pub mod journal;
pub mod server;
pub mod stats;

pub use engine::{cold_report, Engine, RoundFault, RoundOutcome};
pub use journal::RoundJournal;
pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::ServeStats;
