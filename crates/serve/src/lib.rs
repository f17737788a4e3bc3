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
//!   cold batch run of the corpus' current state;
//! * [`journal`] — the round journal: each round's unit results are
//!   committed to disk so a killed daemon warm-restarts (`--resume`)
//!   without re-analyzing the whole corpus;
//! * [`server`] — the network front: line-delimited JSON over TCP and/or
//!   Unix sockets, an engine thread with edit coalescing and bounded-queue
//!   load shedding, supervised against analyzer panics, per-subscriber
//!   writer threads that isolate slow consumers, and a filesystem-polling
//!   fallback;
//! * [`stats`] — the daemon's live counters, as `status` prints them;
//! * [`client`] — the matching client helpers (`sga watch`): timeouts,
//!   bounded retry on shed edits.

pub mod client;
pub mod engine;
pub mod journal;
pub mod server;
pub mod stats;

pub use engine::{cold_report, Engine, RoundFault, RoundOutcome};
pub use journal::RoundJournal;
pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::ServeStats;
