//! `smokescreen-serve` — the fleet-scale profile-serving daemon.
//!
//! Every PR before this one hardened a *batch* pipeline: generate a
//! profile, write CSVs, exit. This crate turns the reproduction into a
//! long-running system serving tradeoff-profile queries for a whole
//! camera fleet:
//!
//! * [`store`] — an **indexed columnar on-disk profile store**. Its data
//!   segment is the keyed frame format on `rt::journal`'s record-log core
//!   (the checkpoint journal is the other format on it), so the header,
//!   the durable append, quarantine and atomic repair are shared code.
//!   The store adds a fixed-width index segment for O(1) reopen, a
//!   read-side record cache, and key-ordered compaction. Records are
//!   keyed by `camera_id × grid` — one entry per profiled `(f, p, c)`
//!   grid per camera.
//! * [`protocol`] — a length-prefixed `rt::json` wire protocol
//!   (`GET_PROFILE`, `PUT_PROFILE`, `QUERY_TRADEOFF`, `PUSH_OUTPUTS`,
//!   `STATS`, `SHUTDOWN`) with a typed error taxonomy. Malformed,
//!   oversized, and depth-bombed frames get error *responses*, never a
//!   hang or a panic.
//! * [`server`] — a thread-per-core worker daemon on the persistent
//!   `rt::pool`: one acceptor task feeding a bounded admission queue
//!   (overload is a typed rejection, not an unbounded backlog), N worker
//!   tasks each owning a connection at a time, and a graceful shutdown
//!   that flushes and compacts the store so a clean stop always leaves
//!   the canonical key-ordered on-disk layout.
//!
//! Determinism carries over from the batch path: the *final* store bytes
//! after a graceful shutdown are a pure function of the surviving
//! `(key → profile, seq)` map — compaction rewrites records in key order
//! with per-key sequence numbers — so a seeded request schedule produces
//! byte-identical stores at any server thread count (see
//! `tests/serve_soak.rs`).
//!
//! The chaos layer (this PR) keeps that contract under *injected*
//! failure: seeded disk faults behind the store's I/O seams, seeded net
//! faults keyed on client-stamped request ids, idempotent retries via
//! `expected_seq`, a background scrubber that quarantines-with-counts
//! and repairs, and degraded-mode serving with a typed flag — so the
//! same schedule under the same fault plans replays bit-for-bit too
//! (see `tests/serve_chaos.rs`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod protocol;
pub mod server;
pub mod store;

pub use protocol::{
    frame_rid, stamp_rid, DriftStatus, ErrorCode, FrameError, Request, Response, ServerStats,
    MAX_FRAME_LEN, REPAIR_QUEUE_LIST_CAP,
};
pub use server::{
    Connection, RunningServer, ServeAddr, Server, ServerConfig, ServerReport,
    DEFAULT_QUEUE_CAP, DEFAULT_SCRUB_BATCH,
};
pub use store::{
    CompactionReport, GetOutcome, ProfileStore, ScrubReport, StoreKey, StoreReplay, StoreStats,
};
