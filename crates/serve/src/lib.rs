//! Cached experiment service: a localhost daemon that schedules
//! submitted sweeps on the parallel runner behind a persistent,
//! digest-keyed result cache.
//!
//! `osoffload serve start` boots the [`daemon`]; clients (the
//! `osoffload serve submit` subcommand, or anything speaking
//! newline-delimited JSON over TCP) submit experiment plans as wire
//! configurations ([`wire`]), watch per-point progress events stream
//! back, and receive a canonical archive path when the sweep completes.
//!
//! The cache ([`cache`]) memoizes completed rows keyed by the same
//! configuration digest the archives and `osoffload inspect find
//! --digest` use. Its on-disk format is the runner's checksummed
//! journal-envelope WAL, appended fsynced as points finish — so a
//! `kill -9` mid-campaign loses nothing acknowledged, a restarted
//! daemon comes back warm, and a resubmitted sweep is served entirely
//! from cache with a byte-identical canonical archive. The proof
//! obligations live in `tests/serve_e2e.rs` and
//! `tests/cache_durability.rs`; protocol and format documentation in
//! `SERVING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod daemon;
pub mod wire;

pub use cache::{CacheEntry, ResultCache};
pub use chaos::{ChaosConfig, ChaosProxy, Fault};
pub use client::{
    submit, submit_once, submit_request_line, submit_with_retry, RetryPolicy, SubmitError,
    SubmitOutcome,
};
pub use daemon::{
    Daemon, ServeOptions, DEFAULT_PORT, METRICS_EXPORT_CADENCE, METRICS_HISTORY_ROWS,
};
