//! # cobalt-support
//!
//! Hermetic, zero-dependency infrastructure shared by the rest of the
//! Cobalt workspace:
//!
//! * [`rng`] — a seedable, deterministic pseudo-random number generator
//!   (SplitMix64 for seeding, Xoshiro256++ as the main stream) standing
//!   in for the `rand` crate;
//! * [`prop`] — a small deterministic property-testing harness (seeded
//!   case generation, fixed iteration budget, failing-seed reporting,
//!   best-effort shrinking) standing in for `proptest`, driven by the
//!   [`props!`](crate::props) macro;
//! * [`bench`] — a minimal benchmark harness (warmup, timed samples,
//!   median/p95, JSON-lines output) standing in for `criterion`;
//! * [`budget`] — the one resource budget (deadline, step cap, cancel
//!   token) and its meter, spent by the prover, the checker, and the
//!   engine;
//! * [`fault`] — deterministic, env-driven fault injection points
//!   (`COBALT_FAULTS=site:panic@n,…`) used to exercise the workspace's
//!   graceful-degradation paths; off by default with near-zero cost;
//! * [`name`] — an immutable name stored inline when short, ordered,
//!   hashed and printed exactly as the `String` with the same text;
//! * [`journal`] — a crash-safe, corruption-tolerant append-only record
//!   journal (length + FNV-64 checksum framing, truncation/bit-flip
//!   recovery, atomic temp-file+rename compaction, advisory cross-process
//!   locking) backing resumable verification sessions;
//! * [`pool`] — a supervised scoped worker pool (ordered result
//!   delivery, per-task panic isolation with one supervised retry,
//!   spawn-failure degradation) backing parallel obligation discharge,
//!   plus the shared [`Cancel`](pool::Cancel) flag.
//!
//! The workspace's hermetic-build policy (see `DESIGN.md`) forbids
//! external registry dependencies so that `cargo build --release
//! --offline` always succeeds and every randomized artifact is
//! reproducible by seed. This crate is what makes that policy viable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod budget;
pub mod fast_hash;
pub mod fault;
pub mod journal;
pub mod name;
pub mod pool;
pub mod prop;
pub mod rng;

pub use fast_hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use rng::{Rng, SplitMix64};
