//! Append-only assessment run ledger with compliance-drift detection.
//!
//! The paper's output is a snapshot — Tables 1/3/8 verdicts and
//! Observations 1–14 at one instant. Continuous-compliance practice
//! needs the *trajectory*: every assessment durably recorded, every two
//! runs diffable, and every trace span, fault, and served response
//! joinable to its run by one key. This crate supplies that layer:
//!
//! - [`RunRecord`] — one self-describing record per assessment:
//!   identity (deterministic run ID, corpus content digest, ruleset
//!   fingerprint), outcome (exit code, degradation tier, faults), cost
//!   (per-phase wall clock, cache hits/stores), and the complete
//!   verdict and observation set.
//! - [`Ledger`] — the append-only JSONL store under
//!   `.adsafe-cache/ledger/`, with crash-tolerant (torn-line-skipping)
//!   reads and deterministic sequence-number allocation.
//! - [`RunDiff`] — drift detection between two runs: directional
//!   verdict and observation flips, ISO presence-threshold metric
//!   crossings, and 2× phase-time regressions.
//!
//! Like `adsafe-trace` and `adsafe-pool`, the crate has no external
//! dependencies; JSON comes from `adsafe_trace::json`.

pub mod diff;
pub mod ledger;
pub mod record;

pub use diff::{history_table, MetricChange, ObservationFlip, RunDiff, VerdictFlip};
pub use ledger::{corpus_digest, run_id, Ledger, TornLine, LEDGER_FILE, LEDGER_SUBDIR};
pub use record::{degradation_tier, RunRecord, VerdictRow, LEDGER_SCHEMA};
