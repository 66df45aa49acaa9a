//! # jamm-core — shared event-pipeline abstractions
//!
//! Every hop of the JAMM pipeline (sensors → managers → gateways →
//! consumers) used to be wired with a different ad-hoc mechanism: free
//! function codecs, bare subscription structs, unbounded channels, and
//! hand-passed gateway references.  This crate defines the one vocabulary
//! all of them now share:
//!
//! * [`codec::Codec`] — encode/decode items to wire bytes, with a
//!   `content_type` tag so peers can negotiate a format
//!   ([`jamm_ulm`](https://docs.rs) implements it for the ULM text, binary
//!   and JSON formats);
//! * [`flow::EventSink`] / [`flow::EventSource`] — push and pull ends of
//!   the pipeline, implemented by the gateway, the collector, the archiver
//!   and the sensor manager's push path;
//! * [`channel`] — the **bounded** MPMC channel the pipeline runs on, with
//!   an explicit overflow policy instead of unbounded growth;
//! * [`flow::DeliveryCounters`] — per-sink delivered/dropped/byte counters;
//! * [`intern::Sym`] — interned identifier strings, so the hot paths key
//!   routing tables, summary series and dictionaries by `u32` instead of
//!   hashing and cloning `String`s per event;
//! * [`query`] — the unified query plane: one predicate IR
//!   ([`query::Predicate`]) with a text grammar, compiled
//!   ([`query::Plan`]) into an allocation-free evaluator plus pushdown
//!   facts, shared by gateway subscription filters, archive / tsdb scans
//!   and directory searches;
//! * [`obs`] — the self-instrumentation plane: named counters / gauges,
//!   log-bucketed latency histograms whose hot-path record is one atomic
//!   add, and the [`obs::MetricsRegistry`] every layer reports into.
//!
//! Because the build environment has no crate registry, this crate also
//! carries the small std-only stand-ins the workspace would otherwise pull
//! from crates.io: [`sync`] (poison-transparent locks), [`mod@json`] (a
//! JSON value type, parser and `json!` macro), [`rng`] (a seeded SplitMix64),
//! and [`check`] (a miniature property-testing harness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod channel;
pub mod check;
pub mod codec;
pub mod flow;
pub mod intern;
pub mod json;
#[deny(missing_docs)]
pub mod obs;
#[deny(missing_docs)]
pub mod query;
#[deny(missing_docs)]
pub mod retry;
pub mod rng;
pub mod sync;

pub use channel::{bounded, unbounded, Receiver, Sender};
pub use codec::Codec;
pub use flow::{DeliveryCounters, EventSink, EventSource, OverflowPolicy, SinkError};
pub use intern::Sym;
pub use query::{Facts, Plan, Predicate, Record};
pub use retry::{Backoff, BreakerState, BreakerStats, CircuitBreaker};
