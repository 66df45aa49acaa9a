//! # jamm-ulm — ULM / NetLogger event model and codecs
//!
//! The JAMM monitoring system (Tierney et al., HPDC 2000) exchanges all
//! monitoring data as *events*: time-stamped records about the state of some
//! system component.  Events are encoded in the IETF draft **Universal Logger
//! Message** (ULM) format — a whitespace-separated list of `FIELD=value`
//! pairs with four required fields (`DATE`, `HOST`, `PROG`, `LVL`) — extended
//! by NetLogger with an `NL.EVNT` field naming the event type.
//!
//! This crate provides:
//!
//! * [`Event`] — the in-memory event model (required fields, typed user
//!   fields, microsecond timestamps);
//! * [`Timestamp`] — microsecond-precision timestamps with the ULM
//!   fourteen-digit-plus-fraction `DATE` encoding;
//! * [`text`] — the ASCII ULM codec used on the wire and in log files;
//! * [`binary`] — the compact binary codec the paper lists as planned work
//!   for high-throughput event streams;
//! * [`json`] — a JSON export (stand-in for the paper's planned XML schema
//!   from the Grid Forum performance working group);
//! * [`codec`] — all three formats behind the shared
//!   [`jamm_core::codec::Codec`] trait ([`TextCodec`], [`BinaryCodec`],
//!   [`JsonCodec`]), with content-type negotiation for transports;
//! * [`vocab`] — the bounded process-wide vocabulary every decoder
//!   resolves program names, field keys and string values through, so
//!   an event's [`Name`]s borrow instead of allocating.
//!
//! ```
//! use jamm_ulm::{Event, Level, Timestamp, Value};
//!
//! let ev = Event::builder("testProg", "dpss1.lbl.gov")
//!     .level(Level::Usage)
//!     .event_type("WriteData")
//!     .timestamp(Timestamp::from_micros(954415400957943))
//!     .field("SEND.SZ", 49332u64)
//!     .build();
//! let line = jamm_ulm::text::encode(&ev);
//! assert!(line.contains("NL.EVNT=WriteData"));
//! assert!(line.contains("SEND.SZ=49332"));
//! let back = jamm_ulm::text::decode(&line).unwrap();
//! assert_eq!(back.field("SEND.SZ"), Some(&Value::UInt(49332)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod binary;
pub mod codec;
pub mod event;
pub mod json;
pub mod keys;
pub mod text;
pub mod timestamp;
pub mod value;
pub mod vocab;

pub use codec::{BinaryCodec, JsonCodec, TextCodec};
pub use event::{deep_clone_bytes, deep_clone_count, Event, EventBuilder, Level, SharedEvent};
pub use timestamp::Timestamp;
pub use value::Value;
pub use vocab::Name;

/// Errors produced while encoding or decoding ULM events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UlmError {
    /// A required ULM field (`DATE`, `HOST`, `PROG`, `LVL`) was absent.
    MissingField(&'static str),
    /// A field token was not of the form `KEY=value`.
    MalformedField(String),
    /// The `DATE` field could not be parsed as a ULM timestamp.
    BadTimestamp(String),
    /// The `LVL` field was not a recognised severity level.
    BadLevel(String),
    /// A quoted value was not terminated.
    UnterminatedQuote,
    /// The binary frame was truncated or had an invalid tag.
    BadBinary(&'static str),
}

impl std::fmt::Display for UlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UlmError::MissingField(k) => write!(f, "missing required ULM field {k}"),
            UlmError::MalformedField(t) => write!(f, "malformed ULM field token {t:?}"),
            UlmError::BadTimestamp(s) => write!(f, "invalid ULM DATE value {s:?}"),
            UlmError::BadLevel(s) => write!(f, "invalid ULM LVL value {s:?}"),
            UlmError::UnterminatedQuote => write!(f, "unterminated quoted value"),
            UlmError::BadBinary(m) => write!(f, "invalid binary event frame: {m}"),
        }
    }
}

impl std::error::Error for UlmError {}

/// Convenience result alias for ULM operations.
pub type Result<T> = std::result::Result<T, UlmError>;
