//! # jamm-reactor — std-only nonblocking I/O core for the network edge
//!
//! The paper's central scaling claim is that adding consumers loads the
//! *gateway*, not the monitored host.  A thread-per-connection edge caps a
//! gateway at hundreds of subscriber sockets; this crate replaces it with a
//! single-threaded reactor that drives tens of thousands:
//!
//! * [`poller::Poller`] — readiness via a thin `poll(2)` shim (the crate's
//!   only `unsafe`, confined to `sys.rs`), with a pure-std sweep fallback
//!   so the crate builds and tests anywhere;
//! * a crate-private waker — cross-thread wakeup over a loopback UDP
//!   socket pair, the std-only stand-in for a self-pipe, which only the
//!   loop that drains it can use;
//! * crate-private connection state — a frame-aligned outbound queue of
//!   at most 4 MiB per connection that drops its oldest frames when full,
//!   a bounded inbound drain (what a subscriber sends is read at most
//!   256 KiB per wakeup, counted and dropped) and per-connection counters
//!   ([`SocketStats`]: bytes, queued, dropped, stalls, writes) for
//!   observing slow consumers;
//! * [`reactor::Reactor`] — the event loop itself: accept, drain inbound
//!   bytes, and broadcast `Arc`-shared frames (encode once, write N) to
//!   every connection of a listener, each pass queueing every frame it
//!   took and then flushing each touched connection once under a write
//!   budget.
//!
//! In the same discipline as the rest of the workspace, the crate depends
//! on nothing but `jamm-core` and std (CI's "Layering" step checks it).

#![deny(missing_docs)]
// Bytes from the network reach every function here: production code
// returns errors or handles the empty case, it does not unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod conn;
pub mod poller;
pub mod reactor;
mod sys;

pub use conn::SocketStats;
pub use poller::{Backend, Interest, Poller, Readiness, Source};
pub use reactor::{ConnId, ListenerId, LoopStats, Reactor, ReactorConfig, SocketRow};
