//! Crate-private hashing for the sharding decisions.
//!
//! Every shard key is derived from interned [`jamm_core::intern::Sym`]
//! handles, mixed through [`mix64`] so consecutive intern indexes spread
//! across shards — no string bytes are hashed per published event.
//! Placement is stable for the life of the process (intern order), which
//! is all the tests and reports rely on.

/// SplitMix64 finalizer: a few integer ops that turn dense intern indexes
/// into well-spread shard keys.  Stable for the life of the process.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Shard key of an interned (host, event type) series — integer mixing
/// only, used by the gateway's per-series table (query cache + summaries).
pub(crate) fn sym_series(host: jamm_core::intern::Sym, event_type: jamm_core::intern::Sym) -> u64 {
    mix64(((host.index() as u64) << 32) | event_type.index() as u64)
}
