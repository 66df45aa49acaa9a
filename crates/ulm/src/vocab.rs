//! The process-wide name vocabulary.
//!
//! §2.2's sensors draw every program name, field key and most string
//! values from a tiny, stable vocabulary (`vmstat`, `SENSOR`, `UNITS`,
//! `VAL`, `cpu`).  An event holds those strings as a [`Name`]: a
//! `&'static str` borrowed from a sensor literal, a [`crate::keys`]
//! constant or this vocabulary, or an owned `String` when the name is new
//! and the vocabulary cannot take it.  Building, cloning and dropping a
//! borrowed name touches no allocator.
//!
//! Every decoder (binary frames, ULM text, JSON, the tsdb segment reader)
//! turns the program names and keys it reads into [`Name`]s through
//! [`resolve`], and string values through [`resolve_value`]:
//!
//! * a hit returns the vocabulary's `&'static str`: one hash of the bytes
//!   and a probe of a fixed open-addressing table whose slots are written
//!   once — no lock, no refcount, no allocation (a byte of the hash per
//!   slot lets the probe pass over other names without reading them);
//! * a miss copies the name into the table (leaked, once per process) and
//!   returns it, as long as the table holds fewer than [`MAX_NAMES`] names
//!   ([`VALUE_ROOM`] for a string value) and the name is at most
//!   [`MAX_NAME_LEN`] bytes;
//! * past either bound the name comes back owned, which is what every
//!   decode cost before the vocabulary existed, plus the hash and the
//!   probe that found no room, and [`refused`] counts it on one of a few
//!   counters spread over the calling threads.
//!
//! Values get only part of the table because they are where names stop
//! repeating (object ids, messages): a stream of distinct values fills
//! its room and no more, so the sensor program names and keys that
//! arrive after it are still held.
//!
//! The bounds are constants, so a hostile peer sending a stream of
//! distinct names can leak at most `MAX_NAMES × MAX_NAME_LEN` bytes (256
//! KiB); after that, names not yet held (its own and anyone's) take the
//! owned path.  The hash is not keyed, so a peer could craft names that
//! collide; a probe therefore gives up after [`MAX_PROBES`] slots and the
//! name comes back owned, which bounds every resolution's cost whatever
//! the table holds (a name already held keeps the probe path it was
//! inserted with).  Crafted collisions thus buy a peer nothing the bound
//! does not already give it.  The table is pre-seeded with every
//! [`crate::keys`] constant, so the well-known names are never copied.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};

/// A name an event carries: its program, a field key or a string value.
/// Borrowed when it is a literal or in the vocabulary, owned otherwise.
pub type Name = Cow<'static, str>;

/// The most names the vocabulary holds, pre-seeded keys included.
pub const MAX_NAMES: usize = 4_096;

/// New string values are taken only while the vocabulary holds fewer than
/// this many names; program names and keys may fill it to [`MAX_NAMES`].
pub const VALUE_ROOM: usize = MAX_NAMES / 2;

/// The longest name, in bytes, the vocabulary takes.
pub const MAX_NAME_LEN: usize = 64;

/// Table slots: twice the bound, so a probe usually ends at an empty slot
/// within a few steps.
const SLOTS: usize = 2 * MAX_NAMES;

/// The most slots one resolution looks at before it returns the name owned.
pub const MAX_PROBES: usize = 32;

/// Each slot is written at most once and never cleared.
static TABLE: [OnceLock<&'static str>; SLOTS] = [const { OnceLock::new() }; SLOTS];
/// One byte per slot, written once just after the slot: 0 while it is
/// empty, else the top bits of its name's hash with the high bit set.  A
/// probe reads these 8 KiB and looks at a slot's name only when the tag
/// matches or is not yet written, so a name the table does not hold
/// usually costs the hash and one cache line.  Only a hint: the slot
/// decides.
static TAGS: [AtomicU8; SLOTS] = [const { AtomicU8::new(0) }; SLOTS];
/// Slots claimed (filled or being filled); never more than [`MAX_NAMES`].
/// A count only: the slots publish their names themselves, so `Relaxed`.
static HELD: Padded<AtomicUsize> = Padded(AtomicUsize::new(0));
/// Resolutions that returned an owned name, one counter per group of
/// threads on a cache line of its own: decoder threads refusing names at
/// once (a full table) do not contend for one line.  [`refused`] sums them.
static REFUSED: [Padded<AtomicU64>; REFUSED_SHARDS] =
    [const { Padded(AtomicU64::new(0)) }; REFUSED_SHARDS];
const REFUSED_SHARDS: usize = 8;
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static SEEDED: Once = Once::new();

thread_local! {
    /// This thread's refusal counter.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % REFUSED_SHARDS;
}

/// A value alone on its cache line (two lines, for adjacent-line prefetch).
#[repr(align(128))]
struct Padded<T>(T);

/// The vocabulary's name for a program name or field key: borrowed from
/// the table when it holds `s` or can take it, an owned copy otherwise.
pub fn resolve(s: &str) -> Name {
    borrow_or_copy(s, intern(s, None, MAX_NAMES))
}

/// The vocabulary's name for a string value: as [`resolve`], but a new
/// value is taken only while the table holds fewer than [`VALUE_ROOM`]
/// names.  Values are where names do not repeat (object ids, messages),
/// so a stream of distinct values leaves the rest of the table to the
/// program names and keys that arrive after it.
pub fn resolve_value(s: &str) -> Name {
    borrow_or_copy(s, intern(s, None, VALUE_ROOM))
}

fn borrow_or_copy(s: &str, held: Option<&'static str>) -> Name {
    match held {
        Some(held) => Cow::Borrowed(held),
        None => Cow::Owned(s.to_owned()),
    }
}

/// Names the vocabulary holds (at most [`MAX_NAMES`]).
pub fn held() -> usize {
    SEEDED.call_once(seed);
    HELD.0.load(Ordering::Relaxed)
}

/// How many resolutions since process start returned an owned name
/// because the vocabulary was full, the name too long or its probe too
/// long.
pub fn refused() -> u64 {
    REFUSED.iter().map(|n| n.0.load(Ordering::Relaxed)).sum()
}

fn count_refusal() {
    let shard = SHARD.try_with(|s| *s).unwrap_or(0);
    REFUSED[shard].0.fetch_add(1, Ordering::Relaxed);
}

fn seed() {
    for key in crate::keys::ALL {
        intern(key, Some(key), MAX_NAMES);
    }
}

/// Find `s` in the table or, while it holds fewer than `room` names, claim
/// a slot for it (storing `literal` if given, else a leaked copy) within
/// [`MAX_PROBES`] slots of its hash.  `None` when the table cannot take it.
fn intern(s: &str, literal: Option<&'static str>, room: usize) -> Option<&'static str> {
    if literal.is_none() {
        SEEDED.call_once(seed);
    }
    if s.len() > MAX_NAME_LEN {
        count_refusal();
        return None;
    }
    let h = hash(s);
    let tag = (h >> 56) as u8 | 0x80;
    for probe in 0..MAX_PROBES {
        let i = (h as usize + probe) & (SLOTS - 1);
        let seen = TAGS[i].load(Ordering::Relaxed);
        if seen != 0 && seen != tag {
            continue;
        }
        // Slots are never cleared, so a name held at all is held before
        // the first empty slot of its probe: once the table has no room
        // for `s`, an empty tag ends the search without reading the slot.
        if seen == 0 && HELD.0.load(Ordering::Relaxed) >= room {
            break;
        }
        let slot = &TABLE[i];
        match slot.get() {
            Some(held) if *held == s => return Some(held),
            Some(_) => {}
            None => {
                // Reserve room before writing, so the filled slots never
                // exceed the bound.
                let reserved = HELD
                    .0
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                        (n < room).then_some(n + 1)
                    });
                if reserved.is_err() {
                    count_refusal();
                    return None;
                }
                let mut won = false;
                let held = *slot.get_or_init(|| {
                    won = true;
                    literal.unwrap_or_else(|| Box::leak(Box::from(s)))
                });
                if won {
                    TAGS[i].store(tag, Ordering::Relaxed);
                    return Some(held);
                }
                // Another thread filled this slot first: give the room back
                // and go on probing unless it stored the same name.
                HELD.0.fetch_sub(1, Ordering::Relaxed);
                if held == s {
                    return Some(held);
                }
            }
        }
    }
    count_refusal();
    None
}

/// The name's bytes eight at a time and then its tail, each word mixed in
/// with one multiply, then murmur3's finaliser so the low bits (the slot
/// index) and the top byte (the tag) depend on every byte.
fn hash(s: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = s.len() as u64;
    let (words, tail) = s.as_bytes().as_chunks::<8>();
    for w in words {
        h = (h ^ u64::from_le_bytes(*w)).wrapping_mul(K);
    }
    // Byte by byte: most names are shorter than a word, and a copy of a
    // variable-length tail into a buffer costs a `memcpy` call.
    let tail = tail.iter().fold(0, |t, &b| t << 8 | u64::from(b));
    h = (h ^ tail).wrapping_mul(K);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn borrowed(n: &Name) -> Option<&'static str> {
        match n {
            Cow::Borrowed(s) => Some(s),
            Cow::Owned(_) => None,
        }
    }

    #[test]
    fn well_known_keys_are_held_from_the_start() {
        assert!(held() >= crate::keys::ALL.len());
        for key in crate::keys::ALL {
            let name = resolve(key);
            assert_eq!(borrowed(&name), Some(key));
        }
    }

    #[test]
    fn a_new_name_is_copied_once_and_then_shared() {
        let first = resolve(&String::from("vocab-test-name"));
        let second = resolve(&String::from("vocab-test-name"));
        let (a, b) = (borrowed(&first).unwrap(), borrowed(&second).unwrap());
        assert!(std::ptr::eq(a, b), "one copy per process");
        assert_eq!(a, "vocab-test-name");
    }

    #[test]
    fn names_over_the_length_limit_are_never_held() {
        let long = "x".repeat(MAX_NAME_LEN + 1);
        let refused_before = refused();
        let name = resolve(&long);
        assert!(matches!(name, Cow::Owned(_)));
        assert_eq!(name, long);
        assert!(refused() > refused_before);
        assert!(borrowed(&resolve(&long)).is_none(), "still not held");
        let at_limit = "y".repeat(MAX_NAME_LEN);
        assert!(borrowed(&resolve(&at_limit)).is_some());
    }

    /// Names whose hashes share a home slot fill at most `MAX_PROBES`
    /// slots from it; the next one comes back owned instead of probing on.
    #[test]
    fn colliding_names_stop_at_the_probe_limit() {
        let home = hash("vocab-collide-0") as usize & (SLOTS - 1);
        let colliding: Vec<String> = (0u64..)
            .map(|i| format!("vocab-collide-{i}"))
            .filter(|n| hash(n) as usize & (SLOTS - 1) == home)
            .take(MAX_PROBES + 1)
            .collect();
        let held = colliding.iter().filter(|n| borrowed(&resolve(n)).is_some());
        assert!(held.count() <= MAX_PROBES);
        let last = colliding.last().unwrap();
        assert!(borrowed(&resolve(last)).is_none(), "past the probe limit");
        assert_eq!(resolve(last), last.as_str());
    }

    #[test]
    fn racing_threads_agree_on_one_copy() {
        let names: Vec<String> = (0..64).map(|i| format!("vocab-race-{i}")).collect();
        let resolved: Vec<Vec<usize>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        names
                            .iter()
                            .map(|n| borrowed(&resolve(n)).unwrap().as_ptr() as usize)
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(resolved.windows(2).all(|w| w[0] == w[1]));
    }
}
