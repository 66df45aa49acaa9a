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
//! [`resolve`], and string values through [`resolve_value`].  Both read
//! core's process-wide name table ([`jamm_core::intern`], whose doc has
//! the table's design), the one the gateway's `Sym`s are slots of:
//!
//! * a hit returns the table's `&'static str`, with no lock, refcount or
//!   allocation;
//! * a miss copies the name into the table (leaked, once per process) and
//!   returns it, as long as the table holds fewer than [`MAX_NAMES`] names
//!   ([`VALUE_ROOM`] for a string value) and the name is at most
//!   [`MAX_NAME_LEN`] bytes;
//! * past either bound, or after [`MAX_PROBES`] slots of probing, the name
//!   comes back owned, which is what every decode cost before the
//!   vocabulary existed, and [`refused`] counts it.
//!
//! So a hostile peer sending a stream of distinct names can leak at most
//! `MAX_NAMES × MAX_NAME_LEN` bytes (256 KiB), and a stream of distinct
//! values only its room, leaving the rest to the sensor program names and
//! keys that arrive after it.  The table is pre-seeded with every
//! [`crate::keys`] constant on the first resolution, so the well-known
//! names are never copied.

use std::borrow::Cow;
use std::sync::Once;

use jamm_core::intern;
pub use jamm_core::intern::{MAX_NAMES, MAX_NAME_LEN, MAX_PROBES, VALUE_ROOM};

/// A name an event carries: its program, a field key or a string value.
/// Borrowed when it is a literal or in the vocabulary, owned otherwise.
pub type Name = Cow<'static, str>;

static SEEDED: Once = Once::new();

/// The vocabulary's name for a program name or field key: borrowed from
/// the table when it holds `s` or can take it, an owned copy otherwise.
pub fn resolve(s: &str) -> Name {
    borrow_or_copy(s, MAX_NAMES)
}

/// The vocabulary's name for a string value: as [`resolve`], but a new
/// value is taken only while the table holds fewer than [`VALUE_ROOM`]
/// names.  Values are where names do not repeat (object ids, messages),
/// so a stream of distinct values leaves the rest of the table to the
/// program names and keys that arrive after it.
pub fn resolve_value(s: &str) -> Name {
    borrow_or_copy(s, VALUE_ROOM)
}

fn borrow_or_copy(s: &str, room: usize) -> Name {
    SEEDED.call_once(seed);
    match intern::hold(s, room) {
        Some(held) => Cow::Borrowed(held),
        None => Cow::Owned(s.to_owned()),
    }
}

/// Names the vocabulary holds (at most [`MAX_NAMES`]): every name in the
/// table, the gateway's hosts and event types included.
pub fn held() -> usize {
    SEEDED.call_once(seed);
    intern::held()
}

/// How many resolutions since process start returned an owned name
/// because the vocabulary was full, the name too long or its probe too
/// long.
pub fn refused() -> u64 {
    intern::refused()
}

fn seed() {
    for key in crate::keys::ALL {
        intern::hold_static(key);
    }
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
