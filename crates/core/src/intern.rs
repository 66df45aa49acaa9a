//! A process-wide string interner for hot identifier strings.
//!
//! The event pipeline handles the same few identifier strings — event
//! types, host names, program names, field keys — millions of times.
//! [`Sym`] replaces repeated string hashes and clones with one interning
//! lookup per string, after which every comparison, hash and map key is a
//! `u32`.
//!
//! Interned strings are leaked: the set of distinct identifiers a
//! monitoring deployment produces is small and stable (sensor names, event
//! types, hosts), so the leak is bounded and buys an allocation-free
//! [`Sym::as_str`] (an index into the table under a briefly-held read
//! lock).  Do **not** intern unbounded user data — event payload values,
//! free-form messages, or identifiers that embed per-instance ids (PIDs,
//! connection ids): every distinct string lives for the rest of the
//! process.  [`interned_count`] makes the table's growth observable.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::sync::RwLock;

/// An interned string: a `Copy` handle that hashes and compares as a
/// `u32` and resolves back to its string in O(1).
///
/// Two `Sym`s are equal iff the strings they intern are equal, process
/// wide and for the life of the process.
///
/// ```
/// use jamm_core::intern::Sym;
///
/// let a = Sym::intern("CPU_TOTAL");
/// let b = Sym::intern("CPU_TOTAL");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "CPU_TOTAL");
/// assert_ne!(a, Sym::intern("MEM_FREE"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

struct Interner {
    /// Interned string -> index.  Keys borrow the leaked strings in
    /// `strings`, so each distinct string is stored once.
    map: HashMap<&'static str, u32>,
    /// Index -> leaked string (the `as_str` table).
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

#[cfg(test)]
thread_local! {
    /// [`Sym::lookup`] calls made on this thread, for tests that pin a path
    /// to making none.
    static LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`Sym::lookup`] calls made on the calling thread so far.
#[cfg(test)]
pub(crate) fn lookups_on_this_thread() -> u64 {
    LOOKUPS.get()
}

impl Sym {
    /// Intern a string, returning its stable handle.  The common case (the
    /// string is already interned) is one read-lock acquisition and one
    /// hash lookup, and the first sighting of a string takes the write
    /// lock and leaks one copy.  A pipeline interns each identity once
    /// and passes the `Sym` on, rather than asking again.
    pub fn intern(s: &str) -> Sym {
        let lock = interner();
        if let Some(&id) = lock.read().map.get(s) {
            return Sym(id);
        }
        let mut w = lock.write();
        // Double-check: another thread may have interned it between the
        // read unlock and the write lock.
        if let Some(&id) = w.map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = w.strings.len() as u32;
        w.strings.push(leaked);
        w.map.insert(leaked, id);
        Sym(id)
    }

    /// Look a string up without interning it (useful on query paths that
    /// should not grow the table for never-seen identifiers).
    pub fn lookup(s: &str) -> Option<Sym> {
        #[cfg(test)]
        LOOKUPS.set(LOOKUPS.get() + 1);
        interner().read().map.get(s).map(|&id| Sym(id))
    }

    /// The interned string: an O(1) index into the table.  A read lock is
    /// held only long enough to load the slot (the `Vec` may reallocate
    /// under a concurrent intern); the `&'static str` it yields outlives
    /// the guard.
    pub fn as_str(self) -> &'static str {
        interner().read().strings[self.0 as usize]
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of distinct strings interned so far (observability; the leak is
/// bounded by this count).
pub fn interned_count() -> usize {
    interner().read().strings.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_round_trips() {
        let a = Sym::intern("jamm.core.intern.test.CPU_TOTAL");
        let b = Sym::intern("jamm.core.intern.test.CPU_TOTAL");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "jamm.core.intern.test.CPU_TOTAL");
        let c = Sym::intern("jamm.core.intern.test.MEM_FREE");
        assert_ne!(a, c);
        assert_eq!(c.as_str(), "jamm.core.intern.test.MEM_FREE");
    }

    #[test]
    fn lookup_does_not_insert() {
        assert_eq!(Sym::lookup("jamm.core.intern.test.never-interned"), None);
        let s = Sym::intern("jamm.core.intern.test.present");
        assert_eq!(Sym::lookup("jamm.core.intern.test.present"), Some(s));
    }

    #[test]
    fn the_lookup_counter_counts_this_threads_lookups_only() {
        let before = lookups_on_this_thread();
        Sym::intern("jamm.core.intern.test.counted");
        assert_eq!(lookups_on_this_thread(), before, "intern is not a lookup");
        Sym::lookup("jamm.core.intern.test.counted");
        Sym::lookup("jamm.core.intern.test.never-counted");
        std::thread::spawn(|| Sym::lookup("jamm.core.intern.test.counted"))
            .join()
            .unwrap();
        assert_eq!(lookups_on_this_thread(), before + 2);
    }

    #[test]
    fn syms_work_as_map_keys() {
        use std::collections::HashMap;
        let mut m: HashMap<(Sym, Sym), u32> = HashMap::new();
        let h = Sym::intern("jamm.core.intern.test.host");
        let t = Sym::intern("jamm.core.intern.test.type");
        m.insert((h, t), 7);
        assert_eq!(
            m.get(&(
                Sym::intern("jamm.core.intern.test.host"),
                Sym::intern("jamm.core.intern.test.type"),
            )),
            Some(&7)
        );
    }

    #[test]
    fn concurrent_interning_yields_stable_identities() {
        // Many threads intern an overlapping mix of shared and distinct
        // strings; every thread must resolve the shared ones to the same
        // Sym, and every Sym must round-trip to exactly its string.
        let shared: Vec<String> = (0..16)
            .map(|i| format!("jamm.core.intern.test.shared-{i}"))
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..50 {
                        for s in &shared {
                            out.push((s.clone(), Sym::intern(s)));
                        }
                        let own = format!("jamm.core.intern.test.own-{t}-{}", round % 10);
                        out.push((own.clone(), Sym::intern(&own)));
                    }
                    out
                })
            })
            .collect();
        let mut seen: HashMap<String, Sym> = HashMap::new();
        for h in handles {
            for (s, sym) in h.join().unwrap() {
                assert_eq!(sym.as_str(), s, "round-trips to its own string");
                match seen.get(&s) {
                    Some(prev) => assert_eq!(*prev, sym, "stable identity for {s}"),
                    None => {
                        seen.insert(s, sym);
                    }
                }
            }
        }
        // 16 shared + 8 threads x 10 distinct own strings.
        let distinct: std::collections::HashSet<Sym> = seen.values().copied().collect();
        assert_eq!(
            distinct.len(),
            seen.len(),
            "distinct strings, distinct syms"
        );
        assert_eq!(seen.len(), 16 + 80);
    }
}
