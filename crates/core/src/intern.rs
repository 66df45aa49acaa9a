//! The process-wide name table, and [`Sym`], a handle that is a slot of it.
//!
//! The event pipeline handles the same few identifier strings — event
//! types, host names, program names, field keys — millions of times.  One
//! table holds them all, for the life of the process:
//!
//! * the gateway interns each published event's host and type as a
//!   [`Sym`], after which every comparison, hash and map key is a `u32`;
//! * every decoder resolves program names, keys and string values through
//!   `jamm_ulm::vocab`, which reads the same table through [`hold`] and
//!   hands out its `&'static str`s.
//!
//! The table is a fixed open-addressing array of 8,192 write-once
//! slots.  A name is found by one word-at-a-time hash of its bytes and a
//! probe that reads one tag byte per slot and the slot itself only on a
//! tag match: no lock, no refcount, no allocation.  A miss copies the name
//! into a free slot (leaked, once per process) while the table holds fewer
//! names than the caller's room, and the name is at most [`MAX_NAME_LEN`]
//! bytes.  Rooms:
//!
//! * program names and keys may fill the table to [`MAX_NAMES`];
//! * string values, hosts and event types take new slots only while it
//!   holds fewer than [`VALUE_ROOM`].  These are where names stop
//!   repeating (object ids, host churn), so a stream of them leaves the
//!   rest of the table to the sensor program names and keys that arrive
//!   after it.
//!
//! The hash is not keyed, so a peer could craft names that collide; a
//! probe therefore gives up after [`MAX_PROBES`] slots, which bounds every
//! resolution's cost whatever the table holds.  A hostile peer can pin at
//! most `MAX_NAMES × MAX_NAME_LEN` bytes (256 KiB) of table.
//!
//! A [`Sym`] is a slot index.  Slot ids follow hash order, not first
//! sighting, so nothing may order output by `Sym`: sort by the names.
//!
//! **The spill.**  A host or type the table refuses (over 64 bytes, past
//! its room, or past the probe limit) still needs a `Sym`, because a
//! series is keyed by one.  It gets one from the spill: a map behind a
//! lock, with ids past the slots', that only refused names reach.
//! This keeps `Sym` `Copy` and [`Sym::as_str`] a `&'static str`, so no
//! caller changes.  The alternatives were worse:
//!
//! * a per-gateway overflow map would be bounded only once series are
//!   retired, which is what bounds the spill too;
//! * an `Arc<str>` key would make `Sym` non-`Copy` at every call site and
//!   allocate on each publish of a refused name.
//!
//! So the spill is the one name table without a bound: it grows by one
//! leaked name per distinct refused host or type, and [`spilled`] makes
//! that growth observable.  Do **not** intern unbounded user data —
//! payload values, free-form messages, identifiers that embed
//! per-instance ids — as a `Sym`.
//!
//! A name has exactly one home.  A new slot is written only while the
//! spill's read lock is held and the spill does not hold the name; a name
//! is spilled only under the write lock, after a probe that reads every
//! slot finds it absent.  So [`Sym::intern`] returns one id per name,
//! process wide and for the life of the process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::sync::RwLock;

/// The most names the table holds, pre-seeded names included.
pub const MAX_NAMES: usize = 4_096;

/// New string values, hosts and event types are taken only while the
/// table holds fewer than this many names; program names and keys may
/// fill it to [`MAX_NAMES`].
pub const VALUE_ROOM: usize = MAX_NAMES / 2;

/// The longest name, in bytes, the table takes.
pub const MAX_NAME_LEN: usize = 64;

/// The most slots one resolution looks at before it gives up.
pub const MAX_PROBES: usize = 32;

/// Table slots: twice the bound, so a probe usually ends at an empty slot
/// within a few steps.  Spilled [`Sym`]s count on from here.
const SLOTS: usize = 2 * MAX_NAMES;

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
/// Names in the spill; read without its lock, so a lookup of a name the
/// table does not hold skips the lock while nothing was ever spilled.
static SPILLED: AtomicUsize = AtomicUsize::new(0);
/// [`hold`]s that found no room, one counter per group of threads on a
/// cache line of its own: decoder threads refused at once (a full table)
/// do not contend for one line.  [`refused`] sums them.
static REFUSED: [Padded<AtomicU64>; REFUSED_SHARDS] =
    [const { Padded(AtomicU64::new(0)) }; REFUSED_SHARDS];
const REFUSED_SHARDS: usize = 8;
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's refusal counter.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % REFUSED_SHARDS;
}

/// A value alone on its cache line (two lines, for adjacent-line prefetch).
#[repr(align(128))]
struct Padded<T>(T);

/// The names the table refused a [`Sym`] for, in id order past the slots.
#[derive(Default)]
struct Spill {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn spill_lock() -> &'static RwLock<Spill> {
    static SPILL: OnceLock<RwLock<Spill>> = OnceLock::new();
    SPILL.get_or_init(RwLock::default)
}

/// An interned string: a `Copy` handle that hashes and compares as a
/// `u32` and resolves back to its string in O(1).
///
/// Two `Sym`s are equal iff the strings they intern are equal, process
/// wide and for the life of the process.  The order of two `Sym`s is
/// their slot order, which follows their names' hashes: use it to sort
/// for a search, never for output.
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
    /// Intern a host or event type, returning its stable handle.  A name
    /// the table holds costs the hash and the probe, with no lock; a new
    /// one takes a slot within [`VALUE_ROOM`], and a name the table
    /// refuses is found in, or added to, the spill under its lock.  A
    /// pipeline interns each identity once and passes the `Sym` on,
    /// rather than asking again.
    pub fn intern(s: &str) -> Sym {
        match place(s, None, VALUE_ROOM) {
            Place::Slot(i) => Sym(i as u32),
            Place::Spilled(id) => Sym(id),
            Place::Refused => spill_in(s),
        }
    }

    /// Look a string up without interning it (useful on query paths that
    /// should not grow the table for never-seen identifiers).  Never
    /// counts a refusal.
    pub fn lookup(s: &str) -> Option<Sym> {
        #[cfg(test)]
        LOOKUPS.set(LOOKUPS.get() + 1);
        if s.len() <= MAX_NAME_LEN {
            if let Probe::Held(i) = probe(s, hash(s), 0, usize::MAX) {
                return Some(Sym(i as u32));
            }
        }
        if SPILLED.load(Ordering::Acquire) == 0 {
            return None;
        }
        spill_lock().read().ids.get(s).map(|&id| Sym(id))
    }

    /// The interned string: a load of its slot, or of its spill entry
    /// under the spill's read lock.
    pub fn as_str(self) -> &'static str {
        let i = self.0 as usize;
        match TABLE.get(i) {
            Some(slot) => slot.get().copied().unwrap_or_default(),
            None => spill_lock()
                .read()
                .names
                .get(i - SLOTS)
                .copied()
                .unwrap_or_default(),
        }
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The table's copy of `s`, taking a slot for it while the table holds
/// fewer than `room` names; `None`, counted by [`refused`], when the table
/// cannot take it.  A name in the spill comes back as the spill's copy.
pub fn hold(s: &str, room: usize) -> Option<&'static str> {
    let held = match place(s, None, room) {
        Place::Slot(i) => TABLE[i].get().copied(),
        Place::Spilled(id) => Some(Sym(id).as_str()),
        Place::Refused => None,
    };
    if held.is_none() {
        let shard = SHARD.try_with(|s| *s).unwrap_or(0);
        REFUSED[shard].0.fetch_add(1, Ordering::Relaxed);
    }
    held
}

/// Hold a literal in the table without copying it (pre-seeding the
/// well-known names), within [`MAX_NAMES`].
pub fn hold_static(s: &'static str) {
    place(s, Some(s), MAX_NAMES);
}

/// Names the table holds (at most [`MAX_NAMES`]).
pub fn held() -> usize {
    HELD.0.load(Ordering::Relaxed)
}

/// Names the table refused a [`Sym`] for, each leaked in the spill.
pub fn spilled() -> usize {
    SPILLED.load(Ordering::Relaxed)
}

/// Every name leaked for the life of the process: [`held`] plus
/// [`spilled`].
pub fn interned_count() -> usize {
    held() + spilled()
}

/// How many [`hold`]s since process start returned `None` because the
/// table was full for the caller, the name too long or its probe too
/// long.
pub fn refused() -> u64 {
    REFUSED.iter().map(|n| n.0.load(Ordering::Relaxed)).sum()
}

/// Where a name lives.
enum Place {
    Slot(usize),
    Spilled(u32),
    Refused,
}

/// What a probe for a name found.
enum Probe {
    /// The slot holding the name.
    Held(usize),
    /// The name is not held; this step of its probe is the first empty
    /// slot.
    Empty(usize),
    /// The name is not held and every slot of its probe is taken.
    Full,
}

/// Look `s` (hashed `h`) up from step `from` of its probe.  Slots are
/// never cleared, so a name held at all is held before the first empty
/// slot of its probe.  Once the table holds `room` names, an unwritten
/// tag ends the probe without a read of its slot, which the caller could
/// not fill anyway: a slot written but not yet tagged is then missed, as
/// by a probe a moment earlier.  A lookup passes no room.
fn probe(s: &str, h: u64, from: usize, room: usize) -> Probe {
    let tag = tag(h);
    for step in from..MAX_PROBES {
        let i = slot(h, step);
        let seen = TAGS[i].load(Ordering::Relaxed);
        if seen != 0 && seen != tag {
            continue;
        }
        if seen == 0 && HELD.0.load(Ordering::Relaxed) >= room {
            return Probe::Empty(step);
        }
        match TABLE[i].get() {
            Some(held) if *held == s => return Probe::Held(i),
            Some(_) => {}
            None => return Probe::Empty(step),
        }
    }
    Probe::Full
}

fn slot(h: u64, step: usize) -> usize {
    (h as usize).wrapping_add(step) & (SLOTS - 1)
}

fn tag(h: u64) -> u8 {
    (h >> 56) as u8 | 0x80
}

/// Find `s` in the table or the spill or, while the table holds fewer
/// than `room` names, claim a slot for it (storing `literal` if given,
/// else a leaked copy) within [`MAX_PROBES`] slots of its hash.
fn place(s: &str, literal: Option<&'static str>, room: usize) -> Place {
    if s.len() > MAX_NAME_LEN {
        return Place::Refused;
    }
    let h = hash(s);
    let mut from = 0;
    loop {
        let step = match probe(s, h, from, room) {
            Probe::Held(i) => return Place::Slot(i),
            Probe::Full => return Place::Refused,
            Probe::Empty(step) => step,
        };
        if HELD.0.load(Ordering::Relaxed) >= room {
            return Place::Refused;
        }
        // Held until the slot is written, so the name cannot be spilled
        // meanwhile (see the module doc).
        let spill = spill_lock().read();
        if let Some(&id) = spill.ids.get(s) {
            return Place::Spilled(id);
        }
        // Reserve room before writing, so the filled slots never exceed
        // the bound.
        let reserved = HELD
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < room).then_some(n + 1)
            });
        if reserved.is_err() {
            return Place::Refused;
        }
        let i = slot(h, step);
        let mut won = false;
        let held = *TABLE[i].get_or_init(|| {
            won = true;
            literal.unwrap_or_else(|| Box::leak(Box::from(s)))
        });
        if won {
            TAGS[i].store(tag(h), Ordering::Relaxed);
            return Place::Slot(i);
        }
        // Another thread filled this slot first: give the room back and
        // go on probing unless it stored the same name.
        HELD.0.fetch_sub(1, Ordering::Relaxed);
        if held == s {
            return Place::Slot(i);
        }
        drop(spill);
        from = step + 1;
    }
}

/// The spill's id for `s`, adding it if no one has: the table refused it.
fn spill_in(s: &str) -> Sym {
    if let Some(&id) = spill_lock().read().ids.get(s) {
        return Sym(id);
    }
    let mut spill = spill_lock().write();
    if let Some(&id) = spill.ids.get(s) {
        return Sym(id);
    }
    // A slot written before this lock was taken holds the name for good.
    if s.len() <= MAX_NAME_LEN {
        if let Probe::Held(i) = probe(s, hash(s), 0, usize::MAX) {
            return Sym(i as u32);
        }
    }
    let name: &'static str = Box::leak(Box::from(s));
    let id = (SLOTS + spill.names.len()) as u32;
    spill.names.push(name);
    spill.ids.insert(name, id);
    SPILLED.store(spill.names.len(), Ordering::Release);
    Sym(id)
}

/// The name's bytes eight at a time and then its tail, each word mixed in
/// with one multiply, then murmur3's finaliser so the low bits (the slot
/// index) and the top byte (the tag) depend on every byte.
fn hash(s: &str) -> u64 {
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

/// The golden-ratio multiplier both hashes mix a word in with.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hasher of every `Sym`-keyed map, and of every map keyed by integers
/// the program assigns itself (connection and listener ids, a segment
/// build's dictionary slots): a [`Sym`] is a slot the table already chose
/// by hashing its name, so each word written costs one rotate, one xor and
/// one multiply.  SipHash's resistance to chosen keys buys nothing here: a
/// peer picks names, not slots or ids, and the probe limit bounds how many
/// names can share a neighbourhood.  Keys a peer chooses (strings) keep
/// SipHash.
#[derive(Default)]
pub struct SymHasher(u64);

/// The [`std::hash::BuildHasher`] of `Sym`- and own-id-keyed maps:
/// `HashMap<Sym, V, BuildSymHasher>`, made with `HashMap::default()`.
pub type BuildSymHasher = BuildHasherDefault<SymHasher>;

impl SymHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for SymHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
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

    /// Names whose hashes share a home slot fill at most `MAX_PROBES`
    /// slots from it; the next one is refused instead of probing on, and
    /// as a `Sym` it is spilled.
    #[test]
    fn colliding_names_stop_at_the_probe_limit() {
        let home = slot(hash("intern-collide-0"), 0);
        let colliding: Vec<String> = (0u64..)
            .map(|i| format!("intern-collide-{i}"))
            .filter(|n| slot(hash(n), 0) == home)
            .take(MAX_PROBES + 1)
            .collect();
        let held = colliding.iter().filter(|n| hold(n, MAX_NAMES).is_some());
        assert!(held.count() <= MAX_PROBES);
        let last = colliding.last().unwrap();
        assert!(hold(last, MAX_NAMES).is_none(), "past the probe limit");
        let sym = Sym::intern(last);
        assert!(sym.0 as usize >= SLOTS, "spilled");
        assert_eq!(sym.as_str(), last);
        assert_eq!(Sym::lookup(last), Some(sym));
    }

    #[test]
    fn names_over_the_length_limit_are_spilled_once() {
        let long = "jamm.core.intern.test.".repeat(4);
        assert!(long.len() > MAX_NAME_LEN);
        assert_eq!(Sym::lookup(&long), None);
        let sym = Sym::intern(&long);
        assert_eq!(Sym::intern(&long.clone()), sym);
        assert_eq!(sym.as_str(), long);
        assert!(spilled() >= 1);
    }

    #[test]
    fn the_sym_hasher_tells_slots_apart() {
        use std::hash::BuildHasher;
        let build = BuildSymHasher::default();
        let hashes: std::collections::HashSet<u64> = (0..SLOTS as u32)
            .flat_map(|h| [(Sym(h), Sym(0)), (Sym(0), Sym(h))])
            .map(|key| build.hash_one(key))
            .collect();
        assert_eq!(hashes.len(), 2 * SLOTS - 1);
    }

    #[test]
    fn an_own_id_costs_one_mix_and_id_pairs_stay_apart() {
        use std::hash::BuildHasher;
        let build = BuildSymHasher::default();
        let mut one = SymHasher::default();
        one.mix(0x1234_5678_9abc);
        assert_eq!(build.hash_one(0x1234_5678_9abc_u64), one.finish());
        let hashes: std::collections::HashSet<u64> = (0..64u64)
            .flat_map(|a| (0..64u64).map(move |b| (a, b)))
            .map(|key| build.hash_one(key))
            .collect();
        assert_eq!(hashes.len(), 64 * 64);
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
