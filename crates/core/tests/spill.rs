//! The name table full: names it holds keep their `Sym`s, names it refuses
//! get stable ones from the spill, and a lookup changes nothing.  This file
//! is its own test binary: filling the process-wide table would change
//! what every other test's names resolve to.

use std::collections::HashMap;

use jamm_core::intern::{self, Sym, MAX_NAMES};

fn name(kind: &str, i: usize) -> String {
    format!("spill-test.{kind}-{i}")
}

#[test]
fn a_full_table_spills_refused_names_with_stable_ids() {
    let held: Vec<(String, Sym)> = (0..100)
        .map(|i| name("held", i))
        .map(|n| {
            let sym = Sym::intern(&n);
            (n, sym)
        })
        .collect();
    let mut filler = 0;
    while intern::held() < MAX_NAMES {
        intern::hold(&name("filler", filler), MAX_NAMES);
        filler += 1;
    }
    assert_eq!(intern::spilled(), 0, "filling takes slots, never the spill");

    let spilled: Vec<String> = (0..200).map(|i| name("spilled", i)).collect();
    let per_thread: Vec<HashMap<String, Sym>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..8)
            .map(|t| {
                let (held, spilled) = (&held, &spilled);
                s.spawn(move || {
                    let own = (0..10).map(|i| name(&format!("own-{t}"), i));
                    let names = held.iter().map(|(n, _)| n.clone());
                    let names: Vec<String> =
                        names.chain(spilled.iter().cloned()).chain(own).collect();
                    let mut syms = HashMap::new();
                    for round in 0..3 {
                        for n in &names {
                            let sym = Sym::intern(n);
                            assert_eq!(sym.as_str(), n, "round-trips");
                            let first = *syms.entry(n.clone()).or_insert(sym);
                            assert_eq!(first, sym, "stable for {n} in round {round}");
                        }
                    }
                    syms
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    for (n, sym) in &held {
        for syms in &per_thread {
            assert_eq!(syms[n], *sym, "{n} keeps the slot it had before");
        }
    }
    for n in &spilled {
        let sym = per_thread[0][n];
        assert!(per_thread.iter().all(|syms| syms[n] == sym));
        assert_eq!(Sym::lookup(n), Some(sym));
    }
    let distinct: std::collections::HashSet<Sym> = per_thread
        .iter()
        .flat_map(|syms| syms.values().copied())
        .collect();
    assert_eq!(distinct.len(), 100 + 200 + 8 * 10, "one Sym per name");
    assert_eq!(intern::spilled(), 200 + 8 * 10);
    assert_eq!(intern::held(), MAX_NAMES);

    let (held_before, spilled_before, refused_before) =
        (intern::held(), intern::spilled(), intern::refused());
    for i in 0..1_000 {
        assert_eq!(Sym::lookup(&name("never", i)), None);
    }
    assert_eq!(Sym::lookup(&"x".repeat(100)), None);
    assert_eq!(
        (intern::held(), intern::spilled(), intern::refused()),
        (held_before, spilled_before, refused_before),
        "a lookup never inserts and never counts a refusal"
    );
}
