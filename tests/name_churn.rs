//! Host churn against the process-wide name table.
//!
//! A Grid deployment sees hosts come and go for weeks.  This test publishes
//! 200,000 distinct hosts over two simulated hours through a gateway with
//! a view and an on-change subscription, and prints at every 10-minute
//! mark what that churn grows: the names the table holds and the names it
//! spilled, the gateway's series, and the live heap.  Nothing retires a
//! series yet, so spill and series growth are printed, not asserted flat.
//!
//! What it asserts: an e21-shaped fleet (64 hosts × 6 types) spills no
//! name; the table never holds more than `MAX_NAMES`; every host's `Sym`
//! round-trips; and hosts leave room for a program name and a key first
//! seen after the churn, which still decode borrowed.  This file is its own
//! test binary: it fills the process-wide table and counts the whole
//! process's heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use jamm::jamm_core::intern::{self, Sym, MAX_NAMES};
use jamm::jamm_gateway::{EventGateway, GatewayConfig};
use jamm_ulm::{binary, keys, Event, SharedEvent, Timestamp};

/// The system allocator, counting live heap bytes process-wide (the
/// delegate-unchanged pattern of `tests/zero_alloc.rs`, by bytes rather
/// than by calls).
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every operation is delegated to the system allocator unchanged;
// the counter is a plain atomic, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HOSTS: usize = 200_000;
const HOURS: u64 = 2;
const MARK_US: u64 = 600_000_000;
const BATCH: usize = 100;
/// e21's fleet: 64 hosts, each sending its CPU, memory and TCP types.
const FLEET_TYPES: [&str; 6] = [
    keys::cpu::TOTAL,
    keys::cpu::USER,
    keys::cpu::SYS,
    keys::mem::FREE,
    keys::tcp::RETRANSMITS,
    keys::tcp::WINDOW_SIZE,
];

fn reading(host: String, ty: &'static str, at_us: u64, value: f64) -> SharedEvent {
    Arc::new(
        Event::builder("vmstat", host)
            .event_type(ty)
            .timestamp(Timestamp::from_micros(at_us))
            .value(value)
            .build(),
    )
}

fn churn_host(i: usize) -> String {
    format!("wn{i:06}.churn.grid.example")
}

#[test]
fn two_hours_of_host_churn_stay_within_the_table() {
    let gw = EventGateway::new(GatewayConfig::open("churn"));
    gw.register_view("busiest", "(&(type=CPU_TOTAL)(groupby=host)(topk=5))")
        .unwrap();
    let changes = gw.subscribe().matching("(onchange)").open().unwrap();
    let start_us = 1_000_000_000_000;

    let fleet: Vec<SharedEvent> = (0..64)
        .flat_map(|h| FLEET_TYPES.map(|ty| (h, ty)))
        .map(|(h, ty)| reading(format!("h{h:02}.grid"), ty, start_us, 1.0))
        .collect();
    gw.publish_shared_batch(&fleet);
    assert_eq!(intern::spilled(), 0, "an e21-shaped fleet spills nothing");
    assert_eq!(gw.series_count(), 64 * 6);

    let step_us = HOURS * 3_600_000_000 / HOSTS as u64;
    let mut next_mark = start_us + MARK_US;
    println!("minute  held  spilled  series  heap_bytes");
    for first in (0..HOSTS).step_by(BATCH) {
        let batch: Vec<SharedEvent> = (first..first + BATCH)
            .map(|i| {
                let at = start_us + i as u64 * step_us;
                reading(churn_host(i), keys::cpu::TOTAL, at, (i % 100) as f64)
            })
            .collect();
        gw.publish_shared_batch(&batch);
        changes.events.try_iter().for_each(drop);
        let now = start_us + (first + BATCH) as u64 * step_us;
        if now >= next_mark {
            println!(
                "{:>6}  {:>4}  {:>7}  {:>6}  {:>10}",
                (next_mark - start_us) / 60_000_000,
                intern::held(),
                intern::spilled(),
                gw.series_count(),
                LIVE.load(Ordering::Relaxed)
            );
            next_mark += MARK_US;
        }
        assert!(intern::held() <= MAX_NAMES);
    }
    assert_eq!(gw.series_count(), 64 * 6 + HOSTS);
    assert!(gw.view_snapshot("anyone", "busiest").is_ok());

    for i in 0..HOSTS {
        let host = churn_host(i);
        let sym = Sym::lookup(&host).unwrap_or_else(|| panic!("{host} has a Sym"));
        assert_eq!(sym.as_str(), host);
        assert_eq!(Sym::intern(&host), sym);
    }
    assert_eq!(intern::interned_count(), intern::held() + intern::spilled());

    let late = Event::builder("late-sensor", churn_host(0))
        .event_type(keys::cpu::TOTAL)
        .field("LATE_KEY", 1u64)
        .build();
    let decoded = binary::decode(&binary::encode(&late)).unwrap().0;
    assert!(matches!(decoded.program, Cow::Borrowed("late-sensor")));
    assert!(matches!(decoded.fields[0].0, Cow::Borrowed("LATE_KEY")));
}
