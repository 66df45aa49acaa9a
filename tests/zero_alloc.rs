//! The hot-path kernels that promise to run allocation-free in steady state
//! are held to it here, under the suite's only counting allocator.
//!
//! The count is per thread — a `const`-initialised `thread_local!` cell — so
//! the parallel test runner's other threads cannot pollute a reading: each
//! test measures exactly what its own thread allocated between two reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use jamm::jamm_core::obs::MetricsRegistry;
use jamm::jamm_core::query::{BatchScratch, ColumnBatch, Predicate, Selection};
use jamm::jamm_core::{EventSink, SinkError};
use jamm::jamm_directory::dn::Dn;
use jamm::jamm_gateway::{EventGateway, GatewayConfig, PipelineTracer};
use jamm::jamm_manager::config::{ManagerConfig, RunPolicy, SensorConfigEntry, SensorTemplate};
use jamm::jamm_manager::manager::{NoPortActivity, SensorManager};
use jamm::jamm_sensors::host::CpuSensor;
use jamm::jamm_sensors::{HostView, IfView, SampleContext, Sensor, StatsSource};
use jamm::jamm_tsdb::segment::Segment;
use jamm_ulm::{binary, keys, Event, Level, SharedEvent, Timestamp};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread that is tearing down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every operation is delegated to the system allocator unchanged;
// the counter is a plain thread-local cell with no destructor, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const HOSTS: [&str; 4] = [
    "dpss1.lbl.gov",
    "dpss2.lbl.gov",
    "mems.cairn.net",
    "portnoy.lbl.gov",
];
const TYPES: [&str; 3] = ["CPU_TOTAL", "MEM_FREE", "TCPD_RETRANSMITS"];

fn sample(i: u64) -> Event {
    Event::builder("vmstat", HOSTS[(i % 4) as usize])
        .level(if i.is_multiple_of(97) {
            Level::Warning
        } else {
            Level::Usage
        })
        .event_type(TYPES[(i % 3) as usize])
        .timestamp(Timestamp::from_micros(1_000_000_000 + i * 1_000))
        .value((i % 100) as f64)
        .build()
}

#[test]
fn the_counter_sees_this_threads_allocations() {
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(Box::new(7u64)))),
        1
    );
}

/// A stateful plan (`onchange` keeps per-series memory) evaluates without
/// allocating once every series has been seen.
#[test]
fn plan_eval_does_not_allocate_in_steady_state() {
    let events: Vec<Event> = (0..20_000).map(sample).collect();
    let plan = Predicate::parse("(&(type=CPU_TOTAL)(host=dpss1.lbl.gov)(val>50)(onchange))")
        .unwrap()
        .compile();
    let mut matches = 0u64;
    for e in &events {
        matches += plan.eval(e) as u64; // first sightings grow the state map
    }
    let allocs = allocations_in(|| {
        for e in &events {
            matches += plan.eval(e) as u64;
        }
    });
    assert!(matches > 0, "the plan selects something");
    assert_eq!(allocs, 0, "steady-state Plan::eval must not allocate");
}

/// `eval_batch` over dictionary-encoded column batches reuses its selection
/// and scratch: after one warm-up pass nothing is allocated.
#[test]
fn plan_eval_batch_does_not_allocate_in_steady_state() {
    const ROWS: usize = 4_096;
    let events: Vec<Event> = (0..3 * ROWS as u64).map(sample).collect();
    let dict: Vec<String> = HOSTS.iter().chain(&TYPES).map(|s| s.to_string()).collect();
    let id = |s: &str| dict.iter().position(|d| d == s).unwrap() as u32;
    let ts: Vec<u64> = events.iter().map(|e| e.timestamp.as_micros()).collect();
    let hosts: Vec<u32> = events.iter().map(|e| id(&e.host)).collect();
    let types: Vec<u32> = events.iter().map(|e| id(&e.event_type)).collect();
    let levels: Vec<u8> = events.iter().map(|e| e.level.severity()).collect();
    let vals: Vec<f64> = events.iter().map(|e| e.value().unwrap()).collect();
    let present = vec![u64::MAX; ROWS / 64];
    let batch = |k: usize| {
        let rows = k * ROWS..(k + 1) * ROWS;
        ColumnBatch {
            rows: ROWS,
            ts_micros: &ts[rows.clone()],
            host_ids: &hosts[rows.clone()],
            type_ids: &types[rows.clone()],
            levels: &levels[rows.clone()],
            values: &vals[rows],
            val_present: &present,
            dict: &dict,
        }
    };

    let plan = Predicate::parse(
        "(&(|(type=CPU_TOTAL)(type=MEM_FREE))(host=dpss1.lbl.gov)(level>=usage)(val>50))",
    )
    .unwrap()
    .compile();
    assert!(plan.batch_definite(), "the mix is batch-decidable");
    let mut sel = Selection::new();
    let mut scratch = BatchScratch::new();
    let mut pass = || {
        (0..3)
            .map(|k| {
                plan.eval_batch(&batch(k), &mut sel, &mut scratch);
                sel.count()
            })
            .sum::<usize>()
    };
    let warm = pass();
    let mut steady = 0;
    let allocs = allocations_in(|| steady = pass());
    let by_row = events.iter().filter(|e| plan.eval(*e)).count();
    assert_eq!(
        (warm, steady),
        (by_row, by_row),
        "batch and row paths agree"
    );
    assert_eq!(allocs, 0, "steady-state Plan::eval_batch must not allocate");
}

/// What every pipeline stage does per event on the unwatched path — counter
/// increment, gauge set, histogram record, tracer ring scan — allocates
/// nothing.
#[test]
fn metric_record_path_does_not_allocate() {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("ops");
    let gauge = registry.gauge("level");
    let hist = registry.histogram("us");
    let tracer = PipelineTracer::new("test-host", 64);
    let unwatched: SharedEvent = Arc::new(sample(7));
    let record = |rounds: u64| {
        for i in 0..rounds {
            counter.inc();
            gauge.set(i as f64);
            hist.record(i & 0xFFFF);
            assert!(tracer.trace_id(&unwatched).is_none());
        }
    };
    record(1_000); // first-touch effects
    let allocs = allocations_in(|| record(100_000));
    assert_eq!(counter.get(), 101_000);
    assert_eq!(allocs, 0, "steady-state metric recording must not allocate");
}

/// A dashboard re-reading a view nothing has changed since its last read
/// shares the cut snapshot: one read lock and one `Arc` clone, no
/// allocation.
#[test]
fn rereading_an_unchanged_view_does_not_allocate() {
    let gw = EventGateway::new(GatewayConfig::open("gw"));
    let view = gw
        .register_view("busiest", "(&(type=CPU_TOTAL)(groupby=host)(topk=2))")
        .unwrap();
    for i in 0..300 {
        gw.publish_shared(Arc::new(sample(i)));
    }
    let first = view.snapshot(); // the cut
    assert_eq!(first.updates, 100);
    let allocs = allocations_in(|| {
        for _ in 0..10_000 {
            assert!(Arc::ptr_eq(&view.snapshot(), &first));
        }
    });
    assert_eq!(allocs, 0, "reading an unchanged view must not allocate");
}

/// Publishing events whose series the gateway has already seen allocates
/// nothing: each event's identity is resolved once into a key buffer the
/// publishing thread keeps, the router and every plan are handed the key,
/// and the batch arm's per-subscription buffers are kept by the publishing
/// thread too.  Three subscriptions' plans run on every event and pass
/// none; two take part of every batch and are drained as they go.  The
/// warm-up's stamps span over an hour, so every window of every series has
/// grown its slices to the most it keeps; the measured stamps are then 1 ms
/// apart, about 300 readings a series, folded into those slices.
#[test]
fn publishing_batches_of_seen_series_does_not_allocate() {
    let gw = EventGateway::new(GatewayConfig::open("gw"));
    let open = |query: &str| gw.subscribe().matching(query).open().unwrap();
    let _subs = [
        open("(&(type=CPU_TOTAL)(val>1000))"),
        open("(host=nowhere.example)"),
        open("(&(onchange)(val<0))"),
    ];
    let taking = [open("(type=CPU_TOTAL)"), open("(host=dpss1.lbl.gov)")];
    let drain = || {
        taking
            .iter()
            .map(|s| s.events.try_iter().count())
            .sum::<usize>()
    };
    const WARM: u64 = 12 * 3_700;
    let events: Vec<SharedEvent> = (0..WARM + 6_000)
        .map(|i| {
            let mut e = sample(i);
            let ms = if i < WARM {
                i * 100
            } else {
                WARM * 100 + i - WARM
            };
            e.timestamp = Timestamp::from_micros(1_000_000_000 + ms * 1_000);
            Arc::new(e)
        })
        .collect();
    let (warm, measured) = events.split_at(WARM as usize);
    for batch in warm.chunks(5) {
        let delivered = gw.publish_shared_batch(batch);
        assert_eq!(delivered, drain());
        assert!(delivered >= 2, "the batch arm delivers");
    }
    let mut delivered = (0, 0);
    let allocs = allocations_in(|| {
        for (i, batch) in measured.chunks(5).enumerate() {
            delivered.0 += if i % 2 == 0 {
                gw.publish_shared_batch(batch)
            } else {
                gw.publish_shared(SharedEvent::clone(&batch[0]))
            };
            delivered.1 += drain();
        }
    });
    assert!(
        delivered.0 > 100 && delivered.0 == delivered.1,
        "{delivered:?}"
    );
    assert_eq!(allocs, 0, "a publish of seen series must not allocate");
}

/// The CPU sensor's event as the edge puts it on the wire.
fn cpu_event(i: u64) -> Event {
    Event::builder("vmstat", HOSTS[(i % 4) as usize])
        .event_type(keys::cpu::TOTAL)
        .timestamp(Timestamp::from_micros(1_000_000_000 + i * 1_000))
        .field(keys::SENSOR, "cpu")
        .field(keys::UNITS, "percent")
        .value((i % 100) as f64)
        .build()
}

/// A binary frame whose program, keys and string values the vocabulary has
/// seen decodes with three allocations: the host, the event type and the
/// field list.
#[test]
fn decoding_a_frame_of_seen_names_allocates_three_times() {
    let frame = binary::encode(&cpu_event(1));
    let (first, _) = binary::decode(&frame).unwrap();
    assert_eq!(first, cpu_event(1));
    let mut decoded = Vec::with_capacity(1);
    let allocs = allocations_in(|| decoded.push(binary::decode(&frame).unwrap()));
    assert_eq!(decoded[0].0, cpu_event(1));
    assert_eq!(allocs, 3, "host, event type, field list");
}

struct Busy;

impl StatsSource for Busy {
    fn host_stats(&self, _host: &str) -> Option<HostView> {
        Some(HostView {
            cpu_user_pct: 12.5,
            cpu_sys_pct: 40.0,
            ..HostView::default()
        })
    }
    fn device_interfaces(&self, _device: &str) -> Vec<IfView> {
        Vec::new()
    }
    fn process_alive(&self, _host: &str, _process: &str) -> Option<bool> {
        None
    }
}

/// Takes every batch and keeps nothing.
struct Discard;

impl EventSink<SharedEvent> for Discard {
    fn accept(&self, _event: &SharedEvent) -> Result<usize, SinkError> {
        Ok(1)
    }
}

/// A CPU sensor event allocates three times (host, event type, field
/// list): its program, keys and string values are literals.  The sensor
/// manager's `SharedEvent` is the fourth, and each sample adds one `Vec`
/// (the manager collects its handles into the sensor's, in place).
#[test]
fn a_cpu_sensor_event_allocates_three_times_and_its_arc_is_the_fourth() {
    let mut sensor = CpuSensor::new("dpss1.lbl.gov", 1.0);
    let ctx = SampleContext {
        timestamp: Timestamp::from_secs(1_000),
        source: &Busy,
    };
    let mut events = Vec::new();
    let allocs = allocations_in(|| events = sensor.sample(&ctx));
    assert_eq!(events.len(), 3);
    assert_eq!(allocs, 3 * 3 + 1, "three per event and the sample's Vec");

    let config = ManagerConfig::empty("dpss1.lbl.gov", "gw").with_sensor(SensorConfigEntry {
        template: SensorTemplate::Cpu,
        frequency_secs: 0.0,
        policy: RunPolicy::Always,
    });
    let mut manager = SensorManager::new(&config, Dn::parse("o=grid").unwrap());
    let mut tick = |s: u64| {
        manager.tick(
            Timestamp::from_secs(s),
            &Busy,
            &NoPortActivity,
            &Discard,
            None,
        )
    };
    assert_eq!(tick(1), 3, "the first tick starts the sensor");
    let mut published = 0;
    let allocs = allocations_in(|| {
        for s in 2..12 {
            published += tick(s);
        }
    });
    assert_eq!(published, 30);
    assert_eq!(
        allocs,
        10 * (3 * 4 + 1),
        "four per event, one Vec per sample"
    );
}

/// A JSG3 scan row from a segment whose names the vocabulary has seen
/// allocates three times: the host, the event type and the field list.
/// Each dictionary slot is resolved once per cursor, the first time a row
/// uses it.
#[test]
fn a_jsg3_scan_row_of_seen_names_allocates_three_times() {
    let rows: Vec<(u64, Event)> = (0..500).map(|i| (i, cpu_event(i))).collect();
    let segment = Arc::new(Segment::build(1, &rows));
    let mut cursor = segment.cursor();
    let (_, first) = cursor.next_event().unwrap().unwrap();
    assert_eq!(first, rows[0].1);
    let mut scanned = Vec::with_capacity(rows.len());
    let mut per_row = Vec::with_capacity(rows.len());
    for _ in 1..rows.len() {
        per_row.push(allocations_in(|| {
            scanned.push(cursor.next_event().unwrap().unwrap());
        }));
    }
    assert!(cursor.next_event().is_none());
    assert_eq!(scanned, rows[1..]);
    assert!(per_row.iter().all(|n| *n == 3), "{per_row:?}");
}
