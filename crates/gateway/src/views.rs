//! Continuous queries: incrementally-maintained materialized views.
//!
//! A *continuous query* is a compiled query-plane [`Plan`] registered on
//! the gateway and maintained on the publish path — the gateway's
//! [`crate::summary`] windows generalized from fixed per-series
//! averages to arbitrary predicates with optional group-by / top-k
//! aggregation.  Each published event is evaluated once per view; matches
//! land in a bounded ring (most recent first out) and fold into the view's
//! [`Aggregator`], and mark the view changed.  Readers never touch any of
//! that: they grab the view's current [`ViewSnapshot`], an immutable
//! `Arc`.  The first read after a change cuts a fresh snapshot; every
//! later read until the next matching publish shares it, so a million
//! dashboards re-reading a view cost refcount bumps — not rescans, not
//! even a per-reader clone of the data — and a snapshot is only ever cut
//! for a reader.  The matching publish that makes a snapshot stale drops
//! it.  A read always reflects every matching publish that completed
//! before it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jamm_core::intern::Sym;
use jamm_core::query::{Aggregator, Plan, Predicate};
use jamm_core::sync::{Mutex, RwLock};
use jamm_ulm::{SharedEvent, Timestamp};

use crate::{GatewayError, Result};

/// Most recent matching events a view's ring retains (and thus the most a
/// snapshot exposes).
pub const VIEW_RING_CAPACITY: usize = 1_024;

/// An immutable, shareable read of one view's current contents.  Cheap to
/// hand out (one `Arc` clone) and safe to hold across publishes — it
/// never changes after construction.
#[derive(Debug, Clone)]
pub struct ViewSnapshot {
    /// Timestamp of the newest event folded in when the snapshot was cut.
    pub as_of: Timestamp,
    /// The most recent matching events, oldest first (bounded by
    /// [`VIEW_RING_CAPACITY`]).
    pub events: Vec<SharedEvent>,
    /// Every group folded in, when the view's query carries aggregate
    /// directives: [`Aggregator::rows`] ranks them and applies the top-k
    /// cut, and [`Aggregator::merge`] combines this view with the same
    /// view on another gateway.
    pub aggregator: Option<Aggregator>,
    /// Matching updates folded into the view since registration.
    pub updates: u64,
}

/// Mutable maintenance state of one view, under a mutex: every publisher
/// folds into it on its own thread, and a reader cuts a snapshot from it.
#[derive(Debug)]
struct ViewState {
    ring: VecDeque<SharedEvent>,
    agg: Option<Aggregator>,
    /// A matching update landed since the last snapshot cut (and dropped
    /// that snapshot).
    dirty: bool,
    /// Newest event timestamp seen.
    as_of: Timestamp,
}

/// One registered continuous query.
#[derive(Debug)]
pub struct ContinuousQuery {
    name: String,
    /// Canonical (display-normalized) predicate text — the lookup key for
    /// "is this query already materialized?".
    text: String,
    plan: Plan,
    state: Mutex<ViewState>,
    /// The snapshot cut by the first read since the last matching update;
    /// `None` once that update makes it stale, so the next read cuts.
    snap: RwLock<Option<Arc<ViewSnapshot>>>,
    /// Snapshot reads served.
    reads: AtomicU64,
    /// Matching updates folded in.
    updates: AtomicU64,
}

impl ContinuousQuery {
    fn new(name: String, predicate: &Predicate) -> ContinuousQuery {
        let text = predicate.to_string();
        let plan = predicate.compile();
        let agg = plan.aggregate().cloned().map(Aggregator::new);
        ContinuousQuery {
            name,
            text,
            plan,
            state: Mutex::new(ViewState {
                ring: VecDeque::with_capacity(VIEW_RING_CAPACITY.min(64)),
                agg,
                dirty: false,
                as_of: Timestamp::EPOCH,
            }),
            snap: RwLock::new(None),
            reads: AtomicU64::new(0),
            updates: AtomicU64::new(0),
        }
    }

    /// View name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Snapshot reads served so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Matching updates folded in so far.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Fold one published event in (publish path).  The host/type syms
    /// are already interned by the gateway's observe step, so the plan
    /// looks nothing up.
    fn observe(&self, host: Sym, ty: Sym, event: &SharedEvent) {
        if !self.plan.eval_interned(&**event, Some(host), Some(ty)) {
            return;
        }
        let mut st = self.state.lock();
        if st.ring.len() == VIEW_RING_CAPACITY {
            st.ring.pop_front();
        }
        st.ring.push_back(SharedEvent::clone(event));
        if let Some(agg) = &mut st.agg {
            agg.observe(Some(host), Some(ty), event.value());
        }
        st.as_of = st.as_of.max(event.timestamp);
        // Counted under the state mutex, so a snapshot cut under it
        // carries exactly the updates it folded in.
        self.updates.fetch_add(1, Ordering::Relaxed);
        if !st.dirty {
            st.dirty = true;
            // Dropped here, on the publisher's thread.  Left for the next
            // read, a stale snapshot keeps up to 1,024 events alive and
            // frees them on the reader's thread: e21 full_pipeline spent
            // ~17 % more CPU per event that way (2-core VM).
            let stale = self.snap.write().take();
            drop(st);
            drop(stale);
        }
    }

    /// The current snapshot.  While nothing matched since the last cut this
    /// is one read-lock acquisition and one `Arc` clone, regardless of how
    /// much data the view holds; the first read after a matching publish
    /// cuts a fresh snapshot under the state mutex.
    pub fn snapshot(&self) -> Arc<ViewSnapshot> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(snap) = &*self.snap.read() {
            return Arc::clone(snap);
        }
        let mut st = self.state.lock();
        st.dirty = false;
        // A reader that got the mutex first may have cut it already.
        let mut slot = self.snap.write();
        let snap = slot.get_or_insert_with(|| {
            Arc::new(ViewSnapshot {
                as_of: st.as_of,
                events: st.ring.iter().cloned().collect(),
                aggregator: st.agg.clone(),
                updates: self.updates.load(Ordering::Relaxed),
            })
        });
        Arc::clone(snap)
    }
}

/// The registry of continuous queries attached to one gateway.
///
/// The view list itself is an `Arc`-swapped immutable snapshot (the same
/// discipline as the routing tables): the publish path reads it with one
/// read-lock + `Arc` clone and registration rebuilds it on the cold path.
#[derive(Debug, Default)]
pub struct ViewEngine {
    views: RwLock<Vec<Arc<ContinuousQuery>>>,
    /// Registered-view count mirrored out of the lock so the publish hot
    /// path pays one relaxed load — not a read-lock — when no views exist.
    active: AtomicU64,
}

impl ViewEngine {
    /// An empty engine.
    pub fn new() -> ViewEngine {
        ViewEngine::default()
    }

    /// Register `text` as a continuous query named `name`.  Re-registering
    /// the same name replaces the view (fresh state).  Errors on a query
    /// that does not parse.
    pub fn register(&self, name: &str, text: &str) -> Result<Arc<ContinuousQuery>> {
        let predicate = Predicate::parse(text)
            .map_err(|e| GatewayError::BadQuery(format!("view {name:?}: {e}")))?;
        let view = Arc::new(ContinuousQuery::new(name.to_string(), &predicate));
        let mut views = self.views.write();
        views.retain(|v| v.name != name);
        views.push(Arc::clone(&view));
        self.active.store(views.len() as u64, Ordering::Relaxed);
        Ok(view)
    }

    /// Fold one published event into every view (publish path).  `host`
    /// and `ty` are the event's host and type, interned.
    pub fn observe(&self, host: Sym, ty: Sym, event: &SharedEvent) {
        if self.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        let views = self.views.read();
        for view in views.iter() {
            view.observe(host, ty, event);
        }
    }

    /// Look up a view by name.
    pub fn by_name(&self, name: &str) -> Option<Arc<ContinuousQuery>> {
        self.views.read().iter().find(|v| v.name == name).cloned()
    }

    /// Look up a view materializing exactly this canonical predicate text
    /// — the facade's "can a view answer this query?" probe.
    pub fn by_query_text(&self, canonical: &str) -> Option<Arc<ContinuousQuery>> {
        self.views
            .read()
            .iter()
            .find(|v| v.text == canonical)
            .cloned()
    }

    /// All registered views.
    pub fn all(&self) -> Vec<Arc<ContinuousQuery>> {
        self.views.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_ulm::{Event, Level};

    fn ev(host: &str, ty: &str, t: u64, v: f64) -> SharedEvent {
        Arc::new(
            Event::builder("prog", host)
                .level(Level::Usage)
                .event_type(ty)
                .timestamp(Timestamp::from_micros(t))
                .value(v)
                .build(),
        )
    }

    fn feed(engine: &ViewEngine, e: &SharedEvent) {
        let host = Sym::intern(&e.host);
        let ty = Sym::intern(&e.event_type);
        engine.observe(host, ty, e);
    }

    #[test]
    fn views_fold_matches_into_the_snapshot() {
        let engine = ViewEngine::new();
        engine
            .register("hot-cpu", "(&(type=CPU_TOTAL)(val>50))")
            .unwrap();
        feed(&engine, &ev("h1", "CPU_TOTAL", 1_000, 80.0));
        feed(&engine, &ev("h1", "CPU_TOTAL", 2_000, 20.0)); // filtered
        feed(&engine, &ev("h2", "MEM_FREE", 3_000, 90.0)); // filtered
        feed(&engine, &ev("h2", "CPU_TOTAL", 4_000, 60.0));
        let view = engine.by_name("hot-cpu").unwrap();
        let snap = view.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.updates, 2);
        assert_eq!(snap.as_of, Timestamp::from_micros(4_000));
        assert_eq!(view.updates(), 2);
        assert_eq!(view.reads(), 1);
    }

    #[test]
    fn snapshots_are_cut_on_the_first_read_after_a_matching_publish() {
        let engine = ViewEngine::new();
        engine.register("cpu", "(type=CPU_TOTAL)").unwrap();
        let view = engine.by_name("cpu").unwrap();
        feed(&engine, &ev("h", "CPU_TOTAL", 1_000, 1.0));
        let first = view.snapshot();
        assert_eq!(first.events.len(), 1);
        // No publish in between: the same cut.
        assert!(Arc::ptr_eq(&first, &view.snapshot()));
        // A publish the view does not match changes nothing.
        feed(&engine, &ev("h", "MEM_FREE", 2_000, 2.0));
        assert!(Arc::ptr_eq(&first, &view.snapshot()));
        // A matching one: the next read cuts a snapshot that holds it.
        feed(&engine, &ev("h", "CPU_TOTAL", 3_000, 3.0));
        let second = view.snapshot();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(second.updates, 2);
        assert_eq!(second.as_of, Timestamp::from_micros(3_000));
        assert_eq!(second.events.last().unwrap().value(), Some(3.0));
        assert!(Arc::ptr_eq(&second, &view.snapshot()));
        assert_eq!(view.reads(), 5);
    }

    #[test]
    fn ring_is_bounded() {
        let engine = ViewEngine::new();
        engine.register("all", "(&)").unwrap();
        for i in 0..(VIEW_RING_CAPACITY as u64 + 100) {
            feed(&engine, &ev("h", "T", i, 0.0));
        }
        let snap = engine.by_name("all").unwrap().snapshot();
        assert_eq!(snap.events.len(), VIEW_RING_CAPACITY);
        // Oldest entries were evicted: the ring starts at event 100.
        assert_eq!(snap.events[0].timestamp.as_micros(), 100);
    }

    #[test]
    fn aggregate_views_maintain_group_rows() {
        let engine = ViewEngine::new();
        engine
            .register("busiest", "(&(type=CPU_TOTAL)(groupby=host)(topk=2))")
            .unwrap();
        for i in 0..10u64 {
            feed(
                &engine,
                &ev("busy", "CPU_TOTAL", 1_000_000 + i * 50_000, 90.0),
            );
        }
        feed(&engine, &ev("idle", "CPU_TOTAL", 1_200_000, 5.0));
        feed(&engine, &ev("calm", "CPU_TOTAL", 1_300_000, 20.0));
        feed(&engine, &ev("busy", "MEM_FREE", 1_400_000, 99.0)); // filtered
        let snap = engine.by_name("busiest").unwrap().snapshot();
        let rows = snap.aggregator.as_ref().map(Aggregator::rows).unwrap();
        assert_eq!(rows.len(), 2, "top-k cuts to 2 groups");
        assert_eq!(rows[0].host.unwrap().as_str(), "busy");
        assert_eq!(rows[0].count, 10);
        assert_eq!(rows[0].mean, Some(90.0));
        assert_eq!(rows[1].host.unwrap().as_str(), "calm");
        assert_eq!(rows[1].mean, Some(20.0));
    }

    #[test]
    fn host_grouped_views_fold_every_type_into_one_row() {
        let engine = ViewEngine::new();
        engine.register("per-host", "(groupby=host)").unwrap();
        feed(&engine, &ev("h", "CPU_TOTAL", 1_000, 10.0));
        feed(&engine, &ev("h", "MEM_FREE", 2_000, 30.0));
        let snap = engine.by_name("per-host").unwrap().snapshot();
        let rows = snap.aggregator.as_ref().map(Aggregator::rows).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!((row.host.unwrap().as_str(), row.event_type), ("h", None));
        assert_eq!((row.count, row.mean), (2, Some(20.0)));
    }

    #[test]
    fn reregistering_replaces_and_lookup_by_text_uses_canonical_form() {
        let engine = ViewEngine::new();
        engine.register("v", "(host=h1)").unwrap();
        engine.register("v", "(host=h2)").unwrap();
        assert_eq!(engine.all().len(), 1);
        // Lookup key is the *canonical* display form.
        let canonical = Predicate::parse("(host=h2)").unwrap().to_string();
        assert!(engine.by_query_text(&canonical).is_some());
        assert!(engine.by_query_text("(host=h1)").is_none());
        // Bad queries are rejected with BadQuery.
        assert!(matches!(
            engine.register("bad", "(((").unwrap_err(),
            GatewayError::BadQuery(_)
        ));
    }
}
