//! The archiver agent.
//!
//! "This consumer is used to collect data for an archive service.  It
//! subscribes to the logging agents, collects the event data, and places it
//! in the archive.  It also creates an archive directory service entry
//! indicating the contents of the archive." (§2.2)

use std::sync::Arc;

use jamm_core::flow::EventSource;
use jamm_directory::{DirectoryError, DirectoryServer, Dn, Entry};
use jamm_gateway::{PipelineTracer, Predicate, Subscription};
use jamm_tsdb::Tsdb;
use jamm_ulm::{binary, SharedEvent, Timestamp};

use crate::{GatewayRegistry, SubscribeError};

/// Subscribes to gateways and stores everything that matches its filters.
pub struct ArchiverAgent {
    consumer: String,
    archive: Arc<Tsdb>,
    subscriptions: Vec<Subscription>,
    /// DN under which the archive's catalog entry is published.
    catalog_dn: Dn,
    /// Segment ids whose directory entries we have published, so stale
    /// entries can be deleted when segments are compacted or expired.
    published_segments: std::collections::BTreeSet<u64>,
    /// Reusable drain scratch: subscriptions drain shared events into this
    /// buffer, the archive stores straight from it, and `clear()` keeps
    /// the capacity — the steady-state poll loop allocates nothing.  After
    /// a failed store the drained batch simply stays here for retry, so a
    /// transient disk error never loses events.
    batch: Vec<SharedEvent>,
    /// Self-lifeline tracer: watched events get a `JAMM_ARCHIVE_APPEND`
    /// trace point once their batch is durably stored.
    tracer: Option<Arc<PipelineTracer>>,
}

impl ArchiverAgent {
    /// Create an archiver writing into `archive`, publishing its catalog at
    /// `catalog_dn`.
    pub fn new(consumer: impl Into<String>, archive: Arc<Tsdb>, catalog_dn: Dn) -> Self {
        ArchiverAgent {
            consumer: consumer.into(),
            archive,
            subscriptions: Vec::new(),
            catalog_dn,
            published_segments: std::collections::BTreeSet::new(),
            batch: Vec::new(),
            tracer: None,
        }
    }

    /// Attach the self-lifeline tracer: every watched event this archiver
    /// stores gets a `JAMM_ARCHIVE_APPEND` trace point.
    pub fn set_tracer(&mut self, tracer: Arc<PipelineTracer>) {
        self.tracer = Some(tracer);
    }

    /// The archive being written.
    pub fn archive(&self) -> &Arc<Tsdb> {
        &self.archive
    }

    /// Subscribe to a gateway with the conjunction of the given predicates
    /// (the paper stresses the archive selects what to keep — "in some
    /// environments very little will be monitored, and in others, it may
    /// be desirable to archive everything"; an empty vector is
    /// everything).  A `Predicate::types([..])` among them registers the
    /// subscription only in the gateway router's buckets for those types —
    /// an archiver that keeps, say, `TCPD_RETRANSMITS` and `PROC_DIED` is
    /// never even looked at when the high-rate CPU/memory readings are
    /// published.
    pub fn subscribe(
        &mut self,
        registry: &GatewayRegistry,
        gateway_name: &str,
        filters: Vec<Predicate>,
    ) -> Result<(), SubscribeError> {
        let Some(gateway) = registry.resolve(gateway_name) else {
            return Err(SubscribeError::UnknownGateway(gateway_name.to_string()));
        };
        let sub = gateway
            .subscribe()
            .stream()
            .filter(Predicate::And(filters))
            .as_consumer(self.consumer.clone())
            .open()?;
        self.subscriptions.push(sub);
        Ok(())
    }

    /// Drain pending events into the archive.  All subscriptions drain
    /// into one reused scratch buffer whose shared events are stored under
    /// a single archive lock (and, for a persistent archive, one WAL
    /// write) without copying any event.  If the store fails (e.g. a
    /// transient disk error under a persistent archive) the batch stays in
    /// the scratch buffer and is retried on the next poll rather than
    /// lost; while a retry batch is outstanding no further draining
    /// happens, so the held batch is bounded and the *subscriptions'*
    /// bounded queues absorb the backlog (dropping their oldest when full).
    /// Returns how many were stored.
    pub fn poll(&mut self) -> usize {
        if self.batch.is_empty() {
            for sub in &mut self.subscriptions {
                sub.drain_into(&mut self.batch);
            }
        }
        if self.batch.is_empty() {
            return 0;
        }
        match self.archive.append_shared_batch(&self.batch) {
            Ok(n) => {
                if let Some(tracer) = &self.tracer {
                    // Trace points only after the store succeeded: an
                    // `ARCHIVE_APPEND` on a lifeline means durably kept,
                    // so the events the store refused get none.
                    let kept = self.batch.iter().filter(|e| binary::encodable(e));
                    for event in kept {
                        tracer.stage(event, jamm_ulm::keys::jamm::ARCHIVE_APPEND, &self.consumer);
                    }
                }
                // Keep the capacity: the next poll drains into the same
                // allocation.
                self.batch.clear();
                n
            }
            Err(_) => 0,
        }
    }

    /// Events drained from subscriptions but still awaiting a successful
    /// store (non-zero only after a storage error).
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    /// Publish (or refresh) the archive's catalog entry in the directory,
    /// plus one child entry per sealed segment ("It also creates an
    /// archive directory service entry indicating the contents of the
    /// archive" — per-segment entries let a consumer see *which* slice of
    /// history each immutable segment covers).  Stale segment entries
    /// (merged away by compaction or expired by retention) are removed.
    ///
    /// Segment entries are written once (see
    /// [`ArchiverAgent::publish_segment_catalogs`]); the archive's own
    /// entry doubles as the marker that they are still there.  When this
    /// directory does not hold it — a restarted master, a replica that
    /// lost state, a different directory than last pass — every segment
    /// entry is published again.
    pub fn publish_catalog(&mut self, directory: &Arc<DirectoryServer>, now: Timestamp) -> bool {
        if let Err(DirectoryError::NoSuchEntry(_)) = directory.lookup(&self.catalog_dn) {
            self.published_segments.clear();
        }
        let catalog = self.archive.catalog();
        let mut entry = Entry::new(self.catalog_dn.clone())
            .with("objectclass", "eventarchive")
            .with("eventcount", catalog.event_count.to_string())
            .with("lastupdate", now.to_ulm_date());
        if let Some(earliest) = catalog.earliest {
            entry.add("earliest", earliest.to_ulm_date());
        }
        if let Some(latest) = catalog.latest {
            entry.add("latest", latest.to_ulm_date());
        }
        for ty in catalog.event_types.keys() {
            entry.add("eventtype", ty.clone());
        }
        for host in catalog.hosts.keys() {
            entry.add("host", host.clone());
        }
        if directory.add_or_replace(entry).is_err() {
            return false;
        }
        self.publish_segment_catalogs(directory, now);
        true
    }

    /// Publish one directory entry per sealed segment under the archive's
    /// catalog DN and drop entries for segments that no longer exist.
    /// Segments are immutable, so an entry is written once: a pass costs
    /// what changed since the last one, not the size of the archive (and a
    /// segment entry's `lastupdate` is when it was published).
    /// Returns how many segment entries are now published.
    pub fn publish_segment_catalogs(
        &mut self,
        directory: &Arc<DirectoryServer>,
        now: Timestamp,
    ) -> usize {
        let mut live = std::collections::BTreeSet::new();
        let mut fresh = Vec::new();
        self.archive.for_each_segment_catalog(|c| {
            live.insert(c.id);
            if self.published_segments.contains(&c.id) {
                return;
            }
            let mut entry = Entry::new(self.segment_dn(c.id))
                .with("objectclass", "archivesegment")
                .with("segmentid", c.id.to_string())
                .with("eventcount", c.event_count.to_string())
                .with("earliest", c.min_ts.to_ulm_date())
                .with("latest", c.max_ts.to_ulm_date())
                .with("lastupdate", now.to_ulm_date());
            for ty in c.event_types.keys() {
                entry.add("eventtype", ty.clone());
            }
            for host in c.hosts.keys() {
                entry.add("host", host.clone());
            }
            fresh.push((c.id, entry));
        });
        // Remove entries for segments that were compacted or expired.
        for id in &self.published_segments {
            if !live.contains(id) {
                let _ = directory.delete(&self.segment_dn(*id));
            }
        }
        self.published_segments.retain(|id| live.contains(id));
        for (id, entry) in fresh {
            // A refused entry stays unpublished and is retried next pass.
            if directory.add_or_replace(entry).is_ok() {
                self.published_segments.insert(id);
            }
        }
        self.published_segments.len()
    }

    fn segment_dn(&self, id: u64) -> Dn {
        self.catalog_dn.child("segment", id.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_gateway::{EventGateway, GatewayConfig};
    use jamm_ulm::{Event, Level};

    fn ev(host: &str, ty: &str, t: u64, level: Level) -> Event {
        Event::builder("sensor", host)
            .level(level)
            .event_type(ty)
            .timestamp(Timestamp::from_secs(t))
            .value(1.0)
            .build()
    }

    fn setup() -> (
        GatewayRegistry,
        Arc<EventGateway>,
        ArchiverAgent,
        Arc<DirectoryServer>,
    ) {
        let gw = Arc::new(EventGateway::new(GatewayConfig::open("gw1")));
        let mut reg = GatewayRegistry::new();
        reg.register("gw1", Arc::clone(&gw));
        let archive = Arc::new(Tsdb::in_memory());
        let agent = ArchiverAgent::new(
            "archiver",
            archive,
            Dn::parse("archive=main,o=lbl,o=grid").unwrap(),
        );
        let dir = Arc::new(DirectoryServer::new(
            "ldap://dir",
            Dn::parse("o=grid").unwrap(),
        ));
        (reg, gw, agent, dir)
    }

    #[test]
    fn archives_what_it_subscribed_to() {
        let (reg, gw, mut agent, _) = setup();
        // Archive only warnings and worse: a sampling of "abnormal" operation.
        assert!(agent
            .subscribe(
                &reg,
                "gw1",
                vec![Predicate::MinLevel(Level::Warning.severity())]
            )
            .is_ok());
        assert_eq!(
            agent.subscribe(&reg, "missing", vec![]),
            Err(SubscribeError::UnknownGateway("missing".to_string()))
        );
        gw.publish(&ev("h", "CPU_TOTAL", 1, Level::Usage));
        gw.publish(&ev("h", "TCPD_RETRANSMITS", 2, Level::Warning));
        gw.publish(&ev("h", "PROC_DIED", 3, Level::Error));
        assert_eq!(agent.poll(), 2);
        assert_eq!(agent.archive().len(), 2);
        assert_eq!(agent.poll(), 0, "nothing new");
    }

    /// An event the store refuses (a string no frame can carry) does not
    /// wedge the archiver: its batch succeeds without it, and the next
    /// poll stores new events.
    #[test]
    fn an_oversized_event_does_not_wedge_the_archiver() {
        let (reg, gw, mut agent, _) = setup();
        agent.subscribe(&reg, "gw1", vec![]).unwrap();
        let mut big = ev("h", "BIG", 2, Level::Usage);
        big.fields.push(("BLOB".into(), "x".repeat(70_000).into()));
        gw.publish(&ev("h", "CPU_TOTAL", 1, Level::Usage));
        gw.publish(&big);
        assert_eq!(agent.poll(), 1);
        assert_eq!(agent.pending(), 0);
        gw.publish(&ev("h", "CPU_TOTAL", 3, Level::Usage));
        assert_eq!(agent.poll(), 1);
        assert_eq!(agent.archive().len(), 2);
        assert_eq!(agent.archive().stats().oversized_events(), 1);
    }

    #[test]
    fn typed_subscription_archives_only_the_named_types() {
        let (reg, gw, mut agent, _) = setup();
        agent
            .subscribe(
                &reg,
                "gw1",
                vec![
                    Predicate::types(["TCPD_RETRANSMITS", "PROC_DIED"]),
                    Predicate::MinLevel(Level::Warning.severity()),
                ],
            )
            .unwrap();
        gw.publish(&ev("h", "CPU_TOTAL", 1, Level::Usage));
        gw.publish(&ev("h", "TCPD_RETRANSMITS", 2, Level::Warning));
        gw.publish(&ev("h", "PROC_DIED", 3, Level::Error));
        gw.publish(&ev("h", "PROC_DIED", 4, Level::Usage)); // below floor
        assert_eq!(agent.poll(), 2);
        assert_eq!(agent.archive().len(), 2);
    }

    #[test]
    fn catalog_entry_is_published_and_refreshed() {
        let (reg, gw, mut agent, dir) = setup();
        agent.subscribe(&reg, "gw1", vec![]).unwrap();
        gw.publish(&ev("dpss1.lbl.gov", "CPU_TOTAL", 10, Level::Usage));
        gw.publish(&ev(
            "mems.cairn.net",
            "TCPD_RETRANSMITS",
            20,
            Level::Warning,
        ));
        agent.poll();
        assert!(agent.publish_catalog(&dir, Timestamp::from_secs(100)));
        let dn = Dn::parse("archive=main,o=lbl,o=grid").unwrap();
        let date = |s: u64| Timestamp::from_secs(s).to_ulm_date();
        // Every attribute of the entry, in attribute-name order.
        let expected = |count: &str, latest: u64, update: u64| -> Vec<(String, Vec<String>)> {
            [
                ("earliest", vec![date(10)]),
                ("eventcount", vec![count.into()]),
                (
                    "eventtype",
                    vec!["CPU_TOTAL".into(), "TCPD_RETRANSMITS".into()],
                ),
                (
                    "host",
                    vec!["dpss1.lbl.gov".into(), "mems.cairn.net".into()],
                ),
                ("lastupdate", vec![date(update)]),
                ("latest", vec![date(latest)]),
                ("objectclass", vec!["eventarchive".into()]),
            ]
            .into_iter()
            .map(|(attr, values)| (attr.to_string(), values))
            .collect()
        };
        let published = || -> Vec<(String, Vec<String>)> {
            let entry = dir.lookup(&dn).unwrap();
            entry
                .attributes()
                .map(|(attr, values)| (attr.to_string(), values.to_vec()))
                .collect()
        };
        assert_eq!(published(), expected("2", 20, 100));
        // More data arrives; the refreshed catalog reflects it.
        gw.publish(&ev("dpss1.lbl.gov", "CPU_TOTAL", 30, Level::Usage));
        agent.poll();
        agent.publish_catalog(&dir, Timestamp::from_secs(200));
        assert_eq!(published(), expected("3", 30, 200));
    }

    #[test]
    fn poll_batches_into_a_single_store_call() {
        let (reg, gw, mut agent, _) = setup();
        agent.subscribe(&reg, "gw1", vec![]).unwrap();
        for t in 0..50 {
            gw.publish(&ev("h", "CPU_TOTAL", t, Level::Usage));
        }
        assert_eq!(agent.poll(), 50);
        assert_eq!(agent.archive().len(), 50);
        // One batched append of 50, not 50 appends of 1.
        assert_eq!(agent.archive().stats().appended(), 50);
    }

    #[test]
    fn flush_seals_and_segment_catalogs_are_published() {
        let (reg, gw, mut agent, dir) = setup();
        agent.subscribe(&reg, "gw1", vec![]).unwrap();
        for t in 0..10 {
            gw.publish(&ev("dpss1.lbl.gov", "CPU_TOTAL", t, Level::Usage));
        }
        agent.poll();
        let sealed = agent
            .archive()
            .seal()
            .unwrap()
            .expect("memtable had events");
        assert_eq!(sealed.event_count, 10);
        assert!(
            agent.archive().seal().unwrap().is_none(),
            "nothing left to seal"
        );

        agent.publish_catalog(&dir, Timestamp::from_secs(100));
        let seg_dn =
            Dn::parse(&format!("segment={},archive=main,o=lbl,o=grid", sealed.id)).unwrap();
        let entry = dir.lookup(&seg_dn).unwrap();
        assert_eq!(entry.get("eventcount"), Some("10"));
        assert!(entry.has_value("eventtype", "CPU_TOTAL"));
        assert!(entry.has_value("host", "dpss1.lbl.gov"));

        // Expire everything: the stale segment entry disappears on the
        // next publication.
        agent.archive().retain(Timestamp::from_secs(1_000)).unwrap();
        agent.publish_catalog(&dir, Timestamp::from_secs(200));
        assert!(dir.lookup(&seg_dn).is_err(), "stale segment entry removed");
    }

    #[test]
    fn a_failed_seal_is_surfaced_and_loses_nothing() {
        let dir = jamm_tsdb::test_util::TempDir::new("archiver-failed-seal");
        let store = dir.path().join("store");
        let archive = Arc::new(Tsdb::open(&store).unwrap());
        let (reg, gw, _, _) = setup();
        let mut agent = ArchiverAgent::new(
            "archiver",
            Arc::clone(&archive),
            Dn::parse("archive=main,o=lbl,o=grid").unwrap(),
        );
        agent.subscribe(&reg, "gw1", vec![]).unwrap();
        for t in 0..25 {
            gw.publish(&ev("h", "CPU_TOTAL", t, Level::Usage));
        }
        assert_eq!(agent.poll(), 25);
        assert_eq!(agent.pending(), 0);

        // The store directory vanishes: the segment file cannot be written.
        let before: Vec<Event> = archive.scan_str("(&)").unwrap().collect();
        std::fs::remove_dir_all(&store).unwrap();
        assert!(archive.seal().is_err());
        assert_eq!(archive.stats().seal_errors(), 1, "the refusal is counted");
        assert_eq!(archive.memtable_len(), 25, "nothing moved");
        // A second failing seal does not re-insert or reorder anything.
        assert!(agent.archive().seal().is_err());
        assert_eq!(archive.stats().seal_errors(), 2);
        assert_eq!(archive.memtable_len(), 25);
        assert_eq!(archive.segment_count(), 0);
        let after: Vec<Event> = archive.scan_str("(&)").unwrap().collect();
        assert_eq!(after, before, "nothing lost, same order");

        // The directory comes back: the retried seal keeps every event.
        std::fs::create_dir_all(&store).unwrap();
        let sealed = agent
            .archive()
            .seal()
            .unwrap()
            .expect("the untouched memtable seals");
        assert_eq!(sealed.event_count, 25);
        assert_eq!(archive.scan_str("(&)").unwrap().count(), 25);
    }

    #[test]
    fn a_maintenance_pass_publishes_only_what_changed() {
        use jamm_directory::{Filter, Scope};
        let (reg, gw, mut agent, dir) = setup();
        agent.subscribe(&reg, "gw1", vec![]).unwrap();
        let mut t = 0;
        let mut seal = |agent: &mut ArchiverAgent, n: usize| {
            for _ in 0..n {
                for _ in 0..5 {
                    gw.publish(&ev("dpss1.lbl.gov", "CPU_TOTAL", t, Level::Usage));
                    t += 1;
                }
                agent.poll();
                agent.archive().seal().unwrap().expect("five events seal");
            }
        };
        let catalog_dn = Dn::parse("archive=main,o=lbl,o=grid").unwrap();
        let segments = || {
            let filter = Filter::eq("objectclass", "archivesegment");
            dir.search(&catalog_dn, Scope::OneLevel, &filter)
                .unwrap()
                .entries
        };
        let writes = || {
            dir.stats()
                .writes
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        let stamp = |secs| Timestamp::from_secs(secs).to_ulm_date();

        // k seals, one pass: the archive entry plus k segment entries.
        seal(&mut agent, 3);
        agent.publish_catalog(&dir, Timestamp::from_secs(100));
        assert_eq!(segments().len(), 3);
        assert_eq!(writes(), 1 + 3);

        // m more seals: the next pass writes exactly m segment entries and
        // leaves the old ones alone.
        seal(&mut agent, 2);
        let before = writes();
        agent.publish_catalog(&dir, Timestamp::from_secs(200));
        assert_eq!(writes() - before, 1 + 2);
        let updated: Vec<String> = segments()
            .iter()
            .map(|e| e.get("lastupdate").unwrap().to_string())
            .collect();
        assert_eq!(
            updated,
            [stamp(100), stamp(100), stamp(100), stamp(200), stamp(200)]
        );
        // Nothing changed: a pass refreshes the archive entry only.
        let before = writes();
        assert_eq!(
            agent.publish_segment_catalogs(&dir, Timestamp::from_secs(250)),
            5
        );
        assert_eq!(writes(), before);

        // Compaction merges the run of five: their entries go, exactly the
        // merged segment's entry is added.
        assert_eq!(agent.archive().compact().unwrap(), 4);
        let before = writes();
        agent.publish_catalog(&dir, Timestamp::from_secs(300));
        assert_eq!(writes() - before, 1 + 5 + 1);
        let left = segments();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].get("eventcount"), Some("25"));
        assert_eq!(left[0].get("lastupdate"), Some(stamp(300).as_str()));
    }

    #[test]
    fn a_directory_that_lost_its_entries_is_republished() {
        use jamm_directory::{Filter, Scope};
        let (reg, gw, mut agent, dir) = setup();
        agent.subscribe(&reg, "gw1", vec![]).unwrap();
        for t in 0..3 {
            gw.publish(&ev("dpss1.lbl.gov", "CPU_TOTAL", t, Level::Usage));
            agent.poll();
            agent.archive().seal().unwrap().expect("one event seals");
        }
        let catalog_dn = Dn::parse("archive=main,o=lbl,o=grid").unwrap();
        let segments = |dir: &DirectoryServer| {
            let filter = Filter::eq("objectclass", "archivesegment");
            let found = dir.search(&catalog_dn, Scope::OneLevel, &filter).unwrap();
            found.entries.len()
        };
        assert!(agent.publish_catalog(&dir, Timestamp::from_secs(100)));
        assert_eq!(segments(&dir), 3);

        // The master restarts empty: the next pass finds its archive entry
        // gone and writes every segment entry again, not only new ones.
        let restarted = Arc::new(DirectoryServer::new(
            "ldap://dir",
            Dn::parse("o=grid").unwrap(),
        ));
        assert!(agent.publish_catalog(&restarted, Timestamp::from_secs(200)));
        assert_eq!(segments(&restarted), 3);
        // Healed: the pass after that is incremental again.
        let writes = &restarted.stats().writes;
        let before = writes.load(std::sync::atomic::Ordering::Relaxed);
        assert!(agent.publish_catalog(&restarted, Timestamp::from_secs(300)));
        assert_eq!(
            writes.load(std::sync::atomic::Ordering::Relaxed) - before,
            1
        );
    }
}
