//! [`JammSystem::query`]: one query string answered by every tier the
//! deployment has, and the answer types it returns.

use jamm_core::query::{AggRow, Aggregator, Predicate};
use jamm_ulm::{Event, SharedEvent};

use crate::system::JammSystem;

impl JammSystem {
    /// The unified query endpoint: one query string, answered by every
    /// tier the deployment has.
    ///
    /// The text parses into a single query-plane predicate
    /// ([`jamm_core::query::Predicate::parse`]) whose compiled plan is
    /// evaluated against:
    ///
    /// * **live state** — every gateway's query cache (the most recent
    ///   event per series), via the same plan the gateways route with;
    /// * **summaries** — each gateway's windowed averages of the series
    ///   whose host and event type the plan's pushdown facts admit (a
    ///   `(type=CPU_TOTAL)` query gets the `CPU_TOTAL_AVG_1MIN` summary of
    ///   the `CPU_TOTAL` series, and nothing of a series with another type);
    /// * **history** — materialized views when every gateway holds one
    ///   matching the query exactly (snapshot reads, no scan), else a
    ///   plan-driven archive scan with full segment pruning and limit
    ///   pushdown.  The answer's
    ///   [`QueryAnswer::history_source`] says which tier served it, and the
    ///   `jamm_query_views_served` / `jamm_query_archive_scans` counters
    ///   of [`JammSystem::metrics`] count both.
    ///
    /// Access control applies per gateway exactly as for direct queries
    /// and summary requests.
    pub fn query(
        &self,
        consumer: &str,
        query: &str,
        now: jamm_ulm::Timestamp,
    ) -> Result<QueryAnswer, QueryError> {
        let pred = Predicate::parse(query).map_err(|e| QueryError::BadQuery(e.to_string()))?;
        let plan = pred.compile();
        let canonical = pred.to_string();
        let denied = |e: jamm_gateway::GatewayError| QueryError::Denied(e.to_string());
        let mut live = Vec::new();
        let mut summaries = Vec::new();
        let mut views = Vec::new();
        for gw in &self.gateways {
            live.extend(gw.query_matching(consumer, &plan).map_err(denied)?);
            summaries.extend(gw.summaries(consumer, &plan, now).map_err(denied)?);
            if let Some(view) = gw.views().by_query_text(&canonical) {
                views.push((gw, view));
            }
        }
        let mut view_names = Vec::new();
        let mut view_updates = 0u64;
        let mut view_history: Vec<SharedEvent> = Vec::new();
        let mut view_groups: Option<Aggregator> = None;
        // Continuous queries materializing exactly this predicate
        // (canonical text match) answer history from their snapshots —
        // one Arc clone each, no archive scan, no per-reader work — but
        // only when every gateway has one: a gateway without a view would
        // contribute nothing, so then the archive answers.
        if views.len() == self.gateways.len() {
            for (gw, view) in views {
                let snap = view.snapshot();
                view_names.push(format!("{}/{}", gw.name(), view.name()));
                view_updates += snap.updates;
                view_history.extend(snap.events.iter().cloned());
                // Each gateway's groups are merged before the one top-k
                // cut, so a group seen at two gateways is one row.
                if let Some(groups) = &snap.aggregator {
                    match &mut view_groups {
                        Some(merged) => merged.merge(groups),
                        None => view_groups = Some(groups.clone()),
                    }
                }
            }
        }
        let mut aggregates: Vec<AggRow> = Vec::new();
        let (history, history_source) = if view_names.is_empty() {
            // The historical scan runs through its own plan clone (fresh
            // stateful memory), with segment pruning and limit pushdown.
            // Provenance comes from the scan itself: the store-wide
            // counters also move under every concurrent reader.
            let scan = self.archive.scan(&plan);
            let source = HistorySource::ArchiveScan {
                segments_scanned: scan.segments_scanned(),
                segments_pruned: scan.segments_pruned(),
            };
            let history: Vec<Event> = scan.collect();
            self.archive_scans.inc();
            // Ad-hoc aggregate queries fold the scan result; continuous
            // queries maintain theirs incrementally.
            if let Some(spec) = plan.aggregate() {
                let mut agg = Aggregator::new(spec.clone());
                for event in &history {
                    agg.push(event);
                }
                aggregates = agg.rows();
            }
            (history, source)
        } else {
            self.views_served.inc();
            let source = HistorySource::MaterializedView {
                views: view_names,
                updates: view_updates,
            };
            if let Some(merged) = view_groups {
                aggregates = merged.rows();
            }
            // Each ring is in its gateway's publish order; the stable
            // sort interleaves the gateways in time.  A `(limit=N)` keeps
            // the earliest N, as the archive scan does, and only those
            // are copied out.
            view_history.sort_by_key(|e| e.timestamp);
            if let Some(limit) = plan.limit() {
                view_history.truncate(limit);
            }
            let history = view_history.iter().map(|e| (**e).clone()).collect();
            (history, source)
        };
        Ok(QueryAnswer {
            live,
            summaries,
            history,
            aggregates,
            history_source,
        })
    }

    /// Register a continuous query on every gateway: from now on each
    /// gateway maintains the materialized view on its publish path, and
    /// [`JammSystem::query`] with the same predicate text is served from
    /// view snapshots instead of archive scans.
    pub fn register_continuous_query(&self, name: &str, text: &str) -> Result<(), QueryError> {
        for gw in &self.gateways {
            gw.register_view(name, text)
                .map_err(|e| QueryError::BadQuery(e.to_string()))?;
        }
        Ok(())
    }
}

/// What [`JammSystem::query`] returns: the same question answered by each
/// tier of the deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Most recent matching event per live series, from every gateway's
    /// query cache (shared handles; nothing is copied).
    pub live: Vec<SharedEvent>,
    /// Windowed summary events whose series the query selects.
    pub summaries: Vec<Event>,
    /// Matching archived history, in time order; a `(limit=N)` keeps the
    /// earliest N, whether views or the archive scan served it.
    pub history: Vec<Event>,
    /// Aggregate rows when the query carries group-by / top-k
    /// directives, ranked and cut to top-k once over the whole
    /// deployment — merged from every gateway's incrementally maintained
    /// groups when views served the query, folded from the scan
    /// otherwise.
    pub aggregates: Vec<AggRow>,
    /// Which tier produced [`QueryAnswer::history`].
    pub history_source: HistorySource,
}

/// Provenance of a [`QueryAnswer`]'s history: which tier actually did
/// the work.  Tests and `admin.diagnose` assert on this instead of
/// guessing from timings.
#[derive(Debug, Clone, PartialEq)]
pub enum HistorySource {
    /// Served from continuous-query snapshots — no archive scan ran.
    MaterializedView {
        /// `gateway/view` labels of every snapshot consulted.
        views: Vec<String>,
        /// Total publish-path updates folded into those snapshots.
        updates: u64,
    },
    /// Served by scanning the archive.
    ArchiveScan {
        /// Segments whose catalog admitted the query.  The scan opens them
        /// lazily, in time order, so a `(limit=N)` may stop short of some.
        segments_scanned: u64,
        /// Segments skipped whole by catalog pruning.
        segments_pruned: u64,
    },
}

/// Errors from [`JammSystem::query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query string did not parse.
    BadQuery(String),
    /// A gateway's access policy rejected the consumer.
    Denied(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BadQuery(e) => write!(f, "bad query: {e}"),
            QueryError::Denied(e) => write!(f, "query denied: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}
