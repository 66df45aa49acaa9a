//! Well-known ULM / NetLogger field names.
//!
//! The four `DATE`/`HOST`/`PROG`/`LVL` fields are required by the ULM draft;
//! `NL.EVNT` is the NetLogger extension naming the event; the remaining
//! constants are the conventional field names used by the JAMM sensors so
//! that producers and consumers agree without a schema registry (the paper
//! defers schemas to the Grid Forum performance working group).

/// Required: event timestamp, `YYYYMMDDHHMMSS.ffffff` UTC.
pub const DATE: &str = "DATE";
/// Required: fully-qualified host name the event was generated on.
pub const HOST: &str = "HOST";
/// Required: name of the program (sensor or application) that produced it.
pub const PROG: &str = "PROG";
/// Required: severity / class of the event.
pub const LVL: &str = "LVL";
/// NetLogger extension: unique identifier for the event being logged.
pub const NL_EVNT: &str = "NL.EVNT";

/// Conventional field: identifier correlating events belonging to the same
/// object as it moves through the system (used to draw lifelines).
pub const OBJECT_ID: &str = "NL.OID";
/// Conventional field: numeric reading carried by a sensor event.
pub const VALUE: &str = "VAL";
/// Conventional field: name of the sensor that produced the event.
pub const SENSOR: &str = "SENSOR";
/// Conventional field: monitored target (interface, disk, port, process...).
pub const TARGET: &str = "TARGET";
/// Conventional field: units of [`VALUE`] ("percent", "bytes", "ops/s"...).
pub const UNITS: &str = "UNITS";

/// CPU sensor events.
pub mod cpu {
    /// Total CPU utilisation, percent.
    pub const TOTAL: &str = "CPU_TOTAL";
    /// User-mode CPU utilisation, percent (paper: `VMSTAT_USER_TIME`).
    pub const USER: &str = "VMSTAT_USER_TIME";
    /// System-mode CPU utilisation, percent (paper: `VMSTAT_SYS_TIME`).
    pub const SYS: &str = "VMSTAT_SYS_TIME";
    /// Interrupt rate, interrupts/second.
    pub const INTERRUPTS: &str = "VMSTAT_INTERRUPTS";
}

/// Memory sensor events.
pub mod mem {
    /// Free memory in kilobytes (paper: `VMSTAT_FREE_MEMORY`).
    pub const FREE: &str = "VMSTAT_FREE_MEMORY";
    /// Used memory in kilobytes.
    pub const USED: &str = "VMSTAT_USED_MEMORY";
}

/// TCP sensor events (netstat / instrumented tcpdump).
pub mod tcp {
    /// A retransmission was observed (paper: `TCPD_RETRANSMITS`).
    pub const RETRANSMITS: &str = "TCPD_RETRANSMITS";
    /// Current TCP window size in bytes.
    pub const WINDOW_SIZE: &str = "TCPD_WINDOW_SIZE";
    /// Cumulative retransmission counter from netstat.
    pub const RETRANS_COUNTER: &str = "NETSTAT_RETRANS";
}

/// Network / SNMP sensor events.
pub mod net {
    /// Input octets counter on an interface.
    pub const IF_IN_OCTETS: &str = "SNMP_IF_IN_OCTETS";
    /// Output octets counter on an interface.
    pub const IF_OUT_OCTETS: &str = "SNMP_IF_OUT_OCTETS";
    /// CRC / input error counter on an interface.
    pub const IF_ERRORS: &str = "SNMP_IF_ERRORS";
    /// Dropped packets counter on an interface.
    pub const IF_DROPS: &str = "SNMP_IF_DROPS";
}

/// Process sensor events.
pub mod process {
    /// Process started.
    pub const STARTED: &str = "PROC_STARTED";
    /// Process exited normally.
    pub const EXITED: &str = "PROC_EXITED";
    /// Process died abnormally.
    pub const DIED: &str = "PROC_DIED";
    /// A watched threshold was crossed.
    pub const THRESHOLD: &str = "PROC_THRESHOLD";
}

/// MATISSE / MPEG-player application events from the paper's Figure 7.
pub mod matisse {
    /// Client begins reading a frame from the network.
    pub const START_READ_FRAME: &str = "MPLAY_START_READ_FRAME";
    /// Client finished reading a frame.
    pub const END_READ_FRAME: &str = "MPLAY_END_READ_FRAME";
    /// Client begins rendering a frame.
    pub const START_PUT_IMAGE: &str = "MPLAY_START_PUT_IMAGE";
    /// Client finished rendering a frame.
    pub const END_PUT_IMAGE: &str = "MPLAY_END_PUT_IMAGE";
    /// DPSS server received a block request.
    pub const DPSS_SERV_IN: &str = "DPSS_SERV_IN";
    /// DPSS server finished reading the block from disk.
    pub const DPSS_START_WRITE: &str = "DPSS_START_WRITE";
    /// DPSS server finished sending the block.
    pub const DPSS_END_WRITE: &str = "DPSS_END_WRITE";
}

/// JAMM self-lifeline events: the monitoring pipeline instrumented with
/// its own NetLogger trace points.  A sampled published event is followed
/// through the pipeline by emitting one of these (sharing an `NL.OID`
/// correlation id) at each stage it passes; `netlogger::analysis::diagnose`
/// turns the resulting lifelines into per-stage latency breakdowns.
pub mod jamm {
    /// A sampled event entered a gateway (`publish`).
    pub const GW_PUBLISH: &str = "JAMM_GW_PUBLISH";
    /// The gateway finished routing the sampled event.
    pub const GW_ROUTED: &str = "JAMM_GW_ROUTED";
    /// The sampled event was pushed into a subscription queue
    /// (`TARGET` = consumer).
    pub const SUB_DELIVER: &str = "JAMM_SUB_DELIVER";
    /// A consumer drained the sampled event from its subscription queue
    /// (`TARGET` = consumer).
    pub const SUB_DRAIN: &str = "JAMM_SUB_DRAIN";
    /// The network edge encoded the sampled event for the wire.
    pub const EDGE_ENCODE: &str = "JAMM_EDGE_ENCODE";
    /// The network edge handed the sampled event's frame to the reactor
    /// for broadcast (socket writes happen on the loop thread after this).
    pub const EDGE_BROADCAST: &str = "JAMM_EDGE_BROADCAST";
    /// The archiver stored the sampled event (`TARGET` = archiver).
    pub const ARCHIVE_APPEND: &str = "JAMM_ARCHIVE_APPEND";

    /// The consumer principal of the network edge's gateway subscription:
    /// the `TARGET` of its `SUB_DELIVER` and `SUB_DRAIN` points and the
    /// consumer of its row in the gateway's tier table.
    pub const EDGE_CONSUMER: &str = "edge";

    /// Canonical pipeline order of the self-lifeline stages, for nlv
    /// charts and stage-pair analysis.
    pub const STAGES: [&str; 7] = [
        GW_PUBLISH,
        GW_ROUTED,
        SUB_DELIVER,
        SUB_DRAIN,
        EDGE_ENCODE,
        EDGE_BROADCAST,
        ARCHIVE_APPEND,
    ];
}

/// All four required ULM field names, in canonical output order.
pub const REQUIRED: [&str; 4] = [DATE, HOST, PROG, LVL];

/// Every name this module defines: what [`crate::vocab`] is seeded with.
pub const ALL: [&str; 42] = [
    DATE,
    HOST,
    PROG,
    LVL,
    NL_EVNT,
    OBJECT_ID,
    VALUE,
    SENSOR,
    TARGET,
    UNITS,
    cpu::TOTAL,
    cpu::USER,
    cpu::SYS,
    cpu::INTERRUPTS,
    mem::FREE,
    mem::USED,
    tcp::RETRANSMITS,
    tcp::WINDOW_SIZE,
    tcp::RETRANS_COUNTER,
    net::IF_IN_OCTETS,
    net::IF_OUT_OCTETS,
    net::IF_ERRORS,
    net::IF_DROPS,
    process::STARTED,
    process::EXITED,
    process::DIED,
    process::THRESHOLD,
    matisse::START_READ_FRAME,
    matisse::END_READ_FRAME,
    matisse::START_PUT_IMAGE,
    matisse::END_PUT_IMAGE,
    matisse::DPSS_SERV_IN,
    matisse::DPSS_START_WRITE,
    matisse::DPSS_END_WRITE,
    jamm::GW_PUBLISH,
    jamm::GW_ROUTED,
    jamm::SUB_DELIVER,
    jamm::SUB_DRAIN,
    jamm::EDGE_ENCODE,
    jamm::EDGE_BROADCAST,
    jamm::ARCHIVE_APPEND,
    jamm::EDGE_CONSUMER,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_fields_are_the_ulm_draft_set() {
        assert_eq!(REQUIRED, ["DATE", "HOST", "PROG", "LVL"]);
    }

    #[test]
    fn all_lists_every_name_this_module_defines() {
        let defined = include_str!("keys.rs")
            .lines()
            .filter(|l| l.trim_start().starts_with("pub const ") && l.contains(": &str ="))
            .count();
        assert_eq!(ALL.len(), defined);
        let distinct: std::collections::HashSet<_> = ALL.iter().collect();
        assert_eq!(distinct.len(), ALL.len());
    }

    #[test]
    fn figure7_event_names_match_paper() {
        assert_eq!(cpu::SYS, "VMSTAT_SYS_TIME");
        assert_eq!(mem::FREE, "VMSTAT_FREE_MEMORY");
        assert_eq!(tcp::RETRANSMITS, "TCPD_RETRANSMITS");
        assert_eq!(matisse::START_READ_FRAME, "MPLAY_START_READ_FRAME");
    }
}
