//! The Distributed Parallel Storage System (DPSS) model.
//!
//! In the MATISSE demonstration the MEMS video frames lived on a DPSS — a
//! block-oriented, striped storage cluster at LBNL — and were pulled across
//! the WAN by the compute cluster.  For the reproduction we model the part
//! that matters to the monitoring story: a set of block servers, each with a
//! disk-read latency and its own TCP connection to the client, serving frame
//! requests striped round-robin across the servers.  The servers emit the
//! `DPSS_*` NetLogger events that appear as lifeline stages in Figure 7.

use std::collections::VecDeque;

use jamm_ulm::{keys, Event, Level};

use crate::host::HostId;
use crate::network::{FlowId, Network};
use crate::trace::TraceLog;

/// Default DPSS block size: 64 KB, as used by the real DPSS.
pub const DEFAULT_BLOCK_BYTES: u64 = 64 * 1024;

/// A block waiting for its simulated disk read to complete.
#[derive(Debug, Clone)]
struct PendingBlock {
    frame_id: u64,
    bytes: u64,
    ready_at_us: u64,
}

/// A block whose bytes have been handed to TCP but not yet fully delivered.
#[derive(Debug, Clone)]
struct InFlightBlock {
    frame_id: u64,
    remaining: u64,
    total: u64,
}

/// One DPSS block server.
#[derive(Debug, Clone)]
pub struct DpssServer {
    /// Host the server process runs on.
    pub host: HostId,
    /// Host name (cached for event emission).
    pub host_name: String,
    /// TCP connection from this server to the client.
    pub flow: FlowId,
    /// Simulated disk read latency per block, microseconds.
    pub disk_latency_us: u64,
    disk_queue: VecDeque<PendingBlock>,
    in_flight: VecDeque<InFlightBlock>,
    /// Total bytes served by this server.
    pub bytes_served: u64,
}

impl DpssServer {
    /// Create a server on `host` using `flow` towards the client.
    pub fn new(
        host: HostId,
        host_name: impl Into<String>,
        flow: FlowId,
        disk_latency_us: u64,
    ) -> Self {
        DpssServer {
            host,
            host_name: host_name.into(),
            flow,
            disk_latency_us,
            disk_queue: VecDeque::new(),
            in_flight: VecDeque::new(),
            bytes_served: 0,
        }
    }
}

/// Bytes of a particular frame delivered to the client during one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDelivery {
    /// The frame the bytes belong to.
    pub frame_id: u64,
    /// Number of bytes delivered.
    pub bytes: u64,
}

/// A striped DPSS cluster serving frames to a single client.
#[derive(Debug, Clone)]
pub struct DpssCluster {
    servers: Vec<DpssServer>,
    /// Stripe unit (block) size in bytes.
    pub block_bytes: u64,
    next_stripe: usize,
}

impl DpssCluster {
    /// Build a cluster from its servers.
    pub fn new(servers: Vec<DpssServer>, block_bytes: u64) -> Self {
        assert!(
            !servers.is_empty(),
            "a DPSS cluster needs at least one server"
        );
        assert!(block_bytes > 0);
        DpssCluster {
            servers,
            block_bytes,
            next_stripe: 0,
        }
    }

    /// Number of servers in the cluster.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The servers (read-only).
    pub fn servers(&self) -> &[DpssServer] {
        &self.servers
    }

    /// Request a frame of `frame_bytes` bytes.  Blocks are striped
    /// round-robin across the servers; each block becomes available to TCP
    /// after the server's disk latency.  Emits one `DPSS_SERV_IN` event per
    /// server that received part of the request.
    pub fn request_frame(
        &mut self,
        net: &Network,
        frame_id: u64,
        frame_bytes: u64,
        trace: &mut TraceLog,
    ) {
        let now = net.clock().now_us();
        let mut remaining = frame_bytes;
        let mut touched = vec![false; self.servers.len()];
        while remaining > 0 {
            let chunk = remaining.min(self.block_bytes);
            let idx = self.next_stripe % self.servers.len();
            self.next_stripe = self.next_stripe.wrapping_add(1);
            let server = &mut self.servers[idx];
            // Disk requests queue behind each other on the same spindle.
            let queue_delay = server.disk_queue.len() as u64 * (server.disk_latency_us / 4);
            server.disk_queue.push_back(PendingBlock {
                frame_id,
                bytes: chunk,
                ready_at_us: now + server.disk_latency_us + queue_delay,
            });
            touched[idx] = true;
            remaining -= chunk;
        }
        for (idx, was_touched) in touched.iter().enumerate() {
            if *was_touched {
                let server = &self.servers[idx];
                trace.record(
                    Event::builder("dpss_block_server", server.host_name.clone())
                        .level(Level::Usage)
                        .event_type(keys::matisse::DPSS_SERV_IN)
                        .timestamp(net.clock().timestamp())
                        .object_id(format!("frame-{frame_id}"))
                        .field("FRAME.ID", frame_id)
                        .build(),
                );
            }
        }
    }

    /// Advance the cluster by one tick *after* the network has been stepped:
    /// move disk-complete blocks onto their TCP flows and attribute bytes the
    /// network delivered this tick to the frames they belong to.
    pub fn tick(&mut self, net: &mut Network, trace: &mut TraceLog) -> Vec<FrameDelivery> {
        let now = net.clock().now_us();
        let ts = net.clock().timestamp();
        let mut deliveries: Vec<FrameDelivery> = Vec::new();

        for server in &mut self.servers {
            // Disk reads that completed become TCP payload.
            while let Some(block) = server.disk_queue.pop_front() {
                if block.ready_at_us > now {
                    server.disk_queue.push_front(block);
                    break;
                }
                trace.record(
                    Event::builder("dpss_block_server", server.host_name.clone())
                        .level(Level::Usage)
                        .event_type(keys::matisse::DPSS_START_WRITE)
                        .timestamp(ts)
                        .object_id(format!("frame-{}", block.frame_id))
                        .field("FRAME.ID", block.frame_id)
                        .field("BLOCK.SZ", block.bytes)
                        .build(),
                );
                net.flow_mut(server.flow).enqueue(block.bytes);
                server.in_flight.push_back(InFlightBlock {
                    frame_id: block.frame_id,
                    remaining: block.bytes,
                    total: block.bytes,
                });
            }

            // Attribute this tick's TCP deliveries to in-flight blocks, FIFO.
            let mut delivered = net.flow(server.flow).tick_report.delivered_bytes;
            server.bytes_served += delivered;
            while delivered > 0 {
                let Some(front) = server.in_flight.front_mut() else {
                    break;
                };
                let eaten = delivered.min(front.remaining);
                front.remaining -= eaten;
                delivered -= eaten;
                match deliveries.iter_mut().find(|d| d.frame_id == front.frame_id) {
                    Some(d) => d.bytes += eaten,
                    None => deliveries.push(FrameDelivery {
                        frame_id: front.frame_id,
                        bytes: eaten,
                    }),
                }
                if front.remaining == 0 {
                    trace.record(
                        Event::builder("dpss_block_server", server.host_name.clone())
                            .level(Level::Usage)
                            .event_type(keys::matisse::DPSS_END_WRITE)
                            .timestamp(ts)
                            .object_id(format!("frame-{}", front.frame_id))
                            .field("FRAME.ID", front.frame_id)
                            .field("BLOCK.SZ", front.total)
                            .build(),
                    );
                    server.in_flight.pop_front();
                }
            }
        }
        deliveries
    }

    /// Bytes queued on disks or in flight, across all servers.  Zero means
    /// every requested byte has been delivered.
    pub fn outstanding_bytes(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| {
                s.disk_queue.iter().map(|b| b.bytes).sum::<u64>()
                    + s.in_flight.iter().map(|b| b.remaining).sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::host::HostSpec;
    use crate::link::LinkSpec;

    /// One server, one client, fat LAN link.
    fn setup(n_servers: usize) -> (Network, DpssCluster, HostId) {
        let mut net = Network::new(SimClock::matisse(), 3);
        let client = net.add_host(HostSpec::new("client.lbl.gov"));
        let lan = net.add_link(LinkSpec::gige("lan"));
        let mut servers = Vec::new();
        for i in 0..n_servers {
            let name = format!("dpss{}.lbl.gov", i + 1);
            let h = net.add_host(HostSpec::new(name.clone()));
            let f = net.open_flow(
                format!("dpss{}", i + 1),
                h,
                client,
                7_000,
                vec![lan],
                1 << 20,
            );
            servers.push(DpssServer::new(h, name, f, 8_000));
        }
        let cluster = DpssCluster::new(servers, DEFAULT_BLOCK_BYTES);
        (net, cluster, client)
    }

    fn run_frame(
        net: &mut Network,
        cluster: &mut DpssCluster,
        trace: &mut TraceLog,
        frame_id: u64,
        frame_bytes: u64,
        max_ticks: u64,
    ) -> u64 {
        cluster.request_frame(net, frame_id, frame_bytes, trace);
        let mut got = 0;
        for tick in 0..max_ticks {
            net.step();
            for d in cluster.tick(net, trace) {
                assert_eq!(d.frame_id, frame_id);
                got += d.bytes;
            }
            if got >= frame_bytes {
                return tick;
            }
        }
        panic!("frame not delivered after {max_ticks} ticks (got {got}/{frame_bytes})");
    }

    #[test]
    fn single_server_delivers_a_full_frame() {
        let (mut net, mut cluster, _) = setup(1);
        let mut trace = TraceLog::new();
        let frame = 1_500_000;
        run_frame(&mut net, &mut cluster, &mut trace, 1, frame, 5_000);
        assert_eq!(cluster.outstanding_bytes(), 0);
        assert_eq!(cluster.servers()[0].bytes_served, frame);
        // One SERV_IN per touched server, START/END per block.
        assert_eq!(trace.by_type(keys::matisse::DPSS_SERV_IN).count(), 1);
        let blocks = (frame as f64 / DEFAULT_BLOCK_BYTES as f64).ceil() as usize;
        assert_eq!(
            trace.by_type(keys::matisse::DPSS_START_WRITE).count(),
            blocks
        );
        assert_eq!(trace.by_type(keys::matisse::DPSS_END_WRITE).count(), blocks);
    }

    #[test]
    fn striping_spreads_bytes_across_servers() {
        let (mut net, mut cluster, _) = setup(4);
        let mut trace = TraceLog::new();
        run_frame(&mut net, &mut cluster, &mut trace, 7, 2_000_000, 10_000);
        let served: Vec<u64> = cluster.servers().iter().map(|s| s.bytes_served).collect();
        assert!(
            served.iter().all(|&b| b > 0),
            "all servers served data: {served:?}"
        );
        let max = *served.iter().max().unwrap();
        let min = *served.iter().min().unwrap();
        assert!(
            max - min <= 2 * DEFAULT_BLOCK_BYTES,
            "stripe imbalance: {served:?}"
        );
        assert_eq!(trace.by_type(keys::matisse::DPSS_SERV_IN).count(), 4);
    }

    #[test]
    fn disk_latency_delays_first_delivery() {
        let (mut net, mut cluster, _) = setup(1);
        cluster.servers[0].disk_latency_us = 50_000; // 50 ms disk
        let mut trace = TraceLog::new();
        cluster.request_frame(&net, 1, 64 * 1024, &mut trace);
        let mut first_delivery_tick = None;
        for tick in 0..2_000u64 {
            net.step();
            let d = cluster.tick(&mut net, &mut trace);
            if !d.is_empty() && first_delivery_tick.is_none() {
                first_delivery_tick = Some(tick);
                break;
            }
        }
        let t = first_delivery_tick.expect("delivery happened");
        assert!(
            t >= 50,
            "nothing can arrive before the disk read finishes (tick {t})"
        );
    }

    #[test]
    fn interleaved_frames_are_attributed_separately() {
        let (mut net, mut cluster, _) = setup(2);
        let mut trace = TraceLog::new();
        cluster.request_frame(&net, 1, 300_000, &mut trace);
        cluster.request_frame(&net, 2, 300_000, &mut trace);
        let mut got = std::collections::HashMap::new();
        for _ in 0..20_000 {
            net.step();
            for d in cluster.tick(&mut net, &mut trace) {
                *got.entry(d.frame_id).or_insert(0u64) += d.bytes;
            }
            if cluster.outstanding_bytes() == 0 {
                break;
            }
        }
        assert_eq!(got.get(&1).copied(), Some(300_000));
        assert_eq!(got.get(&2).copied(), Some(300_000));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        let _ = DpssCluster::new(Vec::new(), DEFAULT_BLOCK_BYTES);
    }
}
