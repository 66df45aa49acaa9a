//! Wiring the system under test: one `JammBuilder` deployment per topology,
//! its remote subscribers over loopback TCP, and the scratch directory a
//! persistent archive lives in.  Public APIs only.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use jamm::jamm_gateway::{GatewayConfig, Subscription};
use jamm::jamm_rmi::edge::{EdgeClient, EdgeClientConfig};
use jamm::{JammBuilder, JammSystem};

use crate::gen::{host_name, EVENT_TYPES, GATEWAY, THRESHOLDS};

/// The continuous query `full_pipeline` registers and reads back.
pub const VIEW_QUERY: &str = "(&(type=CPU_TOTAL)(groupby=host)(topk=5))";

/// Everything the bench writes goes under the build directory of the
/// checkout it runs in: `$CARGO_TARGET_DIR/e21`, or `target/e21`.
pub fn scratch_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("e21")
}

/// A uniquely named directory under [`scratch_root`], removed on drop — so
/// also when a run fails or a check panics.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Result<ScratchDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = scratch_root().join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Which parts of the deployment a workload switches on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Topology {
    /// Remote `EdgeClient` connections (0 = no network edge).
    pub clients: usize,
    /// The 16 local filtered subscriptions.
    pub local_subs: bool,
    /// Persistent archiver.
    pub archiver: bool,
    /// In-process collector.
    pub collector: bool,
    /// Registered continuous query, read back as a dashboard would.
    pub view: bool,
}

/// What a local filtered subscription must receive, in the tap's terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Type(usize),
    Host(usize),
    OverThreshold(usize),
}

pub struct LocalSub {
    pub query: String,
    pub expect: Expect,
    pub sub: Subscription,
    pub received: u64,
}

/// The 16 local subscriptions of `stream_edge`: one per event type, one per
/// each of six hosts, one per CPU threshold.
fn local_queries() -> Vec<(String, Expect)> {
    let mut q = Vec::new();
    for (i, ty) in EVENT_TYPES.iter().enumerate() {
        q.push((format!("(type={ty})"), Expect::Type(i)));
    }
    for h in 0..6 {
        q.push((format!("(host={})", host_name(h)), Expect::Host(h)));
    }
    for (i, t) in THRESHOLDS.iter().enumerate() {
        q.push((
            format!("(&(type=CPU_TOTAL)(val>{t}))"),
            Expect::OverThreshold(i),
        ));
    }
    q
}

/// A wired deployment.  Field order is drop order: subscribers go before the
/// system whose edge they read, and the archive directory goes last.
pub struct System {
    pub clients: Vec<EdgeClient>,
    pub locals: Vec<LocalSub>,
    pub jamm: JammSystem,
    pub dir: Option<ScratchDir>,
}

impl System {
    /// Build the deployment, connect its remote subscribers and wait until
    /// the edge has registered every connection.  `dir` reopens an existing
    /// archive directory; otherwise an archiving topology gets a fresh one.
    pub fn build(
        topology: Topology,
        traced: bool,
        dir: Option<ScratchDir>,
    ) -> Result<System, String> {
        let dir = match (topology.archiver, dir) {
            (true, None) => Some(ScratchDir::new("archive")?),
            (_, dir) => dir,
        };
        let mut builder = JammBuilder::new()
            .gateway_config(GatewayConfig::open(GATEWAY))
            .network_edge(topology.clients > 0);
        if topology.collector {
            builder = builder.collector("collector");
        }
        if let Some(dir) = &dir {
            builder = builder
                .archiver("archiver", "archive=e21,o=grid")
                .archive_dir(dir.path());
        }
        if traced {
            builder = builder.self_monitor(crate::gen::LIFELINE_EVERY);
        }
        let mut jamm = builder.build().map_err(|e| e.to_string())?;
        if topology.collector && jamm.connect_collectors(vec![]) != 1 {
            return Err("collector did not subscribe".into());
        }
        if topology.archiver && jamm.connect_archiver(vec![]) != 1 {
            return Err("archiver did not subscribe".into());
        }
        if topology.view {
            jamm.register_continuous_query("top_cpu", VIEW_QUERY)
                .map_err(|e| e.to_string())?;
        }
        let mut locals = Vec::new();
        if topology.local_subs {
            for (i, (query, expect)) in local_queries().into_iter().enumerate() {
                let sub = jamm.gateways[0]
                    .subscribe()
                    .stream()
                    .matching(&query)
                    .as_consumer(format!("local-{i}"))
                    .open()
                    .map_err(|e| format!("{query}: {e}"))?;
                locals.push(LocalSub {
                    query,
                    expect,
                    sub,
                    received: 0,
                });
            }
        }
        let mut clients = Vec::new();
        if topology.clients > 0 {
            let addr = jamm.edge_addr(GATEWAY).ok_or("edge has no address")?;
            for _ in 0..topology.clients {
                clients.push(
                    EdgeClient::connect(addr, EdgeClientConfig::default())
                        .map_err(|e| e.to_string())?,
                );
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while jamm.edges[0].subscribers() < topology.clients {
                if Instant::now() > deadline {
                    return Err("edge never registered every subscriber".into());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(System {
            clients,
            locals,
            jamm,
            dir,
        })
    }

    /// Stop the deployment and hand back its archive directory, for a
    /// restart on the same history.
    pub fn into_dir(mut self) -> Option<ScratchDir> {
        self.dir.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let a = ScratchDir::new("t").unwrap();
        let b = ScratchDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().starts_with(scratch_root()));
        assert!(a
            .path()
            .to_string_lossy()
            .contains(&std::process::id().to_string()));
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("f"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn sixteen_local_subscriptions() {
        let q = local_queries();
        assert_eq!(q.len(), 16);
        assert!(q.iter().any(|(s, _)| s == "(&(type=CPU_TOTAL)(val>90))"));
    }
}
