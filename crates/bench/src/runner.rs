//! Protocol names and load sweeps.
//!
//! The figure harness needs to run "the same experiment" across many
//! protocols; [`Proto`] names a protocol + configuration, and [`run`] hands
//! it to the harness's one dispatch ([`crate::scenario`]). [`sweep`] pushes
//! a protocol to saturation by growing the closed-loop client population,
//! producing the latency-vs-throughput series the paper plots in Figures 7
//! and 9.

use crate::scenario::Scenario;
use paxi_core::config::ClusterConfig;
use paxi_protocols::paxos::PaxosConfig;
use paxi_protocols::raft::RaftConfig;
use paxi_protocols::vpaxos::VPaxosConfig;
use paxi_protocols::wankeeper::WanKeeperConfig;
use paxi_protocols::wpaxos::WPaxosConfig;
use paxi_sim::{ClientSetup, SimConfig, SimReport, Workload};
use serde::Serialize;

/// A protocol under test.
#[derive(Debug, Clone)]
pub enum Proto {
    /// MultiPaxos / FPaxos (via `q2`).
    Paxos(PaxosConfig),
    /// EPaxos with the given CPU penalty for dependency processing.
    EPaxos {
        /// Multiplier on message-processing cost (paper penalizes EPaxos for
        /// conflict detection / dependency computation).
        cpu_penalty: f64,
    },
    /// WPaxos.
    WPaxos(WPaxosConfig),
    /// WanKeeper.
    WanKeeper(WanKeeperConfig),
    /// Vertical Paxos.
    VPaxos(VPaxosConfig),
    /// Raft, priced by the caller's cost model (Figure 7's etcd sets its
    /// own overheads there).
    Raft(RaftConfig),
}

impl Proto {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Proto::Paxos(c) if c.q2.is_some() => format!("FPaxos(|q2|={})", c.q2.unwrap()),
            Proto::Paxos(_) => "Paxos".into(),
            Proto::EPaxos { .. } => "EPaxos".into(),
            Proto::WPaxos(c) => format!("WPaxos(fz={})", c.fz),
            Proto::WanKeeper(_) => "WanKeeper".into(),
            Proto::VPaxos(_) => "VPaxos".into(),
            Proto::Raft(_) => "Raft".into(),
        }
    }

    /// Stock MultiPaxos.
    pub fn paxos() -> Self {
        Proto::Paxos(PaxosConfig::default())
    }

    /// FPaxos with phase-2 quorum `q2`.
    pub fn fpaxos(q2: usize) -> Self {
        Proto::Paxos(PaxosConfig::flexible(q2))
    }

    /// EPaxos with the default processing penalty.
    ///
    /// The penalty is calibrated to the paper's *experimental* observation
    /// (§5.2): once dependency computation, larger dependency-carrying
    /// messages, and graph-based execution are accounted for, Paxi's EPaxos
    /// lands below the single-leader protocols in LAN throughput. The
    /// analytic model (`paxi_model::EPaxosModel`) has no penalty: it prices
    /// EPaxos's messages as it prices Paxos's, which reproduces the paper's
    /// *model* claim that EPaxos out-throughputs Paxos even at 100%
    /// conflict.
    pub fn epaxos() -> Self {
        Proto::EPaxos { cpu_penalty: 3.5 }
    }
}

/// Runs one fault-free simulation of `proto` on volatile replicas and
/// returns its report.
pub fn run(
    proto: &Proto,
    sim: SimConfig,
    cluster: ClusterConfig,
    workload: impl Workload + 'static,
    clients: Vec<ClientSetup>,
) -> SimReport {
    Scenario::quiet(proto, sim, cluster).execute((workload, clients), |report, _, _| report)
}

/// One point of a latency-vs-throughput sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    /// Closed-loop clients driving the system.
    pub clients: usize,
    /// Achieved throughput (ops/s).
    pub throughput: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
}

impl SweepPoint {
    /// The point a run with `clients` closed-loop clients measured.
    pub fn of(clients: usize, report: &SimReport) -> Self {
        SweepPoint {
            clients,
            throughput: report.throughput,
            mean_ms: report.latency.mean.as_millis_f64(),
            p50_ms: report.latency.p50.as_millis_f64(),
            p99_ms: report.latency.p99.as_millis_f64(),
        }
    }
}

/// Sweeps the closed-loop client count (per zone) and records one point per
/// step — the way Paxi saturates a system.
pub fn sweep<W, F>(
    proto: &Proto,
    sim: &SimConfig,
    cluster: &ClusterConfig,
    counts: &[usize],
    mut workload_factory: F,
) -> Vec<SweepPoint>
where
    W: Workload + 'static,
    F: FnMut() -> W,
{
    counts
        .iter()
        .map(|&count| {
            let clients = ClientSetup::closed_per_zone(cluster, count);
            let report = run(
                proto,
                sim.clone(),
                cluster.clone(),
                workload_factory(),
                clients,
            );
            SweepPoint::of(count * cluster.zones as usize, &report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi_sim::client::uniform_workload;

    #[test]
    fn dispatch_runs_every_protocol() {
        let quick = SimConfig {
            warmup: paxi_core::Nanos::millis(200),
            measure: paxi_core::Nanos::millis(800),
            ..SimConfig::default()
        };
        // Single-zone protocols on a 3-node LAN.
        for proto in [Proto::paxos(), Proto::fpaxos(2), Proto::epaxos()] {
            let cluster = ClusterConfig::lan(3);
            let clients = ClientSetup::closed_per_zone(&cluster, 2);
            let r = run(
                &proto,
                quick.clone(),
                cluster,
                uniform_workload(20),
                clients,
            );
            assert!(
                r.completed > 100,
                "{} completed {}",
                proto.name(),
                r.completed
            );
        }
        // Zone-structured protocols on a 3x3 grid in a LAN.
        let grid_sim = SimConfig {
            topology: paxi_sim::Topology::lan_zones(3),
            ..quick.clone()
        };
        for proto in [
            Proto::WPaxos(WPaxosConfig::default()),
            Proto::WanKeeper(WanKeeperConfig {
                shared_to_master: false,
                ..Default::default()
            }),
            Proto::VPaxos(VPaxosConfig::default()),
            Proto::Raft(RaftConfig::default()),
        ] {
            let cluster = ClusterConfig::wan(3, 3);
            let clients = ClientSetup::closed_per_zone(&cluster, 2);
            let r = run(
                &proto,
                grid_sim.clone(),
                cluster,
                uniform_workload(20),
                clients,
            );
            assert!(
                r.completed > 100,
                "{} completed {}",
                proto.name(),
                r.completed
            );
        }
    }

    #[test]
    fn sweep_throughput_grows_then_saturates() {
        let cluster = ClusterConfig::lan(5);
        let sim = SimConfig {
            warmup: paxi_core::Nanos::millis(200),
            measure: paxi_core::Nanos::secs(1),
            ..SimConfig::default()
        };
        let points = sweep(&Proto::paxos(), &sim, &cluster, &[1, 4, 16, 64], || {
            uniform_workload(100)
        });
        assert_eq!(points.len(), 4);
        assert!(points[1].throughput > points[0].throughput);
        // Latency at saturation is far above the unloaded latency.
        assert!(points[3].mean_ms > points[0].mean_ms);
    }
}
