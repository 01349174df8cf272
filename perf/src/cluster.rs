//! The four wall-clock cluster runtimes behind one small interface, so the
//! live workloads and the echo probe are written once.

use crate::load::{Blocking, Link};
use paxi_core::command::{ClientResponse, Command};
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::obs::DropCause;
use paxi_core::traits::Replica;
use paxi_transport::{
    DropCounters, InProcCluster, PipelinedClient, ReactorCluster, TcpCluster, UdpCluster,
};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// A request not answered within this long has failed. Far above any
/// latency a healthy run shows, far below the driver's run limit.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Drop ledger of a cluster's transport: every frame shed, and the part no
/// named cause explains (which must be zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drops {
    pub total: u64,
    pub unexplained: u64,
}

impl From<&DropCounters> for Drops {
    fn from(c: &DropCounters) -> Self {
        Drops {
            total: c.total(),
            unexplained: c.get(DropCause::Unexplained),
        }
    }
}

/// A running cluster of any runtime.
pub trait Cluster {
    type Link: Link + Send + 'static;
    /// Connects one client to `attach`.
    fn link(&self, attach: NodeId) -> std::io::Result<Self::Link>;
    fn drops(&self) -> Drops;
    /// Most connections ever open at once; `None` for runtimes without
    /// connections.
    fn conns_hwm(&self) -> Option<u64>;
    /// Stops every thread of the cluster and waits for them.
    fn stop(self);
}

impl Link for PipelinedClient {
    fn client(&self) -> ClientId {
        self.id()
    }
    fn submit(&mut self, cmd: Command) -> Option<RequestId> {
        PipelinedClient::submit(self, cmd).ok()
    }
    fn wait(&mut self, id: RequestId) -> Option<ClientResponse> {
        self.await_response(id)
    }
}

impl<R> Cluster for ReactorCluster<R>
where
    R: Replica + Send + 'static,
    R::Msg: Serialize + DeserializeOwned,
{
    type Link = PipelinedClient;
    fn link(&self, attach: NodeId) -> std::io::Result<PipelinedClient> {
        let mut c = self.client(attach)?;
        c.set_timeout(REQUEST_TIMEOUT);
        Ok(c)
    }
    fn drops(&self) -> Drops {
        ReactorCluster::drops(self).into()
    }
    fn conns_hwm(&self) -> Option<u64> {
        Some(self.conn_stats().hwm())
    }
    fn stop(self) {
        self.shutdown();
    }
}

/// The threaded TCP runtime speaks the reactor's wire protocol, so the same
/// pipelining client drives both and a difference between them is the
/// server side's alone.
impl<R> Cluster for TcpCluster<R>
where
    R: Replica + Send + 'static,
    R::Msg: Serialize + DeserializeOwned,
{
    type Link = PipelinedClient;
    fn link(&self, attach: NodeId) -> std::io::Result<PipelinedClient> {
        static NEXT_CLIENT: AtomicU32 = AtomicU32::new(4_000_000);
        // Relaxed: only uniqueness matters.
        let id = ClientId(NEXT_CLIENT.fetch_add(1, Ordering::Relaxed));
        let mut c = PipelinedClient::connect(self.addr(attach), id)?;
        c.set_timeout(REQUEST_TIMEOUT);
        Ok(c)
    }
    fn drops(&self) -> Drops {
        TcpCluster::drops(self).into()
    }
    fn conns_hwm(&self) -> Option<u64> {
        Some(self.conn_stats().hwm())
    }
    fn stop(self) {
        self.shutdown();
    }
}

impl<R> Cluster for UdpCluster<R>
where
    R: Replica + Send + 'static,
    R::Msg: Serialize + DeserializeOwned,
{
    type Link = Blocking;
    fn link(&self, attach: NodeId) -> std::io::Result<Self::Link> {
        let mut c = self.client(attach)?;
        Ok(Blocking::new(c.id(), Box::new(move |cmd| c.execute(cmd))))
    }
    fn drops(&self) -> Drops {
        UdpCluster::drops(self).into()
    }
    fn conns_hwm(&self) -> Option<u64> {
        None
    }
    fn stop(self) {
        self.shutdown();
    }
}

impl<R: Replica + Send + 'static> Cluster for InProcCluster<R> {
    type Link = Blocking;
    fn link(&self, attach: NodeId) -> std::io::Result<Self::Link> {
        let mut c = self.client(attach);
        c.set_timeout(REQUEST_TIMEOUT);
        Ok(Blocking::new(c.id(), Box::new(move |cmd| c.execute(cmd))))
    }
    fn drops(&self) -> Drops {
        InProcCluster::drops(self).into()
    }
    fn conns_hwm(&self) -> Option<u64> {
        None
    }
    fn stop(self) {
        self.shutdown();
    }
}
