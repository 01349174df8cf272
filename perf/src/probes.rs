//! Stand-alone probes with fixed iteration counts, for what the decorators
//! cannot reach: the codec on fixture messages, one node's request/reply
//! round trip on each runtime, and the core and shard building blocks.

use crate::cluster::Cluster;
use crate::layers::Values;
use crate::load::Link;
use crate::stats::percentile;
use paxi_core::command::{ClientRequest, ClientResponse, Command};
use paxi_core::config::ClusterConfig;
use paxi_core::id::{ClientId, NodeId, RequestId};
use paxi_core::quorum::{MajorityQuorum, QuorumTracker};
use paxi_core::store::MultiVersionStore;
use paxi_core::traits::{Context, Replica};
use paxi_core::Ballot;
use paxi_protocols::paxos::PaxosMsg;
use paxi_shard::{HashPartitioner, Partitioner, RoutingTable};
use paxi_transport::{InProcCluster, ReactorCluster, TcpCluster, UdpCluster};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Mean ns per call of `body` over `iters` calls.
fn ns_per_call(iters: u32, mut body: impl FnMut()) -> f64 {
    // One untimed call faults in code and allocations.
    body();
    let started = Instant::now();
    for _ in 0..iters {
        body();
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// The `benches/codec.rs` phase-2a message, with `batch` commands.
fn p2a(batch: usize) -> PaxosMsg {
    PaxosMsg::P2a {
        ballot: Ballot::first(NodeId::new(0, 0)),
        slot: 123_456,
        cmds: (0..batch)
            .map(|i| {
                let req = RequestId::new(ClientId(3), 999 + i as u64);
                (Command::put(42 + i as u64, vec![7u8; 64]), Some(req))
            })
            .collect(),
        commit_upto: 123_450,
    }
}

fn codec(iters: u32) -> Values {
    let mut out: Values = Vec::new();
    let mut buf = Vec::with_capacity(4096);
    for (batch, encode_name, decode_name) in [
        (1, "codec.encode_ns.p2a_b1", "codec.decode_ns.p2a_b1"),
        (16, "codec.encode_ns.p2a_b16", "codec.decode_ns.p2a_b16"),
    ] {
        let msg = p2a(batch);
        let bytes = paxi_codec::to_bytes(&msg).expect("the fixture encodes");
        let encode = ns_per_call(iters, || {
            buf.clear();
            paxi_codec::to_bytes_into(&mut buf, black_box(&msg)).expect("the fixture encodes");
            black_box(&buf);
        });
        let decode = ns_per_call(iters, || {
            black_box(paxi_codec::from_bytes::<PaxosMsg>(black_box(&bytes)).expect("round trip"));
        });
        out.push((encode_name, Some(encode)));
        out.push((decode_name, Some(decode)));
    }
    let payload = paxi_codec::to_bytes(&p2a(1)).expect("the fixture encodes");
    let frame = ns_per_call(iters, || {
        let framed = paxi_codec::encode_frame(black_box(&payload));
        let mut decoder = paxi_codec::FrameDecoder::new();
        decoder.feed(&framed);
        black_box(decoder.next_frame().expect("a whole frame was fed"));
    });
    out.push(("codec.frame_roundtrip_ns", Some(frame)));
    out
}

/// The single-node baseline: a replica that answers in `on_request`, so a
/// round trip is the runtime and nothing else.
struct Echo;

impl Replica for Echo {
    type Msg = ();
    fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut dyn Context<()>) {}
    fn on_request(&mut self, req: ClientRequest, ctx: &mut dyn Context<()>) {
        ctx.reply(ClientResponse::ok(req.id, None));
    }
}

/// Median round trip in µs over `trips` requests to a one-node cluster.
fn echo_rtt_us<C: Cluster>(cluster: std::io::Result<C>, trips: u32) -> Option<f64> {
    let cluster = cluster.ok()?;
    let rtts = (|| {
        let mut link = cluster.link(NodeId::new(0, 0)).ok()?;
        let mut rtts = Vec::with_capacity(trips as usize);
        for i in 0..trips + trips / 10 {
            let started = Instant::now();
            let id = link.submit(Command::get(i as u64))?;
            link.wait(id).filter(|r| r.ok)?;
            // The first tenth warms the connection up.
            if i >= trips / 10 {
                rtts.push(started.elapsed().as_nanos() as u64);
            }
        }
        rtts.sort_unstable();
        Some(rtts)
    })();
    cluster.stop();
    percentile(&rtts?, 0.5).map(|ns| ns as f64 / 1e3)
}

fn echo(trips: u32) -> Values {
    let one = || ClusterConfig::lan(1);
    vec![
        (
            "transport.echo_rtt_us.channel",
            echo_rtt_us(Ok(InProcCluster::launch(one(), |_| Echo)), trips),
        ),
        (
            "transport.echo_rtt_us.tcp",
            echo_rtt_us(TcpCluster::launch(one(), |_| Echo), trips),
        ),
        (
            "transport.echo_rtt_us.reactor",
            echo_rtt_us(ReactorCluster::launch(one(), |_| Echo), trips),
        ),
        (
            "transport.echo_rtt_us.udp",
            echo_rtt_us(UdpCluster::launch(one(), |_| Echo), trips),
        ),
    ]
}

fn building_blocks(iters: u32) -> Values {
    let mut store = MultiVersionStore::new();
    let mut key = 0u64;
    let execute = ns_per_call(iters, || {
        key = (key + 1) % 1000;
        store.execute(&Command::put(key, vec![key as u8; 12]));
        black_box(store.execute(&Command::get(key)));
    }) / 2.0;
    let quorum = ns_per_call(iters, || {
        let mut q = MajorityQuorum::new(9);
        for i in 0..5u8 {
            q.ack(NodeId::new(0, i));
        }
        black_box(q.satisfied());
    });
    let table = RoutingTable::new(Arc::new(HashPartitioner::new(8)));
    let mut key = 0u64;
    let route = ns_per_call(iters, || {
        key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        black_box(table.group_of(black_box(key)));
    });
    vec![
        ("core.store_execute_ns", Some(execute)),
        ("core.quorum_round_ns", Some(quorum)),
        ("shard.route_ns", Some(route)),
    ]
}

/// Every probe. `quick` cuts the iteration counts a hundredfold, for the
/// name-drift smoke test.
pub fn run(quick: bool) -> Values {
    let scale = if quick { 100 } else { 1 };
    let mut out = codec(200_000 / scale);
    out.extend(echo(20_000 / scale));
    out.extend(building_blocks(1_000_000 / scale));
    out
}
