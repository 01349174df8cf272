//! From one traced run's recorders to the per-layer numbers.
//!
//! "Commit" below means a reply with `ok` that the leader's decorated
//! context saw while recording was on; every per-commit ratio divides by
//! that count, taken at the same boundary as its numerator.

use crate::stats::percentile;
use crate::trace::Recorder;
use paxi_core::traits::Replica;
use paxi_transport::Envelope;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Handler spans: everything the runtime calls on a replica.
const HANDLERS: [&str; 6] = [
    "on_start",
    "on_restart",
    "on_recover",
    "on_request",
    "on_message",
    "on_timer",
];
/// Message kinds that carry client commands to acceptors or followers.
const PROPOSALS: [&str; 3] = ["p2a", "append_entries", "pre_accept"];

/// `(metric name, value)`; `None` where the run gave no samples for it.
pub type Values = Vec<(&'static str, Option<f64>)>;

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// `(count, total ns, self ns)` over a recorder's handler spans.
fn handler_sums<M>(r: &Recorder<M>) -> (u64, u64, u64) {
    HANDLERS
        .iter()
        .map(|h| r.total_of(h))
        .fold((0, 0, 0), |a, t| {
            (a.0 + t.count, a.1 + t.total_ns, a.2 + t.self_ns)
        })
}

/// The kind this recorder sent most often, by calls.
fn top_sent_kind<M>(r: &Recorder<M>) -> Option<&'static str> {
    r.sent.iter().max_by_key(|(_, c)| c[0]).map(|(k, _)| *k)
}

/// Mean encode and decode time and mean size of the sampled messages of one
/// kind, replayed through the codec exactly as the socket runtimes use it:
/// wrapped in an [`Envelope`], encoded into a reused buffer, decoded from a
/// slice.
fn replay_codec<M>(from: paxi_core::NodeId, samples: &[&M]) -> Option<(f64, f64, f64)>
where
    M: Serialize + DeserializeOwned + Clone,
{
    if samples.is_empty() {
        return None;
    }
    const ROUNDS: usize = 20;
    let envelopes: Vec<Envelope<M>> = samples
        .iter()
        .map(|m| Envelope::Msg {
            from,
            msg: (*m).clone(),
        })
        .collect();
    let mut buf = Vec::with_capacity(4096);
    let mut encoded = Vec::with_capacity(envelopes.len());
    for env in &envelopes {
        buf.clear();
        paxi_codec::to_bytes_into(&mut buf, env).ok()?;
        encoded.push(buf.clone());
    }
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for env in &envelopes {
            buf.clear();
            paxi_codec::to_bytes_into(&mut buf, black_box(env)).ok()?;
            black_box(&buf);
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for bytes in &encoded {
            black_box(paxi_codec::from_bytes::<Envelope<M>>(black_box(bytes)).ok()?);
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    let calls = (ROUNDS * envelopes.len()) as f64;
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64;
    Some((encode_ns / calls, decode_ns / calls, bytes))
}

/// Per-layer numbers of one traced cluster run. `window_ns` is how long
/// recording was on; `clients` are the load generator's `request` spans.
pub fn cluster_layers<R>(
    nodes: &[Recorder<R::Msg>],
    clients: &[Recorder<()>],
    window_ns: u64,
) -> Values
where
    R: Replica,
    R::Msg: Serialize + DeserializeOwned,
{
    let mut out: Values = Vec::new();
    let Some(leader) = nodes.iter().max_by_key(|r| r.ok_replies) else {
        return out;
    };
    let commits = leader.ok_replies;
    let followers: Vec<&Recorder<R::Msg>> =
        nodes.iter().filter(|r| r.node != leader.node).collect();

    // protocols: handler self time and counts at the Replica boundary.
    let (events, busy_ns, self_ns) = handler_sums(leader);
    let follower_self: u64 = followers.iter().map(|r| handler_sums(r).2).sum();
    let sent: u64 = leader.sent.iter().map(|(_, c)| c[1]).sum();
    let received = leader.total_of("on_message").count;
    let (batches, batched_cmds) = leader
        .sent
        .iter()
        .filter(|(k, _)| PROPOSALS.contains(k))
        .fold((0, 0), |a, (_, c)| (a.0 + c[0], a.1 + c[2]));
    out.push((
        "protocols.leader_self_ns_per_commit",
        ratio(self_ns, commits),
    ));
    out.push((
        "protocols.follower_self_ns_per_commit",
        ratio(follower_self, commits * followers.len() as u64),
    ));
    out.push(("protocols.leader_busy_share", ratio(busy_ns, window_ns)));
    out.push(("protocols.leader_events_per_commit", ratio(events, commits)));
    out.push((
        "protocols.leader_msgs_per_commit",
        ratio(sent + received, commits),
    ));
    out.push(("protocols.cmds_per_batch", ratio(batched_cmds, batches)));
    out.push((
        "protocols.timer_events_share",
        ratio(leader.total_of("on_timer").count, events),
    ));

    // transport: what the Context's send family costs per recipient.
    let send_ns: u64 = nodes.iter().map(|r| r.total_of("send").total_ns).sum();
    let recipients: u64 = nodes.iter().flat_map(|r| &r.sent).map(|(_, c)| c[1]).sum();
    out.push(("transport.send_ns_per_msg", ratio(send_ns, recipients)));

    // storage: the Storage boundary, pooled over nodes.
    let pooled = |name: &str| {
        let mut d: Vec<u64> = nodes
            .iter()
            .flat_map(|r| r.durations_ns(name, None))
            .collect();
        d.sort_unstable();
        d
    };
    let count_of = |name: &str| nodes.iter().map(|r| r.total_of(name).count).sum::<u64>();
    let (appends, syncs) = (pooled("append"), pooled("sync"));
    let storage_busy: u64 = ["append", "sync"]
        .iter()
        .map(|n| leader.total_of(n).total_ns)
        .sum();
    out.push((
        "storage.append_ns_p50",
        percentile(&appends, 0.5).map(|v| v as f64),
    ));
    out.push((
        "storage.sync_us_p50",
        percentile(&syncs, 0.5).map(|v| v as f64 / 1e3),
    ));
    out.push((
        "storage.sync_us_p99",
        percentile(&syncs, 0.99).map(|v| v as f64 / 1e3),
    ));
    out.push(("storage.busy_share", ratio(storage_busy, window_ns)));
    out.push((
        "storage.appends_per_commit",
        ratio(count_of("append"), commits),
    ));
    out.push(("storage.syncs_per_commit", ratio(count_of("sync"), commits)));
    out.push((
        "storage.wal_bytes_per_commit",
        ratio(nodes.iter().map(|r| r.appended_bytes).sum(), commits),
    ));

    // codec: sampled outgoing messages replayed, scaled by how many of each
    // kind crossed the Context boundary (one encode and one decode each).
    let (mut encode_ns, mut decode_ns, mut bytes) = (0.0, 0.0, 0.0);
    let mut kinds: Vec<&'static str> = nodes
        .iter()
        .flat_map(|r| &r.sent)
        .map(|(k, _)| *k)
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let samples: Vec<&R::Msg> = nodes
            .iter()
            .flat_map(|r| &r.samples)
            .filter(|m| R::msg_kind(m) == kind)
            .collect();
        let count: u64 = nodes
            .iter()
            .flat_map(|r| &r.sent)
            .filter(|(k, _)| *k == kind)
            .map(|(_, c)| c[1])
            .sum();
        if let Some((e, d, b)) = replay_codec(leader.node, &samples) {
            encode_ns += e * count as f64;
            decode_ns += d * count as f64;
            bytes += b * count as f64;
        }
    }
    let per_commit = |total: f64| (commits > 0 && total > 0.0).then(|| total / commits as f64);
    out.push(("codec.encode_ns_per_commit", per_commit(encode_ns)));
    out.push(("codec.decode_ns_per_commit", per_commit(decode_ns)));
    out.push(("codec.bytes_per_commit", per_commit(bytes)));

    // client: the round trip, and what of it the blocking chain's handler
    // spans do not explain (queue wait, wake-ups, socket and wire decode).
    let mut rtts: Vec<u64> = clients
        .iter()
        .flat_map(|r| r.durations_ns("request", None))
        .collect();
    rtts.sort_unstable();
    let rtt_p50 = percentile(&rtts, 0.5);
    out.push(("client.rtt_p50_us", rtt_p50.map(|v| v as f64 / 1e3)));
    let median = |r: &Recorder<R::Msg>, name: &str, kind: Option<&str>| {
        percentile(&r.durations_ns(name, kind), 0.5)
    };
    let chain = (|| {
        let proposal = top_sent_kind(leader)?;
        let follower = followers
            .iter()
            .max_by_key(|r| r.total_of("on_message").count)?;
        let ack = top_sent_kind(follower)?;
        Some(
            median(leader, "on_request", None)?
                + median(follower, "on_message", Some(proposal))?
                + median(leader, "on_message", Some(ack))?,
        )
    })();
    out.push((
        "residual.unattributed_us",
        rtt_p50
            .zip(chain)
            .map(|(rtt, chain)| (rtt as f64 - chain as f64) / 1e3),
    ));
    out
}
