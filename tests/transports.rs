//! Wall-clock transports: the same replica code over channels, TCP, and UDP.

use paxi::core::{ClusterConfig, NodeId};
use paxi::protocols::epaxos::EPaxos;
use paxi::protocols::paxos::{paxos_cluster, PaxosConfig};
use paxi::transport::{InProcCluster, TcpCluster, UdpCluster};

#[test]
fn channel_tcp_udp_agree_on_committed_state() {
    let value = |t: u8, i: u8| vec![t, i, 0xAB];

    // Channels.
    let cluster = ClusterConfig::lan(3);
    let chan = InProcCluster::launch(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::default()),
    );
    let mut c = chan.client(NodeId::new(0, 0));
    for i in 0..10u8 {
        assert!(c.put(i as u64, value(0, i)).expect("channel put").ok);
    }
    for i in 0..10u8 {
        assert_eq!(
            c.get(i as u64).expect("channel get").value,
            Some(value(0, i))
        );
    }
    chan.shutdown();

    // TCP.
    let cluster = ClusterConfig::lan(3);
    let tcp = TcpCluster::launch(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::default()),
    )
    .expect("tcp launch");
    let mut c = tcp.client(NodeId::new(0, 0)).expect("tcp client");
    for i in 0..10u8 {
        assert!(c.put(i as u64, value(1, i)).expect("tcp put").ok);
    }
    for i in 0..10u8 {
        assert_eq!(c.get(i as u64).expect("tcp get").value, Some(value(1, i)));
    }
    tcp.shutdown();

    // UDP.
    let cluster = ClusterConfig::lan(3);
    let udp = UdpCluster::launch(
        cluster.clone(),
        paxos_cluster(cluster.clone(), PaxosConfig::default()),
    )
    .expect("udp launch");
    let mut c = udp.client(NodeId::new(0, 0)).expect("udp client");
    for i in 0..10u8 {
        assert!(c.put(i as u64, value(2, i)).expect("udp put").ok);
    }
    for i in 0..10u8 {
        assert_eq!(c.get(i as u64).expect("udp get").value, Some(value(2, i)));
    }
    udp.shutdown();
}

#[test]
fn epaxos_runs_over_tcp() {
    let cluster = ClusterConfig::lan(5);
    let run = TcpCluster::launch(cluster.clone(), move |id: NodeId| {
        EPaxos::new(id, cluster.clone())
    })
    .expect("launch");
    let mut a = run.client(NodeId::new(0, 0)).expect("client a");
    let mut b = run.client(NodeId::new(0, 3)).expect("client b");
    assert!(a.put(1, b"from-a".to_vec()).expect("a put").ok);
    assert!(b.put(2, b"from-b".to_vec()).expect("b put").ok);
    assert_eq!(a.get(2).expect("a reads b").value, Some(b"from-b".to_vec()));
    assert_eq!(b.get(1).expect("b reads a").value, Some(b"from-a".to_vec()));
    run.shutdown();
}

#[test]
fn wpaxos_runs_over_channels_with_zone_forwarding() {
    use paxi::protocols::wpaxos::{wpaxos_cluster, WPaxosConfig};
    let cluster = ClusterConfig::wan(3, 3);
    let run = InProcCluster::launch(
        cluster.clone(),
        wpaxos_cluster(cluster.clone(), WPaxosConfig::default()),
    );
    // Client attached to a non-leader member of zone 1.
    let mut c = run.client(NodeId::new(1, 2));
    for i in 0..5u64 {
        assert!(c.put(i, vec![i as u8]).expect("put").ok);
    }
    assert_eq!(c.get(3).expect("get").value, Some(vec![3]));
    run.shutdown();
}

#[test]
fn protocol_messages_roundtrip_through_the_codec() {
    use paxi::core::{Ballot, Command, RequestId};
    use paxi::protocols::paxos::PaxosMsg;
    use paxi_core::id::ClientId;
    let msgs = vec![
        PaxosMsg::P1a {
            ballot: Ballot::first(NodeId::new(1, 2)),
        },
        PaxosMsg::P1b {
            ballot: Ballot::first(NodeId::new(0, 0)),
            tail: vec![(
                7,
                Ballot::first(NodeId::new(0, 1)),
                vec![(
                    Command::put(42, vec![1, 2, 3]),
                    Some(RequestId::new(ClientId(9), 100)),
                )],
            )],
            commit_upto: 7,
        },
        PaxosMsg::P2a {
            ballot: Ballot::first(NodeId::new(2, 2)),
            slot: 123,
            cmds: vec![
                (Command::delete(5), None),
                (
                    Command::put(6, vec![9]),
                    Some(RequestId::new(ClientId(1), 2)),
                ),
            ],
            commit_upto: 120,
        },
        PaxosMsg::Commit { upto: 99 },
    ];
    for msg in &msgs {
        let bytes = paxi::codec::to_bytes(msg).expect("encode");
        let back: PaxosMsg = paxi::codec::from_bytes(&bytes).expect("decode");
        // PaxosMsg doesn't derive PartialEq; compare debug output.
        assert_eq!(format!("{msg:?}"), format!("{back:?}"));
    }
}
