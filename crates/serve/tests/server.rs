//! End-to-end tests for the query front end: protocol behaviour over a
//! real TCP socket, the determinism contract — concurrent clients get
//! byte-identical answers at any worker count — and hostile input: any
//! request line, and any reply cut short.

use std::collections::BTreeSet;
use std::io::{BufReader, BufWriter};
use std::net::{Ipv4Addr, TcpStream};
use std::sync::Arc;

use mfv_dataplane::Dataplane;
use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
use mfv_serve::{encode, query_once, QueryIndex, Reply, Server, ServerConfig};
use mfv_types::{LinkId, NodeId, Prefix, RouteProtocol};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// A line of `n` routers r00..r{n-1}: each owns 10.0.i.1, routes
/// 10.0.0.0/16 left or right toward the owner, with a hole at the far
/// ends (traffic past the edge exits the network).
fn line_dp(n: usize) -> Dataplane {
    let mut dp = Dataplane::new();
    for i in 0..n {
        let mut fib = Fib::new();
        for j in 0..n {
            if j == i {
                continue;
            }
            let iface = if j < i { "left" } else { "right" };
            fib.insert(FibEntry {
                prefix: Prefix::from_bits(u32::from(Ipv4Addr::new(10, 0, j as u8, 0)), 24),
                proto: RouteProtocol::Isis,
                next_hops: vec![FibNextHop {
                    iface: iface.into(),
                    via: None,
                }]
                .into(),
            });
        }
        let mut owned = BTreeSet::new();
        owned.insert(Ipv4Addr::new(10, 0, i as u8, 1));
        dp.add_node(NodeId::from(format!("r{i:02}").as_str()), &fib, owned, true);
    }
    for i in 0..n.saturating_sub(1) {
        dp.add_link(LinkId::new(
            (NodeId::from(format!("r{i:02}").as_str()), "right".into()),
            (
                NodeId::from(format!("r{:02}", i + 1).as_str()),
                "left".into(),
            ),
        ));
    }
    dp
}

/// The scripted batch every determinism client replays.
fn batch(n: usize) -> Vec<String> {
    let mut reqs = vec!["NODES".to_string()];
    for i in 0..n {
        for j in 0..n {
            reqs.push(format!("REACH r{i:02} r{j:02}"));
        }
        reqs.push(format!("FATE r{i:02} 10.0.0.1 10.0.{}.1 10.9.9.9", n - 1));
        reqs.push(format!("TRACE r{i:02} 10.0.{}.1", n - 1));
    }
    reqs.push("BOGUS".to_string());
    reqs.push("REACH r00 nope".to_string());
    reqs
}

fn run_batch(addr: std::net::SocketAddr, reqs: &[String]) -> Vec<(bool, String)> {
    let conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut writer = BufWriter::new(conn);
    reqs.iter()
        .map(|r| query_once(&mut reader, &mut writer, r).expect("query"))
        .collect()
}

#[test]
fn protocol_answers_over_tcp() {
    let dp = line_dp(4);
    let index = Arc::new(QueryIndex::new(&dp));
    index.warm();
    let handle = Server::start(Arc::clone(&index), &ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    let conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut writer = BufWriter::new(conn);

    let (ok, nodes) = query_once(&mut reader, &mut writer, "NODES").expect("nodes");
    assert!(ok);
    assert_eq!(nodes, "r00\nr01\nr02\nr03");

    let (ok, reach) = query_once(&mut reader, &mut writer, "REACH r00 r03").expect("reach");
    assert!(ok);
    assert_eq!(reach, "src=r00 dst=r03 fully_reachable=true");

    let (ok, fate) = query_once(&mut reader, &mut writer, "FATE r00 10.0.3.1").expect("fate");
    assert!(ok);
    assert_eq!(fate, "10.0.3.1 [accepted at r03]");

    let (ok, trace) = query_once(&mut reader, &mut writer, "TRACE r00 10.0.3.1").expect("trace");
    assert!(ok, "{trace}");
    assert!(trace.contains("r00"), "{trace}");
    assert!(trace.ends_with("=> accepted at r03"), "{trace}");

    // Unknown commands and unknown nodes are ERR replies, and the
    // connection survives them.
    let (ok, err) = query_once(&mut reader, &mut writer, "BOGUS").expect("bogus");
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
    let (ok, err) = query_once(&mut reader, &mut writer, "REACH r00 r99").expect("bad node");
    assert!(!ok);
    assert!(err.contains("unknown destination node"), "{err}");
    let (ok, _) = query_once(&mut reader, &mut writer, "STATS").expect("stats");
    assert!(ok);
    let (ok, bye) = query_once(&mut reader, &mut writer, "QUIT").expect("quit");
    assert!(ok);
    assert_eq!(bye, "bye");

    let (_, queries, errors) = handle.stats();
    assert!(queries >= 8);
    assert_eq!(errors, 2);
    handle.shutdown();
}

#[test]
fn diff_query_reports_baseline_divergence() {
    let dp = line_dp(3);
    // Baseline: r01's FIB wiped — everything through the middle dies.
    let mut baseline = dp.clone();
    if let Some(mid) = baseline.node_mut(&NodeId::from("r01")) {
        mid.entries.clear();
    }
    let index = QueryIndex::with_baseline(&dp, &baseline);
    match index.handle("DIFF") {
        Reply::Ok(out) => {
            assert!(!out.starts_with("0 fate-changed"), "{out}");
            assert!(out.contains("from r00"), "{out}");
        }
        other => panic!("{other:?}"),
    }
    match index.handle("DIFF 10.0.0.0/16") {
        Reply::Ok(out) => assert!(out.contains("fate-changed"), "{out}"),
        other => panic!("{other:?}"),
    }
    // Without a baseline, DIFF is a protocol error, not a panic.
    let bare = QueryIndex::new(&dp);
    assert!(matches!(bare.handle("DIFF"), Reply::Err(_)));
}

#[test]
fn trailing_arguments_are_refused_by_name() {
    let dp = line_dp(3);
    let index = QueryIndex::with_baseline(&dp, &dp);
    for (line, extra) in [
        ("REACH r00 r01 r02", "r02"),
        ("TRACE r00 10.0.2.1 10.0.1.1", "10.0.1.1"),
        ("DIFF 10.0.0.0/8 junk", "junk"),
        ("NODES x", "x"),
        ("QUIT now", "now"),
    ] {
        match index.handle(line) {
            Reply::Err(msg) => assert!(msg.contains(&format!("'{extra}'")), "{line}: {msg}"),
            other => panic!("{line}: {other:?}"),
        }
    }
    // Exact arity still answers, and FATE takes any number of addresses.
    for line in [
        "REACH r00 r01",
        "TRACE r00 10.0.2.1",
        "DIFF 10.0.0.0/8",
        "NODES",
        "FATE r00 10.0.1.1 10.0.2.1 10.9.9.9",
    ] {
        assert!(matches!(index.handle(line), Reply::Ok(_)), "{line}");
    }
    assert_eq!(index.handle("QUIT"), Reply::Quit);
}

/// The determinism contract: any number of concurrent clients, at any
/// worker count, see answers byte-identical to a single-threaded direct
/// evaluation of the same batch.
#[test]
fn concurrent_clients_get_identical_answers_at_any_worker_count() {
    let n = 5;
    let dp = line_dp(n);
    let reqs = batch(n);

    // Reference: direct, single-threaded evaluation against the index.
    let reference: Vec<(bool, String)> = {
        let index = QueryIndex::new(&dp);
        reqs.iter()
            .map(|r| match index.handle(r) {
                Reply::Ok(p) => (true, p),
                Reply::Err(p) => (false, p),
                Reply::Quit => (true, "bye".to_string()),
            })
            .collect()
    };

    for workers in [1usize, 2, 8] {
        let index = Arc::new(QueryIndex::new(&dp));
        index.warm();
        let cfg = ServerConfig { port: 0, workers };
        let handle = Server::start(Arc::clone(&index), &cfg).expect("bind");
        let addr = handle.addr();

        let clients: Vec<_> = (0..4)
            .map(|_| {
                let reqs = reqs.clone();
                std::thread::spawn(move || run_batch(addr, &reqs))
            })
            .collect();
        for c in clients {
            let answers = c.join().expect("client thread");
            assert_eq!(answers, reference, "answers diverged at {workers} workers");
        }
        handle.shutdown();
    }
}

/// A fresh index answers correctly with no `warm()`: eight threads
/// released together race to build it, exactly one does, and all eight
/// transcripts equal a single-threaded evaluation byte for byte.
#[test]
fn cold_index_gives_identical_answers_to_concurrent_first_queries() {
    let n = 5;
    let dp = line_dp(n);
    let reqs = batch(n);
    let run = |index: &QueryIndex| -> Vec<Reply> { reqs.iter().map(|r| index.handle(r)).collect() };
    let reference = run(&QueryIndex::new(&dp));

    let index = QueryIndex::new(&dp);
    let start = std::sync::Barrier::new(8);
    let transcripts: Vec<Vec<Reply>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    run(&index)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("query thread"))
            .collect()
    });
    for transcript in &transcripts {
        assert_eq!(transcript, &reference);
    }
    // One build, every lookup counted: 8 threads × the batch's lookups.
    let solo = QueryIndex::new(&dp);
    run(&solo);
    let (stats, solo) = (index.index_stats(), solo.index_stats());
    assert!(stats.classes > 0);
    assert_eq!(stats.lookups, 8 * solo.lookups);
    assert_eq!(stats.fates_computed, solo.fates_computed);
}

/// Long enough for the server's idle timeout to fire, short enough that a
/// server without one fails the test instead of hanging it.
const CLIENT_PATIENCE: std::time::Duration = std::time::Duration::from_secs(20);

/// A request line with no end must not grow the worker's buffer without
/// bound: past 64 KiB the server answers `ERR` and closes.
#[test]
fn oversized_request_line_is_refused_and_the_connection_closed() {
    use std::io::{Read, Write};
    let index = Arc::new(QueryIndex::new(&line_dp(3)));
    let cfg = ServerConfig {
        port: 0,
        workers: 1,
    };
    let handle = Server::start(index, &cfg).expect("bind");

    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(CLIENT_PATIENCE))
        .expect("timeout");
    conn.write_all(&vec![b'A'; 64 * 1024 + 1]).expect("send");
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply)
        .expect("server must answer and close, not wait for a newline");
    let reply = String::from_utf8(reply).expect("utf-8 reply");
    assert!(reply.starts_with("ERR "), "{reply}");
    assert!(
        reply.ends_with("request line exceeds 65536 bytes"),
        "{reply}"
    );

    // The one worker is free again, and a line of exactly 64 KiB is fine.
    let mut padded = "NODES".to_string();
    padded.push_str(&" ".repeat(64 * 1024 - 1 - padded.len()));
    let answers = run_batch(handle.addr(), &[padded]);
    assert_eq!(answers, vec![(true, "r00\nr01\nr02".to_string())]);
    let (_, _, errors) = handle.stats();
    assert_eq!(errors, 1);
    handle.shutdown();
}

/// `workers` clients that connect and say nothing must not starve the
/// next one: idle connections are closed after the server's timeout.
#[test]
fn idle_connections_are_closed_so_workers_come_back() {
    use std::io::Read;
    let index = Arc::new(QueryIndex::new(&line_dp(3)));
    let cfg = ServerConfig {
        port: 0,
        workers: 2,
    };
    let handle = Server::start(index, &cfg).expect("bind");

    let idle: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
        .collect();

    // Both workers are parked on the silent connections; this request
    // waits in the accept queue until one of them gives up.
    let conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(CLIENT_PATIENCE))
        .expect("timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut writer = BufWriter::new(conn);
    let (ok, nodes) = query_once(&mut reader, &mut writer, "NODES")
        .expect("a worker must come back from an idle connection");
    assert!(ok);
    assert_eq!(nodes, "r00\nr01\nr02");

    // The silent clients were hung up on, not answered.
    for mut conn in idle {
        conn.set_read_timeout(Some(CLIENT_PATIENCE))
            .expect("timeout");
        let mut rest = Vec::new();
        assert_eq!(conn.read_to_end(&mut rest).expect("closed by server"), 0);
    }
    drop((reader, writer));
    handle.shutdown();
}

/// A request word: a command, a node the index knows or does not, an
/// address, a scope, or junk.
fn word() -> BoxedStrategy<String> {
    let commands = ["REACH", "FATE", "TRACE", "DIFF", "NODES", "QUIT", "reach"];
    prop_oneof![
        (0..commands.len()).prop_map(move |i| commands[i].to_string()),
        "r0[0-6]",
        "10.0.[0-9].[0-9]{1,3}",
        "10.0.0.0/[0-9]{1,2}",
        "[a-zA-Z0-9./:é€-]{0,6}",
    ]
    .boxed()
}

proptest! {
    // Any payload, newlines and multi-byte UTF-8 included, reads back as
    // it was encoded; every reply cut short is refused, never a panic.
    #[test]
    fn an_encoded_reply_reads_back_and_a_cut_one_is_refused(
        ok in any::<bool>(),
        payload in "[a-z0-9 :/.\n\té€😀-]{0,40}",
    ) {
        let reply = if ok { Reply::Ok(payload.clone()) } else { Reply::Err(payload.clone()) };
        let bytes = encode(&reply);
        let read = |bytes: &[u8]| query_once(&mut &bytes[..], &mut std::io::sink(), "NODES");
        prop_assert_eq!(read(&bytes).ok(), Some((ok, payload)));
        for cut in 0..bytes.len() {
            prop_assert!(read(&bytes[..cut]).is_err(), "{:?}", &bytes[..cut]);
        }
    }

    // Any line of command words, node names, addresses and junk: an
    // answer, and the same one when asked again.
    #[test]
    fn any_request_line_is_answered_the_same_way_twice(
        words in proptest::collection::vec(word(), 0..6),
        tab in any::<bool>(),
    ) {
        let index = QueryIndex::with_baseline(&line_dp(5), &line_dp(4));
        let line = words.join(if tab { "\t" } else { " " });
        prop_assert_eq!(index.handle(&line), index.handle(&line), "{}", line);
    }
}
