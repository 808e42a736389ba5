//! Golden-answers smoke test for the query front end: converge the
//! tracked six-node snapshot, serve it over TCP with the model's dataplane
//! as the `DIFF` baseline, replay the scripted request batch
//! (`tests/fixtures/serve_smoke.batch`), and require the answers to be
//! byte-identical to the recorded golden file.
//!
//! This is the in-process twin of the `serve-smoke` shell gate in
//! `scripts/check.sh` (which drives the same batch through `mfvctl
//! serve`/`mfvctl query`): any drift in the wire protocol, the class
//! index, or the six-node snapshot itself shows up as a diff here.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;

use model_free_verification::core::{Backend, EmulationBackend, ModelBackend, Snapshot};
use model_free_verification::emulator::Topology;
use model_free_verification::serve::{query_once, QueryIndex, Server, ServerConfig};

const BATCH: &str = include_str!("fixtures/serve_smoke.batch");
const GOLDEN: &str = include_str!("fixtures/serve_smoke.golden");

#[test]
fn scripted_batch_matches_golden_answers() {
    let text =
        std::fs::read_to_string("examples/topologies/six-node.json").expect("tracked topology");
    let topo = Topology::from_json(&text).expect("parses");
    topo.validate().expect("validates");
    let snapshot = Snapshot::new("six-node", topo);

    let result = EmulationBackend::default()
        .compute(&snapshot)
        .expect("six-node converges");
    assert!(result.meta.converged);

    let model = ModelBackend.compute(&snapshot).expect("the model computes");
    let index = Arc::new(QueryIndex::with_baseline(
        &result.dataplane,
        &model.dataplane,
    ));
    index.warm();
    let handle = Server::start(Arc::clone(&index), &ServerConfig::default()).expect("bind");

    let conn = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut writer = BufWriter::new(conn);

    // Replay the batch exactly the way `mfvctl query` does: one payload
    // per request, each terminated by a newline.
    let mut answers = String::new();
    for req in BATCH.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let (ok, payload) = query_once(&mut reader, &mut writer, req).expect("query");
        assert!(ok, "request '{req}' failed: {payload}");
        answers.push_str(&payload);
        answers.push('\n');
        if req == "QUIT" {
            break;
        }
    }
    drop(reader);
    drop(writer);
    handle.shutdown();

    assert_eq!(
        answers, GOLDEN,
        "query answers diverged from tests/fixtures/serve_smoke.golden"
    );
}
