//! The distributed simulator must agree hop-for-hop with the central
//! engine, rule names included, and keep delivering through topology
//! changes.

use std::collections::BTreeMap;

use local_routing::{engine, Alg1, Alg1B, Alg2, Alg3, LocalRouter, ViewStore};
use locality_graph::NodeId;
use locality_integration::random_suite;
use locality_obs::{collect_witnesses, parse_trace};
use locality_sim::{Level, MessageFate, NetworkBuilder, Recorder};

#[test]
fn routes_match_engine_for_all_algorithms() {
    for g in random_suite(0x5151, 12, 4..14) {
        let n = g.node_count();
        for r in [&Alg1 as &dyn LocalRouter, &Alg1B, &Alg2, &Alg3] {
            let k = r.min_locality(n);
            let mut net = NetworkBuilder::new(&g, k)
                .recorder(Recorder::new(Level::Hops))
                .build(r);
            let views = ViewStore::new(&g, k);
            let mut expect = Vec::new();
            for s in g.nodes() {
                for t in g.nodes().filter(|&t| t != s) {
                    let central = engine::route_with_cache(&g, &views, &r, s, t);
                    let id = net.send(s, t);
                    expect.push((id, central.route, central.rules));
                }
            }
            net.run_until_quiet();
            let text = String::from_utf8(net.finish_trace()).expect("traces are UTF-8");
            let events = parse_trace(&text).expect("the recorder writes well-formed lines");
            let witnesses: BTreeMap<u64, Vec<String>> = collect_witnesses(&events)
                .into_iter()
                .map(|w| (w.msg, w.hops.into_iter().map(|h| h.rule).collect()))
                .collect();
            for (id, route, rules) in expect {
                let rec = net.record(id).unwrap();
                assert_eq!(rec.fate, MessageFate::Delivered);
                assert_eq!(rec.path, route);
                assert_eq!(witnesses[&id.0], rules, "{} message {}", r.name(), id.0);
            }
        }
    }
}

#[test]
fn latency_equals_hops_under_unit_links() {
    let g = locality_graph::generators::cycle(14);
    let k = Alg2.min_locality(14);
    let mut net = NetworkBuilder::new(&g, k).build(Alg2);
    let id = net.send(NodeId(0), NodeId(7));
    net.run_until_quiet();
    let rec = net.record(id).unwrap();
    assert_eq!(rec.latency(), Some(rec.hops() as u64));
}

#[test]
fn concurrent_flows_all_deliver_and_load_adds_up() {
    let g = locality_graph::generators::grid(4, 5);
    let n = g.node_count();
    let k = Alg1.min_locality(n);
    let mut net = NetworkBuilder::new(&g, k).build(Alg1);
    let mut total_hops_expected = 0usize;
    for s in g.nodes() {
        for t in g.nodes().filter(|&t| t != s) {
            let central = engine::route(&g, k, &Alg1, s, t);
            total_hops_expected += central.hops();
            net.send(s, t);
        }
    }
    net.run_until_quiet();
    let m = net.metrics();
    assert_eq!(m.delivery_ratio(), 1.0);
    assert_eq!(m.delivered_hops, total_hops_expected);
    // Every hop is one forwarding event at some node.
    let total_forwarded: u64 = g.nodes().map(|u| net.node(u).forwarded).sum();
    assert_eq!(total_forwarded as usize, total_hops_expected);
}

#[test]
fn repeated_topology_changes_keep_delivering() {
    let g = locality_graph::generators::cycle(12);
    let k = Alg3.min_locality(12);
    let mut net = NetworkBuilder::new(&g, k).build(Alg3);
    // Knock out and restore alternating edges, sending traffic between.
    for round in 0..4u32 {
        let a = NodeId(round * 2);
        let b = NodeId((round * 2 + 1) % 12);
        net.set_edge(a, b, false)
            .expect("cycle minus one edge stays connected");
        let id = net.send(NodeId(3), NodeId(9));
        net.run_until_quiet();
        assert!(net.record(id).unwrap().delivered(), "round {round}");
        net.set_edge(a, b, true)
            .expect("restoring an edge cannot disconnect");
        let id = net.send(NodeId(9), NodeId(3));
        net.run_until_quiet();
        assert!(net.record(id).unwrap().delivered(), "round {round} restore");
    }
}

#[test]
fn below_threshold_failures_are_classified() {
    // Run Algorithm 3 with too-small k: the simulator reports a
    // per-message structured failure instead of spinning.
    let g = locality_graph::generators::path(12);
    let mut net = NetworkBuilder::new(&g, 3).build(Alg3);
    let id = net.send(NodeId(5), NodeId(11));
    net.run_until_quiet();
    match &net.record(id).unwrap().fate {
        MessageFate::Errored(msg) => assert!(msg.contains("constrained") || msg.contains("active")),
        MessageFate::Looped => {}
        other => panic!("unexpected fate {other:?}"),
    }
}
