//! Routing-oracle artifact tool: precompute once, serve forever.
//!
//! Builds, inspects, and verifies the versioned, checksummed view
//! artifacts (`*.lrvo`) that [`local_routing::ViewArtifact`] defines:
//! every node's k-neighbourhood view — subgraph, labels and the
//! min-label first-step table — extracted offline so a simulator
//! boot decodes blobs instead of running n BFS traversals.
//!
//! ```text
//! oracle build --graph FILE --k K --out FILE.lrvo
//! oracle build --chaos-seed N --out-dir DIR
//! oracle inspect FILE.lrvo
//! oracle verify FILE.lrvo [--graph FILE [--k K]]
//! ```
//!
//! Graph files are read by `locality_graph::io::from_str`: the native
//! `n`/`l`/`e` format or a plain `u v` edge list. Every subcommand
//! prints one line of JSON on success; errors go to stderr with exit
//! status 1. A reader that exits first (`oracle inspect F | head`)
//! ends the program quietly with status 0; any other write error
//! prints `error: …` and exits 1.

use std::io::{ErrorKind, Write};
use std::process::{exit, ExitCode};
use std::sync::Arc;

use local_routing::ViewArtifact;
use locality_bench::chaos;
use locality_graph::{io, Graph, NodeId};

const USAGE: &str = "usage: oracle build --graph FILE --k K --out FILE.lrvo | \
oracle build --chaos-seed N --out-dir DIR | oracle inspect FILE.lrvo | \
oracle verify FILE.lrvo [--graph FILE [--k K]]";

fn fail(msg: &str) -> ! {
    eprintln!("oracle: {msg}");
    eprintln!("{USAGE}");
    exit(1);
}

/// Reads a graph file in either dialect [`io::from_str`] accepts.
fn read_graph(path: &str) -> Graph {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read graph {path}: {e}")),
    };
    match io::from_str(&text) {
        Ok(g) => g,
        Err(e) => fail(&format!("cannot parse graph {path}: {e}")),
    }
}

/// The value after `flag`. A missing value, or another flag in its
/// place, is a usage error.
fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> String {
    match it.next() {
        Some(v) if !v.starts_with("--") => v.clone(),
        _ => fail(&format!("{flag} needs a value")),
    }
}

/// The unsigned integer after `flag`.
fn number<'a, T: std::str::FromStr>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> T {
    value(it, flag)
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag} takes an unsigned integer")))
}

fn read_artifact(path: &str) -> ViewArtifact {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => fail(&format!("cannot read artifact {path}: {e}")),
    };
    match ViewArtifact::from_bytes(bytes) {
        Ok(a) => a,
        Err(e) => fail(&format!("artifact {path} rejected: {e}")),
    }
}

fn header_json(a: &ViewArtifact) -> String {
    format!(
        "\"k\":{},\"n\":{},\"graph_edges\":{},\"bytes\":{},\"checksum\":\"{:016x}\"",
        a.k(),
        a.node_count(),
        a.graph_edge_count(),
        a.as_bytes().len(),
        a.checksum(),
    )
}

fn write_artifact(a: &ViewArtifact, path: &str) {
    if let Err(e) = std::fs::write(path, a.as_bytes()) {
        fail(&format!("cannot write {path}: {e}"));
    }
}

/// `build --graph FILE --k K --out FILE.lrvo`, or `build
/// --chaos-seed N --out-dir DIR` for the full chaos trial-k set.
/// Returns the JSON line to print.
fn build(args: &[String]) -> String {
    let mut graph: Option<String> = None;
    let mut k: Option<u32> = None;
    let mut out: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut out_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--graph" => graph = Some(value(&mut it, a)),
            "--k" => k = Some(number(&mut it, a)),
            "--out" => out = Some(value(&mut it, a)),
            "--chaos-seed" => chaos_seed = Some(number(&mut it, a)),
            "--out-dir" => out_dir = Some(value(&mut it, a)),
            // Conventional end-of-options marker (`cargo run -- ...`
            // habit when the binary is invoked directly).
            "--" => {}
            other => fail(&format!("unknown build flag {other}")),
        }
    }
    if let Some(seed) = chaos_seed {
        let Some(dir) = out_dir else {
            fail("build --chaos-seed requires --out-dir DIR");
        };
        if let Err(e) = std::fs::create_dir_all(&dir) {
            fail(&format!("cannot create {dir}: {e}"));
        }
        let g = chaos::topology(seed);
        let ks = chaos::trial_ks();
        let mut total = 0usize;
        for &k in &ks {
            let a = ViewArtifact::build(&g, k);
            total += a.as_bytes().len();
            write_artifact(&a, &format!("{dir}/k{k}.lrvo"));
        }
        return format!(
            "{{\"bench\":\"oracle-build\",\"chaos_seed\":{},\"n\":{},\"ks\":{:?},\"artifacts\":{},\"total_bytes\":{}}}",
            seed,
            g.node_count(),
            ks,
            ks.len(),
            total,
        );
    }
    let (Some(graph), Some(k), Some(out)) = (graph, k, out) else {
        fail("build requires --graph FILE --k K --out FILE (or --chaos-seed N --out-dir DIR)");
    };
    let g = read_graph(&graph);
    let a = ViewArtifact::build(&g, k);
    write_artifact(&a, &out);
    format!("{{\"bench\":\"oracle-build\",{}}}", header_json(&a))
}

fn inspect(args: &[String]) -> String {
    let [path] = args else {
        fail("inspect takes exactly one artifact path");
    };
    let a = read_artifact(path);
    format!("{{\"bench\":\"oracle-inspect\",{}}}", header_json(&a))
}

/// Decodes every view in the artifact (the checksum already passed in
/// `from_bytes`), and with `--graph` also checks the artifact matches
/// that topology, at `--k` or at the artifact's own k.
fn verify(args: &[String]) -> String {
    let mut path: Option<String> = None;
    let mut graph: Option<String> = None;
    let mut k: Option<u32> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--graph" => graph = Some(value(&mut it, a)),
            "--k" => k = Some(number(&mut it, a)),
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => fail(&format!("unknown verify argument {other}")),
        }
    }
    let Some(path) = path else {
        fail("verify takes an artifact path");
    };
    if graph.is_none() && k.is_some() {
        fail("verify --k needs --graph FILE");
    }
    let a = Arc::new(read_artifact(&path));
    let mut matched = false;
    if let Some(gpath) = graph {
        let g = read_graph(&gpath);
        let k = k.unwrap_or_else(|| a.k());
        if let Err(e) = a.ensure_matches(&g, k) {
            fail(&format!("artifact {path} does not match {gpath}: {e}"));
        }
        matched = true;
    }
    for u in 0..a.node_count() {
        if let Err(e) = a.decode_view(NodeId(u)) {
            fail(&format!("artifact {path}: view of node {u} corrupt: {e}"));
        }
    }
    format!(
        "{{\"bench\":\"oracle-verify\",\"ok\":true,\"views_decoded\":{},\"topology_checked\":{},{}}}",
        a.node_count(),
        matched,
        header_json(&a),
    )
}

fn main() -> ExitCode {
    // Tolerate a leading end-of-options marker (`cargo run -- ...`
    // habit when the binary is invoked directly).
    let args: Vec<String> = std::env::args().skip(1).skip_while(|a| a == "--").collect();
    let line = match args.split_first() {
        Some((cmd, rest)) if cmd == "build" => build(rest),
        Some((cmd, rest)) if cmd == "inspect" => inspect(rest),
        Some((cmd, rest)) if cmd == "verify" => verify(rest),
        Some((cmd, _)) => fail(&format!("unknown subcommand {cmd}")),
        None => fail("missing subcommand"),
    };
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{line}").and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
