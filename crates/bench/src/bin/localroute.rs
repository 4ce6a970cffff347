//! `localroute` — command-line front end for the library.
//!
//! ```text
//! localroute gen <family>                      print a graph as edge-list text
//! localroute route <family> <alg> <k> <s> <t>  route one message
//! localroute matrix <family> <alg> <k>         all-pairs delivery matrix
//! localroute defeat <alg> <n> <k>              search for a defeating instance
//! localroute trace <family> <alg> <k> <s> <t>  route with per-hop rule names
//! localroute verify <family> [k]               check the structural lemmas
//! ```
//!
//! Every table and figure of the paper comes from `report`.
//!
//! `<family>` is either a path to a graph file (the native format of
//! `locality_graph::io` or a plain `u v` edge list) or one of:
//! `path:N cycle:N grid:RxC lollipop:C,T spider:L,LEN complete:N
//! random:N,SEED fig13:N fig17:N`.
//!
//! `<alg>` is one of `alg1 alg1b alg2 alg3 alg3o rhr`.

use std::error::Error;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use local_routing::{engine, LocalRouter};
use locality_adversary::defeat;
use locality_bench::cli::{parse_alg, parse_graph};
use locality_graph::{io, Graph, NodeId};

fn run(out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: localroute gen|route|matrix|defeat|trace|verify ... (see --help)";
    match args.first().map(String::as_str) {
        Some("gen") => {
            let spec = args.get(1).ok_or("gen needs a family spec")?;
            write!(out, "{}", io::to_string(&parse_graph(spec)?))?;
            Ok(())
        }
        Some("route") => {
            let (g, router, k, s, t) = route_args(&args)?;
            let run = engine::route(&g, k, &router, s, t);
            writeln!(
                out,
                "{} on {} nodes, k = {k} (threshold T(n) = {}):",
                router.name(),
                g.node_count(),
                router.min_locality(g.node_count())
            )?;
            writeln!(out, "  status   {:?}", run.status)?;
            writeln!(out, "  hops     {} (shortest {})", run.hops(), run.shortest)?;
            if let Some(d) = run.dilation() {
                writeln!(out, "  dilation {d:.3}")?;
            }
            writeln!(
                out,
                "  route    {}",
                run.route
                    .iter()
                    .map(|u| g.label(*u).to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            )?;
            Ok(())
        }
        Some("matrix") => {
            let spec = args.get(1).ok_or("missing graph")?;
            let alg = args.get(2).ok_or("missing algorithm")?;
            let g = parse_graph(spec)?;
            let router = parse_alg(alg)?;
            let k: u32 = match args.get(3) {
                Some(k) => k.parse().map_err(|_| "k must be an integer")?,
                None => router.min_locality(g.node_count()),
            };
            let m = engine::delivery_matrix(&g, k, &router);
            writeln!(
                out,
                "{} with k = {k} on {} nodes: {}/{} pairs delivered",
                router.name(),
                g.node_count(),
                m.runs - m.failures.len(),
                m.runs
            )?;
            if let Some((d, s, t)) = m.worst_dilation {
                writeln!(out, "worst dilation {d:.3} at ({s}, {t})")?;
            }
            for (s, t, status) in m.failures.iter().take(5) {
                writeln!(out, "  FAILED ({s}, {t}): {status:?}")?;
            }
            if m.failures.len() > 5 {
                writeln!(out, "  ... and {} more", m.failures.len() - 5)?;
            }
            Ok(())
        }
        Some("defeat") => {
            let alg = args.get(1).ok_or("missing algorithm")?;
            let router = parse_alg(alg)?;
            let n: usize = args
                .get(2)
                .ok_or("missing n")?
                .parse()
                .map_err(|_| "n must be an integer")?;
            let k: u32 = args
                .get(3)
                .ok_or("missing k")?
                .parse()
                .map_err(|_| "k must be an integer")?;
            match defeat::find_defeat(&router, n, k) {
                Some(d) => {
                    writeln!(
                        out,
                        "{} defeated by the {} family: message {} -> {} ends {:?}",
                        router.name(),
                        d.family,
                        d.s,
                        d.t,
                        d.status
                    )?;
                    writeln!(out, "graph:\n{}", io::to_string(&d.graph))?;
                }
                None => writeln!(
                    out,
                    "no defeat found for {} at n = {n}, k = {k} (threshold {})",
                    router.name(),
                    router.min_locality(n)
                )?,
            }
            Ok(())
        }
        Some("trace") => {
            let (g, router, k, s, t) = route_args(&args)?;
            let run = engine::route(&g, k, &router, s, t);
            writeln!(out, "{} ({:?}):", router.name(), run.status)?;
            for (i, rule) in run.rules.iter().enumerate() {
                writeln!(
                    out,
                    "  {:>4}  {:>7}  {} -> {}",
                    i,
                    rule,
                    g.label(run.route[i]),
                    g.label(run.route[i + 1])
                )?;
            }
            Ok(())
        }
        Some("verify") => {
            let spec = args.get(1).ok_or("missing graph")?;
            let g = parse_graph(spec)?;
            let n = g.node_count();
            let k: u32 = match args.get(2) {
                Some(k) => k.parse().map_err(|_| "k must be an integer")?,
                None => n.div_ceil(4) as u32,
            };
            use local_routing::verify;
            writeln!(
                out,
                "verifying the paper's structural lemmas on {n} nodes at k = {k}:"
            )?;
            let checks: [(&str, Result<(), String>); 4] = [
                (
                    "Lemma 3 (consistent subgraph connected)",
                    verify::check_lemma3_consistent_connectivity(&g, k),
                ),
                (
                    "Lemma 5 (consistent girth >= 2k+1)",
                    verify::check_lemma5_consistent_girth(&g, k),
                ),
                (
                    "routing components independent",
                    verify::check_routing_components_independent(&g, k),
                ),
                (
                    "active components have >= k nodes",
                    verify::check_active_components_large(&g, k),
                ),
            ];
            let mut ok = true;
            for (name, result) in checks {
                match result {
                    Ok(()) => writeln!(out, "  PASS  {name}")?,
                    Err(e) => {
                        ok = false;
                        writeln!(out, "  FAIL  {name}: {e}")?;
                    }
                }
            }
            writeln!(
                out,
                "  max active degree in G'_k(u): {}",
                verify::max_active_degree(&g, k)
            )?;
            if ok {
                Ok(())
            } else {
                Err("verification failed".into())
            }
        }
        _ => Err(usage.into()),
    }
}

/// The `<family> <alg> <k> <s> <t>` arguments `route` and `trace`
/// share, with `s` and `t` checked against the graph's node count.
type RouteArgs = (Graph, Box<dyn LocalRouter>, u32, NodeId, NodeId);

fn route_args(args: &[String]) -> Result<RouteArgs, String> {
    let [spec, alg, k, s, t] = [1, 2, 3, 4, 5].map(|i| args.get(i));
    let (spec, alg, k, s, t) = (
        spec.ok_or("missing graph")?,
        alg.ok_or("missing algorithm")?,
        k.ok_or("missing k")?,
        s.ok_or("missing source")?,
        t.ok_or("missing target")?,
    );
    let g = parse_graph(spec)?;
    let router = parse_alg(alg)?;
    let k: u32 = k.parse().map_err(|_| "k must be an integer")?;
    let n = g.node_count();
    let node = |name: &str, arg: &str| -> Result<NodeId, String> {
        let i: u32 = arg
            .parse()
            .map_err(|_| format!("{name} must be a node index"))?;
        if i as usize >= n {
            return Err(format!(
                "{name} = {i} is out of range for a graph of n = {n} nodes"
            ));
        }
        Ok(NodeId(i))
    };
    Ok((g, router, k, node("s", s)?, node("t", t)?))
}

fn main() -> ExitCode {
    let mut out = std::io::stdout().lock();
    match run(&mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`localroute gen … | head`) has
        // taken all the output it wants.
        Err(e)
            if e.downcast_ref::<std::io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
