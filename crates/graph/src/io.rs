//! Minimal text serialisation for graphs.
//!
//! [`to_string`] writes the **native** format: first line
//! `n <node-count>`, then one line per node `l <node-index> <label>`
//! (omitted when the labelling is the identity), then one line per edge
//! `e <u> <v>` (node indices).
//!
//! [`from_str`] is the one reader of graph files. Besides the native
//! format it reads a **plain edge list**, one `u v` pair per line: the
//! exchange format of public topology datasets, so real networks can be
//! ingested without conversion. The first line that is neither blank
//! nor a comment picks the dialect: if its first token is `n`, `l` or
//! `e` the file is native, otherwise it is an edge list.
//!
//! In both, lines beginning with `#` are comments and blank lines are
//! ignored. A file names at most [`MAX_NODES`] nodes, and the reader
//! checks that count before it allocates anything for the graph, so a
//! file of a few bytes cannot ask for gigabytes.

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use crate::labels::{Label, NodeId};

/// The most nodes a graph file, or a graph family spec, may ask for.
/// A native file asks through its `n` header, an edge list through its
/// largest id plus one.
pub const MAX_NODES: usize = 1_000_000;

/// Serialises a graph to the native format described in the module
/// docs.
pub fn to_string(g: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("n {}\n", g.node_count()));
    let identity = g.nodes().all(|u| g.label(u).value() == u.0);
    if !identity {
        for u in g.nodes() {
            out.push_str(&format!("l {} {}\n", u.0, g.label(u).value()));
        }
    }
    for (u, v) in g.edges() {
        out.push_str(&format!("e {} {}\n", u.0, v.0));
    }
    out
}

/// Parses a graph file in either dialect of the module docs.
///
/// An edge list gets the identity labelling and a node count of its
/// largest id plus one; an edge listed twice, in either direction, is
/// kept once (datasets often list both directions).
///
/// # Errors
///
/// Every error carries the number of the offending line:
/// [`GraphError::Parse`] on malformed input (for a native file without
/// an `n` header, line 0), [`GraphError::TooManyNodes`] on a count past
/// [`MAX_NODES`], and [`GraphError::EdgelistSelfLoop`] on a `u u`
/// edge-list line. A native file can also fail with the usual
/// construction errors for duplicate labels or edges, self-loops and
/// indices past its `n`.
pub fn from_str(s: &str) -> Result<Graph, GraphError> {
    let mut lines = s
        .lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .peekable();
    let native = lines
        .peek()
        .is_some_and(|(_, l)| matches!(l.split_whitespace().next(), Some("n" | "l" | "e")));
    if native {
        parse_native(lines)
    } else {
        parse_pairs(lines)
    }
}

fn parse_error(line: usize, message: &str) -> GraphError {
    GraphError::Parse {
        line,
        message: message.to_string(),
    }
}

/// The next whitespace-separated field of `line` as an integer; `what`
/// names it in the error.
fn field<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<u64, GraphError> {
    parts
        .next()
        .ok_or_else(|| parse_error(line, &format!("missing {what}")))?
        .parse::<u64>()
        .map_err(|_| parse_error(line, &format!("{what} is not an integer")))
}

/// A field that must fit in a `u32` (a node index or a label).
fn field_u32<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<u32, GraphError> {
    u32::try_from(field(parts, line, what)?)
        .map_err(|_| parse_error(line, &format!("{what} does not fit in 32 bits")))
}

fn parse_native<'a>(lines: impl Iterator<Item = (usize, &'a str)>) -> Result<Graph, GraphError> {
    let mut n: Option<usize> = None;
    let mut labels: Vec<(u32, u32)> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (line, text) in lines {
        let mut parts = text.split_whitespace();
        match parts.next() {
            Some("n") => {
                let count = field(&mut parts, line, "node count")?;
                if count > MAX_NODES as u64 {
                    return Err(GraphError::TooManyNodes { nodes: count, line });
                }
                n = Some(count as usize);
            }
            Some("l") => labels.push((
                field_u32(&mut parts, line, "node index")?,
                field_u32(&mut parts, line, "label")?,
            )),
            Some("e") => edges.push((
                field_u32(&mut parts, line, "first endpoint")?,
                field_u32(&mut parts, line, "second endpoint")?,
            )),
            _ => return Err(parse_error(line, "unknown line tag")),
        }
    }
    let n = n.ok_or_else(|| parse_error(0, "missing 'n' header"))?;
    let mut label_of: Vec<u32> = (0..n as u32).collect();
    for (idx, lab) in labels {
        let slot = label_of
            .get_mut(idx as usize)
            .ok_or(GraphError::UnknownNode(NodeId(idx)))?;
        *slot = lab;
    }
    let mut b = GraphBuilder::new();
    for l in label_of {
        b.add_node(Label(l))?;
    }
    for (u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v))?;
    }
    Ok(b.build())
}

fn parse_pairs<'a>(lines: impl Iterator<Item = (usize, &'a str)>) -> Result<Graph, GraphError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut n = 0usize;
    for (line, text) in lines {
        let mut parts = text.split_whitespace();
        let mut endpoint = |what: &str| -> Result<u32, GraphError> {
            let id = field(&mut parts, line, what)?;
            if id >= MAX_NODES as u64 {
                return Err(GraphError::TooManyNodes {
                    nodes: id + 1,
                    line,
                });
            }
            Ok(id as u32)
        };
        let (u, v) = (endpoint("first endpoint")?, endpoint("second endpoint")?);
        if parts.next().is_some() {
            return Err(parse_error(line, "trailing tokens after edge"));
        }
        if u == v {
            return Err(GraphError::EdgelistSelfLoop {
                node: NodeId(u),
                line,
            });
        }
        n = n.max(u.max(v) as usize + 1);
        edges.push((u.min(v), u.max(v)));
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::permute;
    use crate::rng::DetRng;

    #[test]
    fn round_trip_identity_labels() {
        let g = generators::cycle(7);
        let s = to_string(&g);
        assert!(!s.contains("\nl "));
        let h = from_str(&s).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn round_trip_custom_labels() {
        let g = permute::reverse_labels(&generators::path(5));
        let s = to_string(&g);
        assert!(s.contains("l 0 4"));
        let h = from_str(&s).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = from_str("# fixture\nn 2\n\ne 0 1\n").unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = from_str("n 2\nx 0 1\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn native_repeated_edge_is_a_duplicate_in_either_orientation() {
        // Node 0 has the longer list when the repeat arrives, so the
        // builder's check scans the other endpoint's list.
        for (a, b) in [(0, 1), (1, 0)] {
            let text = format!("n 4\ne 0 1\ne 0 2\ne 0 3\ne {a} {b}\n");
            assert_eq!(
                from_str(&text).unwrap_err(),
                GraphError::DuplicateEdge(NodeId(a), NodeId(b))
            );
        }
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(matches!(from_str("e 0 1\n"), Err(GraphError::Parse { .. })));
    }

    #[test]
    fn edgelist_round_trips_connected_graphs() {
        let mut rng = DetRng::seed_from_u64(0xED9E);
        for n in [2usize, 5, 17, 40] {
            let g = generators::random_connected(n, n / 3, &mut rng);
            let s: String = g
                .edges()
                .map(|(u, v)| format!("{} {}\n", u.0, v.0))
                .collect();
            let h = from_str(&s).unwrap();
            assert_eq!(g, h, "n = {n}");
        }
    }

    #[test]
    fn edgelist_tolerates_comments_blanks_and_duplicates() {
        let s = "# AS-level topology excerpt\n\n0 1\n1 0\n\n  2 1 \n# trailing comment\n";
        let g = from_str(s).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn edgelist_errors_are_typed() {
        assert!(matches!(
            from_str("0 x\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_str("0 1 2\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            from_str("0 1\n3\n"),
            Err(GraphError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn edgelist_self_loop_carries_line_number() {
        assert_eq!(
            from_str("0 1\n\n# comment\n4 4\n").unwrap_err(),
            GraphError::EdgelistSelfLoop {
                node: NodeId(4),
                line: 4
            }
        );
    }

    #[test]
    fn edgelist_overflowing_ids_carry_line_number() {
        // Larger than u64: not even an integer in range.
        assert!(matches!(
            from_str("0 99999999999999999999\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
        // Fits u64 but asks for more nodes than a file may hold.
        let big = u64::from(u32::MAX);
        assert_eq!(
            from_str(&format!("0 1\n{big} 0\n")).unwrap_err(),
            GraphError::TooManyNodes {
                nodes: big + 1,
                line: 2
            }
        );
    }

    #[test]
    fn empty_edgelist_is_the_empty_graph() {
        let g = from_str("# nothing here\n").unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn node_count_is_capped_in_both_dialects() {
        let cap = MAX_NODES as u64;
        assert_eq!(
            from_str(&format!("n {cap}\n")).unwrap().node_count(),
            MAX_NODES
        );
        assert_eq!(
            from_str(&format!("0 {}\n", cap - 1)).unwrap().node_count(),
            MAX_NODES
        );
        assert_eq!(
            from_str(&format!("# header\nn {}\n", cap + 1)).unwrap_err(),
            GraphError::TooManyNodes {
                nodes: cap + 1,
                line: 2
            }
        );
        assert_eq!(
            from_str(&format!("0 {cap}\n")).unwrap_err(),
            GraphError::TooManyNodes {
                nodes: cap + 1,
                line: 1
            }
        );
        // A dozen bytes naming billions of nodes.
        assert!(matches!(
            from_str("n 4000000000\n"),
            Err(GraphError::TooManyNodes { line: 1, .. })
        ));
        assert!(matches!(
            from_str("0 4294967294\n"),
            Err(GraphError::TooManyNodes { line: 1, .. })
        ));
    }

    #[test]
    fn first_content_line_picks_the_dialect() {
        // A native tag anywhere but first is not a `u v` pair.
        assert!(matches!(
            from_str("# c\n0 1\ne 1 2\n"),
            Err(GraphError::Parse { line: 3, .. })
        ));
        // Native lines must all carry a tag.
        assert!(matches!(
            from_str("n 3\n0 1\n"),
            Err(GraphError::Parse { line: 2, .. })
        ));
        assert_eq!(
            from_str("\n# triangle\n0 1\n1 2\n2 0\n").unwrap(),
            generators::cycle(3)
        );
    }
}
