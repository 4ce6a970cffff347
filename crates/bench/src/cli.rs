//! Spec parsing shared by the `localroute` CLI: graph family specs and
//! algorithm names.

use std::fmt;

use local_routing::baselines::RightHandRule;
use local_routing::{Alg1, Alg1B, Alg2, Alg3, Alg3OriginAware, LocalRouter};
use locality_adversary::tight;
use locality_graph::rng::DetRng;
use locality_graph::{generators, io, Graph, GraphError};

/// Why a command-line spec was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A numeric parameter in a family spec did not parse.
    BadNumber(String),
    /// A known family was given the wrong number of parameters.
    WrongArity {
        /// The family name, e.g. `grid`.
        family: String,
        /// How many parameters it needs.
        need: usize,
    },
    /// A family's parameters are outside what its generator accepts,
    /// or ask for more than [`io::MAX_NODES`] nodes or
    /// [`MAX_SPEC_EDGES`] edges.
    OutOfRange {
        /// The family name, e.g. `cycle`.
        family: String,
        /// What the family needs, e.g. `N >= 3`.
        need: String,
    },
    /// The family name is not one of the known generators.
    UnknownFamily(String),
    /// The spec looked like a file path but the file was unreadable.
    UnreadableFile {
        /// The path as given on the command line.
        path: String,
        /// The I/O error text.
        message: String,
    },
    /// The graph file was readable but did not parse.
    BadGraphFile(GraphError),
    /// Not a recognized algorithm name.
    UnknownAlgorithm(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::BadNumber(spec) => write!(f, "bad number in '{spec}'"),
            CliError::WrongArity { family, need } => {
                write!(f, "{family} needs {need} parameter(s)")
            }
            CliError::OutOfRange { family, need } => write!(f, "{family} needs {need}"),
            CliError::UnknownFamily(name) => write!(f, "unknown family '{name}'"),
            CliError::UnreadableFile { path, message } => {
                write!(f, "cannot read {path}: {message}")
            }
            CliError::BadGraphFile(e) => write!(f, "{e}"),
            CliError::UnknownAlgorithm(name) => write!(
                f,
                "unknown algorithm '{name}' (use alg1|alg1b|alg2|alg3|alg3o|rhr)"
            ),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::BadGraphFile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CliError> for String {
    fn from(e: CliError) -> String {
        e.to_string()
    }
}

/// The most edges a family spec may ask for.
pub const MAX_SPEC_EDGES: usize = 4_000_000;

/// Parses a graph spec: either a known family
/// (`path:N`, `cycle:N`, `grid:RxC`, `lollipop:C,T`, `spider:L,LEN`,
/// `complete:N`, `random:N,SEED`, `fig13:N`, `fig17:N`) or a path to a
/// graph file, read by [`io::from_str`]: the native format or a plain
/// `u v` edge list.
///
/// A family's parameters are checked before its generator runs: they
/// must meet the generator's precondition (`cycle` needs `N >= 3`, say)
/// and stay within [`io::MAX_NODES`] and [`MAX_SPEC_EDGES`]. A file
/// is held to the same node cap before anything is allocated for it.
///
/// # Errors
///
/// Returns a [`CliError`] describing the malformed or out-of-range spec
/// or the unreadable file.
pub fn parse_graph(spec: &str) -> Result<Graph, CliError> {
    if let Some((family, rest)) = spec.split_once(':') {
        let nums: Vec<usize> = rest
            .split([',', 'x'])
            .map(|p| p.parse().map_err(|_| CliError::BadNumber(spec.to_string())))
            .collect::<Result<_, _>>()?;
        let need = |n: usize| -> Result<(), CliError> {
            if nums.len() == n {
                Ok(())
            } else {
                Err(CliError::WrongArity {
                    family: family.to_string(),
                    need: n,
                })
            }
        };
        check_size(family, &nums)?;
        return match family {
            "path" => {
                need(1)?;
                Ok(generators::path(nums[0]))
            }
            "cycle" => {
                need(1)?;
                Ok(generators::cycle(nums[0]))
            }
            "grid" => {
                need(2)?;
                Ok(generators::grid(nums[0], nums[1]))
            }
            "lollipop" => {
                need(2)?;
                Ok(generators::lollipop(nums[0], nums[1]))
            }
            "spider" => {
                need(2)?;
                Ok(generators::spider(nums[0], nums[1]))
            }
            "complete" => {
                need(1)?;
                Ok(generators::complete(nums[0]))
            }
            "random" => {
                need(2)?;
                let mut rng = DetRng::seed_from_u64(nums[1] as u64);
                Ok(generators::random_mixed(nums[0], &mut rng))
            }
            "fig13" => {
                need(1)?;
                Ok(tight::fig13(nums[0]).graph)
            }
            "fig17" => {
                need(1)?;
                Ok(tight::fig17(nums[0]).graph)
            }
            other => Err(CliError::UnknownFamily(other.to_string())),
        };
    }
    let text = std::fs::read_to_string(spec).map_err(|e| CliError::UnreadableFile {
        path: spec.to_string(),
        message: e.to_string(),
    })?;
    io::from_str(&text).map_err(CliError::BadGraphFile)
}

/// Refuses a family spec whose parameters the generator would assert
/// on, or that asks for more than [`io::MAX_NODES`] nodes or
/// [`MAX_SPEC_EDGES`] edges, before anything is allocated for it. An
/// unknown family or a wrong parameter count passes, for
/// [`parse_graph`] to name.
fn check_size(family: &str, nums: &[usize]) -> Result<(), CliError> {
    let w = |x: usize| x as u128;
    // (precondition holds, what it says, nodes, edges)
    let (ok, what, nodes, edges) = match (family, nums) {
        ("path", &[n]) => (n >= 1, "N >= 1", w(n), w(n).saturating_sub(1)),
        ("cycle", &[n]) => (n >= 3, "N >= 3", w(n), w(n)),
        ("grid", &[r, c]) => {
            let (r, c) = (w(r), w(c));
            let edges = (r * c.saturating_sub(1)).saturating_add(c * r.saturating_sub(1));
            (r >= 1 && c >= 1, "R >= 1 and C >= 1", r * c, edges)
        }
        ("lollipop", &[c, t]) => (c >= 3, "C >= 3", w(c) + w(t), w(c) + w(t)),
        ("spider", &[legs, len]) => {
            let edges = w(legs) * w(len);
            (
                legs >= 1 && len >= 1,
                "L >= 1 and LEN >= 1",
                edges + 1,
                edges,
            )
        }
        ("complete", &[n]) => (n >= 1, "N >= 1", w(n), w(n) * w(n).saturating_sub(1) / 2),
        // Every shape random_mixed draws has fewer than 2N edges.
        ("random", &[n, _]) => (n >= 1, "N >= 1", w(n), 2 * w(n)),
        ("fig13", &[n]) => (
            n.is_multiple_of(4) && n >= 16,
            "N a multiple of 4, N >= 16",
            w(n),
            w(n),
        ),
        ("fig17", &[n]) => (
            n.is_multiple_of(4) && n >= 28,
            "N a multiple of 4, N >= 28",
            w(n),
            w(n) + 1,
        ),
        _ => return Ok(()),
    };
    let need = if !ok {
        what.to_string()
    } else if nodes > w(io::MAX_NODES) {
        format!("at most {} nodes (this spec has {nodes})", io::MAX_NODES)
    } else if edges > w(MAX_SPEC_EDGES) {
        format!("at most {MAX_SPEC_EDGES} edges (this spec has {edges})")
    } else {
        return Ok(());
    };
    Err(CliError::OutOfRange {
        family: family.to_string(),
        need,
    })
}

/// Parses an algorithm name: `alg1 | alg1b | alg2 | alg3 | alg3o | rhr`.
///
/// # Errors
///
/// Returns [`CliError::UnknownAlgorithm`] listing the valid names.
pub fn parse_alg(name: &str) -> Result<Box<dyn LocalRouter>, CliError> {
    match name {
        "alg1" => Ok(Box::new(Alg1)),
        "alg1b" => Ok(Box::new(Alg1B)),
        "alg2" => Ok(Box::new(Alg2)),
        "alg3" => Ok(Box::new(Alg3)),
        "alg3o" => Ok(Box::new(Alg3OriginAware)),
        "rhr" => Ok(Box::new(RightHandRule)),
        other => Err(CliError::UnknownAlgorithm(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(spec: &str) -> Graph {
        parse_graph(spec).expect("spec is well-formed")
    }

    #[test]
    fn parses_families() {
        assert_eq!(parsed("path:5").node_count(), 5);
        assert_eq!(parsed("path:1").node_count(), 1);
        assert_eq!(parsed("cycle:3").edge_count(), 3);
        assert_eq!(parsed("cycle:7").edge_count(), 7);
        assert_eq!(parsed("grid:3x4").node_count(), 12);
        assert_eq!(parsed("lollipop:5,2").node_count(), 7);
        assert_eq!(parsed("spider:3,2").node_count(), 7);
        assert_eq!(parsed("complete:5").edge_count(), 10);
        assert_eq!(parsed("fig13:16").node_count(), 16);
        assert_eq!(parsed("fig17:28").node_count(), 28);
        assert_eq!(
            parsed("random:9,3"),
            parsed("random:9,3"),
            "random specs are seeded and reproducible"
        );
    }

    #[test]
    fn rejects_bad_specs() {
        assert_eq!(
            parse_graph("path:abc").err(),
            Some(CliError::BadNumber("path:abc".to_string()))
        );
        assert_eq!(
            parse_graph("grid:3").err(),
            Some(CliError::WrongArity {
                family: "grid".to_string(),
                need: 2
            })
        );
        assert_eq!(
            parse_graph("nosuch:3").err(),
            Some(CliError::UnknownFamily("nosuch".to_string()))
        );
        assert!(matches!(
            parse_graph("/no/such/file"),
            Err(CliError::UnreadableFile { .. })
        ));
        // Outside a generator's range, or past the size caps: refused
        // before anything is generated.
        for (spec, want) in [
            ("cycle:2", "cycle needs N >= 3"),
            ("fig17:30", "fig17 needs N a multiple of 4, N >= 28"),
            ("spider:0,3", "spider needs L >= 1 and LEN >= 1"),
            (
                "grid:100000x100000",
                "grid needs at most 1000000 nodes (this spec has 10000000000)",
            ),
            (
                "complete:100000",
                "complete needs at most 4000000 edges (this spec has 4999950000)",
            ),
        ] {
            let err = parse_graph(spec).err();
            assert!(matches!(err, Some(CliError::OutOfRange { .. })), "{spec}");
            assert_eq!(err.map(|e| e.to_string()).as_deref(), Some(want));
        }
        let huge = format!("grid:{0}x{0}", usize::MAX);
        assert!(matches!(
            parse_graph(&huge),
            Err(CliError::OutOfRange { .. })
        ));
    }

    #[test]
    fn parses_algorithms() {
        for (name, expect) in [
            ("alg1", "algorithm-1"),
            ("alg1b", "algorithm-1b"),
            ("alg2", "algorithm-2"),
            ("alg3", "algorithm-3"),
            ("alg3o", "algorithm-3-origin-aware"),
            ("rhr", "right-hand-rule"),
        ] {
            assert_eq!(parse_alg(name).expect("known name").name(), expect);
        }
        assert_eq!(
            parse_alg("alg9").err(),
            Some(CliError::UnknownAlgorithm("alg9".to_string()))
        );
    }

    #[test]
    fn file_round_trip() {
        let g = generators::cycle(6);
        let path = std::env::temp_dir().join("localroute-cli-test.graph");
        std::fs::write(&path, io::to_string(&g)).expect("temp dir is writable");
        let h = parse_graph(path.to_str().expect("path is valid UTF-8"))
            .expect("round-tripped file parses");
        assert_eq!(g, h);
        let _ = std::fs::remove_file(path);
    }
}
