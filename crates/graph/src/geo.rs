//! Geometric embeddings and unit disc graphs (§3 context).
//!
//! The paper positions itself against *position-based* routing, where
//! nodes know coordinates in the plane and the network is typically a
//! unit disc graph. This module provides that substrate so the §3
//! comparators (greedy and compass routing) can be run next to the
//! position-oblivious algorithms.

use crate::rng::DetRng;

use crate::graph::{Graph, GraphBuilder};
use crate::labels::{Label, NodeId};

/// A point in the plane.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to `other`.
    pub fn dist(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Angle (radians, in `[0, π]`) between the segments `self -> a`
    /// and `self -> b`.
    pub fn angle_between(self, a: Point, b: Point) -> f64 {
        let (ux, uy) = (a.x - self.x, a.y - self.y);
        let (vx, vy) = (b.x - self.x, b.y - self.y);
        let dot = ux * vx + uy * vy;
        let nu = (ux * ux + uy * uy).sqrt();
        let nv = (vx * vx + vy * vy).sqrt();
        if nu == 0.0 || nv == 0.0 {
            return 0.0;
        }
        (dot / (nu * nv)).clamp(-1.0, 1.0).acos()
    }
}

/// A graph together with a planar embedding of its nodes.
#[derive(Clone, Debug)]
pub struct EmbeddedGraph {
    /// The combinatorial graph.
    pub graph: Graph,
    /// `positions[u.index()]` is node `u`'s location.
    pub positions: Vec<Point>,
}

impl EmbeddedGraph {
    /// Position of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn position(&self, u: NodeId) -> Point {
        self.positions[u.index()]
    }
}

/// Builds the unit disc graph of `points` with the given radius: nodes
/// are connected iff their Euclidean distance is at most `radius`.
pub fn unit_disc(points: &[Point], radius: f64) -> EmbeddedGraph {
    let mut b = GraphBuilder::new();
    for i in 0..points.len() {
        b.add_node(Label(i as u32)).expect("sequential labels");
    }
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if points[i].dist(points[j]) <= radius {
                b.add_edge(NodeId(i as u32), NodeId(j as u32))
                    .expect("simple");
            }
        }
    }
    EmbeddedGraph {
        graph: b.build(),
        positions: points.to_vec(),
    }
}

/// `n` uniform random points in the unit square.
pub fn random_points(n: usize, rng: &mut DetRng) -> Vec<Point> {
    (0..n)
        .map(|_| Point {
            x: rng.gen_f64(),
            y: rng.gen_f64(),
        })
        .collect()
}

/// Keeps sampling point sets until the unit disc graph is connected
/// (bounded retries).
///
/// # Panics
///
/// Panics if no connected instance is found within 200 attempts — raise
/// the radius.
pub fn random_connected_udg(n: usize, radius: f64, rng: &mut DetRng) -> EmbeddedGraph {
    for _ in 0..200 {
        let g = unit_disc(&random_points(n, rng), radius);
        if crate::traversal::is_connected(&g.graph) {
            return g;
        }
    }
    panic!("no connected unit disc graph found; radius {radius} too small for n = {n}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn point_geometry() {
        let o = Point { x: 0.0, y: 0.0 };
        let e = Point { x: 1.0, y: 0.0 };
        let nn = Point { x: 0.0, y: 1.0 };
        assert!((o.dist(e) - 1.0).abs() < 1e-12);
        assert!((o.angle_between(e, nn) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(o.angle_between(e, e), 0.0);
    }

    #[test]
    fn unit_disc_edges_follow_radius() {
        let pts = [
            Point { x: 0.0, y: 0.0 },
            Point { x: 0.5, y: 0.0 },
            Point { x: 2.0, y: 0.0 },
        ];
        let g = unit_disc(&pts, 1.0);
        assert!(g.graph.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.graph.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.graph.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn random_udg_is_connected() {
        let mut rng = DetRng::seed_from_u64(9);
        let g = random_connected_udg(30, 0.35, &mut rng);
        assert!(crate::traversal::is_connected(&g.graph));
        assert_eq!(g.positions.len(), 30);
    }
}
