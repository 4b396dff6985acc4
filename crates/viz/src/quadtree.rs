//! Barnes–Hut quadtree for approximate n-body repulsion.
//!
//! ForceAtlas2's repulsion term is an all-pairs sum; the quadtree
//! approximates the force from a far-away cell by the force from its
//! center of mass, cutting the per-iteration cost from `O(n^2)` to
//! `O(n log n)` — the optimization the original ForceAtlas2 paper ships
//! for large graphs.

/// A point with a mass (ForceAtlas2 uses `degree + 1`).
#[derive(Clone, Copy, Debug)]
pub struct Body {
    /// Position.
    pub pos: [f64; 2],
    /// Mass.
    pub mass: f64,
}

enum Node {
    Empty,
    Leaf(Body),
    Internal {
        children: Box<[Node; 4]>,
        center_of_mass: [f64; 2],
        total_mass: f64,
        /// Side length of this cell.
        size: f64,
    },
}

/// A built quadtree over a set of bodies.
pub struct QuadTree {
    root: Node,
}

impl QuadTree {
    /// Builds a tree over `bodies`. Coincident points are merged into one
    /// leaf with summed mass (they exert no finite pairwise force anyway).
    pub fn build(bodies: &[Body]) -> QuadTree {
        if bodies.is_empty() {
            return QuadTree { root: Node::Empty };
        }
        let (mut min, mut max) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
        for b in bodies {
            for d in 0..2 {
                min[d] = min[d].min(b.pos[d]);
                max[d] = max[d].max(b.pos[d]);
            }
        }
        let size = ((max[0] - min[0]).max(max[1] - min[1])).max(1e-9);
        let mut root = Node::Empty;
        for &b in bodies {
            insert(&mut root, b, [min[0], min[1]], size, 0);
        }
        QuadTree { root }
    }

    /// Accumulates the Barnes–Hut-approximated repulsion force on a body
    /// at `pos` with mass `mass`, where a pair `(a, b)` at distance `d`
    /// repels with magnitude `coefficient * mass_a * mass_b / d`
    /// (ForceAtlas2's `k_r (deg_a+1)(deg_b+1) / d`).
    ///
    /// `theta` is the opening criterion (0.5 is customary; 0 degenerates
    /// to the exact sum).
    pub fn repulsion(&self, pos: [f64; 2], mass: f64, coefficient: f64, theta: f64) -> [f64; 2] {
        let mut force = [0.0, 0.0];
        accumulate(&self.root, pos, mass, coefficient, theta, &mut force);
        force
    }
}

fn insert(node: &mut Node, body: Body, origin: [f64; 2], size: f64, depth: usize) {
    match node {
        Node::Empty => *node = Node::Leaf(body),
        Node::Leaf(existing) => {
            let existing = *existing;
            // Merge coincident (or numerically indistinguishable) points.
            let same = (existing.pos[0] - body.pos[0]).abs() < 1e-12
                && (existing.pos[1] - body.pos[1]).abs() < 1e-12;
            if same || depth > 48 {
                *node = Node::Leaf(Body {
                    pos: existing.pos,
                    mass: existing.mass + body.mass,
                });
                return;
            }
            *node = Node::Internal {
                children: Box::new([Node::Empty, Node::Empty, Node::Empty, Node::Empty]),
                center_of_mass: [0.0, 0.0],
                total_mass: 0.0,
                size,
            };
            insert(node, existing, origin, size, depth);
            insert(node, body, origin, size, depth);
        }
        Node::Internal { children, center_of_mass, total_mass, .. } => {
            // Update aggregate.
            let new_mass = *total_mass + body.mass;
            for (com, &pos) in center_of_mass.iter_mut().zip(&body.pos) {
                *com = (*com * *total_mass + pos * body.mass) / new_mass;
            }
            *total_mass = new_mass;
            // Route into the quadrant.
            let half = size / 2.0;
            let qx = usize::from(body.pos[0] >= origin[0] + half);
            let qy = usize::from(body.pos[1] >= origin[1] + half);
            let quadrant = qy * 2 + qx;
            let child_origin = [
                origin[0] + qx as f64 * half,
                origin[1] + qy as f64 * half,
            ];
            insert(&mut children[quadrant], body, child_origin, half, depth + 1);
        }
    }
}

fn accumulate(
    node: &Node,
    pos: [f64; 2],
    mass: f64,
    coefficient: f64,
    theta: f64,
    force: &mut [f64; 2],
) {
    match node {
        Node::Empty => {}
        Node::Leaf(b) => {
            add_pair_force(pos, mass, b.pos, b.mass, coefficient, force);
        }
        Node::Internal { children, center_of_mass, total_mass, size } => {
            let dx = pos[0] - center_of_mass[0];
            let dy = pos[1] - center_of_mass[1];
            let dist = (dx * dx + dy * dy).sqrt();
            if *size / dist.max(1e-12) < theta {
                add_pair_force(pos, mass, *center_of_mass, *total_mass, coefficient, force);
            } else {
                for c in children.iter() {
                    accumulate(c, pos, mass, coefficient, theta, force);
                }
            }
        }
    }
}

#[inline]
fn add_pair_force(
    pos: [f64; 2],
    mass: f64,
    other: [f64; 2],
    other_mass: f64,
    coefficient: f64,
    force: &mut [f64; 2],
) {
    let dx = pos[0] - other[0];
    let dy = pos[1] - other[1];
    let d2 = dx * dx + dy * dy;
    if d2 < 1e-18 {
        return; // self-interaction / coincident merged leaf
    }
    // F = k m1 m2 / d along the separation direction:
    // components = k m1 m2 / d * (dx, dy)/d = k m1 m2 (dx, dy) / d^2.
    let f = coefficient * mass * other_mass / d2;
    force[0] += f * dx;
    force[1] += f * dy;
}

/// Exact all-pairs repulsion (for tests and small graphs).
pub fn exact_repulsion(bodies: &[Body], i: usize, coefficient: f64) -> [f64; 2] {
    let mut force = [0.0, 0.0];
    for (j, b) in bodies.iter().enumerate() {
        if j != i {
            add_pair_force(bodies[i].pos, bodies[i].mass, b.pos, b.mass, coefficient, &mut force);
        }
    }
    force
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bodies(n: usize, seed: u64) -> Vec<Body> {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Body {
                pos: [rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)],
                mass: rng.gen_range(1.0..5.0),
            })
            .collect()
    }

    #[test]
    fn two_bodies_exact() {
        let bodies = vec![
            Body { pos: [0.0, 0.0], mass: 2.0 },
            Body { pos: [3.0, 0.0], mass: 1.0 },
        ];
        let tree = QuadTree::build(&bodies);
        let f = tree.repulsion([0.0, 0.0], 2.0, 1.0, 0.5);
        // Magnitude k m1 m2 / d = 2/3, pointing in -x.
        assert!((f[0] + 2.0 / 3.0).abs() < 1e-9, "f = {f:?}");
        assert!(f[1].abs() < 1e-12);
    }

    #[test]
    fn theta_zero_matches_exact() {
        let bodies = random_bodies(60, 1);
        let tree = QuadTree::build(&bodies);
        for i in 0..bodies.len() {
            let exact = exact_repulsion(&bodies, i, 1.0);
            let approx = tree.repulsion(bodies[i].pos, bodies[i].mass, 1.0, 0.0);
            // theta = 0 must reproduce the exact force, modulo the query
            // body being inside the tree (its own leaf is skipped by the
            // coincident-point guard).
            assert!((exact[0] - approx[0]).abs() < 1e-6, "i = {i}");
            assert!((exact[1] - approx[1]).abs() < 1e-6);
        }
    }

    #[test]
    fn theta_half_is_close_to_exact() {
        let bodies = random_bodies(200, 2);
        let tree = QuadTree::build(&bodies);
        let mut total_rel_err = 0.0;
        for i in 0..bodies.len() {
            let exact = exact_repulsion(&bodies, i, 1.0);
            let approx = tree.repulsion(bodies[i].pos, bodies[i].mass, 1.0, 0.5);
            let mag = (exact[0] * exact[0] + exact[1] * exact[1]).sqrt().max(1e-9);
            let err = ((exact[0] - approx[0]).powi(2) + (exact[1] - approx[1]).powi(2)).sqrt();
            total_rel_err += err / mag;
        }
        let avg = total_rel_err / bodies.len() as f64;
        assert!(avg < 0.05, "average relative error {avg}");
    }

    #[test]
    fn coincident_points_merge() {
        let bodies = vec![
            Body { pos: [1.0, 1.0], mass: 1.0 },
            Body { pos: [1.0, 1.0], mass: 1.0 },
            Body { pos: [5.0, 5.0], mass: 1.0 },
        ];
        let tree = QuadTree::build(&bodies);
        let f = tree.repulsion([5.0, 5.0], 1.0, 1.0, 0.5);
        // Force from merged mass 2 at (1,1).
        assert!(f[0] > 0.0 && f[1] > 0.0);
        let exact = exact_repulsion(&bodies, 2, 1.0);
        assert!((f[0] - exact[0]).abs() < 1e-9);
    }

    #[test]
    fn empty_tree_no_force() {
        let tree = QuadTree::build(&[]);
        assert_eq!(tree.repulsion([0.0, 0.0], 1.0, 1.0, 0.5), [0.0, 0.0]);
    }

    #[test]
    fn forces_push_apart() {
        let bodies = random_bodies(50, 3);
        let tree = QuadTree::build(&bodies);
        // The centroid of forces should push bodies away from the cloud
        // center: dot(force, pos - centroid) > 0 for most bodies.
        let cx = bodies.iter().map(|b| b.pos[0]).sum::<f64>() / 50.0;
        let cy = bodies.iter().map(|b| b.pos[1]).sum::<f64>() / 50.0;
        let outward = bodies
            .iter()
            .filter(|b| {
                let f = tree.repulsion(b.pos, b.mass, 1.0, 0.5);
                f[0] * (b.pos[0] - cx) + f[1] * (b.pos[1] - cy) > 0.0
            })
            .count();
        assert!(outward > 40, "only {outward}/50 pushed outward");
    }
}
