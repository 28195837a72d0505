//! Topology generators: spec → network IR.
//!
//! Each generator lowers a [`TopologySpec`] to a [`World`] — the
//! compiler's intermediate representation: the built [`Network`], the
//! [`Boundary`] terminal lists the demand programs address, and the
//! signalized nodes in agent order. Only the [`TopologySpec::City`]
//! generator consumes RNG state (position jitter, edge removal, lane
//! mix); the regular shapes are pure functions of their parameters.
//! RNG consumption order is part of the determinism contract: with the
//! Monaco parameters the City generator replays the legacy
//! `tsc_sim::scenario::monaco` builder draw-for-draw (pinned by test).

use rand::rngs::StdRng;
use rand::Rng;

use tsc_sim::scenario::grid::{arterial_lanes, avenue_lanes, Grid, GridConfig};
use tsc_sim::scenario::Boundary;
use tsc_sim::{Direction, Lane, Network, NetworkBuilder, NodeId, SignalPlan, SimError};

use crate::spec::TopologySpec;

/// The compiler's network-level IR: a built network plus the lookup
/// structure the demand stage needs.
#[derive(Debug, Clone)]
pub struct World {
    /// The built road network.
    pub network: Network,
    /// Boundary terminals by side (the surface demand programs use).
    pub boundary: Boundary,
    /// Signalized intersections in agent order.
    pub signalized: Vec<NodeId>,
}

impl World {
    /// Four-phase signal plans for every signalized node, in agent
    /// order (three-way nodes get fewer phases; see
    /// [`SignalPlan::four_phase`]).
    ///
    /// # Errors
    ///
    /// Propagates plan-construction failures (a node with no incoming
    /// links).
    pub fn signal_plans(&self) -> Result<Vec<SignalPlan>, SimError> {
        self.signalized
            .iter()
            .map(|&n| SignalPlan::four_phase(&self.network, n))
            .collect()
    }
}

/// Builds the network for `spec`, drawing any stochastic choices from
/// `rng` (the compile-wide stream seeded with the spec seed).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for degenerate parameters and
/// for topologies beyond [`MAX_INTERSECTIONS`](crate::spec::MAX_INTERSECTIONS)
/// (checked here too, since specs built in code skip the parser).
pub fn build(spec: &TopologySpec, rng: &mut StdRng) -> Result<World, SimError> {
    spec.check_size()?;
    match *spec {
        TopologySpec::Grid {
            cols,
            rows,
            spacing,
        } => build_grid(cols, rows, spacing),
        TopologySpec::City {
            cols,
            rows,
            spacing,
            edge_removal,
            two_lane_frac,
            jitter,
        } => build_city(
            cols,
            rows,
            spacing,
            edge_removal,
            two_lane_frac,
            jitter,
            rng,
        ),
        TopologySpec::Corridor { length, spacing } => build_corridor(length, spacing),
        TopologySpec::Ring {
            cols,
            rows,
            spacing,
        } => build_ring(cols, rows, spacing),
    }
}

fn build_grid(cols: usize, rows: usize, spacing: f64) -> Result<World, SimError> {
    let grid = Grid::build(GridConfig {
        cols,
        rows,
        spacing,
    })?;
    let boundary = grid.boundary();
    let signalized = grid.network().signalized_nodes();
    Ok(World {
        network: grid.network().clone(),
        boundary,
        signalized,
    })
}

/// The irregular city generator — the generalized form of the legacy
/// Monaco builder. Nodes sit on a jittered lattice; a random subset of
/// interior edges is removed (never dropping a node below degree 2);
/// kept edges are one- or two-lane; boundary terminals feed every
/// border row and column.
#[allow(clippy::too_many_arguments)]
fn build_city(
    cols: usize,
    rows: usize,
    spacing: f64,
    edge_removal: f64,
    two_lane_frac: f64,
    jitter: f64,
    rng: &mut StdRng,
) -> Result<World, SimError> {
    if cols < 3 || rows < 3 {
        return Err(SimError::InvalidConfig(
            "city topology needs at least a 3x3 lattice".into(),
        ));
    }
    if spacing <= 0.0 {
        return Err(SimError::InvalidConfig("city spacing must be > 0".into()));
    }
    if !(0.0..0.5).contains(&edge_removal) {
        return Err(SimError::InvalidConfig(
            "edge_removal must be in [0, 0.5)".into(),
        ));
    }
    if !(0.0..=1.0).contains(&two_lane_frac) {
        return Err(SimError::InvalidConfig(
            "two_lane_frac must be in [0, 1]".into(),
        ));
    }
    if !(0.0..0.5).contains(&jitter) || jitter == 0.0 {
        return Err(SimError::InvalidConfig("jitter must be in (0, 0.5)".into()));
    }
    let mut b = NetworkBuilder::new();
    let s = spacing;
    // Jittered lattice positions give varied link lengths.
    let mut nodes = vec![vec![NodeId(0); rows]; cols];
    for (col, column) in nodes.iter_mut().enumerate() {
        for (row, slot) in column.iter_mut().enumerate() {
            let jx = rng.gen_range(-jitter..jitter) * s;
            let jy = rng.gen_range(-jitter..jitter) * s;
            *slot = b.add_node(col as f64 * s + jx, row as f64 * s + jy, true);
        }
    }
    // Candidate interior edges; drop a deterministic random subset, but
    // never disconnect a node below degree 2 (so routes stay plentiful).
    let mut degree = vec![0usize; cols * rows];
    let idx = |c: usize, r: usize| c * rows + r;
    let mut edges: Vec<(usize, usize, usize, usize, Direction)> = Vec::new();
    for c in 0..cols {
        for r in 0..rows {
            if c + 1 < cols {
                edges.push((c, r, c + 1, r, Direction::East));
            }
            if r + 1 < rows {
                edges.push((c, r, c, r + 1, Direction::North));
            }
        }
    }
    for &(c0, r0, c1, r1, _) in &edges {
        degree[idx(c0, r0)] += 1;
        degree[idx(c1, r1)] += 1;
    }
    let mut kept = Vec::new();
    for e in edges {
        let (c0, r0, c1, r1, _) = e;
        let removable = degree[idx(c0, r0)] > 2 && degree[idx(c1, r1)] > 2;
        if removable && rng.gen::<f64>() < edge_removal {
            degree[idx(c0, r0)] -= 1;
            degree[idx(c1, r1)] -= 1;
        } else {
            kept.push(e);
        }
    }
    // Materialize kept edges with heterogeneous lane allocations.
    for (c0, r0, c1, r1, dir) in kept {
        let a = nodes[c0][r0];
        let c = nodes[c1][r1];
        let two_lane = rng.gen::<f64>() < two_lane_frac;
        let lanes = || -> Vec<Lane> {
            if two_lane {
                arterial_lanes()
            } else {
                avenue_lanes()
            }
        };
        b.add_link(a, c, dir, lanes())?;
        b.add_link(c, a, dir.opposite(), lanes())?;
    }
    // Boundary terminals on the west/east rows and south/north columns.
    let mut boundary = Boundary::default();
    let (first_col, last_col) = (&nodes[0], &nodes[cols - 1]);
    for (r, (&wi, &ei)) in first_col.iter().zip(last_col).enumerate() {
        let w = b.add_node(-s, r as f64 * s, false);
        let e = b.add_node(cols as f64 * s, r as f64 * s, false);
        b.add_link(w, wi, Direction::East, vec![Lane::all_movements()])?;
        b.add_link(wi, w, Direction::West, vec![Lane::all_movements()])?;
        b.add_link(e, ei, Direction::West, vec![Lane::all_movements()])?;
        b.add_link(ei, e, Direction::East, vec![Lane::all_movements()])?;
        boundary.west.push(w);
        boundary.east.push(e);
    }
    for (c, column) in nodes.iter().enumerate() {
        let (&si, &ni) = (&column[0], &column[rows - 1]);
        let so = b.add_node(c as f64 * s, -s, false);
        let no = b.add_node(c as f64 * s, rows as f64 * s, false);
        b.add_link(so, si, Direction::North, vec![Lane::all_movements()])?;
        b.add_link(si, so, Direction::South, vec![Lane::all_movements()])?;
        b.add_link(no, ni, Direction::South, vec![Lane::all_movements()])?;
        b.add_link(ni, no, Direction::North, vec![Lane::all_movements()])?;
        boundary.south.push(so);
        boundary.north.push(no);
    }
    let network = b.build()?;
    let signalized = network.signalized_nodes();
    Ok(World {
        network,
        boundary,
        signalized,
    })
}

/// An east–west arterial with side streets: every intersection is
/// four-way (so all plans have four phases and parameter sharing
/// works), the arterial is two-lane, side streets are one-lane.
fn build_corridor(length: usize, spacing: f64) -> Result<World, SimError> {
    if length < 2 {
        return Err(SimError::InvalidConfig(
            "corridor needs at least 2 intersections".into(),
        ));
    }
    if spacing <= 0.0 {
        return Err(SimError::InvalidConfig(
            "corridor spacing must be > 0".into(),
        ));
    }
    let mut b = NetworkBuilder::new();
    let s = spacing;
    let inter: Vec<NodeId> = (0..length)
        .map(|i| b.add_node(i as f64 * s, 0.0, true))
        .collect();
    for pair in inter.windows(2) {
        b.add_link(pair[0], pair[1], Direction::East, arterial_lanes())?;
        b.add_link(pair[1], pair[0], Direction::West, arterial_lanes())?;
    }
    let mut boundary = Boundary::default();
    let w = b.add_node(-s, 0.0, false);
    let e = b.add_node(length as f64 * s, 0.0, false);
    b.add_link(w, inter[0], Direction::East, arterial_lanes())?;
    b.add_link(inter[0], w, Direction::West, arterial_lanes())?;
    b.add_link(e, inter[length - 1], Direction::West, arterial_lanes())?;
    b.add_link(inter[length - 1], e, Direction::East, arterial_lanes())?;
    boundary.west.push(w);
    boundary.east.push(e);
    for (i, &n) in inter.iter().enumerate() {
        let so = b.add_node(i as f64 * s, -s, false);
        let no = b.add_node(i as f64 * s, s, false);
        b.add_link(so, n, Direction::North, avenue_lanes())?;
        b.add_link(n, so, Direction::South, avenue_lanes())?;
        b.add_link(no, n, Direction::South, avenue_lanes())?;
        b.add_link(n, no, Direction::North, avenue_lanes())?;
        boundary.south.push(so);
        boundary.north.push(no);
    }
    let network = b.build()?;
    Ok(World {
        network,
        boundary,
        signalized: inter,
    })
}

/// A rectangular ring road on the perimeter of a `cols × rows`
/// lattice: two-way ring links between adjacent perimeter nodes, one
/// outward terminal per node.
fn build_ring(cols: usize, rows: usize, spacing: f64) -> Result<World, SimError> {
    if cols < 3 || rows < 3 {
        return Err(SimError::InvalidConfig(
            "ring needs at least a 3x3 lattice".into(),
        ));
    }
    if spacing <= 0.0 {
        return Err(SimError::InvalidConfig("ring spacing must be > 0".into()));
    }
    // Perimeter walk, counterclockwise from the southwest corner.
    let mut coords: Vec<(usize, usize)> = Vec::new();
    for c in 0..cols {
        coords.push((c, 0));
    }
    for r in 1..rows {
        coords.push((cols - 1, r));
    }
    for c in (0..cols - 1).rev() {
        coords.push((c, rows - 1));
    }
    for r in (1..rows - 1).rev() {
        coords.push((0, r));
    }
    let mut b = NetworkBuilder::new();
    let s = spacing;
    let nodes: Vec<NodeId> = coords
        .iter()
        .map(|&(c, r)| b.add_node(c as f64 * s, r as f64 * s, true))
        .collect();
    let dir_between = |a: (usize, usize), z: (usize, usize)| -> Direction {
        if z.0 > a.0 {
            Direction::East
        } else if z.0 < a.0 {
            Direction::West
        } else if z.1 > a.1 {
            Direction::North
        } else {
            Direction::South
        }
    };
    let n = nodes.len();
    for i in 0..n {
        let j = (i + 1) % n;
        let d = dir_between(coords[i], coords[j]);
        b.add_link(nodes[i], nodes[j], d, avenue_lanes())?;
        b.add_link(nodes[j], nodes[i], d.opposite(), avenue_lanes())?;
    }
    // One outward terminal per node: bottom/top rows get south/north
    // terminals (corners included), the remaining side nodes get
    // west/east terminals.
    let mut boundary = Boundary::default();
    let mut with_side: Vec<(usize, NodeId, Direction)> = Vec::new();
    for (i, &(c, r)) in coords.iter().enumerate() {
        let (outward, tx, ty) = if r == 0 {
            (Direction::South, c as f64 * s, -s)
        } else if r == rows - 1 {
            (Direction::North, c as f64 * s, rows as f64 * s)
        } else if c == 0 {
            (Direction::West, -s, r as f64 * s)
        } else {
            (Direction::East, cols as f64 * s, r as f64 * s)
        };
        let t = b.add_node(tx, ty, false);
        b.add_link(t, nodes[i], outward.opposite(), avenue_lanes())?;
        b.add_link(nodes[i], t, outward, avenue_lanes())?;
        with_side.push((i, t, outward));
    }
    // Boundary lists in the conventional order: west/east south→north,
    // south/north west→east.
    let mut sided: Vec<(Direction, usize, usize, NodeId)> = with_side
        .iter()
        .map(|&(i, t, d)| (d, coords[i].0, coords[i].1, t))
        .collect();
    sided.sort_by_key(|&(_, c, r, _)| (c, r));
    for &(d, _, _, t) in &sided {
        match d {
            Direction::West => boundary.west.push(t),
            Direction::East => boundary.east.push(t),
            Direction::South => boundary.south.push(t),
            Direction::North => boundary.north.push(t),
        }
    }
    let network = b.build()?;
    Ok(World {
        network,
        boundary,
        signalized: nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn grid_topology_matches_tsc_sim_grid() {
        let w = build(
            &TopologySpec::Grid {
                cols: 6,
                rows: 6,
                spacing: 200.0,
            },
            &mut rng(),
        )
        .unwrap();
        assert_eq!(w.network.num_nodes(), 60);
        assert_eq!(w.signalized.len(), 36);
        assert_eq!(w.boundary.rows(), 6);
        assert_eq!(w.boundary.cols(), 6);
    }

    #[test]
    fn corridor_has_four_way_intersections_only() {
        let w = build(
            &TopologySpec::Corridor {
                length: 10,
                spacing: 200.0,
            },
            &mut rng(),
        )
        .unwrap();
        assert_eq!(w.signalized.len(), 10);
        for &n in &w.signalized {
            assert_eq!(w.network.incoming(n).len(), 4);
            assert_eq!(w.network.outgoing(n).len(), 4);
        }
        for plan in w.signal_plans().unwrap() {
            assert_eq!(plan.num_phases(), 4, "uniform plans → sharing works");
        }
        assert_eq!(w.boundary.rows(), 1);
        assert_eq!(w.boundary.cols(), 10);
    }

    #[test]
    fn ring_perimeter_count_and_terminals() {
        let w = build(
            &TopologySpec::Ring {
                cols: 5,
                rows: 4,
                spacing: 150.0,
            },
            &mut rng(),
        )
        .unwrap();
        let perimeter = 2 * (5 + 4) - 4;
        assert_eq!(w.signalized.len(), perimeter);
        let terminals = w.boundary.all();
        assert_eq!(terminals.len(), perimeter, "one terminal per ring node");
        // Every ring node has exactly one incoming link per direction
        // present (the obs encoder maps directions to fixed slots).
        for &n in &w.signalized {
            let dirs: Vec<_> = w
                .network
                .incoming(n)
                .iter()
                .map(|&l| w.network.link(l).direction())
                .collect();
            let mut dedup = dirs.clone();
            dedup.sort_by_key(|d| d.index());
            dedup.dedup();
            assert_eq!(dirs.len(), dedup.len(), "no direction-slot collision");
        }
    }

    #[test]
    fn city_is_irregular_and_validated() {
        let w = build(
            &TopologySpec::City {
                cols: 6,
                rows: 5,
                spacing: 250.0,
                edge_removal: 0.18,
                two_lane_frac: 0.4,
                jitter: 0.18,
            },
            &mut rng(),
        )
        .unwrap();
        assert_eq!(w.signalized.len(), 30);
        let degrees: std::collections::HashSet<usize> = w
            .signalized
            .iter()
            .map(|&n| w.network.incoming(n).len())
            .collect();
        assert!(degrees.len() >= 2, "irregular degree");
        assert!(build(
            &TopologySpec::City {
                cols: 2,
                rows: 5,
                spacing: 250.0,
                edge_removal: 0.18,
                two_lane_frac: 0.4,
                jitter: 0.18,
            },
            &mut rng(),
        )
        .is_err());
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        assert!(build(
            &TopologySpec::Corridor {
                length: 1,
                spacing: 200.0
            },
            &mut rng()
        )
        .is_err());
        assert!(build(
            &TopologySpec::Ring {
                cols: 2,
                rows: 3,
                spacing: 200.0
            },
            &mut rng()
        )
        .is_err());
        assert!(build(
            &TopologySpec::Grid {
                cols: 1,
                rows: 2,
                spacing: 200.0
            },
            &mut rng()
        )
        .is_err());
    }
}
