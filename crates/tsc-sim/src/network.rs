//! Road-network topology: nodes, directed links, lanes, and turning
//! movements.
//!
//! A [`Network`] is an immutable directed multigraph built once by a
//! scenario generator and shared by the simulator, the observation layer,
//! and the controllers. Nodes are intersections or boundary terminals
//! (vehicle sources/sinks); links are directed road segments carrying one
//! or more lanes; each lane permits a set of turning [`Movement`]s, which
//! is how shared through/right (or fully shared single-lane) approaches —
//! and the resulting head-of-line blocking — are modelled.

use crate::detector::MAX_APPROACHES;
use crate::error::SimError;
use crate::ids::{Direction, LinkId, NodeId};

/// A turning movement relative to the incoming approach direction.
///
/// # Examples
///
/// ```
/// use tsc_sim::{Direction, Movement};
/// assert_eq!(Movement::between(Direction::East, Direction::East), Some(Movement::Through));
/// assert_eq!(Movement::between(Direction::East, Direction::North), Some(Movement::Left));
/// assert_eq!(Movement::between(Direction::East, Direction::South), Some(Movement::Right));
/// assert_eq!(Movement::between(Direction::East, Direction::West), None); // U-turn
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Movement {
    /// Turn towards the left of the travel direction.
    Left,
    /// Continue straight.
    Through,
    /// Turn towards the right of the travel direction.
    Right,
}

impl Movement {
    /// All movements in left-to-right order.
    pub const ALL: [Movement; 3] = [Movement::Left, Movement::Through, Movement::Right];

    /// Derives the movement that takes a vehicle travelling in `from`
    /// onto a link travelling in `to`. Returns `None` for U-turns,
    /// which the simulator forbids.
    pub fn between(from: Direction, to: Direction) -> Option<Movement> {
        if to == from {
            Some(Movement::Through)
        } else if to == from.left_of() {
            Some(Movement::Left)
        } else if to == from.right_of() {
            Some(Movement::Right)
        } else {
            None
        }
    }

    /// Stable dense index (left = 0, through = 1, right = 2).
    pub fn index(self) -> usize {
        match self {
            Movement::Left => 0,
            Movement::Through => 1,
            Movement::Right => 2,
        }
    }
}

/// A single lane on a link together with the set of movements it permits.
///
/// Lanes whose `movements` set has more than one element are *shared*
/// lanes (e.g. a combined through/right lane, or the fully shared lane of
/// a one-lane avenue); the queue model in the simulator exhibits
/// head-of-line blocking on such lanes.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Lane {
    movements: Vec<Movement>,
}

impl Lane {
    /// Creates a lane permitting exactly the given movements.
    ///
    /// Duplicate movements are collapsed.
    pub fn new(movements: &[Movement]) -> Self {
        let mut ms: Vec<Movement> = movements.to_vec();
        ms.sort();
        ms.dedup();
        Lane { movements: ms }
    }

    /// A lane permitting every movement (one-lane avenue).
    pub fn all_movements() -> Self {
        Lane::new(&Movement::ALL)
    }

    /// Returns `true` if this lane may serve `movement`.
    pub fn permits(&self, movement: Movement) -> bool {
        self.movements.contains(&movement)
    }

    /// The permitted movements, sorted left-to-right.
    pub fn movements(&self) -> &[Movement] {
        &self.movements
    }
}

/// A directed road segment between two nodes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Link {
    id: LinkId,
    from: NodeId,
    to: NodeId,
    length: f64,
    direction: Direction,
    lanes: Vec<Lane>,
}

impl Link {
    /// Identifier of this link.
    pub fn id(&self) -> LinkId {
        self.id
    }
    /// Upstream node.
    pub fn from(&self) -> NodeId {
        self.from
    }
    /// Downstream node.
    pub fn to(&self) -> NodeId {
        self.to
    }
    /// Length in meters.
    pub fn length(&self) -> f64 {
        self.length
    }
    /// Direction of travel (orientation of the approach at `to`).
    pub fn direction(&self) -> Direction {
        self.direction
    }
    /// The lanes on this link, leftmost first.
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }
    /// Number of lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }
}

/// A node: a signalized intersection, an unsignalized junction, or a
/// boundary terminal where vehicles enter/leave the network.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Node {
    id: NodeId,
    x: f64,
    y: f64,
    signalized: bool,
}

impl Node {
    /// Identifier of this node.
    pub fn id(&self) -> NodeId {
        self.id
    }
    /// Position (meters).
    pub fn position(&self) -> (f64, f64) {
        (self.x, self.y)
    }
    /// Whether this node carries a traffic signal.
    pub fn is_signalized(&self) -> bool {
        self.signalized
    }
}

/// Immutable road-network topology.
///
/// Built with [`NetworkBuilder`]; validated on construction so the
/// simulator can index without bounds failures.
///
/// # Examples
///
/// ```
/// use tsc_sim::{Direction, Lane, Movement, NetworkBuilder};
///
/// # fn main() -> Result<(), tsc_sim::SimError> {
/// let mut b = NetworkBuilder::new();
/// let a = b.add_node(0.0, 0.0, false);
/// let c = b.add_node(200.0, 0.0, true);
/// let l = b.add_link(a, c, Direction::East, vec![Lane::all_movements()])?;
/// let net = b.build()?;
/// assert_eq!(net.link(l).length(), 200.0);
/// assert_eq!(net.incoming(c), &[l]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    incoming: Vec<Vec<LinkId>>,
    outgoing: Vec<Vec<LinkId>>,
    /// Per link, the outgoing link each movement (by
    /// [`Movement::index`]) leads onto at its downstream node.
    turns: Vec<[Option<LinkId>; 3]>,
}

impl Network {
    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this network.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this network.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Links terminating at `node`, sorted by approach direction index.
    pub fn incoming(&self, node: NodeId) -> &[LinkId] {
        &self.incoming[node.index()]
    }

    /// Links departing from `node`, sorted by direction index.
    pub fn outgoing(&self, node: NodeId) -> &[LinkId] {
        &self.outgoing[node.index()]
    }

    /// The outgoing link a vehicle reaches when performing `movement`
    /// from incoming link `link`, if that turn exists.
    pub fn turn_target(&self, link: LinkId, movement: Movement) -> Option<LinkId> {
        self.turns.get(link.index())?[movement.index()]
    }

    /// The movement connecting incoming `from` to outgoing `to` at the
    /// shared node, if they are connected there.
    pub fn movement_between(&self, from: LinkId, to: LinkId) -> Option<Movement> {
        let a = self.link(from);
        let b = self.link(to);
        if a.to() != b.from() {
            return None;
        }
        Movement::between(a.direction(), b.direction())
    }

    /// Signalized intersections in id order.
    pub fn signalized_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.is_signalized())
            .map(|n| n.id())
            .collect()
    }

    /// One-hop neighboring *signalized* intersections of `node`: the
    /// signalized endpoints of its incident links.
    pub fn signalized_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for &l in self.incoming(node) {
            let n = self.link(l).from();
            if self.node(n).is_signalized() && !out.contains(&n) {
                out.push(n);
            }
        }
        for &l in self.outgoing(node) {
            let n = self.link(l).to();
            if self.node(n).is_signalized() && !out.contains(&n) {
                out.push(n);
            }
        }
        out.sort();
        out
    }

    /// Two-hop signalized neighbors: neighbors of neighbors, excluding
    /// `node` itself and its one-hop neighbors. Used by the centralized
    /// critic; edge intersections yield shorter lists, which callers pad.
    pub fn two_hop_signalized_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let one_hop = self.signalized_neighbors(node);
        let mut out = Vec::new();
        for &n in &one_hop {
            for m in self.signalized_neighbors(n) {
                if m != node && !one_hop.contains(&m) && !out.contains(&m) {
                    out.push(m);
                }
            }
        }
        out.sort();
        out
    }

    /// *Upstream* signalized neighbors of `node`: signalized upstream
    /// endpoints of its incoming links, paired with the connecting link.
    /// This is the candidate set for PairUpLight's communication pairing.
    pub fn upstream_signalized(&self, node: NodeId) -> Vec<(NodeId, LinkId)> {
        let mut out = Vec::new();
        for &l in self.incoming(node) {
            let n = self.link(l).from();
            if self.node(n).is_signalized() {
                out.push((n, l));
            }
        }
        out
    }
}

/// Incremental builder for [`Network`] (C-BUILDER).
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at `(x, y)` meters and returns its id.
    pub fn add_node(&mut self, x: f64, y: f64, signalized: bool) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            x,
            y,
            signalized,
        });
        id
    }

    /// Adds a directed link from `from` to `to` travelling in
    /// `direction`, with the given lanes (leftmost first). Length is the
    /// Euclidean distance between the endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if either endpoint is missing,
    /// [`SimError::SelfLoop`] if the endpoints coincide, and
    /// [`SimError::InvalidConfig`] if `lanes` is empty.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        direction: Direction,
        lanes: Vec<Lane>,
    ) -> Result<LinkId, SimError> {
        if from.index() >= self.nodes.len() {
            return Err(SimError::UnknownNode(from));
        }
        if to.index() >= self.nodes.len() {
            return Err(SimError::UnknownNode(to));
        }
        if from == to {
            return Err(SimError::SelfLoop(from));
        }
        if lanes.is_empty() {
            return Err(SimError::InvalidConfig(
                "link must have at least one lane".into(),
            ));
        }
        let (x0, y0) = self.nodes[from.index()].position();
        let (x1, y1) = self.nodes[to.index()].position();
        let length = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
        let id = LinkId(self.links.len());
        self.links.push(Link {
            id,
            from,
            to,
            length,
            direction,
            lanes,
        });
        Ok(id)
    }

    /// Finalizes the network, computing adjacency and the turn table.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if a node has more than
    /// [`MAX_APPROACHES`] incoming or outgoing links (an observation
    /// holds one reading per approach inline), or if two outgoing links
    /// at one node would claim the same turning movement from one
    /// incoming link.
    pub fn build(self) -> Result<Network, SimError> {
        let mut incoming = vec![Vec::new(); self.nodes.len()];
        let mut outgoing = vec![Vec::new(); self.nodes.len()];
        for link in &self.links {
            incoming[link.to().index()].push(link.id());
            outgoing[link.from().index()].push(link.id());
        }
        for (node, (ins, outs)) in incoming.iter().zip(&outgoing).enumerate() {
            if ins.len().max(outs.len()) > MAX_APPROACHES {
                return Err(SimError::InvalidConfig(format!(
                    "{} has {} incoming and {} outgoing links; at most \
                     {MAX_APPROACHES} of each are supported",
                    NodeId(node),
                    ins.len(),
                    outs.len()
                )));
            }
        }
        // Stable ordering by approach direction then id keeps observation
        // vectors deterministic.
        let links = &self.links;
        for list in incoming.iter_mut().chain(outgoing.iter_mut()) {
            list.sort_by_key(|l| (links[l.index()].direction().index(), l.index()));
        }
        let mut turns = vec![[None; 3]; links.len()];
        for node in &self.nodes {
            for &in_l in &incoming[node.id().index()] {
                for &out_l in &outgoing[node.id().index()] {
                    let from_dir = links[in_l.index()].direction();
                    let to_dir = links[out_l.index()].direction();
                    if let Some(m) = Movement::between(from_dir, to_dir) {
                        let slot = &mut turns[in_l.index()][m.index()];
                        if slot.is_some() {
                            return Err(SimError::InvalidConfig(format!(
                                "duplicate {m:?} turn from {in_l} at {}",
                                node.id()
                            )));
                        }
                        *slot = Some(out_l);
                    }
                }
            }
        }
        Ok(Network {
            nodes: self.nodes,
            links: self.links,
            incoming,
            outgoing,
            turns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross() -> Network {
        // A four-way intersection: center signalized, four terminals.
        let mut b = NetworkBuilder::new();
        let c = b.add_node(0.0, 0.0, true);
        let n = b.add_node(0.0, 200.0, false);
        let e = b.add_node(200.0, 0.0, false);
        let s = b.add_node(0.0, -200.0, false);
        let w = b.add_node(-200.0, 0.0, false);
        for (t, d) in [
            (n, Direction::South),
            (e, Direction::West),
            (s, Direction::North),
            (w, Direction::East),
        ] {
            b.add_link(t, c, d, vec![Lane::all_movements()]).unwrap();
            b.add_link(c, t, d.opposite(), vec![Lane::all_movements()])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn cross_has_four_approaches() {
        let net = cross();
        let c = NodeId(0);
        assert_eq!(net.incoming(c).len(), 4);
        assert_eq!(net.outgoing(c).len(), 4);
    }

    #[test]
    fn turn_map_covers_all_non_uturn_movements() {
        let net = cross();
        let c = NodeId(0);
        for &in_l in net.incoming(c) {
            for m in Movement::ALL {
                let target = net.turn_target(in_l, m).expect("turn exists");
                let expect_dir = match m {
                    Movement::Left => net.link(in_l).direction().left_of(),
                    Movement::Through => net.link(in_l).direction(),
                    Movement::Right => net.link(in_l).direction().right_of(),
                };
                assert_eq!(net.link(target).direction(), expect_dir);
            }
        }
    }

    #[test]
    fn movement_between_rejects_uturn() {
        let net = cross();
        let c = NodeId(0);
        for &in_l in net.incoming(c) {
            let back = net
                .outgoing(c)
                .iter()
                .copied()
                .find(|&o| net.link(o).to() == net.link(in_l).from())
                .unwrap();
            assert_eq!(net.movement_between(in_l, back), None);
        }
    }

    #[test]
    fn builder_rejects_self_loop_and_unknown_nodes() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, false);
        assert_eq!(
            b.add_link(a, a, Direction::East, vec![Lane::all_movements()]),
            Err(SimError::SelfLoop(a))
        );
        assert!(matches!(
            b.add_link(a, NodeId(9), Direction::East, vec![Lane::all_movements()]),
            Err(SimError::UnknownNode(_))
        ));
    }

    #[test]
    fn builder_rejects_empty_lanes() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, false);
        let c = b.add_node(100.0, 0.0, false);
        assert!(matches!(
            b.add_link(a, c, Direction::East, vec![]),
            Err(SimError::InvalidConfig(_))
        ));
    }

    /// A hub with `ins` incoming and `outs` outgoing links, each to or
    /// from its own terminal.
    fn hub(ins: usize, outs: usize) -> Result<Network, SimError> {
        let mut b = NetworkBuilder::new();
        let c = b.add_node(0.0, 0.0, true);
        for k in 0..ins.max(outs) {
            let t = b.add_node(100.0 * (k + 1) as f64, 0.0, false);
            let d = Direction::ALL[k % 4];
            if k < ins {
                b.add_link(t, c, d, vec![Lane::all_movements()])?;
            }
            if k < outs {
                b.add_link(c, t, d.opposite(), vec![Lane::all_movements()])?;
            }
        }
        b.build()
    }

    fn assert_degree_rejected(ins: usize, outs: usize) {
        match hub(ins, outs) {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("at most 4"), "{msg}"),
            other => panic!("{ins} in / {outs} out: expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn four_way_node_builds() {
        let net = hub(4, 4).expect("a four-way node builds");
        assert_eq!(net.incoming(NodeId(0)).len(), MAX_APPROACHES);
        assert_eq!(net.outgoing(NodeId(0)).len(), MAX_APPROACHES);
    }

    #[test]
    fn fifth_incoming_link_is_rejected() {
        assert_degree_rejected(5, 4);
        assert_degree_rejected(5, 0);
    }

    #[test]
    fn fifth_outgoing_link_is_rejected() {
        assert_degree_rejected(4, 5);
        assert_degree_rejected(0, 5);
    }

    #[test]
    fn duplicate_turn_is_a_typed_error() {
        // Two links enter the hub heading east and two leave it heading
        // east: both outgoing links claim the through turn.
        let mut b = NetworkBuilder::new();
        let c = b.add_node(0.0, 0.0, true);
        let w = b.add_node(-100.0, 0.0, false);
        let e1 = b.add_node(100.0, 0.0, false);
        let e2 = b.add_node(100.0, 10.0, false);
        b.add_link(w, c, Direction::East, vec![Lane::all_movements()])
            .unwrap();
        b.add_link(c, e1, Direction::East, vec![Lane::all_movements()])
            .unwrap();
        b.add_link(c, e2, Direction::East, vec![Lane::all_movements()])
            .unwrap();
        match b.build() {
            Err(SimError::InvalidConfig(msg)) => {
                assert!(msg.contains("duplicate Through"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn turn_target_of_an_unknown_link_is_none() {
        let net = cross();
        assert_eq!(net.turn_target(LinkId(99), Movement::Through), None);
    }

    #[test]
    fn link_length_is_euclidean() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(0.0, 0.0, false);
        let c = b.add_node(300.0, 400.0, false);
        let l = b
            .add_link(a, c, Direction::East, vec![Lane::all_movements()])
            .unwrap();
        let net = b.build().unwrap();
        assert!((net.link(l).length() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn shared_lane_permits_multiple_movements() {
        let lane = Lane::new(&[Movement::Through, Movement::Right, Movement::Through]);
        assert!(lane.permits(Movement::Through));
        assert!(lane.permits(Movement::Right));
        assert!(!lane.permits(Movement::Left));
        assert_eq!(lane.movements().len(), 2);
    }

    #[test]
    fn neighbors_on_cross_are_empty_terminals() {
        let net = cross();
        // Terminals are unsignalized, so the center has no signalized
        // neighbors.
        assert!(net.signalized_neighbors(NodeId(0)).is_empty());
        assert!(net.two_hop_signalized_neighbors(NodeId(0)).is_empty());
    }
}
