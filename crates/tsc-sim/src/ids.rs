//! Strongly-typed identifiers for network entities.
//!
//! Newtypes keep node, link, and vehicle indices from being confused with
//! one another (C-NEWTYPE). All identifiers are dense indices into the
//! owning container and are cheap to copy.

use std::fmt;

/// Identifier of a node (intersection or boundary terminal) in a
/// [`Network`](crate::network::Network).
///
/// # Examples
///
/// ```
/// use tsc_sim::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the dense index backing this identifier.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a directed link (road segment between two nodes).
///
/// # Examples
///
/// ```
/// use tsc_sim::LinkId;
/// let l = LinkId(7);
/// assert_eq!(l.index(), 7);
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    Default,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct LinkId(pub usize);

impl LinkId {
    /// Returns the dense index backing this identifier.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Identifier of a vehicle. Indices are assigned in spawn order and are
/// never reused within one simulation run.
///
/// # Examples
///
/// ```
/// use tsc_sim::VehicleId;
/// let v = VehicleId(42);
/// assert_eq!(v.index(), 42);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct VehicleId(pub usize);

impl VehicleId {
    /// Returns the dense index backing this identifier.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Compass direction of travel, used to orient approaches at an
/// intersection and to derive turning movements between links.
///
/// # Examples
///
/// ```
/// use tsc_sim::Direction;
/// assert_eq!(Direction::North.opposite(), Direction::South);
/// assert_eq!(Direction::East.left_of(), Direction::North);
/// assert_eq!(Direction::East.right_of(), Direction::South);
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    Default,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    serde::Serialize,
    serde::Deserialize,
)]
pub enum Direction {
    /// Travelling towards increasing `y`.
    #[default]
    North,
    /// Travelling towards increasing `x`.
    East,
    /// Travelling towards decreasing `y`.
    South,
    /// Travelling towards decreasing `x`.
    West,
}

impl Direction {
    /// All four directions in clockwise order starting at north.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// Returns the direction of travel after a U-turn.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// Returns the direction of travel after a left turn.
    pub fn left_of(self) -> Direction {
        match self {
            Direction::North => Direction::West,
            Direction::West => Direction::South,
            Direction::South => Direction::East,
            Direction::East => Direction::North,
        }
    }

    /// Returns the direction of travel after a right turn.
    pub fn right_of(self) -> Direction {
        match self {
            Direction::North => Direction::East,
            Direction::East => Direction::South,
            Direction::South => Direction::West,
            Direction::West => Direction::North,
        }
    }

    /// A stable dense index (0 = north, 1 = east, 2 = south, 3 = west),
    /// used to order approaches in fixed-size observation vectors.
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
        }
    }

    /// Unit displacement `(dx, dy)` of this direction of travel.
    pub fn delta(self) -> (f64, f64) {
        match self {
            Direction::North => (0.0, 1.0),
            Direction::East => (1.0, 0.0),
            Direction::South => (0.0, -1.0),
            Direction::West => (-1.0, 0.0),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn left_then_right_is_identity() {
        for d in Direction::ALL {
            assert_eq!(d.left_of().right_of(), d);
            assert_eq!(d.right_of().left_of(), d);
        }
    }

    #[test]
    fn four_lefts_make_a_circle() {
        for d in Direction::ALL {
            assert_eq!(d.left_of().left_of().left_of().left_of(), d);
        }
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 4];
        for d in Direction::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(LinkId(9).to_string(), "l9");
        assert_eq!(VehicleId(1).to_string(), "v1");
        assert_eq!(Direction::West.to_string(), "W");
    }
}
