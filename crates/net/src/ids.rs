//! Dense integer identifiers for nodes and links.
//!
//! Both identifiers are newtypes over `u32` ([C-NEWTYPE]) so that a node
//! index can never be confused with a link index. They are dense: a network
//! with `n` nodes uses ids `0..n`, which lets per-link state (APLVs, conflict
//! vectors) be stored in plain vectors indexed by id.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a network node (router/switch).
///
/// Ids are assigned densely by [`crate::NetworkBuilder`] in insertion order.
///
/// # Example
///
/// ```
/// use drt_net::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index as a `usize`, suitable for vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of a unidirectional network link.
///
/// A bidirectional physical connection is modelled as *two* links with
/// distinct ids, mirroring the paper ("each connection between two nodes has
/// two unidirectional links").
///
/// # Example
///
/// ```
/// use drt_net::LinkId;
/// let l = LinkId::new(7);
/// assert_eq!(l.index(), 7);
/// assert_eq!(l.to_string(), "L7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a link id from its dense index.
    pub const fn new(index: u32) -> Self {
        LinkId(index)
    }

    /// Returns the dense index as a `usize`, suitable for vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl From<u32> for LinkId {
    fn from(v: u32) -> Self {
        LinkId(v)
    }
}

/// Identifier of a shared-risk link group (SRLG).
///
/// Links that share physical substrate (a fiber conduit, a line card, a
/// building) fail *together*; an SRLG names such a set so the failure model
/// can cut every member in one event. Ids are dense in registration order.
///
/// # Example
///
/// ```
/// use drt_net::SrlgId;
/// let g = SrlgId::new(2);
/// assert_eq!(g.index(), 2);
/// assert_eq!(g.to_string(), "G2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SrlgId(u32);

impl SrlgId {
    /// Creates an SRLG id from its dense index.
    pub const fn new(index: u32) -> Self {
        SrlgId(index)
    }

    /// Returns the dense index as a `usize`, suitable for vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SrlgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl From<u32> for SrlgId {
    fn from(v: u32) -> Self {
        SrlgId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::{DefaultHasher, Hash, Hasher};

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.as_u32(), 42);
        assert_eq!(NodeId::from(42u32), n);
    }

    #[test]
    fn link_id_roundtrip() {
        let l = LinkId::new(9);
        assert_eq!(l.index(), 9);
        assert_eq!(l.as_u32(), 9);
        assert_eq!(LinkId::from(9u32), l);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = BTreeSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        assert_eq!(set.len(), 2);
        let hash = |id: NodeId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(NodeId::new(1)), hash(NodeId::new(1)));
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(LinkId::new(0) < LinkId::new(1));
    }

    #[test]
    fn srlg_id_roundtrip() {
        let g = SrlgId::new(4);
        assert_eq!(g.index(), 4);
        assert_eq!(g.as_u32(), 4);
        assert_eq!(SrlgId::from(4u32), g);
        assert!(SrlgId::new(0) < SrlgId::new(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId::new(0)), "n0");
        assert_eq!(format!("{}", LinkId::new(13)), "L13");
        assert_eq!(format!("{}", SrlgId::new(2)), "G2");
        // Debug representation is never empty (C-DEBUG-NONEMPTY).
        assert!(!format!("{:?}", NodeId::new(0)).is_empty());
    }
}
