//! Unidirectional capacitated links.

use crate::{Bandwidth, LinkId, NodeId};
use std::fmt;

/// A unidirectional link of the network.
///
/// Bidirectional physical connections are represented as two `Link`s that
/// point at each other through [`Link::reverse`], mirroring the paper's
/// model ("links are assumed to be bi-directional, with an identical
/// bandwidth capacity in both directions").
///
/// `Link` is a passive record; mutable per-link *resource* state
/// (primary/spare reservations, APLV) lives in `drt-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    id: LinkId,
    src: NodeId,
    dst: NodeId,
    capacity: Bandwidth,
    reverse: Option<LinkId>,
}

impl Link {
    /// Creates a new link record. Intended for use by
    /// [`crate::NetworkBuilder`]; library users normally obtain links from
    /// [`crate::Network::link`].
    pub(crate) fn new(
        id: LinkId,
        src: NodeId,
        dst: NodeId,
        capacity: Bandwidth,
        reverse: Option<LinkId>,
    ) -> Self {
        Link {
            id,
            src,
            dst,
            capacity,
            reverse,
        }
    }

    /// The link's identifier.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The node this link leaves from.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The node this link arrives at.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The total bandwidth capacity of the link.
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// The opposite-direction twin of this link, when the link was created
    /// as half of a duplex pair.
    pub fn reverse(&self) -> Option<LinkId> {
        self.reverse
    }

    /// Returns the endpoint other than `node`, or `None` if `node` is not an
    /// endpoint of this link.
    pub fn opposite(&self, node: NodeId) -> Option<NodeId> {
        if node == self.src {
            Some(self.dst)
        } else if node == self.dst {
            Some(self.src)
        } else {
            None
        }
    }

    pub(crate) fn set_reverse(&mut self, rev: LinkId) {
        self.reverse = Some(rev);
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} ({})",
            self.id, self.src, self.dst, self.capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Link {
        Link::new(
            LinkId::new(5),
            NodeId::new(1),
            NodeId::new(2),
            Bandwidth::from_mbps(100),
            Some(LinkId::new(6)),
        )
    }

    #[test]
    fn accessors() {
        let l = sample();
        assert_eq!(l.id(), LinkId::new(5));
        assert_eq!(l.src(), NodeId::new(1));
        assert_eq!(l.dst(), NodeId::new(2));
        assert_eq!(l.capacity(), Bandwidth::from_mbps(100));
        assert_eq!(l.reverse(), Some(LinkId::new(6)));
    }

    #[test]
    fn opposite_endpoint() {
        let l = sample();
        assert_eq!(l.opposite(NodeId::new(1)), Some(NodeId::new(2)));
        assert_eq!(l.opposite(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(l.opposite(NodeId::new(9)), None);
    }

    #[test]
    fn display_mentions_everything() {
        assert_eq!(sample().to_string(), "L5: n1 -> n2 (100 Mb/s)");
    }
}
