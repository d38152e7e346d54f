//! Validated directed routes (the paper's `LSET`).

use crate::{LinkId, NetError, Network, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A validated, contiguous directed route through a [`Network`].
///
/// A `Route` is exactly the paper's `LSET_r` — "the set of links in route
/// `r`" — except that it also preserves link *order*, which the protocol
/// needs for hop-by-hop signalling (backup-path register packets walk the
/// route). Construction always validates contiguity against a network, so a
/// `Route` in hand is structurally sound.
///
/// # Example
///
/// ```
/// use drt_net::{topology, Route, NodeId, Bandwidth};
///
/// # fn main() -> Result<(), drt_net::NetError> {
/// let net = topology::mesh(3, 3, Bandwidth::from_mbps(10))?;
/// let route = Route::from_nodes(
///     &net,
///     &[NodeId::new(0), NodeId::new(1), NodeId::new(2)],
/// )?;
/// assert_eq!(route.len(), 2);
/// assert_eq!(route.source(), NodeId::new(0));
/// assert_eq!(route.dest(), NodeId::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Route {
    /// Shared, so the per-hop clones of the signalling plane (packets,
    /// journal records, channel-table entries) are a refcount bump.
    links: Arc<[LinkId]>,
    src: NodeId,
    dst: NodeId,
}

impl Route {
    /// Builds a route from an ordered list of link ids.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidRoute`] when the list is empty or the
    /// links are not contiguous, and [`NetError::UnknownLink`] when a link
    /// id does not exist in `net`.
    pub fn new(net: &Network, links: Vec<LinkId>) -> Result<Self, NetError> {
        let (src, dst) = net.validate_walk(&links)?;
        Ok(Route {
            links: links.into(),
            src,
            dst,
        })
    }

    /// Builds a route by resolving consecutive node pairs to links.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidRoute`] when fewer than two nodes are
    /// given or some consecutive pair has no connecting link.
    pub fn from_nodes(net: &Network, nodes: &[NodeId]) -> Result<Self, NetError> {
        if nodes.len() < 2 {
            return Err(NetError::InvalidRoute(
                "a route needs at least two nodes".into(),
            ));
        }
        let mut links = Vec::with_capacity(nodes.len() - 1);
        for pair in nodes.windows(2) {
            let link = net.find_link(pair[0], pair[1]).ok_or_else(|| {
                NetError::InvalidRoute(format!("no link {} -> {}", pair[0], pair[1]))
            })?;
            links.push(link);
        }
        Route::new(net, links)
    }

    /// The node the route starts at.
    pub fn source(&self) -> NodeId {
        self.src
    }

    /// The node the route ends at.
    pub fn dest(&self) -> NodeId {
        self.dst
    }

    /// Number of links (hops) in the route.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Routes are never empty, so this always returns `false`; provided for
    /// API completeness alongside [`Route::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ordered links of the route.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Iterates over the links in hop order.
    pub fn iter(&self) -> std::slice::Iter<'_, LinkId> {
        self.links.iter()
    }

    /// Returns `true` if `link` is part of this route.
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// The ordered node sequence of the route (`len() + 1` nodes).
    pub fn nodes(&self, net: &Network) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.links.len() + 1);
        out.push(self.src);
        for l in self.links.iter() {
            out.push(net.link(*l).dst());
        }
        out
    }

    /// Number of links shared with `other` (order-insensitive).
    ///
    /// This is the "overlap" the routing schemes minimise: an ideal backup
    /// "overlaps minimally with its primary".
    pub fn overlap(&self, other: &Route) -> usize {
        self.links
            .iter()
            .filter(|l| other.links.contains(l))
            .count()
    }

    /// Returns `true` if the two routes share no links.
    pub fn is_link_disjoint(&self, other: &Route) -> bool {
        self.overlap(other) == 0
    }

    /// Returns `true` if no node repeats along the route (a *simple* path).
    pub fn is_simple(&self, net: &Network) -> bool {
        let nodes = self.nodes(net);
        let mut seen = vec![false; net.num_nodes()];
        for n in nodes {
            if seen[n.index()] {
                return false;
            }
            seen[n.index()] = true;
        }
        true
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} via [", self.src, self.dst)?;
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

impl<'a> IntoIterator for &'a Route {
    type Item = &'a LinkId;
    type IntoIter = std::slice::Iter<'a, LinkId>;

    fn into_iter(self) -> Self::IntoIter {
        self.links.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth};

    fn mesh3() -> Network {
        topology::mesh(3, 3, Bandwidth::from_mbps(10)).unwrap()
    }

    #[test]
    fn from_nodes_resolves_links() {
        let net = mesh3();
        // 0 - 1 - 2 across the top row of the mesh.
        let r = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.nodes(&net),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert!(r.is_simple(&net));
    }

    #[test]
    fn from_nodes_rejects_non_adjacent() {
        let net = mesh3();
        // 0 and 8 are opposite corners of the 3x3 mesh — not adjacent.
        let err = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(8)]).unwrap_err();
        assert!(matches!(err, NetError::InvalidRoute(_)));
    }

    #[test]
    fn from_nodes_rejects_single_node() {
        let net = mesh3();
        assert!(Route::from_nodes(&net, &[NodeId::new(0)]).is_err());
    }

    #[test]
    fn new_rejects_discontiguous_links() {
        let net = mesh3();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let l34 = net.find_link(NodeId::new(3), NodeId::new(4)).unwrap();
        assert!(Route::new(&net, vec![l01, l34]).is_err());
    }

    #[test]
    fn overlap_counts_shared_links() {
        let net = mesh3();
        let a = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]).unwrap();
        let b = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1), NodeId::new(4)]).unwrap();
        assert_eq!(a.overlap(&b), 1);
        assert!(!a.is_link_disjoint(&b));
        let c = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(3), NodeId::new(6)]).unwrap();
        assert!(a.is_link_disjoint(&c));
    }

    #[test]
    fn reverse_direction_is_a_different_link() {
        let net = mesh3();
        let fwd = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
        let rev = Route::from_nodes(&net, &[NodeId::new(1), NodeId::new(0)]).unwrap();
        // Unidirectional links: opposite directions do not overlap.
        assert_eq!(fwd.overlap(&rev), 0);
    }

    #[test]
    fn simple_detects_node_repeats() {
        let net = mesh3();
        let r = Route::from_nodes(
            &net,
            &[
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(4),
                NodeId::new(3),
                NodeId::new(0),
                NodeId::new(1),
            ],
        );
        // Walk revisits nodes 0 and 1: valid walk, but not simple.
        let r = r.unwrap();
        assert!(!r.is_simple(&net));
    }

    #[test]
    fn display_lists_links() {
        let net = mesh3();
        let r = Route::from_nodes(&net, &[NodeId::new(0), NodeId::new(1)]).unwrap();
        let s = r.to_string();
        assert!(s.starts_with("n0 -> n1 via ["));
    }
}
