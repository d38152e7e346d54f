//! The directed, capacitated network graph.

use crate::{Bandwidth, Link, LinkId, NetError, NodeId, SrlgId};
use std::fmt;

/// A directed, capacitated network of routers and unidirectional links.
///
/// `Network` is immutable after construction (via [`crate::NetworkBuilder`]
/// or one of the [`crate::topology`] generators): the paper's protocol state
/// (reservations, APLVs, spare pools) changes constantly, but the topology
/// changes only via the failure model, which `drt-core` layers on top by
/// *masking* links rather than mutating the graph. Keeping the graph frozen
/// makes dense [`LinkId`]-indexed vectors safe to hold across the whole
/// simulation.
///
/// # Example
///
/// ```
/// use drt_net::{NetworkBuilder, Bandwidth};
///
/// # fn main() -> Result<(), drt_net::NetError> {
/// let mut b = NetworkBuilder::new();
/// let a = b.add_node();
/// let c = b.add_node();
/// b.add_duplex_link(a, c, Bandwidth::from_mbps(100))?;
/// let net = b.build();
/// assert_eq!(net.num_nodes(), 2);
/// assert_eq!(net.num_links(), 2); // one duplex pair = two links
/// assert!(net.find_link(a, c).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    pub(crate) positions: Vec<[f64; 2]>,
    pub(crate) links: Vec<Link>,
    pub(crate) out_adj: Vec<Vec<LinkId>>,
    pub(crate) in_adj: Vec<Vec<LinkId>>,
    /// Shared-risk link groups: members of one group fail together (a cut
    /// conduit, a shared line card). Members are sorted and deduplicated.
    pub(crate) srlgs: Vec<Vec<LinkId>>,
}

impl Network {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of unidirectional links (`N` in the paper's notation).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Returns the link record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; ids obtained from this network are
    /// always in range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Returns the link record for `id`, or `None` if out of range.
    fn get_link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.index())
    }

    /// The 2-D position of a node (used by the Waxman generator and by the
    /// bounded-flooding ellipse visualisations; generators that have no
    /// geometric embedding place nodes at the origin).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_position(&self, node: NodeId) -> [f64; 2] {
        self.positions[node.index()]
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> NodeIter {
        NodeIter {
            next: 0,
            total: self.positions.len() as u32,
        }
    }

    /// Iterates over all links in id order.
    pub fn links(&self) -> LinkIter<'_> {
        LinkIter {
            inner: self.links.iter(),
        }
    }

    /// Outgoing links of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_adj[node.index()]
    }

    /// Incoming links of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        &self.in_adj[node.index()]
    }

    /// Out-neighbors of `node` (one entry per outgoing link).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[node.index()]
            .iter()
            .map(move |l| self.links[l.index()].dst())
    }

    /// Number of registered shared-risk link groups.
    pub fn num_srlgs(&self) -> usize {
        self.srlgs.len()
    }

    /// The member links of an SRLG (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range; ids obtained from this network
    /// are always in range.
    pub fn srlg(&self, group: SrlgId) -> &[LinkId] {
        &self.srlgs[group.index()]
    }

    /// The member links of an SRLG, or `None` if out of range.
    pub fn get_srlg(&self, group: SrlgId) -> Option<&[LinkId]> {
        self.srlgs.get(group.index()).map(Vec::as_slice)
    }

    /// Iterates over all SRLG ids in increasing order.
    pub fn srlg_ids(&self) -> impl Iterator<Item = SrlgId> {
        (0..self.srlgs.len() as u32).map(SrlgId::new)
    }

    /// Returns this network with additional shared-risk link groups
    /// registered — the post-build counterpart of
    /// [`crate::NetworkBuilder::add_srlg`], for topologies that come out
    /// of a generator rather than a hand-driven builder (an experiment
    /// harness derives conduit groups on a Waxman graph it did not build
    /// link by link). Members are sorted and deduplicated per group.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownLink`] when a member does not exist,
    /// and [`NetError::Infeasible`] for an empty group.
    pub fn with_srlgs(mut self, groups: &[Vec<LinkId>]) -> Result<Network, NetError> {
        for members in groups {
            if members.is_empty() {
                return Err(NetError::Infeasible("SRLG with no member links".into()));
            }
            for &l in members {
                if l.index() >= self.links.len() {
                    return Err(NetError::UnknownLink(l));
                }
            }
            let mut sorted = members.clone();
            sorted.sort_unstable();
            sorted.dedup();
            self.srlgs.push(sorted);
        }
        Ok(self)
    }

    /// All links incident to `node` — outgoing then incoming, each in id
    /// order. This is exactly the set a node crash takes down, and the set
    /// neighbours monitor to *detect* such a crash.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn incident_links(&self, node: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        self.out_adj[node.index()]
            .iter()
            .chain(self.in_adj[node.index()].iter())
            .copied()
    }

    /// Finds the link from `src` to `dst`, if one exists.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_adj
            .get(src.index())?
            .iter()
            .copied()
            .find(|l| self.links[l.index()].dst() == dst)
    }

    /// The opposite-direction twin of `link` when it is half of a duplex
    /// pair, falling back to a lookup of any `dst -> src` link.
    pub fn reverse_link(&self, link: LinkId) -> Option<LinkId> {
        let l = self.get_link(link)?;
        l.reverse().or_else(|| self.find_link(l.dst(), l.src()))
    }

    /// Average *node degree* `E` counting each duplex pair once, as the
    /// paper does: a 60-node network with `E = 3` has 90 duplex pairs, i.e.
    /// 180 unidirectional links.
    pub fn average_node_degree(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        // Each unidirectional link contributes 1 to its source's out-degree;
        // a duplex pair contributes 1 to the undirected degree of each
        // endpoint, i.e. `num_links / num_nodes` overall.
        self.links.len() as f64 / self.positions.len() as f64
    }

    /// Total capacity over all unidirectional links.
    pub fn total_capacity(&self) -> Bandwidth {
        self.links.iter().map(|l| l.capacity()).sum()
    }

    /// Euclidean distance between two node positions.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn euclidean_distance(&self, a: NodeId, b: NodeId) -> f64 {
        let pa = self.positions[a.index()];
        let pb = self.positions[b.index()];
        ((pa[0] - pb[0]).powi(2) + (pa[1] - pb[1]).powi(2)).sqrt()
    }

    /// Returns `true` if every node can reach every other node along
    /// directed links.
    ///
    /// For the duplex topologies produced by the generators this coincides
    /// with undirected connectivity.
    pub fn is_connected(&self) -> bool {
        crate::algo::is_strongly_connected(self)
    }

    /// Validates that a sequence of link ids forms a contiguous directed
    /// walk in this network, returning its endpoints.
    pub(crate) fn validate_walk(&self, links: &[LinkId]) -> Result<(NodeId, NodeId), NetError> {
        let first = links
            .first()
            .ok_or_else(|| NetError::InvalidRoute("route has no links".into()))?;
        let mut cur = self
            .get_link(*first)
            .ok_or(NetError::UnknownLink(*first))?
            .src();
        for id in links {
            let link = self.get_link(*id).ok_or(NetError::UnknownLink(*id))?;
            if link.src() != cur {
                return Err(NetError::InvalidRoute(format!(
                    "link {} starts at {} but previous hop ended at {}",
                    id,
                    link.src(),
                    cur
                )));
            }
            cur = link.dst();
        }
        let src = self.links[first.index()].src();
        Ok((src, cur))
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "network of {} nodes, {} links (E = {:.2})",
            self.num_nodes(),
            self.num_links(),
            self.average_node_degree()
        )
    }
}

/// Iterator over all node ids of a [`Network`]; created by
/// [`Network::nodes`].
#[derive(Debug, Clone)]
pub struct NodeIter {
    next: u32,
    total: u32,
}

impl Iterator for NodeIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.total {
            let id = NodeId::new(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.total - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NodeIter {}

/// Iterator over all links of a [`Network`]; created by [`Network::links`].
#[derive(Debug, Clone)]
pub struct LinkIter<'a> {
    inner: std::slice::Iter<'a, Link>,
}

impl<'a> Iterator for LinkIter<'a> {
    type Item = &'a Link;

    fn next(&mut self) -> Option<&'a Link> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for LinkIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn triangle() -> Network {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node();
        let n1 = b.add_node();
        let n2 = b.add_node();
        b.add_duplex_link(n0, n1, Bandwidth::from_mbps(10)).unwrap();
        b.add_duplex_link(n1, n2, Bandwidth::from_mbps(10)).unwrap();
        b.add_duplex_link(n2, n0, Bandwidth::from_mbps(10)).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_degree() {
        let net = triangle();
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_links(), 6);
        assert!((net.average_node_degree() - 2.0).abs() < 1e-12);
        assert!(!net.is_empty());
        assert_eq!(net.total_capacity(), Bandwidth::from_mbps(60));
    }

    #[test]
    fn adjacency_is_consistent() {
        let net = triangle();
        for n in net.nodes() {
            assert_eq!(net.out_links(n).len(), 2);
            assert_eq!(net.in_links(n).len(), 2);
            for &l in net.out_links(n) {
                assert_eq!(net.link(l).src(), n);
            }
            for &l in net.in_links(n) {
                assert_eq!(net.link(l).dst(), n);
            }
        }
    }

    #[test]
    fn find_and_reverse_link() {
        let net = triangle();
        let l = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let r = net.reverse_link(l).unwrap();
        assert_eq!(net.link(r).src(), NodeId::new(1));
        assert_eq!(net.link(r).dst(), NodeId::new(0));
        assert_eq!(net.reverse_link(r), Some(l));
        assert_eq!(net.find_link(NodeId::new(0), NodeId::new(0)), None);
    }

    #[test]
    fn neighbors_iterate_out_edges() {
        let net = triangle();
        let mut nbrs: Vec<_> = net.neighbors(NodeId::new(0)).collect();
        nbrs.sort();
        assert_eq!(nbrs, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn triangle_is_connected() {
        assert!(triangle().is_connected());
    }

    #[test]
    fn walk_validation() {
        let net = triangle();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        let l12 = net.find_link(NodeId::new(1), NodeId::new(2)).unwrap();
        let (s, d) = net.validate_walk(&[l01, l12]).unwrap();
        assert_eq!((s, d), (NodeId::new(0), NodeId::new(2)));
        assert!(net.validate_walk(&[l12, l01]).is_err());
        assert!(net.validate_walk(&[]).is_err());
    }

    #[test]
    fn iterators_have_exact_size() {
        let net = triangle();
        assert_eq!(net.nodes().len(), 3);
        assert_eq!(net.links().len(), 6);
    }

    #[test]
    fn with_srlgs_registers_groups_post_build() {
        let net = triangle();
        assert_eq!(net.num_srlgs(), 0);
        let l0 = LinkId::new(0);
        let l1 = LinkId::new(1);
        let net = net
            .with_srlgs(&[vec![l1, l0, l1], vec![LinkId::new(2)]])
            .unwrap();
        assert_eq!(net.num_srlgs(), 2);
        // Sorted and deduplicated, like the builder path.
        assert_eq!(net.srlg(SrlgId::new(0)), &[l0, l1]);
        let bad = triangle().with_srlgs(&[vec![LinkId::new(99)]]);
        assert!(bad.is_err());
        let empty = triangle().with_srlgs(&[Vec::new()]);
        assert!(empty.is_err());
    }
}
