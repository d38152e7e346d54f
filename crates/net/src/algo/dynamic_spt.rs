//! Incremental single-source shortest-path tree repair.
//!
//! [`DynamicSpt`] materialises one Dijkstra tree and *repairs* it after a
//! batch of link deltas — fail, restore, or reweight — instead of
//! re-running the search from scratch. The repair is the Ramalingam–Reps
//! recipe specialised to the failure model of the paper:
//!
//! 1. **Detach** the subtree hanging below every changed link that no
//!    longer supports its tree distance (the link vanished or its new
//!    cost breaks `dist[src] + w = dist[dst]`), marking those nodes
//!    unreachable-for-now.
//! 2. **Seed** a repair frontier: every intact→detached boundary link
//!    offers its `dist[src] + w` back in, and every changed link with a
//!    finite new cost offers a possible improvement (this is what makes
//!    restores and cost decreases repairable by the same pass).
//! 3. **Relax** the frontier with a lazy-deletion Dijkstra loop until it
//!    drains; nodes the frontier never reaches stay unreachable.
//!
//! A delta that misses the tree costs `O(|changed|)`; a delta that hits
//! it costs `O(affected subtree + its frontier)` — on the paper's sparse
//! topologies, orders of magnitude below the full `O((n + N) log n)`
//! recompute.
//!
//! Nothing in `crates/` holds one any more: `drt_core::DrtpManager` kept
//! one per node behind its hop table until bounded flooding began
//! measuring its own distances ([`crate::algo::bfs_hops_to`]; DESIGN.md
//! §16). The only caller left is the `net.spt_repair_ns` probe of
//! `drt-benchmark`.
//!
//! Its costs are whole-number `f64` steps, each taken as the integer it
//! names, as [`crate::algo::shortest_path_tree`] takes them: distances are
//! exact integer sums, so a tree link is tight exactly when
//! `dist[src] + w = dist[dst]`.
//!
//! The full recompute survives as [`DynamicSpt::rebuild_baseline`]
//! (running on the generation-stamped [`SpfWorkspace`] scratch), and the
//! delta-trace property tests prove the repaired tree bit-for-bit equal
//! to it: identical reachable sets, identical distances, and a parent
//! structure that certifies those distances.

use crate::algo::dijkstra::{whole_step, with_scratch};
use crate::{LinkId, Network, NodeId, Route};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap entry of the repair frontier, `(cost, node, via)`: ties are
/// broken by node id then link id, so the repair is deterministic.
type RepairEntry = Reverse<(u128, NodeId, LinkId)>;

/// The distance of a node the tree does not reach.
const UNREACHED: u128 = u128::MAX;

/// A repairable single-source shortest-path tree.
///
/// Unlike the transient [`SpfWorkspace`](super::SpfWorkspace) search this struct *owns* its
/// distances and parent links, so it can be held for the lifetime of a
/// topology and patched with [`DynamicSpt::update_links`] as links fail,
/// restore, or change cost.
#[derive(Debug, Clone)]
pub struct DynamicSpt {
    source: NodeId,
    dist: Vec<u128>,
    parent_link: Vec<Option<LinkId>>,
    // Repair scratch, persistent so updates are allocation-free.
    heap: BinaryHeap<RepairEntry>,
    detached: Vec<bool>,
    work: Vec<NodeId>,
    torn: Vec<NodeId>,
}

impl DynamicSpt {
    /// Builds the tree with a full Dijkstra run from `src` (through the
    /// thread-local [`SpfWorkspace`](super::SpfWorkspace) scratch). Links for which `cost`
    /// returns `None` are excluded.
    ///
    /// # Panics
    ///
    /// If `cost` returns a step that is negative, fractional or above
    /// `2^53`; so do the other methods that take a `cost`.
    pub fn build(net: &Network, src: NodeId, cost: impl FnMut(LinkId) -> Option<f64>) -> Self {
        let n = net.num_nodes();
        let mut spt = DynamicSpt {
            source: src,
            dist: vec![UNREACHED; n],
            parent_link: vec![None; n],
            heap: BinaryHeap::new(),
            detached: vec![false; n],
            work: Vec::new(),
            torn: Vec::new(),
        };
        spt.rebuild_baseline(net, cost);
        spt
    }

    /// Recomputes the whole tree from scratch — the reference the
    /// incremental repair is proven bit-for-bit equivalent to by the
    /// delta-trace property tests.
    pub fn rebuild_baseline(&mut self, net: &Network, mut cost: impl FnMut(LinkId) -> Option<f64>) {
        let n = net.num_nodes();
        with_scratch(|ws| {
            ws.run(net, self.source, |l| cost(l).map(whole_step));
            for i in 0..n {
                let node = NodeId::new(i as u32);
                match ws.distance(node) {
                    Some(d) => {
                        self.dist[i] = d;
                        self.parent_link[i] = ws.parent_link(node);
                    }
                    None => {
                        self.dist[i] = UNREACHED;
                        self.parent_link[i] = None;
                    }
                }
            }
        });
    }

    /// The source node the tree is grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest route to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<u128> {
        let d = self.dist[node.index()];
        (d != UNREACHED).then_some(d)
    }

    /// The tree link reaching `node`; `None` for the source and
    /// unreachable nodes.
    pub fn parent(&self, node: NodeId) -> Option<LinkId> {
        self.parent_link[node.index()]
    }

    /// Reconstructs the cheapest route from the source to `dest`, or
    /// `None` when `dest` is unreachable or equal to the source.
    pub fn route_to(&self, net: &Network, dest: NodeId) -> Option<Route> {
        if dest == self.source {
            return None;
        }
        self.distance(dest)?;
        let mut links = Vec::new();
        let mut cur = dest;
        while cur != self.source {
            let link = self.parent_link[cur.index()]?;
            links.push(link);
            cur = net.link(link).src();
        }
        links.reverse();
        Route::new(net, links).ok()
    }

    /// Repairs the tree after the links in `changed` switched to the
    /// state described by `cost` (which must reflect the *new* topology:
    /// `None` for a failed link, the new weight otherwise). Handles
    /// fails, restores, and reweights — in any mix — in one pass, and
    /// returns `true` when any distance or parent may have moved (the
    /// caller's cue to refresh projections such as hop-table rows).
    pub fn update_links(
        &mut self,
        net: &Network,
        changed: &[LinkId],
        mut cost: impl FnMut(LinkId) -> Option<f64>,
    ) -> bool {
        let mut cost = |l: LinkId| cost(l).map(whole_step);
        // Phase 1: find the detach roots — changed tree links that no
        // longer support the distance of the node they reach.
        self.work.clear();
        self.torn.clear();
        for &l in changed {
            let v = net.link(l).dst();
            if self.parent_link[v.index()] != Some(l) {
                continue;
            }
            let u = net.link(l).src();
            if cost(l).is_none_or(|w| self.dist[u.index()] + w != self.dist[v.index()]) {
                self.work.push(v);
            }
        }
        // Collapse each root's whole tree descendance: a detached node's
        // children lose their distance certificate with it.
        while let Some(x) = self.work.pop() {
            if self.detached[x.index()] {
                continue;
            }
            self.detached[x.index()] = true;
            self.torn.push(x);
            for &e in net.out_links(x) {
                let child = net.link(e).dst();
                if self.parent_link[child.index()] == Some(e) {
                    self.work.push(child);
                }
            }
        }
        for &x in &self.torn {
            self.dist[x.index()] = UNREACHED;
            self.parent_link[x.index()] = None;
        }

        // Phase 2: seed the repair frontier. Intact neighbours offer the
        // detached nodes a way back in; changed links with a finite new
        // cost may improve even fully intact nodes (restores, decreases).
        self.heap.clear();
        for &x in &self.torn {
            for &e in net.in_links(x) {
                let u = net.link(e).src();
                if self.detached[u.index()] || self.dist[u.index()] == UNREACHED {
                    continue;
                }
                if let Some(w) = cost(e) {
                    self.heap.push(Reverse((self.dist[u.index()] + w, x, e)));
                }
            }
        }
        for &l in changed {
            let u = net.link(l).src();
            if self.detached[u.index()] || self.dist[u.index()] == UNREACHED {
                continue;
            }
            if let Some(w) = cost(l) {
                let cand = self.dist[u.index()] + w;
                if cand < self.dist[net.link(l).dst().index()] {
                    self.heap.push(Reverse((cand, net.link(l).dst(), l)));
                }
            }
        }

        // Phase 3: lazy-deletion relaxation until the frontier drains.
        let mut moved = !self.torn.is_empty();
        while let Some(Reverse((d, node, via))) = self.heap.pop() {
            let i = node.index();
            if d >= self.dist[i] {
                continue;
            }
            self.dist[i] = d;
            self.parent_link[i] = Some(via);
            moved = true;
            for &e in net.out_links(node) {
                if let Some(w) = cost(e) {
                    let cand = d + w;
                    if cand < self.dist[net.link(e).dst().index()] {
                        self.heap.push(Reverse((cand, net.link(e).dst(), e)));
                    }
                }
            }
        }
        for &x in &self.torn {
            self.detached[x.index()] = false;
        }
        moved
    }

    /// First node where this tree's *distances* diverge from `other`'s
    /// (different reachability or a different cost), or `None` when the
    /// two agree exactly. Parent links are deliberately not compared:
    /// equal-cost ties may resolve differently between a repair and a
    /// fresh run, and either certificate is a valid shortest-path tree —
    /// which [`DynamicSpt::certify`] checks structurally.
    pub fn first_divergence(&self, other: &DynamicSpt) -> Option<NodeId> {
        if self.source != other.source {
            return Some(self.source);
        }
        (0..self.dist.len().min(other.dist.len()))
            .find(|&i| self.dist[i] != other.dist[i])
            .map(|i| NodeId::new(i as u32))
    }

    /// Checks that the parent structure certifies the stored distances
    /// under `cost`: every reachable non-source node has a parent link
    /// with `dist[src] + w = dist[node]` exactly, the source sits at
    /// distance zero, and unreachable nodes have no parent. Returns the
    /// first violating node, `None` when the tree is sound.
    pub fn certify(
        &self,
        net: &Network,
        mut cost: impl FnMut(LinkId) -> Option<f64>,
    ) -> Option<NodeId> {
        for i in 0..self.dist.len() {
            let node = NodeId::new(i as u32);
            if node == self.source {
                if self.dist[i] != 0 || self.parent_link[i].is_some() {
                    return Some(node);
                }
                continue;
            }
            match self.parent_link[i] {
                Some(l) => {
                    let u = net.link(l).src();
                    let ok = net.link(l).dst() == node
                        && matches!(cost(l), Some(w) if self.dist[u.index()].checked_add(whole_step(w)) == Some(self.dist[i]));
                    if !ok {
                        return Some(node);
                    }
                }
                None => {
                    if self.dist[i] != UNREACHED {
                        return Some(node);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    fn unit_if(alive: &[bool]) -> impl FnMut(LinkId) -> Option<f64> + '_ {
        move |l| alive[l.index()].then_some(1.0)
    }

    #[test]
    fn build_matches_workspace_dijkstra() {
        let net = topology::mesh(4, 4, CAP).unwrap();
        let spt = DynamicSpt::build(&net, NodeId::new(0), |_| Some(1.0));
        let tree = crate::algo::shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
        for node in net.nodes() {
            assert_eq!(spt.distance(node), tree.distance(node));
            assert_eq!(spt.route_to(&net, node), tree.route_to(&net, node));
        }
        assert_eq!(spt.source(), NodeId::new(0));
        assert!(spt.certify(&net, |_| Some(1.0)).is_none());
    }

    #[test]
    fn fail_and_restore_round_trip() {
        let net = topology::mesh(4, 4, CAP).unwrap();
        let mut alive = vec![true; net.num_links()];
        let mut spt = DynamicSpt::build(&net, NodeId::new(0), unit_if(&alive));
        let baseline = spt.clone();

        // Fail a tree link: distances must match a fresh run on the
        // masked topology.
        let l = spt.parent(NodeId::new(15)).unwrap();
        alive[l.index()] = false;
        assert!(spt.update_links(&net, &[l], unit_if(&alive)));
        let fresh = DynamicSpt::build(&net, NodeId::new(0), unit_if(&alive));
        assert_eq!(spt.first_divergence(&fresh), None);
        assert!(spt.certify(&net, unit_if(&alive)).is_none());

        // Restore it: the tree must return to the original distances.
        alive[l.index()] = true;
        spt.update_links(&net, &[l], unit_if(&alive));
        assert_eq!(spt.first_divergence(&baseline), None);
        assert!(spt.certify(&net, unit_if(&alive)).is_none());
    }

    #[test]
    fn disconnecting_batch_marks_unreachable() {
        // Cutting both links out of node 0 in a ring strands everything.
        let net = topology::ring(6, CAP).unwrap();
        let mut alive = vec![true; net.num_links()];
        let mut spt = DynamicSpt::build(&net, NodeId::new(0), unit_if(&alive));
        let out: Vec<LinkId> = net.out_links(NodeId::new(0)).to_vec();
        for &l in &out {
            alive[l.index()] = false;
        }
        assert!(spt.update_links(&net, &out, unit_if(&alive)));
        assert_eq!(spt.distance(NodeId::new(0)), Some(0));
        for i in 1..6 {
            assert_eq!(spt.distance(NodeId::new(i)), None, "node {i}");
            assert!(spt.route_to(&net, NodeId::new(i)).is_none());
        }
        assert!(spt.certify(&net, unit_if(&alive)).is_none());
    }

    #[test]
    fn miss_deltas_are_cheap_no_ops() {
        let net = topology::mesh(4, 4, CAP).unwrap();
        let mut spt = DynamicSpt::build(&net, NodeId::new(0), |_| Some(1.0));
        let baseline = spt.clone();
        // Reweighting a non-tree link to a worse cost changes nothing.
        let non_tree: Vec<LinkId> = net
            .links()
            .map(|l| l.id())
            .filter(|&l| spt.parent(net.link(l).dst()) != Some(l))
            .take(3)
            .collect();
        let moved = spt.update_links(&net, &non_tree, |l| {
            Some(if non_tree.contains(&l) { 9.0 } else { 1.0 })
        });
        assert!(!moved);
        assert_eq!(spt.first_divergence(&baseline), None);
    }

    #[test]
    fn reweight_decrease_reroutes_through_shortcut() {
        // Ring 0-1-2-3-4-5: make the long-way-around links free so node 3
        // becomes cheaper counter-clockwise.
        let net = topology::ring(6, CAP).unwrap();
        let l05 = net.find_link(NodeId::new(0), NodeId::new(5)).unwrap();
        let l54 = net.find_link(NodeId::new(5), NodeId::new(4)).unwrap();
        let l43 = net.find_link(NodeId::new(4), NodeId::new(3)).unwrap();
        let cheap = [l05, l54, l43];
        let weight = |l: LinkId| Some(if cheap.contains(&l) { 1.0 } else { 4.0 });
        let mut spt = DynamicSpt::build(&net, NodeId::new(0), |_| Some(4.0));
        assert_eq!(spt.distance(NodeId::new(3)), Some(12));
        assert!(spt.update_links(&net, &cheap, weight));
        let fresh = DynamicSpt::build(&net, NodeId::new(0), weight);
        assert_eq!(spt.first_divergence(&fresh), None);
        assert_eq!(spt.distance(NodeId::new(3)), Some(3));
        assert!(spt.certify(&net, weight).is_none());
    }

    #[test]
    fn random_delta_traces_match_baseline() {
        // Deterministic pseudo-random fail/restore churn over a mesh:
        // after every batch the repaired tree must equal a from-scratch
        // rebuild bit-for-bit and certify its own distances.
        let net = topology::mesh(5, 5, CAP).unwrap();
        let n = net.num_links();
        let mut alive = vec![true; n];
        let mut spt = DynamicSpt::build(&net, NodeId::new(7), unit_if(&alive));
        let mut state = 0x9E3779B97F4A7C15u64;
        for round in 0..200 {
            let mut batch = Vec::new();
            for _ in 0..(1 + round % 3) {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let l = (state >> 33) as usize % n;
                alive[l] = !alive[l];
                batch.push(LinkId::new(l as u32));
            }
            spt.update_links(&net, &batch, unit_if(&alive));
            let mut fresh = spt.clone();
            fresh.rebuild_baseline(&net, unit_if(&alive));
            assert_eq!(spt.first_divergence(&fresh), None, "round {round}");
            assert!(
                spt.certify(&net, unit_if(&alive)).is_none(),
                "round {round}"
            );
        }
    }
}
