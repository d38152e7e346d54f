//! Dijkstra shortest paths with closure-supplied link costs.
//!
//! All searches run inside a reusable [`SpfWorkspace`] whose per-node label
//! records are generation-stamped: starting a new search bumps a generation
//! counter instead of clearing (or worse, reallocating) the labels and the
//! heap. The module-level entry points ([`shortest_path_tree`],
//! [`shortest_path`]) borrow a thread-local workspace, so every caller —
//! including Yen spur searches and Suurballe pass 1 — is allocation-free on
//! the hot path without signature changes; the `_in` variants accept an
//! explicit workspace for callers that manage their own.

use crate::{LinkId, Network, NodeId, Route};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap entry: the label's bit pattern above the node index, compared
/// as one integer. Labels are sums of steps clamped to `≥ +0.0` starting
/// from `+0.0`, so they are never negative, `-0.0` (`+0.0 + -0.0` is
/// `+0.0`) or NaN, and over that range the IEEE-754 bit pattern orders
/// exactly as the number does. Ties pop the lower node id first, for
/// determinism.
type HeapEntry = Reverse<u128>;

fn heap_entry(label: f64, node: NodeId) -> HeapEntry {
    debug_assert!(label >= 0.0 && label.is_sign_positive(), "label {label}");
    Reverse(u128::from(label.to_bits()) << 32 | u128::from(node.as_u32()))
}

/// The `(label, node)` a [`heap_entry`] was made from.
fn heap_entry_parts(Reverse(key): HeapEntry) -> (f64, NodeId) {
    (f64::from_bits((key >> 32) as u64), NodeId::new(key as u32))
}

/// Walks parent links back from `dest` to `source` and returns the route
/// in forward order, or `None` when the chain breaks before `source`.
/// A first pass counts the hops so the link list is allocated once.
fn walk_back(
    net: &Network,
    source: NodeId,
    dest: NodeId,
    parent: impl Fn(usize) -> Option<LinkId>,
) -> Option<Route> {
    let mut hops = 0;
    let mut cur = dest;
    while cur != source {
        cur = net.link(parent(cur.index())?).src();
        hops += 1;
    }
    let mut links = Vec::with_capacity(hops);
    let mut cur = dest;
    while cur != source {
        let link = parent(cur.index())?;
        links.push(link);
        cur = net.link(link).src();
    }
    links.reverse();
    Route::new(net, links).ok()
}

/// The result of a single-source Dijkstra run; query it with
/// [`ShortestPathTree::distance`] and [`ShortestPathTree::route_to`].
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<Option<f64>>,
    parent_link: Vec<Option<LinkId>>,
}

impl ShortestPathTree {
    /// The source node the tree was grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest route to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.dist.get(node.index()).copied().flatten()
    }

    /// Reconstructs the cheapest route from the source to `dest`, or `None`
    /// when `dest` is unreachable or equal to the source.
    pub fn route_to(&self, net: &Network, dest: NodeId) -> Option<Route> {
        if dest == self.source {
            return None;
        }
        self.distance(dest)?;
        walk_back(net, self.source, dest, |i| self.parent_link[i])
    }
}

/// One node's search state. Meaningful only while `stamp` equals the
/// workspace's current generation.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: f64,
    stamp: u32,
    parent_link: Option<LinkId>,
    /// Settled: `dist` and `parent_link` are final.
    done: bool,
}

/// Reusable single-source shortest-path scratch state.
///
/// The labels are *generation-stamped*: one is meaningful only when its
/// stamp equals the workspace's current generation, so starting a new
/// search is O(1) — bump the generation, clear the heap (capacity kept).
/// One workspace serves searches over networks of any size; the label
/// array grows monotonically to the largest node count seen.
#[derive(Debug)]
pub struct SpfWorkspace {
    gen: u32,
    source: NodeId,
    labels: Vec<Label>,
    heap: BinaryHeap<HeapEntry>,
}

impl Default for SpfWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SpfWorkspace {
    /// Creates an empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        SpfWorkspace {
            gen: 0,
            source: NodeId::new(0),
            labels: Vec::new(),
            heap: BinaryHeap::new(), // lint:allow(spf-alloc) — workspace construction
        }
    }

    /// Starts a new generation sized for `n` nodes.
    fn begin(&mut self, n: usize, src: NodeId) {
        if self.labels.len() < n {
            let unseen = Label {
                dist: 0.0,
                stamp: 0,
                parent_link: None,
                done: false,
            };
            self.labels.resize(n, unseen);
        }
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation counter wrapped: stale stamps could collide,
                // so clear them once every 2^32 searches.
                self.labels.iter_mut().for_each(|l| l.stamp = 0);
                1
            }
        };
        self.heap.clear();
        self.source = src;
    }

    /// Runs Dijkstra from `src` with per-link costs given by `cost`,
    /// replacing whatever search the workspace held before, and settles
    /// every node reachable from `src`.
    ///
    /// Links for which `cost` returns `None` are excluded from the search.
    /// Negative costs are treated as zero (Dijkstra's invariant requires
    /// non-negative costs; the routing schemes of the paper only produce
    /// non-negative ones).
    pub fn run(&mut self, net: &Network, src: NodeId, cost: impl FnMut(LinkId) -> Option<f64>) {
        self.search(net, src, None, 0.0, cost);
    }

    /// The one Dijkstra loop. `floor` is a lower bound the caller
    /// guarantees on every step `cost` returns (`0.0` always holds, steps
    /// being clamped to it). Floating-point addition is monotone, so once
    /// a node is popped at `d`, no step from it or from any later pop can
    /// produce a candidate below `reach = d + floor`, and a label `≤ reach`
    /// can no longer be *strictly* lowered — which is the only way labels
    /// change. Two things follow:
    ///
    /// * a link into a node whose tentative label is `≤ reach` is skipped
    ///   unpriced, like a link into a settled node;
    /// * with a `target`, the search stops as soon as the target's label is
    ///   `≤ reach` (at the latest when the target itself is popped) and
    ///   marks it settled. Its label is final by the above, and so is every
    ///   node on its parent chain (a parent is popped before it hands out a
    ///   label), so the distance and route read for `target` are those of
    ///   the full run, tie-breaks included.
    ///
    /// Nodes still in the heap keep tentative labels, which
    /// [`SpfWorkspace::settled`] hides from every query.
    fn search(
        &mut self,
        net: &Network,
        src: NodeId,
        target: Option<NodeId>,
        floor: f64,
        mut cost: impl FnMut(LinkId) -> Option<f64>,
    ) {
        let n = net.num_nodes();
        self.begin(n, src);
        let gen = self.gen;
        let labels = &mut self.labels[..n];
        let target = target.map(NodeId::index).filter(|&t| t < n);
        if let Some(label) = labels.get_mut(src.index()) {
            *label = Label {
                dist: 0.0,
                stamp: gen,
                parent_link: None,
                done: false,
            };
            self.heap.push(heap_entry(0.0, src));
        }

        while let Some(entry) = self.heap.pop() {
            let (d, node) = heap_entry_parts(entry);
            let here = &mut labels[node.index()];
            if here.done {
                continue;
            }
            here.done = true;
            let reach = d + floor;
            if let Some(t) = target {
                let goal = &mut labels[t];
                if goal.stamp == gen && goal.dist <= reach {
                    goal.done = true;
                    break;
                }
            }
            for &lid in net.out_links(node) {
                let next = net.link(lid).dst();
                let label = &mut labels[next.index()];
                let seen = label.stamp == gen;
                if seen && (label.done || label.dist <= reach) {
                    continue;
                }
                let Some(step) = cost(lid) else { continue };
                let step = step.max(0.0);
                debug_assert!(step >= floor, "step {step} on {lid} below floor {floor}");
                let cand = d + step;
                if !seen || cand < label.dist {
                    *label = Label {
                        dist: cand,
                        stamp: gen,
                        parent_link: Some(lid),
                        done: false,
                    };
                    self.heap.push(heap_entry(cand, next));
                }
            }
        }
    }

    /// The label of node index `i` if the current search settled it
    /// (popped it, or stopped on it, with its final label). After a full
    /// [`SpfWorkspace::run`] that is every reached node; after a search
    /// that stopped for its target it excludes the nodes left in the heap.
    fn settled(&self, i: usize) -> Option<&Label> {
        self.labels.get(i).filter(|l| l.stamp == self.gen && l.done)
    }

    /// The source of the workspace's current search.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest route to `node` in the current search, or
    /// `None` if unreachable (or not settled before the search stopped).
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.settled(node.index()).map(|l| l.dist)
    }

    /// Reconstructs the cheapest route of the current search to `dest`, or
    /// `None` when `dest` is unreachable or equal to the source.
    pub fn route_to(&self, net: &Network, dest: NodeId) -> Option<Route> {
        if dest == self.source {
            return None;
        }
        self.settled(dest.index())?;
        walk_back(net, self.source, dest, |i| self.labels[i].parent_link)
    }

    /// The tree link that reaches `node` in the current search, or `None`
    /// for the source and unsettled nodes. Together with
    /// [`SpfWorkspace::distance`] this lets callers copy a finished search
    /// out into their own storage (the dynamic-SPT engine builds its
    /// repairable tree this way).
    pub fn parent_link(&self, node: NodeId) -> Option<LinkId> {
        self.settled(node.index()).and_then(|l| l.parent_link)
    }

    /// Copies the current search out as an owned [`ShortestPathTree`] for
    /// callers that hold the result across later searches.
    pub fn extract_tree(&self, n: usize) -> ShortestPathTree {
        // lint:allow(spf-alloc) — cold path: the owned-tree API must allocate its result
        let mut dist: Vec<Option<f64>> = vec![None; n];
        // lint:allow(spf-alloc) — cold path: owned-tree parent array
        let mut parent_link: Vec<Option<LinkId>> = vec![None; n];
        for i in 0..n {
            if let Some(label) = self.settled(i) {
                dist[i] = Some(label.dist);
                parent_link[i] = label.parent_link;
            }
        }
        ShortestPathTree {
            source: self.source,
            dist,
            parent_link,
        }
    }
}

thread_local! {
    /// Per-thread scratch shared by the workspace-less entry points below,
    /// so existing callers get allocation reuse without signature changes.
    static SCRATCH: RefCell<SpfWorkspace> = RefCell::new(SpfWorkspace::new());
}

pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SpfWorkspace) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        // Re-entrant search (a cost closure running Dijkstra): fall back to
        // a fresh one-shot workspace rather than aliasing the scratch.
        Err(_) => f(&mut SpfWorkspace::new()),
    })
}

/// Runs Dijkstra from `src` with per-link costs given by `cost`, returning
/// an owned tree.
///
/// Links for which `cost` returns `None` are excluded from the search.
/// Negative costs are treated as zero (Dijkstra's invariant requires
/// non-negative costs; the routing schemes of the paper only produce
/// non-negative ones).
pub fn shortest_path_tree(
    net: &Network,
    src: NodeId,
    cost: impl FnMut(LinkId) -> Option<f64>,
) -> ShortestPathTree {
    with_scratch(|ws| {
        ws.run(net, src, cost);
        ws.extract_tree(net.num_nodes())
    })
}

/// Finds the cheapest route from `src` to `dst` under `cost`, returning
/// `(total_cost, route)`, or `None` when unreachable or `src == dst`.
///
/// # Example
///
/// ```
/// use drt_net::{algo, topology, Bandwidth, NodeId};
///
/// let net = topology::ring(5, Bandwidth::from_mbps(10))?;
/// let (cost, route) =
///     algo::shortest_path(&net, NodeId::new(0), NodeId::new(2), |_| Some(1.0)).unwrap();
/// assert_eq!(cost, 2.0);
/// assert_eq!(route.len(), 2);
/// # Ok::<(), drt_net::NetError>(())
/// ```
pub fn shortest_path(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    cost: impl FnMut(LinkId) -> Option<f64>,
) -> Option<(f64, Route)> {
    shortest_path_with_floor(net, src, dst, 0.0, cost)
}

/// [`shortest_path`] for a caller that can state a `floor`: a lower bound
/// on every `Some(step)` its `cost` returns (`1.0` for unit hops, the
/// tie-breaking `ε` for the LSR backup costs). The result is the same
/// `(total_cost, route)`, tie-breaks included; the search only stops
/// earlier and prices fewer links, because a label within `floor` of the
/// frontier can no longer be lowered. A `cost` that returns less than its
/// stated floor is a caller bug (a debug assertion in the loop) and may
/// yield a costlier route; `0.0` is always safe.
pub fn shortest_path_with_floor(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    floor: f64,
    cost: impl FnMut(LinkId) -> Option<f64>,
) -> Option<(f64, Route)> {
    with_scratch(|ws| shortest_path_in(ws, net, src, dst, floor, cost))
}

/// [`shortest_path_with_floor`] into a caller-managed [`SpfWorkspace`] —
/// the zero-allocation variant threaded through Yen spur searches and the
/// disjoint-pair algorithms. The search stops once `dst`'s label is final,
/// so afterwards the workspace answers only for the nodes settled up to
/// then.
pub fn shortest_path_in(
    ws: &mut SpfWorkspace,
    net: &Network,
    src: NodeId,
    dst: NodeId,
    floor: f64,
    cost: impl FnMut(LinkId) -> Option<f64>,
) -> Option<(f64, Route)> {
    ws.search(net, src, Some(dst), floor, cost);
    let d = ws.distance(dst)?;
    let route = ws.route_to(net, dst)?;
    Some((d, route))
}

/// Finds a minimum-hop route from `src` to `dst` (unit link costs), or
/// `None` when unreachable or `src == dst`.
pub fn shortest_path_hops(net: &Network, src: NodeId, dst: NodeId) -> Option<Route> {
    shortest_path_with_floor(net, src, dst, 1.0, |_| Some(1.0)).map(|(_, r)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn ring_hop_counts() {
        let net = topology::ring(6, CAP).unwrap();
        let tree = shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
        assert_eq!(tree.distance(NodeId::new(0)), Some(0.0));
        assert_eq!(tree.distance(NodeId::new(3)), Some(3.0));
        assert_eq!(tree.distance(NodeId::new(5)), Some(1.0));
        assert_eq!(tree.source(), NodeId::new(0));
    }

    #[test]
    fn route_reconstruction_is_contiguous() {
        let net = topology::mesh(4, 4, CAP).unwrap();
        let route = shortest_path_hops(&net, NodeId::new(0), NodeId::new(15)).unwrap();
        assert_eq!(route.len(), 6); // manhattan distance in a 4x4 mesh
        assert_eq!(route.source(), NodeId::new(0));
        assert_eq!(route.dest(), NodeId::new(15));
        assert!(route.is_simple(&net));
    }

    #[test]
    fn excluded_links_are_avoided() {
        let net = topology::ring(4, CAP).unwrap();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        // Exclude the direct 0 -> 1 link: forced the long way around.
        let (cost, route) = shortest_path(&net, NodeId::new(0), NodeId::new(1), |l| {
            if l == l01 {
                None
            } else {
                Some(1.0)
            }
        })
        .unwrap();
        assert_eq!(cost, 3.0);
        assert!(!route.contains_link(l01));
    }

    #[test]
    fn unreachable_returns_none() {
        // Two disconnected duplex pairs.
        let mut b = crate::NetworkBuilder::with_nodes(4);
        b.add_duplex_link(NodeId::new(0), NodeId::new(1), CAP)
            .unwrap();
        b.add_duplex_link(NodeId::new(2), NodeId::new(3), CAP)
            .unwrap();
        let net = b.build();
        assert!(shortest_path_hops(&net, NodeId::new(0), NodeId::new(2)).is_none());
    }

    #[test]
    fn src_equals_dst_returns_none() {
        let net = topology::ring(4, CAP).unwrap();
        assert!(shortest_path_hops(&net, NodeId::new(1), NodeId::new(1)).is_none());
    }

    #[test]
    fn weighted_costs_divert_route() {
        let net = topology::ring(4, CAP).unwrap();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        // Make the direct hop expensive but not excluded.
        let (cost, route) = shortest_path(&net, NodeId::new(0), NodeId::new(1), |l| {
            if l == l01 {
                Some(10.0)
            } else {
                Some(1.0)
            }
        })
        .unwrap();
        assert_eq!(cost, 3.0);
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn negative_costs_clamped_to_zero() {
        let net = topology::ring(4, CAP).unwrap();
        // Every label stays +0.0 — the one zero the integer heap keys order.
        for step in [-5.0, -0.0, f64::NEG_INFINITY, f64::NAN] {
            let (cost, route) =
                shortest_path(&net, NodeId::new(0), NodeId::new(2), |_| Some(step)).unwrap();
            assert_eq!(cost.to_bits(), 0.0f64.to_bits(), "step {step}");
            assert_eq!(route.len(), 2);
        }
    }

    #[test]
    fn heap_entries_order_by_cost_then_node() {
        let eps = 1.0 / 3001.0;
        let costs = [
            0.0,
            f64::from_bits(1), // smallest subnormal
            eps,
            1.0,
            1e9,
            1e9 + eps,
            f64::INFINITY,
        ];
        let entries: Vec<(f64, NodeId)> = costs
            .into_iter()
            .flat_map(|c| [0u32, 1, 7].map(|n| (c, NodeId::new(n))))
            .collect();
        for &(a, m) in &entries {
            for &(b, n) in &entries {
                // A max-heap popping the least (cost, node) first.
                let want = a.partial_cmp(&b).unwrap().then(m.cmp(&n)).reverse();
                assert_eq!(heap_entry(a, m).cmp(&heap_entry(b, n)), want, "{a} {b}");
                assert_eq!(heap_entry_parts(heap_entry(a, m)), (a, m));
            }
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let a = shortest_path_hops(&net, NodeId::new(0), NodeId::new(8)).unwrap();
        let b = shortest_path_hops(&net, NodeId::new(0), NodeId::new(8)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn links_into_settled_nodes_are_not_priced() {
        // A 4-node duplex path from its end: three links lead outward and
        // three back to the node just settled; only the former are priced.
        let net = topology::mesh(1, 4, CAP).unwrap();
        let mut priced = 0;
        let mut ws = SpfWorkspace::new();
        ws.run(&net, NodeId::new(0), |_| {
            priced += 1;
            Some(1.0)
        });
        assert_eq!(priced, 3);
        for i in 0..4u32 {
            assert_eq!(ws.distance(NodeId::new(i)), Some(f64::from(i)));
        }
        assert_eq!(ws.route_to(&net, NodeId::new(3)).unwrap().len(), 3);
    }

    #[test]
    fn floor_prices_each_reached_node_once() {
        // Unit steps with floor 1.0: when a node is popped at d, every
        // labelled neighbour already sits at ≤ d + 1, so only links into
        // unlabelled nodes are priced — once per reached node, not once
        // per link out of the frontier (floor 0.0 prices 4's second way in).
        let net = topology::mesh(3, 3, CAP).unwrap();
        let count = |floor: f64| {
            let mut priced = vec![0u32; net.num_nodes()];
            let mut ws = SpfWorkspace::new();
            ws.search(&net, NodeId::new(0), None, floor, |l| {
                priced[net.link(l).dst().index()] += 1;
                Some(1.0)
            });
            let hops = shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
            for node in net.nodes() {
                assert_eq!(ws.distance(node), hops.distance(node));
                assert_eq!(ws.route_to(&net, node), hops.route_to(&net, node));
            }
            priced
        };
        assert_eq!(count(1.0), [0, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert!(count(0.0).iter().sum::<u32>() > 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below floor")]
    fn step_below_stated_floor_panics_in_debug() {
        let net = topology::ring(4, CAP).unwrap();
        shortest_path_with_floor(&net, NodeId::new(0), NodeId::new(2), 1.0, |_| Some(0.5));
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        // Interleave targeted and full searches over two different networks
        // through ONE workspace; each result must equal a fresh single-use
        // run.
        let small = topology::ring(5, CAP).unwrap();
        let big = topology::mesh(4, 4, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        for round in 0..3 {
            for (net, dst) in [(&small, 3), (&big, 15)] {
                let src = NodeId::new(round % 2);
                let dst = NodeId::new(dst);
                let got = shortest_path_in(&mut ws, net, src, dst, 1.0, |_| Some(1.0));
                let fresh = shortest_path(net, src, dst, |_| Some(1.0));
                assert_eq!(got, fresh);

                ws.run(net, src, |_| Some(1.0));
                let tree = shortest_path_tree(net, src, |_| Some(1.0));
                for node in net.nodes() {
                    assert_eq!(ws.distance(node), tree.distance(node));
                    assert_eq!(ws.route_to(net, node), tree.route_to(net, node));
                }
                assert_eq!(ws.distance(dst).zip(ws.route_to(net, dst)), fresh);
            }
        }
    }

    #[test]
    fn targeted_search_hides_unsettled_labels() {
        // 0 -> 1 on a ring: settling the source labels both neighbours, the
        // tie pops node 1 first and the search stops, so node 5 is left in
        // the heap with a tentative label no query may report.
        let net = topology::ring(6, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        let (cost, route) =
            shortest_path_in(&mut ws, &net, NodeId::new(0), NodeId::new(1), 0.0, |_| {
                Some(1.0)
            })
            .unwrap();
        assert_eq!((cost, route.len()), (1.0, 1));
        assert_eq!(ws.distance(NodeId::new(0)), Some(0.0));
        assert_eq!(ws.distance(NodeId::new(1)), Some(1.0));
        let tree = ws.extract_tree(net.num_nodes());
        for i in 2..6u32 {
            let node = NodeId::new(i);
            assert_eq!(ws.distance(node), None, "tentative dist at {i}");
            assert_eq!(ws.parent_link(node), None, "tentative parent at {i}");
            assert!(ws.route_to(&net, node).is_none());
            assert_eq!(tree.distance(node), None);
            assert!(tree.route_to(&net, node).is_none());
        }
        // The full run through the same workspace settles it.
        ws.run(&net, NodeId::new(0), |_| Some(1.0));
        assert_eq!(ws.distance(NodeId::new(5)), Some(1.0));
    }

    #[test]
    fn stop_before_target_is_popped_hides_unsettled_labels() {
        // 0 -> 4 (the centre of a 3 x 3 mesh) with floor 1.0: node 1 labels
        // 2 and 4 at 2.0; popping node 3 at 1.0 then reaches no lower than
        // 2.0, so the search stops with 4 settled but never popped and 2
        // left tentative in the heap.
        let net = topology::mesh(3, 3, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        let mut priced = 0;
        let (cost, route) =
            shortest_path_in(&mut ws, &net, NodeId::new(0), NodeId::new(4), 1.0, |_| {
                priced += 1;
                Some(1.0)
            })
            .unwrap();
        assert_eq!(Some((cost, route.clone())), {
            let full = shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
            full.distance(NodeId::new(4))
                .zip(full.route_to(&net, NodeId::new(4)))
        });
        assert_eq!(route.nodes(&net)[1], NodeId::new(1));
        assert_eq!(priced, 4); // 0->1, 0->3, 1->2, 1->4
        assert_eq!(ws.distance(NodeId::new(3)), Some(1.0));
        assert_eq!(ws.distance(NodeId::new(4)), Some(2.0));
        let tree = ws.extract_tree(net.num_nodes());
        for i in [2u32, 5, 6, 7, 8] {
            let node = NodeId::new(i);
            assert_eq!(ws.distance(node), None, "tentative dist at {i}");
            assert_eq!(ws.parent_link(node), None, "tentative parent at {i}");
            assert!(ws.route_to(&net, node).is_none());
            assert_eq!(tree.distance(node), None);
        }
        ws.run(&net, NodeId::new(0), |_| Some(1.0));
        assert_eq!(ws.distance(NodeId::new(2)), Some(2.0));
    }

    #[test]
    fn workspace_stale_state_is_invisible() {
        // A search that reaches many nodes followed by one that reaches
        // few: the second must not see the first's distances.
        let net = topology::mesh(4, 4, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        ws.run(&net, NodeId::new(0), |_| Some(1.0));
        assert!(ws.distance(NodeId::new(15)).is_some());
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        // Now exclude everything: only the source is reachable.
        ws.run(&net, NodeId::new(1), |_| None::<f64>);
        assert_eq!(ws.source(), NodeId::new(1));
        assert_eq!(ws.distance(NodeId::new(1)), Some(0.0));
        for i in [0u32, 2, 5, 15] {
            assert_eq!(ws.distance(NodeId::new(i)), None, "stale dist at {i}");
        }
        assert!(ws.route_to(&net, NodeId::new(2)).is_none());
        let _ = l01;
    }

    #[test]
    fn extract_tree_matches_workspace_queries() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        ws.run(&net, NodeId::new(0), |_| Some(1.0));
        let tree = ws.extract_tree(net.num_nodes());
        for i in 0..9u32 {
            let node = NodeId::new(i);
            assert_eq!(tree.distance(node), ws.distance(node));
            assert_eq!(tree.route_to(&net, node), ws.route_to(&net, node));
        }
        assert_eq!(tree.source(), ws.source());
    }
}
