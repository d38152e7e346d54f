//! Dijkstra shortest paths with closure-supplied integer link costs.
//!
//! All searches run inside a reusable [`SpfWorkspace`] whose per-node label
//! records are generation-stamped: starting a new search bumps a generation
//! counter instead of clearing (or worse, reallocating) the labels and the
//! heap. The module-level entry points ([`shortest_path_tree`],
//! [`shortest_path`]) borrow a thread-local workspace, so every caller —
//! including Yen spur searches and Suurballe pass 1 — is allocation-free on
//! the hot path without signature changes; the `_in` variants accept an
//! explicit workspace for callers that manage their own.
//!
//! Every search is one-directional except [`shortest_path_with_floor`],
//! which meets a forward search from the source with a backward one from
//! the target in the same workspace. It returns the exact least cost and
//! a cheapest route, the same route as any exact search wherever the
//! cheapest route is unique; the LSR backup key makes it unique.
//!
//! Costs are unsigned integers, so labels are exact sums and every
//! comparison is exact. A caller keeps the cost of every simple route
//! below `2^96` ([`MAX_ROUTE_COST`]): a heap entry packs the label above
//! the node id into one `u128`, and a search panics on a costlier label
//! rather than wrap.

use crate::{LinkId, Network, NodeId, Route};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The bound on the cost of a route that every search assumes: a label
/// is at most 96 bits.
pub const MAX_ROUTE_COST: u128 = (1 << 96) - 1;

/// A min-heap entry: the label above the node id, compared as one
/// integer, so ties pop the lower node id first, for determinism.
type HeapEntry = Reverse<u128>;

/// # Panics
///
/// If `label` exceeds [`MAX_ROUTE_COST`].
fn heap_entry(label: u128, node: NodeId) -> HeapEntry {
    Reverse(bounded(label) << 32 | u128::from(node.as_u32()))
}

/// `cost`, checked against [`MAX_ROUTE_COST`].
///
/// # Panics
///
/// If `cost` exceeds [`MAX_ROUTE_COST`].
fn bounded(cost: u128) -> u128 {
    assert!(cost <= MAX_ROUTE_COST, "route cost {cost} exceeds 2^96 - 1");
    cost
}

/// A whole-number `f64` step as the integer cost it names: the boundary of
/// the entry points that still take `f64` steps ([`shortest_path_tree`]
/// and [`super::DynamicSpt`]).
///
/// # Panics
///
/// If `step` is negative, fractional, not finite or above `2^53`, where
/// an `f64` stops naming every integer.
pub(crate) fn whole_step(step: f64) -> u128 {
    assert!(
        (0.0..=9_007_199_254_740_992.0).contains(&step) && step.fract() == 0.0,
        "step {step} is not a whole number in [0, 2^53]"
    );
    step as u128
}

/// Walks parent links back from `dest` to `source` and returns the route
/// in forward order, or `None` when the chain breaks before `source`.
/// A first pass counts the hops so the link list is allocated once.
pub(super) fn walk_back(
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
    dist: Vec<Option<u128>>,
    parent_link: Vec<Option<LinkId>>,
}

impl ShortestPathTree {
    /// The source node the tree was grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest route to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<u128> {
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

/// One node's search state on one side. Meaningful only while `stamp`
/// equals the workspace's current generation.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: u128,
    stamp: u32,
    /// The link towards this side's root: into the node on the forward
    /// side, out of it on the backward side.
    parent_link: Option<LinkId>,
    /// Settled: `dist` and `parent_link` are final.
    done: bool,
}

impl Label {
    const UNSEEN: Label = Label {
        dist: 0,
        stamp: 0,
        parent_link: None,
        done: false,
    };
}

/// One search direction: per-node labels and the heap of tentative ones.
/// The forward side's labels are costs from its root over out-links, the
/// backward side's costs to its root over in-links.
#[derive(Debug, Default)]
struct Side {
    labels: Vec<Label>,
    heap: BinaryHeap<HeapEntry>,
}

impl Side {
    /// Labels `root` at cost 0 and queues it.
    fn start(&mut self, gen: u32, root: NodeId) {
        self.labels[root.index()] = Label {
            stamp: gen,
            ..Label::UNSEEN
        };
        self.heap.push(heap_entry(0, root));
    }

    /// The least label queued for a node this side has not settled,
    /// dropping the stale entries above it: a lower bound on every label
    /// this side has yet to settle.
    fn top(&mut self) -> Option<u128> {
        while let Some(&Reverse(entry)) = self.heap.peek() {
            if !self.labels[entry as u32 as usize].done {
                return Some(entry >> 32);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops entries until one names a node this side has not settled,
    /// settles it, and returns its label and id.
    fn settle_next(&mut self) -> Option<(u128, NodeId)> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            let (d, node) = (entry >> 32, NodeId::new(entry as u32));
            let label = &mut self.labels[node.index()];
            if !label.done {
                label.done = true;
                return Some((d, node));
            }
        }
        None
    }

    /// Relaxes the links of `node`, just settled at `d`: its out-links on
    /// the forward side, its in-links on the backward side. A link into a
    /// settled node, or into one already labelled within `d + floor`, is
    /// skipped unpriced (see [`SpfWorkspace::search`]). `lowered` hears of
    /// every label the pass lowers, with its new cost.
    fn relax<const FORWARD: bool>(
        &mut self,
        gen: u32,
        net: &Network,
        (d, node): (u128, NodeId),
        floor: u128,
        cost: &mut impl FnMut(LinkId) -> Option<u128>,
        mut lowered: impl FnMut(usize, u128),
    ) {
        let reach = d + floor;
        let links = if FORWARD {
            net.out_links(node)
        } else {
            net.in_links(node)
        };
        for &lid in links {
            let link = net.link(lid);
            let next = if FORWARD { link.dst() } else { link.src() };
            let label = &mut self.labels[next.index()];
            let seen = label.stamp == gen;
            if seen && (label.done || label.dist <= reach) {
                continue;
            }
            let Some(step) = cost(lid) else { continue };
            debug_assert!(step >= floor, "step {step} on {lid} below floor {floor}");
            let cand = d.saturating_add(step);
            if !seen || cand < label.dist {
                *label = Label {
                    dist: cand,
                    stamp: gen,
                    parent_link: Some(lid),
                    done: false,
                };
                self.heap.push(heap_entry(cand, next));
                lowered(next.index(), cand);
            }
        }
    }

    /// The links of the parent chain from node index `from` to `root`,
    /// `from`'s own parent link first.
    fn chain<'a>(
        &'a self,
        net: &'a Network,
        from: usize,
        root: NodeId,
        forward: bool,
    ) -> impl Iterator<Item = LinkId> + 'a {
        let mut cur = from;
        std::iter::from_fn(move || {
            if cur == root.index() {
                return None;
            }
            let lid = self.labels[cur].parent_link?;
            let link = net.link(lid);
            cur = if forward { link.src() } else { link.dst() }.index();
            Some(lid)
        })
    }
}

/// Reusable shortest-path scratch state.
///
/// The labels are *generation-stamped*: one is meaningful only when its
/// stamp equals the workspace's current generation, so starting a new
/// search is O(1) — bump the generation, clear the heaps (capacity kept).
/// One workspace serves searches over networks of any size; the label
/// arrays grow monotonically to the largest node count seen. A search
/// from one source uses the forward side; the bidirectional search of
/// [`shortest_path_with_floor`] uses the backward side as well, under the
/// same generation.
#[derive(Debug)]
pub struct SpfWorkspace {
    gen: u32,
    source: NodeId,
    fwd: Side,
    back: Side,
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
            fwd: Side::default(),
            back: Side::default(),
        }
    }

    /// Starts a new generation sized for `n` nodes.
    fn begin(&mut self, n: usize, src: NodeId) {
        for side in [&mut self.fwd, &mut self.back] {
            if side.labels.len() < n {
                side.labels.resize(n, Label::UNSEEN);
            }
            side.heap.clear();
        }
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation counter wrapped: stale stamps could collide,
                // so clear them once every 2^32 searches.
                for side in [&mut self.fwd, &mut self.back] {
                    side.labels.iter_mut().for_each(|l| l.stamp = 0);
                }
                1
            }
        };
        self.source = src;
    }

    /// Runs Dijkstra from `src` with per-link costs given by `cost`,
    /// replacing whatever search the workspace held before, and settles
    /// every node reachable from `src`.
    ///
    /// Links for which `cost` returns `None` are excluded from the search.
    pub fn run(&mut self, net: &Network, src: NodeId, cost: impl FnMut(LinkId) -> Option<u128>) {
        self.search(net, src, None, 0, cost);
    }

    /// The one-directional Dijkstra loop. `floor` is a lower bound the
    /// caller guarantees on every step `cost` returns (`0` always holds).
    /// Once a node is popped at `d`, no step from it or from any later pop
    /// can produce a candidate below `reach = d + floor`, and a label
    /// `≤ reach` can no longer be *strictly* lowered — which is the only
    /// way labels change. Two things follow:
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
        floor: u128,
        mut cost: impl FnMut(LinkId) -> Option<u128>,
    ) {
        let n = net.num_nodes();
        self.begin(n, src);
        let gen = self.gen;
        let target = target.map(NodeId::index).filter(|&t| t < n);
        if src.index() < n {
            self.fwd.start(gen, src);
        }
        while let Some((d, node)) = self.fwd.settle_next() {
            if let Some(t) = target {
                let goal = &mut self.fwd.labels[t];
                if goal.stamp == gen && goal.dist <= d + floor {
                    goal.done = true;
                    break;
                }
            }
            self.fwd
                .relax::<true>(gen, net, (d, node), floor, &mut cost, |_, _| {});
        }
    }

    /// The bidirectional search of [`shortest_path_with_floor`]: a forward
    /// side from `src` over out-links and a backward side from `dst` over
    /// in-links, each the loop of [`SpfWorkspace::search`] with its `floor`
    /// skip, under the same `cost`.
    ///
    /// * `μ` is the least `df(v) + db(v)` over the nodes both sides have
    ///   labelled, updated whenever either side lowers a label the other
    ///   side holds, so it never exceeds the current sum at any such node.
    /// * Each step expands the side with fewer heap entries, on a tie the
    ///   one with the lower top, then the forward side. (Expanding the
    ///   lower top alone lets a side whose frontier sits behind costly
    ///   links hold back while the other floods its cheap region.)
    /// * It stops when `top_f + top_b + floor ≥ μ`, the tops being each
    ///   side's least unsettled label, or when either side runs out. Take
    ///   a route cheaper than `μ`, and on it `v`, the first node the
    ///   forward side has not settled, and `z`, the last one the backward
    ///   side has not; each is labelled at its true distance. If `v` is
    ///   `z` or comes after it, some node of the route is labelled on both
    ///   sides at its true distances, and `μ` would not exceed the route's
    ///   cost. If `v` comes first, at least one link lies between them,
    ///   so the route costs at least `top_f + floor + top_b`.
    ///
    /// The route is the forward parent chain to the meeting node, then
    /// the backward one on to `dst`.
    ///
    /// # Panics
    ///
    /// If `μ` exceeds [`MAX_ROUTE_COST`].
    fn meet(
        &mut self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
        floor: u128,
        mut cost: impl FnMut(LinkId) -> Option<u128>,
    ) -> Option<(u128, Route)> {
        let n = net.num_nodes();
        if src == dst || src.index() >= n || dst.index() >= n {
            return None;
        }
        self.begin(n, src);
        let gen = self.gen;
        self.fwd.start(gen, src);
        self.back.start(gen, dst);
        let (mut mu, mut meet) = (u128::MAX, None);
        while let (Some(top_f), Some(top_b)) = (self.fwd.top(), self.back.top()) {
            if top_f + top_b + floor >= mu {
                break;
            }
            let forward = (self.fwd.heap.len(), top_f) <= (self.back.heap.len(), top_b);
            let (side, other) = if forward {
                (&mut self.fwd, &self.back)
            } else {
                (&mut self.back, &self.fwd)
            };
            let Some((d, node)) = side.settle_next() else {
                break;
            };
            let there = &other.labels[node.index()];
            debug_assert!(
                !(there.stamp == gen && there.done),
                "{node} settled on both sides"
            );
            let met = |v: usize, dist: u128| {
                let there = &other.labels[v];
                if there.stamp == gen && dist + there.dist < mu {
                    (mu, meet) = (dist + there.dist, Some(v));
                }
            };
            if forward {
                side.relax::<true>(gen, net, (d, node), floor, &mut cost, met);
            } else {
                side.relax::<false>(gen, net, (d, node), floor, &mut cost, met);
            }
        }
        let meet = meet?;
        Some((bounded(mu), self.meeting_route(net, src, dst, meet)?))
    }

    /// The route through node index `meet`: the forward parent chain to
    /// it, then the backward one on to `dst`, in one allocation.
    ///
    /// It is simple even with zero-cost steps. Every node of the two
    /// chains but `meet` is settled on its side, and no node is settled on
    /// both: once a side's top is a node the other side has settled, the
    /// two tops sum to at least that node's two labels, which `μ` does not
    /// exceed, so the search has stopped.
    fn meeting_route(&self, net: &Network, src: NodeId, dst: NodeId, meet: usize) -> Option<Route> {
        let (fwd, back) = (&self.fwd, &self.back);
        let hops =
            fwd.chain(net, meet, src, true).count() + back.chain(net, meet, dst, false).count();
        let mut links = Vec::with_capacity(hops);
        links.extend(fwd.chain(net, meet, src, true));
        links.reverse();
        links.extend(back.chain(net, meet, dst, false));
        Route::new(net, links).ok()
    }

    /// The label of node index `i` if the current search settled it
    /// (popped it, or stopped on it, with its final label). After a full
    /// [`SpfWorkspace::run`] that is every reached node; after a search
    /// that stopped for its target it excludes the nodes left in the heap.
    fn settled(&self, i: usize) -> Option<&Label> {
        self.fwd
            .labels
            .get(i)
            .filter(|l| l.stamp == self.gen && l.done)
    }

    /// The source of the workspace's current search.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Cost of the cheapest route to `node` in the current search, or
    /// `None` if unreachable (or not settled before the search stopped).
    pub fn distance(&self, node: NodeId) -> Option<u128> {
        self.settled(node.index()).map(|l| l.dist)
    }

    /// Reconstructs the cheapest route of the current search to `dest`, or
    /// `None` when `dest` is unreachable or equal to the source.
    pub fn route_to(&self, net: &Network, dest: NodeId) -> Option<Route> {
        if dest == self.source {
            return None;
        }
        self.settled(dest.index())?;
        walk_back(net, self.source, dest, |i| self.fwd.labels[i].parent_link)
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
    fn extract_tree(&self, n: usize) -> ShortestPathTree {
        let mut dist: Vec<Option<u128>> = vec![None; n];
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
/// Steps are whole-number `f64`s, each taken as the integer it names.
///
/// # Panics
///
/// If `cost` returns a step that is negative, fractional or above `2^53`.
pub fn shortest_path_tree(
    net: &Network,
    src: NodeId,
    mut cost: impl FnMut(LinkId) -> Option<f64>,
) -> ShortestPathTree {
    with_scratch(|ws| {
        ws.run(net, src, |l| cost(l).map(whole_step));
        ws.extract_tree(net.num_nodes())
    })
}

/// Finds the cheapest route from `src` to `dst` under `cost`, returning
/// `(total_cost, route)`, or `None` when unreachable or `src == dst`.
///
/// This is [`shortest_path_in`] at floor `0` in the thread's scratch
/// workspace: one-directional, so among equally cheap routes it returns
/// the one in the full search's tree, whose ties pop the lower node id
/// first.
///
/// # Example
///
/// ```
/// use drt_net::{algo, topology, Bandwidth, NodeId};
///
/// let net = topology::ring(5, Bandwidth::from_mbps(10))?;
/// let (cost, route) =
///     algo::shortest_path(&net, NodeId::new(0), NodeId::new(2), |_| Some(1)).unwrap();
/// assert_eq!(cost, 2);
/// assert_eq!(route.len(), 2);
/// # Ok::<(), drt_net::NetError>(())
/// ```
pub fn shortest_path(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    cost: impl FnMut(LinkId) -> Option<u128>,
) -> Option<(u128, Route)> {
    with_scratch(|ws| shortest_path_in(ws, net, src, dst, 0, cost))
}

/// The cheapest route from `src` to `dst` under `cost` by a
/// bidirectional search, for a caller that can state a `floor`: a lower
/// bound on every `Some(step)` its `cost` returns (`1` for unit hops, one
/// hop's key for the LSR backup costs; `0` is always safe). Returns
/// `(total_cost, route)`, or `None` when unreachable or `src == dst`.
///
/// A forward search from `src` and a backward one from `dst` over
/// in-links, under the same `cost`, each skip the links that
/// [`shortest_path_in`]'s floor skips, and stop once no route through a
/// node neither has settled can undercut the cheapest route met so far
/// (see `SpfWorkspace::meet`). The thread's scratch workspace serves
/// both, so once warm the returned route is the only allocation.
///
/// The contract, against the one-directional [`shortest_path_in`]:
///
/// * the cost is exact, the least of any route;
/// * the route is simple and of that cost. When the cheapest route is
///   unique it is *the* cheapest route, the one every exact search
///   returns; among several equally cheap routes it is one of them,
///   not necessarily the one a one-directional search's visiting order
///   picks.
///
/// A `cost` that returns less than its stated floor is a caller bug (a
/// debug assertion in the loop) and may yield a costlier route.
///
/// # Panics
///
/// If the route's cost, or any label on the way to it, exceeds
/// [`MAX_ROUTE_COST`].
pub fn shortest_path_with_floor(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    floor: u128,
    cost: impl FnMut(LinkId) -> Option<u128>,
) -> Option<(u128, Route)> {
    with_scratch(|ws| ws.meet(net, src, dst, floor, cost))
}

/// The one-directional targeted search, into a caller-managed
/// [`SpfWorkspace`] — the zero-allocation variant threaded through Yen spur
/// searches and the disjoint-pair algorithms. `floor` is as for
/// [`shortest_path_with_floor`]: the result is that of the full search
/// from `src` (tie-breaks included, ties popping the lower node id first);
/// the search only stops earlier and prices fewer links, because a label
/// within `floor` of the frontier can no longer be lowered. It stops once
/// `dst`'s label is final, so afterwards the workspace answers only for
/// the nodes settled up to then.
pub fn shortest_path_in(
    ws: &mut SpfWorkspace,
    net: &Network,
    src: NodeId,
    dst: NodeId,
    floor: u128,
    cost: impl FnMut(LinkId) -> Option<u128>,
) -> Option<(u128, Route)> {
    ws.search(net, src, Some(dst), floor, cost);
    let d = ws.distance(dst)?;
    let route = ws.route_to(net, dst)?;
    Some((d, route))
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
        assert_eq!(tree.distance(NodeId::new(0)), Some(0));
        assert_eq!(tree.distance(NodeId::new(3)), Some(3));
        assert_eq!(tree.distance(NodeId::new(5)), Some(1));
        assert_eq!(tree.source(), NodeId::new(0));
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
                Some(1)
            }
        })
        .unwrap();
        assert_eq!(cost, 3);
        assert!(!route.contains_link(l01));
    }

    #[test]
    fn weighted_costs_divert_route() {
        let net = topology::ring(4, CAP).unwrap();
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        // Make the direct hop expensive but not excluded.
        let (cost, route) = shortest_path(&net, NodeId::new(0), NodeId::new(1), |l| {
            if l == l01 {
                Some(10)
            } else {
                Some(1)
            }
        })
        .unwrap();
        assert_eq!(cost, 3);
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn whole_steps_cross_the_f64_boundary_exactly() {
        for (step, want) in [(0.0, 0), (-0.0, 0), (1.0, 1), (1e9 + 1.0, 1_000_000_001)] {
            assert_eq!(whole_step(step), want);
        }
        assert_eq!(whole_step(9_007_199_254_740_992.0), 1 << 53);
        for bad in [0.5, -1.0, f64::NAN, f64::INFINITY, 18_014_398_509_481_984.0] {
            assert!(
                std::panic::catch_unwind(|| whole_step(bad)).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn heap_entries_order_by_cost_then_node() {
        let costs = [0, 1, 1 << 36, 1 << 84, MAX_ROUTE_COST - 1, MAX_ROUTE_COST];
        let nodes = [0, 1, u32::MAX].map(NodeId::new);
        for a in costs {
            for b in costs {
                for m in nodes {
                    for n in nodes {
                        // A max-heap popping the least (cost, node) first.
                        let want = (a, m).cmp(&(b, n)).reverse();
                        assert_eq!(heap_entry(a, m).cmp(&heap_entry(b, n)), want);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 2^96")]
    fn a_route_cost_past_the_bound_panics() {
        let net = topology::ring(4, CAP).unwrap();
        shortest_path(&net, NodeId::new(0), NodeId::new(2), |_| {
            Some(MAX_ROUTE_COST)
        });
    }

    #[test]
    #[should_panic(expected = "exceeds 2^96")]
    fn a_meeting_cost_past_the_bound_panics() {
        // Every label is within the bound; the two that meet are not.
        let net = topology::ring(4, CAP).unwrap();
        shortest_path_with_floor(&net, NodeId::new(0), NodeId::new(2), 0, |_| {
            Some(MAX_ROUTE_COST)
        });
    }

    #[test]
    fn the_two_sides_meet_halfway() {
        // A 9-node duplex path, 0 -> 8 with unit steps: the heaps hold one
        // entry each throughout, so the lower top decides and the sides
        // take turns. They settle 0..=3 and 5..=8, meet at 4, and price
        // each of the route's links once.
        let net = topology::mesh(1, 9, CAP).unwrap();
        let mut priced = vec![0u32; net.num_links()];
        let mut ws = SpfWorkspace::new();
        let (cost, route) = ws
            .meet(&net, NodeId::new(0), NodeId::new(8), 1, |l| {
                priced[l.index()] += 1;
                Some(1)
            })
            .unwrap();
        assert_eq!(cost, 8);
        let ids: Vec<u32> = route.nodes(&net).iter().map(|v| v.as_u32()).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
        let settled = |side: &Side| {
            let done = |i: usize| side.labels[i].stamp == ws.gen && side.labels[i].done;
            (0..9).filter(|&i| done(i)).collect::<Vec<_>>()
        };
        assert_eq!(settled(&ws.fwd), [0, 1, 2, 3]);
        assert_eq!(settled(&ws.back), [5, 6, 7, 8]);
        assert!(priced.iter().all(|&p| p <= 1), "{priced:?}");
    }

    #[test]
    fn the_meeting_search_answers_what_the_one_sided_search_does() {
        // Unreachable, one-way, equal and out-of-range endpoints, and a
        // detour forced by an excluded link, through one workspace.
        let mut b = crate::NetworkBuilder::with_nodes(4);
        let n = NodeId::new;
        b.add_link(n(0), n(1), CAP).unwrap();
        b.add_link(n(1), n(2), CAP).unwrap();
        b.add_duplex_link(n(0), n(2), CAP).unwrap();
        let net = b.build();
        let l02 = net.find_link(n(0), n(2)).unwrap();
        let mut ws = SpfWorkspace::new();
        let cost = |l| (l != l02).then_some(1);
        for src in 0..6 {
            for dst in 0..6 {
                let (src, dst) = (n(src), n(dst));
                let want = shortest_path(&net, src, dst, cost);
                assert_eq!(ws.meet(&net, src, dst, 1, cost), want, "{src} -> {dst}");
            }
        }
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
            Some(1)
        });
        assert_eq!(priced, 3);
        for i in 0..4u32 {
            assert_eq!(ws.distance(NodeId::new(i)), Some(u128::from(i)));
        }
        assert_eq!(ws.route_to(&net, NodeId::new(3)).unwrap().len(), 3);
    }

    #[test]
    fn floor_prices_each_reached_node_once() {
        // Unit steps with floor 1: when a node is popped at d, every
        // labelled neighbour already sits at ≤ d + 1, so only links into
        // unlabelled nodes are priced — once per reached node, not once
        // per link out of the frontier (floor 0 prices 4's second way in).
        let net = topology::mesh(3, 3, CAP).unwrap();
        let count = |floor: u128| {
            let mut priced = vec![0u32; net.num_nodes()];
            let mut ws = SpfWorkspace::new();
            ws.search(&net, NodeId::new(0), None, floor, |l| {
                priced[net.link(l).dst().index()] += 1;
                Some(1)
            });
            let hops = shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
            for node in net.nodes() {
                assert_eq!(ws.distance(node), hops.distance(node));
                assert_eq!(ws.route_to(&net, node), hops.route_to(&net, node));
            }
            priced
        };
        assert_eq!(count(1), [0, 1, 1, 1, 1, 1, 1, 1, 1]);
        assert!(count(0).iter().sum::<u32>() > 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below floor")]
    fn step_below_stated_floor_panics_in_debug() {
        let net = topology::ring(4, CAP).unwrap();
        shortest_path_with_floor(&net, NodeId::new(0), NodeId::new(2), 2, |_| Some(1));
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
                let got = shortest_path_in(&mut ws, net, src, dst, 1, |_| Some(1));
                let fresh = shortest_path(net, src, dst, |_| Some(1));
                assert_eq!(got, fresh);

                ws.run(net, src, |_| Some(1));
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
            shortest_path_in(&mut ws, &net, NodeId::new(0), NodeId::new(1), 0, |_| {
                Some(1)
            })
            .unwrap();
        assert_eq!((cost, route.len()), (1, 1));
        assert_eq!(ws.distance(NodeId::new(0)), Some(0));
        assert_eq!(ws.distance(NodeId::new(1)), Some(1));
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
        ws.run(&net, NodeId::new(0), |_| Some(1));
        assert_eq!(ws.distance(NodeId::new(5)), Some(1));
    }

    #[test]
    fn stop_before_target_is_popped_hides_unsettled_labels() {
        // 0 -> 4 (the centre of a 3 x 3 mesh) with floor 1: node 1 labels
        // 2 and 4 at 2; popping node 3 at 1 then reaches no lower than
        // 2, so the search stops with 4 settled but never popped and 2
        // left tentative in the heap.
        let net = topology::mesh(3, 3, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        let mut priced = 0;
        let (cost, route) =
            shortest_path_in(&mut ws, &net, NodeId::new(0), NodeId::new(4), 1, |_| {
                priced += 1;
                Some(1)
            })
            .unwrap();
        assert_eq!(Some((cost, route.clone())), {
            let full = shortest_path_tree(&net, NodeId::new(0), |_| Some(1.0));
            full.distance(NodeId::new(4))
                .zip(full.route_to(&net, NodeId::new(4)))
        });
        assert_eq!(route.nodes(&net)[1], NodeId::new(1));
        assert_eq!(priced, 4); // 0->1, 0->3, 1->2, 1->4
        assert_eq!(ws.distance(NodeId::new(3)), Some(1));
        assert_eq!(ws.distance(NodeId::new(4)), Some(2));
        let tree = ws.extract_tree(net.num_nodes());
        for i in [2u32, 5, 6, 7, 8] {
            let node = NodeId::new(i);
            assert_eq!(ws.distance(node), None, "tentative dist at {i}");
            assert_eq!(ws.parent_link(node), None, "tentative parent at {i}");
            assert!(ws.route_to(&net, node).is_none());
            assert_eq!(tree.distance(node), None);
        }
        ws.run(&net, NodeId::new(0), |_| Some(1));
        assert_eq!(ws.distance(NodeId::new(2)), Some(2));
    }

    #[test]
    fn workspace_stale_state_is_invisible() {
        // A search that reaches many nodes followed by one that reaches
        // few: the second must not see the first's distances.
        let net = topology::mesh(4, 4, CAP).unwrap();
        let mut ws = SpfWorkspace::new();
        ws.run(&net, NodeId::new(0), |_| Some(1));
        assert!(ws.distance(NodeId::new(15)).is_some());
        let l01 = net.find_link(NodeId::new(0), NodeId::new(1)).unwrap();
        // Now exclude everything: only the source is reachable.
        ws.run(&net, NodeId::new(1), |_| None);
        assert_eq!(ws.source(), NodeId::new(1));
        assert_eq!(ws.distance(NodeId::new(1)), Some(0));
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
        ws.run(&net, NodeId::new(0), |_| Some(1));
        let tree = ws.extract_tree(net.num_nodes());
        for i in 0..9u32 {
            let node = NodeId::new(i);
            assert_eq!(tree.distance(node), ws.distance(node));
            assert_eq!(tree.route_to(&net, node), ws.route_to(&net, node));
        }
        assert_eq!(tree.source(), ws.source());
    }
}
