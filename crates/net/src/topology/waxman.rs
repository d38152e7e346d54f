//! The Waxman random-graph model with exact degree targeting and
//! (optional, default-on) 2-edge-connectivity.

use crate::{Bandwidth, NetError, Network, NetworkBuilder, NodeId};
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Configuration for generating Waxman random topologies.
///
/// In the classic Waxman model (Waxman 1988, the paper's reference \[11\])
/// nodes are placed uniformly in the unit square and each pair `(u, v)` is
/// connected with probability `a · exp(−d(u,v) / (b·L))`, where `d` is
/// Euclidean distance and `L` the maximum inter-node distance. The DSN
/// paper requires topologies with an *exact* average node degree (`E = 3`
/// or `E = 4` on 60 nodes), which raw sampling cannot guarantee, so this
/// generator instead:
///
/// 1. places nodes uniformly at random in the unit square;
/// 2. draws a random spanning tree whose attachment choices are weighted
///    by the Waxman kernel `exp(−d/(b·L))` (guaranteeing connectivity
///    while preserving the model's locality bias);
/// 3. eliminates bridges by adding kernel-weighted edges across each
///    remaining cut (see below), while the degree budget allows;
/// 4. adds further links by weighted sampling without replacement until
///    exactly `round(E·n/2)` duplex pairs exist.
///
/// Step 3 (on by default, [`WaxmanConfig::two_edge_connected`]) exists
/// because a DR-connection whose route crosses a *bridge* can never have a
/// link-disjoint backup: the failure of that bridge is unrecoverable no
/// matter the routing scheme. Spanning-tree-seeded random graphs otherwise
/// retain degree-1 nodes and cuts that put a topology-imposed ceiling on
/// `P_act-bk`, drowning the routing-scheme differences the evaluation is
/// about. With `E ≥ 2` the budget virtually always suffices; leftover
/// bridges (tiny graphs, degree targets near the spanning-tree minimum)
/// are tolerated.
///
/// The overall density parameter `a` of the classic model is therefore
/// implied by the degree target rather than set directly; the locality
/// parameter `b` is exposed as [`WaxmanConfig::locality`].
///
/// # Example
///
/// ```
/// use drt_net::{topology::WaxmanConfig, algo, Bandwidth};
///
/// let net = WaxmanConfig::new(60, 3.0)
///     .capacity(Bandwidth::from_mbps(100))
///     .seed(1)
///     .build()?;
/// assert_eq!(net.num_nodes(), 60);
/// assert_eq!(net.num_links(), 180); // E = 3 -> 90 duplex pairs
/// assert!(net.is_connected());
/// assert!(algo::bridges(&net).is_empty());
/// # Ok::<(), drt_net::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WaxmanConfig {
    nodes: usize,
    target_degree: f64,
    locality: f64,
    capacity: Bandwidth,
    seed: u64,
    two_edge_connected: bool,
}

impl WaxmanConfig {
    /// Starts a configuration for `nodes` nodes with the given target
    /// average node degree (duplex pairs counted once per endpoint).
    pub fn new(nodes: usize, target_degree: f64) -> Self {
        WaxmanConfig {
            nodes,
            target_degree,
            locality: 0.6,
            capacity: Bandwidth::from_mbps(100),
            seed: 0,
            two_edge_connected: true,
        }
    }

    /// Sets the Waxman locality parameter `b` (default `0.6`). Smaller
    /// values bias links toward geometrically close node pairs.
    pub fn locality(mut self, b: f64) -> Self {
        self.locality = b;
        self
    }

    /// Sets the capacity assigned to every link (default 100 Mb/s, the
    /// calibration used for the paper's Table 1).
    pub fn capacity(mut self, capacity: Bandwidth) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the RNG seed; the generator is fully deterministic per seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables/disables best-effort bridge elimination (default enabled);
    /// see the type-level docs for why DRTP evaluations want it.
    pub fn two_edge_connected(mut self, yes: bool) -> Self {
        self.two_edge_connected = yes;
        self
    }

    /// Number of duplex pairs the generated network will contain.
    pub fn target_pairs(&self) -> usize {
        (self.target_degree * self.nodes as f64 / 2.0).round() as usize
    }

    /// Generates the network.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Infeasible`] when fewer than 2 nodes are
    /// requested, when the degree target implies fewer pairs than a
    /// spanning tree needs, when it exceeds the complete graph, or when
    /// the locality parameter is not positive.
    pub fn build(&self) -> Result<Network, NetError> {
        let n = self.nodes;
        if n < 2 {
            return Err(NetError::Infeasible("need at least 2 nodes".into()));
        }
        if self.locality <= 0.0 {
            return Err(NetError::Infeasible(
                "waxman locality parameter must be positive".into(),
            ));
        }
        let pairs = self.target_pairs();
        if pairs < n - 1 {
            return Err(NetError::Infeasible(format!(
                "target degree {} gives {} pairs, below the {} needed for connectivity",
                self.target_degree,
                pairs,
                n - 1
            )));
        }
        if pairs > n * (n - 1) / 2 {
            return Err(NetError::Infeasible(format!(
                "target degree {} exceeds the complete graph on {n} nodes",
                self.target_degree
            )));
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut pos = Vec::with_capacity(n);
        for _ in 0..n {
            pos.push([rng.gen::<f64>(), rng.gen::<f64>()]);
        }

        // Maximum inter-node distance L and the Waxman kernel.
        let mut max_d: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                max_d = max_d.max(dist(pos[i], pos[j]));
            }
        }
        let scale = self.locality * max_d.max(f64::MIN_POSITIVE);
        let kernel = |i: usize, j: usize| (-dist(pos[i], pos[j]) / scale).exp();

        // Undirected edge set under construction.
        let mut edges: HashSet<(usize, usize)> = HashSet::new();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let add_edge =
            |edges: &mut HashSet<(usize, usize)>, adj: &mut Vec<Vec<usize>>, a: usize, b: usize| {
                debug_assert!(a != b);
                let key = (a.min(b), a.max(b));
                if edges.insert(key) {
                    adj[a].push(b);
                    adj[b].push(a);
                    true
                } else {
                    false
                }
            };

        // 1. Spanning tree with Waxman-weighted attachment. A detached
        //    node is drawn with weight `best[k]`, its largest kernel toward
        //    any attached node, kept current per attachment (a running max
        //    instead of a rescan of `attached` per candidate per draw).
        let mut attached: Vec<usize> = vec![0];
        let mut detached: Vec<usize> = (1..n).collect();
        let mut best: Vec<f64> = detached.iter().map(|&j| kernel(0, j).max(0.0)).collect();
        while let Some(next) = pick_weighted(&mut rng, &best, |&w| w) {
            let j = detached.swap_remove(next);
            best.swap_remove(next);
            let pi = pick_weighted(&mut rng, &attached, |&i| kernel(i, j))
                .expect("attached set is never empty");
            let i = attached[pi];
            add_edge(&mut edges, &mut adj, i, j);
            attached.push(j);
            for (w, &d) in best.iter_mut().zip(&detached) {
                *w = w.max(kernel(j, d));
            }
        }

        // 2. Bridge elimination (best-effort within the degree budget).
        if self.two_edge_connected {
            while edges.len() < pairs {
                let Some((u, v)) = first_bridge(&adj) else {
                    break;
                };
                // Component of u when the bridge is removed.
                let side = component_without_edge(&adj, u, (u, v));
                // Candidate cross-cut pairs, kernel-weighted.
                let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
                for a in 0..n {
                    if !side[a] {
                        continue;
                    }
                    for (b, in_side) in side.iter().enumerate() {
                        if *in_side || edges.contains(&(a.min(b), a.max(b))) {
                            continue;
                        }
                        candidates.push((a, b, kernel(a, b)));
                    }
                }
                let Some(ci) = pick_weighted(&mut rng, &candidates, |c| c.2) else {
                    break; // cut already complete toward the other side
                };
                let (a, b, _) = candidates[ci];
                add_edge(&mut edges, &mut adj, a, b);
            }
        }

        // 3. Remaining pairs: weighted sampling without replacement among
        //    absent edges.
        let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if !edges.contains(&(i, j)) {
                    candidates.push((i, j, kernel(i, j)));
                }
            }
        }
        while edges.len() < pairs {
            let idx = pick_weighted(&mut rng, &candidates, |c| c.2)
                .expect("enough candidate edges exist by the feasibility check");
            let (i, j, _) = candidates.swap_remove(idx);
            add_edge(&mut edges, &mut adj, i, j);
        }

        // Materialise deterministically (sorted edge order).
        let mut b = NetworkBuilder::new();
        for p in &pos {
            b.add_node_at(*p);
        }
        // lint:allow(nondet) — hash-set drain is sorted on the next line
        let mut sorted: Vec<(usize, usize)> = edges.into_iter().collect();
        sorted.sort();
        for (i, j) in sorted {
            b.add_duplex_link(NodeId::new(i as u32), NodeId::new(j as u32), self.capacity)?;
        }
        Ok(b.build())
    }
}

fn dist(a: [f64; 2], b: [f64; 2]) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
}

/// First bridge of the undirected graph in `adj`, or `None`.
fn first_bridge(adj: &[Vec<usize>]) -> Option<(usize, usize)> {
    let n = adj.len();
    let mut disc = vec![0usize; n];
    let mut low = vec![0usize; n];
    let mut visited = vec![false; n];
    let mut timer = 1usize;
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let mut stack: Vec<(usize, usize, usize)> = vec![(start, usize::MAX, 0)];
        visited[start] = true;
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        while let Some(frame) = stack.last_mut() {
            let (u, parent) = (frame.0, frame.1);
            if frame.2 < adj[u].len() {
                let v = adj[u][frame.2];
                frame.2 += 1;
                if !visited[v] {
                    visited[v] = true;
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, u, 0));
                } else if v != parent {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(pframe) = stack.last_mut() {
                    let p = pframe.0;
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        return Some((p, u));
                    }
                }
            }
        }
    }
    None
}

/// Nodes reachable from `src` when edge `(banned.0, banned.1)` is removed.
fn component_without_edge(adj: &[Vec<usize>], src: usize, banned: (usize, usize)) -> Vec<bool> {
    let mut seen = vec![false; adj.len()];
    seen[src] = true;
    let mut queue = vec![src];
    while let Some(u) = queue.pop() {
        for &v in &adj[u] {
            if (u, v) == banned || (v, u) == banned {
                continue;
            }
            if !seen[v] {
                seen[v] = true;
                queue.push(v);
            }
        }
    }
    seen
}

/// Picks an index into `items` with probability proportional to `weight`,
/// or `None` when `items` is empty (uniform pick when all weights vanish).
fn pick_weighted<T>(rng: &mut impl Rng, items: &[T], weight: impl Fn(&T) -> f64) -> Option<usize> {
    if items.is_empty() {
        return None;
    }
    let total: f64 = items.iter().map(&weight).sum();
    if total <= 0.0 {
        return Some(rng.gen_range(0..items.len()));
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, item) in items.iter().enumerate() {
        target -= weight(item);
        if target <= 0.0 {
            return Some(i);
        }
    }
    Some(items.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bridges;

    #[test]
    fn paper_configurations_are_exact() {
        for (e, links) in [(3.0, 180), (4.0, 240)] {
            let net = WaxmanConfig::new(60, e).seed(11).build().unwrap();
            assert_eq!(net.num_nodes(), 60);
            assert_eq!(net.num_links(), links);
            assert!((net.average_node_degree() - e).abs() < 1e-9);
            assert!(net.is_connected());
        }
    }

    #[test]
    fn paper_configurations_have_no_bridges() {
        for e in [3.0, 4.0] {
            for seed in 0..5 {
                let net = WaxmanConfig::new(60, e).seed(seed).build().unwrap();
                assert!(bridges(&net).is_empty(), "E={e} seed={seed} left bridges");
            }
        }
    }

    #[test]
    fn bridge_elimination_can_be_disabled() {
        // With elimination off, spanning-tree-seeded low-degree graphs
        // typically keep bridges (check a few seeds; at least one must).
        let any_bridges = (0..5).any(|seed| {
            let net = WaxmanConfig::new(40, 2.2)
                .seed(seed)
                .two_edge_connected(false)
                .build()
                .unwrap();
            !bridges(&net).is_empty()
        });
        assert!(any_bridges, "expected some bridge without elimination");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WaxmanConfig::new(30, 3.0).seed(5).build().unwrap();
        let b = WaxmanConfig::new(30, 3.0).seed(5).build().unwrap();
        assert_eq!(a, b);
        let c = WaxmanConfig::new(30, 3.0).seed(6).build().unwrap();
        assert_ne!(a, c);
    }

    /// FNV-1a of the `textio` rendering of builds whose values were
    /// captured before the spanning-tree stage got its running maxima.
    /// Every workload and the committed campaign output hang off these
    /// graphs, so a change that perturbs the RNG draw order must fail here.
    #[test]
    fn generated_topologies_are_pinned() {
        let fnv1a = |text: &str| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        for (n, e, seed, want) in [
            (2, 1.0, 0, 0x5a5c_bcfe_a802_265e_u64),
            (5, 2.0, 9, 0x25cd_0589_98aa_3040),
            (60, 3.0, 1, 0x1d00_b191_85dd_d3bf),
            (60, 4.0, 7, 0xae9b_c6dd_7c47_96ab),
            (250, 3.0, 3, 0xf201_1821_676f_3a24),
        ] {
            let net = WaxmanConfig::new(n, e).seed(seed).build().unwrap();
            assert_eq!(
                fnv1a(&net.to_text()),
                want,
                "waxman({n}, {e}, seed {seed}) changed"
            );
        }
    }

    #[test]
    fn locality_bias_shortens_links() {
        // With a small locality parameter, sampled links should be shorter
        // on average than with a large one.
        let tight = WaxmanConfig::new(50, 4.0)
            .locality(0.1)
            .seed(3)
            .build()
            .unwrap();
        let loose = WaxmanConfig::new(50, 4.0)
            .locality(10.0)
            .seed(3)
            .build()
            .unwrap();
        let avg_len = |net: &crate::Network| {
            let total: f64 = net
                .links()
                .map(|l| net.euclidean_distance(l.src(), l.dst()))
                .sum();
            total / net.num_links() as f64
        };
        assert!(avg_len(&tight) < avg_len(&loose));
    }

    #[test]
    fn infeasible_targets_rejected() {
        assert!(WaxmanConfig::new(1, 3.0).build().is_err());
        assert!(WaxmanConfig::new(60, 0.5).build().is_err()); // < spanning tree
        assert!(WaxmanConfig::new(10, 20.0).build().is_err()); // > complete
        assert!(WaxmanConfig::new(10, 3.0).locality(0.0).build().is_err());
    }

    #[test]
    fn minimum_viable_graph() {
        // n=2, E=1: a single duplex pair; the budget cannot remove the
        // bridge, which best-effort elimination tolerates.
        let net = WaxmanConfig::new(2, 1.0).build().unwrap();
        assert_eq!(net.num_links(), 2);
        assert!(net.is_connected());
    }

    #[test]
    fn positions_are_in_unit_square() {
        let net = WaxmanConfig::new(40, 3.0).seed(9).build().unwrap();
        for node in net.nodes() {
            let [x, y] = net.node_position(node);
            assert!((0.0..=1.0).contains(&x));
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn min_degree_is_two_with_elimination() {
        let net = WaxmanConfig::new(60, 3.0).seed(4).build().unwrap();
        for node in net.nodes() {
            assert!(
                net.out_links(node).len() >= 2,
                "{node} has degree {}",
                net.out_links(node).len()
            );
        }
    }
}
