//! The Waxman random-graph model with exact degree targeting and
//! (optional, default-on) 2-edge-connectivity.

use crate::{Bandwidth, NetError, Network, NetworkBuilder, NodeId};
use rand::Rng;
use rand::SeedableRng;

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
    fn target_pairs(&self) -> usize {
        (self.target_degree * self.nodes as f64 / 2.0).round() as usize
    }

    /// Generates the network.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Infeasible`] when fewer than 2 or more than
    /// `u32::MAX` (the [`NodeId`] range) nodes are requested, when the
    /// degree target implies fewer pairs than a spanning tree needs, when
    /// it exceeds the complete graph, or when the locality parameter is
    /// not positive (NaN included; `+∞` is valid and makes every weight 1).
    pub fn build(&self) -> Result<Network, NetError> {
        let n = self.nodes;
        let most = u32::MAX as usize; // the `NodeId` range
        if !(2..=most).contains(&n) {
            return Err(NetError::Infeasible(format!("{n} nodes, need 2..={most}")));
        }
        // NaN fails every comparison, so it must be named: as a kernel
        // scale it makes every weight NaN and every draw the last candidate.
        if self.locality.is_nan() || self.locality <= 0.0 {
            return Err(NetError::Infeasible(format!(
                "waxman locality parameter must be positive, got {}",
                self.locality
            )));
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
        let complete = n.checked_mul(n - 1).map_or(usize::MAX, |twice| twice / 2);
        if pairs > complete {
            return Err(NetError::Infeasible(format!(
                "target degree {} exceeds the complete graph on {n} nodes",
                self.target_degree
            )));
        }

        // 1. Placement, O(n); then the maximum inter-node distance L and
        //    the Waxman kernel, O(n²) distances.
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut pos = Vec::with_capacity(n);
        for _ in 0..n {
            pos.push([rng.gen::<f64>(), rng.gen::<f64>()]);
        }
        let mut max_d: f64 = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                max_d = max_d.max(dist(pos[i], pos[j]));
            }
        }
        let scale = self.locality * max_d.max(f64::MIN_POSITIVE);
        let kernel = |i: usize, j: usize| (-dist(pos[i], pos[j]) / scale).exp();

        // The undirected edge set under construction: adjacency lists
        // (degree ≈ E, so membership is a short scan) and, from the tree
        // on, the pair count `links`. Every stage adds only absent pairs.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let connect = |adj: &mut [Vec<usize>], a: usize, b: usize| {
            debug_assert!(a != b && !adj[a].contains(&b));
            adj[a].push(b);
            adj[b].push(a);
        };

        // 2. Spanning tree with Waxman-weighted attachment, O(n²) kernel
        //    evaluations. A detached node is drawn with weight `best[k]`,
        //    its largest kernel toward any attached node, kept current per
        //    attachment (a running max instead of a rescan of `attached`
        //    per candidate per draw).
        let mut attached: Vec<usize> = vec![0];
        let mut detached: Vec<usize> = (1..n).collect();
        let mut best: Vec<f64> = detached.iter().map(|&j| kernel(0, j).max(0.0)).collect();
        while let Some(next) = pick_weighted(&mut rng, &best, |&w| w) {
            let j = detached.swap_remove(next);
            best.swap_remove(next);
            let pi = pick_weighted(&mut rng, &attached, |&i| kernel(i, j))
                .expect("attached set is never empty");
            connect(&mut adj, attached[pi], j);
            attached.push(j);
            for (w, &d) in best.iter_mut().zip(&detached) {
                *w = w.max(kernel(j, d));
            }
        }
        let mut links = n - 1;

        // 3. Bridge elimination (best-effort within the degree budget).
        //    Per bridge, O(n + links) to find it and its cut, then
        //    O(|side| · |other|) for the kernel-weighted absent pairs
        //    across the cut, listed `a` ascending over `side`, then `b`
        //    ascending over `other` — a leaf bridge's cut is n − 1 pairs.
        if self.two_edge_connected {
            while links < pairs {
                let Some((u, v)) = first_bridge(&adj) else {
                    break;
                };
                // Component of u when the bridge is removed.
                let side = component_without_edge(&adj, u, (u, v));
                let other: Vec<usize> = (0..n).filter(|&b| !side[b]).collect();
                let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
                for a in (0..n).filter(|&a| side[a]) {
                    for &b in other.iter().filter(|&b| !adj[a].contains(b)) {
                        candidates.push((a, b, kernel(a, b)));
                    }
                }
                let Some(ci) = pick_weighted(&mut rng, &candidates, |c| c.2) else {
                    break; // cut already complete toward the other side
                };
                let (a, b, _) = candidates[ci];
                connect(&mut adj, a, b);
                links += 1;
            }
        }

        // 4. Remaining pairs: weighted sampling without replacement among
        //    absent edges. The list holds every absent pair, O(n²) at
        //    16 B each. Each draw is the same left fold as steps 2–3,
        //    answered from one weight sum per `BLOCK` candidates when those
        //    sums prove the fold's index, O(n²/BLOCK + BLOCK); otherwise
        //    the fold runs over the whole list.
        let mut candidates: Vec<(u32, u32, f64)> = Vec::with_capacity(complete - links);
        for (i, nbrs) in adj.iter().enumerate() {
            for j in (i + 1)..n {
                if !nbrs.contains(&j) {
                    candidates.push((i as u32, j as u32, kernel(i, j)));
                }
            }
        }
        let weight = |c: &(u32, u32, f64)| c.2;
        let mut sums = BlockSums::new(&candidates, weight);
        while links < pairs {
            let idx = sums
                .pick(&mut rng, &candidates, weight)
                .expect("enough candidate edges exist by the feasibility check");
            let (i, j, _) = sums.swap_remove(&mut candidates, idx, weight);
            connect(&mut adj, i as usize, j as usize);
            links += 1;
        }

        // Materialise deterministically (sorted edge order).
        let mut b = NetworkBuilder::new();
        for p in &pos {
            b.add_node_at(*p);
        }
        for (i, mut nbrs) in adj.into_iter().enumerate() {
            nbrs.sort_unstable();
            for j in nbrs.into_iter().filter(|&j| j > i) {
                b.add_duplex_link(NodeId::new(i as u32), NodeId::new(j as u32), self.capacity)?;
            }
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
    Some(fold_pick(items, weight, total, rng.gen()))
}

/// The fold every weighted draw is defined by: `u · total` less each
/// weight in turn, left to right, stops at the first index where it
/// reaches `≤ 0` (the last index, if rounding never gets it there).
/// `total` is the left-fold sum of the weights and `u` a draw in `[0, 1)`.
fn fold_pick<T>(items: &[T], weight: impl Fn(&T) -> f64, total: f64, u: f64) -> usize {
    let mut target = u * total;
    for (i, item) in items.iter().enumerate() {
        target -= weight(item);
        if target <= 0.0 {
            return i;
        }
    }
    items.len() - 1
}

/// Candidates per running sum in [`BlockSums`].
const BLOCK: usize = 256;

/// The certificate's margin `δ = MARGIN · M · S` over `M` candidates whose
/// block sums total `S`, so that the index [`BlockSums::certified`]
/// accepts is the index [`fold_pick`] returns.
///
/// Let `r = EPSILON / 2` (the unit roundoff), `W` and `E_i` the exact
/// total and prefix through `i`, and `g = M·r / (1 − M·r)`. A sum of at
/// most `M + 1` terms is within `g` times the sum of their magnitudes of
/// exact (Higham, *Accuracy and Stability of Numerical Algorithms*,
/// §4.2), whatever its order, so for non-negative weights:
/// - the fold's total `T` is within `g·W` of `W`;
/// - its target `fl(u·T)` is within `g·W + r·T` of `u·W`;
/// - its chain `fl(u·T) − w_0 − … − w_i` is within a further
///   `g·(fl(u·T) + E_i)` of `fl(u·T) − E_i`;
/// - the block sums' `S` and every prefix `P(i)` the certificate forms
///   are within `g·W` of `W` and `E_i`, so `t = fl(u·S)` is within
///   `g·W + r·S` of `u·W`.
///
/// If `P(i − 1) < t − δ` and `P(i) > t + δ`, with `δ` above the sum of
/// these and the rounding of `t ± δ` (`≤ 2r·(1 + r)·S`), then every chain
/// value before `i` is positive and the one at `i` is not: the fold
/// returns `i`. A certificate can pass only if `δ < t ≤ (1 + r)·S`, so
/// `M·r < 1/16`, `g ≤ (16/15)·M·r`, `W ≤ (15/14)·S` and `T ≤ (8/7)·S`;
/// the sum is then at most `5.8·M·r·S + 4.2·r·S ≤ 10·M·r·S`, and
/// `16·M·r·S` covers it with room for the rounding of `δ` itself.
/// Subnormals change nothing: a sum or difference never rounds in that
/// range, a product's absolute `2⁻¹⁰⁷⁵` fits the slack when `S` is normal,
/// and when `S` is subnormal every sum above is exact and `t` is the
/// fold's own target.
const MARGIN: f64 = 8.0 * f64::EPSILON;

/// [`pick_weighted`] over a list that loses one entry per draw, answered
/// from one weight sum per [`BLOCK`] entries: the sums locate the index
/// the fold would stop at, and a margin ([`MARGIN`]) on its two prefixes
/// proves it. When the margin fails the fold runs with the same draw, so
/// the index and the RNG stream are the fold's by construction. Weights
/// must be finite and non-negative.
struct BlockSums {
    sums: Vec<f64>,
}

impl BlockSums {
    fn new<T>(items: &[T], weight: impl Fn(&T) -> f64) -> Self {
        BlockSums {
            sums: items.chunks(BLOCK).map(|b| block_sum(b, &weight)).collect(),
        }
    }

    /// [`pick_weighted`] on `items`, which these sums describe.
    fn pick<T>(
        &self,
        rng: &mut impl Rng,
        items: &[T],
        weight: impl Fn(&T) -> f64,
    ) -> Option<usize> {
        if items.is_empty() {
            return None;
        }
        // Zero exactly when every weight is, as the fold's total is.
        let total: f64 = self.sums.iter().sum();
        if total <= 0.0 {
            return Some(rng.gen_range(0..items.len()));
        }
        Some(self.pick_at(items, weight, total, rng.gen()))
    }

    /// [`fold_pick`]'s index for the draw `u`; `total` is the sum of the
    /// block sums.
    fn pick_at<T>(&self, items: &[T], weight: impl Fn(&T) -> f64, total: f64, u: f64) -> usize {
        self.certified(items, &weight, total, u).unwrap_or_else(|| {
            let fold_total = items.iter().map(&weight).sum();
            fold_pick(items, &weight, fold_total, u)
        })
    }

    /// The first index whose prefix reaches `u · total`, if it clears the
    /// prefix before it and its own by the [`MARGIN`] on both sides.
    fn certified<T>(
        &self,
        items: &[T],
        weight: impl Fn(&T) -> f64,
        total: f64,
        u: f64,
    ) -> Option<usize> {
        let target = u * total;
        let margin = MARGIN * items.len() as f64 * total;
        let (mut before, mut start) = (0.0, 0);
        for &s in &self.sums {
            let after = before + s;
            if after >= target {
                break;
            }
            (before, start) = (after, start + BLOCK);
        }
        for (i, item) in items.get(start..)?.iter().take(BLOCK).enumerate() {
            let after = before + weight(item);
            if after >= target {
                return (before < target - margin && after > target + margin).then_some(start + i);
            }
            before = after;
        }
        None
    }

    /// `items.swap_remove(idx)`, keeping the sums current: only the block
    /// that held `idx` and the last block change.
    fn swap_remove<T>(&mut self, items: &mut Vec<T>, idx: usize, weight: impl Fn(&T) -> f64) -> T {
        let removed = items.swap_remove(idx);
        let blocks = items.len().div_ceil(BLOCK);
        self.sums.truncate(blocks);
        let mut refresh = |k: usize| {
            let end = items.len().min((k + 1) * BLOCK);
            self.sums[k] = block_sum(&items[k * BLOCK..end], &weight);
        };
        if idx / BLOCK + 1 < blocks {
            refresh(idx / BLOCK);
        }
        if let Some(last) = blocks.checked_sub(1) {
            refresh(last);
        }
        removed
    }
}

fn block_sum<T>(block: &[T], weight: impl Fn(&T) -> f64) -> f64 {
    block
        .iter()
        .map(|item| {
            let w = weight(item);
            debug_assert!(
                w.is_finite() && w >= 0.0,
                "weight {w} is not finite and non-negative"
            );
            w
        })
        .sum()
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

    /// FNV-1a of a network's `textio` rendering.
    fn fnv1a(net: &Network) -> u64 {
        net.to_text()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Hashes of builds whose values were captured before the
    /// spanning-tree stage got its running maxima (the `(250, 3.0, 3)` and
    /// `(1000, 3.0, 60)` rows before bridge elimination stopped scanning
    /// every pair per bridge, the last three rows before the final fill
    /// drew from block sums). Every workload and the committed campaign
    /// output hang off these graphs, so a change that perturbs the RNG draw
    /// order must fail here. `(1000, 3.0, 60)` is `scale1k`'s network; the
    /// `false` row runs the final fill (step 4) without bridge elimination;
    /// locality 0.05 spreads the weights over hundreds of binades, and
    /// 1e-300 underflows every weight to 0, so every draw is uniform.
    #[test]
    fn generated_topologies_are_pinned() {
        for (n, e, seed, two_edge, b, want) in [
            (2, 1.0, 0, true, 0.6, 0x5a5c_bcfe_a802_265e_u64),
            (5, 2.0, 9, true, 0.6, 0x25cd_0589_98aa_3040),
            (60, 3.0, 1, true, 0.6, 0x1d00_b191_85dd_d3bf),
            (60, 4.0, 7, true, 0.6, 0xae9b_c6dd_7c47_96ab),
            (250, 3.0, 3, true, 0.6, 0xf201_1821_676f_3a24),
            (250, 3.0, 3, false, 0.6, 0xb638_b69f_75ec_7f0d),
            (1000, 3.0, 60, true, 0.6, 0x056e_f96a_d1f9_5ab8),
            (250, 3.0, 3, true, 0.05, 0x3018_a0e4_ca8a_b236),
            (60, 3.0, 1, true, 1e-300, 0x3088_ef1a_a5fd_455d),
            (250, 3.0, 3, true, 1e-300, 0x95bf_357d_35c0_b003),
        ] {
            let net = WaxmanConfig::new(n, e)
                .seed(seed)
                .two_edge_connected(two_edge)
                .locality(b)
                .build()
                .unwrap();
            assert_eq!(
                fnv1a(&net),
                want,
                "waxman({n}, {e}, seed {seed}, two_edge_connected {two_edge}, locality {b}) changed"
            );
        }
    }

    /// The sizes at which the final fill's block-sum certificate fails on
    /// some draws and the fold decides (6 of 182 draws at 2 000 nodes, 98
    /// of 386 at 4 000), hashed before the block sums existed. Seconds in a
    /// release build, so ignored by default:
    /// `cargo test --release -p drt-net --lib large_topologies_are_pinned -- --ignored`.
    #[test]
    #[ignore = "seconds in release, minutes in debug"]
    fn large_topologies_are_pinned() {
        for (n, e, want) in [
            (2000, 3.0, 0x6053_3917_c809_967e_u64),
            (4000, 3.0, 0xc9c1_492d_1c3f_f312),
        ] {
            let net = WaxmanConfig::new(n, e).seed(60).build().unwrap();
            assert_eq!(fnv1a(&net), want, "waxman({n}, {e}, seed 60) changed");
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
        // NaN passed `<= 0.0` and built a graph of NaN weights, every draw
        // the last candidate. +∞ is valid: every weight is then 1.
        assert!(matches!(
            WaxmanConfig::new(60, 3.0)
                .locality(f64::NAN)
                .seed(1)
                .build(),
            Err(NetError::Infeasible(_))
        ));
        assert!(WaxmanConfig::new(60, 3.0)
            .locality(f64::INFINITY)
            .build()
            .is_ok());
    }

    #[test]
    fn node_counts_beyond_the_id_range_rejected_before_allocating() {
        // `usize::MAX` overflows `n * (n - 1)`; `u32::MAX + 1` would go on
        // to allocate 64 GiB of positions. `Err` means neither happened.
        for n in [usize::MAX, u32::MAX as usize + 1] {
            match WaxmanConfig::new(n, 3.0).build() {
                Err(NetError::Infeasible(msg)) => assert!(msg.contains(&n.to_string()), "{msg}"),
                other => panic!("{n} nodes: {other:?}"),
            }
        }
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

    /// A weight of one of the classes the step-4 equivalence is checked
    /// on, from a draw `x` in `[0, 1)`: zero, subnormal, the default
    /// locality's kernel range `[e^(−1/0.6), 1]`, and `exp(−d/0.01)` over
    /// `d ∈ [0, √2]`, which spans about 200 binades.
    fn class_weight(class: u8, x: f64) -> f64 {
        match class {
            0 => 0.0,
            1 => f64::from_bits(1 + (x * ((1u64 << 52) - 2) as f64) as u64),
            2 => (-x / 0.6).exp(),
            _ => (-x * std::f64::consts::SQRT_2 / 0.01).exp(),
        }
    }

    /// Draws with swap-removal from one list by block sums and from a copy
    /// by the fold, from equal RNGs: same indices, same RNG streams, and
    /// sums equal to a rebuild after every removal.
    fn assert_block_sums_follow_the_fold(
        weights: Vec<f64>,
        draws: usize,
        seed: u64,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prelude::*;
        use rand::RngCore;
        let w = |&x: &f64| x;
        let mut fast = weights.clone();
        let mut fold = weights;
        let mut sums = BlockSums::new(&fast, w);
        let mut fast_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fold_rng = fast_rng.clone();
        for draw in 0..draws {
            let got = sums.pick(&mut fast_rng, &fast, w);
            let want = pick_weighted(&mut fold_rng, &fold, w);
            prop_assert_eq!(got, want, "draw {} of {} candidates", draw, fold.len());
            prop_assert_eq!(fast_rng.clone().next_u64(), fold_rng.clone().next_u64());
            let Some(idx) = want else { break };
            sums.swap_remove(&mut fast, idx, w);
            fold.swap_remove(idx);
            prop_assert_eq!(&sums.sums, &BlockSums::new(&fold, w).sums);
        }
        Ok(())
    }

    proptest::proptest! {
        /// Lists of one weight class (`mode` 0–3) or of all four mixed.
        #[test]
        fn block_sums_pick_what_the_fold_picks(
            mode in 0u8..5,
            raw in proptest::prelude::prop::collection::vec((0u8..4, 0.0f64..1.0), 1..=5000),
            draws in 1usize..300,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let weights = raw
                .into_iter()
                .map(|(class, x)| class_weight(if mode < 4 { mode } else { class }, x))
                .collect();
            assert_block_sums_follow_the_fold(weights, draws, seed)?;
        }
    }

    /// All weights zero: the uniform branch, with the fold's RNG use.
    #[test]
    fn block_sums_draw_uniformly_when_every_weight_is_zero() {
        for len in [1, 255, 256, 257, 1000] {
            assert_block_sums_follow_the_fold(vec![0.0; len], len + 1, len as u64).unwrap();
        }
    }

    /// A draw landing exactly on a prefix boundary, or one ulp either
    /// side, leaves the fold's answer to rounding: the certificate must
    /// refuse it, and the fallback must return the fold's index. Both
    /// lists total exactly 1, so `u` is the boundary itself; the second
    /// spans three blocks and has zero weights between its boundaries.
    #[test]
    fn certificate_refuses_draws_on_a_prefix_boundary() {
        let w = |&x: &f64| x;
        let long: Vec<f64> = (0..768)
            .map(|i| if i % 3 == 0 { 0.0 } else { 1.0 / 512.0 })
            .collect();
        for weights in [vec![0.25, 0.125, 0.0, 0.375, 0.25], long] {
            let sums = BlockSums::new(&weights, w);
            let total: f64 = sums.sums.iter().sum();
            assert_eq!(total, 1.0);
            let mut boundary = 0.0;
            for &x in [0.0].iter().chain(&weights) {
                boundary += x;
                let (below, above) = (boundary.next_down(), boundary.next_up());
                for u in [below, boundary, above]
                    .into_iter()
                    .filter(|u| (0.0..1.0).contains(u))
                {
                    assert_eq!(sums.certified(&weights, w, total, u), None, "u = {u:e}");
                    assert_eq!(
                        sums.pick_at(&weights, w, total, u),
                        fold_pick(&weights, w, total, u),
                        "u = {u:e}"
                    );
                }
            }
        }
    }
}
