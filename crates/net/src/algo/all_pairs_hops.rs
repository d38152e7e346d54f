//! All-pairs hop counts: the global view of the bounded-flooding
//! scheme's distances.
//!
//! Section 4.1 of the paper has every node keep a distance table of
//! `D^j_{i,k}`, the minimum hop count from `i` to `j` via neighbour `k`,
//! "updated only upon change of the network topology". `D^j_{i,k}` is
//! `1 + hops(k, j)`, so one matrix of hop counts holds every node's table;
//! a flood reads one column of it, which [`crate::algo::bfs_hops_to_in`]
//! measures on demand.
//!
//! The matrix is built by one level-synchronous sweep of N-bit target
//! sets, the multi-source bit-parallel BFS of Then et al. ("The More the
//! Merrier", VLDB 2014), instead of one queue BFS per source. Level `d`
//! holds, for every node `v`, the set `front[v]` of targets exactly `d`
//! hops from `v`. Each usable link `u → v` ORs `front[v]` into `next[u]`;
//! a target new to `u` is `d + 1` hops from it, and the sweep stops at the
//! first level where no node learns a target. That is
//! O(diameter · L · ⌈N/64⌉) word operations against N · (N + L) steps,
//! and it needs three transient N × ⌈N/64⌉-word sets (`front`, `next` and
//! the targets seen so far), ≈ 375 KB at 1 000 nodes, besides the N²
//! table itself.

use crate::{LinkId, Network, NodeId};

/// Precomputed minimum hop counts between every ordered node pair.
///
/// Nothing maintains one: O(N²) memory is paid by whoever computes it —
/// tests holding [`crate::algo::bfs_hops_filtered`] and
/// [`crate::algo::bfs_hops_to`] to it, and topology reports — while route
/// selection measures the one column a request needs. The table equals
/// one [`crate::algo::bfs_hops_filtered`] per source, entry for entry.
#[derive(Debug, Clone)]
pub struct AllPairsHops {
    n: usize,
    // dist[src][dst], u32::MAX = unreachable
    dist: Vec<u32>,
}

const UNREACHABLE: u32 = u32::MAX;

impl AllPairsHops {
    /// Computes hop counts over every link with one bit-parallel sweep
    /// (see the module docs).
    pub fn compute(net: &Network) -> Self {
        Self::compute_filtered(net, |_| true)
    }

    /// [`AllPairsHops::compute`] restricted to links for which `usable`
    /// returns `true` (e.g. masking failed links, as the paper's distance
    /// tables are "updated only upon change of the network topology").
    ///
    /// `usable` is called exactly once per link, before the sweep starts.
    pub fn compute_filtered(net: &Network, mut usable: impl FnMut(LinkId) -> bool) -> Self {
        let n = net.num_nodes();
        let words = n.div_ceil(64);
        // The usable links' heads, grouped by tail: `heads[start[u]..start[u + 1]]`.
        let mut start = Vec::with_capacity(n + 1);
        let mut heads = Vec::with_capacity(net.num_links());
        start.push(0);
        for u in net.nodes() {
            let usable_out = net.out_links(u).iter().filter(|&&l| usable(l));
            heads.extend(usable_out.map(|&l| net.link(l).dst().index()));
            start.push(heads.len());
        }

        let mut dist = vec![UNREACHABLE; n * n];
        let mut seen = vec![0u64; n * words];
        for v in 0..n {
            dist[v * n + v] = 0;
            seen[v * words + v / 64] = 1 << (v % 64);
        }
        let mut front = seen.clone();
        let mut next = vec![0u64; n * words];
        // `front[v]` holds the targets exactly `d` hops from `v`.
        let mut d = 0;
        loop {
            let mut grew = false;
            let rows = next
                .chunks_exact_mut(words)
                .zip(seen.chunks_exact_mut(words));
            for (u, (next_row, seen_row)) in rows.enumerate() {
                // The union of the out-neighbours' fronts is within `d + 1`
                // hops of `u`; its targets not yet seen are exactly that far.
                next_row.fill(0);
                for &v in &heads[start[u]..start[u + 1]] {
                    let front_row = &front[v * words..(v + 1) * words];
                    for (x, &f) in next_row.iter_mut().zip(front_row) {
                        *x |= f;
                    }
                }
                let dist_row = &mut dist[u * n..(u + 1) * n];
                for (k, (x, s)) in next_row.iter_mut().zip(seen_row).enumerate() {
                    let new = *x & !*s;
                    *x = new;
                    *s |= new;
                    grew |= new != 0;
                    let mut bits = new;
                    while bits != 0 {
                        dist_row[k * 64 + bits.trailing_zeros() as usize] = d + 1;
                        bits &= bits - 1;
                    }
                }
            }
            if !grew {
                break;
            }
            d += 1;
            std::mem::swap(&mut front, &mut next);
        }
        AllPairsHops { n, dist }
    }

    /// Minimum hop count from `src` to `dst`, or `None` when unreachable.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        let d = self.dist[src.index() * self.n + dst.index()];
        (d != UNREACHABLE).then_some(d)
    }

    /// The average hop count over all ordered reachable pairs with
    /// `src != dst` (useful for calibrating hop-count limits).
    pub fn average_hops(&self) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for i in 0..self.n {
            for j in 0..self.n {
                if i == j {
                    continue;
                }
                let d = self.dist[i * self.n + j];
                if d != UNREACHABLE {
                    total += u64::from(d);
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// The largest finite hop count (network diameter); 0 for empty or
    /// fully disconnected networks.
    pub fn diameter(&self) -> u32 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Bandwidth};

    const CAP: Bandwidth = Bandwidth::from_mbps(10);

    #[test]
    fn hops_match_manhattan_distance_on_mesh() {
        let net = topology::mesh(3, 3, CAP).unwrap();
        let hops = AllPairsHops::compute(&net);
        // corner to opposite corner
        assert_eq!(hops.hops(NodeId::new(0), NodeId::new(8)), Some(4));
        assert_eq!(hops.hops(NodeId::new(0), NodeId::new(0)), Some(0));
        assert_eq!(hops.diameter(), 4);
    }

    #[test]
    fn average_hops_positive_on_connected_net() {
        let net = topology::ring(8, CAP).unwrap();
        let hops = AllPairsHops::compute(&net);
        assert!(hops.average_hops() > 1.0);
        assert_eq!(hops.diameter(), 4);
    }

    #[test]
    fn usable_is_asked_once_per_link() {
        let net = topology::mesh(4, 5, CAP).unwrap();
        let mut asked = vec![0u32; net.num_links()];
        let hops = AllPairsHops::compute_filtered(&net, |l| {
            asked[l.index()] += 1;
            l.index() % 3 != 0
        });
        assert_eq!(asked, vec![1; net.num_links()]);
        assert!(hops.diameter() > 0);
    }

    /// Every row of `compute` and of a masked `compute_filtered` against one
    /// per-source BFS, on `scale1k`'s 1 000-node network and the 4 000-node
    /// one `large_topologies_are_pinned` builds. Seconds in a release build:
    /// `cargo test --release -p drt-net --lib all_pairs_hops_match_bfs_at_scale -- --ignored`.
    #[test]
    #[ignore = "seconds in release, minutes in debug"]
    fn all_pairs_hops_match_bfs_at_scale() {
        for n in [1000, 4000] {
            let net = topology::WaxmanConfig::new(n, 3.0)
                .seed(60)
                .build()
                .unwrap();
            let masks: [fn(LinkId) -> bool; 2] = [|_| true, |l| l.index() % 7 != 3];
            for usable in masks {
                let hops = AllPairsHops::compute_filtered(&net, usable);
                for src in net.nodes() {
                    let row = crate::algo::bfs_hops_filtered(&net, src, usable);
                    let got: Vec<_> = net.nodes().map(|dst| hops.hops(src, dst)).collect();
                    assert_eq!(got, row, "{n} nodes, row {src}");
                }
            }
        }
    }
}
