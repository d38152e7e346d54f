//! A warmed call allocates only what it returns: route searches, the
//! link-state and bounded-flooding schemes' selections, probes and sweeps
//! reuse their workspaces and buffers.
//! Allocations are counted per thread, so the harness's other test
//! threads never reach a count and each `parallel_map` worker counts its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use drt_core::failure::{FailureSweep, LinkImpact};
use drt_core::routing::{
    BoundedFlooding, DLsr, PLsr, PrimaryOnly, RoutePair, RouteRequest, RoutingScheme,
};
use drt_core::{ConnectionId, DrtpManager};
use drt_experiments::par::parallel_map;
use drt_net::algo::{shortest_path_in, shortest_path_with_floor, DynamicSpt, SpfWorkspace};
use drt_net::{topology, Bandwidth, LinkId, Network, NodeId, Route};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations on the calling thread. The
/// default `alloc_zeroed` and `realloc` go through `alloc`, so a `Vec`
/// doubling counts once.
struct Counting;

// SAFETY: both methods forward to `System` unchanged; the count is a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down may allocate after its slot is gone.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made on this
/// thread (the result included: it is dropped after the count).
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

fn waxman(nodes: usize, seed: u64) -> Arc<Network> {
    let cfg = topology::WaxmanConfig::new(nodes, 4.0).capacity(Bandwidth::from_mbps(100));
    Arc::new(cfg.seed(seed).build().expect("waxman topology"))
}

/// Unequal link costs, none below 8, so searches break ties and take
/// detours.
fn cost(l: LinkId) -> Option<u128> {
    Some(8 + (l.index() % 7) as u128)
}

/// A D-LSR manager after `requests` uniform connection requests.
fn loaded(nodes: usize, requests: u64, seed: u64) -> DrtpManager {
    let mut mgr = DrtpManager::new(waxman(nodes, seed));
    let mut rng = drt_sim::rng::stream(seed, "allocation-free");
    let pattern = drt_sim::workload::TrafficPattern::ut();
    for i in 0..requests {
        let (src, dst) = pattern.sample_pair(nodes, &mut rng);
        let req = RouteRequest::new(ConnectionId::new(i), src, dst, Bandwidth::from_kbps(3_000));
        let _ = mgr.request_connection(&mut DLsr::new(), req);
    }
    mgr
}

/// The allocations of growing a fresh `Vec` of `item`s to `len` entries
/// one push at a time.
fn growth_allocations<T: Copy>(item: T, len: usize) -> u64 {
    let (grown, n) = counted(|| {
        let mut v = Vec::new();
        for _ in 0..std::hint::black_box(len) {
            v.push(item);
        }
        v
    });
    assert_eq!(grown.len(), len);
    n
}

/// All a sweep's report costs: growing `per_link` and `per_conn` to
/// their lengths one push at a time.
fn report_allocations(sweep: &FailureSweep) -> u64 {
    let impact = LinkImpact {
        link: LinkId::new(0),
        affected: 0,
        activated: 0,
    };
    let kill = (ConnectionId::new(0), LinkId::new(0));
    growth_allocations(impact, sweep.per_link.len())
        + growth_allocations(kill, sweep.per_conn.len())
}

#[test]
fn spf_searches_allocate_only_their_routes() {
    for (nodes, seed) in [(60, 1), (300, 2)] {
        let net = waxman(nodes, seed);
        let node = |i: usize| NodeId::new((i * nodes / 20) as u32);
        let pairs: Vec<(NodeId, NodeId)> = (0..20).map(|i| (node(i), node(19 - i))).collect();
        let mut ws = SpfWorkspace::new();
        for warm in [true, false] {
            for &(src, dst) in &pairs {
                let ((), n) = counted(|| ws.run(&net, src, cost));
                assert!(warm || n == 0, "run from {src} on {nodes} nodes: {n}");
                // A route is its link `Vec` and the `Arc<[LinkId]>` it keeps.
                let (route, n) = counted(|| shortest_path_in(&mut ws, &net, src, dst, 8, cost));
                let want = if route.is_some() { 2 } else { 0 };
                assert!(warm || n == want, "{src} -> {dst} on {nodes} nodes: {n}");
                // The bidirectional search, in the thread's scratch workspace.
                let (route, n) = counted(|| shortest_path_with_floor(&net, src, dst, 8, cost));
                let want = if route.is_some() { 2 } else { 0 };
                assert!(warm || n == want, "{src} <-> {dst} on {nodes} nodes: {n}");
            }
        }
    }
}

/// What a selection returns: each route's link `Vec` and `Arc<[LinkId]>`.
fn pair_allocs(pair: &RoutePair) -> u64 {
    2 + 2 * u64::from(pair.backup.is_some())
}

/// Forty fresh requests on `mgr`, and forty live connections each as
/// re-protection asks for one more backup: its request and its primary.
fn selection_calls(
    mgr: &DrtpManager,
    nodes: usize,
    seed: u64,
) -> (Vec<RouteRequest>, Vec<(RouteRequest, Route)>) {
    let mut rng = drt_sim::rng::stream(seed, "selections");
    let pattern = drt_sim::workload::TrafficPattern::ut();
    let reqs = (0..40)
        .map(|i| {
            let (src, dst) = pattern.sample_pair(nodes, &mut rng);
            RouteRequest::new(
                ConnectionId::new(1 << 40 | i),
                src,
                dst,
                Bandwidth::from_kbps(3_000),
            )
        })
        .collect();
    let live = mgr
        .connections()
        .take(40)
        .map(|c| {
            let p = c.primary().clone();
            let req = RouteRequest::new(c.id(), p.source(), p.dest(), c.qos().bandwidth);
            (req, p)
        })
        .collect();
    (reqs, live)
}

#[test]
fn lsr_selections_allocate_only_their_routes() {
    for (nodes, requests, seed) in [(60, 400, 8), (300, 600, 9)] {
        let mgr = loaded(nodes, requests, seed);
        let view = mgr.view();
        let (reqs, live) = selection_calls(&mgr, nodes, seed);
        let (mut dlsr, mut plsr) = (DLsr::new(), PLsr::new());
        let mut selected = 0;
        for warm in [true, false] {
            for req in &reqs {
                for scheme in [&mut dlsr as &mut dyn RoutingScheme, &mut plsr] {
                    let (pair, n) = counted(|| scheme.select_routes(&view, req));
                    let Ok(pair) = pair else { continue };
                    let want = pair_allocs(&pair);
                    assert!(
                        warm || n == want,
                        "{} {req:?} on {nodes} nodes: {n}",
                        scheme.name()
                    );
                    selected += 1;
                }
            }
            for (req, primary) in &live {
                let (backup, n) = counted(|| dlsr.select_backup(&view, req, primary));
                let want = if backup.is_ok() { 2 } else { 0 };
                assert!(
                    warm || n == want,
                    "backup for {} on {nodes} nodes: {n}",
                    req.id
                );
            }
        }
        assert!(
            selected > 40,
            "only {selected} selections succeeded on {nodes} nodes"
        );
    }
}

/// A flood runs in the thread's flood workspace (copy arena, distance
/// column, pending-connection and candidate tables), so a warmed bounded
/// flooding selection builds its chosen routes and nothing else.
#[test]
fn bf_selections_allocate_only_their_routes() {
    for (nodes, requests, seed) in [(60, 400, 10), (300, 600, 11)] {
        let mgr = loaded(nodes, requests, seed);
        let view = mgr.view();
        let (reqs, live) = selection_calls(&mgr, nodes, seed);
        let mut bf = BoundedFlooding::new();
        let (mut selected, mut protected) = (0, 0);
        for warm in [true, false] {
            for req in &reqs {
                let (pair, n) = counted(|| bf.select_routes(&view, req));
                let want = pair.as_ref().map_or(0, pair_allocs);
                assert!(warm || n == want, "BF {req:?} on {nodes} nodes: {n}");
                selected += u32::from(pair.is_ok());
            }
            for (req, primary) in &live {
                let (backup, n) = counted(|| bf.select_backup(&view, req, primary));
                let want = if backup.is_ok() { 2 } else { 0 };
                assert!(
                    warm || n == want,
                    "BF backup for {} on {nodes} nodes: {n}",
                    req.id
                );
                protected += u32::from(backup.is_ok());
            }
        }
        assert!(
            selected > 40 && protected > 40,
            "only {selected} selections and {protected} backups succeeded on {nodes} nodes"
        );
    }
}

#[test]
fn dynamic_spt_repairs_allocate_nothing_once_warm() {
    let net = waxman(300, 3);
    // The tree takes whole-number `f64` steps.
    let cost = |l| cost(l).map(|c| c as f64);
    let mut spt = DynamicSpt::build(&net, NodeId::new(0), cost);
    let tree: Vec<LinkId> = net
        .nodes()
        .filter_map(|v| spt.parent(v))
        .take(100)
        .collect();
    let mut failed = vec![false; net.num_links()];
    // A fail and a restore per tree link: 200 repairs, ending where they began.
    let mut repairs = |spt: &mut DynamicSpt| {
        for (&l, down) in tree.iter().flat_map(|l| [(l, true), (l, false)]) {
            failed[l.index()] = down;
            spt.update_links(
                &net,
                &[l],
                |e| if failed[e.index()] { None } else { cost(e) },
            );
        }
    };
    repairs(&mut spt);
    assert_eq!(counted(|| repairs(&mut spt)).1, 0);
}

#[test]
fn probes_allocate_only_their_outcome() {
    for (nodes, requests, seed) in [(60, 400, 4), (300, 600, 5)] {
        let mgr = loaded(nodes, requests, seed);
        let mut rng = drt_sim::rng::stream(seed, "probe");
        let mut affected = 0;
        // The first pass warms this thread's probe workspace.
        for warm in [true, false] {
            for link in mgr.net().links().map(|l| l.id()) {
                let (out, n) = counted(|| mgr.probe_single_failure(link, &mut rng));
                // `failed_links`, plus `details` when a primary is hit.
                let want = 1 + u64::from(out.affected() > 0);
                assert!(warm || n == want, "probe of {link} on {nodes} nodes: {n}");
                affected += out.affected();
            }
        }
        assert!(affected > 0, "no probe on {nodes} nodes reached a primary");
    }
}

#[test]
fn sweeps_allocate_only_their_report_on_any_thread() {
    for (nodes, requests, seed) in [(60, 400, 6), (300, 600, 7)] {
        let mut mgr = loaded(nodes, requests, seed);
        // Connections without a backup die with every link of their
        // primary, so the per-connection view grows as well.
        for i in 0..20 {
            let (src, dst) = (NodeId::new(i), NodeId::new(i + 20));
            let id = ConnectionId::new(requests + u64::from(i));
            let req = RouteRequest::new(id, src, dst, Bandwidth::from_kbps(3_000));
            let _ = mgr.request_connection(&mut PrimaryOnly::new(), req);
        }
        // Every item warms its thread's probe scratch, then counts a second
        // sweep: inline here, then on two workers that start cold.
        let warmed = |seed: u64| {
            mgr.sweep_single_failures(seed);
            counted(|| mgr.sweep_single_failures(seed))
        };
        let mut counts = vec![warmed(seed)];
        counts.extend(parallel_map(2, vec![seed + 1, seed + 2, seed + 3], warmed));
        for (sweep, n) in counts {
            let lens = (sweep.per_link.len(), sweep.per_conn.len());
            assert!(lens.0 > 0, "the sweep on {nodes} nodes probed nothing");
            assert!(lens.1 > 0, "the sweep on {nodes} nodes killed nothing");
            assert_eq!(
                n,
                report_allocations(&sweep),
                "allocations for {lens:?} entries"
            );
        }
    }
}
