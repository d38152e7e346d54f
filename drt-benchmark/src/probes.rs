//! Unit probes of the traced run: single functions of `net`, `sim` and
//! `experiments` timed on their own, outside any pass. They say what a
//! layer's primitive costs on this host, next to what the workload's
//! spans say the layer cost in situ.

use crate::clock;
use drt_experiments::campaign::{run_campaign, CampaignConfig};
use drt_experiments::config::ExperimentConfig;
use drt_experiments::runner::{self, SchemeKind};
use drt_net::algo::{shortest_path_tree, DynamicSpt};
use drt_net::NodeId;
use drt_sim::workload::TrafficPattern;
use drt_sim::{EventQueue, SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;

/// Everything the probes measure; zero where not run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    pub net_rss_mb: f64,
    pub spt_ns: f64,
    pub spt_repair_ns: f64,
    pub queue_push_pop_ns: f64,
    pub replay_s: f64,
    pub campaign_cell_s: f64,
    pub jobs_speedup: f64,
}

/// Median over `samples` batches of the per-call time of `op`.
fn median_ns(samples: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = clock::now();
            for _ in 0..batch {
                op();
            }
            clock::ns_since(t0) as f64 / batch as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn seconds(op: impl FnOnce()) -> f64 {
    let t0 = clock::now();
    op();
    clock::ns_since(t0) as f64 / 1e9
}

impl Probes {
    /// `net`: resident memory the topology adds, one shortest-path tree
    /// from rotating sources, one dynamic-tree repair. Run before the first pass, while the heap is
    /// fresh, on a topology of the workload's size.
    pub fn net(&mut self, nodes: usize) {
        let cfg = ExperimentConfig {
            nodes,
            ..ExperimentConfig::paper(3.0)
        };
        let rss_before = clock::status_mb("VmRSS");
        let net = cfg.build_network().expect("feasible topology");
        self.net_rss_mb = (clock::status_mb("VmRSS") - rss_before).max(0.0);

        let batch = (6_000 / nodes).max(2);
        let mut src = 0u32;
        self.spt_ns = median_ns(15, batch, || {
            src = (src + 1) % nodes as u32;
            let tree = shortest_path_tree(&net, NodeId::new(src), |_| Some(1.0));
            black_box(tree.distance(NodeId::new(0)));
        });

        // Each tree link in turn fails on one call and comes back on the
        // next, so the median averages tear-down and reattach over
        // subtrees of every size.
        let mut alive = vec![true; net.num_links()];
        let mut spt = DynamicSpt::build(&net, NodeId::new(0), |_| Some(1.0));
        let tree_links: Vec<_> = (1..nodes as u32)
            .filter_map(|n| spt.parent(NodeId::new(n)))
            .collect();
        let mut flips = 0;
        self.spt_repair_ns = median_ns(15, 2 * tree_links.len(), || {
            let link = tree_links[(flips / 2) % tree_links.len()];
            flips += 1;
            alive[link.index()] = !alive[link.index()];
            black_box(spt.update_links(&net, &[link], |l| alive[l.index()].then_some(1.0)));
        });
    }

    /// `sim`: one pop and one push on an event queue held at the depth
    /// `signal60` reaches during a restart resync.
    pub fn sim(&mut self) {
        const DEPTH: u64 = 64;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..DEPTH {
            q.push(SimTime::from_micros(i * 37 % 1_000), i);
        }
        self.queue_push_pop_ns = median_ns(15, 20_000, || {
            let (at, ev) = q.pop().expect("queue held at depth");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(at + SimDuration::from_micros(1 + x % 2_000), ev);
        });
    }

    /// `experiments`: the library's own drivers over the calls the
    /// workloads make themselves — one scenario replay, one campaign cell
    /// at 10 % loss, and the scheme matrix serial against one worker per
    /// CPU.
    pub fn experiments(&mut self, smoke: bool) {
        let mut cfg = if smoke {
            ExperimentConfig::quick(3.0)
        } else {
            ExperimentConfig::paper(3.0)
        };
        if smoke {
            cfg.nodes = 20;
            cfg.duration = SimDuration::from_minutes(50);
            cfg.warmup = SimDuration::from_minutes(25);
        }
        let net = Arc::new(cfg.build_network().expect("feasible topology"));
        let scenario = cfg
            .scenario_config(0.4, TrafficPattern::ut())
            .generate(cfg.nodes);
        self.replay_s = seconds(|| {
            black_box(runner::replay(&net, &scenario, SchemeKind::DLsr, &cfg).admitted);
        });

        let ccfg = CampaignConfig {
            loss_rates: vec![0.10],
            connections: if smoke { 20 } else { 100 },
            ..CampaignConfig::default()
        };
        self.campaign_cell_s = seconds(|| {
            black_box(run_campaign(&cfg, &ccfg).len());
        });

        let quick = ExperimentConfig {
            nodes: cfg.nodes,
            ..ExperimentConfig::quick(3.0)
        };
        let matrix = |jobs| {
            seconds(|| {
                let rows = runner::run_matrix_jobs(
                    &quick,
                    &[0.3, 0.5],
                    &[SchemeKind::DLsr, SchemeKind::PLsr],
                    &[("UT", TrafficPattern::ut())],
                    jobs,
                );
                black_box(rows.len());
            })
        };
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.jobs_speedup = matrix(1) / matrix(cpus).max(1e-9);
    }
}
