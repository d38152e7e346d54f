//! What a workload reports into: pass timing, the latency of each of its
//! primary operations, and — on traced passes — a span around every call
//! into a layer.
//!
//! Spans are recorded from outside the layers, in the benchmark's own
//! files: `pass` (or `setup`) → operation → call. A span's *self* time is
//! its duration minus the part its children cover; a call's self time is
//! charged to its layer, what is left of operations and passes to the
//! driver. End-to-end numbers come from untraced passes only.

use crate::clock;
use crate::hist::Hist;
use std::io::Write;
use std::time::Instant;

/// The layers of the repository, by crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own driver code.
    Bench,
    /// `drt-net`.
    Net,
    /// `drt-sim`.
    Sim,
    /// `drt-core`.
    Core,
    /// `drt-proto`.
    Proto,
}

const LAYERS: usize = 5;

impl Layer {
    fn name(self) -> &'static str {
        ["bench", "net", "sim", "core", "proto"][self as usize]
    }
}

/// A traced call site: one public function of one layer (for `proto`, the
/// driver call together with stepping the simulation to quiescence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    TopoBuild,
    HopsBuild,
    ScenarioGen,
    ManagerBuild,
    RequestDlsr,
    RequestPlsr,
    RequestBf,
    Release,
    Inject,
    Reprotect,
    Repair,
    Sweep,
    Vuln,
    ProbeEvent,
    Establish,
    Switchover,
    Retire,
    AddBackup,
    Restart,
    JournalReplay,
}

impl Site {
    /// Every site, in declaration order.
    pub const ALL: [Site; 20] = [
        Site::TopoBuild,
        Site::HopsBuild,
        Site::ScenarioGen,
        Site::ManagerBuild,
        Site::RequestDlsr,
        Site::RequestPlsr,
        Site::RequestBf,
        Site::Release,
        Site::Inject,
        Site::Reprotect,
        Site::Repair,
        Site::Sweep,
        Site::Vuln,
        Site::ProbeEvent,
        Site::Establish,
        Site::Switchover,
        Site::Retire,
        Site::AddBackup,
        Site::Restart,
        Site::JournalReplay,
    ];

    /// `<layer>.<function>`, the span name and the stem of the site's
    /// per-layer metrics.
    pub fn name(self) -> &'static str {
        match self {
            Site::TopoBuild => "net.topo_build",
            Site::HopsBuild => "net.hops_build",
            Site::ScenarioGen => "sim.scenario_gen",
            Site::ManagerBuild => "core.manager_build",
            Site::RequestDlsr => "core.request_dlsr",
            Site::RequestPlsr => "core.request_plsr",
            Site::RequestBf => "core.request_bf",
            Site::Release => "core.release",
            Site::Inject => "core.inject",
            Site::Reprotect => "core.reprotect",
            Site::Repair => "core.repair",
            Site::Sweep => "core.sweep",
            Site::Vuln => "core.vuln",
            Site::ProbeEvent => "core.probe_event",
            Site::Establish => "proto.establish",
            Site::Switchover => "proto.switchover",
            Site::Retire => "proto.retire",
            Site::AddBackup => "proto.add_backup",
            Site::Restart => "proto.restart",
            Site::JournalReplay => "proto.journal_replay",
        }
    }

    fn layer(self) -> Layer {
        match self.name().split('.').next() {
            Some("net") => Layer::Net,
            Some("sim") => Layer::Sim,
            Some("core") => Layer::Core,
            _ => Layer::Proto,
        }
    }
}

/// One closed span, as written to the trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique in the run, from 1.
    pub id: u32,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u32,
    /// Id of the enclosing operation span (the span's own id for an
    /// operation); 0 outside any operation.
    pub op: u32,
    /// `pass`, `setup`, the operation's name, or the site's name.
    pub name: &'static str,
    /// Layer charged with the span's self time.
    pub layer: Layer,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began.
    pub end_ns: u64,
}

/// Calls, summed span time and per-call latency of one site.
#[derive(Default, Clone)]
pub struct SiteStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub hist: Hist,
}

struct Open {
    id: u32,
    name: &'static str,
    layer: Layer,
    site: Option<Site>,
    is_op: bool,
    start_ns: u64,
    child_ns: u64,
}

/// Span bookkeeping of the traced passes. Timestamps are passed in, so
/// the self-time arithmetic is testable without a clock.
pub struct Trace {
    stack: Vec<Open>,
    next_id: u32,
    cur_op: u32,
    /// Self time per layer, spans under a `pass` root only.
    pub self_ns: [u64; LAYERS],
    /// Summed duration of the `pass` roots.
    pub pass_ns: u64,
    in_pass: bool,
    pub sites: Vec<SiteStats>,
    /// The first spans of the run, up to the buffer's capacity.
    pub spans: Vec<Span>,
    /// Spans closed after the buffer filled.
    pub dropped: u64,
}

impl Trace {
    /// `span_capacity` spans are preallocated; later ones are counted in
    /// `dropped` and still enter every aggregate.
    pub fn new(span_capacity: usize) -> Self {
        Trace {
            stack: Vec::with_capacity(8),
            next_id: 1,
            cur_op: 0,
            self_ns: [0; LAYERS],
            pass_ns: 0,
            in_pass: false,
            sites: vec![SiteStats::default(); Site::ALL.len()],
            spans: Vec::with_capacity(span_capacity),
            dropped: 0,
        }
    }

    fn open_at(
        &mut self,
        ts: u64,
        name: &'static str,
        layer: Layer,
        site: Option<Site>,
        is_op: bool,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        if self.stack.is_empty() {
            self.in_pass = name == "pass";
        }
        if is_op {
            self.cur_op = id;
        }
        self.stack.push(Open {
            id,
            name,
            layer,
            site,
            is_op,
            start_ns: ts,
            child_ns: 0,
        });
    }

    fn close_at(&mut self, ts: u64) {
        let o = self.stack.pop().expect("close without open");
        let dur = ts - o.start_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        if self.in_pass {
            self.self_ns[o.layer as usize] += dur - o.child_ns;
            if parent == 0 {
                self.pass_ns += dur;
            }
        }
        if let Some(site) = o.site {
            let s = &mut self.sites[site as usize];
            s.calls += 1;
            s.busy_ns += dur;
            s.hist.record(dur);
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                id: o.id,
                parent,
                op: self.cur_op,
                name: o.name,
                layer: o.layer,
                start_ns: o.start_ns,
                end_ns: ts,
            });
        } else {
            self.dropped += 1;
        }
        if o.is_op {
            self.cur_op = 0;
        }
    }

    /// Writes the buffered spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.op, s.name, s.layer.name(), s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// What one pass measured.
#[derive(Debug, Clone, Copy)]
pub struct PassSample {
    /// Whether spans were on.
    pub traced: bool,
    /// Set-up seconds of the pass.
    pub setup_s: f64,
    /// Operations ÷ seconds of the timed regions.
    pub ops_per_s: f64,
}

/// The measuring instrument handed to every workload.
pub struct Meter {
    epoch: Instant,
    /// Spans on for the current pass.
    tracing: bool,
    /// Per primary operation of a pass, in issue order: its least latency
    /// over the untraced passes so far, nanoseconds. Sized by the first
    /// pass; every pass replays the same operations.
    best_ns: Vec<u32>,
    /// Primary operations issued in the current pass.
    primary: usize,
    ops: u64,
    timed_ns: u64,
    setup_ns: u64,
    /// One entry per finished pass.
    pub samples: Vec<PassSample>,
    /// Present on a traced run.
    pub trace: Option<Trace>,
}

impl Meter {
    /// A meter for an untraced run (`span_capacity` `None`) or a traced
    /// one.
    pub fn new(span_capacity: Option<usize>) -> Self {
        Meter {
            epoch: clock::now(),
            tracing: false,
            best_ns: Vec::new(),
            primary: 0,
            ops: 0,
            timed_ns: 0,
            setup_ns: 0,
            samples: Vec::new(),
            trace: span_capacity.map(Trace::new),
        }
    }

    /// Turns spans on or off for the next pass. No effect on an untraced
    /// run.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on && self.trace.is_some();
    }

    /// Nanoseconds since the run began.
    pub fn elapsed_ns(&self) -> u64 {
        clock::ns_since(self.epoch)
    }

    fn span<R>(
        &mut self,
        name: &'static str,
        layer: Layer,
        site: Option<Site>,
        is_op: bool,
        f: impl FnOnce(&mut Meter) -> R,
    ) -> R {
        if !self.tracing {
            return f(self);
        }
        let ts = self.elapsed_ns();
        if let Some(t) = self.trace.as_mut() {
            t.open_at(ts, name, layer, site, is_op);
        }
        let r = f(self);
        let ts = self.elapsed_ns();
        if let Some(t) = self.trace.as_mut() {
            t.close_at(ts);
        }
        r
    }

    /// Runs a set-up region; its wall time adds to the pass's `setup_s`.
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut Meter) -> R) -> R {
        let t0 = clock::now();
        let r = self.span("setup", Layer::Bench, None, false, f);
        self.setup_ns += clock::ns_since(t0);
        r
    }

    /// Runs a measured region; its wall time and operations add to the
    /// pass's `ops_per_s`.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Meter) -> R) -> R {
        let t0 = clock::now();
        let r = self.span("pass", Layer::Bench, None, false, f);
        self.timed_ns += clock::ns_since(t0);
        r
    }

    /// Runs one primary operation: counted, and on an untraced pass its
    /// latency kept if it is the operation's best so far.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Meter) -> R) -> R {
        let t0 = clock::now();
        let r = self.span(name, Layer::Bench, None, true, f);
        let ns = u32::try_from(clock::ns_since(t0)).unwrap_or(u32::MAX);
        if !self.tracing {
            match self.best_ns.get_mut(self.primary) {
                Some(best) => *best = (*best).min(ns),
                None => self.best_ns.push(ns),
            }
        }
        self.primary += 1;
        self.ops += 1;
        r
    }

    /// The `q`-quantile (nearest rank) over the primary operations of a
    /// pass, each at its least latency over the untraced passes,
    /// microseconds. The passes replay one sequence of operations, so an
    /// operation's latencies differ only by what the host added — a timer
    /// tick, a preemption, a cold cache — and the least is the one the
    /// program is answerable for. Taken per pass instead, the p99 of a
    /// millisecond operation is the height of the host's interruptions.
    pub fn latency_us(&self, q: f64) -> f64 {
        let mut v = self.best_ns.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        f64::from(v[rank - 1]) / 1e3
    }

    /// Runs one operation that counts into `ops_per_s` but whose latency
    /// is not the workload's headline.
    pub fn side_op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Meter) -> R) -> R {
        self.ops += 1;
        self.span(name, Layer::Bench, None, true, f)
    }

    /// Runs one call into a layer.
    #[inline]
    pub fn call<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        self.span(site.name(), site.layer(), Some(site), false, |_| f())
    }

    /// Closes the pass: turns what was accumulated into a sample and
    /// resets for the next pass.
    pub fn end_pass(&mut self) {
        self.samples.push(PassSample {
            traced: self.tracing,
            setup_s: self.setup_ns as f64 / 1e9,
            ops_per_s: self.ops as f64 / (self.timed_ns.max(1) as f64 / 1e9),
        });
        self.abort_pass();
    }

    /// Discards the current pass (after a panic inside it).
    pub fn abort_pass(&mut self) {
        self.primary = 0;
        self.ops = 0;
        self.timed_ns = 0;
        self.setup_ns = 0;
        if let Some(t) = self.trace.as_mut() {
            t.stack.clear();
            t.cur_op = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// pass[0,100] ⊃ op[10,60] ⊃ {request[15,35], release[40,50]};
    /// then a setup root that must not count into the pass shares.
    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Trace::new(16);
        t.open_at(0, "pass", Layer::Bench, None, false);
        t.open_at(10, "event", Layer::Bench, None, true);
        t.open_at(
            15,
            Site::RequestDlsr.name(),
            Layer::Core,
            Some(Site::RequestDlsr),
            false,
        );
        t.close_at(35);
        t.open_at(
            40,
            Site::Establish.name(),
            Layer::Proto,
            Some(Site::Establish),
            false,
        );
        t.close_at(50);
        t.close_at(60);
        t.close_at(100);
        t.open_at(100, "setup", Layer::Bench, None, false);
        t.open_at(
            110,
            Site::TopoBuild.name(),
            Layer::Net,
            Some(Site::TopoBuild),
            false,
        );
        t.close_at(150);
        t.close_at(160);

        assert_eq!(t.pass_ns, 100);
        assert_eq!(t.self_ns[Layer::Core as usize], 20);
        assert_eq!(t.self_ns[Layer::Proto as usize], 10);
        // Driver: pass 100 − op 50, plus op 50 − calls 30.
        assert_eq!(t.self_ns[Layer::Bench as usize], 70);
        assert_eq!(t.self_ns[Layer::Net as usize], 0, "set-up is not pass time");
        assert_eq!(t.self_ns.iter().sum::<u64>(), t.pass_ns);
        let topo = &t.sites[Site::TopoBuild as usize];
        assert_eq!((topo.calls, topo.busy_ns), (1, 40));

        // Ids in open order; parents and the shared op id as nested.
        let by_name = |n: &str| t.spans.iter().find(|s| s.name == n).unwrap().clone();
        let (pass, op, req) = (
            by_name("pass"),
            by_name("event"),
            by_name("core.request_dlsr"),
        );
        assert_eq!((pass.id, pass.parent, pass.op), (1, 0, 0));
        assert_eq!((op.id, op.parent, op.op), (2, 1, 2));
        assert_eq!(
            (req.parent, req.op, req.start_ns, req.end_ns),
            (2, 2, 15, 35)
        );
        assert_eq!(by_name("net.topo_build").op, 0);
    }

    #[test]
    fn full_buffer_drops_spans_but_keeps_aggregates() {
        let mut t = Trace::new(1);
        t.open_at(0, "pass", Layer::Bench, None, false);
        for i in 0..3 {
            t.open_at(
                i * 10,
                Site::Release.name(),
                Layer::Core,
                Some(Site::Release),
                false,
            );
            t.close_at(i * 10 + 5);
        }
        t.close_at(40);
        assert_eq!((t.spans.len(), t.dropped), (1, 3));
        assert_eq!(t.sites[Site::Release as usize].calls, 3);
        assert_eq!(t.self_ns[Layer::Core as usize], 15);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\": \"core.release\", \"layer\": \"core\""));
    }

    #[test]
    fn untraced_meter_counts_ops_and_latency_only() {
        let mut m = Meter::new(None);
        m.set_tracing(true); // ignored: no trace buffer
        m.setup(|_| ());
        m.timed(|m| {
            for _ in 0..10 {
                m.op("x", |m| m.call(Site::Release, || std::hint::black_box(1)));
            }
            m.side_op("y", |_| ());
        });
        m.end_pass();
        let s = m.samples[0];
        assert!(!s.traced && s.ops_per_s > 0.0);
        assert!(m.latency_us(0.5) > 0.0 && m.latency_us(0.99) >= m.latency_us(0.5));
        assert!(m.trace.is_none());
    }

    #[test]
    fn an_operation_keeps_its_best_latency_over_untraced_passes() {
        let mut m = Meter::new(Some(16));
        let spin = |ns: u64| {
            let t0 = clock::now();
            while clock::ns_since(t0) < ns {}
        };
        // Pass 0: second operation slow. Pass 1, traced: ignored. Pass 2:
        // first operation slow.
        for (traced, slow) in [(false, 1), (true, 0), (false, 0)] {
            m.set_tracing(traced);
            m.timed(|m| {
                for i in 0..2 {
                    m.op("x", |_| {
                        spin(if i == slow || traced {
                            3_000_000
                        } else {
                            1_000
                        })
                    });
                }
            });
            m.end_pass();
        }
        assert_eq!(m.best_ns.len(), 2);
        assert!(m.latency_us(1.0) < 3_000.0, "each operation was fast once");
        assert_eq!(m.samples.iter().filter(|s| s.traced).count(), 1);
    }

    #[test]
    fn site_names_are_unique_and_prefixed_by_their_layer() {
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert!(s.name().starts_with(s.layer().name()));
            assert!(Site::ALL.iter().filter(|o| o.name() == s.name()).count() == 1);
        }
    }
}
