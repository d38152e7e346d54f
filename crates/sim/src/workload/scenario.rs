//! Replayable scenario files.
//!
//! Section 6.1: "we use scenario files to record the connection request and
//! release events under various bw_req and λ values, and compare the
//! performance of the proposed schemes by simulating them using the same
//! scenario file." A [`Scenario`] is exactly that artifact: a reproducible,
//! serialisable list of [`ConnectionRequest`]s that every routing scheme
//! replays identically.

use crate::process::{PoissonProcess, UniformDuration};
use crate::workload::TrafficPattern;
use crate::{rng, SimDuration, SimTime};
use drt_net::{Bandwidth, LinkId, NodeId};
use std::fmt;
use std::str::FromStr;

/// Identifier of one DR-connection request within a scenario
/// (the paper's `conn-id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Creates a request id from its dense index.
    pub const fn new(index: u64) -> Self {
        RequestId(index)
    }

    /// Returns the dense index as a `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// One DR-connection request: who talks to whom, and when the connection
/// arrives and departs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionRequest {
    /// The request's identifier (dense within its scenario).
    pub id: RequestId,
    /// Source (server) node.
    pub src: NodeId,
    /// Destination (client) node.
    pub dst: NodeId,
    /// When the connection is requested.
    pub arrival: SimTime,
    /// When the connection terminates and releases its resources.
    pub departure: SimTime,
}

impl ConnectionRequest {
    /// The connection's lifetime (`t_req`).
    pub fn lifetime(&self) -> SimDuration {
        self.departure - self.arrival
    }
}

/// A timeline entry produced by [`Scenario::timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineEvent {
    /// A previously failed link comes back up.
    LinkRepair(LinkId),
    /// A link fails (the scenario's failure process, if configured).
    LinkFail(LinkId),
    /// The request arrives and should be admitted (or rejected).
    Arrive(RequestId),
    /// The connection (if admitted) terminates and releases resources.
    Depart(RequestId),
}

/// A dynamic link failure/repair process to record into a scenario.
///
/// Failures arrive network-wide as a Poisson process; each picks a
/// currently-up link uniformly at random and schedules its repair after an
/// exponential time-to-repair. This extends the paper's *static*
/// single-failure analysis (Figure 4's estimator) to a *dynamic* regime
/// where DRTP's recovery and reconfiguration actually run — the two must
/// agree (see the `availability` regime of `drt-experiments::regimes`).
#[derive(Debug, Clone, Copy)]
pub struct FailureProcess {
    /// Network-wide link-failure rate, per hour.
    pub failures_per_hour: f64,
    /// Mean time to repair (exponentially distributed).
    pub mttr: SimDuration,
}

/// Parameters for scenario generation (the tunables of the paper's
/// Table 1).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Network-wide DR-connection request arrival rate, per second.
    pub arrival_rate: f64,
    /// Length of the generated request stream.
    pub duration: SimDuration,
    /// Connection lifetime distribution (`t_req`).
    pub lifetime: UniformDuration,
    /// Source/destination sampling pattern.
    pub pattern: TrafficPattern,
    /// Constant per-connection bandwidth (`bw_req`).
    pub bw_req: Bandwidth,
    /// Master seed for all random streams.
    pub seed: u64,
    /// Optional dynamic failure/repair process to record.
    pub failures: Option<FailureProcess>,
}

impl ScenarioConfig {
    /// A configuration with the paper's Table-1 constants (3 Mb/s
    /// connections living 20–60 minutes under UT traffic) at the given
    /// arrival rate; adjust fields as needed.
    pub fn paper_defaults(arrival_rate: f64) -> Self {
        ScenarioConfig {
            arrival_rate,
            duration: SimDuration::from_hours(4),
            lifetime: UniformDuration::new(
                SimDuration::from_minutes(20),
                SimDuration::from_minutes(60),
            ),
            pattern: TrafficPattern::ut(),
            bw_req: Bandwidth::from_kbps(3_000),
            seed: 0,
            failures: None,
        }
    }

    /// Generates the scenario for a network of `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics when `num_nodes < 2` (no source/destination pair exists) or
    /// when a [`FailureProcess`] is configured (link ids require the link
    /// count — use [`ScenarioConfig::generate_with_links`]).
    pub fn generate(&self, num_nodes: usize) -> Scenario {
        assert!(
            self.failures.is_none(),
            "failure processes need the link count; use generate_with_links"
        );
        self.generate_with_links(num_nodes, 0)
    }

    /// Generates the scenario, including the failure process over
    /// `num_links` unidirectional links.
    ///
    /// # Panics
    ///
    /// Panics when `num_nodes < 2`, or when a failure process is
    /// configured with `num_links == 0`.
    pub fn generate_with_links(&self, num_nodes: usize, num_links: usize) -> Scenario {
        let mut arrivals =
            PoissonProcess::new(self.arrival_rate, rng::stream(self.seed, "arrivals"));
        let mut lifetime_rng = rng::stream(self.seed, "lifetimes");
        let mut pair_rng = rng::stream(self.seed, "pairs");
        let mut lifetime = self.lifetime;

        let mut requests = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t += arrivals.next_interarrival();
            if t.saturating_since(SimTime::ZERO) >= self.duration {
                break;
            }
            let (src, dst) = self.pattern.sample_pair(num_nodes, &mut pair_rng);
            let life = lifetime.sample(&mut lifetime_rng);
            requests.push(ConnectionRequest {
                id: RequestId::new(requests.len() as u64),
                src,
                dst,
                arrival: t,
                departure: t + life,
            });
        }
        // Record the failure/repair process, if configured.
        let mut failures = Vec::new();
        let mut repairs = Vec::new();
        if let Some(fp) = self.failures {
            assert!(num_links > 0, "failure process needs links");
            assert!(fp.failures_per_hour > 0.0, "failure rate must be positive");
            let mut fail_arrivals = PoissonProcess::new(
                fp.failures_per_hour / 3600.0,
                rng::stream(self.seed, "link-failures"),
            );
            let mut pick_rng = rng::stream(self.seed, "link-pick");
            let mut mttr_rng = rng::stream(self.seed, "link-repair");
            // (repair_time, link) for currently-down links.
            let mut down: Vec<(SimTime, u32)> = Vec::new();
            let mut t = SimTime::ZERO;
            loop {
                t += fail_arrivals.next_interarrival();
                if t.saturating_since(SimTime::ZERO) >= self.duration {
                    break;
                }
                down.retain(|&(repair_at, link)| {
                    if repair_at <= t {
                        repairs.push((repair_at, link));
                        false
                    } else {
                        true
                    }
                });
                if down.len() >= num_links {
                    continue; // everything is down; skip this failure
                }
                // Uniform pick among up links.
                let link = loop {
                    let cand = rand::Rng::gen_range(&mut pick_rng, 0..num_links as u32);
                    if !down.iter().any(|&(_, l)| l == cand) {
                        break cand;
                    }
                };
                failures.push((t, link));
                let u: f64 = rand::Rng::gen(&mut mttr_rng);
                let ttr = SimDuration::from_secs_f64(-(1.0 - u).ln() * fp.mttr.as_secs_f64());
                down.push((t + ttr, link));
            }
            // Repair everything still down (possibly after the horizon).
            for (repair_at, link) in down {
                repairs.push((repair_at, link));
            }
            repairs.sort();
        }
        Scenario {
            arrival_rate: self.arrival_rate,
            bw_req: self.bw_req,
            duration: self.duration,
            pattern_label: self.pattern.label().to_string(),
            seed: self.seed,
            requests,
            failures,
            repairs,
        }
    }
}

/// A generated, replayable stream of DR-connection requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    arrival_rate: f64,
    bw_req: Bandwidth,
    duration: SimDuration,
    pattern_label: String,
    seed: u64,
    requests: Vec<ConnectionRequest>,
    /// Recorded link-failure instants.
    failures: Vec<(SimTime, u32)>,
    /// Recorded link-repair instants.
    repairs: Vec<(SimTime, u32)>,
}

impl Scenario {
    /// The arrival rate the scenario was generated with (λ, per second).
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// The constant per-connection bandwidth (`bw_req`).
    pub fn bw_req(&self) -> Bandwidth {
        self.bw_req
    }

    /// The generation horizon.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// "UT" or "NT".
    pub fn pattern_label(&self) -> &str {
        &self.pattern_label
    }

    /// The master seed the scenario was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All requests in arrival order.
    pub fn requests(&self) -> &[ConnectionRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` when the scenario contains no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Looks up a request by id.
    pub fn request(&self, id: RequestId) -> Option<&ConnectionRequest> {
        self.requests.get(id.index())
    }

    /// The interleaved event timeline, sorted by time. At equal instants
    /// the order is repairs, failures, arrivals, departures: a repair
    /// benefits a simultaneous arrival, a failure hits it, and departures
    /// free resources only for strictly later arrivals (the conservative
    /// choice).
    pub fn timeline(&self) -> Vec<(SimTime, TimelineEvent)> {
        let mut events =
            Vec::with_capacity(self.requests.len() * 2 + self.failures.len() + self.repairs.len());
        for r in &self.requests {
            events.push((r.arrival, TimelineEvent::Arrive(r.id)));
            events.push((r.departure, TimelineEvent::Depart(r.id)));
        }
        for &(t, l) in &self.failures {
            events.push((t, TimelineEvent::LinkFail(LinkId::new(l))));
        }
        for &(t, l) in &self.repairs {
            events.push((t, TimelineEvent::LinkRepair(LinkId::new(l))));
        }
        events.sort_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| {
                let rank = |e: &TimelineEvent| match e {
                    TimelineEvent::LinkRepair(_) => 0,
                    TimelineEvent::LinkFail(_) => 1,
                    TimelineEvent::Arrive(_) => 2,
                    TimelineEvent::Depart(_) => 3,
                };
                rank(&a.1).cmp(&rank(&b.1))
            })
        });
        events
    }

    /// The recorded link failures as `(instant, link)` pairs.
    pub fn failures(&self) -> impl Iterator<Item = (SimTime, LinkId)> + '_ {
        self.failures.iter().map(|&(t, l)| (t, LinkId::new(l)))
    }

    /// The recorded link repairs as `(instant, link)` pairs.
    pub fn repairs(&self) -> impl Iterator<Item = (SimTime, LinkId)> + '_ {
        self.repairs.iter().map(|&(t, l)| (t, LinkId::new(l)))
    }

    /// Serialises the scenario to the line-oriented text format (see
    /// [`Scenario::from_text`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# drt-scenario v1\n");
        out.push_str(&format!("lambda {}\n", self.arrival_rate));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("bw_req_kbps {}\n", self.bw_req.kbps()));
        out.push_str(&format!("duration_us {}\n", self.duration.as_micros()));
        out.push_str(&format!("pattern {}\n", self.pattern_label));
        for r in &self.requests {
            out.push_str(&format!(
                "req {} {} {} {} {}\n",
                r.id.index(),
                r.src.index(),
                r.dst.index(),
                r.arrival.as_micros(),
                r.departure.as_micros()
            ));
        }
        for &(t, l) in &self.failures {
            out.push_str(&format!("fail {} {}\n", t.as_micros(), l));
        }
        for &(t, l) in &self.repairs {
            out.push_str(&format!("repair {} {}\n", t.as_micros(), l));
        }
        out
    }

    /// Parses the text format produced by [`Scenario::to_text`]. Request
    /// ids must count up from 0 in line order, as `to_text` writes them.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut arrival_rate = None;
        let mut seed = None;
        let mut bw = None;
        let mut duration = None;
        let mut pattern = None;
        let mut requests = Vec::new();
        let mut failures = Vec::new();
        let mut repairs = Vec::new();

        fn parse<T: FromStr>(tok: Option<&str>, what: &str, line_no: usize) -> Result<T, String> {
            tok.ok_or_else(|| format!("line {line_no}: missing {what}"))?
                .parse::<T>()
                .map_err(|_| format!("line {line_no}: invalid {what}"))
        }

        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tok = line.split_whitespace();
            match tok.next() {
                Some("lambda") => arrival_rate = Some(parse::<f64>(tok.next(), "lambda", line_no)?),
                Some("seed") => seed = Some(parse::<u64>(tok.next(), "seed", line_no)?),
                Some("bw_req_kbps") => {
                    bw = Some(Bandwidth::from_kbps(parse(tok.next(), "bw", line_no)?))
                }
                Some("duration_us") => {
                    duration = Some(SimDuration::from_micros(parse(
                        tok.next(),
                        "duration",
                        line_no,
                    )?))
                }
                Some("pattern") => {
                    pattern = Some(
                        tok.next()
                            .ok_or_else(|| format!("line {line_no}: missing pattern"))?
                            .to_string(),
                    )
                }
                Some("req") => {
                    let id: u64 = parse(tok.next(), "request id", line_no)?;
                    // `request` and the replay timeline index by id.
                    if id != requests.len() as u64 {
                        return Err(format!(
                            "line {line_no}: request id {id} out of order (expected {})",
                            requests.len()
                        ));
                    }
                    let src: u32 = parse(tok.next(), "source", line_no)?;
                    let dst: u32 = parse(tok.next(), "destination", line_no)?;
                    let arrival: u64 = parse(tok.next(), "arrival", line_no)?;
                    let departure: u64 = parse(tok.next(), "departure", line_no)?;
                    if departure < arrival {
                        return Err(format!("line {line_no}: departure precedes arrival"));
                    }
                    if src == dst {
                        return Err(format!("line {line_no}: source equals destination"));
                    }
                    requests.push(ConnectionRequest {
                        id: RequestId::new(id),
                        src: NodeId::new(src),
                        dst: NodeId::new(dst),
                        arrival: SimTime::from_micros(arrival),
                        departure: SimTime::from_micros(departure),
                    });
                }
                Some("fail") => {
                    let t: u64 = parse(tok.next(), "failure time", line_no)?;
                    let l: u32 = parse(tok.next(), "failed link", line_no)?;
                    failures.push((SimTime::from_micros(t), l));
                }
                Some("repair") => {
                    let t: u64 = parse(tok.next(), "repair time", line_no)?;
                    let l: u32 = parse(tok.next(), "repaired link", line_no)?;
                    repairs.push((SimTime::from_micros(t), l));
                }
                Some(other) => return Err(format!("line {line_no}: unknown directive '{other}'")),
                None => unreachable!("empty lines are skipped"),
            }
        }

        Ok(Scenario {
            arrival_rate: arrival_rate.ok_or("missing lambda header")?,
            bw_req: bw.ok_or("missing bw_req_kbps header")?,
            duration: duration.ok_or("missing duration_us header")?,
            pattern_label: pattern.ok_or("missing pattern header")?,
            seed: seed.ok_or("missing seed header")?,
            requests,
            failures,
            repairs,
        })
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario: {} requests over {} (λ={}/s, {}, bw_req={})",
            self.requests.len(),
            self.duration,
            self.arrival_rate,
            self.pattern_label,
            self.bw_req
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::paper_defaults(0.5);
        cfg.duration = SimDuration::from_minutes(30);
        cfg.seed = 42;
        cfg
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = cfg.generate(60);
        let b = cfg.generate(60);
        assert_eq!(a, b);
    }

    #[test]
    fn request_count_tracks_rate() {
        let cfg = small_config();
        let s = cfg.generate(60);
        // 0.5/s over 1800 s ≈ 900 requests.
        assert!((700..1100).contains(&s.len()), "{}", s.len());
        assert_eq!(s.arrival_rate(), 0.5);
        assert_eq!(s.pattern_label(), "UT");
    }

    #[test]
    fn requests_are_ordered_and_well_formed() {
        let s = small_config().generate(60);
        let mut last = SimTime::ZERO;
        for (i, r) in s.requests().iter().enumerate() {
            assert_eq!(r.id.index(), i);
            assert!(r.arrival >= last);
            assert!(r.departure > r.arrival);
            assert_ne!(r.src, r.dst);
            let life = r.lifetime();
            assert!(life >= SimDuration::from_minutes(20));
            assert!(life <= SimDuration::from_minutes(60));
            last = r.arrival;
        }
    }

    #[test]
    fn timeline_is_sorted_with_arrivals_first() {
        let s = small_config().generate(10);
        let tl = s.timeline();
        assert_eq!(tl.len(), s.len() * 2);
        for w in tl.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Every request appears exactly once as arrive and once as depart.
        let mut arrives = vec![0u32; s.len()];
        let mut departs = vec![0u32; s.len()];
        for (_, e) in &tl {
            match e {
                TimelineEvent::Arrive(id) => arrives[id.index()] += 1,
                TimelineEvent::Depart(id) => departs[id.index()] += 1,
                TimelineEvent::LinkFail(_) | TimelineEvent::LinkRepair(_) => {
                    panic!("no failure process configured")
                }
            }
        }
        assert!(arrives.iter().all(|&c| c == 1));
        assert!(departs.iter().all(|&c| c == 1));
    }

    #[test]
    fn text_roundtrip() {
        let s = small_config().generate(60);
        let text = s.to_text();
        let parsed = Scenario::from_text(&text).unwrap();
        assert_eq!(s, parsed);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Scenario::from_text("").is_err()); // missing headers
        let good = small_config().generate(5).to_text();
        assert!(Scenario::from_text(&good.replace("lambda", "lambada")).is_err());
        assert!(Scenario::from_text(&format!("{good}req bad line\n")).is_err());
    }

    #[test]
    fn parse_rejects_inverted_times() {
        let text =
            "lambda 1\nseed 0\nbw_req_kbps 100\nduration_us 10\npattern UT\nreq 0 0 1 50 40\n";
        let err = Scenario::from_text(text).unwrap_err();
        assert!(err.contains("departure precedes arrival"), "{err}");
    }

    #[test]
    fn parse_rejects_request_ids_out_of_line_order() {
        let head = "lambda 1\nseed 0\nbw_req_kbps 100\nduration_us 100\npattern UT\n";
        // A lone request whose id is not 0 would index past the end.
        let err = Scenario::from_text(&format!("{head}req 7 0 1 0 50\n")).unwrap_err();
        assert!(
            err.starts_with("line 6: request id 7 out of order"),
            "{err}"
        );
        // Swapped ids would replay each other's endpoints.
        let err =
            Scenario::from_text(&format!("{head}req 1 2 3 0 50\nreq 0 0 1 10 50\n")).unwrap_err();
        assert!(
            err.starts_with("line 6: request id 1 out of order"),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_self_pair() {
        let text = "lambda 1\nseed 0\nbw_req_kbps 100\nduration_us 10\npattern UT\nreq 0 3 3 1 4\n";
        assert!(Scenario::from_text(text).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = small_config().generate(5);
        let text = format!("# leading comment\n\n{}\n# trailing\n", s.to_text());
        assert_eq!(Scenario::from_text(&text).unwrap(), s);
    }

    #[test]
    fn request_lookup() {
        let s = small_config().generate(20);
        let id = RequestId::new(0);
        assert_eq!(s.request(id).unwrap().id, id);
        assert!(s.request(RequestId::new(1_000_000)).is_none());
        assert!(!s.is_empty());
    }

    #[test]
    fn failure_process_generation_invariants() {
        let mut cfg = small_config();
        cfg.failures = Some(FailureProcess {
            failures_per_hour: 60.0,
            mttr: SimDuration::from_minutes(5),
        });
        let s = cfg.generate_with_links(20, 60);
        let fails: Vec<_> = s.failures().collect();
        let repairs: Vec<_> = s.repairs().collect();
        // 60/hour over 30 minutes ~ 30 failures.
        assert!((15..50).contains(&fails.len()), "{}", fails.len());
        assert_eq!(fails.len(), repairs.len(), "every failure gets repaired");
        // Links in range, failure times within the horizon, repairs after
        // their failures, and no link fails twice while down.
        let mut down: std::collections::BTreeMap<u32, SimTime> = Default::default();
        let mut repair_iter = repairs.clone();
        repair_iter.sort();
        for (t, l) in &fails {
            assert!(l.index() < 60);
            assert!(t.saturating_since(SimTime::ZERO) < cfg.duration);
            let repair = repairs
                .iter()
                .filter(|(rt, rl)| rl == l && *rt >= *t)
                .map(|(rt, _)| *rt)
                .min()
                .expect("matching repair");
            if let Some(prev_up) = down.get(&l.as_u32()) {
                assert!(t >= prev_up, "link failed while already down");
            }
            down.insert(l.as_u32(), repair);
        }
    }

    #[test]
    fn failure_process_text_roundtrip() {
        let mut cfg = small_config();
        cfg.failures = Some(FailureProcess {
            failures_per_hour: 30.0,
            mttr: SimDuration::from_minutes(3),
        });
        let s = cfg.generate_with_links(20, 40);
        assert!(s.failures().count() > 0);
        let parsed = Scenario::from_text(&s.to_text()).unwrap();
        assert_eq!(s, parsed);
    }

    #[test]
    fn timeline_orders_repair_fail_arrive_depart() {
        let text = "lambda 1\nseed 0\nbw_req_kbps 100\nduration_us 100\npattern UT\n\
                    req 0 0 1 50 60\nfail 50 3\nrepair 50 4\n";
        let s = Scenario::from_text(text).unwrap();
        let tl = s.timeline();
        assert_eq!(tl.len(), 4);
        assert!(matches!(tl[0].1, TimelineEvent::LinkRepair(_)));
        assert!(matches!(tl[1].1, TimelineEvent::LinkFail(_)));
        assert!(matches!(tl[2].1, TimelineEvent::Arrive(_)));
        assert!(matches!(tl[3].1, TimelineEvent::Depart(_)));
    }

    #[test]
    #[should_panic(expected = "use generate_with_links")]
    fn generate_rejects_failure_process_without_links() {
        let mut cfg = small_config();
        cfg.failures = Some(FailureProcess {
            failures_per_hour: 1.0,
            mttr: SimDuration::from_minutes(1),
        });
        let _ = cfg.generate(20);
    }

    #[test]
    fn nt_pattern_label_recorded() {
        let mut cfg = small_config();
        let mut r = crate::rng::stream(9, "hotset");
        cfg.pattern = TrafficPattern::nt_paper(60, &mut r);
        let s = cfg.generate(60);
        assert_eq!(s.pattern_label(), "NT");
    }
}
