//! The metric catalogue — names, units, directions, bounds — and how a
//! run's measurements become its values. `BENCHMARK.json` and the README
//! tables are transcribed from `--list`; a test holds them together.

use crate::hist::Hist;
use crate::meter::{Layer, Meter, PassSample, Site, Trace};
use crate::probes::Probes;
use crate::workloads::Counts;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
    pub value: f64,
}

/// `ops_per_s` of the best pass with spans on (`traced`) or off. Every
/// pass runs the same computation on the same input, so passes differ only
/// by what the host did to them, and that is one-sided: preemption, cache
/// pollution and page faults make a pass slower, never faster.
pub fn best_ops_per_s(samples: &[PassSample], traced: bool) -> f64 {
    let rates = samples
        .iter()
        .filter(|s| s.traced == traced)
        .map(|s| s.ops_per_s);
    rates.max_by(f64::total_cmp).unwrap_or(0.0)
}

/// `setup_s` of the untraced pass that set up fastest.
fn best_setup_s(samples: &[PassSample]) -> f64 {
    let times = samples.iter().filter(|s| !s.traced).map(|s| s.setup_s);
    times.min_by(f64::total_cmp).unwrap_or(0.0)
}

/// The end-to-end metrics: what a user of the connection manager sees.
/// `ops_per_s` and `setup_s` are those of the best untraced pass, the
/// latencies are over one pass's operations at their best
/// ([`Meter::latency_us`]), `peak_rss_mb` is the process's high-water mark
/// at exit.
pub fn end_to_end(meter: &Meter, peak_rss_mb: f64) -> Vec<Metric> {
    let samples = &meter.samples;
    let m = |name: &str, unit, better, bound, value| Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        value,
    };
    vec![
        m(
            "ops_per_s",
            "1/s",
            "higher",
            0.20,
            best_ops_per_s(samples, false),
        ),
        m(
            "latency_us_p50",
            "us",
            "lower",
            0.20,
            meter.latency_us(0.50),
        ),
        m(
            "latency_us_p99",
            "us",
            "lower",
            0.25,
            meter.latency_us(0.99),
        ),
        m("setup_s", "s", "lower", 0.25, best_setup_s(samples)),
        m("peak_rss_mb", "MiB", "lower", 0.15, peak_rss_mb),
    ]
}

/// Everything a traced run measured.
pub struct TracedRun<'a> {
    pub trace: &'a Trace,
    pub samples: &'a [PassSample],
    /// Simulated outcomes of one pass (every pass has the same).
    pub counts: Counts,
    pub probes: Probes,
    pub calib_ns: f64,
    pub noisy: bool,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics. Times and calls are per traced pass; latencies
/// are per call over all traced passes; counts are those of one pass.
pub fn per_layer(r: &TracedRun<'_>) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, unit, better, value: f64| {
        out.push(Metric {
            name: name.to_string(),
            unit,
            better,
            bound: None,
            value,
        })
    };
    let passes = r.samples.iter().filter(|s| s.traced).count() as f64;
    let stats = |site: Site| &r.trace.sites[site as usize];
    let busy_s = |site: Site| ratio(stats(site).busy_ns as f64 / 1e9, passes);
    let us = |h: &Hist, q: f64| h.quantile(q) / 1e3;

    for site in Site::ALL {
        let (name, s) = (site.name(), stats(site));
        if matches!(
            site,
            Site::TopoBuild | Site::HopsBuild | Site::ScenarioGen | Site::ManagerBuild
        ) {
            // Set-up sites: seconds per call.
            put(
                &format!("{name}_s"),
                "s",
                "lower",
                ratio(s.busy_ns as f64 / 1e9, s.calls as f64),
            );
        } else {
            put(&format!("{name}_busy_s"), "s", "lower", busy_s(site));
            put(&format!("{name}_us_p50"), "us", "lower", us(&s.hist, 0.50));
        }
    }

    let requests = [Site::RequestDlsr, Site::RequestPlsr, Site::RequestBf];
    let mut pooled = Hist::default();
    for site in requests {
        pooled.merge(&stats(site).hist);
    }
    put(
        "core.request_busy_s",
        "s",
        "lower",
        requests.into_iter().map(busy_s).sum(),
    );
    put(
        "core.request_calls",
        "count",
        "higher",
        ratio(pooled.count() as f64, passes),
    );
    put("core.request_us_p999", "us", "lower", us(&pooled, 0.999));
    put(
        "core.inject_us_p99",
        "us",
        "lower",
        us(&stats(Site::Inject).hist, 0.99),
    );
    put(
        "core.reprotect_calls",
        "count",
        "lower",
        ratio(stats(Site::Reprotect).calls as f64, passes),
    );

    let c = r.counts;
    let count = |v: u64| v as f64;
    put(
        "sim.scenario_events",
        "count",
        "higher",
        count(c.scenario_events),
    );
    put("core.admitted", "count", "higher", count(c.admitted));
    put("core.blocked", "count", "lower", count(c.blocked));
    put("core.switched", "count", "higher", count(c.switched));
    put("core.lost", "count", "lower", count(c.lost));
    put("core.unprotected", "count", "lower", count(c.unprotected));
    put(
        "core.reprotect_failed",
        "count",
        "lower",
        count(c.reprotect_failed),
    );
    put("core.cache_hits", "count", "higher", count(c.cache_hits));
    put("core.cache_misses", "count", "lower", count(c.cache_misses));
    put(
        "core.cache_hit_ratio",
        "ratio",
        "higher",
        ratio(count(c.cache_hits), count(c.cache_hits + c.cache_misses)),
    );
    put(
        "core.cache_invalidations",
        "count",
        "lower",
        count(c.cache_invalidations),
    );
    put(
        "core.probe_trials",
        "count",
        "higher",
        count(c.probe_trials),
    );
    put(
        "core.p_act_bk_ppm",
        "ppm",
        "higher",
        (1e6 * ratio(count(c.probe_activated), count(c.probe_affected))).round(),
    );

    let proto_busy_ns = ratio(r.trace.self_ns[Layer::Proto as usize] as f64, passes);
    put("proto.txns", "count", "higher", count(c.txns));
    put("proto.steps", "count", "lower", count(c.steps));
    put(
        "proto.ns_per_step",
        "ns",
        "lower",
        ratio(proto_busy_ns, count(c.steps)),
    );
    put("proto.msgs", "count", "lower", count(c.msgs));
    put(
        "proto.ns_per_msg",
        "ns",
        "lower",
        ratio(proto_busy_ns, count(c.msgs)),
    );
    put(
        "proto.msgs_per_txn",
        "ratio",
        "lower",
        ratio(count(c.msgs), count(c.txns)),
    );
    put(
        "proto.retransmissions",
        "count",
        "lower",
        count(c.retransmissions),
    );
    put(
        "proto.retx_ratio",
        "ratio",
        "lower",
        ratio(count(c.retransmissions), count(c.msgs)),
    );
    put("proto.exhausted", "count", "lower", count(c.exhausted));
    put(
        "proto.replayed_records",
        "count",
        "lower",
        count(c.replayed_records),
    );
    put(
        "proto.invariant_violations",
        "count",
        "lower",
        count(c.invariant_violations),
    );

    // Where the traced pass time went: self time of each layer's spans,
    // and what is left to the driver.
    let share = |layer: Layer| {
        ratio(
            r.trace.self_ns[layer as usize] as f64,
            r.trace.pass_ns as f64,
        )
    };
    put("core.pass_share", "ratio", "lower", share(Layer::Core));
    put("proto.pass_share", "ratio", "lower", share(Layer::Proto));
    put(
        "bench.driver_self_share",
        "ratio",
        "lower",
        share(Layer::Bench),
    );
    put(
        "bench.trace_overhead_share",
        "ratio",
        "lower",
        1.0 - ratio(
            best_ops_per_s(r.samples, true),
            best_ops_per_s(r.samples, false),
        ),
    );
    // How far the host pushed the typical untraced pass below the best.
    let mut rates: Vec<f64> = r
        .samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.ops_per_s)
        .collect();
    rates.sort_by(f64::total_cmp);
    let median_rate = rates.get(rates.len() / 2).copied().unwrap_or(0.0);
    put(
        "bench.pass_spread",
        "ratio",
        "lower",
        1.0 - ratio(median_rate, rates.last().copied().unwrap_or(0.0)),
    );
    put("bench.calib_ns", "ns", "lower", r.calib_ns);
    put(
        "bench.noisy",
        "count",
        "lower",
        f64::from(u8::from(r.noisy)),
    );

    let p = r.probes;
    put("net.rss_mb", "MiB", "lower", p.net_rss_mb);
    put("net.spt_ns", "ns", "lower", p.spt_ns);
    put("net.spt_repair_ns", "ns", "lower", p.spt_repair_ns);
    put("sim.queue_push_pop_ns", "ns", "lower", p.queue_push_pop_ns);
    put("experiments.replay_s", "s", "lower", p.replay_s);
    put(
        "experiments.campaign_cell_s",
        "s",
        "lower",
        p.campaign_cell_s,
    );
    put(
        "experiments.jobs_speedup",
        "ratio",
        "higher",
        p.jobs_speedup,
    );
    out
}

/// The last line of standard output: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_pass_splits_by_tracing_and_direction() {
        let s = |traced, ops_per_s| PassSample {
            traced,
            setup_s: 100.0 - ops_per_s,
            ops_per_s,
        };
        let samples = [
            s(false, 30.0),
            s(true, 1.0),
            s(false, 50.0),
            s(true, 60.0),
            s(false, 40.0),
        ];
        assert_eq!(best_ops_per_s(&samples, false), 50.0);
        assert_eq!(best_ops_per_s(&samples, true), 60.0);
        assert_eq!(best_setup_s(&samples), 50.0);
        assert_eq!((best_ops_per_s(&[], true), best_setup_s(&[])), (0.0, 0.0));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let trace = Trace::new(0);
        let run = TracedRun {
            trace: &trace,
            samples: &[],
            counts: Counts::default(),
            probes: Probes::default(),
            calib_ns: 0.0,
            noisy: false,
        };
        let mut all = end_to_end(&Meter::new(None), 0.0);
        all.extend(per_layer(&run));
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                m.value.is_finite(),
                "{}: empty run must not divide by zero",
                m.name
            );
            assert_eq!(
                all.iter().filter(|o| o.name == m.name).count(),
                1,
                "{}",
                m.name
            );
        }
        assert!(all.len() - 5 <= 128);
        let json = result_json(true, 3, 0, &all[..2]);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}, "));
    }
}
