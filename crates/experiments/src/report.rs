//! Plain-text rendering of experiment results, plus the loaded-link
//! picker the failure campaigns share.

use drt_core::DrtpManager;
use drt_net::LinkId;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// Renders a measurement table: one row per x value, one column per
/// series. Missing points render as `-`.
///
/// # Example
///
/// ```
/// let t = drt_experiments::report::series_table(
///     "demo",
///     "lambda",
///     &[0.2, 0.3],
///     &[("a".into(), vec![Some(1.0), Some(2.0)]), ("b".into(), vec![None, Some(0.5)])],
///     4,
/// );
/// assert!(t.contains("lambda"));
/// assert!(t.contains("0.2"));
/// assert!(t.contains('-'));
/// ```
pub fn series_table(
    title: &str,
    x_label: &str,
    xs: &[f64],
    series: &[(String, Vec<Option<f64>>)],
    decimals: usize,
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let width = series
        .iter()
        .map(|(name, _)| name.len())
        .chain([x_label.len(), decimals + 4])
        .max()
        .unwrap_or(10)
        + 2;

    out.push_str(&format!("{x_label:>w$}", w = width));
    for (name, _) in series {
        out.push_str(&format!("{name:>w$}", w = width));
    }
    out.push('\n');
    out.push_str(&"-".repeat(width * (series.len() + 1)));
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:>w$.1}", w = width));
        for (_, values) in series {
            match values.get(i).copied().flatten() {
                Some(v) => out.push_str(&format!("{v:>w$.d$}", w = width, d = decimals)),
                None => out.push_str(&format!("{:>w$}", "-", w = width)),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the same series as [`series_table`] in CSV, for downstream
/// plotting: header `x,<series...>`, one row per x, empty cells for
/// missing points.
pub fn series_csv(x_label: &str, xs: &[f64], series: &[(String, Vec<Option<f64>>)]) -> String {
    let mut out = String::new();
    out.push_str(x_label);
    for (name, _) in series {
        out.push(',');
        // Quote names containing commas.
        if name.contains(',') {
            out.push_str(&format!("\"{name}\""));
        } else {
            out.push_str(name);
        }
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        out.push_str(&format!("{x}"));
        for (_, values) in series {
            out.push(',');
            if let Some(v) = values.get(i).copied().flatten() {
                out.push_str(&format!("{v}"));
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the full per-cell metrics of a campaign as CSV (one row per
/// (λ, pattern, scheme) cell), for archival alongside `EXPERIMENTS.md`.
pub fn metrics_csv(metrics: &[crate::runner::RunMetrics]) -> String {
    let mut out = String::from(
        "scheme,pattern,lambda,requests,admitted,acceptance,avg_active,\
         p_act_bk,ft_affected,ft_activated,msgs_per_conn,bytes_per_conn,\
         avg_primary_hops,avg_backup_hops,conflicted_fraction,spare_fraction\n",
    );
    for m in metrics {
        out.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.3},{:.6},{},{},{:.1},{:.1},{:.3},{:.3},{:.4},{:.4}\n",
            m.scheme,
            m.pattern,
            m.lambda,
            m.requests,
            m.admitted,
            m.acceptance(),
            m.avg_active,
            m.p_act_bk(),
            m.fault_tolerance.affected,
            m.fault_tolerance.activated,
            m.msgs_per_conn,
            m.bytes_per_conn,
            m.avg_primary_hops,
            m.avg_backup_hops,
            m.conflicted_fraction,
            m.spare_fraction,
        ));
    }
    out
}

/// Renders a one-line verdict comparing a measured relation to the paper's
/// expectation (used by `EXPERIMENTS.md` generation and the binaries).
pub fn verdict(label: &str, holds: bool) -> String {
    format!(
        "  [{}] {label}\n",
        if holds { "reproduced" } else { "DIVERGES" }
    )
}

/// Renders a latency given in microseconds: `-` for none, milliseconds
/// below one second, seconds above.
pub(crate) fn fmt_us(us: u64) -> String {
    if us == 0 {
        "-".into()
    } else if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else {
        format!("{:.1}ms", us as f64 / 1e3)
    }
}

/// The healthy links currently carrying at least one primary, in id
/// order — where a failure is guaranteed to hit traffic.
pub(crate) fn loaded_links(mgr: &DrtpManager) -> Vec<LinkId> {
    let set: BTreeSet<LinkId> = mgr
        .connections()
        .filter(|c| c.state().is_carrying_traffic())
        .flat_map(|c| c.primary().links().iter().copied())
        .filter(|&l| !mgr.is_failed(l))
        .collect();
    set.into_iter().collect()
}

/// A deterministic choice from `links`; no draw when there is none.
pub(crate) fn pick_from(links: &[LinkId], rng: &mut StdRng) -> Option<LinkId> {
    if links.is_empty() {
        None
    } else {
        Some(links[rng.gen_range(0..links.len())])
    }
}

/// A deterministic choice among [`loaded_links`].
pub(crate) fn pick_loaded_link(mgr: &DrtpManager, rng: &mut StdRng) -> Option<LinkId> {
    pick_from(&loaded_links(mgr), rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_missing_values() {
        let t = series_table(
            "Figure X",
            "lambda",
            &[0.2, 0.3, 0.4],
            &[
                ("D-LSR".into(), vec![Some(0.99), Some(0.98), None]),
                ("BF".into(), vec![Some(0.95), None, Some(0.93)]),
            ],
            4,
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "Figure X");
        assert!(lines[1].contains("lambda"));
        assert!(lines[1].contains("D-LSR"));
        assert_eq!(lines.len(), 6);
        assert!(t.contains("0.9900"));
        assert!(t.contains('-'));
    }

    #[test]
    fn verdict_formats() {
        assert!(verdict("D-LSR >= BF", true).contains("[reproduced]"));
        assert!(verdict("x", false).contains("[DIVERGES]"));
    }

    #[test]
    fn csv_series_shape() {
        let csv = series_csv(
            "lambda",
            &[0.2, 0.3],
            &[
                ("D-LSR,UT".into(), vec![Some(0.99), None]),
                ("BF".into(), vec![Some(0.9), Some(0.91)]),
            ],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "lambda,\"D-LSR,UT\",BF");
        assert_eq!(lines[1], "0.2,0.99,0.9");
        assert_eq!(lines[2], "0.3,,0.91");
    }

    #[test]
    fn csv_metrics_has_header_and_rows() {
        use crate::runner::{replay, SchemeKind};
        use drt_sim::workload::TrafficPattern;
        use std::sync::Arc;
        let mut cfg = crate::config::ExperimentConfig::quick(3.0);
        cfg.nodes = 15;
        cfg.duration = drt_sim::SimDuration::from_minutes(25);
        cfg.warmup = drt_sim::SimDuration::from_minutes(10);
        cfg.snapshots = 1;
        let net = Arc::new(cfg.build_network().unwrap());
        let s = cfg
            .scenario_config(0.1, TrafficPattern::ut())
            .generate(cfg.nodes);
        let metrics = vec![replay(&net, &s, SchemeKind::DLsr, &cfg)];
        let csv = metrics_csv(&metrics);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("scheme,pattern,lambda"));
        assert!(lines[1].starts_with("D-LSR,UT,0.1"));
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
    }
}
