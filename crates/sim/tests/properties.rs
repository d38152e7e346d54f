//! Property-based tests for the simulation substrate.

use drt_sim::process::UniformDuration;
use drt_sim::stats::OnlineStats;
use drt_sim::workload::{FailureProcess, Scenario, ScenarioConfig, TimelineEvent, TrafficPattern};
use drt_sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// `text` cut at the char boundary at or below `cut_per_mille` of its
/// length, then each `(position, byte)` edit overwriting one byte with
/// an ASCII byte (positions wrap). ASCII over ASCII stays UTF-8.
fn mangled(text: &str, cut_per_mille: usize, edits: &[(u64, u8)]) -> String {
    let mut cut = text.len() * cut_per_mille / 1000;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    let mut bytes = text.as_bytes()[..cut].to_vec();
    if !bytes.is_empty() {
        for &(at, b) in edits {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = b;
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of ASCII text")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_queue_pops_in_order(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut popped = 0;
        let mut seq_at_time = std::collections::BTreeMap::<u64, usize>::new();
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_time);
            // FIFO among equal timestamps: indices increase.
            if let Some(&prev) = seq_at_time.get(&t.as_micros()) {
                prop_assert!(idx > prev);
            }
            seq_at_time.insert(t.as_micros(), idx);
            last_time = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn scenario_text_roundtrip(
        lambda in 0.05f64..2.0,
        seed in any::<u64>(),
        minutes in 1u64..20,
        nt in any::<bool>(),
    ) {
        let mut cfg = ScenarioConfig::paper_defaults(lambda);
        cfg.duration = SimDuration::from_minutes(minutes);
        cfg.seed = seed;
        if nt {
            let mut r = drt_sim::rng::stream(seed, "hotset");
            cfg.pattern = TrafficPattern::nt_paper(30, &mut r);
        }
        let s = cfg.generate(30);
        let parsed = Scenario::from_text(&s.to_text()).unwrap();
        prop_assert_eq!(s, parsed);
    }

    #[test]
    fn scenario_invariants(lambda in 0.1f64..1.0, seed in any::<u64>()) {
        let mut cfg = ScenarioConfig::paper_defaults(lambda);
        cfg.duration = SimDuration::from_minutes(10);
        cfg.seed = seed;
        let s = cfg.generate(12);
        let mut last = SimTime::ZERO;
        for r in s.requests() {
            prop_assert!(r.arrival >= last);
            prop_assert!(r.departure > r.arrival);
            prop_assert!(r.src != r.dst);
            prop_assert!(r.src.index() < 12 && r.dst.index() < 12);
            last = r.arrival;
        }
        // Timeline conservation: active count returns to zero.
        let mut active: i64 = 0;
        for (_, e) in s.timeline() {
            match e {
                TimelineEvent::Arrive(_) => active += 1,
                TimelineEvent::Depart(_) => active -= 1,
                TimelineEvent::LinkFail(_) | TimelineEvent::LinkRepair(_) => {}
            }
            prop_assert!(active >= 0);
        }
        prop_assert_eq!(active, 0);
    }

    /// A scenario file torn at any point and overwritten with arbitrary
    /// ASCII is external input: `from_text` answers `Ok` or an error
    /// naming the line, and never panics.
    #[test]
    fn mangled_scenario_text_never_panics(
        seed in any::<u64>(),
        per_hour in 60u32..600,
        cut in 0usize..=1000,
        edits in prop::collection::vec((any::<u64>(), 0u8..128), 0..8),
    ) {
        let mut cfg = ScenarioConfig::paper_defaults(0.3);
        cfg.duration = SimDuration::from_minutes(5);
        cfg.seed = seed;
        cfg.failures = Some(FailureProcess {
            failures_per_hour: f64::from(per_hour),
            mttr: SimDuration::from_minutes(2),
        });
        let text = cfg.generate_with_links(12, 30).to_text();
        let input = mangled(&text, cut, &edits);
        let parsed = std::panic::catch_unwind(|| Scenario::from_text(&input));
        prop_assert!(parsed.is_ok(), "from_text panicked on {:?}", input);
    }

    #[test]
    fn online_stats_matches_naive(xs in prop::collection::vec(-1e3f64..1e3, 2..100)) {
        let mut s = OnlineStats::new();
        xs.iter().for_each(|&x| s.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert!((s.sample_variance() - var).abs() < 1e-4);
        prop_assert_eq!(s.min().unwrap(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().unwrap(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn uniform_duration_in_range(lo_s in 0u64..100, extra in 0u64..100, seed in any::<u64>()) {
        let lo = SimDuration::from_secs(lo_s);
        let hi = SimDuration::from_secs(lo_s + extra);
        let mut d = UniformDuration::new(lo, hi);
        let mut rng = drt_sim::rng::stream(seed, "u");
        for _ in 0..50 {
            let v = d.sample(&mut rng);
            prop_assert!(v >= lo && v <= hi);
        }
    }
}
