//! Shape tests: seeded, scaled-down versions of the paper's headline
//! qualitative results. Absolute numbers are calibration-dependent; the
//! *directions* asserted here are what the reproduction stands on.

use cloud_sim::catalog::Catalog;
use cloud_sim::config::SimConfig;
use cloud_sim::engine::Engine;
use cloud_sim::ids::Region;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::analysis::{spike_unavailability, spot_cna_curve};
use spotlight_core::policy::{PolicyConfig, SpotCheckConfig, SpotLightConfig};
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::{shared_store, SharedStore};

/// A 10-day testbed study with aggressive probing (both regions of the
/// testbed, threshold 0.4, heavy spot checking).
fn study(seed: u64, days: u64) -> (SharedStore, SimTime, SimTime) {
    let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(seed));
    engine.cloud_mut().warmup(50);
    let start = engine.cloud().now();
    let end = start + SimDuration::days(days);
    let store = shared_store();
    engine.add_agent(Box::new(SpotLight::new(
        SpotLightConfig {
            policy: PolicyConfig {
                spike_threshold: 0.4,
                subthreshold_sampling: 0.05,
                ..PolicyConfig::default()
            },
            spot_check: Some(SpotCheckConfig {
                interval: SimDuration::from_secs(600),
                batch_size: 14,
            }),
            ..SpotLightConfig::default()
        },
        store.clone(),
    )));
    engine.run_until(end);
    (store, start, end)
}

#[test]
fn higher_spikes_mean_more_unavailability() {
    // The Figure 5.4 direction: P(unavailable | spike >= hi) must not be
    // lower than P(unavailable | spike >= lo) by a wide margin, and the
    // top populated threshold must exceed the bottom one.
    let (store, _, _) = study(7, 12);
    let s = store.snapshot(SimTime::ZERO);
    let curve = spike_unavailability(&s, SimDuration::from_secs(1800), None);
    let populated: Vec<_> = curve
        .iter()
        .filter(|p| p.trials >= 20 && p.probability.is_some())
        .collect();
    assert!(
        populated.len() >= 2,
        "need at least two populated thresholds, got {populated:?}"
    );
    let lo = populated.first().unwrap();
    let hi = populated.last().unwrap();
    assert!(
        hi.probability.unwrap() >= lo.probability.unwrap(),
        "P(unavail) must rise with spike size: lo {:?} hi {:?}",
        lo.probability,
        hi.probability
    );
}

#[test]
fn larger_windows_catch_more_unavailability() {
    let (store, _, _) = study(11, 10);
    let s = store.snapshot(SimTime::ZERO);
    let short = spike_unavailability(&s, SimDuration::from_secs(900), None);
    let long = spike_unavailability(&s, SimDuration::from_secs(7200), None);
    // At the base threshold, the longer window's probability dominates.
    let (a, b) = (short[0].probability, long[0].probability);
    if let (Some(a), Some(b)) = (a, b) {
        // Larger windows both merge trials and extend the hit search;
        // the paper's data shows them higher. At testbed scale the
        // re-weighting across heterogeneous markets adds noise, so allow
        // a small tolerance here (the full-scale run in EXPERIMENTS.md
        // shows the clean ordering).
        assert!(
            b >= a - 0.05,
            "7200 s window ({b:.4}) must not fall far below the 900 s window ({a:.4})"
        );
    }
}

#[test]
fn under_provisioned_region_is_less_available() {
    // sa-east-1 (pressure 1.12) vs us-east-1 (pressure 0.75): the
    // testbed carries both; sa-east must show a higher conditional
    // unavailability at the base threshold.
    let (store, _, _) = study(13, 14);
    let s = store.snapshot(SimTime::ZERO);
    let use1 = spike_unavailability(&s, SimDuration::from_secs(1800), Some(Region::UsEast1));
    let sae1 = spike_unavailability(&s, SimDuration::from_secs(1800), Some(Region::SaEast1));
    let (a, b) = (use1[0], sae1[0]);
    if a.trials >= 30 && b.trials >= 30 {
        assert!(
            b.probability.unwrap() >= a.probability.unwrap(),
            "sa-east-1 ({:?}) must be at least as unavailable as us-east-1 ({:?})",
            b.probability,
            a.probability
        );
    }
}

#[test]
fn spot_unavailability_concentrates_at_low_prices() {
    // The Figure 5.10/5.11 direction: capacity-not-available happens at
    // low spot/od ratios, not at high ones.
    let (store, _, _) = study(17, 12);
    let s = store.snapshot(SimTime::ZERO);
    let curve = spot_cna_curve(&s, None);
    let low: Vec<_> = curve
        .iter()
        .filter(|p| p.threshold < 0.25 && p.trials >= 10)
        .collect();
    let high: Vec<_> = curve
        .iter()
        .filter(|p| p.threshold >= 0.5 && p.trials >= 10)
        .collect();
    if low.is_empty() || high.is_empty() {
        return; // not enough trials on this seed/scale
    }
    let avg = |points: &[&spotlight_core::analysis::CurvePoint]| {
        points.iter().filter_map(|p| p.probability).sum::<f64>() / points.len() as f64
    };
    assert!(
        avg(&low) >= avg(&high),
        "CNA at low ratios ({:.4}) must be at least the high-ratio rate ({:.4})",
        avg(&low),
        avg(&high)
    );
}

#[test]
fn most_measured_outages_are_short() {
    // The Figure 5.9 direction: the majority of unavailability periods
    // close within a few hours.
    let (store, _, _) = study(19, 12);
    let s = store.snapshot(SimTime::ZERO);
    let cdf = spotlight_core::analysis::duration_cdf(&s);
    if cdf.len() < 20 {
        return;
    }
    assert!(
        cdf.fraction_at_or_below(4.0) > 0.5,
        "most outages should close within 4 h; median {:?}",
        cdf.quantile(0.5)
    );
}

#[test]
fn related_market_detections_accompany_spike_detections() {
    // The Figure 5.7 direction: fan-out finds additional unavailable
    // markets beyond the spike-triggered ones.
    let (store, _, _) = study(23, 14);
    let s = store.snapshot(SimTime::ZERO);
    let (_, by_spike, by_related) = spotlight_core::analysis::rejection_attribution(&s);
    let spike_total: f64 = by_spike.iter().sum();
    let related_total: f64 = by_related.iter().sum();
    if spike_total + related_total == 0.0 {
        return;
    }
    assert!(
        related_total > 0.0,
        "fan-out probes should contribute rejected detections"
    );
}
