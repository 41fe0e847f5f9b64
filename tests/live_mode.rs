//! Integration tests of the threaded (Chapter 4) deployment: the
//! manager hierarchy must produce a store equivalent in structure to the
//! engine deployment's.

use cloud_sim::catalog::Catalog;
use cloud_sim::chaos::{ChaosWindow, ErrorBurst};
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::ids::Region;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::manager::{run_live, LiveConfig};
use spotlight_core::policy::PolicyConfig;
use spotlight_core::probe::{ProbeKind, ProbeOutcome};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::store::shared_store;

fn policy() -> PolicyConfig {
    PolicyConfig {
        spike_threshold: 0.5,
        ..PolicyConfig::default()
    }
}

#[test]
fn live_store_is_structurally_sound() {
    let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(41));
    cloud.warmup(20);
    let store = shared_store();
    let (cloud, report) = run_live(
        cloud,
        store.clone(),
        LiveConfig {
            policy: policy(),
            duration: SimDuration::days(3),
            ..LiveConfig::default()
        },
    );
    let s = store.snapshot(SimTime::ZERO);
    assert_eq!(report.probes, s.len());
    for p in s.probes() {
        assert!(cloud.catalog().market_exists(p.market));
        assert_eq!(p.kind, ProbeKind::OnDemand, "live mode probes on-demand");
    }
    // Spikes recorded by region managers reference probed markets only.
    for spike in s.spikes() {
        assert!(spike.probed);
        assert!(spike.ratio >= 0.5, "below-threshold spikes are not probed");
    }
    // Intervals only open on rejections and close on fulfilment. A
    // same-timestamp reject→fulfil pair (one manager probing a market
    // twice in one batch) legally yields a zero-duration interval, so
    // the bound is inclusive.
    for i in s.intervals() {
        if let Some(end) = i.end {
            assert!(end >= i.start);
        }
    }
}

#[test]
fn region_managers_stay_in_their_region() {
    let mut cloud = Cloud::new(Catalog::testbed(), SimConfig::paper(43));
    cloud.warmup(20);
    let store = shared_store();
    let (_, report) = run_live(
        cloud,
        store.clone(),
        LiveConfig {
            policy: policy(),
            duration: SimDuration::days(2),
            ..LiveConfig::default()
        },
    );
    // Per-region totals account for every probe.
    let total: usize = report.per_region_probes.values().sum();
    assert_eq!(total, report.probes);
}

#[test]
fn live_mode_respects_service_limits() {
    // Even with many concurrent spikes the region managers go through
    // the rate-limited API. Throttling is a retryable transport
    // condition, so it surfaces as retries dispatched through the
    // backoff queue — not as instantly-recorded ApiLimited probes —
    // and the pipeline must neither wedge nor lose probes.
    let mut config = SimConfig::paper(47);
    config.limits.api_calls_per_minute_per_region = 12; // very tight
    let mut cloud = Cloud::new(Catalog::testbed(), config);
    cloud.warmup(20);
    let store = shared_store();
    let (_, report) = run_live(
        cloud,
        store.clone(),
        LiveConfig {
            policy: PolicyConfig {
                spike_threshold: 0.3,
                ..PolicyConfig::default()
            },
            duration: SimDuration::days(2),
            ..LiveConfig::default()
        },
    );
    // With a 12/min budget and fan-out probing, throttling must appear
    // — and every throttled probe re-enters the backoff queue.
    assert!(
        report.retries_issued > 0,
        "expected throttled probes to be retried under a 12 calls/min limit"
    );
    // Nothing lost: every probe intent either landed in the store or
    // was counted as abandoned.
    let total: usize = report.per_region_probes.values().sum();
    assert_eq!(total, report.probes);
    // Probes that did exhaust their retry budget (if any) were recorded
    // as ApiLimited, which carries no availability information — they
    // must never have opened an unavailability interval.
    let s = store.snapshot(SimTime::ZERO);
    for p in s.probes() {
        if p.outcome == ProbeOutcome::ApiLimited {
            assert!(!p.outcome.is_unavailable());
        }
    }
}

#[test]
fn chaos_soak_degrades_gracefully_and_recovers() {
    // Graceful-degradation soak: a 12-hour API outage, then a 6-hour
    // throttling storm, then a 2-hour transient-error burst, all in
    // us-east-1. run_live must complete without deadlock or panic, the
    // region must be flagged degraded while faults rage and recovered
    // after, and probing (hence estimate freshness) must converge back
    // once the fault window ends.
    let mut config = SimConfig::paper(53);
    let hit = Region::UsEast1; // the testbed's first region
    config.chaos.outages.push(ChaosWindow {
        region: hit,
        start: SimTime::from_secs(86_400),
        duration: SimDuration::hours(12),
    });
    config.chaos.throttle_storms.push(ChaosWindow {
        region: hit,
        start: SimTime::from_secs(129_600),
        duration: SimDuration::hours(6),
    });
    config.chaos.error_bursts.push(ErrorBurst {
        window: ChaosWindow {
            region: hit,
            start: SimTime::from_secs(200_000),
            duration: SimDuration::hours(2),
        },
        fraction: 0.5,
    });
    let mut cloud = Cloud::new(Catalog::testbed(), config);
    cloud.warmup(20);
    let store = shared_store();
    let (cloud, report) = run_live(
        cloud,
        store.clone(),
        LiveConfig {
            policy: PolicyConfig {
                spike_threshold: 0.3,
                ..PolicyConfig::default()
            },
            duration: SimDuration::days(4),
            ..LiveConfig::default()
        },
    );
    // The run completed every tick despite a day of regional faults.
    assert_eq!(report.ticks, 4 * 86_400 / 300);
    let total: usize = report.per_region_probes.values().sum();
    assert_eq!(total, report.probes, "no probe lost under chaos");

    // The pipeline actually engaged: retries were dispatched, the
    // breaker tripped on the outage, and degraded time was accounted.
    assert!(report.retries_issued > 0, "retries must be issued");
    assert!(report.breaker_trips >= 1, "the outage must trip a breaker");
    let degraded = report.degraded_secs.get(&hit).copied().unwrap_or(0);
    assert!(degraded > 0, "degraded seconds must be accounted to {hit}");

    let s = store.snapshot(SimTime::ZERO);
    // Probes with no availability information were recorded as such
    // (retry budgets exhausted during the 12-hour outage).
    let limited = s
        .probes()
        .filter(|p| p.market.region() == hit && p.outcome == ProbeOutcome::ApiLimited)
        .count();
    assert!(limited > 0, "budget-exhausted probes must be recorded");

    // After the fault window the breaker closed and the store says so.
    assert!(
        s.region_health(hit).is_some_and(|h| !h.degraded),
        "region must be marked recovered after the faults end"
    );
    let end = cloud.now();
    let q = SpotLightQuery::new(&s, SimTime::ZERO, end);
    assert!(q.degraded_regions().is_empty());

    // Estimates converge back: the storm ends at t=151200s, leaving
    // ~2.3 days of healthy probing; some us-east-1 market must have an
    // informative observation from after the faults.
    let recovered_markets = cloud
        .catalog()
        .markets()
        .iter()
        .filter(|m| m.region() == hit)
        .filter(|&&m| {
            q.freshness(m, ProbeKind::OnDemand)
                .last_informative
                .is_some_and(|t| t > SimTime::from_secs(151_200))
        })
        .count();
    assert!(
        recovered_markets > 0,
        "informative probes must resume after the fault window"
    );
}
