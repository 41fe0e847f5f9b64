//! Budget control end-to-end (§3.4): windowed budgets bound real spend,
//! and calibration from observed spike rates produces a policy that
//! fits the budget when deployed.

use cloud_sim::catalog::Catalog;
use cloud_sim::config::SimConfig;
use cloud_sim::engine::Engine;
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::budget::{calibrate_threshold, BudgetConfig};
use spotlight_core::policy::{PolicyConfig, SpotLightConfig};
use spotlight_core::query::SpotLightQuery;
use spotlight_core::spotlight::SpotLight;
use spotlight_core::store::{shared_store, SharedStore};

fn run_with(
    seed: u64,
    days: u64,
    policy: PolicyConfig,
    budget: BudgetConfig,
) -> (SharedStore, SimTime, SimTime) {
    let mut engine = Engine::new(Catalog::testbed(), SimConfig::paper(seed));
    engine.cloud_mut().warmup(30);
    let start = engine.cloud().now();
    let end = start + SimDuration::days(days);
    let store = shared_store();
    engine.add_agent(Box::new(SpotLight::new(
        SpotLightConfig {
            policy,
            budget,
            ..SpotLightConfig::default()
        },
        store.clone(),
    )));
    engine.run_until(end);
    (store, start, end)
}

#[test]
fn windowed_budget_bounds_total_spend() {
    let limit = Price::from_dollars(0.50);
    let window = SimDuration::hours(6);
    let days = 3;
    let (store, _, _) = run_with(
        51,
        days,
        PolicyConfig {
            spike_threshold: 0.3,
            ..PolicyConfig::default()
        },
        BudgetConfig {
            window,
            limit: Some(limit),
        },
    );
    let s = store.snapshot(SimTime::ZERO);
    // Spend can never exceed limit × windows (the estimate check runs
    // before each probe; one extra window covers warm-up alignment).
    let windows = days * 24 / 6 + 1;
    assert!(
        s.total_cost() <= limit.times(windows),
        "spend {} exceeds {} windows x {}",
        s.total_cost(),
        windows,
        limit
    );
    assert!(
        s.suppressed_probes() > 0,
        "tight budget must suppress probes"
    );
}

#[test]
fn calibration_then_deployment_fits_budget() {
    // Phase 1: observe freely for 3 days to learn spike rates.
    let (observe_store, start, end) = run_with(
        53,
        3,
        PolicyConfig {
            spike_threshold: 0.3,
            market_cooldown: SimDuration::from_secs(300),
            ..PolicyConfig::default()
        },
        BudgetConfig::default(),
    );
    let s = observe_store.snapshot(SimTime::ZERO);
    let query = SpotLightQuery::new(&s, start, end);
    let rates = query.spike_rates(&[0.3, 0.5, 1.0, 2.0, 4.0], SimDuration::days(1));
    drop(s);

    // Phase 2: calibrate a threshold for a $3/day budget.
    let cost_per_probe = Price::from_dollars(0.4);
    let budget_per_day = Price::from_dollars(3.0);
    let calibration = calibrate_threshold(&rates, cost_per_probe, budget_per_day)
        .expect("rates observed, calibration must exist");
    assert!(calibration.threshold >= 0.3);
    assert!(calibration.expected_probes_per_window <= 7.5 + 1e-9);

    // Phase 3: deploy with the calibrated policy; expected probe volume
    // should be in the right ballpark (within 4x of the calibration,
    // different seeds and fan-out overhead allowed).
    let (deploy_store, _, _) = run_with(
        59,
        3,
        PolicyConfig {
            spike_threshold: calibration.threshold,
            sampling_probability: calibration.sampling,
            market_cooldown: SimDuration::from_secs(300),
            ..PolicyConfig::default()
        },
        BudgetConfig {
            window: SimDuration::days(1),
            limit: Some(budget_per_day),
        },
    );
    let d = deploy_store.snapshot(SimTime::ZERO);
    assert!(
        d.total_cost() <= budget_per_day.times(4),
        "deployment must fit its daily budget (+1 window slack): {}",
        d.total_cost()
    );
}

#[test]
fn exhausted_windows_stop_probing_until_next_window() {
    let (store, start, end) = run_with(
        61,
        2,
        PolicyConfig {
            spike_threshold: 0.3,
            ..PolicyConfig::default()
        },
        BudgetConfig {
            window: SimDuration::hours(12),
            limit: Some(Price::from_dollars(0.2)),
        },
    );
    let s = store.snapshot(SimTime::ZERO);
    // Probes must appear in more than one window (the budget resets).
    let mid = start + SimDuration::days(1);
    let early = s.probes().filter(|p| p.at < mid).count();
    let late = s.probes().filter(|p| p.at >= mid && p.at < end).count();
    assert!(early > 0, "first day should probe");
    assert!(late > 0, "budget must reset for the second day");
}
