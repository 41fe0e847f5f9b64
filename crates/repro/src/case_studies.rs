//! Chapter 6 figure printers: SpotCheck availability (Figure 6.1) and
//! SpotOn running time (Figure 6.2), naive vs SpotLight-informed.

use crate::experiment::{case_study_markets, Study};
use crate::output::{banner, pct, Table};
use cloud_sim::ids::MarketId;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::StoreSnapshot;
use spotlight_derivative::series::{AvailabilityTimeline, PriceSeries};
use spotlight_derivative::spotcheck::{replay, SpotCheckConfig};
use spotlight_derivative::spoton::{mean_completion_hours, run_trials, JobSpec};
use std::path::Path;

/// Builds the measured on-demand unavailability timeline of one market
/// from SpotLight's intervals (open intervals clamp to the span end).
fn od_timeline(store: &StoreSnapshot, market: MarketId, end: SimTime) -> AvailabilityTimeline {
    AvailabilityTimeline::from_intervals(
        store
            .intervals()
            .filter(|i| i.market == market && i.kind == ProbeKind::OnDemand)
            .map(|i| (i.start, i.end.unwrap_or(end)))
            .collect(),
    )
}

/// Picks the SpotLight-informed fallback market for `market` and returns
/// its measured timeline (an empty timeline when the chosen fallback has
/// no measured unavailability at all — the ideal case).
fn informed_timeline(study: &Study, market: MarketId) -> (Option<MarketId>, AvailabilityTimeline) {
    let query = SpotLightQuery::new(&study.db, study.start, study.end);
    let candidates: Vec<MarketId> = query
        .observed_markets()
        .into_iter()
        .filter(|c| c.region() == market.region())
        .collect();
    let picks = query.uncorrelated_fallbacks(market, &candidates, SimDuration::hours(1), 1);
    match picks.first() {
        Some(&fallback) => (Some(fallback), od_timeline(&study.db, fallback, study.end)),
        None => (None, AvailabilityTimeline::default()),
    }
}

/// Figure 6.1: SpotCheck availability per case-study market, naive
/// same-market fallback vs SpotLight-informed fallback.
pub fn fig_6_1(study: &Study, out: &Path) {
    banner("Figure 6.1 — SpotCheck availability (naive vs SpotLight-informed)");
    let store = &study.db;
    let config = SpotCheckConfig::default();
    let mut table = Table::new(vec![
        "market",
        "revocations",
        "SpotCheck",
        "SpotLight",
        "fallback",
    ]);
    for (label, market) in case_study_markets() {
        let prices = PriceSeries::new(study.cloud.trace().history(market).to_vec());
        let od_price = study.cloud.catalog().od_price(market);
        let naive_timeline = od_timeline(store, market, study.end);
        let (fallback, informed) = informed_timeline(study, market);
        let naive = replay(
            &prices,
            od_price,
            &naive_timeline,
            &config,
            study.start,
            study.end,
        );
        let smart = replay(
            &prices,
            od_price,
            &informed,
            &config,
            study.start,
            study.end,
        );
        table.row(vec![
            label.to_string(),
            naive.revocations.to_string(),
            pct(Some(naive.availability)),
            pct(Some(smart.availability)),
            fallback.map_or("-".to_string(), |m| m.to_string()),
        ]);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_6_1");
    println!(
        "  paper shape: naive 72-92% (us-east better than ap-southeast-2); \
         SpotLight restores ~100%"
    );
}

/// Figure 6.2: SpotOn mean running time (100 trials of the
/// representative one-hour job), naive vs SpotLight-informed.
pub fn fig_6_2(study: &Study, out: &Path) {
    banner("Figure 6.2 — SpotOn running time (naive vs SpotLight-informed)");
    let store = &study.db;
    let job = JobSpec::representative();
    let retry = SimDuration::from_secs(300);
    let trials = 100;
    let mut table = Table::new(vec!["market", "SpotOn (h)", "SpotLight (h)", "slowdown"]);
    for (label, market) in case_study_markets() {
        let prices = PriceSeries::new(study.cloud.trace().history(market).to_vec());
        let od_price = study.cloud.catalog().od_price(market);
        let naive_timeline = od_timeline(store, market, study.end);
        let (_, informed) = informed_timeline(study, market);
        let span_end = study.end - SimDuration::hours(12); // room for long jobs
        let naive = run_trials(
            &job,
            &prices,
            od_price,
            &naive_timeline,
            retry,
            study.start,
            span_end,
            trials,
        );
        let smart = run_trials(
            &job,
            &prices,
            od_price,
            &informed,
            retry,
            study.start,
            span_end,
            trials,
        );
        let naive_h = mean_completion_hours(&naive);
        let smart_h = mean_completion_hours(&smart);
        table.row(vec![
            label.to_string(),
            format!("{naive_h:.2}"),
            format!("{smart_h:.2}"),
            format!("{:+.0}%", 100.0 * (naive_h / smart_h.max(1e-9) - 1.0)),
        ]);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_6_2");
    println!(
        "  paper shape: naive 2.29-3.44 h for the 1 h job (worst in ap-southeast-2); \
         SpotLight restores ~2 h"
    );
}
