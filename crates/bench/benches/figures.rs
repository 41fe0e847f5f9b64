//! One bench per paper table/figure: each group runs the scaled-down
//! (testbed, two-day) experiment end to end — study plus the figure's
//! analysis — so regressions in any link of the reproduction pipeline
//! show up here. The full-scale regeneration lives in the `repro`
//! binary (`repro all`).

use cloud_sim::lifecycle::{OdState, SpotRequestState};
use cloud_sim::time::SimDuration;
use criterion::{criterion_group, criterion_main, Criterion};
use spotlight_bench::small_study;
use spotlight_core::analysis::{
    cross_az_unavailability, cross_market_unavailability, duration_cdf, regional_rejection_share,
    rejection_attribution, spike_unavailability, spot_cna_curve, spot_cna_distribution,
};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_derivative::series::{AvailabilityTimeline, PriceSeries};
use spotlight_derivative::spotcheck::{replay, SpotCheckConfig};
use spotlight_derivative::spoton::{run_trials, JobSpec};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    // One shared study: the cost of the figure benches is the analysis,
    // not the simulation.
    let (cloud, store, start, end) = small_study(5, 2);
    let db = store.snapshot(end);
    let mut group = c.benchmark_group("figure");
    group.sample_size(10);

    group.bench_function("table_2_1_contract_stats", |b| {
        // Buffer-reusing variant: zero allocation per query call.
        let mut counts = std::collections::HashMap::new();
        b.iter(|| {
            let q = SpotLightQuery::new(&db, start, end);
            q.rejection_counts_by_region_into(&mut counts);
            black_box(counts.len())
        })
    });
    group.bench_function("fig_3_1_state_machine_dot", |b| {
        b.iter(|| black_box(OdState::to_dot()))
    });
    group.bench_function("fig_3_2_state_machine_dot", |b| {
        b.iter(|| black_box(SpotRequestState::to_dot()))
    });
    for (name, window) in [
        ("fig_5_4_spike_curve", 900u64),
        ("fig_5_4_spike_curve_2h", 7200),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(spike_unavailability(
                    &db,
                    SimDuration::from_secs(window),
                    None,
                ))
            })
        });
    }
    group.bench_function("fig_5_5_regional_share", |b| {
        b.iter(|| black_box(regional_rejection_share(&db)))
    });
    group.bench_function("fig_5_7_attribution", |b| {
        b.iter(|| black_box(rejection_attribution(&db)))
    });
    group.bench_function("fig_5_8_cross_az", |b| {
        b.iter(|| black_box(cross_az_unavailability(&db, SimDuration::from_secs(900))))
    });
    group.bench_function("fig_5_9_duration_cdf", |b| {
        b.iter(|| black_box(duration_cdf(&db)))
    });
    group.bench_function("fig_5_10_spot_cna", |b| {
        b.iter(|| black_box(spot_cna_curve(&db, None)))
    });
    group.bench_function("fig_5_11_cna_distribution", |b| {
        b.iter(|| black_box(spot_cna_distribution(&db)))
    });
    group.bench_function("fig_5_12_cross_market", |b| {
        let windows = [SimDuration::from_secs(900), SimDuration::from_secs(3600)];
        b.iter(|| black_box(cross_market_unavailability(&db, &windows)))
    });

    // Case studies (figs 6.1/6.2) over the most-probed market.
    let market = cloud.catalog().markets()[0];
    let prices = PriceSeries::new(cloud.trace().history(market).to_vec());
    let od = cloud.catalog().od_price(market);
    let timeline = AvailabilityTimeline::from_intervals(
        db.intervals()
            .filter(|i| i.market == market && i.kind == ProbeKind::OnDemand)
            .map(|i| (i.start, i.end.unwrap_or(end)))
            .collect(),
    );
    group.bench_function("fig_6_1_spotcheck_replay", |b| {
        let cfg = SpotCheckConfig::default();
        b.iter(|| black_box(replay(&prices, od, &timeline, &cfg, start, end)))
    });
    group.bench_function("fig_6_2_spoton_trials", |b| {
        let job = JobSpec::representative();
        b.iter(|| {
            black_box(run_trials(
                &job,
                &prices,
                od,
                &timeline,
                SimDuration::from_secs(300),
                start,
                end - SimDuration::hours(6),
                20,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
