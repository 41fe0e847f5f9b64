//! Analysis kernels on a synthetic probe store: these are the functions
//! that crunch the three-month database into the paper's figures.

use cloud_sim::time::{SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};
use spotlight_bench::synthetic_store;
use spotlight_core::analysis::{
    cross_market_unavailability, duration_cdf, spike_unavailability, spot_cna_curve,
};
use std::hint::black_box;

fn bench_analysis(c: &mut Criterion) {
    let store = synthetic_store(100_000).snapshot(SimTime::ZERO);
    let mut group = c.benchmark_group("analysis_100k_probes");
    group.sample_size(20);
    group.bench_function("spike_unavailability", |b| {
        b.iter(|| {
            black_box(spike_unavailability(
                &store,
                SimDuration::from_secs(900),
                None,
            ))
        })
    });
    group.bench_function("duration_cdf", |b| {
        b.iter(|| black_box(duration_cdf(&store)))
    });
    group.bench_function("spot_cna_curve", |b| {
        b.iter(|| black_box(spot_cna_curve(&store, None)))
    });
    group.bench_function("cross_market_unavailability", |b| {
        let windows = [SimDuration::from_secs(900), SimDuration::from_secs(3600)];
        b.iter(|| black_box(cross_market_unavailability(&store, &windows)))
    });
    group.finish();
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
