//! Probe-database hot paths: ingest (`record_probe`, which maintains
//! every secondary index and epoch summary — sequential and contended
//! across threads), the per-market query interface, and the
//! epoch-summarized month-scale window sweep, each measured against
//! naive full-log scans so the index/summary speedup is a number, not a
//! claim.

use cloud_sim::ids::MarketId;
use cloud_sim::time::{SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spotlight_bench::{synthetic_probes, synthetic_store, synthetic_store_spaced};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::StoreSnapshot;
use spotlight_core::store::DataStore;
use spotlight_core::{DurableOptions, FsyncPolicy};
use spotlight_persist::tempdir::TempDir;
use std::collections::HashMap;
use std::hint::black_box;

/// The old full-scan availability computation, kept as the measured
/// baseline for the indexed [`SpotLightQuery::availability`].
fn scan_availability(store: &StoreSnapshot, market: MarketId, kind: ProbeKind) -> (u64, u64, u64) {
    let mut probes = 0u64;
    let mut rejections = 0u64;
    for p in store.probes() {
        if p.market == market && p.kind == kind && p.outcome.is_informative() {
            probes += 1;
            if p.outcome.is_unavailable() {
                rejections += 1;
            }
        }
    }
    let unavailable: u64 = store
        .intervals()
        .filter(|i| i.market == market && i.kind == kind)
        .map(|i| {
            i.end
                .unwrap_or(SimTime::from_secs(u64::MAX / 2))
                .saturating_since(i.start)
                .as_secs()
        })
        .sum();
    (probes, rejections, unavailable)
}

/// The old full-scan conditional-unavailability trial loop.
fn scan_conditional(
    store: &StoreSnapshot,
    a: MarketId,
    b: MarketId,
    window: SimDuration,
) -> Option<f64> {
    let b_times: Vec<SimTime> = store
        .probes()
        .filter(|p| p.market == b && p.kind == ProbeKind::OnDemand && p.outcome.is_unavailable())
        .map(|p| p.at)
        .collect();
    let mut trials = 0u64;
    let mut hits = 0u64;
    for i in store.intervals() {
        if i.market != a || i.kind != ProbeKind::OnDemand {
            continue;
        }
        trials += 1;
        let to = i.start + window;
        if b_times.iter().any(|&t| t >= i.start && t <= to) {
            hits += 1;
        }
    }
    (trials > 0).then(|| hits as f64 / trials as f64)
}

/// One full-log pass computing every market's availability sweep — the
/// best a scan can do, and the baseline the epoch-summarized sweep is
/// gated against (the acceptance target is ≥ 5× over this).
fn scan_sweep(store: &StoreSnapshot, span_end: SimTime) -> u64 {
    let mut stats: HashMap<MarketId, (u64, u64)> = HashMap::new();
    for p in store.probes() {
        if p.kind == ProbeKind::OnDemand && p.outcome.is_informative() {
            let e = stats.entry(p.market).or_insert((0, 0));
            e.0 += 1;
            if p.outcome.is_unavailable() {
                e.1 += 1;
            }
        }
    }
    let mut unavail: HashMap<MarketId, u64> = HashMap::new();
    for i in store.intervals() {
        if i.kind == ProbeKind::OnDemand {
            *unavail.entry(i.market).or_insert(0) += i
                .end
                .unwrap_or(span_end)
                .min(span_end)
                .saturating_since(i.start)
                .as_secs();
        }
    }
    stats.values().map(|&(p, _)| p).sum::<u64>() + unavail.values().sum::<u64>()
}

fn bench_record_probe(c: &mut Criterion) {
    let probes = synthetic_probes(10_000);
    c.bench_function("store/record_probe_10k", |b| {
        b.iter_batched(
            || probes.clone(),
            |probes| {
                let store = DataStore::new();
                for p in probes {
                    black_box(store.record_probe(p));
                }
                store
            },
            BatchSize::LargeInput,
        )
    });
}

/// Ingest under thread contention: N workers splitting the same stream
/// across the store's lock stripes. On a single-CPU host the >1 rows
/// measure striping + scheduling overhead, not parallelism.
fn bench_ingest_contended(c: &mut Criterion) {
    let probes = synthetic_probes(20_000);
    let mut group = c.benchmark_group("store_ingest_contended");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(&threads.to_string(), |b| {
            b.iter_batched(
                || probes.clone(),
                |probes| {
                    let store = DataStore::new();
                    std::thread::scope(|scope| {
                        for chunk in probes.chunks(probes.len().div_ceil(threads)) {
                            let store = &store;
                            scope.spawn(move || {
                                for p in chunk {
                                    black_box(store.record_probe(*p));
                                }
                            });
                        }
                    });
                    store.len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The contended ingest shape again, but appending through the durable
/// write-ahead log with batched fsync — the acceptance gate holds its
/// medians within 1.3× of `store_ingest_contended`.
fn bench_ingest_durable(c: &mut Criterion) {
    let probes = synthetic_probes(20_000);
    let mut group = c.benchmark_group("store_ingest_durable");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(&threads.to_string(), |b| {
            b.iter_batched(
                // Store creation and teardown are setup, not ingest:
                // the timed region is record_probe through flush. The
                // store and tempdir ride along in the routine's return
                // value so their drop (writer join, unlink) lands after
                // the sample's clock stops.
                || {
                    let tmp = TempDir::new("bench-ingest");
                    let store = DataStore::create_durable(
                        &tmp.path().join("store"),
                        DurableOptions {
                            fsync: FsyncPolicy::Batch,
                            queue_capacity: 4096,
                            ..DurableOptions::default()
                        },
                    )
                    .expect("durable store");
                    (probes.clone(), tmp, store)
                },
                |(probes, tmp, store)| {
                    std::thread::scope(|scope| {
                        for chunk in probes.chunks(probes.len().div_ceil(threads)) {
                            let store = &store;
                            scope.spawn(move || {
                                for p in chunk {
                                    black_box(store.record_probe(*p));
                                }
                            });
                        }
                    });
                    store.flush().expect("flush");
                    (store.len(), store, tmp)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Crash-recovery replay of a one-million-record log: each sample
/// rebuilds the full store from the on-disk WAL written once in setup.
fn bench_recover_1m(c: &mut Criterion) {
    let tmp = TempDir::new("bench-recover");
    let dir = tmp.path().join("store");
    {
        let store = DataStore::create_durable(
            &dir,
            DurableOptions {
                fsync: FsyncPolicy::Never,
                queue_capacity: 65_536,
                ..DurableOptions::default()
            },
        )
        .expect("durable store");
        for p in synthetic_probes(1_000_000) {
            store.record_probe(p);
        }
        store.flush().expect("flush");
    }
    let mut group = c.benchmark_group("recover_1m");
    group.sample_size(10);
    group.bench_function("replay", |b| {
        b.iter(|| black_box(DataStore::recover(&dir).expect("recover").len()))
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let span_end = SimTime::from_secs(100_000 * 97 + 1);
    let read = synthetic_store(100_000).snapshot(span_end);
    let query = SpotLightQuery::new(&read, SimTime::ZERO, span_end);
    // Sort: probed_markets() iterates per-stripe HashMaps, whose order
    // changes per process — the benched (a, b) pair must be stable
    // across runs for BENCH_PR*.json snapshots to be comparable.
    let mut markets: Vec<MarketId> = read.probed_markets().collect();
    markets.sort_by_key(|m| m.to_string());
    let (a, b) = (markets[0], markets[1]);

    let mut group = c.benchmark_group("store_query_100k");
    group.bench_function("availability_indexed", |bch| {
        bch.iter(|| {
            markets
                .iter()
                .map(|&m| query.availability(m, ProbeKind::OnDemand).probes)
                .sum::<u64>()
        })
    });
    group.bench_function("availability_scan_baseline", |bch| {
        bch.iter(|| {
            markets
                .iter()
                .map(|&m| scan_availability(&read, m, ProbeKind::OnDemand).0)
                .sum::<u64>()
        })
    });
    group.bench_function("conditional_unavailability_indexed", |bch| {
        bch.iter(|| black_box(query.conditional_unavailability(a, b, SimDuration::from_secs(900))))
    });
    group.bench_function("conditional_unavailability_scan_baseline", |bch| {
        bch.iter(|| black_box(scan_conditional(&read, a, b, SimDuration::from_secs(900))))
    });
    group.bench_function("probes_between_1h_window", |bch| {
        let from = SimTime::from_secs(4_000_000);
        let to = from + SimDuration::hours(1);
        bch.iter(|| read.probes_between(a, from, to).count())
    });
    group.bench_function("mean_time_to_revocation", |bch| {
        bch.iter(|| black_box(query.mean_time_to_revocation(a)))
    });
    group.finish();
}

/// The month-scale availability sweep: one million probes packed into
/// ~35 simulated days, every market's availability over the whole span.
/// `availability_summarized` reads running counters + epoch buckets;
/// `availability_raw_scan_baseline` is the single-pass full-log scan.
fn bench_window_sweep(c: &mut Criterion) {
    let span_end = SimTime::from_secs(1_000_000 * 3 + 1);
    let read = synthetic_store_spaced(1_000_000, 3).snapshot(span_end);
    let query = SpotLightQuery::new(&read, SimTime::ZERO, span_end);
    let mut markets: Vec<MarketId> = read.probed_markets().collect();
    markets.sort_by_key(|m| m.to_string());

    let mut group = c.benchmark_group("store_window_sweep_1m");
    group.sample_size(20);
    group.bench_function("availability_summarized", |bch| {
        bch.iter(|| {
            markets
                .iter()
                .map(|&m| {
                    let st = query.availability(m, ProbeKind::OnDemand);
                    st.probes + query.unavailable_seconds(m, ProbeKind::OnDemand)
                })
                .sum::<u64>()
        })
    });
    group.bench_function("availability_raw_scan_baseline", |bch| {
        bch.iter(|| black_box(scan_sweep(&read, span_end)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_record_probe,
    bench_ingest_contended,
    bench_ingest_durable,
    bench_recover_1m,
    bench_queries,
    bench_window_sweep
);
criterion_main!(benches);
