//! Measures the store's resident footprint before and after
//! `DataStore::compact` on a month-scale synthetic study (one million
//! probes + spikes packed into ~35 simulated days, horizon = last three
//! days retained), printing one JSON object for
//! `scripts/bench_snapshot.sh` to embed in BENCH_PR<N>.json.
//!
//! It also re-runs the summarized queries after compaction and panics
//! if any answer moved — the snapshot doubles as an exactness check.
//!
//! A second pass drives the same stream through a **durable** store:
//! it reports the on-disk footprint (WAL + checkpoint + sealed spill
//! segments) next to the resident one, and times a full crash-recovery
//! replay of the log.

use cloud_sim::ids::MarketId;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_bench::{feed_synthetic_spaced, synthetic_store_spaced};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::store::DataStore;
use spotlight_core::{DurableOptions, FsyncPolicy};
use spotlight_persist::tempdir::TempDir;
use std::time::Instant;

const RECORDS: u64 = 1_000_000;
const SPACING: u64 = 3;

fn summarized_answers(
    store: &spotlight_core::store::DataStore,
    span_end: SimTime,
) -> Vec<(MarketId, u64, u64, u64)> {
    let read = store.snapshot(span_end);
    let mut markets: Vec<MarketId> = read.probed_markets().collect();
    markets.sort_by_key(|m| m.to_string());
    let query = SpotLightQuery::new(&read, SimTime::ZERO, span_end);
    markets
        .iter()
        .map(|&m| {
            let st = query.availability(m, ProbeKind::OnDemand);
            (
                m,
                st.probes,
                st.rejections,
                query.unavailable_seconds(m, ProbeKind::OnDemand),
            )
        })
        .collect()
}

fn main() {
    let store = synthetic_store_spaced(RECORDS, SPACING);
    let span_end = SimTime::from_secs(RECORDS * SPACING + 1);
    let horizon = SimTime::from_secs(
        span_end
            .as_secs()
            .saturating_sub(SimDuration::days(3).as_secs()),
    );

    let before = summarized_answers(&store, span_end);
    let records_before = store.resident_records();
    let bytes_before = store.resident_bytes();

    let dropped = store.compact(horizon);

    let records_after = store.resident_records();
    let bytes_after = store.resident_bytes();
    let after = summarized_answers(&store, span_end);
    assert_eq!(
        before, after,
        "summarized queries must be unchanged by compaction"
    );

    // The durable twin: same stream through the WAL, spill-compaction
    // sealing the dropped records, then a timed full-log recovery and a
    // checkpoint to show the pruned steady-state footprint.
    let tmp = TempDir::new("footprint-durable");
    let dir = tmp.path().join("store");
    let durable = DataStore::create_durable(
        &dir,
        DurableOptions {
            fsync: FsyncPolicy::Never,
            queue_capacity: 65_536,
            ..DurableOptions::default()
        },
    )
    .expect("create durable store");
    feed_synthetic_spaced(&durable, RECORDS, SPACING);
    durable.flush().expect("flush");
    let disk_after_ingest = durable.disk_bytes().expect("disk bytes");
    durable.compact(horizon);
    let durable_stats = durable.durability_stats().expect("stats");
    assert_eq!(durable_stats.io_errors, 0, "{:?}", durable_stats.last_error);
    let spilled_records = durable_stats.spilled_records;
    let wal_io_errors = durable_stats.io_errors;
    let ops_dropped = durable_stats.ops_dropped;
    let durability_mode = format!("{:?}", durable_stats.mode);
    drop(durable);

    let recover_start = Instant::now();
    let recovered = DataStore::recover(&dir).expect("recover");
    let recover_ms = recover_start.elapsed().as_millis();
    assert_eq!(
        recovered.len() as u64,
        RECORDS,
        "recovery must replay the full history"
    );
    recovered.checkpoint().expect("checkpoint");
    let spill_bytes: u64 = std::fs::read_dir(&dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("spill-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let disk_after_checkpoint = recovered.disk_bytes().expect("disk bytes");

    println!(
        "{{\"records\":{RECORDS},\"spacing_secs\":{SPACING},\
         \"retention_days\":3,\
         \"resident_records_before\":{records_before},\
         \"resident_records_after\":{records_after},\
         \"resident_bytes_before\":{bytes_before},\
         \"resident_bytes_after\":{bytes_after},\
         \"dropped_probes\":{},\"dropped_spikes\":{},\
         \"records_reduction_pct\":{:.1},\
         \"disk_bytes_after_ingest\":{disk_after_ingest},\
         \"disk_bytes_after_checkpoint\":{disk_after_checkpoint},\
         \"spill_segment_bytes\":{spill_bytes},\
         \"spilled_records\":{spilled_records},\
         \"wal_io_errors\":{wal_io_errors},\
         \"ops_dropped\":{ops_dropped},\
         \"durability_mode\":\"{durability_mode}\",\
         \"recover_ms\":{recover_ms}}}",
        dropped.dropped_probes,
        dropped.dropped_spikes,
        100.0 * (1.0 - records_after as f64 / records_before.max(1) as f64),
    );
}
