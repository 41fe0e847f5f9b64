//! The joined pipeline under test, wired from the public APIs:
//! `run_live` (or the seeded generator) → durable `DataStore` →
//! `SnapshotHub::republish` on a cadence → `spotlight_serve::Server`,
//! with the benchmark's writer (markers, generator) and reader threads
//! driving it open-loop.

use crate::gen::{marker_market, marker_probe, Keys, RecordStream};
use crate::mix::{availability_probes, has_field, Mix, Route, DECK};
use crate::sched::{now_ns, Schedule, Waiter};
use crate::stats::{Samples, Timed};
use crate::trace::{Trace, Tracer, ROOT};
use cloud_sim::catalog::Catalog;
use cloud_sim::cloud::Cloud;
use cloud_sim::config::SimConfig;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::manager::{run_live, LiveConfig};
use spotlight_core::probe::ProbeKind;
use spotlight_core::snapshot::SnapshotHub;
use spotlight_core::store::{DataStore, SharedStore};
use spotlight_core::{DurabilityStats, DurableOptions};
use spotlight_serve::{Client, Server, ServerConfig, StatsSnapshot};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One marker probe is written every `MARKER_EVERY`.
const MARKER_EVERY: Duration = Duration::from_millis(1);
/// The marker market is polled every `POLL_EVERY`.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// Simulated time per `run_live` call. The live window is a paced
/// sequence of these.
const LIVE_SEGMENT: SimDuration = SimDuration::from_secs(2 * 3600);
/// Cloud ticks per segment (five-minute ticks).
const LIVE_SEGMENT_TICKS: f64 = 24.0;
/// Each checkpoint starts this long before a publish is due, so its
/// capture (under every stripe write lock) always delays that publish.
/// Left to race, the two threads would order themselves differently
/// from run to run, and the freshness tail would jump between the two
/// orders. Checkpoints fall mid-cycle, so the window never ends inside
/// one: the reads a checkpoint holds up are still caught up inside it.
const CHECKPOINT_LEAD: Duration = Duration::from_millis(5);
/// Generator records started per pass before the writer checks its
/// marker schedule again.
const BURST_CAP: usize = 256;
/// Connections (one thread each) driving the closed-loop read phase.
const CAPACITY_CONNS: usize = 2;
/// Requests each capacity connection keeps in flight.
const PIPELINE: usize = 16;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LivePipeline,
    IngestPublish,
    ServeRead,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LivePipeline,
        Workload::IngestPublish,
        Workload::ServeRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LivePipeline => "live_pipeline",
            Workload::IngestPublish => "ingest_publish",
            Workload::ServeRead => "serve_read",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A workload's knobs.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    /// Records seeded into the store at set-up.
    pub history: u64,
    /// Generator records offered per second during the window (0: none).
    pub ingest_rate: f64,
    /// Cloud ticks offered per second by the live collector (0: none).
    pub tick_rate: f64,
    /// Base open-loop read rate of the mix.
    pub read_rate: f64,
    pub publish_every: Duration,
    pub checkpoint_every: Option<Duration>,
    /// Latency percentiles are taken per cycle of this length: a whole
    /// number of checkpoint and publish periods, so every cycle has the
    /// same shape.
    pub cycle: Duration,
    /// Length of the closed-loop read phase after the window.
    pub capacity_for: Duration,
    /// Length of the closed-loop write phase that ends the run.
    pub write_for: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Requests per route in the end-of-run answer check.
    pub checks_per_route: usize,
    /// Requests replayed directly against the final snapshot (traced runs).
    pub query_replay: usize,
}

impl Params {
    /// The full-size workload.
    pub fn full(workload: Workload) -> Params {
        let base = Params {
            workload,
            history: 0,
            ingest_rate: 0.0,
            tick_rate: 0.0,
            read_rate: 400.0,
            publish_every: Duration::from_millis(250),
            checkpoint_every: Some(Duration::from_millis(2500)),
            cycle: Duration::from_millis(2500),
            capacity_for: Duration::from_secs(6),
            write_for: Duration::from_secs(2),
            setups: 3,
            checks_per_route: 6,
            query_replay: 1200,
        };
        match workload {
            // Set-up here is a one-day warm-up of the cloud (~0.15 s),
            // so more set-ups keep its median steady.
            Workload::LivePipeline => Params {
                tick_rate: 200.0,
                setups: 15,
                ..base
            },
            Workload::IngestPublish => Params {
                history: 1_000_000,
                ingest_rate: 20_000.0,
                ..base
            },
            Workload::ServeRead => Params {
                history: 1_000_000,
                read_rate: 500.0,
                publish_every: Duration::from_secs(5),
                checkpoint_every: None,
                cycle: Duration::from_secs(5),
                ..base
            },
        }
    }

    /// A seconds-long version with the same shape, for the benchmark's
    /// own tests.
    #[cfg(test)]
    pub fn smoke(workload: Workload) -> Params {
        let full = Params::full(workload);
        Params {
            history: full.history / 50,
            ingest_rate: full.ingest_rate / 10.0,
            tick_rate: full.tick_rate / 2.0,
            read_rate: 200.0,
            publish_every: Duration::from_millis(100),
            checkpoint_every: full.checkpoint_every.map(|_| Duration::from_millis(400)),
            cycle: Duration::from_millis(400),
            capacity_for: Duration::from_millis(400),
            write_for: Duration::from_millis(400),
            setups: 2,
            checks_per_route: 2,
            query_replay: 60,
            ..full
        }
    }
}

/// Server settings: the library defaults (four drainers, so two
/// keep-alive clients never occupy every pool thread), with keep-alive
/// connections that live for the whole run.
fn server_config() -> ServerConfig {
    ServerConfig {
        max_requests_per_conn: u64::MAX,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// A running pipeline.
pub struct Rig {
    dir: PathBuf,
    store: SharedStore,
    hub: Arc<SnapshotHub>,
    server: Server,
    cloud: Option<Cloud>,
    stream: Option<RecordStream>,
    as_of: u64,
}

/// Builds the pipeline: durable store (seeded with `history` records
/// through `record_*`), cloud (live only), first snapshot, HTTP server.
pub fn setup(p: &Params, seed: u64, dir: &Path) -> Rig {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear the store directory");
    }
    std::fs::create_dir_all(dir.parent().expect("store dir has a parent"))
        .expect("create the data directory");
    let store: SharedStore = Arc::new(
        DataStore::create_durable(dir, DurableOptions::default()).expect("create durable store"),
    );
    let mut stream = None;
    if p.history > 0 {
        let mut s = RecordStream::new(Keys::standard(seed), seed);
        for rec in s.by_ref().take(p.history as usize) {
            rec.apply(&store);
        }
        stream = Some(s);
    }
    let cloud = (p.workload == Workload::LivePipeline).then(|| {
        let mut cloud = Cloud::new(Catalog::standard(), SimConfig::paper(seed));
        cloud.warmup(288);
        cloud
    });
    let as_of = match (&cloud, &stream) {
        (Some(c), _) => c.now(),
        (None, Some(s)) => s.now(),
        (None, None) => SimTime::ZERO,
    }
    .as_secs()
    .max(1);
    let hub = Arc::new(SnapshotHub::new(store.snapshot(SimTime::from_secs(as_of))));
    let server = Server::start("127.0.0.1:0", &store, Arc::clone(&hub), server_config())
        .expect("start the HTTP server");
    Rig {
        dir: dir.to_path_buf(),
        store,
        hub,
        server,
        cloud,
        stream,
        as_of,
    }
}

/// Stops a rig that is not measured further and deletes its files.
pub fn discard(rig: Rig) {
    let report = rig.server.drain(Duration::from_secs(5));
    assert!(!report.forced, "server failed to drain");
    drop(rig.store);
    drop(rig.hub);
    let _ = std::fs::remove_dir_all(&rig.dir);
}

/// Totals over the `run_live` segments of a window.
#[derive(Debug, Clone, Default)]
pub struct LiveTotals {
    pub run_ns: u64,
    pub ticks: u64,
    pub probes: u64,
    pub retries: u64,
    pub abandoned: u64,
    pub breaker_trips: u64,
    pub worker_panics: u64,
    pub io_errors: u64,
}

/// Everything a window measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub window_ns: u64,
    /// Probes the store accepted during the window (`DataStore::len` delta).
    pub probes: u64,
    /// Benchmark record calls, due → return (ns), in the window, by due time.
    pub ingest: Timed,
    /// Marker write return → first answer including it (ns), by due time.
    pub freshness: Timed,
    /// Mix reads, due → response (ns), by due time.
    pub reads: Timed,
    /// Mix reads by route, send → response (ns).
    pub read_service: Vec<Samples>,
    pub publish_ns: Samples,
    pub checkpoint_ns: Samples,
    pub flush_ns: u64,
    pub live: LiveTotals,
    /// `(end, markers in the published snapshot)` per publish (traced).
    pub publishes: Vec<(u64, u64)>,
    /// `(answer time, markers in the answer)` per marker poll (traced).
    pub polls: Vec<(u64, u64)>,
    pub lag: Samples,
    pub backlog_max: u64,
    pub markers_written: u64,
    pub server: StatsSnapshot,
    pub durable_before: DurabilityStats,
    pub durable_after: DurabilityStats,
    pub disk_bytes: u64,
    pub resident_records: u64,
    pub resident_bytes: u64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, described.
    pub violations: Vec<String>,
    /// Closed-loop read throughput on the final snapshot (1/s).
    pub read_capacity: f64,
    /// Records written in the closed-loop write phase, and their rate
    /// (1/s).
    pub write_records: u64,
    pub write_capacity: f64,
    /// Direct `SpotLightQuery` time per route (traced), ns.
    pub query_ns: Vec<Samples>,
    pub trace: Trace,
}

/// State shared by the window's threads.
struct Ctx<'a> {
    origin: Instant,
    store: &'a DataStore,
    /// Stops the reader (at the window's end).
    stop_reads: AtomicBool,
    /// Stops the publisher and the checkpointer.
    stop_maint: AtomicBool,
    /// Stops the writer.
    stop_writes: AtomicBool,
    /// End of the measured window (ns from origin); `u64::MAX` until known.
    window_end: AtomicU64,
    /// The publisher's "now" for snapshots, in simulated seconds.
    as_of: AtomicU64,
    /// When each marker's `record_probe` returned (ns from origin; 0:
    /// not yet). Marker `k` is due at `k × MARKER_EVERY`.
    marker_written: Box<[AtomicU64]>,
    trace: bool,
}

impl Ctx<'_> {
    fn in_window(&self, due: u64) -> bool {
        due < self.window_end.load(Ordering::Relaxed)
    }
}

fn marker_due(k: u64) -> u64 {
    k * MARKER_EVERY.as_nanos() as u64
}

fn marker_path() -> String {
    format!(
        "/v1/availability?market={}&kind=od",
        spotlight_serve::market_param(marker_market())
    )
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr(), Duration::from_secs(5)).expect("connect to the server")
}

/// What the writer thread saw.
struct WriterOut {
    tracer: Tracer,
    ingest: Timed,
    markers: Schedule,
    gen: Option<Schedule>,
    attempted: u64,
    /// The record stream, handed back for the write phase.
    stream: Option<RecordStream>,
}

/// Writes the marker probes and, with a generator, the offered record
/// stream — all through `record_*`, each timed from its due time.
fn writer(ctx: &Ctx, mut stream: Option<RecordStream>, rate: f64) -> WriterOut {
    let origin = ctx.origin;
    let mut out = WriterOut {
        tracer: Tracer::new(ctx.trace, origin),
        ingest: Timed::default(),
        markers: Schedule::every(MARKER_EVERY, Duration::ZERO),
        gen: (rate > 0.0).then(|| Schedule::per_second(rate, Duration::ZERO)),
        attempted: 0,
        stream: None,
    };
    let capacity = ctx.marker_written.len() as u64;
    let mut waiter = Waiter::new(origin);
    let stop = || ctx.stop_writes.load(Ordering::Relaxed);
    while !stop() {
        if let (Some(gen), Some(s)) = (out.gen.as_mut(), stream.as_mut()) {
            let now = now_ns(origin);
            for _ in 0..BURST_CAP {
                let Some((_, due)) = gen.take(now) else { break };
                let rec = s.next().expect("the record stream is unbounded");
                let t0 = now_ns(origin);
                rec.apply(ctx.store);
                let t1 = now_ns(origin);
                out.tracer.record("store.record", t0, t1, ROOT);
                out.attempted += 1;
                if ctx.in_window(due) {
                    out.ingest.push(due, t1 - waiter.charge_from(due));
                }
            }
            ctx.as_of.fetch_max(s.now().as_secs(), Ordering::Relaxed);
        }
        let room = out.markers.started() < capacity;
        if let Some((i, due)) = out.markers.take(now_ns(origin)).filter(|_| room) {
            let t0 = now_ns(origin);
            ctx.store.record_probe(marker_probe(i));
            let t1 = now_ns(origin);
            ctx.marker_written[i as usize].store(t1.max(1), Ordering::Release);
            let span = out.tracer.record("marker.write", due, t1, ROOT);
            out.tracer.record("store.record", t0, t1, span);
            out.attempted += 1;
            if ctx.in_window(due) {
                out.ingest.push(due, t1 - waiter.charge_from(due));
            }
        }
        let mut next = if room {
            out.markers.next_due()
        } else {
            u64::MAX
        };
        if let Some(gen) = &out.gen {
            next = next.min(gen.next_due());
        }
        waiter.wait_until(next, &stop);
    }
    out.stream = stream;
    out
}

/// The reader's marker polling: its own connection and schedule.
struct MarkerPoll<'a> {
    ctx: &'a Ctx<'a>,
    conn: Client,
    sched: Schedule,
    /// Most markers any answer on this connection has shown.
    seen: u64,
}

/// What the reader thread saw.
struct ReaderOut {
    tracer: Tracer,
    reads: Timed,
    service: Vec<Samples>,
    sched: Schedule,
    /// Reads that fell due but had not started when the reader stopped.
    unstarted: u64,
    attempted: u64,
    failed: u64,
    /// Marker write return → first answer including it (ns), by due time.
    freshness: Timed,
    /// `(answer time, markers in the answer)` per poll (traced).
    polls: Vec<(u64, u64)>,
    violations: Vec<String>,
}

/// Drives the read mix open-loop at `rate` over one keep-alive
/// connection — and, given `markers`, polls the marker market over a
/// second — until `stop` says so. Each read is timed from its due time.
fn reader(
    origin: Instant,
    trace: bool,
    conn: &mut Client,
    mix: &mut Mix,
    rate: f64,
    stop: &dyn Fn() -> bool,
    mut markers: Option<MarkerPoll>,
) -> ReaderOut {
    let phase = Duration::from_nanos(now_ns(origin));
    let mut out = ReaderOut {
        tracer: Tracer::new(trace, origin),
        reads: Timed::default(),
        service: vec![Samples::default(); Route::ALL.len()],
        sched: Schedule::per_second(rate, phase),
        unstarted: 0,
        attempted: 0,
        failed: 0,
        freshness: Timed::default(),
        polls: Vec::new(),
        violations: Vec::new(),
    };
    let mut waiter = Waiter::new(origin);
    loop {
        let mut next = out.sched.next_due();
        if let Some(m) = &markers {
            next = next.min(m.sched.next_due());
        }
        waiter.wait_until(next, stop);
        if stop() {
            // Reads that fell due but never started still waited: count
            // each with the wait it had so far.
            let now = now_ns(origin);
            while let Some((_, due)) = out.sched.take(now) {
                out.reads.push(due, now - due);
                out.unstarted += 1;
            }
            break;
        }
        if let Some(m) = markers.as_mut() {
            if m.sched.take(now_ns(origin)).is_some() {
                poll_markers(m, &mut out);
            }
        }
        let Some((_, due)) = out.sched.take(now_ns(origin)) else {
            continue;
        };
        let req = mix.next().expect("the mix is unbounded");
        out.attempted += 1;
        let t0 = now_ns(origin);
        let ok = matches!(conn.get(&req.path()), Ok(resp) if resp.status == 200);
        let t1 = now_ns(origin);
        out.tracer.record(req.route.name(), t0, t1, ROOT);
        if ok {
            out.reads.push(due, t1 - waiter.charge_from(due));
            out.service[req.route.index()].push(t1 - t0);
        } else {
            out.failed += 1;
        }
    }
    out
}

/// One marker poll: how many markers the current answer includes, and
/// the freshness of each marker it shows for the first time.
fn poll_markers(m: &mut MarkerPoll, out: &mut ReaderOut) {
    let ctx = m.ctx;
    out.attempted += 1;
    let t0 = now_ns(ctx.origin);
    let count = match m.conn.get(&marker_path()) {
        Ok(resp) if resp.status == 200 => availability_probes(&resp.body),
        _ => None,
    };
    let t1 = now_ns(ctx.origin);
    out.tracer.record("http.marker", t0, t1, ROOT);
    let Some(count) = count else {
        out.failed += 1;
        return;
    };
    if count < m.seen {
        out.violations.push(format!(
            "marker count went backwards on the polling connection: {} then {count}",
            m.seen
        ));
        return;
    }
    if count > ctx.marker_written.len() as u64 {
        out.violations.push(format!(
            "an answer shows {count} markers, more than were written"
        ));
        return;
    }
    for k in m.seen..count {
        // A marker can be visible a moment before its writer stores the
        // return time; wait for it.
        let slot = &ctx.marker_written[k as usize];
        let spin = Instant::now();
        let written = loop {
            match slot.load(Ordering::Acquire) {
                0 if spin.elapsed() < Duration::from_secs(1) => std::thread::yield_now(),
                w => break w,
            }
        };
        if written == 0 {
            out.violations.push(format!(
                "marker {k} is visible but its write never returned"
            ));
        } else if ctx.in_window(marker_due(k)) {
            out.freshness
                .push(marker_due(k), t1.saturating_sub(written));
        }
    }
    m.seen = count;
    if ctx.trace {
        out.polls.push((t1, count));
    }
}

/// What one maintenance loop did.
struct Cadence {
    tracer: Tracer,
    durations: Samples,
    failures: u64,
}

/// Runs `task` at `first` and then every `every` (offsets from
/// `origin`) until `stop` is set — one of the loops a deployed daemon
/// runs beside ingest (publish, checkpoint). `task` reports success.
fn cadence(
    origin: Instant,
    trace: bool,
    stop: &AtomicBool,
    first: Duration,
    every: Duration,
    name: &'static str,
    mut task: impl FnMut() -> bool,
) -> Cadence {
    let mut out = Cadence {
        tracer: Tracer::new(trace, origin),
        durations: Samples::default(),
        failures: 0,
    };
    let mut sched = Schedule::every(every, first);
    let mut waiter = Waiter::new(origin);
    let stop = || stop.load(Ordering::Relaxed);
    loop {
        waiter.wait_until(sched.next_due(), &stop);
        if stop() {
            break;
        }
        if sched.take(now_ns(origin)).is_some() {
            let t0 = now_ns(origin);
            let ok = task();
            let t1 = now_ns(origin);
            out.tracer.record(name, t0, t1, ROOT);
            out.durations.push(t1 - t0);
            out.failures += u64::from(!ok);
        }
    }
    out
}

/// Process CPU time (user + system), in seconds.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime, in USER_HZ (100 per second on Linux).
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of the process so far, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one `run_live` segment on `cloud` and adds its report to
/// `totals`; `as_of` becomes the segment's end.
fn live_segment(
    cloud: Cloud,
    store: &SharedStore,
    as_of: &AtomicU64,
    origin: Instant,
    tracer: &mut Tracer,
    totals: &mut LiveTotals,
) -> Cloud {
    as_of.store((cloud.now() + LIVE_SEGMENT).as_secs(), Ordering::Relaxed);
    let config = LiveConfig {
        duration: LIVE_SEGMENT,
        ..LiveConfig::default()
    };
    let t0 = now_ns(origin);
    let (cloud, rep) = run_live(cloud, Arc::clone(store), config);
    let t1 = now_ns(origin);
    tracer.record("manager.run_live", t0, t1, ROOT);
    totals.run_ns += t1 - t0;
    totals.ticks += rep.ticks;
    totals.probes += rep.probes as u64;
    totals.retries += rep.retries_issued;
    totals.abandoned += rep.probes_abandoned;
    totals.breaker_trips += rep.breaker_trips;
    totals.worker_panics += rep.worker_panics;
    totals.io_errors += rep.durable_io_errors;
    cloud
}

/// Runs the measured window on `rig` for about `window`, then the
/// end-of-run checks, the closed-loop read and write phases, and shuts
/// the rig down (close + recover).
pub fn run(p: &Params, seed: u64, window: Duration, trace: bool, mut rig: Rig) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome {
        durable_before: rig.store.durability_stats().unwrap_or_default(),
        ..Outcome::default()
    };
    // Room for every marker of the window and the wind-down after it.
    let markers = (window + Duration::from_secs(120)).as_nanos() / MARKER_EVERY.as_nanos();
    let ctx = Ctx {
        origin,
        store: &rig.store,
        stop_reads: AtomicBool::new(false),
        stop_maint: AtomicBool::new(false),
        stop_writes: AtomicBool::new(false),
        window_end: AtomicU64::new(u64::MAX),
        as_of: AtomicU64::new(rig.as_of),
        marker_written: (0..markers).map(|_| AtomicU64::new(0)).collect(),
        trace,
    };
    let keys = Keys::standard(seed);
    let mut mix = Mix::new(keys.clone(), seed, 0);
    let mut read_conn = connect(&rig.server);
    let marker_conn = connect(&rig.server);
    let len0 = rig.store.len() as u64;
    let cpu0 = cpu_seconds();
    let mut main_tracer = Tracer::new(trace, origin);
    let stream = rig.stream.take();
    let mut cloud = rig.cloud.take();
    let hub = Arc::clone(&rig.hub);
    let store = &rig.store;
    let (w, r, publ, ckpt) = std::thread::scope(|s| {
        let ctx = &ctx;
        let writer = s.spawn(move || writer(ctx, stream, p.ingest_rate));
        let publisher = s.spawn(|| {
            let mut log = Vec::new();
            let every = p.publish_every;
            let c = cadence(
                origin,
                trace,
                &ctx.stop_maint,
                every,
                every,
                "snapshot.publish",
                || {
                    hub.republish(
                        ctx.store,
                        SimTime::from_secs(ctx.as_of.load(Ordering::Relaxed)),
                    );
                    if trace {
                        let markers = hub
                            .load()
                            .read()
                            .probe_stats(marker_market(), ProbeKind::OnDemand)
                            .informative;
                        log.push((now_ns(origin), markers));
                    }
                    true
                },
            );
            (c, log)
        });
        let checkpointer = p.checkpoint_every.map(|every| {
            s.spawn(move || {
                cadence(
                    origin,
                    trace,
                    &ctx.stop_maint,
                    every / 2 - CHECKPOINT_LEAD,
                    every,
                    "durable.checkpoint",
                    || ctx.store.checkpoint().is_ok(),
                )
            })
        });
        let reader = s.spawn(|| {
            let stop = || ctx.stop_reads.load(Ordering::Relaxed);
            let markers = MarkerPoll {
                ctx,
                conn: marker_conn,
                sched: Schedule::every(POLL_EVERY, POLL_EVERY / 2),
                seen: 0,
            };
            reader(
                origin,
                trace,
                &mut read_conn,
                &mut mix,
                p.read_rate,
                &stop,
                Some(markers),
            )
        });
        let end_ns = now_ns(origin) + window.as_nanos() as u64;
        match cloud.take() {
            Some(mut c) => {
                // The collector runs paced, as deployed: segment `i` is
                // due at `i × 24 / tick_rate` seconds.
                let mut segments =
                    Schedule::per_second(p.tick_rate / LIVE_SEGMENT_TICKS, Duration::ZERO);
                let mut waiter = Waiter::new(origin);
                while segments.next_due() < end_ns {
                    waiter.wait_until(segments.next_due(), &|| false);
                    segments.take(now_ns(origin));
                    c = live_segment(
                        c,
                        store,
                        &ctx.as_of,
                        origin,
                        &mut main_tracer,
                        &mut out.live,
                    );
                }
                waiter.wait_until(end_ns, &|| false);
                // A collector that ran under 95% of its due segments did
                // not keep pace; a segment or two still running at the
                // window's end is only the last stall.
                let due = segments.due_by(end_ns);
                if segments.started() * 20 < due * 19 {
                    out.violations.push(format!(
                        "the live collector ran {} of the {due} segments due in the window",
                        segments.started()
                    ));
                }
                cloud = Some(c);
            }
            None => Waiter::new(origin).wait_until(end_ns, &|| false),
        }
        let window_end = now_ns(origin);
        ctx.window_end.store(window_end, Ordering::Relaxed);
        ctx.stop_reads.store(true, Ordering::Relaxed);
        ctx.stop_maint.store(true, Ordering::Relaxed);
        out.window_ns = window_end;
        out.probes = store.len() as u64 - len0;
        out.cpu_s = cpu_seconds() - cpu0;
        out.peak_rss_mb = peak_rss_mb();
        let r = reader.join().expect("reader thread");
        let publ = publisher.join().expect("publisher thread");
        let ckpt = checkpointer.map(|c| c.join().expect("checkpoint thread"));
        // One more checkpoint while the writer still writes markers, so
        // every workload measures ingest during a checkpoint.
        let t0 = now_ns(origin);
        let res = store.checkpoint();
        let t1 = now_ns(origin);
        main_tracer.record("durable.checkpoint", t0, t1, ROOT);
        out.checkpoint_ns.push(t1 - t0);
        if let Err(e) = res {
            out.violations.push(format!("final checkpoint failed: {e}"));
        }
        ctx.stop_writes.store(true, Ordering::Relaxed);
        let w = writer.join().expect("writer thread");
        (w, r, publ, ckpt)
    });
    rig.as_of = rig.as_of.max(ctx.as_of.load(Ordering::Relaxed));
    rig.cloud = cloud;
    // Close the reader's connection so the server can drain.
    drop(read_conn);

    // Gather the window's samples.
    let (publ, publishes) = publ;
    out.publish_ns = publ.durations;
    out.publishes = publishes;
    out.ingest = w.ingest;
    out.markers_written = w.markers.started();
    out.freshness = r.freshness;
    out.polls = r.polls;
    out.reads = r.reads;
    out.read_service = r.service;
    for sched in [Some(&w.markers), w.gen.as_ref(), Some(&r.sched)]
        .into_iter()
        .flatten()
    {
        out.lag.extend(&sched.lag);
        out.backlog_max = out.backlog_max.max(sched.backlog_max);
    }
    out.attempted += w.attempted + r.attempted;
    out.failed += r.failed;
    out.violations.extend(r.violations);
    // A generator that fell behind measured itself, not the pipeline.
    if let Some(gen) = &w.gen {
        let due = gen.due_by(out.window_ns);
        if gen.started() < due {
            out.violations.push(format!(
                "generator lagged: started {} of {due} records due in the window",
                gen.started()
            ));
        }
    }
    if r.unstarted > 2.max(r.attempted / 100) {
        out.violations.push(format!(
            "reader lagged: {} of {} reads had not started at the window end",
            r.unstarted, r.attempted
        ));
    }
    if let Some(c) = &ckpt {
        out.checkpoint_ns.extend(&c.durations);
        if c.failures > 0 {
            out.violations
                .push(format!("{} checkpoints failed", c.failures));
        }
    }
    out.server = rig.server.stats();
    rig.stream = w.stream;

    check_answers(p, seed, &rig, &mut out, &mut main_tracer);
    read_capacity(p, seed, &rig, &mut out);
    if trace {
        replay_queries(p, seed, &rig, &mut out);
    }
    main_tracer.time("phase.write", ROOT, || {
        write_capacity(p, seed, &mut rig, &mut out)
    });
    out.trace.add("writer", w.tracer);
    out.trace.add("reader", r.tracer);
    out.trace.add("publisher", publ.tracer);
    if let Some(c) = ckpt {
        out.trace.add("checkpointer", c.tracer);
    }
    finish(rig, &mut out, &mut main_tracer);
    out.trace.add("main", main_tracer);
    out
}

/// After a final publish, sampled answers for every route must equal
/// direct `SpotLightQuery` results on the same snapshot, and every
/// acknowledged marker must be visible.
fn check_answers(p: &Params, seed: u64, rig: &Rig, out: &mut Outcome, tracer: &mut Tracer) {
    let as_of = SimTime::from_secs(rig.as_of);
    tracer.time("snapshot.publish", ROOT, || {
        rig.hub.republish(&rig.store, as_of)
    });
    let snap = rig.hub.load();
    let visible = snap
        .read()
        .probe_stats(marker_market(), ProbeKind::OnDemand)
        .informative;
    if visible != out.markers_written {
        out.violations.push(format!(
            "{} markers acknowledged but {visible} visible after the final publish",
            out.markers_written
        ));
    }
    let mut conn = connect(&rig.server);
    let mut mix = Mix::new(Keys::standard(seed), seed, 1);
    for route in Route::ALL {
        for _ in 0..p.checks_per_route {
            let req = mix.request_for(route);
            out.attempted += 1;
            let want = req.answer(&snap);
            match conn.get(&req.path()) {
                Ok(resp) if resp.status == 200 => {
                    if let Some(missing) = want.iter().find(|f| !has_field(&resp.body, f)) {
                        out.failed += 1;
                        out.violations.push(format!(
                            "{} answered {} without the direct result {missing}",
                            req.path(),
                            resp.body
                        ));
                    }
                }
                other => {
                    out.failed += 1;
                    out.violations
                        .push(format!("{} failed: {other:?}", req.path()));
                }
            }
        }
    }
}

/// Bursts the read and write phases are split into, and the pause
/// between bursts.
const READ_BURSTS: u32 = 8;
const WRITE_BURSTS: u32 = 16;
const BURST_GAP: Duration = Duration::from_millis(500);
/// The quantile of the deck or burst times that sets a capacity: the
/// fastest tenth of the phase, see [`read_capacity`].
const FAST_TENTH: f64 = 0.1;

/// The read mix's capacity on the final snapshot, closed-loop: each
/// of [`CAPACITY_CONNS`] connections keeps [`PIPELINE`] requests in
/// flight, so the service is saturated and no backlog can grow beyond
/// the pipelines. Every deck of the mix costs about the same (see
/// [`Mix`]), so a connection's rate is a deck over its deck time, and
/// the capacity is the sum over connections. On a shared 2-vCPU host
/// the same deck (on `live_pipeline`) takes either ~50 or ~80 ms, in
/// spells of seconds whose cause the guest cannot see (steal time stays
/// under 1%), and how much of a run falls in slow spells is luck. So
/// the phase runs as [`READ_BURSTS`] bursts of whole decks,
/// `capacity_for` in all, [`BURST_GAP`] apart, to meet several spells,
/// and the deck time taken is the fastest tenth's ([`FAST_TENTH`]): the
/// service's speed when the host lets it run. The first deck warms the
/// caches and is left out. A phase too short for three decks a
/// connection falls back to completions over time.
fn read_capacity(p: &Params, seed: u64, rig: &Rig, out: &mut Outcome) {
    let burst = p.capacity_for / READ_BURSTS;
    let runs: Vec<(Samples, u64, u64, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CAPACITY_CONNS)
            .map(|i| {
                s.spawn(move || {
                    let mut conn = connect(&rig.server);
                    let mut mix = Mix::new(Keys::standard(seed), seed, 2 + i as u64);
                    let mut decks = Samples::default();
                    let (mut done, mut failed) = (0u64, 0u64);
                    let mut busy = Duration::ZERO;
                    'bursts: for b in 0..READ_BURSTS {
                        if b > 0 {
                            std::thread::sleep(BURST_GAP);
                        }
                        let start = Instant::now();
                        let mut deck_start = start;
                        let mut in_deck = 0;
                        while start.elapsed() < burst || in_deck > 0 {
                            let batch = PIPELINE.min(DECK - in_deck);
                            let mut sent = 0;
                            for req in mix.by_ref().take(batch) {
                                if conn.send_get(&req.path()).is_err() {
                                    break;
                                }
                                sent += 1;
                            }
                            for _ in 0..sent {
                                match conn.read_response() {
                                    Ok(resp) if resp.status == 200 => done += 1,
                                    _ => failed += 1,
                                }
                            }
                            if sent < batch {
                                failed += 1;
                                break 'bursts;
                            }
                            in_deck += sent;
                            if in_deck == DECK {
                                let now = Instant::now();
                                if b > 0 || deck_start > start {
                                    decks.push((now - deck_start).as_nanos() as u64);
                                }
                                deck_start = now;
                                in_deck = 0;
                            }
                        }
                        busy += start.elapsed();
                    }
                    (decks, done, failed, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capacity client"))
            .collect()
    });
    out.read_capacity = 0.0;
    for (mut decks, done, failed, busy) in runs {
        out.attempted += done + failed;
        out.failed += failed;
        out.read_capacity += match decks.quantile(FAST_TENTH) {
            Some(t) if decks.len() >= 2 => DECK as f64 / (t as f64 / 1e9),
            _ => done as f64 / busy.as_secs_f64().max(1e-9),
        };
    }
}

/// The closed-loop write phase that ends a run: one thread writes the
/// record stream (on `live_pipeline`, a stream starting at the cloud's
/// clock) back to back through `record_*`, in [`WRITE_BURSTS`] bursts
/// of `write_for` in all, [`BURST_GAP`] apart, and the capacity is the
/// rate of the fastest tenth's burst (see [`read_capacity`] for why). No
/// publish or checkpoint runs beside it: their effect on ingest shows
/// in freshness and in the per-layer record timings, where here one
/// checkpoint's length, which follows the disk, would set the figure.
/// The phase comes last because it grows the store by millions of
/// records, which would shift the read phase and the checks.
fn write_capacity(p: &Params, seed: u64, rig: &mut Rig, out: &mut Outcome) {
    let mut records = rig.stream.take().unwrap_or_else(|| {
        RecordStream::starting_at(Keys::standard(seed), seed, SimTime::from_secs(rig.as_of))
    });
    let burst = p.write_for / WRITE_BURSTS;
    // Nanoseconds per thousand records, per burst.
    let mut times = Samples::default();
    for b in 0..WRITE_BURSTS {
        if b > 0 {
            std::thread::sleep(BURST_GAP);
        }
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed() < burst {
            for rec in records.by_ref().take(BURST_CAP) {
                rec.apply(&rig.store);
            }
            n += BURST_CAP as u64;
        }
        out.write_records += n;
        times.push(start.elapsed().as_nanos() as u64 * 1000 / n);
    }
    rig.as_of = rig.as_of.max(records.now().as_secs());
    out.write_capacity = match times.quantile(FAST_TENTH) {
        Some(t) if t > 0 => 1e12 / t as f64,
        _ => 0.0,
    };
}

/// Times the reader's request mix as direct `SpotLightQuery` calls on
/// the final snapshot — the query layer without HTTP.
fn replay_queries(p: &Params, seed: u64, rig: &Rig, out: &mut Outcome) {
    let snap = rig.hub.load();
    out.query_ns = vec![Samples::default(); Route::ALL.len()];
    for req in Mix::new(Keys::standard(seed), seed, 0).take(p.query_replay) {
        let t0 = Instant::now();
        std::hint::black_box(req.answer(std::hint::black_box(&snap)));
        out.query_ns[req.route.index()].push(t0.elapsed().as_nanos() as u64);
    }
}

/// Drains the server, flushes, closes the store and recovers it: the
/// recovered store must hold every probe and replay nothing.
fn finish(rig: Rig, out: &mut Outcome, tracer: &mut Tracer) {
    let Rig {
        dir,
        store,
        hub,
        server,
        ..
    } = rig;
    let drain = server.drain(Duration::from_secs(5));
    if drain.forced {
        out.violations.push("server drain was forced".into());
    }
    let stats = drain.stats;
    if stats.responses_5xx > 0 || stats.panics > 0 {
        out.violations.push(format!(
            "server answered {} 5xx and caught {} panics",
            stats.responses_5xx, stats.panics
        ));
    }
    if out.live.worker_panics > 0 {
        out.violations
            .push(format!("{} live worker panics", out.live.worker_panics));
    }
    let t0 = Instant::now();
    let flushed = tracer.time("durable.flush", ROOT, || store.flush());
    out.flush_ns = t0.elapsed().as_nanos() as u64;
    if let Err(e) = flushed {
        out.violations.push(format!("flush failed: {e}"));
    }
    out.durable_after = store.durability_stats().unwrap_or_default();
    out.disk_bytes = store.disk_bytes().unwrap_or(0);
    out.resident_records = store.resident_records();
    out.resident_bytes = store.resident_bytes();
    let io_errors = out.durable_after.io_errors + out.live.io_errors;
    if io_errors > 0 || out.durable_after.dropped_frames > 0 {
        out.violations.push(format!(
            "{io_errors} persistence io errors, {} dropped frames",
            out.durable_after.dropped_frames
        ));
    }
    drop(hub);
    let len = store.len();
    let Ok(store) = Arc::try_unwrap(store) else {
        out.violations
            .push("the store is still shared after the server drained".into());
        return;
    };
    if let Err(e) = tracer.time("durable.close", ROOT, || store.close()) {
        out.violations.push(format!("close failed: {e}"));
    }
    match DataStore::recover_with_report(&dir, DurableOptions::default()) {
        Ok((recovered, info)) => {
            if recovered.len() != len || info.replayed_ops != 0 {
                out.violations.push(format!(
                    "recovery holds {} probes (want {len}) after replaying {} ops",
                    recovered.len(),
                    info.replayed_ops
                ));
            }
        }
        Err(e) => out.violations.push(format!("recovery failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
