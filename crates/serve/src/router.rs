//! Request routing: URL/query parsing, market-id wire format, and the
//! JSON endpoint handlers.
//!
//! Every query endpoint (`/v1/*`) answers from the current
//! [`StoreSnapshot`] via the worker's [`SnapshotReader`] — no store
//! locks, no contention with ingest. The health surfaces (`/healthz`,
//! `/readyz`) add the *live* store's durability mode, loss watermark
//! and degraded regions, read through a `Weak` handle so a drained
//! server can release the store for [`spotlight_core::DataStore::close`].
//! Those reads take only the store's durability and region-health
//! state, never a stripe lock, so health polling never stalls ingest.
//!
//! Markets travel as `az/type/platform` with short platform names
//! (`us-east-1a/c3.large/linux`) because the EC2 product descriptions
//! themselves contain `/`.

use crate::admission::ServerStats;
use cloud_sim::ids::{Az, InstanceType, MarketId, Platform, Region};
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::json;
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::{SnapshotHub, SnapshotReader, StoreSnapshot};
use spotlight_core::store::DataStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// Everything the router needs to answer a request.
#[derive(Debug)]
pub struct ServiceState {
    /// The snapshot publication point queries read through.
    pub hub: Arc<SnapshotHub>,
    /// The live store, for health surfaces only. `Weak` so drain can
    /// hand the last strong reference back to the owner for `close()`.
    pub store: Weak<DataStore>,
    /// Server counters (served by `/statz`).
    pub stats: Arc<ServerStats>,
    /// Set during graceful drain; flips `/readyz` to 503.
    pub draining: Arc<AtomicBool>,
    /// Advertised `Retry-After` for drain/overload 503s.
    pub retry_after_secs: u32,
}

/// One routed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteOutcome {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// `Retry-After` to advertise (503s).
    pub retry_after: Option<u32>,
}

fn ok(body: String) -> RouteOutcome {
    RouteOutcome {
        status: 200,
        body,
        retry_after: None,
    }
}

fn err(status: u16, message: &str) -> RouteOutcome {
    let mut body = String::new();
    json::object(&mut body, |o| o.str("error", message));
    RouteOutcome {
        status,
        body,
        retry_after: None,
    }
}

/// Routes one parsed request. Never panics on user input; every
/// malformed parameter is a 400 with a description.
pub fn route(
    path: &str,
    query: &str,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> RouteOutcome {
    match path {
        "/healthz" => healthz(state, reader),
        "/readyz" => readyz(state),
        "/statz" => statz(state),
        "/v1/availability" => availability(query, state, reader),
        "/v1/freshness" => freshness(query, state, reader),
        "/v1/spike-rates" => spike_rates(query, state, reader),
        "/v1/bid-spread" => bid_spread(query, state, reader),
        "/v1/advisor/top" => advisor_top(query, state, reader),
        "/v1/advisor/fallbacks" => advisor_fallbacks(query, state, reader),
        _ => err(404, "no such route"),
    }
}

// ---------------------------------------------------------------- params

/// Percent-decodes one query-string component (`+` means space).
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Finds and decodes one query parameter.
fn param(query: &str, name: &str) -> Result<Option<String>, RouteOutcome> {
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key == name {
            return percent_decode(value)
                .map(Some)
                .ok_or_else(|| err(400, &format!("malformed percent-encoding in '{name}'")));
        }
    }
    Ok(None)
}

fn u64_param(query: &str, name: &str, default: u64) -> Result<u64, RouteOutcome> {
    match param(query, name)? {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| err(400, &format!("'{name}' must be a non-negative integer"))),
    }
}

fn usize_param(query: &str, name: &str, default: usize) -> Result<usize, RouteOutcome> {
    u64_param(query, name, default as u64).map(|v| v as usize)
}

// ------------------------------------------------------------- market ids

const PLATFORMS: [(&str, Platform); 4] = [
    ("linux", Platform::LinuxUnix),
    ("linux-vpc", Platform::LinuxUnixVpc),
    ("windows", Platform::Windows),
    ("suse", Platform::SuseLinux),
];

/// The wire name of a platform (see the module docs).
pub fn platform_param(platform: Platform) -> &'static str {
    PLATFORMS
        .iter()
        .find(|(_, p)| *p == platform)
        .map(|(name, _)| *name)
        .expect("every platform has a wire name")
}

/// Formats a market for URLs and response bodies:
/// `us-east-1a/c3.large/linux`.
pub fn market_param(market: MarketId) -> String {
    format!(
        "{}/{}/{}",
        market.az,
        market.instance_type,
        platform_param(market.platform)
    )
}

/// Parses the `az/type/platform` wire format.
pub fn parse_market(s: &str) -> Result<MarketId, String> {
    let mut parts = s.split('/');
    let (Some(az), Some(ty), Some(platform), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(format!(
            "market '{s}' must be az/type/platform (e.g. us-east-1a/c3.large/linux)"
        ));
    };
    let az: Az = az.parse().map_err(|e| format!("{e}"))?;
    let instance_type: InstanceType = ty.parse().map_err(|e| format!("{e}"))?;
    let platform = PLATFORMS
        .iter()
        .find(|(name, _)| *name == platform)
        .map(|(_, p)| *p)
        .ok_or_else(|| {
            format!("unknown platform '{platform}' (linux, linux-vpc, windows, suse)")
        })?;
    Ok(MarketId {
        az,
        instance_type,
        platform,
    })
}

fn market_param_of(query: &str) -> Result<MarketId, RouteOutcome> {
    let Some(market) = param(query, "market")? else {
        return Err(err(400, "missing required parameter 'market'"));
    };
    parse_market(&market).map_err(|e| err(400, &e))
}

fn kind_param(query: &str) -> Result<ProbeKind, RouteOutcome> {
    match param(query, "kind")?.as_deref() {
        None | Some("od") | Some("on-demand") => Ok(ProbeKind::OnDemand),
        Some("spot") => Ok(ProbeKind::Spot),
        Some("notice") | Some("interruption") => Ok(ProbeKind::InterruptionNotice),
        Some(other) => Err(err(
            400,
            &format!("unknown kind '{other}' (od, spot, notice)"),
        )),
    }
}

fn kind_name(kind: ProbeKind) -> &'static str {
    match kind {
        ProbeKind::OnDemand => "od",
        ProbeKind::Spot => "spot",
        ProbeKind::InterruptionNotice => "notice",
    }
}

/// The observation span `[start, end)`: explicit `start_secs`/
/// `end_secs`, defaulting to `[0, snapshot.as_of)`.
fn span_params(query: &str, snapshot: &StoreSnapshot) -> Result<(SimTime, SimTime), RouteOutcome> {
    let start = u64_param(query, "start_secs", 0)?;
    let end = u64_param(query, "end_secs", snapshot.as_of().as_secs())?;
    if end <= start {
        return Err(err(
            400,
            "empty observation span: end_secs must exceed start_secs \
             (an unseeded store has as_of 0 — pass end_secs explicitly)",
        ));
    }
    Ok((SimTime::from_secs(start), SimTime::from_secs(end)))
}

// ------------------------------------------------------------- endpoints

fn availability(query: &str, state: &ServiceState, reader: &mut SnapshotReader) -> RouteOutcome {
    let market = match market_param_of(query) {
        Ok(m) => m,
        Err(e) => return e,
    };
    let kind = match kind_param(query) {
        Ok(k) => k,
        Err(e) => return e,
    };
    let snapshot = reader.current(&state.hub);
    let (start, end) = match span_params(query, snapshot) {
        Ok(span) => span,
        Err(e) => return e,
    };
    let q = SpotLightQuery::new(snapshot, start, end);
    let (stats, fresh) = q.availability_qualified(market, kind);
    let mut body = String::new();
    json::object(&mut body, |o| {
        o.str("market", &market_param(market));
        o.str("kind", kind_name(kind));
        o.u64("start_secs", start.as_secs());
        o.u64("end_secs", end.as_secs());
        o.value("availability", &stats);
        o.value("freshness", &fresh);
        o.u64("as_of_secs", snapshot.as_of().as_secs());
    });
    ok(body)
}

fn freshness(query: &str, state: &ServiceState, reader: &mut SnapshotReader) -> RouteOutcome {
    let market = match market_param_of(query) {
        Ok(m) => m,
        Err(e) => return e,
    };
    let kind = match kind_param(query) {
        Ok(k) => k,
        Err(e) => return e,
    };
    let snapshot = reader.current(&state.hub);
    let end = snapshot.as_of().max(SimTime::from_secs(1));
    let q = SpotLightQuery::new(snapshot, SimTime::ZERO, end);
    let fresh = q.freshness(market, kind);
    let mut body = String::new();
    json::object(&mut body, |o| {
        o.str("market", &market_param(market));
        o.str("kind", kind_name(kind));
        o.value("freshness", &fresh);
        o.u64("as_of_secs", snapshot.as_of().as_secs());
    });
    ok(body)
}

fn spike_rates(query: &str, state: &ServiceState, reader: &mut SnapshotReader) -> RouteOutcome {
    let thresholds = match param(query, "thresholds") {
        Ok(None) => vec![1.25, 1.5, 2.0, 5.0],
        Ok(Some(csv)) => {
            let mut out = Vec::new();
            for part in csv.split(',') {
                match part.trim().parse::<f64>() {
                    Ok(t) if t.is_finite() => out.push(t),
                    _ => return err(400, "'thresholds' must be comma-separated finite numbers"),
                }
            }
            if out.is_empty() {
                return err(400, "'thresholds' must name at least one threshold");
            }
            out
        }
        Err(e) => return e,
    };
    let window = match u64_param(query, "window_secs", 86_400) {
        Ok(0) => return err(400, "'window_secs' must be positive"),
        Ok(w) => SimDuration::from_secs(w),
        Err(e) => return e,
    };
    let snapshot = reader.current(&state.hub);
    let (start, end) = match span_params(query, snapshot) {
        Ok(span) => span,
        Err(e) => return e,
    };
    let q = SpotLightQuery::new(snapshot, start, end);
    let rates = q.spike_rates(&thresholds, window);
    let mut body = String::new();
    json::object(&mut body, |o| {
        o.u64("window_secs", window.as_secs());
        o.u64("start_secs", start.as_secs());
        o.u64("end_secs", end.as_secs());
        o.array("rates", |a| {
            for rate in &rates {
                a.object(|o| {
                    o.f64("threshold", rate.threshold);
                    o.f64("spikes_per_window", rate.spikes_per_window);
                });
            }
        });
    });
    ok(body)
}

fn bid_spread(query: &str, state: &ServiceState, reader: &mut SnapshotReader) -> RouteOutcome {
    let market = match market_param_of(query) {
        Ok(m) => m,
        Err(e) => return e,
    };
    let snapshot = reader.current(&state.hub);
    let mut observations = 0u64;
    let mut attempts_total = 0u64;
    let mut markup_total = 0.0f64;
    let mut markup_n = 0u64;
    let mut latest = None;
    for rec in snapshot.intrinsic_bids().filter(|r| r.market == market) {
        observations += 1;
        attempts_total += u64::from(rec.attempts);
        if rec.published != cloud_sim::price::Price::ZERO {
            markup_total += rec.intrinsic.ratio_to(rec.published);
            markup_n += 1;
        }
        if latest.is_none_or(|l: spotlight_core::store::IntrinsicBidRecord| l.at < rec.at) {
            latest = Some(*rec);
        }
    }
    let mut body = String::new();
    json::object(&mut body, |o| {
        o.str("market", &market_param(market));
        o.u64("observations", observations);
        if observations > 0 {
            o.f64("mean_attempts", attempts_total as f64 / observations as f64);
        } else {
            o.null("mean_attempts");
        }
        if markup_n > 0 {
            o.f64("mean_intrinsic_markup", markup_total / markup_n as f64);
        } else {
            o.null("mean_intrinsic_markup");
        }
        match latest {
            Some(rec) => o.object("latest", |o| {
                o.u64("at_secs", rec.at.as_secs());
                o.f64("published_dollars", rec.published.as_dollars());
                o.f64("intrinsic_dollars", rec.intrinsic.as_dollars());
                o.u64("attempts", u64::from(rec.attempts));
            }),
            None => o.null("latest"),
        }
        o.u64("as_of_secs", snapshot.as_of().as_secs());
    });
    ok(body)
}

fn advisor_top(query: &str, state: &ServiceState, reader: &mut SnapshotReader) -> RouteOutcome {
    let region = match param(query, "region") {
        Ok(None) => None,
        Ok(Some(name)) => match name.parse::<Region>() {
            Ok(r) => Some(r),
            Err(e) => return err(400, &format!("{e}")),
        },
        Err(e) => return e,
    };
    let min_probes = match u64_param(query, "min_probes", 1) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let n = match usize_param(query, "n", 10) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let snapshot = reader.current(&state.hub);
    let (start, end) = match span_params(query, snapshot) {
        Ok(span) => span,
        Err(e) => return e,
    };
    let mut candidates: Vec<MarketId> = snapshot.probed_markets().collect();
    candidates.sort_unstable();
    let q = SpotLightQuery::new(snapshot, start, end);
    let top = q.top_available_markets(&candidates, region, min_probes, n);
    let mut body = String::new();
    json::object(&mut body, |o| {
        o.u64("start_secs", start.as_secs());
        o.u64("end_secs", end.as_secs());
        o.u64("candidates", candidates.len() as u64);
        o.array("markets", |a| {
            for (market, stats) in &top {
                a.object(|o| {
                    o.str("market", &market_param(*market));
                    o.value("availability", stats);
                });
            }
        });
    });
    ok(body)
}

fn advisor_fallbacks(
    query: &str,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> RouteOutcome {
    let market = match market_param_of(query) {
        Ok(m) => m,
        Err(e) => return e,
    };
    let window = match u64_param(query, "window_secs", 900) {
        Ok(0) => return err(400, "'window_secs' must be positive"),
        Ok(w) => SimDuration::from_secs(w),
        Err(e) => return e,
    };
    let n = match usize_param(query, "n", 5) {
        Ok(v) => v,
        Err(e) => return e,
    };
    let snapshot = reader.current(&state.hub);
    let end = snapshot.as_of().max(SimTime::from_secs(1));
    let mut candidates: Vec<MarketId> = snapshot.probed_markets().collect();
    candidates.sort_unstable();
    let q = SpotLightQuery::new(snapshot, SimTime::ZERO, end);
    let fallbacks = q.uncorrelated_fallbacks(market, &candidates, window, n);
    let mut body = String::new();
    json::object(&mut body, |o| {
        o.str("market", &market_param(market));
        o.u64("window_secs", window.as_secs());
        o.array("fallbacks", |a| {
            for fallback in &fallbacks {
                a.str(&market_param(*fallback));
            }
        });
        o.u64("as_of_secs", snapshot.as_of().as_secs());
    });
    ok(body)
}

// --------------------------------------------------------------- health

/// The durability block `/healthz` and `/readyz` both print. Reads
/// only the store's durability state and its region-health lock, never
/// a stripe lock, so health polling does not stall ingest.
fn write_durability(o: &mut json::Object<'_>, store: &DataStore) {
    match store.durability_mode() {
        Some(mode) => o.value("durability_mode", &mode),
        None => o.str("durability_mode", "in-memory"),
    }
    o.opt_u64(
        "durability_lost_secs",
        store.durability_lost().map(|t| t.as_secs()),
    );
    o.array("degraded_regions", |a| {
        for region in store.degraded_regions() {
            a.str(region.name());
        }
    });
}

fn write_store_health(o: &mut json::Object<'_>, store: &Weak<DataStore>) {
    match store.upgrade() {
        Some(store) => o.object("store", |o| {
            o.bool("available", true);
            write_durability(o, &store);
            match store.durability_stats() {
                Some(stats) => o.value("durability", &stats),
                None => o.null("durability"),
            }
        }),
        None => o.object("store", |o| o.bool("available", false)),
    }
}

fn healthz(state: &ServiceState, reader: &mut SnapshotReader) -> RouteOutcome {
    let snapshot = reader.current(&state.hub);
    let mut body = String::new();
    json::object(&mut body, |o| {
        o.str("status", "ok");
        o.bool("draining", state.draining.load(Ordering::Relaxed));
        o.u64("snapshot_generation", state.hub.generation());
        o.object("snapshot", |o| {
            o.u64("as_of_secs", snapshot.as_of().as_secs());
            o.u64("probes", snapshot.len() as u64);
        });
        write_store_health(o, &state.store);
    });
    ok(body)
}

fn readyz(state: &ServiceState) -> RouteOutcome {
    let draining = state.draining.load(Ordering::Relaxed);
    let store = state.store.upgrade();
    if draining || store.is_none() {
        let mut body = String::new();
        json::object(&mut body, |o| {
            o.bool("ready", false);
            o.str("reason", if draining { "draining" } else { "store closed" });
        });
        return RouteOutcome {
            status: 503,
            body,
            retry_after: Some(state.retry_after_secs),
        };
    }
    let store = store.expect("checked above");
    let mut body = String::new();
    json::object(&mut body, |o| {
        o.bool("ready", true);
        write_durability(o, &store);
    });
    ok(body)
}

fn statz(state: &ServiceState) -> RouteOutcome {
    let mut body = String::new();
    state.stats.snapshot().write_json(&mut body);
    ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_sim::ids::Region;

    #[test]
    fn market_wire_format_round_trips() {
        for platform in Platform::ALL {
            let market = MarketId {
                az: Az::new(Region::EuWest1, 1),
                instance_type: "m3.xlarge".parse().unwrap(),
                platform,
            };
            assert_eq!(parse_market(&market_param(market)), Ok(market));
        }
        assert!(parse_market("nope").is_err());
        assert!(parse_market("us-east-1a/c3.large/os2").is_err());
        assert!(parse_market("us-east-1a/c3.large/linux/extra").is_err());
    }

    #[test]
    fn health_surfaces_read_degraded_regions_from_the_live_store() {
        let store = Arc::new(DataStore::new());
        let state = ServiceState {
            hub: Arc::new(SnapshotHub::new(store.snapshot(SimTime::ZERO))),
            store: Arc::downgrade(&store),
            stats: Arc::default(),
            draining: Arc::default(),
            retry_after_secs: 1,
        };
        // Marked after the only publish: the block must come from the
        // live store, not from the snapshot.
        store.mark_region_degraded(Region::EuWest1, SimTime::from_secs(5));
        let mut reader = SnapshotReader::new(&state.hub);
        for path in ["/healthz", "/readyz"] {
            let out = route(path, "", &state, &mut reader);
            assert_eq!(out.status, 200, "{path}: {}", out.body);
            for field in [
                r#""durability_mode":"in-memory""#,
                r#""durability_lost_secs":null"#,
                r#""degraded_regions":["eu-west-1"]"#,
            ] {
                assert!(
                    out.body.contains(field),
                    "{path} lacks {field}: {}",
                    out.body
                );
            }
        }
    }

    #[test]
    fn percent_decoding_handles_escapes() {
        assert_eq!(percent_decode("a%2Fb+c").as_deref(), Some("a/b c"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("bad%GG"), None);
        assert_eq!(percent_decode("trunc%2"), None);
    }
}
