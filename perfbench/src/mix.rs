//! The read mix over the hot `/v1/*` routes, and the direct
//! `SpotLightQuery` answer each request must carry.
//!
//! `/healthz` and `/readyz` stay out of the mix: they take every live
//! stripe read lock, so polling them would stall ingest and measure
//! the health surface instead of the query path.

use crate::gen::{Keys, Rng};
use cloud_sim::ids::MarketId;
use cloud_sim::price::Price;
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::json::{self, ToJson};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::StoreSnapshot;
use spotlight_serve::market_param;

/// The hot routes, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Availability,
    Freshness,
    SpikeRates,
    AdvisorTop,
    AdvisorFallbacks,
    BidSpread,
}

impl Route {
    pub const ALL: [Route; 6] = [
        Route::Availability,
        Route::Freshness,
        Route::SpikeRates,
        Route::AdvisorTop,
        Route::AdvisorFallbacks,
        Route::BidSpread,
    ];

    /// The route's name in metric names (`serve.<name>_us.p50`).
    pub fn name(self) -> &'static str {
        match self {
            Route::Availability => "availability",
            Route::Freshness => "freshness",
            Route::SpikeRates => "spike_rates",
            Route::AdvisorTop => "advisor_top",
            Route::AdvisorFallbacks => "advisor_fallbacks",
            Route::BidSpread => "bid_spread",
        }
    }

    pub fn index(self) -> usize {
        Route::ALL
            .iter()
            .position(|&r| r == self)
            .expect("every route is listed")
    }

    /// Share of the mix, in thousandths. The advisor routes scan every
    /// probed market, so they are the rare, heavy tail of the mix.
    fn weight(self) -> u64 {
        match self {
            Route::Availability => 470,
            Route::Freshness => 250,
            Route::SpikeRates => 100,
            Route::AdvisorTop => 10,
            Route::AdvisorFallbacks => 20,
            Route::BidSpread => 150,
        }
    }
}

/// One generated read.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub route: Route,
    market: MarketId,
    kind: ProbeKind,
    window_secs: u64,
}

impl Request {
    /// The request line's path and query.
    pub fn path(&self) -> String {
        let market = market_param(self.market);
        let kind = match self.kind {
            ProbeKind::Spot => "spot",
            _ => "od",
        };
        match self.route {
            Route::Availability => format!("/v1/availability?market={market}&kind={kind}"),
            Route::Freshness => format!("/v1/freshness?market={market}&kind={kind}"),
            Route::SpikeRates => format!("/v1/spike-rates?window_secs={}", self.window_secs),
            Route::AdvisorTop => "/v1/advisor/top?n=10".to_string(),
            Route::AdvisorFallbacks => format!(
                "/v1/advisor/fallbacks?market={market}&window_secs={}&n=5",
                self.window_secs
            ),
            Route::BidSpread => format!("/v1/bid-spread?market={market}"),
        }
    }

    /// Computes the answer directly with `SpotLightQuery` on `snap` and
    /// returns the JSON fragments the HTTP body must contain, each
    /// rendered with the same `ToJson`/`json` writers (see
    /// [`has_field`]). Bid-spread is not a `SpotLightQuery` call; its
    /// summary is recomputed from the snapshot's intrinsic-bid records.
    pub fn answer(&self, snap: &StoreSnapshot) -> Vec<String> {
        let read = snap.read();
        let end = snap.as_of().max(SimTime::from_secs(1));
        let q = SpotLightQuery::new(&read, SimTime::ZERO, end);
        let field = |key: &str, value: String| format!("\"{key}\":{value}");
        match self.route {
            Route::Availability => {
                let (stats, fresh) = q.availability_qualified(self.market, self.kind);
                vec![
                    field("availability", stats.to_json()),
                    field("freshness", fresh.to_json()),
                ]
            }
            Route::Freshness => {
                vec![field(
                    "freshness",
                    q.freshness(self.market, self.kind).to_json(),
                )]
            }
            Route::SpikeRates => {
                let rates = q.spike_rates(
                    &[1.25, 1.5, 2.0, 5.0],
                    SimDuration::from_secs(self.window_secs),
                );
                let mut out = String::new();
                json::array(&mut out, |a| {
                    for r in &rates {
                        a.object(|o| {
                            o.f64("threshold", r.threshold);
                            o.f64("spikes_per_window", r.spikes_per_window);
                        });
                    }
                });
                vec![field("rates", out)]
            }
            Route::AdvisorTop => {
                let mut candidates: Vec<MarketId> = read.probed_markets().collect();
                candidates.sort_unstable();
                let top = q.top_available_markets(&candidates, None, 1, 10);
                let mut out = String::new();
                json::array(&mut out, |a| {
                    for (market, stats) in &top {
                        a.object(|o| {
                            o.str("market", &market_param(*market));
                            o.value("availability", stats);
                        });
                    }
                });
                vec![
                    field("candidates", candidates.len().to_string()),
                    field("markets", out),
                ]
            }
            Route::AdvisorFallbacks => {
                let mut candidates: Vec<MarketId> = read.probed_markets().collect();
                candidates.sort_unstable();
                let fallbacks = q.uncorrelated_fallbacks(
                    self.market,
                    &candidates,
                    SimDuration::from_secs(self.window_secs),
                    5,
                );
                let mut out = String::new();
                json::array(&mut out, |a| {
                    for m in &fallbacks {
                        a.str(&market_param(*m));
                    }
                });
                vec![field("fallbacks", out)]
            }
            Route::BidSpread => {
                let (mut n, mut attempts, mut markup, mut markup_n) = (0u64, 0u64, 0.0, 0u64);
                for r in read.intrinsic_bids().filter(|r| r.market == self.market) {
                    n += 1;
                    attempts += u64::from(r.attempts);
                    if r.published != Price::ZERO {
                        markup += r.intrinsic.ratio_to(r.published);
                        markup_n += 1;
                    }
                }
                let mut out = String::new();
                json::object(&mut out, |o| {
                    o.u64("observations", n);
                    match n {
                        0 => o.null("mean_attempts"),
                        _ => o.f64("mean_attempts", attempts as f64 / n as f64),
                    }
                    match markup_n {
                        0 => o.null("mean_intrinsic_markup"),
                        _ => o.f64("mean_intrinsic_markup", markup / markup_n as f64),
                    }
                });
                // The three fields, in the order the route writes them.
                vec![out[1..out.len() - 1].to_string()]
            }
        }
    }
}

/// Requests per deck of the mix (the weights are in thousandths).
pub const DECK: usize = 1000;

/// The seeded read mix, dealt in decks of [`DECK`] requests. A deck
/// holds each route in exact proportion to its weight, and the markets
/// of each route are drawn stratified over the key skew (the `j`-th of
/// `n` draws from the `j`-th `1/n` of it), so every deck reaches the
/// hottest markets about equally often; the deck is then shuffled. A
/// fallback search on a hot market costs as much as thousands of
/// lookups, so with plain random draws the number of those searches,
/// not the service, would set a run's figures.
#[derive(Debug, Clone)]
pub struct Mix {
    keys: Keys,
    rng: Rng,
    deck: Vec<Request>,
}

impl Mix {
    pub fn new(keys: Keys, seed: u64, purpose: u64) -> Self {
        Mix {
            keys,
            rng: Rng::stream(seed, 100 + purpose),
            deck: Vec::with_capacity(DECK),
        }
    }

    /// A request for `route` with seeded parameters. Every route that
    /// names a market draws it with the key skew, so fallback searches
    /// land on hot markets (whose long histories make them the costliest
    /// requests) as often as lookups do.
    pub fn request_for(&mut self, route: Route) -> Request {
        let u = self.rng.unit();
        self.request_at(route, u)
    }

    /// A request for `route` on the market at quantile `u` of the skew.
    fn request_at(&mut self, route: Route, u: f64) -> Request {
        let market = self.keys.at(u);
        Request {
            route,
            market,
            kind: if self.rng.below(4) == 0 {
                ProbeKind::Spot
            } else {
                ProbeKind::OnDemand
            },
            window_secs: match route {
                Route::AdvisorFallbacks => 900,
                _ => [3_600, 86_400][self.rng.below(2) as usize],
            },
        }
    }
}

impl Iterator for Mix {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.deck.is_empty() {
            for route in Route::ALL {
                let n = route.weight();
                for j in 0..n {
                    let u = (j as f64 + self.rng.unit()) / n as f64;
                    let req = self.request_at(route, u);
                    self.deck.push(req);
                }
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        self.deck.pop()
    }
}

/// Whether `body` holds `fragment` as a whole JSON member or value:
/// followed by `,`, `}` or `]`, so `"observations":1` does not match
/// `"observations":12`.
pub fn has_field(body: &str, fragment: &str) -> bool {
    body.match_indices(fragment).any(|(at, _)| {
        matches!(
            body.as_bytes().get(at + fragment.len()),
            Some(b',' | b'}' | b']')
        )
    })
}

/// Reads `"availability":{"probes":N` out of an availability body —
/// how the marker reader learns how many markers an answer includes.
pub fn availability_probes(body: &str) -> Option<u64> {
    const KEY: &str = "\"availability\":{\"probes\":";
    let rest = &body[body.find(KEY)? + KEY.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_thousand() {
        assert_eq!(Route::ALL.iter().map(|r| r.weight()).sum::<u64>(), 1000);
    }

    #[test]
    fn every_deck_holds_the_routes_by_weight() {
        let mut mix = Mix::new(Keys::standard(9), 9, 0);
        for _ in 0..3 {
            let deck: Vec<Request> = mix.by_ref().take(DECK).collect();
            for route in Route::ALL {
                let n = deck.iter().filter(|r| r.route == route).count();
                assert_eq!(n as u64, route.weight(), "{route:?}");
            }
        }
    }

    #[test]
    fn the_mix_is_seeded_and_covers_every_route() {
        let keys = Keys::standard(5);
        let a: Vec<Request> = Mix::new(keys.clone(), 5, 0).take(3000).collect();
        let b: Vec<Request> = Mix::new(keys.clone(), 5, 0).take(3000).collect();
        assert_eq!(a, b);
        for route in Route::ALL {
            assert!(a.iter().any(|r| r.route == route), "{route:?} missing");
        }
        for r in &a {
            assert!(r.path().starts_with("/v1/"), "{}", r.path());
        }
    }

    #[test]
    fn fields_match_only_whole() {
        let body = "{\"observations\":12,\"mean_attempts\":2.5,\"n\":[1]}";
        assert!(has_field(body, "\"observations\":12"));
        assert!(!has_field(body, "\"observations\":1"));
        assert!(has_field(body, "\"mean_attempts\":2.5"));
        assert!(!has_field(body, "\"mean_attempts\":2"));
        assert!(has_field(body, "\"n\":[1]"));
        assert!(!has_field(body, "\"x\":1"));
    }

    #[test]
    fn marker_counts_parse_from_availability_bodies() {
        let body = "{\"market\":\"us-east-1z/c3.large/linux\",\"kind\":\"od\",\
                    \"availability\":{\"probes\":1234,\"rejections\":0}}";
        assert_eq!(availability_probes(body), Some(1234));
        assert_eq!(availability_probes("{\"error\":\"x\"}"), None);
    }
}
