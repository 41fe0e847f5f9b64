//! Seeded input generators. The program under test receives only what
//! these produce: month-scale probe/spike/bid histories spread over the
//! standard catalog with a seeded skew, the marker probes, and the
//! read mix (see [`crate::mix`]).

use cloud_sim::catalog::Catalog;
use cloud_sim::ids::{Az, MarketId, Platform, Region};
use cloud_sim::price::Price;
use cloud_sim::time::SimTime;
use spotlight_core::probe::{ProbeKind, ProbeOutcome, ProbeRecord, ProbeTrigger};
use spotlight_core::store::{DataStore, IntrinsicBidRecord, SpikeEvent};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose, derived from the seed.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The marker market: zone `z` of us-east-1 is outside every catalog,
/// so no collector, seeded history, or read-mix request touches it.
pub fn marker_market() -> MarketId {
    MarketId {
        az: Az::new(Region::UsEast1, 25),
        instance_type: "c3.large".parse().expect("c3.large is a valid type"),
        platform: Platform::LinuxUnix,
    }
}

/// The `i`-th marker probe. Its simulated time is its index, so marker
/// times increase and never collide with another market's key.
pub fn marker_probe(i: u64) -> ProbeRecord {
    ProbeRecord {
        at: SimTime::from_secs(i + 1),
        market: marker_market(),
        kind: ProbeKind::OnDemand,
        trigger: ProbeTrigger::Periodic,
        outcome: ProbeOutcome::Fulfilled,
        spot_ratio: 0.5,
        bid: None,
        cost: Price::ZERO,
    }
}

/// Power of the key skew: with `u^SKEW` over a seeded shuffle of the
/// catalog, the hottest 10% of markets draw ~46% of the traffic.
const SKEW: i32 = 3;

/// The standard catalog in a seeded order, drawn with a power-law skew
/// toward the front — so which markets are hot depends on the seed.
#[derive(Debug, Clone)]
pub struct Keys {
    markets: Vec<MarketId>,
}

impl Keys {
    pub fn standard(seed: u64) -> Self {
        let mut markets = Catalog::standard().markets().to_vec();
        let mut rng = Rng::stream(seed, 1);
        for i in (1..markets.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            markets.swap(i, j);
        }
        Keys { markets }
    }

    /// The market at quantile `u` in `[0, 1)` of the skew.
    pub fn at(&self, u: f64) -> MarketId {
        self.markets[self.index_at(u)]
    }

    /// The rank of a market drawn with the skew.
    fn pick_index(&self, rng: &mut Rng) -> usize {
        self.index_at(rng.unit())
    }

    fn index_at(&self, u: f64) -> usize {
        ((u.powi(SKEW) * self.markets.len() as f64) as usize).min(self.markets.len() - 1)
    }
}

/// One generated store write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Record {
    Probe(ProbeRecord),
    Spike(SpikeEvent),
    Bid(IntrinsicBidRecord),
}

impl Record {
    /// Writes the record through the store's public ingest API.
    pub fn apply(self, store: &DataStore) {
        match self {
            Record::Probe(p) => {
                store.record_probe(p);
            }
            Record::Spike(s) => store.record_spike(s),
            Record::Bid(b) => store.record_intrinsic_bid(b),
        }
    }
}

/// Simulated milliseconds between consecutive records: a million
/// records span a week. Spread over the 5,288-market standard catalog,
/// the store keeps an hourly summary cell per market, kind, and hour
/// from a key's first probe on, so span × catalog (not the record
/// count) sets most of the resident size: a week of history is
/// ~150 MB resident, where a month is ~350 MB.
pub const SPACING_MS: u64 = 605;

/// A deterministic, unbounded stream of probe/spike/bid records in
/// time order (~70% probes, ~29.5% spikes, ~0.5% intrinsic-bid
/// searches). Each market has its own unavailability rate, set by its
/// rank, so the history holds real unavailability intervals.
#[derive(Debug, Clone)]
pub struct RecordStream {
    keys: Keys,
    rng: Rng,
    /// Simulated time of the first record, in milliseconds.
    start_ms: u64,
    emitted: u64,
}

impl RecordStream {
    pub fn new(keys: Keys, seed: u64) -> Self {
        Self::starting_at(keys, seed, SimTime::ZERO)
    }

    /// A stream whose first record is at `start`.
    pub fn starting_at(keys: Keys, seed: u64, start: SimTime) -> Self {
        RecordStream {
            keys,
            rng: Rng::stream(seed, 2),
            start_ms: start.as_secs() * 1000,
            emitted: 0,
        }
    }

    /// Simulated time of the next record.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs((self.start_ms + self.emitted * SPACING_MS) / 1000)
    }
}

/// The unavailability rate in `[0, 0.3)` of the market at `rank` in
/// the seeded order: a low-discrepancy sequence over the ranks, so the
/// rates spread evenly at every level of the skew. A fallback search
/// costs in proportion to the named market's unavailability intervals;
/// with rates drawn at random per market, whichever rate the hottest
/// market drew would set the cost of every hot-market search, and the
/// read figures would follow the seed rather than the service.
fn unavailability_rate(rank: usize) -> f64 {
    const GOLDEN: f64 = 0.618_033_988_749_895;
    0.3 * (0.5 + rank as f64 * GOLDEN).fract()
}

impl Iterator for RecordStream {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        let at = self.now();
        self.emitted += 1;
        let rank = self.keys.pick_index(&mut self.rng);
        let market = self.keys.markets[rank];
        let ratio = 0.2 + 4.8 * self.rng.unit();
        let roll = self.rng.unit();
        Some(if roll < 0.005 {
            let published = Price::from_micros(10_000 + self.rng.below(500_000));
            Record::Bid(IntrinsicBidRecord {
                market,
                at,
                published,
                intrinsic: Price::from_micros(published.as_micros() * 11 / 10),
                attempts: 1 + self.rng.below(6) as u32,
            })
        } else if roll < 0.3 {
            Record::Spike(SpikeEvent {
                market,
                at,
                ratio,
                probed: self.rng.unit() < 0.5,
            })
        } else {
            let spot = self.rng.unit() < 0.25;
            let unavailable = self.rng.unit() < unavailability_rate(rank);
            Record::Probe(ProbeRecord {
                at,
                market,
                kind: if spot {
                    ProbeKind::Spot
                } else {
                    ProbeKind::OnDemand
                },
                trigger: if ratio > 1.0 {
                    ProbeTrigger::PriceSpike { ratio }
                } else {
                    ProbeTrigger::Periodic
                },
                outcome: match (unavailable, spot) {
                    (false, _) => ProbeOutcome::Fulfilled,
                    (true, false) => ProbeOutcome::InsufficientCapacity,
                    (true, true) => ProbeOutcome::CapacityNotAvailable,
                },
                spot_ratio: ratio.min(1.2),
                bid: None,
                cost: Price::from_micros(1_000),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a: Vec<Record> = RecordStream::new(Keys::standard(7), 7).take(500).collect();
        let b: Vec<Record> = RecordStream::new(Keys::standard(7), 7).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<Record> = RecordStream::new(Keys::standard(8), 8).take(500).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn keys_cover_the_catalog_with_skew() {
        let keys = Keys::standard(3);
        let n = keys.markets.len();
        assert_eq!(n, Catalog::standard().markets().len());
        let mut rng = Rng::new(1);
        let mut counts = vec![0u32; n];
        for _ in 0..200_000 {
            counts[keys.pick_index(&mut rng)] += 1;
        }
        let hot: u32 = counts[..n / 10].iter().sum();
        let share = hot as f64 / 200_000.0;
        assert!((0.40..0.52).contains(&share), "hot share {share}");
        let touched = counts.iter().filter(|&&c| c > 0).count();
        assert!(touched > n / 2, "only {touched} markets drawn");
    }

    #[test]
    fn the_stream_is_time_ordered_and_mixed() {
        let recs: Vec<Record> = RecordStream::new(Keys::standard(1), 1)
            .take(20_000)
            .collect();
        let at = |r: &Record| match r {
            Record::Probe(p) => p.at,
            Record::Spike(s) => s.at,
            Record::Bid(b) => b.at,
        };
        assert!(recs.windows(2).all(|w| at(&w[0]) <= at(&w[1])));
        let probes = recs
            .iter()
            .filter(|r| matches!(r, Record::Probe(_)))
            .count();
        let bids = recs.iter().filter(|r| matches!(r, Record::Bid(_))).count();
        assert!((13_000..15_000).contains(&probes), "{probes} probes");
        assert!(bids > 20, "{bids} bids");
        let rejected = recs
            .iter()
            .filter(|r| matches!(r, Record::Probe(p) if p.outcome.is_unavailable()))
            .count();
        assert!(rejected > 500, "{rejected} rejections");
    }

    #[test]
    fn markers_stay_off_the_catalog() {
        let catalog: HashSet<MarketId> = Catalog::standard().markets().iter().copied().collect();
        assert!(!catalog.contains(&marker_market()));
        assert_eq!(
            spotlight_serve::market_param(marker_market()),
            "us-east-1z/c3.large/linux"
        );
        assert!(marker_probe(0).at < marker_probe(1).at);
    }
}
