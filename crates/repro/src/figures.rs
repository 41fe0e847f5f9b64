//! Chapter 5 figure printers: each function regenerates one figure's
//! rows/series from the study's probe database.

use crate::experiment::Study;
use crate::output::{banner, pct, Table};
use cloud_sim::ids::Region;
use cloud_sim::time::SimDuration;
use spotlight_core::analysis::{
    cross_az_unavailability, cross_market_unavailability, duration_cdf, regional_rejection_share,
    rejection_attribution, spike_unavailability, spot_cna_curve, spot_cna_distribution,
    spot_ratio_buckets, CrossRelation,
};
use std::path::Path;

fn threshold_label(t: f64) -> String {
    if t == 0.0 {
        ">0".to_string()
    } else {
        format!(">{}X", t as u64)
    }
}

fn ratio_bucket_label(edges: &[f64], i: usize) -> String {
    let lo = edges[i];
    let hi = edges.get(i + 1).copied();
    match hi {
        Some(hi) if lo == 0.0 => format!("<1/{}X", (1.0 / hi).round() as u64),
        Some(hi) if hi <= 1.0 => {
            let lo_d = (1.0 / lo).round() as u64;
            let hi_d = (1.0 / hi).round() as u64;
            if hi_d <= 1 {
                format!("1/{lo_d}-1X")
            } else {
                format!("1/{lo_d}-1/{hi_d}X")
            }
        }
        _ => ">1X".to_string(),
    }
}

/// Figure 5.4: global P(on-demand unavailable) vs spike size, one column
/// per clustering window.
pub fn fig_5_4(study: &Study, out: &Path) {
    banner("Figure 5.4 — P(on-demand unavailable) vs spot price spike size (global)");
    let windows = [900u64, 1200, 1800, 2400, 3600, 7200];
    let store = &study.db;
    let curves: Vec<_> = windows
        .iter()
        .map(|&w| spike_unavailability(store, SimDuration::from_secs(w), None))
        .collect();

    let mut header = vec!["spike".to_string(), "trials@900s".to_string()];
    header.extend(windows.iter().map(|w| format!("w<={w}s")));
    let mut table = Table::new(header);
    for (i, point) in curves[0].iter().enumerate() {
        let mut row = vec![threshold_label(point.threshold), point.trials.to_string()];
        for curve in &curves {
            row.push(pct(curve[i].probability));
        }
        table.row(row);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_4");
    println!("  paper shape: rises from ~0% below 1X to ~10% at >10X; longer windows sit higher");
}

/// Figure 5.5: share of rejected probes per region vs spike bucket.
pub fn fig_5_5(study: &Study, out: &Path) {
    banner("Figure 5.5 — share of rejected probes per region vs spike size");
    let store = &study.db;
    let (edges, shares) = regional_rejection_share(store);
    let mut header = vec!["region".to_string()];
    header.extend(edges.iter().map(|&e| threshold_label(e)));
    let mut table = Table::new(header);
    for region in Region::ALL {
        let mut row = vec![region.name().to_string()];
        match shares.get(&region) {
            Some(s) => row.extend(s.iter().map(|&v| pct(Some(v)))),
            None => row.extend(edges.iter().map(|_| pct(Some(0.0)))),
        }
        table.row(row);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_5");
    println!("  paper shape: sa-east-1 / ap-southeast-1 / ap-southeast-2 dominate");
}

/// Figure 5.6: P(unavailable | spike) per region (900 s window).
pub fn fig_5_6(study: &Study, out: &Path) {
    banner("Figure 5.6 — P(on-demand unavailable) per region (window 900 s)");
    let regions = [
        Region::UsEast1,
        Region::UsWest1,
        Region::EuCentral1,
        Region::ApSoutheast1,
        Region::ApSoutheast2,
        Region::SaEast1,
    ];
    let store = &study.db;
    let curves: Vec<_> = regions
        .iter()
        .map(|&r| spike_unavailability(store, SimDuration::from_secs(900), Some(r)))
        .collect();
    let mut header = vec!["spike".to_string()];
    header.extend(regions.iter().map(|r| r.name().to_string()));
    let mut table = Table::new(header);
    for i in 0..curves[0].len() {
        let mut row = vec![threshold_label(curves[0][i].threshold)];
        for curve in &curves {
            row.push(pct(curve[i].probability));
        }
        table.row(row);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_6");
    println!("  paper shape: us-east-1 under 1%; sa-east-1/ap-southeast highest");
}

/// Figure 5.7: rejected probes by trigger — price spikes vs related
/// markets.
pub fn fig_5_7(study: &Study, out: &Path) {
    banner("Figure 5.7 — rejected probes: price-spike vs related-market triggers");
    let store = &study.db;
    let (edges, by_spike, by_related) = rejection_attribution(store);
    let mut table = Table::new(vec!["spike", "by_price_spikes", "by_related_markets"]);
    let mut total_spike = 0.0;
    let mut buckets = 0u32;
    for i in 0..edges.len() {
        if by_spike[i] + by_related[i] > 0.0 {
            total_spike += by_spike[i];
            buckets += 1;
        }
        table.row(vec![
            threshold_label(edges[i]),
            pct(Some(by_spike[i])),
            pct(Some(by_related[i])),
        ]);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_7");
    if buckets > 0 {
        println!(
            "  mean across populated buckets: {:.0}% by spikes / {:.0}% by related \
             (paper: ~30% / ~70%, roughly flat)",
            100.0 * total_spike / buckets as f64,
            100.0 * (1.0 - total_spike / buckets as f64)
        );
    }
}

/// Figure 5.8: P(≥1 same-type market in another zone unavailable) after
/// a detection, per window.
pub fn fig_5_8(study: &Study, out: &Path) {
    banner("Figure 5.8 — P(related on-demand in another zone unavailable) vs spike size");
    let windows = [300u64, 600, 900, 1800, 2400, 3600];
    let store = &study.db;
    let curves: Vec<_> = windows
        .iter()
        .map(|&w| cross_az_unavailability(store, SimDuration::from_secs(w)))
        .collect();
    let mut header = vec!["spike".to_string(), "trials".to_string()];
    header.extend(windows.iter().map(|w| format!("w<={w}s")));
    let mut table = Table::new(header);
    for i in 0..curves[0].len() {
        let mut row = vec![
            threshold_label(curves[0][i].threshold),
            curves[0][i].trials.to_string(),
        ];
        for curve in &curves {
            row.push(pct(curve[i].probability));
        }
        table.row(row);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_8");
    println!(
        "  paper shape: decreases with spike size (~24% to ~12.5% at 1 h); \
         longer windows sit higher"
    );
}

/// Figure 5.9: CDF of measured unavailability durations.
pub fn fig_5_9(study: &Study, out: &Path) {
    banner("Figure 5.9 — CDF of on-demand unavailability durations");
    let store = &study.db;
    let cdf = duration_cdf(store);
    if cdf.is_empty() {
        println!("  no closed unavailability intervals measured");
        return;
    }
    let mut table = Table::new(vec!["duration<=", "fraction"]);
    for h in [
        0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    ] {
        table.row(vec![
            format!("{h}h"),
            pct(Some(cdf.fraction_at_or_below(h))),
        ]);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_9");
    println!(
        "  n={}  <1h: {:.1}% (paper ~83%)   >10h: {:.1}% (paper ~5%)   median {:.2}h",
        cdf.len(),
        100.0 * cdf.fraction_at_or_below(1.0),
        100.0 * (1.0 - cdf.fraction_at_or_below(10.0)),
        cdf.quantile(0.5).unwrap_or(0.0),
    );
}

/// Figure 5.10: P(capacity-not-available) for spot probes vs price
/// ratio, per region.
pub fn fig_5_10(study: &Study, out: &Path) {
    banner("Figure 5.10 — P(spot capacity-not-available) vs spot/od price ratio");
    let regions = [
        Region::UsEast1,
        Region::UsWest1,
        Region::EuWest1,
        Region::ApSoutheast1,
        Region::ApNortheast1,
        Region::ApSoutheast2,
        Region::SaEast1,
    ];
    let store = &study.db;
    let all = spot_cna_curve(store, None);
    let per_region: Vec<_> = regions
        .iter()
        .map(|&r| spot_cna_curve(store, Some(r)))
        .collect();
    let edges = spot_ratio_buckets();
    let mut header = vec!["spot price".to_string()];
    header.extend(regions.iter().map(|r| r.name().to_string()));
    header.push("all".to_string());
    let mut table = Table::new(header);
    for i in 0..all.len() {
        let mut row = vec![ratio_bucket_label(&edges, i)];
        for curve in &per_region {
            row.push(pct(curve[i].probability));
        }
        row.push(pct(all[i].probability));
        table.row(row);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_10");
    println!("  paper shape: decreases as the price rises; us-east-1 ~10% → ~1%");
}

/// Figure 5.11: distribution of spot insufficiency across regions.
pub fn fig_5_11(study: &Study, out: &Path) {
    banner("Figure 5.11 — spot capacity-not-available distribution across regions");
    let store = &study.db;
    let (edges, shares) = spot_cna_distribution(store);
    let mut header = vec!["spot price".to_string()];
    header.extend(Region::ALL.iter().map(|r| r.name().to_string()));
    let mut table = Table::new(header);
    let mut below_od = 0.0;
    for i in 0..edges.len() {
        let mut row = vec![ratio_bucket_label(&edges, i)];
        for region in Region::ALL {
            let share = shares.get(&region).map_or(0.0, |s| s[i]);
            if edges[i] < 1.0 {
                below_od += share;
            }
            row.push(pct(Some(share)));
        }
        table.row(row);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_11");
    println!(
        "  share of CNA events below the on-demand price: {:.1}% (paper ~98%)",
        100.0 * below_od
    );
}

/// Figure 5.12: od-od / spot-spot / od-spot / spot-od related-market
/// unavailability per window.
pub fn fig_5_12(study: &Study, out: &Path) {
    banner("Figure 5.12 — on-demand vs spot related-market unavailability");
    let windows = [300u64, 900, 1800, 2400, 3600];
    let durations: Vec<SimDuration> = windows.iter().map(|&w| SimDuration::from_secs(w)).collect();
    let store = &study.db;
    let result = cross_market_unavailability(store, &durations);
    let mut header = vec!["window".to_string()];
    header.extend(CrossRelation::ALL.iter().map(|r| r.label().to_string()));
    let mut table = Table::new(header);
    for (i, w) in windows.iter().enumerate() {
        let mut row = vec![format!("{w}s")];
        for relation in CrossRelation::ALL {
            row.push(pct(result.get(&relation).map(|v| v[i])));
        }
        table.row(row);
    }
    table.print();
    crate::output::emit_csv(&table, out, "fig_5_12");
    println!(
        "  paper @3600s: od-od 17.6%, spot-spot 8.2%, od-spot 1.5%, spot-od 2.8% \
         (od-od strongest, cross-kind weakest)"
    );
}
