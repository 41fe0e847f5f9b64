//! Table 2.1 and the Figure 3.x state machines.

use crate::experiment::Study;
use crate::output::{banner, pct, Table};
use cloud_sim::lifecycle::{OdState, SpotRequestState};
use spotlight_core::probe::{ProbeKind, ProbeOutcome};
use std::path::Path;

/// Table 2.1: contract cost and characteristic trade-offs, annotated
/// with what the study actually measured.
pub fn table_2_1(study: &Study, out: &Path) {
    banner("Table 2.1 — contract cost and characteristic tradeoffs");
    let store = &study.db;

    // Measured on-demand obtainability (probe success rate).
    let mut od_probes = 0u64;
    let mut od_rejections = 0u64;
    let mut spot_probes = 0u64;
    let mut spot_cna = 0u64;
    let mut ratio_sum = 0.0;
    let mut ratio_n = 0u64;
    for p in store.probes() {
        match p.kind {
            ProbeKind::OnDemand if p.outcome.is_informative() => {
                od_probes += 1;
                if p.outcome == ProbeOutcome::InsufficientCapacity {
                    od_rejections += 1;
                }
            }
            ProbeKind::Spot if p.outcome.is_informative() => {
                spot_probes += 1;
                if p.outcome == ProbeOutcome::CapacityNotAvailable {
                    spot_cna += 1;
                }
                if p.spot_ratio > 0.0 {
                    ratio_sum += p.spot_ratio;
                    ratio_n += 1;
                }
            }
            _ => {}
        }
    }
    let od_reject_rate = od_rejections as f64 / od_probes.max(1) as f64;
    let spot_cna_rate = spot_cna as f64 / spot_probes.max(1) as f64;
    let mean_ratio = ratio_sum / ratio_n.max(1) as f64;

    let mut table = Table::new(vec![
        "Contract Type",
        "Cost",
        "Revocable",
        "Availability",
        "Obtainability",
    ]);
    table.row(vec![
        "On-demand".to_string(),
        "High (1.00x)".to_string(),
        "No".to_string(),
        "High".to_string(),
        format!("Not guaranteed ({} rejected)", pct(Some(od_reject_rate))),
    ]);
    table.row(vec![
        "Reserved".to_string(),
        "High (~0.65x amortized)".to_string(),
        "No".to_string(),
        "High".to_string(),
        "Guaranteed".to_string(),
    ]);
    table.row(vec![
        "Spot".to_string(),
        format!("Low ({mean_ratio:.2}x at probe time)"),
        "Yes".to_string(),
        "Variable".to_string(),
        format!(
            "Not guaranteed ({} cap-unavailable)",
            pct(Some(spot_cna_rate))
        ),
    ]);
    table.row(vec![
        "Spot Blocks".to_string(),
        "Medium (~0.70x)".to_string(),
        "No".to_string(),
        "Variable".to_string(),
        "Not guaranteed".to_string(),
    ]);
    table.print();
    crate::output::emit_csv(&table, out, "table_2_1");
    println!(
        "  measured over {} on-demand and {} spot probes",
        od_probes, spot_probes
    );
}

/// Figure 3.1: the on-demand instance state machine as Graphviz DOT.
pub fn fig_3_1() {
    banner("Figure 3.1 — EC2 on-demand instance state machine (DOT)");
    println!("{}", OdState::to_dot());
}

/// Figure 3.2: the spot request state machine as Graphviz DOT.
pub fn fig_3_2() {
    banner("Figure 3.2 — EC2 spot instance request state machine (DOT)");
    println!("{}", SpotRequestState::to_dot());
}
