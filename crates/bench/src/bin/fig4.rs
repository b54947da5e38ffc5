//! Fig. 4: transaction throughput vs latency, f = 1 (4 replicas).
//!
//! Systems: IA-CCF, IA-CCF-NoReceipt, IA-CCF-PeerReview, Fabric-like.
//! The paper's shape: IA-CCF ≈ NoReceipt (receipts ~3% cost),
//! PeerReview an order of magnitude below, Fabric far below that with
//! much higher latency. Load increases along each curve via the
//! closed-loop window.

use std::sync::Arc;

use bench::{accounts, duration, emit, noop_ops, run_iaccf_smallbank, smallbank_ops, Row};
use ia_ccf_baselines::run_fabric;
use ia_ccf_core::ProtocolParams;
use ia_ccf_net::LatencyModel;
use ia_ccf_sim::rt::RtConfig;
use ia_ccf_sim::ClusterSpec;

fn main() {
    let _ = noop_ops(); // touch, keeps the helper exercised
    let accounts = accounts();
    let windows = [1usize, 8, 64, 256];
    let mut rows = Vec::new();

    let variants = [
        ("IA-CCF", ProtocolParams::full(), true),
        ("IA-CCF-NoReceipt", ProtocolParams::no_receipt(), false),
        ("IA-CCF-PeerReview", ProtocolParams::peer_review(), true),
    ];
    for (label, params, receipts) in &variants {
        let receipts = *receipts;
        for &w in &windows {
            let spec = ClusterSpec::new(4, 4, params.clone())
                .with_config(|c| c.checkpoint_interval = 10_000);
            let cfg = RtConfig {
                latency: LatencyModel::Zero,
                duration: duration(),
                outstanding_per_client: w,
                clients_require_receipts: receipts,
                ..RtConfig::default()
            };
            let report = run_iaccf_smallbank(&spec, &cfg, accounts);
            let mut lat = report.latency.clone();
            rows.push(Row::new(
                format!("{label} w={w}"),
                &[
                    ("tx_s", report.throughput().per_sec()),
                    ("lat_ms", lat.mean_us() as f64 / 1000.0),
                    ("p99_ms", lat.p99_us() as f64 / 1000.0),
                ],
            ));
        }
    }

    for &w in &windows {
        let report = run_fabric(
            4,
            4,
            w,
            256,
            LatencyModel::Zero,
            duration(),
            Arc::new(ia_ccf_smallbank::SmallBankApp),
            smallbank_ops(accounts),
        );
        let mut lat = report.latency.clone();
        rows.push(Row::new(
            format!("Fabric-like w={w}"),
            &[
                ("tx_s", report.tx_per_sec()),
                ("lat_ms", lat.mean_us() as f64 / 1000.0),
                ("p99_ms", lat.p99_us() as f64 / 1000.0),
            ],
        ));
    }

    emit("fig4", "Fig. 4: throughput vs latency (f=1)", &rows);
    println!("\npaper shape: IA-CCF 47.8k tx/s ≈ NoReceipt 51.2k (−3%); PeerReview ~10x lower; Fabric 1.2k with ~1.9s latency");
}
