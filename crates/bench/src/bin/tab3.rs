//! Tab. 3: breakdown of IA-CCF features (f = 1).
//!
//! Variants (a)–(h) strip functionality cumulatively; the paper's
//! findings: (a)–(d) comparable; dropping client-signature verification
//! (e) roughly doubles throughput; MACs (f) and no-ledger (g) add little;
//! empty requests (h) double it again — i.e. the cost is dominated by
//! client-request crypto and the transactional store, not by the ledger
//! or accountability machinery. HotStuff and Pompē (empty requests)
//! provide the external yardsticks.

use bench::{accounts, duration, emit, noop_ops, run_iaccf_smallbank, Row};
use ia_ccf_baselines::{run_hotstuff, run_pompe};
use ia_ccf_core::ProtocolParams;
use ia_ccf_net::LatencyModel;
use ia_ccf_sim::rt::{run_cluster, RtConfig};
use ia_ccf_sim::ClusterSpec;
use std::sync::Arc;

fn rt_cfg(receipts: bool) -> RtConfig {
    RtConfig {
        latency: LatencyModel::Zero,
        duration: duration(),
        outstanding_per_client: 64,
        clients_require_receipts: receipts,
        ..RtConfig::default()
    }
}

fn main() {
    let account_count = accounts();
    let mut rows = Vec::new();

    // (a)–(g): SmallBank over progressively stripped variants.
    let variants: Vec<(&str, ProtocolParams, bool, u64)> = vec![
        ("(a) Full IA-CCF", ProtocolParams::full(), true, account_count),
        ("(b) IA-CCF-NoReceipt", ProtocolParams::no_receipt(), false, account_count),
        ("(c) + without checkpoints", ProtocolParams::no_checkpoints(), false, account_count),
        ("(d) + small key-value store", ProtocolParams::no_checkpoints(), false, 128),
        ("(e) + without signed client requests", ProtocolParams::unsigned_clients(), false, 128),
        ("(f) + with MACs only", ProtocolParams::macs_only(), false, 128),
        ("(g) + without ledger", ProtocolParams::no_ledger(), false, 128),
    ];
    for (label, params, receipts, accts) in variants {
        let spec = ClusterSpec::new(4, 4, params)
            .with_config(|c| c.checkpoint_interval = 10_000);
        let report = run_iaccf_smallbank(&spec, &rt_cfg(receipts), accts);
        rows.push(Row::new(label, &[("tx_s", report.throughput().per_sec())]));
    }

    // (h) empty requests: no-op procedure, no state.
    let spec = ClusterSpec::new(4, 4, ProtocolParams::no_ledger())
        .with_config(|c| c.checkpoint_interval = 10_000);
    let report = run_cluster(
        &spec,
        Arc::new(ia_ccf_smallbank::SmallBankApp),
        &rt_cfg(false),
        noop_ops(),
    );
    rows.push(Row::new("(h) + with empty requests", &[("tx_s", report.throughput().per_sec())]));

    // External yardsticks with empty requests.
    let hs = run_hotstuff(4, 4, 64, 300, LatencyModel::Zero, duration());
    rows.push(Row::new("HotStuff (empty requests)", &[("tx_s", hs.tx_per_sec())]));
    let pompe = run_pompe(4, 4, 64, 300, LatencyModel::Zero, duration());
    rows.push(Row::new("Pompe-like (empty requests)", &[("tx_s", pompe.tx_per_sec())]));

    emit("tab3", "Tab. 3: feature breakdown (f=1)", &rows);
    println!("\npaper: (a) 47.8k (b) 51.2k (c) 51.3k (d) 53.8k (e) 111.9k (f) 128.9k (g) 132.0k (h) 299.3k; HotStuff 308.0k; Pompe 465.6k");
    println!("shape checks: (a)≈(b)≈(c)≈(d); (e) ≈ 2x (d); (h) ≈ 2x (f)/(g); Pompe > HotStuff");
}
