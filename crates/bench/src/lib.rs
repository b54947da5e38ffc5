//! Shared plumbing for the paper-reproduction binaries.
//!
//! Every table/figure of the paper has a binary in `src/bin/` that prints
//! the same rows/series the paper reports and writes JSON to
//! `target/experiments/<name>.json`. These are exploratory: the
//! repository's gated performance numbers come from `benchmark/`
//! (declared by `BENCHMARK.json`), not from this crate. Environment knobs:
//!
//! * `IACCF_BENCH_SECS` — seconds per measured point (default 2);
//! * `IACCF_ACCOUNTS` — SmallBank accounts (default 10 000; the paper uses
//!   500 000 — larger values mostly slow the O(n) checkpoint digests);
//! * `IACCF_MAX_N` — cap on replica counts swept by fig5 (default 16).

use std::sync::Arc;
use std::time::Duration;

use ia_ccf_sim::rt::{run_cluster, RtConfig, RtReport};
use ia_ccf_sim::ClusterSpec;
use parking_lot::Mutex;

/// Seconds per measured point.
pub fn bench_secs() -> u64 {
    std::env::var("IACCF_BENCH_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2)
}

/// SmallBank account count.
pub fn accounts() -> u64 {
    std::env::var("IACCF_ACCOUNTS").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000)
}

/// Largest replica count for scalability sweeps.
pub fn max_n() -> usize {
    std::env::var("IACCF_MAX_N").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// Opening balance of every SmallBank account.
pub const INITIAL_BALANCE: i64 = 10_000;

/// A SmallBank op source shared across client threads (per-client RNG
/// streams derived from the client index). The first operation drawn is
/// the bulk load of the accounts — [`run_cluster`] commits it as the
/// ledger's first transaction before the clock starts.
pub fn smallbank_ops(
    accounts: u64,
) -> Arc<dyn Fn(usize) -> (ia_ccf_types::ProcId, Vec<u8>) + Send + Sync> {
    let load = Mutex::new(Some(ia_ccf_smallbank::load_accounts(accounts, INITIAL_BALANCE)));
    let workloads: Vec<Mutex<ia_ccf_smallbank::Workload>> =
        (0..64).map(|i| Mutex::new(ia_ccf_smallbank::Workload::new(accounts, 1000 + i))).collect();
    Arc::new(move |ci| {
        let op = match load.lock().take() {
            Some(load) => load,
            None => workloads[ci % workloads.len()].lock().next_op(),
        };
        (op.proc, op.args)
    })
}

/// An empty-request op source (Tab. 3 row (h)).
pub fn noop_ops() -> Arc<dyn Fn(usize) -> (ia_ccf_types::ProcId, Vec<u8>) + Send + Sync> {
    Arc::new(|_| (ia_ccf_smallbank::NOOP, Vec::new()))
}

/// Run IA-CCF under SmallBank and return the report.
pub fn run_iaccf_smallbank(
    spec: &ClusterSpec,
    cfg: &RtConfig,
    account_count: u64,
) -> RtReport {
    let app = Arc::new(ia_ccf_smallbank::SmallBankApp);
    run_cluster(spec, app, cfg, smallbank_ops(account_count))
}

/// One output row: label plus metric pairs, printable and JSON-able.
#[derive(serde::Serialize)]
pub struct Row {
    /// Row label (system/variant/parameter).
    pub label: String,
    /// `(metric name, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// Build a row.
    pub fn new(label: impl Into<String>, metrics: &[(&str, f64)]) -> Self {
        Row {
            label: label.into(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }
}

/// Print rows as an aligned table and persist them as JSON under
/// `target/experiments/<name>.json`.
pub fn emit(name: &str, title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    for row in rows {
        let cells: Vec<String> =
            row.metrics.iter().map(|(k, v)| format!("{k}={v:.1}")).collect();
        println!("{:40} {}", row.label, cells.join("  "));
    }
    let dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.json"));
    let _ = std::fs::write(&path, rows_to_json(rows));
    println!("[written {}]", path.display());
}

/// Render rows as pretty-printed JSON. Hand-rolled because the vendored
/// serde shim is compile-only (see vendor/README.md).
fn rows_to_json(rows: &[Row]) -> String {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!("    \"label\": \"{}\",\n", escape(&row.label)));
        out.push_str("    \"metrics\": [\n");
        for (j, (k, v)) in row.metrics.iter().enumerate() {
            let v = if v.is_finite() { format!("{v}") } else { "null".to_string() };
            let comma = if j + 1 < row.metrics.len() { "," } else { "" };
            out.push_str(&format!("      [\"{}\", {}]{}\n", escape(k), v, comma));
        }
        out.push_str("    ]\n");
        out.push_str(if i + 1 < rows.len() { "  },\n" } else { "  }\n" });
    }
    out.push_str("]\n");
    out
}

/// Default measured duration.
pub fn duration() -> Duration {
    Duration::from_secs(bench_secs())
}
