//! The metric tables — names, units, directions, bounds — and how each
//! value is computed from what the phases measured. `BENCHMARK.json`
//! mirrors the two tables (a test pins that).

use crate::driver::{Counters, Kind};
use crate::phases::{Audit, Commit, Failover, Recover, Setup, Slice};
use crate::stats::{self, Better};
use crate::trace::{self, Name, Span};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports all of them.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "commit_tx_per_s",
        unit: "tx/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_us_per_tx",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "receipt_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "audit_tx_per_s",
        unit: "tx/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "recover_tx_per_s",
        unit: "tx/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ledger_bytes_per_tx",
        unit: "B",
        better: Better::Lower,
        bound: 0.005,
    },
    EndToEnd {
        name: "wire_bytes_per_tx",
        unit: "B",
        better: Better::Lower,
        bound: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single-layer metrics of the traced run: never gated. Layers are the
/// crate/module names. Three groups — span self times, counts taken at
/// the same boundaries, standalone probes — and the whole-run views of
/// the sliced end-to-end metrics.
pub const PER_LAYER: [PerLayer; 66] = [
    // Spans: self time per committed transaction.
    lo("core.primary.request_us_per_tx", "us"),
    lo("core.primary.prepare_us_per_tx", "us"),
    lo("core.primary.commit_us_per_tx", "us"),
    lo("core.primary.tick_us_per_tx", "us"),
    lo("core.primary.other_us_per_tx", "us"),
    lo("core.backup.request_us_per_tx", "us"),
    lo("core.backup.pre_prepare_us_per_tx", "us"),
    lo("core.backup.prepare_us_per_tx", "us"),
    lo("core.backup.commit_us_per_tx", "us"),
    lo("core.backup.tick_us_per_tx", "us"),
    lo("core.backup.other_us_per_tx", "us"),
    lo("client.submit_us_per_tx", "us"),
    lo("client.on_message_us_per_tx", "us"),
    lo("types.wire.encode_us_per_tx", "us"),
    lo("types.wire.decode_us_per_tx", "us"),
    lo("driver.other_us_per_tx", "us"),
    hi("trace.coverage_frac", "frac"),
    lo("trace.overhead_frac", "frac"),
    // Counts at the same boundaries.
    lo("core.msgs_per_tx", "count"),
    hi("core.tx_per_batch", "count"),
    lo("core.ticks_per_batch", "count"),
    lo("types.wire.request_bytes_per_tx", "B"),
    lo("types.wire.pre_prepare_bytes_per_tx", "B"),
    lo("types.wire.prepare_bytes_per_tx", "B"),
    lo("types.wire.commit_bytes_per_tx", "B"),
    lo("types.wire.reply_bytes_per_tx", "B"),
    lo("types.wire.replyx_bytes_per_tx", "B"),
    lo("core.bootstrap.sync_pages", "count"),
    lo("core.bootstrap.sync_bytes", "B"),
    lo("core.bootstrap.failovers", "count"),
    lo("core.viewchange.failover_ticks", "count"),
    hi("core.emission.locator_hits", "count"),
    lo("core.emission.locator_misses", "count"),
    lo("pool.tasks_completed", "count"),
    // Probes.
    lo("crypto.sign_us", "us"),
    lo("crypto.verify_us", "us"),
    lo("crypto.verify_batch_us_per_sig", "us"),
    hi("crypto.hash_mb_per_s", "MB/s"),
    lo("merkle.extend_ns_per_leaf", "ns"),
    lo("merkle.root_ns", "ns"),
    lo("merkle.frozen_path_ns", "ns"),
    lo("kv.exec_us_per_tx", "us"),
    lo("kv.checkpoint_ms", "ms"),
    lo("kv.digest_ms", "ms"),
    lo("ledger.append_us_per_batch", "us"),
    hi("ledger.append_mb_per_s", "MB/s"),
    hi("ledger.durable_append_mb_per_s", "MB/s"),
    lo("ledger.fsync_ms_p50", "ms"),
    hi("ledger.read_range_mb_per_s", "MB/s"),
    lo("types.receipt.verify_us", "us"),
    lo("types.receipt.bytes", "B"),
    lo("core.emission.refetch_us", "us"),
    hi("core.emission.serve_page_mb_per_s", "MB/s"),
    lo("core.bootstrap.restart_ms", "ms"),
    lo("audit.receipt_us_per_receipt", "us"),
    lo("audit.replay_us_per_tx", "us"),
    lo("net.frame.split_ns", "ns"),
    hi("net.tcp.frames_per_s", "1/s"),
    lo("pool.submit_join_us", "us"),
    // Whole-run views of the sliced metrics, and the host's state.
    hi("driver.total_tx_per_s", "tx/s"),
    lo("driver.slice_spread_frac", "frac"),
    hi("driver.host_speed_frac", "frac"),
    lo("client.receipt_p99_ms", "ms"),
    hi("audit.whole_ledger_tx_per_s", "tx/s"),
    lo("setup.construct_ms", "ms"),
    lo("setup.first_build_extra_ms", "ms"),
];

pub type Values = Vec<(&'static str, f64)>;

/// The end-to-end values of a run (all but `peak_rss_mb`, read at exit).
pub fn end_to_end(
    setup: &Setup,
    commit: &Commit,
    recover: &Recover,
    audit: &Audit,
    out: &mut Values,
) {
    let builds: Vec<f64> = setup.builds.iter().map(|b| b.work_s()).collect();
    out.push(("setup_s", stats::median(&builds)));

    let sliced = |f: &dyn Fn(&Slice) -> f64| {
        let per_slice: Vec<f64> = commit.slices.iter().map(f).collect();
        stats::median(&per_slice)
    };
    out.push((
        "commit_tx_per_s",
        sliced(&|s| s.tx as f64 / s.timed.work_s()),
    ));
    out.push((
        "cpu_us_per_tx",
        sliced(&|s| s.timed.cpu_s() * 1e6 / s.tx as f64),
    ));
    out.push((
        "receipt_p50_ms",
        sliced(&|s| s.p50_ns as f64 / 1e6 * s.timed.speed()),
    ));

    let audits: Vec<f64> = audit
        .reps
        .iter()
        .map(|r| audit.prefix_tx as f64 / r.work_s())
        .collect();
    out.push(("audit_tx_per_s", stats::median(&audits)));
    let recovers: Vec<f64> = recover
        .reps
        .iter()
        .map(|r| recover.recovered_tx as f64 / r.work_s())
        .collect();
    out.push(("recover_tx_per_s", stats::median(&recovers)));

    let tx = commit.measured_tx as f64;
    out.push(("ledger_bytes_per_tx", commit.ledger_bytes as f64 / tx));
    out.push(("wire_bytes_per_tx", commit.counts.bytes as f64 / tx));
}

/// Counts and whole-run views: available on every run.
pub fn whole_run(
    setup: &Setup,
    commit: &Commit,
    recover: &Recover,
    failover: &Failover,
    audit: &Audit,
    out: &mut Values,
) {
    let tx = commit.measured_tx as f64;
    let c: &Counters = &commit.counts;
    out.push(("core.msgs_per_tx", c.frames as f64 / tx));
    out.push(("core.tx_per_batch", c.batch_txs as f64 / c.batches as f64));
    out.push((
        "core.ticks_per_batch",
        c.tick_rounds as f64 / c.batches as f64,
    ));
    for (name, kind) in [
        ("types.wire.request_bytes_per_tx", Kind::Request),
        ("types.wire.pre_prepare_bytes_per_tx", Kind::PrePrepare),
        ("types.wire.prepare_bytes_per_tx", Kind::Prepare),
        ("types.wire.commit_bytes_per_tx", Kind::Commit),
        ("types.wire.reply_bytes_per_tx", Kind::Reply),
        ("types.wire.replyx_bytes_per_tx", Kind::ReplyX),
    ] {
        out.push((name, c.bytes_by_kind[kind as usize] as f64 / tx));
    }
    out.push(("core.bootstrap.sync_pages", recover.report.pages as f64));
    out.push(("core.bootstrap.sync_bytes", recover.report.bytes as f64));
    out.push(("core.bootstrap.failovers", recover.report.failovers as f64));
    out.push(("core.viewchange.failover_ticks", failover.ticks as f64));
    out.push((
        "core.bootstrap.restart_ms",
        stats::best(&recover.restart_s, Better::Lower) * 1e3,
    ));

    // Raw (wall-clock, unscaled) views of the sliced metrics.
    out.push(("driver.total_tx_per_s", tx / commit.whole.wall_work_s()));
    let rates: Vec<f64> = commit
        .slices
        .iter()
        .map(|s| s.tx as f64 / s.timed.wall_work_s())
        .collect();
    out.push(("driver.slice_spread_frac", stats::range_spread(&rates)));
    out.push(("driver.host_speed_frac", commit.whole.speed()));
    let q = stats::highest_supported_quantile(commit.latencies_ns.len());
    out.push((
        "client.receipt_p99_ms",
        stats::quantile_sorted(&commit.latencies_ns, q) as f64 / 1e6,
    ));
    out.push((
        "audit.whole_ledger_tx_per_s",
        audit.ledger_tx as f64 / audit.whole.work_s(),
    ));
    let construct_ms: Vec<f64> = setup.construct_s.iter().map(|s| s * 1e3).collect();
    out.push(("setup.construct_ms", stats::median(&construct_ms)));
    let builds: Vec<f64> = setup.builds.iter().map(|b| b.wall_work_s()).collect();
    out.push((
        "setup.first_build_extra_ms",
        (builds[0] - stats::median(&builds)) * 1e3,
    ));
}

/// Span rows of a traced commit phase: self time per committed
/// transaction of the traced slices, coverage and tracing overhead.
pub fn span_rows(spans: &[Span], commit: &Commit, out: &mut Values) {
    let traced_tx: usize = commit
        .slices
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.tx)
        .sum();
    let by_name = trace::self_time_by_name(spans);
    let us_per_tx = |n: Name| by_name[n as usize] as f64 / 1e3 / traced_tx as f64;
    for (name, span) in [
        ("core.primary.request_us_per_tx", Name::PrimaryRequest),
        ("core.primary.prepare_us_per_tx", Name::PrimaryPrepare),
        ("core.primary.commit_us_per_tx", Name::PrimaryCommit),
        ("core.primary.tick_us_per_tx", Name::PrimaryTick),
        ("core.primary.other_us_per_tx", Name::PrimaryOther),
        ("core.backup.request_us_per_tx", Name::BackupRequest),
        ("core.backup.pre_prepare_us_per_tx", Name::BackupPrePrepare),
        ("core.backup.prepare_us_per_tx", Name::BackupPrepare),
        ("core.backup.commit_us_per_tx", Name::BackupCommit),
        ("core.backup.tick_us_per_tx", Name::BackupTick),
        ("core.backup.other_us_per_tx", Name::BackupOther),
        ("client.submit_us_per_tx", Name::ClientSubmit),
        ("client.on_message_us_per_tx", Name::ClientOnMessage),
        ("types.wire.encode_us_per_tx", Name::WireEncode),
        ("types.wire.decode_us_per_tx", Name::WireDecode),
    ] {
        out.push((name, us_per_tx(span)));
    }
    // What a traced slice spent outside every layer call: the driver's own
    // time (queue, routing, bookkeeping).
    out.push(("driver.other_us_per_tx", us_per_tx(Name::DriverSlice)));
    let wall: u64 = by_name.iter().sum();
    out.push((
        "trace.coverage_frac",
        1.0 - by_name[Name::DriverSlice as usize] as f64 / wall as f64,
    ));

    let rate = |traced: bool| {
        let rates: Vec<f64> = commit
            .slices
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.tx as f64 / s.timed.work_s())
            .collect();
        stats::median(&rates)
    };
    out.push(("trace.overhead_frac", 1.0 - rate(true) / rate(false)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workload::WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "name {n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "unit {}", m.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// `BENCHMARK.json` (one directory up) lists exactly these metrics and
    /// workloads, with these units, directions and bounds.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .to_vec()
        };
        let s = |v: &crate::json::Value, key: &str| {
            v.get(key)
                .and_then(|x| x.as_str())
                .expect("string")
                .to_string()
        };

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(s(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(|b| b.as_f64()),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(s(j, "better"), m.better.as_str(), "{}", m.name);
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(s(j, "name"), w.name);
            let why = s(j, "why");
            assert_eq!(why, w.why, "why of {}", w.name);
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {}", w.name);
        }
        let seconds = json
            .get("run_seconds")
            .and_then(|v| v.as_f64())
            .expect("run_seconds");
        assert_eq!(seconds, crate::workload::RUN_SECONDS as f64);
    }
}
