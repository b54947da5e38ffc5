//! The repository's gating benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --check-determinism [--workload <name>] [--seed <n>] [--seconds <s>]
//! benchmark --aa [--runs <k>] [--seconds <s>]
//! benchmark --list | --calibrate
//! ```
//!
//! One process measures one workload once (so peak RSS and one-time costs
//! never leak between workloads): set-up → commit phase (sliced) → recover
//! → failover → audit → correctness gate, then every metric by name with
//! its unit, then one JSON line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` records spans, runs the per-layer probes and
//! reports the per-layer metrics. See `README.md` next to `Cargo.toml`.

mod calib;
mod cluster;
mod driver;
mod json;
mod metrics;
mod modes;
mod phases;
mod probes;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

use json::Metric;
use workload::{Workload, RUN_SECONDS, WORKLOADS};

/// What the process was asked to do.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Measure one workload once (the harness's invocation).
    Run,
    CheckDeterminism,
    Aa,
    Calibrate,
    List,
}

/// Parsed command line.
pub struct Args {
    pub mode: Mode,
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 10,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload = Some(
                    Workload::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name} (have {names:?})"))?,
                );
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--check-determinism" => args.mode = Mode::CheckDeterminism,
            "--aa" => args.mode = Mode::Aa,
            "--calibrate" => args.mode = Mode::Calibrate,
            "--list" => args.mode = Mode::List,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// What one workload run produced once every check had passed.
struct Report {
    attempted: u64,
    failed: u64,
    /// Every value the run computed, by metric name.
    values: metrics::Values,
    /// Facts that are not metrics (`info <key> <value>` lines).
    info: Vec<(&'static str, String)>,
    /// One line per commit-phase slice.
    slices: Vec<String>,
}

fn hex(digest: &ia_ccf_types::Digest) -> String {
    digest
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Report, String> {
    let spec = cluster::Spec::new(w, seed);
    let scratch = sys::ScratchDir::new(w.name).map_err(|e| format!("scratch dir: {e}"))?;
    let mut cal = calib::Calibrator::new();
    let mut values = Vec::new();
    let mut info = Vec::new();

    let (mut built, setup) = phases::setup(&spec, &scratch, &mut cal)?;
    let commit = phases::commit(&spec, &mut built, &mut cal, w.slice_tx(seconds), trace)?;
    phases::quiesce(&mut built.net)?;
    let recover = phases::recover(&spec, &mut built.net, &scratch, &mut cal)?;
    let failover = phases::failover(&spec, &mut built.net, &mut built.load, &mut cal)?;
    phases::quiesce(&mut built.net)?;
    let audit = phases::audit(&spec, &built.net, &built.load, &mut cal)?;

    // Nothing is reported before the gate has passed.
    let digest = phases::gate(&mut built.net, &built.load, audit.receipts)?;

    metrics::end_to_end(&setup, &commit, &recover, &audit, &mut values);
    metrics::whole_run(&setup, &commit, &recover, &failover, &audit, &mut values);
    let tasks: u64 = built.net.live().map(|r| r.pool().tasks_completed()).sum();
    values.push(("pool.tasks_completed", tasks as f64));

    if trace {
        metrics::span_rows(built.net.tracer.spans(), &commit, &mut values);
        probes::run(
            &spec,
            &mut built.net,
            &built.load,
            &scratch,
            &mut cal,
            &mut values,
        )?;
        let path = sys::out_dir().join(format!("{}.trace.json", w.name));
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"traced_slices\": \"even\", \"slice_tx\": {}",
            w.name,
            w.slice_tx(seconds)
        );
        built
            .net
            .tracer
            .write_json(&path, &header)
            .map_err(|e| format!("trace file: {e}"))?;
        info.push(("trace_file", path.display().to_string()));
        info.push(("trace_spans", built.net.tracer.spans().len().to_string()));
    }

    let slices = commit
        .slices
        .iter()
        .enumerate()
        .map(|(k, s)| {
            format!(
                "slice {k:>2} tx={} tx_per_s={:.1} raw_tx_per_s={:.1} host_speed={:.3} \
                 cpu_us_per_tx={:.1} p50_ms={:.3} traced={}",
                s.tx,
                s.tx as f64 / s.timed.work_s(),
                s.tx as f64 / s.timed.wall_work_s(),
                s.timed.speed(),
                s.timed.cpu_s() * 1e6 / s.tx as f64,
                s.p50_ns as f64 / 1e6 * s.timed.speed(),
                u8::from(s.traced)
            )
        })
        .collect();
    info.push(("ledger_digest", hex(&digest)));
    info.push(("measured_tx", commit.measured_tx.to_string()));
    info.push(("ledger_tx", audit.ledger_tx.to_string()));
    info.push(("audit_receipts", audit.receipts.to_string()));
    info.push(("audit_stretch_tx", audit.prefix_tx.to_string()));
    info.push(("audit_stretch_receipts", audit.prefix_receipts.to_string()));
    let frames_to: Vec<String> = built
        .net
        .counters
        .frames_to
        .iter()
        .map(u64::to_string)
        .collect();
    info.push(("frames_to", frames_to.join(",")));
    info.push(("latency_samples", commit.latencies_ns.len().to_string()));
    info.push(("failover_s", format!("{:.3}", failover.seconds)));
    info.push(("failover_tx", failover.tx.to_string()));
    info.push(("calibration_samples", commit.whole.samples.to_string()));
    info.push(("threads", sys::thread_count().to_string()));

    // Dropping the cluster must leave no pool worker behind.
    let attempted = built.load.submitted;
    let completed = built.load.completed();
    let mut gauges = built.pool_gauges.clone();
    gauges.extend(recover.pool_gauges.iter().cloned());
    drop(built);
    let left = phases::pool_threads_left(&gauges);
    if left != 0 {
        return Err(format!(
            "{left} pool threads alive after the replicas were dropped"
        ));
    }
    values.push((
        "peak_rss_mb",
        sys::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    ));
    Ok(Report {
        attempted,
        failed: attempted - completed,
        values,
        info,
        slices,
    })
}

/// Print the report: one `metric` line per value, the `info` lines, then
/// the JSON result line (the last line of standard output).
fn emit(report: &Report, trace: bool) -> Result<(), String> {
    for line in &report.slices {
        println!("{line}");
    }
    let value = |name: &str| {
        report
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    };
    let mut json_metrics = Vec::new();
    for m in &metrics::END_TO_END {
        let v = value(m.name).ok_or_else(|| format!("metric {} was not computed", m.name))?;
        println!("metric {} {} {}", m.name, json::number(v)?, m.unit);
        if !trace {
            json_metrics.push(Metric {
                name: m.name,
                value: v,
                unit: m.unit,
            });
        }
    }
    for m in &metrics::PER_LAYER {
        match value(m.name) {
            Some(v) => {
                println!("metric {} {} {}", m.name, json::number(v)?, m.unit);
                if trace {
                    json_metrics.push(Metric {
                        name: m.name,
                        value: v,
                        unit: m.unit,
                    });
                }
            }
            None if trace => return Err(format!("metric {} was not computed", m.name)),
            None => {} // spans and probes exist on traced runs only
        }
    }
    for (key, v) in &report.info {
        println!("info {key} {v}");
    }
    println!(
        "{}",
        json::result_line(true, report.attempted, report.failed, &json_metrics)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::Run => {}
        Mode::CheckDeterminism => return modes::check_determinism(&args),
        Mode::Aa => return modes::aa(&args),
        Mode::Calibrate => return modes::calibrate(),
        Mode::List => return modes::list(),
    }
    let Some(w) = args.workload else {
        eprintln!(
            "benchmark: --workload is required (one of {:?})",
            WORKLOADS.map(|w| w.name)
        );
        return ExitCode::from(2);
    };
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} | n=4 f=1 SmallBank accounts={} | \
         closed loop: {} client(s) x {} outstanding | delivery: instant, FIFO, loopback-framed \
         (latency is processor time only) | measured_tx={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workload::ACCOUNTS,
        w.clients,
        w.outstanding_per_client(),
        w.measured_tx(args.seconds),
    );
    match run_workload(w, args.seed, args.seconds, args.trace).and_then(|r| emit(&r, args.trace)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A failed check fails every request of the run: no number is
            // printed, the exit code is non-zero.
            eprintln!("benchmark: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}
