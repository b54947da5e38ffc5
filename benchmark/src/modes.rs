//! The two self-checks that run the benchmark as child processes of
//! itself (one process per workload run, as the harness does):
//!
//! * `--check-determinism`: one workload twice on one seed must give the
//!   identical ledger digest, `ledger_bytes_per_tx`, `wire_bytes_per_tx`
//!   and `core.msgs_per_tx`; then once on a second seed must pass too.
//! * `--aa`: two back-to-back sets of runs of every workload on this same
//!   binary; per metric both medians, their relative difference, each
//!   set's quartile spread and the bound. Non-zero exit when a difference
//!   or a spread exceeds its bound — the acceptance check the harness
//!   applies, run on identical code.

use std::process::{Command, ExitCode};

use crate::json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::WORKLOADS;
use crate::Args;

/// Standard output of one child run, or why it failed.
fn child(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {} — {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// The end-to-end metrics of a child's JSON result line, after checking
/// the line's shape against the contract.
fn result_metrics(stdout: &str) -> Result<Vec<(String, f64)>, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let v = json::parse(line)?;
    let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    if v.get("correct").and_then(json::Value::as_bool) != Some(true) {
        return Err("run reported correct = false".into());
    }
    if v.get("failed").and_then(json::Value::as_f64) != Some(0.0) {
        return Err("run reported failed requests".into());
    }
    let metrics = v.get("metrics").ok_or("no metrics")?;
    metrics
        .members()
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(json::Value::as_f64)
                .ok_or("metric without value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// The value of a `metric <name> <value> <unit>` or `info <key> <value>`
/// line of a child's output.
fn line_value<'a>(stdout: &'a str, kind: &str, name: &str) -> Result<&'a str, String> {
    stdout
        .lines()
        .find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(kind) && words.next() == Some(name)).then(|| words.next())
        })
        .flatten()
        .ok_or_else(|| format!("no `{kind} {name}` line"))
}

/// The workload `--workload` names, or all of them.
fn selected(args: &Args) -> Vec<&'static str> {
    match args.workload {
        Some(w) => vec![w.name],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    }
}

pub fn check_determinism(args: &Args) -> ExitCode {
    let workloads = selected(args);
    let exact = [
        ("info", "ledger_digest"),
        ("metric", "ledger_bytes_per_tx"),
        ("metric", "wire_bytes_per_tx"),
        ("metric", "core.msgs_per_tx"),
    ];
    let mut ok = true;
    for w in workloads {
        let outcome = (|| -> Result<(), String> {
            let first = child(w, args.seed, args.seconds)?;
            let second = child(w, args.seed, args.seconds)?;
            for (kind, name) in exact {
                let (a, b) = (
                    line_value(&first, kind, name)?,
                    line_value(&second, kind, name)?,
                );
                println!("{w} seed {} {name}: {a} | {b}", args.seed);
                if a != b {
                    return Err(format!(
                        "{name} differs between two runs of seed {}",
                        args.seed
                    ));
                }
            }
            let other = child(w, args.seed + 1, args.seconds)?;
            let (a, b) = (
                line_value(&first, "info", "ledger_digest")?,
                line_value(&other, "info", "ledger_digest")?,
            );
            println!("{w} seed {} ledger_digest: {b}", args.seed + 1);
            if a == b {
                return Err("a second seed produced the same ledger".into());
            }
            result_metrics(&other).map(|_| ())
        })();
        match outcome {
            Ok(()) => println!("{w}: deterministic"),
            Err(e) => {
                eprintln!("{w}: NOT deterministic: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

pub fn aa(args: &Args) -> ExitCode {
    let workloads = selected(args);
    let mut ok = true;
    for w in workloads {
        // sets[set][metric index] = one value per run.
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for (s, set) in sets.iter_mut().enumerate() {
            for run in 0..args.runs {
                let seed = args.seed + run as u64;
                let metrics = match child(w, seed, args.seconds).and_then(|o| result_metrics(&o)) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("aa: {e}");
                        return ExitCode::from(1);
                    }
                };
                for (i, m) in END_TO_END.iter().enumerate() {
                    match metrics.iter().find(|(n, _)| n == m.name) {
                        Some((_, v)) => set[i].push(*v),
                        None => {
                            eprintln!("aa: {w} seed {seed} reported no {}", m.name);
                            return ExitCode::from(1);
                        }
                    }
                }
                eprintln!("aa: {w} set {} run {}/{} done", s + 1, run + 1, args.runs);
            }
        }
        println!(
            "{:<16} {:<20} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
            "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (stats::median(&sets[0][i]), stats::median(&sets[1][i]));
            let worse = m.better.worsening(a, b);
            let (sa, sb) = (
                stats::iqr_spread(&sets[0][i]),
                stats::iqr_spread(&sets[1][i]),
            );
            // The acceptance rule: the second median may not be worse than
            // the first by more than the bound, and (except for setup_s)
            // neither set's quartile spread may exceed it.
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let pass = worse <= m.bound && spread_ok;
            ok &= pass;
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                w,
                m.name,
                a,
                b,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                if pass { "ok" } else { "EXCEEDED" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--calibrate`: the calibration kernel's rate on this box right now —
/// run it on a quiet box to find `calib::REFERENCE_RATE`.
pub fn calibrate() -> ExitCode {
    let mut cal = crate::calib::Calibrator::new();
    for round in 0..10 {
        let rates = cal.sample_rates(400);
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        println!(
            "round {round}: {} samples, mean {:.0} it/s (x{:.3} of the reference), median {:.0}, \
             fastest {:.0}, slowest {:.0}, quartile spread {:.2}%",
            rates.len(),
            mean,
            mean / crate::calib::REFERENCE_RATE,
            stats::median(&rates),
            stats::best(&rates, stats::Better::Higher),
            stats::best(&rates, stats::Better::Lower),
            stats::iqr_spread(&rates) * 100.0
        );
    }
    ExitCode::SUCCESS
}

/// `--list`: the workloads and the two metric tables, as `BENCHMARK.json`
/// has them.
pub fn list() -> ExitCode {
    for w in &WORKLOADS {
        println!("workload   {:<44} {}", w.name, w.why);
    }
    for m in &END_TO_END {
        let (better, bound) = (m.better.as_str(), m.bound * 100.0);
        println!(
            "end_to_end {:<44} {:<6} {better:<7} bound {bound}%",
            m.name, m.unit
        );
    }
    for m in &PER_LAYER {
        println!(
            "per_layer  {:<44} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    ExitCode::SUCCESS
}
