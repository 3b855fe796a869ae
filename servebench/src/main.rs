//! Serving benchmark for the EXCESS query server.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload mix|probe|write --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the real `excess-server` in-process over `server_mix_db`,
//! drives it over loopback sockets, checks every response, and prints
//! each metric by name with its unit, then one JSON result line.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run adds an in-process traced replay and prints the per-layer ones.
//! See `README.md` next to this file for the workloads and metrics.

#![forbid(unsafe_code)]

mod check;
mod quantile;
mod traced;
mod wire;
mod workload;

use excess_bench::server_mix::MIX;
use quantile::{median, sorted, tail, windowed_tail, Quantile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Workload, Writer};

/// Most windows a tail quantile is taken over (see
/// [`quantile::windowed_tail`]).
const TAIL_WINDOWS: usize = 10;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Per-layer time metrics: medians over the traced run's spans (the wire
/// run's samples for `server.wire_us` and `bench.generator_late_us`).
const LAYER_TIMES: &[&str] = &[
    "lang.parse_us",
    "lang.translate_us",
    "optimizer.search_us",
    "optimizer.index_us",
    "optimizer.lower_us",
    "core.execute_us",
    "core.canon_us",
    "db.serialize_us",
    "db.refresh_us",
    "db.commit.clone_us",
    "db.commit.apply_us",
    "db.commit.stats_us",
    "db.commit.publish_us",
    "server.wire_us",
    "bench.generator_late_us",
    "bench.unattributed_us",
];

/// Per-read time metrics, also reported per `MIX` label.
const PER_READ: &[&str] = &[
    "lang.parse_us",
    "lang.translate_us",
    "optimizer.search_us",
    "optimizer.index_us",
    "optimizer.lower_us",
    "core.execute_us",
    "core.canon_us",
    "db.serialize_us",
    "server.wire_us",
    "bench.unattributed_us",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let name = take("--workload")?;
    let workload = workload::workload(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("--seconds")?
        .parse()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or("--seconds must be a whole number from 1 to 600")?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

impl Metric {
    fn new(name: &str, unit: &'static str, value: f64, note: String) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            note,
        }
    }

    /// The metric's log line.
    fn line(&self) -> String {
        format!(
            "{:<48} = {:>14.3} {:<6} ({})",
            self.name, self.value, self.unit, self.note
        )
    }

    /// A quantile metric; an empty population reads 0 with `n=0`.
    fn quantile(name: &str, unit: &'static str, q: Option<Quantile>) -> Self {
        match q {
            Some(q) => Metric::new(
                name,
                unit,
                q.value,
                format!("p{:.2} of n={}, {} beyond", q.pct * 100.0, q.n, q.beyond()),
            ),
            None => Metric::new(name, unit, 0.0, "n=0".to_string()),
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tail metric over samples in arrival order: the median of per-window
/// `p`-quantiles when the samples fill at least one window with ten
/// beyond, else the highest quantile of them all that has ten beyond.
fn tail_metric(name: &str, in_order: &[f64], p: f64) -> Result<Metric, String> {
    if let Some(w) = windowed_tail(in_order, p, TAIL_WINDOWS) {
        let note = format!(
            "p{} median over {} windows of >= {} samples, n={}",
            p * 100.0,
            w.windows,
            w.min_window,
            w.n
        );
        return Ok(Metric::new(name, "us", w.value, note));
    }
    let q = tail(&sorted(in_order.to_vec()), p)
        .ok_or_else(|| format!("{name}: too few samples for a quantile with ten beyond"))?;
    Ok(Metric::quantile(name, "us", Some(q)))
}

fn end_to_end(
    args: &Args,
    setups: &[Duration],
    run: &wire::WireRun,
) -> Result<Vec<Metric>, String> {
    let mut reads = run.reads.clone();
    reads.sort_by_key(|r| r.done);
    let wall: Vec<f64> = reads.iter().map(|r| r.wall_us).collect();
    let n = wall.len();
    let setup = sorted(setups.iter().map(Duration::as_secs_f64).collect());
    let commits = if args.workload.writer == Writer::Between {
        ", closed loop on an idle server"
    } else {
        ""
    };
    let mut commit_p50 = Metric::quantile(
        "commit_p50_us",
        "us",
        median(&sorted(run.commits_us.clone())),
    );
    commit_p50.note.push_str(commits);
    // Printed, not a result metric: on a shared 2-core virtual machine
    // this tail spread across runs far beyond any usable bound (README.md).
    let mut commit_p95 = tail_metric("commit_p95_us", &run.commits_us, 0.95)?;
    commit_p95.note.push_str(commits);
    println!("{} [printed only]", commit_p95.line());
    let out = vec![
        Metric::new(
            "read_qps",
            "1/s",
            n as f64 / run.read_seconds,
            format!("{n} reads in {:.3} s", run.read_seconds),
        ),
        Metric::quantile("read_p50_us", "us", median(&sorted(wall.clone()))),
        tail_metric("read_p99_us", &wall, 0.99)?,
        commit_p50,
        Metric::quantile("setup_s", "s", median(&setup)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM".to_string()),
    ];
    Ok(out)
}

fn per_layer(run: &wire::WireRun, traced: &traced::Traced) -> Vec<Metric> {
    // Samples per metric name, overall and per label.
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut by_label: BTreeMap<(String, usize), Vec<f64>> = BTreeMap::new();
    let mut push = |name: String, label: Option<usize>, us: f64| {
        if let Some(l) = label {
            by_label.entry((name.clone(), l)).or_default().push(us);
        }
        all.entry(name).or_default().push(us);
    };
    for r in &run.reads {
        push(
            "server.wire_us".into(),
            Some(r.label),
            r.wall_us - r.server_us as f64,
        );
    }
    for &late in &run.late_us {
        push("bench.generator_late_us".into(), None, late);
    }
    let mut child_us = vec![0.0; traced.spans.len()];
    for s in &traced.spans {
        if let Some(p) = s.parent {
            child_us[p] += s.us();
        }
    }
    for (i, s) in traced.spans.iter().enumerate() {
        match s.name {
            "request" => push(
                "bench.unattributed_us".into(),
                s.label,
                s.us() - child_us[i],
            ),
            "commit" => {}
            layer => push(format!("{layer}_us"), s.label, s.us()),
        }
    }
    let mut out: Vec<Metric> = LAYER_TIMES
        .iter()
        .map(|&name| {
            let s = sorted(all.remove(name).unwrap_or_default());
            Metric::quantile(name, "us", median(&s))
        })
        .collect();
    assert!(all.is_empty(), "spans without a metric: {:?}", all.keys());
    let c = &traced.counts;
    let reads = c.reads.max(1) as f64;
    let per_read = |name: &str, total: u64| {
        Metric::new(
            name,
            "count",
            total as f64 / reads,
            format!("per read, {total} over {} reads", c.reads),
        )
    };
    out.push(per_read("optimizer.plans_enumerated", c.plans_enumerated));
    out.push(per_read("optimizer.memo_members", c.memo_members));
    out.push(per_read("optimizer.hash_join_kernels", c.hash_join_kernels));
    out.push(per_read(
        "core.occurrences_scanned",
        c.counters.occurrences_scanned,
    ));
    out.push(per_read("core.comparisons", c.counters.comparisons));
    out.push(per_read("core.pairs_formed", c.counters.pairs_formed));
    out.push(per_read("core.derefs", c.counters.derefs));
    out.push(Metric::new(
        "core.scanned_per_row",
        "ratio",
        c.counters.occurrences_scanned as f64 / c.rows.max(1) as f64,
        format!(
            "{} scanned / {} rows",
            c.counters.occurrences_scanned, c.rows
        ),
    ));
    for (label, (label_name, _)) in MIX.iter().enumerate() {
        for &name in PER_READ {
            let s = sorted(
                by_label
                    .remove(&(name.to_string(), label))
                    .unwrap_or_default(),
            );
            out.push(Metric::quantile(
                &format!("{name}.{label_name}"),
                "us",
                median(&s),
            ));
        }
    }
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let w = &args.workload;
    let writer = match w.writer {
        Writer::Concurrent => format!(
            "1 writer connection, open loop at {} commits/s during the reads",
            workload::CONCURRENT_COMMITS_PER_S
        ),
        Writer::Between => format!(
            "closed-loop commits on an idle server in the last {}% of each of {} cycles",
            workload::COMMIT_SHARE * 100.0,
            workload::COMMIT_WINDOWS
        ),
    };
    println!(
        "servebench: workload {} seed {} seconds {} trace {} | scale {}, {} reader connection(s), {writer}, cores {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.scale,
        w.readers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let setups_wanted = if args.trace { 1 } else { SETUPS };
    let mut setups = Vec::new();
    let mut served: Option<wire::Served> = None;
    for _ in 0..setups_wanted {
        if let Some(prev) = served.take() {
            prev.teardown();
        }
        let (s, took) = wire::setup(w)?;
        setups.push(took);
        served = Some(s);
    }
    let mut served = served.expect("at least one setup");
    let wire_run = wire::run(&mut served, w, args.seed, args.seconds as f64);
    let traced = if args.trace {
        Some(traced::replay(w, args.seed, served.expected()))
    } else {
        None
    };
    served.teardown();

    let tally = &wire_run.tally;
    let mut correct = tally.wrong == 0;
    if let Some(fault) = &tally.first_fault {
        println!("first fault: {fault}");
    }
    println!(
        "error_rate = {} ({} failed of {} operations: reads, refreshes, commits; {} wrong results; {} reader passes)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
        tally.wrong,
        wire_run.passes
    );
    let metrics = match traced {
        None => end_to_end(args, &setups, &wire_run)?,
        Some(Err(e)) => {
            println!("traced replay failed: {e}");
            correct = false;
            Vec::new()
        }
        Some(Ok(t)) => {
            println!(
                "traced replay: {} reads, {} spans, canon-identical to the expected results",
                t.counts.reads,
                t.spans.len()
            );
            per_layer(&wire_run, &t)
        }
    };
    Ok((correct, tally.attempted, tally.failed, metrics))
}

fn main() -> ExitCode {
    // The workloads are defined with every `EXCESS_*` setting at its
    // default; nothing else runs yet, so the environment is ours to edit.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EXCESS_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload mix|probe|write --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            for m in &metrics {
                println!("{}", m.line());
            }
            println!("{}", json_line(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("servebench: wrong results; see the log above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_core::json::{parse_json, JsonValue};

    fn names(section: &JsonValue) -> Vec<String> {
        section
            .as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// A run with enough synthetic samples for every metric.
    fn synthetic_run() -> wire::WireRun {
        let mut run = wire::WireRun {
            read_seconds: 1.0,
            ..Default::default()
        };
        for i in 0..100 {
            run.reads.push(wire::ReadSample {
                label: i % MIX.len(),
                wall_us: 100.0 + i as f64,
                server_us: 50,
                done: std::time::Instant::now(),
            });
            run.commits_us.push(200.0 + i as f64);
        }
        run
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let spec = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let args = Args {
            workload: workload::WORKLOADS[0],
            seed: 0,
            seconds: 1,
            trace: false,
        };
        let run = synthetic_run();
        let e2e: Vec<String> = end_to_end(&args, &[Duration::from_millis(5)], &run)
            .expect("enough samples")
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(e2e, names(spec.get("end_to_end").unwrap()));
        let traced = traced::Traced {
            spans: Vec::new(),
            counts: traced::Counts::default(),
        };
        let layer: Vec<String> = per_layer(&run, &traced)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(layer, names(spec.get("per_layer").unwrap()));
        let workloads: Vec<String> = names(spec.get("workloads").unwrap());
        let ours: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = vec![Metric::new("read_qps", "1/s", 12.5, String::new())];
        let line = parse_json(&json_line(true, 7, 1, &metrics)).expect("result line parses");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().get("read_qps").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(12.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }
}
