//! perfbench — the text-to-vis service benchmark.
//!
//! ```text
//! perfbench --workload popular-hot|rob-unique|rob-eval --seed N --seconds S --trace 0|1 --server PATH
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! replays the same seeded inputs in-process through each layer's public
//! functions and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the exit code is 1 when any answer was wrong
//! and 2 when the run could not complete. `perfbench/README.md` explains
//! the workloads and metrics; `perfbench/run.py` builds and runs it.

mod child;
mod inputs;
mod loadgen;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: PathBuf,
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (requests, examples, set-ups, runs of a
    /// replay); printed so every number states its base.
    pub samples: usize,
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (per-phase counts, the
    /// reconciliation of layer times against client latency).
    pub notes: Vec<String>,
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_op", "us"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("accuracy", "share"),
];

/// Per-layer metric names and units, in `BENCHMARK.json` order. A layer a
/// workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("net.unattributed_us", "us"),
    ("net.connections", "count"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("route.json_parse_us", "us"),
    ("route.normalize_us", "us"),
    ("cache.hit_share", "share"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.evictions", "count"),
    ("pool.queue_wait_us", "us"),
    ("pool.handoff_us", "us"),
    ("pool.rejected", "count"),
    ("batch.mean_size", "count"),
    ("batch.retries", "count"),
    ("embed.us", "us"),
    ("retrieve.nlq_us", "us"),
    ("retrieve.dvq_us", "us"),
    ("gred.generator_self_us", "us"),
    ("gred.retuner_self_us", "us"),
    ("gred.debugger_self_us", "us"),
    ("gred.retuner_edit_share", "share"),
    ("gred.debugger_edit_share", "share"),
    ("render.us", "us"),
    ("dvq.parse_us", "us"),
    ("engine.execute_us", "us"),
    ("engine.vegalite_us", "us"),
    ("parallel.busy_share", "share"),
    ("eval.grade_us", "us"),
    ("trace.overhead_share", "share"),
    ("light.latency_p50_us", "us"),
    ("heavy.latency_p99_us", "us"),
    ("slo_rate_rps", "1/s"),
    ("accuracy.original", "share"),
    ("accuracy.nlq", "share"),
    ("accuracy.schema", "share"),
    ("accuracy.both", "share"),
    ("latency.mean_us", "us"),
    ("latency_p99_us", "us"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload popular-hot|rob-unique|rob-eval --seed N --seconds S --trace 0|1 --server PATH"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(server)) = (
        get("--workload"),
        get("--seed"),
        get("--seconds"),
        get("--trace"),
        get("--server"),
    ) else {
        usage()
    };
    let (Ok(seed), Ok(seconds)) = (seed.parse::<u64>(), seconds.parse::<f64>()) else {
        usage()
    };
    if seconds.is_nan() || seconds <= 0.0 || !matches!(trace.as_str(), "0" | "1") {
        usage()
    }
    Args {
        workload,
        seed,
        seconds,
        trace: trace == "1",
        server: PathBuf::from(server),
    }
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = parse_args();
    let outcome = match args.workload.as_str() {
        "popular-hot" => workloads::popular_hot(&args),
        "rob-unique" => workloads::rob_unique(&args),
        "rob-eval" => workloads::rob_eval(&args),
        _ => usage(),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ladder: Vec<String> = inputs::LADDER
        .iter()
        .map(|s| format!("{}:{}/s*{}s", s.name, s.rate, s.share * args.seconds))
        .collect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} loadgen_threads={} connections={} ladder={} server=\"t2v-serve {}\" git={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc,
        workloads::loadgen_threads(&args.workload),
        workloads::loadgen_connections(&args.workload),
        ladder.join(","),
        workloads::SERVER_ARGS.join(" "),
        git_describe()
    );
    for n in &outcome.notes {
        println!("  {n}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in wanted {
        let m = outcome.metrics.iter().find(|m| m.name == name);
        let (value, samples) = m.map_or((0.0, 0), |m| (m.value, m.samples));
        debug_assert!(m.is_none_or(|m| m.unit == unit));
        println!("  {name:<26} {value:>14.4} {unit:<6} (n={samples})");
        json.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        json.join(",")
    );
    std::process::exit(if outcome.failed == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_engine::Json;

    fn listed(b: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = b.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the package");
        let b = Json::parse(&text).expect("BENCHMARK.json parses");
        let own = |v: &[(&str, &str)]| {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed(&b, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&b, "per_layer"), own(&PER_LAYER));
    }
}
