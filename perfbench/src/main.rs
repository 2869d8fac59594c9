//! The repository benchmark: builds one workload's serving stack from
//! generated data, drives its load, checks every answer and prints every
//! metric by name and unit. The last line of standard output is the result
//! object; the exit code is nonzero when any check fails.
//!
//! ```text
//! perfbench --workload hot-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an undecorated stack;
//! `--trace 1` wraps every layer in timing decorators and reports the
//! per-layer metrics instead.

mod common;
mod flat;
mod ingest;
mod serving;
mod stats;
mod stream;
mod trace;
mod tree;

use common::{run_read, Args, ReadRun, K};
use stats::{result_line, Metrics};

pub const WORKLOADS: [&str; 4] = ["hot-zipf", "cold-uniform", "tree-exact", "ingest-mixed"];

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("qps", "1/s"),
    ("pages_per_query", "pages"),
    ("recall_at_k", "ratio"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 37] = [
    ("index.gen_us_p50", "us"),
    ("index.candidates_per_query", "count"),
    ("index.leaf_bounds_us_p50", "us"),
    ("cache.lookup_us_p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.admits_per_query", "count"),
    ("cache.node_lookup_us_p50", "us"),
    ("cache.node_hit_ratio", "ratio"),
    ("io.read_us_per_query", "us"),
    ("io.self_us_per_query", "us"),
    ("io.hot_hit_ratio", "ratio"),
    ("io.coalesced", "count"),
    ("io.lookahead_waste_ratio", "ratio"),
    ("storage.read_us_per_query", "us"),
    ("storage.reads_per_query", "count"),
    ("storage.retries", "count"),
    ("query.self_us_p50", "us"),
    ("query.fetches_per_query", "count"),
    ("query.tree_self_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.dispatch_us_p50", "us"),
    ("ingest.append_us_p50", "us"),
    ("ingest.seal_ms", "ms"),
    ("ingest.compact_ms", "ms"),
    ("ingest.seals", "count"),
    ("ingest.compactions", "count"),
    ("ingest.query_us_p50", "us"),
    ("ingest.segments_visited", "count"),
    ("ingest.prune_ratio", "ratio"),
    ("ingest.write_p50_us", "us"),
    ("ingest.write_p99_us", "us"),
    ("ingest.space_amp", "ratio"),
    ("loadgen.write_late_us_p99", "us"),
    ("loadgen.read_late_us_p99", "us"),
    ("trace.reconcile_max_err_us", "us"),
    ("trace.unreconciled", "count"),
];

/// `measured` laid out on `names`: every name once, in order, 0 where the
/// workload does not exercise the layer.
fn complete(measured: &Metrics, names: &[(&'static str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        out.put(name, measured.get(name).unwrap_or(0.0), unit);
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn number<T: std::str::FromStr>(value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage())
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number(value),
            "--seconds" => args.seconds = number(value),
            "--trace" => args.trace = number::<u8>(value) == 1,
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Checks on a read run beyond answer correctness: the identity pass and,
/// when traced, reconciliation and the outside-vs-program page count.
fn read_checks(run: &ReadRun, traced: bool, layers: &mut Metrics) -> Vec<String> {
    let mut failures = run.identity.failures.clone();
    if run.identity.checked == 0 {
        failures.push("identity pass compared no requests".into());
    }
    println!(
        "identity pass: {} requests traced vs untraced, {} mismatches",
        run.identity.checked,
        run.identity.failures.len()
    );
    if !traced {
        return failures;
    }
    let traced_samples: Vec<_> = run.samples.iter().filter_map(|s| s.layers).collect();
    let unreconciled = traced_samples.iter().filter(|b| !b.reconciles()).count();
    let max_err = traced_samples
        .iter()
        .map(|b| b.reconcile_err)
        .max()
        .unwrap_or(0);
    let negative = traced_samples.iter().filter(|b| b.min_self < 0).count();
    println!(
        "reconciliation: {} requests, {unreconciled} outside tolerance, {negative} with a negative self time, max |sum of self - total| {:.1} µs",
        traced_samples.len(),
        max_err as f64 / 1e3
    );
    layers.put("trace.reconcile_max_err_us", max_err as f64 / 1e3, "us");
    layers.put("trace.unreconciled", unreconciled as f64, "count");
    if unreconciled > 0 {
        failures.push(format!("{unreconciled} traced requests do not reconcile"));
    }
    let physical: u64 = traced_samples.iter().map(|b| b.store_physical).sum();
    println!(
        "page count: {physical} physical reads seen below the broker, {} in IoStats",
        run.io.pages_read
    );
    if physical != run.io.pages_read {
        failures.push(format!(
            "outside physical reads {physical} != IoStats pages_read {}",
            run.io.pages_read
        ));
    }
    failures
}

fn main() {
    let args = parse_args();
    println!(
        "workload={} seed={} seconds={} trace={} k={K} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (e2e, mut layers, attempted, errors, mut failures) = match args.workload.as_str() {
        "ingest-mixed" => {
            let run = ingest::run(&args);
            (
                run.end_to_end(),
                run.per_layer(),
                run.attempted(),
                run.errors(),
                Vec::new(),
            )
        }
        name => {
            let run = match name {
                "hot-zipf" => run_read(&flat::Flat(&flat::HOT_ZIPF), &args),
                "cold-uniform" => run_read(&flat::Flat(&flat::COLD_UNIFORM), &args),
                _ => run_read(&tree::Tree, &args),
            };
            let mut layers = if args.trace {
                run.per_layer()
            } else {
                Metrics::default()
            };
            let failures = read_checks(&run, args.trace, &mut layers);
            (
                run.end_to_end(),
                layers,
                run.attempted as u64,
                run.errors,
                failures,
            )
        }
    };
    if errors > 0 {
        failures.push(format!("{errors} requests failed or answered incorrectly"));
    }
    let error_rate = errors as f64 / attempted.max(1) as f64;
    println!("requests: {attempted} attempted, {errors} errors, error_rate {error_rate:.6}");
    e2e.print("end-to-end:");
    if !layers.0.is_empty() {
        layers = complete(&layers, &PER_LAYER);
        layers.print("per-layer:");
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    let shown = if args.trace {
        layers
    } else {
        complete(&e2e, &END_TO_END)
    };
    println!("{}", result_line(correct, attempted, errors as u64, &shown));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values of `key` for the metrics under `section` of BENCHMARK.json.
    fn declared(section: &str, key: &str) -> Vec<String> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closed")];
        body.split(&format!("\"{key}\": \""))
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("quoted name")].to_string())
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        for (list, section) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let names: Vec<String> = list.iter().map(|(n, _)| n.to_string()).collect();
            let units: Vec<String> = list.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(names, declared(section, "name"));
            assert_eq!(units, declared(section, "unit"));
        }
    }
}
