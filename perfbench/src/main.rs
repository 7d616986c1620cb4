//! Two-clock benchmark of the cloud provenance store.
//!
//! ```text
//! perfbench --workload <commit-burst|read-live|paper-blast> --seed <n> --seconds <s> --trace <0|1>
//! perfbench spread <run-output-file>...
//! ```
//!
//! Every workload runs on a fresh simulation per execution and reports on
//! two clocks: the *virtual* clock (the modelled 2009 AWS latency and
//! bill a tenant of the store sees; deterministic) and the *host* clock
//! (the CPU and memory the simulator burns). `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer metrics of a traced
//! execution beside an untraced one. The last line of standard output
//! is the run record; the exit code is 1 when an output check fails.
//! `spread` summarises saved outputs of several runs per metric: median,
//! quartiles and quartile distance over median.

mod commit_burst;
mod episode;
mod host;
mod paper_blast;
mod read_live;
mod record;
mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cloudprov_cloud::CloudEnv;
use cloudprov_pass::Uuid;

use episode::{mix64, Episode};
use record::{Metric, RunRecord};
use spans::Spans;
use stats::{Ratio, Sample};

/// End-to-end metrics, with units, in report order.
const END_TO_END: [(&str, &str); 14] = [
    ("commit_tput", "txn/s"),
    ("commit_p50_s", "s"),
    ("commit_p99_s", "s"),
    ("visible_p50_s", "s"),
    ("visible_p99_s", "s"),
    ("query_p99_ms", "ms"),
    ("upload_overhead_pct", "%"),
    ("lineage_s", "s"),
    ("cost_usd", "usd"),
    ("host_s", "s"),
    ("host_cpu_s", "s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("rss_retained_mb", "MB"),
];

/// Per-layer metrics, with units. Every workload reports all of them;
/// a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 69] = [
    ("sim.vcsw", "count"),
    ("sim.ivcsw", "count"),
    ("sim.sys_share", "ratio"),
    ("sim.threads", "count"),
    ("cloud.s3.requests_per_txn", "req/txn"),
    ("cloud.sdb.requests_per_txn", "req/txn"),
    ("cloud.sqs.requests_per_txn", "req/txn"),
    ("cloud.bytes_per_txn", "B/txn"),
    ("cloud.s3.usd", "usd"),
    ("cloud.sdb.usd", "usd"),
    ("cloud.sqs.usd", "usd"),
    ("cloud.read_requests_per_query", "req/query"),
    ("cloud.self_cpu_s", "s"),
    ("core.close.host_us.p50", "us"),
    ("core.close.host_us.p99", "us"),
    ("core.sync.virtual_s", "s"),
    ("core.commit.copy_s", "s"),
    ("core.commit.db_s", "s"),
    ("core.commit.index_s", "s"),
    ("core.commit.ack_s", "s"),
    ("core.commit.feed_s", "s"),
    ("core.commit.service_p50_s", "s"),
    ("core.self_cpu_s", "s"),
    ("fleet.pickup_p50_s", "s"),
    ("fleet.msgs_per_txn", "msg/txn"),
    ("fleet.lease_acquisitions", "count"),
    ("fleet.handoffs", "count"),
    ("fleet.idle_releases", "count"),
    ("fleet.dropped", "count"),
    ("fleet.wakeups", "count"),
    ("fleet.admission_p99_ms", "ms"),
    ("fleet.self_cpu_s", "s"),
    ("feed.events", "count"),
    ("feed.duplicates", "count"),
    ("feed.gaps", "count"),
    ("query.cache.hit_rate", "ratio"),
    ("query.cache.misses", "count"),
    ("query.cache.bypasses", "count"),
    ("query.cache.evictions", "count"),
    ("query.cache.invalidations", "count"),
    ("query.cache.refused_installs", "count"),
    ("query.cache.resident_bytes", "B"),
    ("query.cache.capacity_bytes", "B"),
    ("query.lineage.working_set_bytes", "B"),
    ("query.hit.host_ns.p50", "ns"),
    ("query.hit.host_ns.p99", "ns"),
    ("query.miss.virtual_ms.p50", "ms"),
    ("query.miss.virtual_ms.p99", "ms"),
    ("query.miss.requests", "count"),
    ("query.plan.cached", "count"),
    ("query.plan.index", "count"),
    ("query.plan.select", "count"),
    ("query.plan.scan", "count"),
    ("query.self_cpu_s", "s"),
    ("pass.capture_s", "s"),
    ("fs.upload.s3fs.requests", "count"),
    ("fs.upload.p1.requests", "count"),
    ("fs.upload.p2.requests", "count"),
    ("fs.upload.p3.requests", "count"),
    ("fs.upload.s3fs.mb", "MB"),
    ("fs.upload.p1.mb", "MB"),
    ("fs.upload.p2.mb", "MB"),
    ("fs.upload.p3.mb", "MB"),
    ("fs.self_cpu_s", "s"),
    ("bench.self_cpu_s", "s"),
    ("trace.host_overhead_s", "s"),
    ("trace.virtual_drift_s", "s"),
    ("trace.spans", "count"),
    ("trace.program_spans", "count"),
];

/// One workload of the benchmark.
trait Workload {
    type Inputs;
    /// `(metric, percentile)` pairs whose percentile must have at least
    /// ten samples beyond it.
    const SAMPLED: &'static [(&'static str, f64)];
    fn setup(seed: u64) -> Self::Inputs;
    fn episode(inputs: &Self::Inputs, spans: &Spans, traced: bool) -> Episode;
    /// Input sizes for the run's provenance record.
    fn describe(inputs: &Self::Inputs) -> Vec<(&'static str, String)>;
}

struct CommitBurst;
impl Workload for CommitBurst {
    type Inputs = commit_burst::Inputs;
    const SAMPLED: &'static [(&'static str, f64)] = &[("commit_p99_s", 99.0)];
    fn setup(seed: u64) -> Self::Inputs {
        commit_burst::setup(seed)
    }
    fn episode(inputs: &Self::Inputs, spans: &Spans, traced: bool) -> Episode {
        commit_burst::episode(inputs, spans, traced)
    }
    fn describe(inputs: &Self::Inputs) -> Vec<(&'static str, String)> {
        commit_burst::describe(inputs)
    }
}

struct ReadLive;
impl Workload for ReadLive {
    type Inputs = read_live::Inputs;
    const SAMPLED: &'static [(&'static str, f64)] = &[
        ("commit_p99_s", 99.0),
        ("visible_p99_s", 99.0),
        ("query_p99_ms", 99.0),
    ];
    fn setup(seed: u64) -> Self::Inputs {
        read_live::setup(seed)
    }
    fn episode(inputs: &Self::Inputs, spans: &Spans, traced: bool) -> Episode {
        read_live::episode(inputs, spans, traced)
    }
    fn describe(inputs: &Self::Inputs) -> Vec<(&'static str, String)> {
        read_live::describe(inputs)
    }
}

struct PaperBlast;
impl Workload for PaperBlast {
    type Inputs = paper_blast::Inputs;
    const SAMPLED: &'static [(&'static str, f64)] = &[];
    fn setup(seed: u64) -> Self::Inputs {
        paper_blast::setup(seed)
    }
    fn episode(inputs: &Self::Inputs, spans: &Spans, traced: bool) -> Episode {
        paper_blast::episode(inputs, spans, traced)
    }
    fn describe(inputs: &Self::Inputs) -> Vec<(&'static str, String)> {
        paper_blast::describe(inputs)
    }
}

/// The program's own commit breakdown for the median committed
/// transaction, and its span count, from a traced environment.
pub(crate) fn traced_layer(
    env: &CloudEnv,
    layer: &mut BTreeMap<&'static str, f64>,
    pairs: &mut [(Duration, Uuid)],
) {
    pairs.sort_unstable();
    if !pairs.is_empty() {
        let rank = ((0.5 * pairs.len() as f64).ceil() as usize).clamp(1, pairs.len()) - 1;
        if let Some(b) = env.tracer().critical_path(pairs[rank].1 .0) {
            layer.insert("core.commit.copy_s", b.copy.as_secs_f64());
            layer.insert("core.commit.db_s", b.db.as_secs_f64());
            layer.insert("core.commit.index_s", b.index.as_secs_f64());
            layer.insert("core.commit.ack_s", b.ack.as_secs_f64());
            layer.insert("core.commit.feed_s", b.feed.as_secs_f64());
        }
    }
    *layer.entry("trace.program_spans").or_default() += env.tracer().stats().spans as f64;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or(format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let args = Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    };
    if map.len() != 4 {
        return Err(format!(
            "unexpected arguments in {args:?}",
            args = map.keys()
        ));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        std::process::exit(spread(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <commit-burst|read-live|paper-blast> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let ok = match args.workload.as_str() {
        "commit-burst" => run::<CommitBurst>(&args),
        "read-live" => run::<ReadLive>(&args),
        "paper-blast" => run::<PaperBlast>(&args),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Executions per run, each on its own seed derived from the run's
/// seed; their samples are pooled. Six keep the seed-to-seed spread of
/// every virtual-clock metric within about 7%.
const EXECUTIONS: usize = 6;

/// Times each execution's set-up is repeated.
const SETUPS: usize = 2;

/// The seed of execution `k` of a run.
fn sub_seed(seed: u64, k: usize) -> u64 {
    mix64(seed ^ mix64(0x5EED_0000 ^ k as u64))
}

fn median(v: &[f64]) -> f64 {
    Sample::new(v.to_vec()).percentile(50.0).unwrap_or(0.0)
}

/// Runs one workload and prints its report; `true` when every output
/// check passed.
fn run<W: Workload>(args: &Args) -> bool {
    let budget = Duration::from_secs(args.seconds);
    let executions = if args.trace { 1 } else { EXECUTIONS };
    // Each set-up runs SETUPS times and keeps the last, so `setup_s` is a
    // median over several set-ups even for the smallest run.
    let mut setup_times = Vec::new();
    let inputs: Vec<W::Inputs> = (0..executions)
        .map(|k| {
            let mut last = None;
            for _ in 0..SETUPS {
                drop(last.take());
                let t = Instant::now();
                last = Some(W::setup(sub_seed(args.seed, k)));
                setup_times.push(t.elapsed().as_secs_f64());
            }
            last.expect("at least one set-up")
        })
        .collect();
    let mut problems: Vec<String> = Vec::new();
    let measured = Instant::now();
    let (record, episodes, first) = if args.trace {
        traced_run::<W>(args, &inputs[0], budget, &mut problems)
    } else {
        untraced_run::<W>(&inputs, budget, median(&setup_times), &mut problems)
    };
    let measured = measured.elapsed();

    // The run's own provenance: what ran, on what,
    // from which inputs, for how long.
    let mut prov: Vec<(&str, String)> = vec![
        ("git_rev", git_rev()),
        ("source_fnv64", format!("{:016x}", source_fingerprint())),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        (
            "clock",
            if args.trace {
                "virtual+host, traced beside untraced".into()
            } else {
                "virtual+host, untraced".into()
            },
        ),
        ("nproc", host::nproc().to_string()),
        ("measured_s", format!("{:.3}", measured.as_secs_f64())),
        ("executions", episodes.to_string()),
        (
            "sub_seeds",
            (0..executions)
                .map(|k| sub_seed(args.seed, k).to_string())
                .collect::<Vec<_>>()
                .join(","),
        ),
    ];
    prov.extend(W::describe(&inputs[0]));
    for key in [
        "query.cache.capacity_bytes",
        "query.lineage.working_set_bytes",
    ] {
        if let Some(v) = first.layer.get(key).filter(|v| **v > 0.0) {
            prov.push((key, v.to_string()));
        }
    }
    let prov_json: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {}", record::quote(k), record::quote(v)))
        .collect();
    println!("provenance: {{{}}}", prov_json.join(", "));
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let record = RunRecord { correct, ..record };
    println!("{}", record.to_json());
    correct
}

/// The end-to-end run: every execution untraced, repeated until the
/// budget is spent; the first pass is pooled, repeats must reproduce it.
fn untraced_run<W: Workload>(
    inputs: &[W::Inputs],
    budget: Duration,
    setup_s: f64,
    problems: &mut Vec<String>,
) -> (RunRecord, usize, Episode) {
    let k = inputs.len();
    let off = Spans::new(false);
    let rss_base = host::retained_rss_mb();
    let (mut hosts, mut cpus) = (Vec::new(), Vec::new());
    let mut firsts: Vec<Episode> = Vec::new();
    let (mut rss_peak, mut rss_retained) = (0.0, 0.0);
    let start = Instant::now();
    let mut i = 0;
    loop {
        let (u0, t0) = (host::Usage::now(), Instant::now());
        let ep = W::episode(&inputs[i % k], &off, false);
        hosts.push(t0.elapsed().as_secs_f64());
        eprintln!(
            "execution {i} (seed {}): {:.3} s",
            i % k,
            t0.elapsed().as_secs_f64()
        );
        let u1 = host::Usage::now();
        cpus.push(u1.since(&u0).cpu().as_secs_f64());
        if i == 0 {
            rss_peak = u1.maxrss_mb;
        }
        if i < k {
            firsts.push(ep);
        } else if ep.digest() != firsts[i % k].digest() {
            problems.push(format!(
                "execution {} of the same seed did not reproduce its virtual-clock results",
                i % k
            ));
        }
        // Trim after every execution, so that what stays resident is what
        // the program retained, not free heap the allocator fragmented.
        let rss = host::retained_rss_mb();
        i += 1;
        if i == k + 1 {
            rss_retained = rss - rss_base;
        }
        if i > k && start.elapsed() >= budget {
            break;
        }
    }

    let pool = |f: fn(&Episode) -> &Vec<Duration>| {
        Sample::of(firsts.iter().flat_map(|e| f(e).iter().copied()))
    };
    let commits = pool(|e| &e.commits);
    let visible = pool(|e| &e.visible);
    let queries = pool(|e| &e.queries);
    let window: f64 = firsts.iter().map(|e| e.commit_window.as_secs_f64()).sum();
    let upload = Ratio::new(
        firsts.iter().map(|e| e.upload.num).sum(),
        firsts.iter().map(|e| e.upload.base).sum(),
    );
    let per_exec = |f: fn(&Episode) -> f64| firsts.iter().map(f).sum::<f64>() / k as f64;
    let attempted: u64 = firsts.iter().map(|e| e.attempted).sum();
    let failures: Vec<&String> = firsts.iter().flat_map(|e| &e.failures).collect();

    let values: BTreeMap<&str, f64> = [
        (
            "commit_tput",
            Ratio::new(commits.len() as f64, window).or_zero(),
        ),
        ("commit_p50_s", commits.percentile(50.0).unwrap_or(0.0)),
        ("commit_p99_s", commits.percentile(99.0).unwrap_or(0.0)),
        ("visible_p50_s", visible.percentile(50.0).unwrap_or(0.0)),
        ("visible_p99_s", visible.percentile(99.0).unwrap_or(0.0)),
        (
            "query_p99_ms",
            queries.percentile(99.0).unwrap_or(0.0) * 1e3,
        ),
        ("upload_overhead_pct", upload.pct().unwrap_or(0.0)),
        ("lineage_s", per_exec(|e| e.lineage.as_secs_f64())),
        ("cost_usd", per_exec(|e| e.cost_usd)),
        ("host_s", median(&hosts)),
        ("host_cpu_s", median(&cpus)),
        ("setup_s", setup_s),
        ("rss_peak_mb", rss_peak),
        ("rss_retained_mb", rss_retained),
    ]
    .into_iter()
    .collect();

    let samples: BTreeMap<&str, &Sample> = [
        ("commit", &commits),
        ("visible", &visible),
        ("query", &queries),
    ]
    .into_iter()
    .collect();
    println!("{:<22} {:>16} {:<6} basis", "metric", "value", "unit");
    for (name, unit) in END_TO_END {
        let basis = match name {
            "commit_tput" => format!("{} txns over {window:.1} virtual s", commits.len()),
            "upload_overhead_pct" => format!("with / without provenance: {upload}"),
            "lineage_s" | "cost_usd" => format!("mean of {k} executions"),
            "host_s" | "host_cpu_s" => format!("median of {} executions", hosts.len()),
            "setup_s" => format!("median of {} set-ups", SETUPS * k),
            "rss_peak_mb" => "first execution, fresh process".into(),
            "rss_retained_mb" => format!("after {} executions, all dropped", k + 1),
            _ => {
                let s = samples[name.split('_').next().expect("named")];
                let p = if name.contains("p50") { 50.0 } else { 99.0 };
                let highest = s
                    .highest_supported()
                    .map_or("none".into(), |h| format!("p{h:.2}"));
                format!(
                    "n={} ({} beyond; highest with >=10 beyond: {highest})",
                    s.len(),
                    s.beyond(p)
                )
            }
        };
        println!("{name:<22} {:>16.6} {unit:<6} {basis}", values[name]);
    }
    println!(
        "{:<22} {:>16.6} {:<6} {} failed of {attempted} attempted",
        "failed_share",
        stats::failed_share(failures.len() as u64, attempted),
        "ratio",
        failures.len()
    );
    for f in &failures {
        println!("  failed: {f}");
    }
    for (name, p) in W::SAMPLED {
        let s = samples[name.split('_').next().expect("named")];
        if !s.supports(*p) {
            problems.push(format!(
                "{name}: only {} samples beyond p{p} of {}",
                s.beyond(*p),
                s.len()
            ));
        }
    }
    let metrics = END_TO_END
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                Metric {
                    value: values[name],
                    unit: unit.to_string(),
                },
            )
        })
        .collect();
    let record = RunRecord {
        correct: true,
        attempted: attempted.max(1),
        failed: failures.len() as u64,
        metrics,
    };
    let first = firsts.swap_remove(0);
    (record, i, first)
}

/// The per-layer run: execution 0 untraced and traced in turn until the
/// budget is spent; each kind must reproduce its own first result.
fn traced_run<W: Workload>(
    args: &Args,
    inputs: &W::Inputs,
    budget: Duration,
    problems: &mut Vec<String>,
) -> (RunRecord, usize, Episode) {
    let off = Spans::new(false);
    let mut untraced: Vec<(f64, host::Usage)> = Vec::new();
    let mut traced_hosts: Vec<f64> = Vec::new();
    let (mut first_u, mut first_t): (Option<Episode>, Option<Episode>) = (None, None);
    let mut kept = Vec::new();
    let start = Instant::now();
    let mut n = 0;
    while n < 4 || start.elapsed() < budget {
        let tracing = n % 2 == 1;
        let spans = if tracing && first_t.is_none() {
            Spans::new(true)
        } else {
            off.clone()
        };
        let (u0, t0) = (host::Usage::now(), Instant::now());
        let ep = W::episode(inputs, &spans, tracing);
        let host_s = t0.elapsed().as_secs_f64();
        let usage = host::Usage::now().since(&u0);
        let first = if tracing { &mut first_t } else { &mut first_u };
        match first {
            None => {
                if tracing {
                    kept = spans.collected();
                }
                *first = Some(ep);
            }
            Some(f) if f.digest() != ep.digest() => problems.push(format!(
                "a {} execution of the same seed did not reproduce its results",
                if tracing { "traced" } else { "untraced" }
            )),
            Some(_) => {}
        }
        // The first traced execution also pays for recording spans; time
        // only the plain traced repeats against the untraced ones.
        if tracing {
            if n > 1 {
                traced_hosts.push(host_s);
            }
        } else {
            untraced.push((host_s, usage));
        }
        n += 1;
    }
    let (u, t) = (first_u.expect("ran untraced"), first_t.expect("ran traced"));
    let mut values: BTreeMap<&str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    for (k, v) in t.layer.iter().chain(&t.host_layer) {
        values.insert(k, *v);
    }
    let u_host: Vec<f64> = untraced.iter().map(|(h, _)| *h).collect();
    let pick = |f: fn(&host::Usage) -> f64| {
        median(&untraced.iter().map(|(_, u)| f(u)).collect::<Vec<_>>())
    };
    values.insert("sim.vcsw", pick(|u| u.vcsw as f64));
    values.insert("sim.ivcsw", pick(|u| u.ivcsw as f64));
    values.insert(
        "sim.sys_share",
        pick(|u| Ratio::new(u.sys.as_secs_f64(), u.cpu().as_secs_f64()).or_zero()),
    );
    let (um, tm) = (median(&u_host), median(&traced_hosts));
    values.insert("trace.host_overhead_s", tm - um);
    values.insert(
        "trace.virtual_drift_s",
        episode::pct_s(t.commits.iter().copied(), 50.0)
            - episode::pct_s(u.commits.iter().copied(), 50.0),
    );
    values.insert("trace.spans", kept.len() as f64);
    for (layer, d) in spans::self_cpu_by_layer(&kept) {
        let key = match layer {
            "cloud" => "cloud.self_cpu_s",
            "core" => "core.self_cpu_s",
            "fleet" => "fleet.self_cpu_s",
            "query" => "query.self_cpu_s",
            "fs" => "fs.self_cpu_s",
            "bench" => "bench.self_cpu_s",
            _ => continue,
        };
        values.insert(key, d.as_secs_f64());
    }
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::to_json_lines(&kept)))
    {
        Ok(()) => println!("spans: {} written to {}", kept.len(), path.display()),
        Err(e) => problems.push(format!("writing {}: {e}", path.display())),
    }
    println!("{:<36} {:>18} unit", "per-layer metric", "value");
    for (name, unit) in PER_LAYER {
        println!("{name:<36} {:>18.6} {unit}", values[name]);
    }
    for f in &u.failures {
        println!("  failed: {f}");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                Metric {
                    value: values[name],
                    unit: unit.to_string(),
                },
            )
        })
        .collect();
    let record = RunRecord {
        correct: true,
        attempted: u.attempted.max(1),
        failed: u.failures.len() as u64,
        metrics,
    };
    (record, n, u)
}

/// `spread FILE...`: per metric, the median, quartiles and quartile
/// distance over median of the run records the files end with.
fn spread(files: &[String]) -> i32 {
    let mut records = Vec::new();
    for f in files {
        let line = std::fs::read_to_string(f)
            .map_err(|e| e.to_string())
            .and_then(|s| s.lines().last().map(str::to_string).ok_or("empty".into()))
            .and_then(|l| RunRecord::parse(&l));
        match line {
            Ok(r) => records.push(r),
            Err(e) => {
                eprintln!("{f}: {e}");
                return 1;
            }
        }
    }
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>9}",
        "metric", "median", "q1", "q3", "iqr/med"
    );
    for (name, med, q1, q3, share) in record::spread(&records) {
        println!("{name:<36} {med:>14.6} {q1:>14.6} {q3:>14.6} {share:>9.4}");
    }
    0
}

/// The commit the checkout was made from, read from `.git` when there is
/// one.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "none (not a git checkout)".into(),
    }
}

/// FNV-1a over the program's and the benchmark's sources, in path order:
/// identifies the code measured when there is no git revision.
fn source_fingerprint() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "vendor"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.push("perfbench/Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
