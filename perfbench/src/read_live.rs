//! `read-live`: lineage reads beside live writes.
//!
//! 16 writers commit rounds into a 4-shard / 2-daemon fleet while 120
//! query tenants, each a closed loop with 0–20 s of think time, issue
//! mixed Q.1–Q.4 through one shared `AncestryCache` kept coherent by the
//! commit feed. Every writer round runs a program drawn with Zipf skew
//! and reads the writer's earlier outputs, so lineage deepens and fans in
//! as the run goes. A watcher per writer polls a cached Q.3 at a fixed
//! cadence to see when each output becomes visible. At the end a
//! quiescent pass checks every program's cached and uncached answers
//! against ground truth evaluated locally over the base records.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cloudprov_cloud::{AwsProfile, CloudEnv, TenantId};
use cloudprov_core::{Protocol, ProtocolConfig, ProtocolError, ProvenanceClient, StorageProtocol};
use cloudprov_feed::{fanout, Predicate, Subscriptions};
use cloudprov_fleet::{Fleet, FleetConfig};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_pass::{PNodeId, Pid, ProcessInfo};
use cloudprov_query::source::local;
use cloudprov_query::{
    AncestryCache, CacheConfig, CacheOutcome, Mode, Plan, QueryEngine, QueryOutput,
};
use cloudprov_sim::{Sim, SimTime};

use crate::episode::{cloud_layer, mean_s, mix64, pct_s, Episode};
use crate::spans::Spans;
use crate::stats::{Ratio, Sample};

const WRITERS: usize = 16;
const TENANTS: usize = 120;
/// Distinct programs the writers draw from.
pub const PROGRAMS: usize = 64;
/// Zipf exponent of the program draw.
const ZIPF_S: f64 = 1.0;
/// Live rounds per writer after the warm-up round. A round ends in one
/// sync, so an execution commits 16 × 16 = 256 transactions and observes
/// 16 × 2 × 16 = 512 writes; a run pools six executions.
const ROUNDS: usize = 16;
/// Earlier outputs a round reads besides the previous round's two.
const FAN_IN: usize = 2;
/// Think time between a writer's rounds. At 25 s the two daemons keep
/// up and commit latency stays flat over the run; at 10 s a backlog
/// builds and the latency tail grows with the run's length.
const ROUND_GAP: Duration = Duration::from_secs(25);
const THINK_MAX_MS: u64 = 20_000;
/// The visibility watchers' polling cadence.
pub const WATCH_CADENCE: Duration = Duration::from_secs(1);
/// Polls a watcher keeps making after the writers finish before it
/// gives up on a write as never visible.
const MAX_POLLS_AFTER_DONE: u32 = 600;
const SHARDS: u32 = 4;
const DAEMONS: usize = 2;
const POLL: Duration = Duration::from_secs(2);

/// Generated inputs of one execution.
pub struct Inputs {
    seed: u64,
    /// The program writer `w` runs in round `r`, `plan[w][r]`, for
    /// rounds 0..=ROUNDS.
    plan: Vec<Vec<usize>>,
    /// Each writer's phase within the round gap: independent writers do
    /// not sync in lockstep.
    offsets: Vec<Duration>,
    /// Storage wait of the same writer rounds on plain S3fs, per writer.
    baseline: Vec<Duration>,
}

/// The shared cache's sizing: 92 KiB, just below the lineage working set
/// this workload builds (about 96 KB on every seed tried), so hits,
/// misses and evictions all occur. The default 4 MiB would hold it 40
/// times over, and a working set above it would take some 175 000 index
/// edges, far more than a run commits in seconds of host time. The
/// per-tenant ceiling equals the capacity so that one Q.4 hydration
/// never has to evict its own pages. Smaller caches thrash: one 12%
/// below the working set evicts some 30 000 entries per execution and
/// takes twice the host time.
fn cache_config() -> CacheConfig {
    const CAPACITY: usize = 92 << 10;
    CacheConfig {
        capacity_bytes: CAPACITY,
        tenant_max_bytes: CAPACITY,
        tenant_reserved_bytes: CacheConfig::default().tenant_reserved_bytes / 64,
        staleness_guard: Duration::ZERO,
    }
}

fn profile(seed: u64) -> AwsProfile {
    AwsProfile::calibrated_strict(Default::default()).with_seed(seed)
}

/// Draws a program index with Zipf(`ZIPF_S`) skew from a uniform `u` in
/// [0, 1).
fn zipf(u: f64) -> usize {
    let weights: Vec<f64> = (1..=PROGRAMS)
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for (k, w) in weights.iter().enumerate() {
        acc += w / total;
        if u < acc {
            return k;
        }
    }
    PROGRAMS - 1
}

fn uniform(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn out_path(w: usize, r: usize, i: usize) -> String {
    format!("/w{w}/out-{r}-{i}")
}

fn program_name(p: usize) -> String {
    format!("prog-{p}")
}

/// What one writer round did.
struct RoundOutcome {
    /// Each output's provenance node (none on plain S3fs) and the
    /// instant its close was issued.
    closed: Vec<(Option<PNodeId>, SimTime)>,
    /// Virtual time the writer waited on storage: closes plus sync.
    waited: Duration,
    /// The sync's share of `waited`.
    synced: Duration,
}

/// Runs round `r` of writer `w`: a process of `program` reads the
/// previous round's outputs and `FAN_IN` earlier ones, writes and closes
/// two outputs, then syncs.
fn write_round(
    fs: &PaS3fs,
    client: &ProvenanceClient,
    sim: &Sim,
    w: usize,
    r: usize,
    program: usize,
    spans: &Spans,
) -> Result<RoundOutcome, String> {
    let pid = Pid((w as u64) * 1009 + r as u64 + 1);
    fs.exec(
        pid,
        ProcessInfo {
            name: program_name(program),
            ..Default::default()
        },
    );
    let mut x = mix64((w as u64) << 32 ^ r as u64);
    let earlier = (0..FAN_IN).map(|_| {
        x = mix64(x);
        ((x as usize) % r.max(1), (x >> 63) as usize)
    });
    let reads: BTreeSet<(usize, usize)> = if r == 0 {
        BTreeSet::new()
    } else {
        [(r - 1, 0), (r - 1, 1)]
            .into_iter()
            .chain(earlier)
            .collect()
    };
    for (e, i) in reads {
        fs.read(pid, &out_path(w, e, i), 8);
    }
    let mut closed = Vec::new();
    let mut waited = Duration::ZERO;
    for i in 0..2 {
        let path = out_path(w, r, i);
        fs.write(pid, &path, 16);
        let node = fs.with_observer(|o| o.file_node(&path)).flatten();
        let at = sim.now();
        spans
            .wrap(sim, None, "fs.close", || fs.close(pid, &path))
            .map_err(|e| e.to_string())?;
        waited += sim.now().saturating_duration_since(at);
        closed.push((node, at));
    }
    let at = sim.now();
    spans
        .wrap(sim, None, "core.sync", || client.sync())
        .map_err(|e| e.to_string())?;
    let synced = sim.now().saturating_duration_since(at);
    Ok(RoundOutcome {
        closed,
        waited: waited + synced,
        synced,
    })
}

/// Plans every writer's rounds and measures them on plain S3fs.
pub fn setup(seed: u64) -> Inputs {
    let plan: Vec<Vec<usize>> = (0..WRITERS)
        .map(|w| {
            let mut x = mix64(seed ^ mix64(0xA11C_E000 ^ w as u64));
            (0..=ROUNDS)
                .map(|_| {
                    x = mix64(x);
                    zipf(uniform(x))
                })
                .collect()
        })
        .collect();
    let offsets: Vec<Duration> = (0..WRITERS)
        .map(|w| {
            let x = mix64(seed ^ mix64(0x0FF5_E700 ^ w as u64));
            Duration::from_millis(x % ROUND_GAP.as_millis() as u64)
        })
        .collect();
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, profile(seed));
    let spans = Spans::new(false);
    let handles: Vec<_> = plan
        .iter()
        .enumerate()
        .map(|(w, rounds)| {
            let env = env.clone();
            let rounds = rounds.clone();
            let offset = offsets[w];
            let spans = spans.clone();
            let sim2 = sim.clone();
            sim.spawn(move || {
                let client = ProvenanceClient::builder(Protocol::S3fs)
                    .build(&env.for_tenant(TenantId(w as u32)));
                let client = Arc::new(client);
                let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 0);
                let mut waited = Duration::ZERO;
                for (r, &program) in rounds.iter().enumerate() {
                    if r == 1 {
                        sim2.sleep(offset);
                    }
                    if r > 0 {
                        sim2.sleep(ROUND_GAP);
                    }
                    waited += write_round(&fs, &client, &sim2, w, r, program, &spans)
                        .expect("the S3fs baseline runs without faults")
                        .waited;
                }
                waited
            })
        })
        .collect();
    let baseline = handles.into_iter().map(|h| h.join()).collect();
    Inputs {
        seed,
        plan,
        offsets,
        baseline,
    }
}

fn run_q(engine: &QueryEngine, q: usize, prog: &str) -> Result<QueryOutput, ProtocolError> {
    match q {
        3 => engine.q3_outputs_of(prog, Mode::Sequential),
        _ => engine.q4_descendants_of(prog, Mode::Sequential),
    }
}

#[derive(Default)]
struct TenantOutcome {
    latencies: Vec<Duration>,
    errors: Vec<String>,
    hit_cpu: Vec<Duration>,
    miss_virtual: Vec<Duration>,
    miss_ops: u64,
    ops: u64,
    plans: [u64; 4],
}

fn plan_index(p: Option<Plan>) -> usize {
    match p {
        Some(Plan::Cached) => 0,
        Some(Plan::Index) => 1,
        Some(Plan::SdbSelect) => 2,
        _ => 3,
    }
}

/// A write waiting to be seen: `(node, close instant, program)`.
type Pending = Arc<Mutex<Vec<(PNodeId, SimTime, String)>>>;

/// One execution on a fresh simulation.
#[allow(clippy::too_many_lines)]
pub fn episode(inputs: &Inputs, spans: &Spans, traced: bool) -> Episode {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, profile(inputs.seed));
    if traced {
        env.tracer().enable(inputs.seed);
    }
    let config = ProtocolConfig {
        feed: true,
        ..ProtocolConfig::default()
    };
    let fleet = spans.wrap(&sim, None, "fleet.provision", || {
        Fleet::provision(
            &env,
            config.clone(),
            FleetConfig {
                shards: SHARDS,
                lease_ttl: Duration::from_secs(120),
                max_shard_depth: 64,
                admission_poll: Duration::from_millis(200),
                push: true,
            },
        )
    });
    let pool = spans.wrap(&sim, None, "fleet.spawn_pool", || {
        fleet.spawn_pool(DAEMONS, POLL)
    });
    let cache = Arc::new(AncestryCache::new(
        &sim,
        CacheConfig {
            staleness_guard: env.profile().consistency.max_staleness,
            ..cache_config()
        },
    ));
    let subs = Subscriptions::new(&sim);
    let monitor = subs
        .subscribe(None, Predicate::All)
        .expect("a fresh registry has no quota in force");
    pool.set_event_sink(fanout(vec![cache.sink(), subs.sink()]));
    cache.attach();
    let mut ep = Episode::default();

    // Each writer keeps one session for the whole run; round 0 is
    // committed and quiesced before any reader starts.
    let sessions: Vec<(Arc<ProvenanceClient>, Arc<PaS3fs>)> = (0..WRITERS)
        .map(|w| {
            let client = Arc::new(spans.wrap(&sim, None, "fleet.client", || {
                fleet.client(&format!("w{w}"), Some(TenantId(w as u32)))
            }));
            let fs = Arc::new(PaS3fs::attach(
                client.clone(),
                LocalIoParams::instant(),
                mix64(inputs.seed ^ mix64(0xB0B0_0000 ^ w as u64)),
            ));
            (client, fs)
        })
        .collect();
    let warm: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(w, (client, fs))| {
            let (client, fs) = (client.clone(), fs.clone());
            let program = inputs.plan[w][0];
            let spans = spans.clone();
            let sim2 = sim.clone();
            sim.spawn(move || write_round(&fs, &client, &sim2, w, 0, program, &spans).is_ok())
        })
        .collect();
    for (w, h) in warm.into_iter().enumerate() {
        if !h.join() {
            ep.failures
                .push(format!("writer w{w}: warm-up round failed"));
        }
    }
    let deadline = sim.now() + Duration::from_secs(24 * 3600);
    while fleet.total_depth() > 0 && sim.now() < deadline {
        let _ = monitor.next_timeout(POLL);
    }
    let reader = ProvenanceClient::builder(Protocol::P3)
        .config(ProtocolConfig {
            feed: false,
            ..config.clone()
        })
        .queue("bench-reader")
        .build(&env);
    let store = reader
        .provenance_store()
        .expect("P3 has a provenance store");
    let bucket = reader.data_bucket().to_string();
    let usage_before = env.usage();

    // Live phase.
    let t_live = sim.now();
    let writers_done = Arc::new(AtomicBool::new(false));
    let pendings: Vec<Pending> = (0..WRITERS).map(|_| Pending::default()).collect();
    let writers: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(w, (client, fs))| {
            let (client, fs) = (client.clone(), fs.clone());
            let rounds = inputs.plan[w].clone();
            let offset = inputs.offsets[w];
            let pending = pendings[w].clone();
            let spans = spans.clone();
            let sim2 = sim.clone();
            sim.spawn(move || {
                sim2.sleep(offset);
                let mut err = None;
                let mut waited = Duration::ZERO;
                let mut syncs = Vec::new();
                for (r, &program) in rounds.iter().enumerate().skip(1) {
                    sim2.sleep(ROUND_GAP);
                    match write_round(&fs, &client, &sim2, w, r, program, &spans) {
                        Ok(round) => {
                            waited += round.waited;
                            syncs.push(round.synced);
                            let prog = program_name(program);
                            let mut p = pending.lock().expect("pending lock poisoned");
                            p.extend(
                                round
                                    .closed
                                    .into_iter()
                                    .filter_map(|(n, at)| Some((n?, at, prog.clone()))),
                            );
                        }
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                let out = (client.wal_logged_transactions(), client.flush_breakdown());
                (err, waited, syncs, out)
            })
        })
        .collect();
    let watchers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let engine = QueryEngine::new(&env, store.clone(), &bucket)
                .with_tenant(TenantId(2000 + w as u32))
                .with_cache(cache.clone());
            let pending = pendings[w].clone();
            let done = writers_done.clone();
            let sim2 = sim.clone();
            sim.spawn(move || {
                let mut seen = Vec::new();
                let mut errors = 0u64;
                let mut polls_after_done = 0u32;
                loop {
                    let head = pending
                        .lock()
                        .expect("pending lock poisoned")
                        .first()
                        .map(|p| p.2.clone());
                    match head {
                        Some(prog) => match engine.q3_outputs_of(&prog, Mode::Sequential) {
                            Ok(out) => {
                                let nodes: BTreeSet<PNodeId> = out.nodes.into_iter().collect();
                                let now = sim2.now();
                                pending.lock().expect("pending lock poisoned").retain(
                                    |(n, at, _)| {
                                        let hit = nodes.contains(n);
                                        if hit {
                                            seen.push(now.saturating_duration_since(*at));
                                        }
                                        !hit
                                    },
                                );
                            }
                            Err(_) => errors += 1,
                        },
                        None if done.load(Ordering::SeqCst) => break,
                        None => {}
                    }
                    if done.load(Ordering::SeqCst) {
                        polls_after_done += 1;
                        if polls_after_done > MAX_POLLS_AFTER_DONE {
                            break;
                        }
                    }
                    sim2.sleep(WATCH_CADENCE);
                }
                (seen, errors)
            })
        })
        .collect();
    let tenants: Vec<_> = (0..TENANTS)
        .map(|t| {
            let engine = QueryEngine::new(&env, store.clone(), &bucket)
                .with_tenant(TenantId(1000 + t as u32))
                .with_cache(cache.clone());
            let done = writers_done.clone();
            let spans = spans.clone();
            let sim2 = sim.clone();
            let seed = inputs.seed;
            sim.spawn(move || {
                let mut x = mix64(seed ^ mix64(0x0F00_D000 ^ t as u64));
                let mut out = TenantOutcome::default();
                while !done.load(Ordering::SeqCst) {
                    x = mix64(x);
                    sim2.sleep(Duration::from_millis(x % THINK_MAX_MS));
                    x = mix64(x);
                    let roll = x % 100;
                    x = mix64(x);
                    let prog = program_name(zipf(uniform(x)));
                    x = mix64(x);
                    let (c0, t0) = (crate::host::thread_cpu(), sim2.now());
                    let (name, q): (&'static str, usize) = match roll {
                        0..=3 => ("query.q1", 1),
                        4..=11 => ("query.q2", 2),
                        12..=55 => ("query.q3", 3),
                        _ => ("query.q4", 4),
                    };
                    let r = spans.wrap(&sim2, None, name, || match q {
                        1 => engine.q1_all(Mode::Sequential),
                        2 => engine.q2_object(&out_path(x as usize % WRITERS, 0, 0)[1..]),
                        _ => run_q(&engine, q, &prog),
                    });
                    let cpu = crate::host::thread_cpu().saturating_sub(c0);
                    out.latencies.push(sim2.now().saturating_duration_since(t0));
                    match r {
                        Err(e) => out.errors.push(format!("tenant {t} Q.{q} {prog}: {e}")),
                        Ok(r) => {
                            out.ops += r.metrics.ops;
                            out.plans[plan_index(r.plan.plan)] += 1;
                            match r.plan.cache {
                                Some(CacheOutcome::Hit) => out.hit_cpu.push(cpu),
                                Some(CacheOutcome::Miss) => {
                                    out.miss_virtual.push(r.metrics.elapsed);
                                    out.miss_ops += r.metrics.ops;
                                }
                                _ => {}
                            }
                        }
                    }
                }
                out
            })
        })
        .collect();
    let writer_out: Vec<_> = writers.into_iter().map(|h| h.join()).collect();
    writers_done.store(true, Ordering::SeqCst);
    let tenant_out: Vec<TenantOutcome> = tenants.into_iter().map(|h| h.join()).collect();
    let watcher_out: Vec<_> = watchers.into_iter().map(|h| h.join()).collect();
    spans.wrap(&sim, None, "fleet.quiesce", || {
        while fleet.total_depth() > 0 && sim.now() < deadline {
            let _ = monitor.next_timeout(POLL);
        }
    });
    ep.commit_window = sim.now().saturating_duration_since(t_live);
    let wal_leftover = fleet.total_depth();
    let commit_times: std::collections::BTreeMap<_, _> = pool.commit_times().into_iter().collect();
    let pickup_times: std::collections::BTreeMap<_, _> = pool.pickup_times().into_iter().collect();
    let stats = spans.wrap(&sim, None, "fleet.stop", || pool.stop());
    let usage = spans.wrap(&sim, None, "cloud.usage", || env.usage());
    ep.cost_usd = cloudprov_cloud::PriceBook::aws_2009().cost(&usage).total();

    let mut pickups = Vec::new();
    let mut services = Vec::new();
    let mut live_txns = 0u64;
    let mut commit_pairs = Vec::new();
    let mut waited = Duration::ZERO;
    let mut admission = Vec::new();
    let mut syncs = Vec::new();
    for (w, (err, wait, synced, (logged, flushes))) in writer_out.iter().enumerate() {
        admission.extend(flushes.iter().map(|f| f.admission));
        syncs.extend(synced.iter().copied());
        if let Some(e) = err {
            ep.failures.push(format!("writer w{w}: {e}"));
        }
        waited += *wait;
        for (txn, logged_at) in logged {
            if *logged_at < t_live {
                continue;
            }
            live_txns += 1;
            if let Some(at) = commit_times.get(txn) {
                let lag = at.saturating_duration_since(*logged_at);
                ep.commits.push(lag);
                commit_pairs.push((lag, *txn));
                if let Some(seen) = pickup_times.get(txn) {
                    pickups.push(seen.saturating_duration_since(*logged_at));
                    services.push(at.saturating_duration_since(*seen));
                }
            }
        }
    }
    let baseline: Duration = inputs.baseline.iter().sum();
    ep.upload = Ratio::new(waited.as_secs_f64(), baseline.as_secs_f64());
    let mut watch_errors = 0;
    for (w, (seen, errors)) in watcher_out.into_iter().enumerate() {
        ep.visible.extend(seen);
        watch_errors += errors;
        for (node, _, prog) in pendings[w].lock().expect("pending lock poisoned").iter() {
            ep.failures.push(format!(
                "writer w{w}: output {node:?} of {prog} never visible"
            ));
        }
    }
    if watch_errors > 0 {
        ep.failures
            .push(format!("{watch_errors} watcher queries failed"));
    }
    let mut hit_cpu = Vec::new();
    let mut miss_virtual = Vec::new();
    let (mut miss_ops, mut ops, mut plans) = (0u64, 0u64, [0u64; 4]);
    for o in tenant_out {
        ep.queries.extend(o.latencies);
        ep.failures.extend(o.errors);
        hit_cpu.extend(o.hit_cpu);
        miss_virtual.extend(o.miss_virtual);
        miss_ops += o.miss_ops;
        ops += o.ops;
        for (a, b) in plans.iter_mut().zip(o.plans) {
            *a += b;
        }
    }
    if stats.double_commits > 0 || wal_leftover > 0 {
        ep.failures.push(format!(
            "{} double commits, {wal_leftover} WAL messages left",
            stats.double_commits
        ));
    }
    let cache_stats = cache.stats();

    // Quiescent pass over every program that ran: ground truth over the
    // base records against the warm shared cache (a stale entry shows
    // here), a fresh unbounded cache (the lineage working set) and the
    // uncached planner (the lineage time).
    sim.sleep(env.profile().consistency.max_staleness + Duration::from_secs(1));
    let shared = QueryEngine::new(&env, store.clone(), &bucket).with_cache(cache.clone());
    let unbounded_cache = Arc::new(AncestryCache::new(
        &sim,
        CacheConfig {
            capacity_bytes: usize::MAX / 4,
            tenant_max_bytes: usize::MAX / 4,
            ..CacheConfig::default()
        },
    ));
    unbounded_cache.attach();
    let unbounded =
        QueryEngine::new(&env, store.clone(), &bucket).with_cache(unbounded_cache.clone());
    let uncached = QueryEngine::new(&env, store.clone(), &bucket);
    let raw = uncached
        .source(Plan::SdbSelect)
        .all_records(Mode::Sequential)
        .expect("a quiescent store reads back");
    let mut checks = 0u64;
    let ran: BTreeSet<usize> = inputs.plan.iter().flatten().copied().collect();
    for p in ran {
        let prog = program_name(p);
        let procs = local::processes_named(&raw, &prog);
        let (truth_q3, _) = local::direct_outputs(&raw, &procs);
        let truth_q4 = local::descendants(&raw, &procs);
        for (q, truth) in [(3usize, truth_q3), (4, truth_q4)] {
            let t = sim.now();
            let cold = spans.wrap(&sim, None, "query.lineage", || run_q(&uncached, q, &prog));
            ep.lineage += sim.now().saturating_duration_since(t);
            let _ = run_q(&shared, q, &prog);
            let warm = run_q(&shared, q, &prog);
            let full = run_q(&unbounded, q, &prog);
            for (what, got) in [("uncached", cold), ("cached", warm), ("unbounded", full)] {
                checks += 1;
                match got {
                    Ok(out) if out.nodes == truth => {}
                    Ok(_) => ep.failures.push(format!(
                        "Q.{q} {prog}: {what} result differs from ground truth"
                    )),
                    Err(e) => ep
                        .failures
                        .push(format!("Q.{q} {prog}: {what} failed: {e}")),
                }
            }
        }
    }
    ep.attempted = ep.queries.len() as u64 + checks + ep.visible.len() as u64 + WRITERS as u64;

    let l = &mut ep.layer;
    let live_usage = diff_usage(&usage, &usage_before);
    cloud_layer(l, &live_usage, live_txns);
    l.insert(
        "cloud.read_requests_per_query",
        Ratio::new(ops as f64, ep.queries.len() as f64).or_zero(),
    );
    l.insert("core.sync.virtual_s", mean_s(&syncs));
    l.insert("core.commit.service_p50_s", pct_s(services, 50.0));
    l.insert("fleet.pickup_p50_s", pct_s(pickups, 50.0));
    l.insert(
        "fleet.msgs_per_txn",
        Ratio::new(stats.messages as f64, stats.unique_committed as f64).or_zero(),
    );
    l.insert("fleet.lease_acquisitions", stats.acquisitions as f64);
    l.insert("fleet.handoffs", stats.handoffs as f64);
    l.insert("fleet.idle_releases", stats.idle_releases as f64);
    l.insert("fleet.dropped", stats.dropped as f64);
    l.insert("fleet.wakeups", stats.wakeups as f64);
    l.insert("fleet.admission_p99_ms", pct_s(admission, 99.0) * 1e3);
    let feed = subs.stats();
    l.insert("feed.events", feed.events as f64);
    l.insert("feed.duplicates", feed.duplicates as f64);
    l.insert("feed.gaps", (feed.gaps + monitor.out_of_order()) as f64);
    let served = cache_stats.hits + cache_stats.misses;
    l.insert(
        "query.cache.hit_rate",
        Ratio::new(cache_stats.hits as f64, served as f64).or_zero(),
    );
    l.insert("query.cache.misses", cache_stats.misses as f64);
    l.insert("query.cache.bypasses", cache_stats.bypasses as f64);
    l.insert("query.cache.evictions", cache_stats.evictions as f64);
    l.insert(
        "query.cache.invalidations",
        cache_stats.invalidations as f64,
    );
    l.insert(
        "query.cache.refused_installs",
        cache_stats.refused_installs as f64,
    );
    l.insert("query.cache.resident_bytes", cache_stats.bytes as f64);
    l.insert(
        "query.cache.capacity_bytes",
        cache_config().capacity_bytes as f64,
    );
    l.insert(
        "query.lineage.working_set_bytes",
        unbounded_cache.stats().bytes as f64,
    );
    l.insert(
        "query.miss.virtual_ms.p50",
        pct_s(miss_virtual.iter().copied(), 50.0) * 1e3,
    );
    l.insert("query.miss.virtual_ms.p99", pct_s(miss_virtual, 99.0) * 1e3);
    l.insert("query.miss.requests", miss_ops as f64);
    l.insert("query.plan.cached", plans[0] as f64);
    l.insert("query.plan.index", plans[1] as f64);
    l.insert("query.plan.select", plans[2] as f64);
    l.insert("query.plan.scan", plans[3] as f64);
    if traced {
        crate::traced_layer(&env, &mut ep.layer, &mut commit_pairs);
        ep.host_layer
            .insert("sim.threads", crate::host::threads() as f64);
    }
    let hits = Sample::of(hit_cpu);
    ep.host_layer.insert(
        "query.hit.host_ns.p50",
        hits.percentile(50.0).unwrap_or(0.0) * 1e9,
    );
    ep.host_layer.insert(
        "query.hit.host_ns.p99",
        hits.percentile(99.0).unwrap_or(0.0) * 1e9,
    );
    ep
}

/// Usage accrued between two reports of one environment.
fn diff_usage(
    after: &cloudprov_cloud::UsageReport,
    before: &cloudprov_cloud::UsageReport,
) -> cloudprov_cloud::UsageReport {
    let mut out = after.clone();
    for (k, st) in out.ops.iter_mut() {
        if let Some(b) = before.ops.get(k) {
            st.count -= b.count;
            st.bytes_in -= b.bytes_in;
            st.bytes_out -= b.bytes_out;
        }
    }
    for (k, v) in out.storage_gb_months.iter_mut() {
        *v -= before.storage_gb_months.get(k).copied().unwrap_or(0.0);
    }
    out
}

/// Input sizes for the run record.
pub fn describe(inputs: &Inputs) -> Vec<(&'static str, String)> {
    vec![
        ("writers", WRITERS.to_string()),
        ("query_tenants", TENANTS.to_string()),
        ("programs", format!("{} (Zipf s={ZIPF_S})", PROGRAMS)),
        ("rounds", format!("{} live + 1 warm-up", ROUNDS)),
        ("fan_in", FAN_IN.to_string()),
        ("watch_cadence_s", WATCH_CADENCE.as_secs_f64().to_string()),
        (
            "baseline_wait_s",
            inputs
                .baseline
                .iter()
                .sum::<Duration>()
                .as_secs_f64()
                .to_string(),
        ),
    ]
}
