//! `commit-burst`: write-only, saturated commit plane.
//!
//! 192 clients over 12 tenants replay one testkit script each through
//! PA-S3fs over pipelined P3 into an 8-shard fleet with 8 push-mode
//! commit daemons. The scripts are long enough for more than 1000
//! committed transactions, so `commit_p99_s` has at least ten samples
//! beyond it. After the plane quiesces every durable key is read back
//! and checked for §3 data coupling; every key that does not read back
//! `Coupled` is a failed operation, listed by key.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cloudprov_cloud::{AwsProfile, CloudEnv, TenantId};
use cloudprov_core::{CouplingCheck, Protocol, ProtocolConfig, ProvenanceClient, StorageProtocol};
use cloudprov_feed::{Predicate, Subscriptions};
use cloudprov_fleet::{Fleet, FleetConfig};
use cloudprov_fs::{LocalIoParams, PaS3fs};
use cloudprov_pass::Uuid;
use cloudprov_sim::{Sim, SimTime};
use cloudprov_workloads::testkit::random_script;
use cloudprov_workloads::ScriptEvent;

use crate::episode::{cloud_layer, mean_s, mix64, pct_s, Episode};
use crate::replay::{replay, Replayed};
use crate::spans::Spans;
use crate::stats::Ratio;

const CLIENTS: usize = 192;
const TENANTS: u32 = 12;
const SHARDS: u32 = 8;
const DAEMONS: usize = 8;
/// Events per script (plus the testkit prologue): about 1030 committed
/// transactions at this shape.
pub const SCRIPT_LEN: usize = 128;
const POLL: Duration = Duration::from_secs(5);

/// Generated inputs of one execution.
pub struct Inputs {
    seed: u64,
    scripts: Vec<Vec<ScriptEvent>>,
    /// Virtual time each close of the same scripts takes on plain S3fs.
    baseline: Vec<Duration>,
}

fn profile(seed: u64) -> AwsProfile {
    AwsProfile::calibrated(Default::default()).with_seed(seed)
}

fn client_name(c: usize) -> (TenantId, String) {
    let tenant = TenantId(c as u32 % TENANTS);
    (tenant, format!("t{}-c{c}", tenant.0))
}

/// Generates the scripts and measures them on plain S3fs, the base the
/// provenance overhead is measured against.
pub fn setup(seed: u64) -> Inputs {
    let scripts: Vec<Vec<ScriptEvent>> = (0..CLIENTS)
        .map(|c| random_script(mix64(seed ^ mix64(0x5C41_9700 ^ c as u64)), SCRIPT_LEN))
        .collect();
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, profile(seed));
    let spans = Spans::new(false);
    let handles: Vec<_> = scripts
        .iter()
        .enumerate()
        .map(|(c, script)| {
            let env = env.clone();
            let script = script.clone();
            let spans = spans.clone();
            let sim2 = sim.clone();
            sim.spawn(move || {
                let (tenant, name) = client_name(c);
                let client =
                    ProvenanceClient::builder(Protocol::S3fs).build(&env.for_tenant(tenant));
                let fs = PaS3fs::attach(Arc::new(client), LocalIoParams::instant(), 0);
                replay(&fs, &sim2, &script, &format!("/{name}"), &spans, None).closes
            })
        })
        .collect();
    let baseline = handles.into_iter().flat_map(|h| h.join()).collect();
    Inputs {
        seed,
        scripts,
        baseline,
    }
}

struct ClientOutcome {
    replay: Replayed,
    sync_failed: bool,
    sync_virtual: Duration,
    logged: Vec<(Uuid, SimTime)>,
    flushes: Vec<cloudprov_core::FlushSample>,
    threads: u64,
}

/// One execution on a fresh simulation.
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
    let subs = Subscriptions::new(&sim);
    let monitor = subs
        .subscribe(None, Predicate::All)
        .expect("a fresh registry has no quota in force");
    pool.set_event_sink(subs.sink());
    let t0 = sim.now();

    let handles: Vec<_> = inputs
        .scripts
        .iter()
        .enumerate()
        .map(|(c, script)| {
            let fleet = fleet.clone();
            let script = script.clone();
            let spans = spans.clone();
            let sim2 = sim.clone();
            let seed = inputs.seed;
            sim.spawn(move || {
                let (tenant, name) = client_name(c);
                let root = spans.start(&sim2, None, "fleet.session");
                let parent = root.as_ref().and_then(|o| o.id());
                let client = Arc::new(spans.wrap(&sim2, parent, "fleet.client", || {
                    fleet.client(&name, Some(tenant))
                }));
                let fs = PaS3fs::attach(
                    client.clone(),
                    LocalIoParams::instant(),
                    mix64(seed ^ mix64(0x0B5E_77E5 ^ c as u64)),
                );
                let replay = replay(&fs, &sim2, &script, &format!("/{name}"), &spans, parent);
                let t_sync = sim2.now();
                let sync_failed = spans.wrap(&sim2, parent, "core.sync", || client.sync().is_err());
                let sync_virtual = sim2.now().saturating_duration_since(t_sync);
                let threads = if traced { crate::host::threads() } else { 0 };
                spans.end(&sim2, root);
                ClientOutcome {
                    replay,
                    sync_failed,
                    sync_virtual,
                    logged: client.wal_logged_transactions(),
                    flushes: client.flush_breakdown(),
                    threads,
                }
            })
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = handles.into_iter().map(|h| h.join()).collect();

    // Quiesce on the feed: each commit event wakes the driver to re-check
    // the WAL depth; a quiet interval falls back to the poll cadence.
    let mut feed_events = Vec::new();
    let deadline = sim.now() + Duration::from_secs(24 * 3600);
    spans.wrap(&sim, None, "fleet.quiesce", || {
        while fleet.total_depth() > 0 && sim.now() < deadline {
            if let Some(ev) = monitor.next_timeout(POLL) {
                feed_events.push(ev);
            }
        }
    });
    let window = sim.now().saturating_duration_since(t0);
    let wal_leftover = fleet.total_depth();
    let commit_times: BTreeMap<Uuid, SimTime> = pool.commit_times().into_iter().collect();
    let pickup_times: BTreeMap<Uuid, SimTime> = pool.pickup_times().into_iter().collect();
    let stats = spans.wrap(&sim, None, "fleet.stop", || pool.stop());
    while let Some(ev) = monitor.try_next() {
        feed_events.push(ev);
    }
    let temp_leftover = env
        .s3()
        .peek_count(&config.layout.data_bucket, &config.layout.temp_prefix);
    // Bill the burst before the read-back: that traffic is the check's.
    let usage = spans.wrap(&sim, None, "cloud.usage", || env.usage());

    let mut ep = Episode {
        commit_window: window,
        ..Episode::default()
    };
    ep.cost_usd = cloudprov_cloud::PriceBook::aws_2009().cost(&usage).total();
    let mut commit_pairs = Vec::new();
    let mut pickups = Vec::new();
    let mut services = Vec::new();
    let mut waited = Duration::ZERO;
    let mut admission = Vec::new();
    let mut close_cpu = Vec::new();
    let mut logged_total = 0u64;
    for (c, o) in outcomes.iter().enumerate() {
        logged_total += o.logged.len() as u64;
        if o.replay.died.is_some() || o.sync_failed {
            ep.failures.push(format!(
                "client t{}-c{c}: {}",
                c as u32 % TENANTS,
                o.replay.died.as_deref().unwrap_or("sync failed")
            ));
        }
        for (txn, logged_at) in &o.logged {
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
        // Visibility: the client's last durable close is in its last
        // logged transaction (sync waited for every flush).
        if let (Some(close_at), Some((txn, _))) = (o.replay.last_close, o.logged.last()) {
            if let Some(at) = commit_times.get(txn) {
                ep.visible.push(at.saturating_duration_since(close_at));
            }
        }
        waited += o.replay.closes.iter().sum::<Duration>() + o.sync_virtual;
        admission.extend(o.flushes.iter().map(|f| f.admission));
        close_cpu.extend(o.replay.close_cpu.iter().copied());
    }
    let baseline: Duration = inputs.baseline.iter().sum();
    ep.upload = Ratio::new(waited.as_secs_f64(), baseline.as_secs_f64());

    // Plane-level checks.
    if stats.double_commits > 0 {
        ep.failures.push(format!(
            "{} double-committed transactions",
            stats.double_commits
        ));
    }
    let lost = logged_total.saturating_sub(stats.unique_committed);
    if lost > 0 {
        ep.failures
            .push(format!("{lost} logged transactions never committed"));
    }
    if wal_leftover > 0 || temp_leftover > 0 {
        ep.failures.push(format!(
            "{wal_leftover} WAL messages and {temp_leftover} temp objects left after quiesce"
        ));
    }
    let feed = subs.stats();
    let gaps = feed.gaps + monitor.out_of_order();
    if gaps > 0 {
        ep.failures.push(format!("{gaps} feed gaps"));
    }
    let seen: std::collections::BTreeSet<Uuid> = feed_events.iter().map(|e| e.txn).collect();
    let feed_missing = commit_times.keys().filter(|t| !seen.contains(t)).count();
    if feed_missing > 0 {
        ep.failures.push(format!(
            "{feed_missing} committed transactions missing from the feed"
        ));
    }

    // Read back every durable key once the consistency window has passed.
    sim.sleep(env.profile().consistency.max_staleness + Duration::from_secs(1));
    let verifier = ProvenanceClient::builder(Protocol::P3)
        .config(ProtocolConfig {
            feed: false,
            ..config.clone()
        })
        .queue("bench-verifier")
        .build(&env);
    let mut durable = 0u64;
    let t_read = sim.now();
    for o in &outcomes {
        for key in &o.replay.durable_keys {
            durable += 1;
            let t = sim.now();
            let got = spans.wrap(&sim, None, "core.read", || verifier.read(key));
            ep.queries.push(sim.now().saturating_duration_since(t));
            match got {
                Ok(r) if r.coupling == CouplingCheck::Coupled => {}
                Ok(r) => ep.failures.push(format!("{key}: {:?}", r.coupling)),
                Err(e) => ep.failures.push(format!("{key}: {e}")),
            }
        }
    }
    ep.lineage = sim.now().saturating_duration_since(t_read);
    ep.attempted = durable + logged_total + CLIENTS as u64;

    let txns = stats.unique_committed;
    let l = &mut ep.layer;
    cloud_layer(l, &usage, txns);
    l.insert(
        "core.sync.virtual_s",
        mean_s(&outcomes.iter().map(|o| o.sync_virtual).collect::<Vec<_>>()),
    );
    l.insert("core.commit.service_p50_s", pct_s(services, 50.0));
    l.insert("fleet.pickup_p50_s", pct_s(pickups, 50.0));
    l.insert(
        "fleet.msgs_per_txn",
        Ratio::new(stats.messages as f64, txns as f64).or_zero(),
    );
    l.insert("fleet.lease_acquisitions", stats.acquisitions as f64);
    l.insert("fleet.handoffs", stats.handoffs as f64);
    l.insert("fleet.idle_releases", stats.idle_releases as f64);
    l.insert("fleet.dropped", stats.dropped as f64);
    l.insert("fleet.wakeups", stats.wakeups as f64);
    l.insert("fleet.admission_p99_ms", pct_s(admission, 99.0) * 1e3);
    l.insert("feed.events", feed_events.len() as f64);
    l.insert("feed.duplicates", feed.duplicates as f64);
    l.insert("feed.gaps", gaps as f64);
    l.insert("fs.upload.p3.requests", usage.client_ops() as f64);
    l.insert("fs.upload.p3.mb", usage.client_mb_transferred());
    l.insert("fs.upload.s3fs.requests", inputs.baseline.len() as f64);
    if traced {
        crate::traced_layer(&env, &mut ep.layer, &mut commit_pairs);
        let threads = outcomes.iter().map(|o| o.threads).max().unwrap_or(0);
        ep.host_layer.insert("sim.threads", threads as f64);
    }
    let close = crate::stats::Sample::of(close_cpu);
    ep.host_layer.insert(
        "core.close.host_us.p50",
        close.percentile(50.0).unwrap_or(0.0) * 1e6,
    );
    ep.host_layer.insert(
        "core.close.host_us.p99",
        close.percentile(99.0).unwrap_or(0.0) * 1e6,
    );
    ep
}

/// Input sizes for the run record.
pub fn describe(inputs: &Inputs) -> Vec<(&'static str, String)> {
    let events: usize = inputs.scripts.iter().map(Vec::len).sum();
    vec![
        ("clients", CLIENTS.to_string()),
        ("tenants", TENANTS.to_string()),
        ("shards", SHARDS.to_string()),
        ("daemons", DAEMONS.to_string()),
        ("script_events", events.to_string()),
        ("baseline_closes", inputs.baseline.len().to_string()),
    ]
}
