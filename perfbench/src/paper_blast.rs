//! `paper-blast`: the paper's own single-client experiment.
//!
//! Set-up captures the Blast corpus offline (§5.1). The measured phase
//! uploads it with the bench uploader through S3fs, P1, P2 and P3 over
//! 26 connections in the EC2 Sept-2009 context (Figure 3 / Table 3), then
//! runs Q.1–Q.4 uncached on each provenance backend (Table 5). No fleet,
//! feed or cache takes part.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cloudprov_bench::uploader::upload;
use cloudprov_bench::{Rig, Which};
use cloudprov_cloud::{AwsProfile, ClientLocation, CloudEnv, Era, Machine, RunContext};
use cloudprov_core::{ProtocolConfig, ProtocolError, ProvenanceClient, StorageProtocol};
use cloudprov_pass::Uuid;
use cloudprov_query::{Mode, Plan, QueryEngine, QueryOutput};
use cloudprov_sim::{Sim, SimTime};
use cloudprov_workloads::{blast, collect, BlastParams, OfflineRun};

use crate::episode::{cloud_layer, mix64, Episode};
use crate::spans::Spans;
use crate::stats::Ratio;

/// Parallel connections of the paper's upload tool.
const CONNECTIONS: usize = 26;
/// Written files sampled for Q.2.
const Q2_SAMPLE: usize = 16;
/// The program Q.3/Q.4 chase.
const PROGRAM: &str = "blastall";
/// Eventual-consistency settling before the queries (§4.3.1).
const SETTLE: Duration = Duration::from_secs(15);

/// Generated inputs of one execution.
pub struct Inputs {
    seed: u64,
    corpus: OfflineRun,
    /// Host time the capture took.
    capture: Duration,
}

fn context() -> RunContext {
    RunContext {
        location: ClientLocation::Ec2,
        era: Era::Sept2009,
        machine: Machine::Native,
    }
}

/// Blast shape for a seed: the paper's 300 query sequences, give or take
/// ten, so each seed uploads a slightly different corpus.
pub fn params(seed: u64) -> BlastParams {
    BlastParams {
        queries: 290 + (mix64(seed ^ 0xB1A5_7000) % 21) as usize,
        ..BlastParams::default()
    }
}

/// Captures the corpus.
pub fn setup(seed: u64) -> Inputs {
    let t = Instant::now();
    let corpus = collect(&blast(params(seed)));
    Inputs {
        seed,
        corpus,
        capture: t.elapsed(),
    }
}

fn rig(which: Which, seed: u64) -> Rig {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::calibrated(context()).with_seed(seed));
    // The paper's tool sends one WAL message per call: SendMessageBatch
    // postdates it, and Table 3's operation counts assume its absence.
    let config = ProtocolConfig {
        wal_batch_send: false,
        ..ProtocolConfig::default()
    };
    let client = Arc::new(
        ProvenanceClient::builder(which)
            .config(config)
            .queue("wal-bench")
            .build(&env),
    );
    Rig { sim, env, client }
}

/// One execution: four uploads, then the queries on the three
/// provenance backends.
#[allow(clippy::too_many_lines)]
pub fn episode(inputs: &Inputs, spans: &Spans, traced: bool) -> Episode {
    let mut ep = Episode::default();
    let corpus = &inputs.corpus;
    let mut elapsed = [Duration::ZERO; 4];
    let mut rigs = Vec::new();
    for (i, which) in Which::ALL.into_iter().enumerate() {
        // The program's own tracer stays off here even in a traced run:
        // its span context rides in every WAL message, and on the bulk
        // transaction that pushes one message past SQS's 8 KiB limit, so
        // the P3 upload fails (`MessageTooLarge { size: 8198 }`).
        let rig = rig(which, inputs.seed);
        let committed: Arc<Mutex<Vec<(Uuid, SimTime)>>> = Arc::default();
        if let Some(d) = rig.client.commit_daemon() {
            let sim = rig.sim.clone();
            let committed = committed.clone();
            d.set_commit_listener(Arc::new(move |txn| {
                committed
                    .lock()
                    .expect("commit log lock poisoned")
                    .push((txn, sim.now()));
            }));
        }
        let t0 = rig.sim.now();
        let report = spans.wrap(&rig.sim, None, "bench.upload", || {
            upload(&rig, corpus, CONNECTIONS)
        });
        elapsed[i] = report.elapsed;
        ep.layer.insert(
            match which {
                Which::S3fs => "fs.upload.s3fs.requests",
                Which::P1 => "fs.upload.p1.requests",
                Which::P2 => "fs.upload.p2.requests",
                Which::P3 => "fs.upload.p3.requests",
            },
            report.client_ops as f64,
        );
        ep.layer.insert(
            match which {
                Which::S3fs => "fs.upload.s3fs.mb",
                Which::P1 => "fs.upload.p1.mb",
                Which::P2 => "fs.upload.p2.mb",
                Which::P3 => "fs.upload.p3.mb",
            },
            report.mb_transferred,
        );
        if which == Which::P3 {
            let committed = committed.lock().expect("commit log lock poisoned").clone();
            let logged = rig.client.wal_logged_transactions();
            for (txn, logged_at) in &logged {
                if let Some((_, at)) = committed.iter().find(|(t, _)| t == txn) {
                    ep.commits.push(at.saturating_duration_since(*logged_at));
                    ep.visible.push(at.saturating_duration_since(t0));
                    ep.commit_window += at.saturating_duration_since(t0);
                }
            }
            if ep.commits.len() != logged.len() || logged.is_empty() {
                ep.failures.push(format!(
                    "P3 committed {} of {} logged transactions",
                    ep.commits.len(),
                    logged.len()
                ));
            }
            let usage = rig.env.usage();
            cloud_layer(&mut ep.layer, &usage, logged.len() as u64);
        }
        rigs.push(rig);
    }
    ep.upload = Ratio::new(elapsed[3].as_secs_f64(), elapsed[0].as_secs_f64());

    // Table 5 on the three provenance backends, each after the settling
    // window, through the planner's own choice.
    let written: Vec<String> = corpus
        .files
        .iter()
        .filter(|f| f.written)
        .map(|f| f.path.trim_start_matches('/').to_string())
        .collect();
    let sample: Vec<&String> = written
        .iter()
        .step_by((written.len() / Q2_SAMPLE).max(1))
        .collect();
    let mut plans = [0u64; 4];
    let mut requests = 0u64;
    let mut queries = 0u64;
    for rig in &rigs[1..] {
        rig.sim.sleep(SETTLE);
        let store = rig.client.provenance_store().expect("a provenance store");
        let engine = QueryEngine::new(&rig.env, store, "data");
        let is_p3 = rig.client.protocol() == Which::P3;
        let mut record =
            |ep: &mut Episode, label: &'static str, r: Result<QueryOutput, ProtocolError>| {
                queries += 1;
                match r {
                    Ok(out) => {
                        ep.queries.push(out.metrics.elapsed);
                        requests += out.metrics.ops;
                        plans[match out.plan.plan {
                            Some(Plan::Cached) => 0,
                            Some(Plan::Index) => 1,
                            Some(Plan::SdbSelect) => 2,
                            _ => 3,
                        }] += 1;
                        if is_p3 && (label == "q3" || label == "q4") {
                            ep.lineage += out.metrics.elapsed;
                        }
                        Some(out)
                    }
                    Err(e) => {
                        ep.failures.push(format!("{label} failed: {e}"));
                        None
                    }
                }
            };
        let sim = &rig.sim;
        let q1 = spans.wrap(sim, None, "query.q1", || engine.q1_all(Mode::Sequential));
        record(&mut ep, "q1", q1);
        for key in &sample {
            let q2 = spans.wrap(sim, None, "query.q2", || engine.q2_object(key));
            record(&mut ep, "q2", q2);
        }
        let q3 = spans.wrap(sim, None, "query.q3", || {
            engine.q3_outputs_of(PROGRAM, Mode::Sequential)
        });
        let q3 = record(&mut ep, "q3", q3);
        let q4 = spans.wrap(sim, None, "query.q4", || {
            engine.q4_descendants_of(PROGRAM, Mode::Sequential)
        });
        let q4 = record(&mut ep, "q4", q4);
        if is_p3 {
            // The index must answer exactly what the base records say.
            for (q, got) in [(3, q3), (4, q4)] {
                let select = engine.with_plan_ref(Plan::SdbSelect);
                let index = engine.with_plan_ref(Plan::Index);
                let (s, i) = if q == 3 {
                    (
                        select.q3_outputs_of(PROGRAM, Mode::Sequential),
                        index.q3_outputs_of(PROGRAM, Mode::Sequential),
                    )
                } else {
                    (
                        select.q4_descendants_of(PROGRAM, Mode::Sequential),
                        index.q4_descendants_of(PROGRAM, Mode::Sequential),
                    )
                };
                ep.attempted += 1;
                match (s, i, got) {
                    (Ok(s), Ok(i), Some(g)) if s.nodes == i.nodes && i.nodes == g.nodes => {}
                    _ => ep
                        .failures
                        .push(format!("Q.{q}: index and select result sets differ")),
                }
            }
        }
    }
    ep.attempted += queries + 1;
    ep.cost_usd = rigs.iter().map(|r| r.env.cost().total()).sum();
    let l = &mut ep.layer;
    l.insert(
        "cloud.read_requests_per_query",
        Ratio::new(requests as f64, queries as f64).or_zero(),
    );
    l.insert("query.plan.cached", plans[0] as f64);
    l.insert("query.plan.index", plans[1] as f64);
    l.insert("query.plan.select", plans[2] as f64);
    l.insert("query.plan.scan", plans[3] as f64);
    ep.host_layer
        .insert("pass.capture_s", inputs.capture.as_secs_f64());
    if traced {
        ep.host_layer
            .insert("sim.threads", crate::host::threads() as f64);
    }
    ep
}

/// Input sizes for the run record.
pub fn describe(inputs: &Inputs) -> Vec<(&'static str, String)> {
    let c = &inputs.corpus;
    vec![
        ("blast_queries", params(inputs.seed).queries.to_string()),
        (
            "corpus_files",
            c.files.iter().filter(|f| f.written).count().to_string(),
        ),
        ("corpus_nodes", c.nodes.len().to_string()),
        ("provenance_bytes", c.provenance_bytes().to_string()),
        ("connections", CONNECTIONS.to_string()),
    ]
}
