//! Workspace-spanning integration tests: full workloads through every
//! protocol, verifying the §3 properties on the final cloud state.

use std::sync::Arc;
use std::time::Duration;

use cloudprov::cloud::{AwsProfile, CloudEnv};
use cloudprov::fs::{LocalIoParams, PaS3fs};
use cloudprov::protocols::properties::{causal_report, load_all_records};
use cloudprov::protocols::{CouplingCheck, Protocol, ProvenanceClient, StorageProtocol};
use cloudprov::sim::Sim;
use cloudprov::workloads::{
    blast, challenge, nightly, replay, BlastParams, ChallengeParams, NightlyParams,
};

struct World {
    sim: Sim,
    env: CloudEnv,
    fs: PaS3fs,
    client: Arc<ProvenanceClient>,
}

fn world(which: &str) -> World {
    let sim = Sim::new();
    // Eventual consistency ON: the protocols must cope.
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let client = Arc::new(
        ProvenanceClient::builder(which.parse().expect("protocol name"))
            .queue("wal-int")
            .build(&env),
    );
    let fs = PaS3fs::attach(client.clone(), LocalIoParams::instant(), 0xE2E);
    World {
        sim,
        env,
        fs,
        client,
    }
}

fn drain(w: &World) {
    w.client.drain().expect("drain");
    // Let eventual consistency converge.
    w.sim.sleep(Duration::from_secs(1));
}

#[test]
fn nightly_through_every_protocol_stores_all_snapshots() {
    for which in ["S3fs", "P1", "P2", "P3"] {
        let w = world(which);
        replay(&w.sim, &w.fs, &nightly(NightlyParams::small())).expect("replay");
        drain(&w);
        assert_eq!(
            w.env.s3().peek_count("data", "backup/"),
            3,
            "{which}: all snapshots present"
        );
    }
}

#[test]
fn blast_provenance_has_no_dangling_ancestors_after_quiescence() {
    for which in ["P1", "P2", "P3"] {
        let w = world(which);
        replay(&w.sim, &w.fs, &blast(BlastParams::small())).expect("replay");
        drain(&w);
        let store = w.client.provenance_store().expect("store");
        let records = load_all_records(&w.env, &store).expect("scan");
        assert!(!records.is_empty(), "{which}: provenance stored");
        let report = causal_report(&records);
        assert!(
            report.holds(),
            "{which}: dangling ancestors {:?}",
            report.dangling
        );
    }
}

#[test]
fn challenge_outputs_read_back_coupled() {
    for which in ["P1", "P2", "P3"] {
        let w = world(which);
        replay(&w.sim, &w.fs, &challenge(ChallengeParams::small())).expect("replay");
        drain(&w);
        let r =
            w.fs.read_back("/fmri/run00/atlas-x.gif")
                .expect("read back");
        assert_eq!(r.coupling, CouplingCheck::Coupled, "{which}");
    }
}

#[test]
fn cloud_state_matches_ground_truth_graph() {
    let w = world("P2");
    replay(&w.sim, &w.fs, &blast(BlastParams::small())).expect("replay");
    drain(&w);
    // Every node in the observer's ground-truth DAG that has records must
    // exist as an item in SimpleDB.
    let store = w.client.provenance_store().unwrap();
    let records = load_all_records(&w.env, &store).unwrap();
    let stored: std::collections::BTreeSet<_> = records.iter().map(|r| r.subject).collect();
    let missing =
        w.fs.with_observer(|obs| {
            obs.graph()
                .node_ids()
                .filter(|id| obs.graph().node(*id).is_some_and(|d| !d.attrs.is_empty()))
                .filter(|id| !stored.contains(id))
                .count()
        })
        .unwrap();
    assert_eq!(missing, 0, "every observed node must reach the cloud");
}

#[test]
fn deletion_preserves_provenance_for_all_protocols() {
    for which in ["P1", "P2", "P3"] {
        let w = world(which);
        replay(&w.sim, &w.fs, &nightly(NightlyParams::small())).expect("replay");
        drain(&w);
        let store = w.client.provenance_store().unwrap();
        let before = load_all_records(&w.env, &store).unwrap().len();
        w.fs.unlink(cloudprov::pass::Pid(1), "/backup/cvsroot-day00.tar")
            .expect("unlink");
        w.sim.sleep(Duration::from_secs(1));
        assert!(
            w.env
                .s3()
                .peek_committed("data", "backup/cvsroot-day00.tar")
                .is_none(),
            "{which}: data gone"
        );
        let after = load_all_records(&w.env, &store).unwrap().len();
        assert_eq!(before, after, "{which}: provenance untouched by delete");
    }
}

#[test]
fn transient_service_failures_are_absorbed_by_retries() {
    let w = world("P2");
    w.env.faults().set(cloudprov::cloud::FaultPlan {
        fail_probability: 0.10,
        ..cloudprov::cloud::FaultPlan::none()
    });
    replay(&w.sim, &w.fs, &nightly(NightlyParams::small())).expect("replay survives faults");
    w.env.faults().clear();
    drain(&w);
    assert_eq!(w.env.s3().peek_count("data", "backup/"), 3);
}

#[test]
fn p3_recovers_commits_after_client_crash_midworkload() {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    // Client logs everything but its daemon never runs (client crash
    // after the log phase of the last file).
    let client = Arc::new(
        ProvenanceClient::builder(Protocol::P3)
            .queue("wal-crashy")
            .build(&env),
    );
    let wal_url = client.wal_url().expect("P3 has a WAL").to_string();
    let fs = PaS3fs::attach(client, LocalIoParams::instant(), 1);
    replay(&sim, &fs, &nightly(NightlyParams::small())).expect("replay");
    assert_eq!(
        env.s3().peek_count("data", "backup/"),
        0,
        "nothing committed yet"
    );
    // A different machine picks up the WAL.
    let recovery = cloudprov::protocols::CommitDaemon::new(
        &env,
        cloudprov::protocols::ProtocolConfig::default(),
        &wal_url,
    );
    recovery.run_until_idle().expect("recovery");
    assert_eq!(
        env.s3().peek_count("data", "backup/"),
        3,
        "recovered commits"
    );
}

#[test]
fn costs_rank_s3fs_cheapest_p3_most_expensive() {
    let mut costs = std::collections::BTreeMap::new();
    for which in ["S3fs", "P1", "P2", "P3"] {
        let w = world(which);
        replay(&w.sim, &w.fs, &blast(BlastParams::small())).expect("replay");
        drain(&w);
        costs.insert(which.to_string(), w.env.cost().total());
    }
    // Table 4's relationship: P3 > P1 >= P2 >= S3fs (we only assert the
    // endpoints, the middle two are within noise of each other).
    assert!(costs["P3"] > costs["S3fs"]);
    assert!(costs["P1"] >= costs["S3fs"]);
    assert!(costs["P2"] >= costs["S3fs"]);
    assert!(costs["P3"] >= costs["P1"].min(costs["P2"]));
}

#[test]
fn serial_p3_script_replays_keep_every_durable_key_coupled() {
    // Random scripts rename, rewrite and close files through each
    // other's provenance closures; whatever a close promised must read
    // back coupled once the WAL drains.
    use cloudprov::workloads::testkit::{random_script, replay_fs};
    for seed in 0..64 {
        let w = world("p3");
        let replay = replay_fs(&w.fs, &random_script(seed, 128));
        assert!(replay.died.is_none(), "seed {seed}: {:?}", replay.died);
        w.client.drain().unwrap();
        for key in &replay.durable_keys {
            let r = w.client.read(key).unwrap();
            assert_eq!(r.coupling, CouplingCheck::Coupled, "seed {seed}, key {key}");
        }
    }
}
