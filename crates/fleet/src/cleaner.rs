//! [`ShardedCleaners`]: the cleaner daemon, partitioned for fleet scale.
//!
//! P3's cleaner (§4.3.3) reaps temporary objects whose transactions died
//! before completing. One cleaner listing the whole temp prefix is fine
//! for one client; a fleet's temp namespace is wide enough that the
//! sweep itself becomes the bottleneck. The sharded variant partitions
//! the work by key hash: [`ShardedCleaners::sweep_once`] lists the
//! prefix **once** and fans the expired keys out to M parallel delete
//! workers, so LIST cost scales with keys — not keys × shards — while
//! the deletes (the bulk of a big sweep) parallelize M-wide.
//! [`ShardedCleaners::clean_shard_once`] is the standalone per-daemon
//! variant for deployments whose cleaners run on separate machines;
//! each of those pays for its own listing.

use std::collections::BTreeSet;
use std::time::Duration;

use cloudprov_cloud::{quote_literal, Actor, CloudEnv};
use cloudprov_core::{index as prov_index, ProtocolConfig, Result};

use crate::router::fnv64;

/// A set of hash-partitioned cleaner daemons.
#[derive(Clone, Debug)]
pub struct ShardedCleaners {
    env: CloudEnv,
    config: ProtocolConfig,
    shards: u32,
    max_age: Duration,
}

impl ShardedCleaners {
    /// Creates `shards` partitioned cleaners with the paper's 4-day
    /// reclamation window.
    pub fn new(env: &CloudEnv, config: ProtocolConfig, shards: u32) -> ShardedCleaners {
        assert!(shards >= 1);
        ShardedCleaners {
            env: env.clone(),
            config,
            shards,
            max_age: cloudprov_cloud::RETENTION,
        }
    }

    /// Overrides the reclamation age (tests).
    pub fn with_max_age(mut self, max_age: Duration) -> ShardedCleaners {
        self.max_age = max_age;
        self
    }

    /// True iff `key` belongs to partition `shard`.
    fn owns(&self, shard: u32, key: &str) -> bool {
        fnv64(key.as_bytes()) % u64::from(self.shards) == u64::from(shard)
    }

    /// One partition's sweep: lists the temp prefix and deletes expired
    /// keys that hash into `shard`. Returns how many were reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors that survive retries.
    pub fn clean_shard_once(&self, shard: u32) -> Result<usize> {
        let s3 = self.env.s3().with_actor(Actor::CleanerDaemon);
        let layout = &self.config.layout;
        let keys = cloudprov_core::retry_cloud(self.env.sim(), self.config.retries, || {
            s3.list_all(&layout.data_bucket, &layout.temp_prefix)
        })?;
        let now = self.env.sim().now();
        let mut reclaimed = 0;
        for k in keys {
            if self.owns(shard, &k.key)
                && now.saturating_duration_since(k.last_modified) > self.max_age
            {
                cloudprov_core::retry_cloud(self.env.sim(), self.config.retries, || {
                    s3.delete(&layout.data_bucket, &k.key)
                })?;
                reclaimed += 1;
            }
        }
        Ok(reclaimed)
    }

    /// One full sweep: lists the temp prefix once, partitions the
    /// expired keys by hash, and deletes each partition on its own
    /// simulated thread. Returns the total number of reclaimed temp
    /// objects.
    ///
    /// # Errors
    ///
    /// Propagates the listing error, or the first partition's delete
    /// error.
    pub fn sweep_once(&self) -> Result<usize> {
        let s3 = self.env.s3().with_actor(Actor::CleanerDaemon);
        let layout = &self.config.layout;
        let keys = cloudprov_core::retry_cloud(self.env.sim(), self.config.retries, || {
            s3.list_all(&layout.data_bucket, &layout.temp_prefix)
        })?;
        let now = self.env.sim().now();
        let mut partitions: Vec<Vec<String>> = vec![Vec::new(); self.shards as usize];
        for k in keys {
            if now.saturating_duration_since(k.last_modified) > self.max_age {
                let shard = fnv64(k.key.as_bytes()) % u64::from(self.shards);
                partitions[shard as usize].push(k.key);
            }
        }
        let tasks: Vec<_> = partitions
            .into_iter()
            .map(|keys| {
                let this = self.clone();
                move || -> Result<usize> {
                    let s3 = this.env.s3().with_actor(Actor::CleanerDaemon);
                    for key in &keys {
                        cloudprov_core::retry_cloud(this.env.sim(), this.config.retries, || {
                            s3.delete(&this.config.layout.data_bucket, key)
                        })?;
                    }
                    Ok(keys.len())
                }
            })
            .collect();
        let results = self.env.sim().run_parallel(self.shards as usize, tasks);
        let mut total = 0;
        for r in results {
            total += r?;
        }
        Ok(total)
    }

    /// One sweep of the **ancestry index** for garbage: packed index
    /// items none of whose entries' committed nodes exist in the base
    /// domain describe provenance that never committed (version-skewed
    /// daemons, manual surgery — normal operation cannot produce them,
    /// because a group's base items are written before its index item).
    /// Lists the index once, batch-checks the referenced ids against the
    /// base domain, and deletes fully-orphaned items on M parallel
    /// workers.
    ///
    /// Run after the commit plane quiesces: an entry whose *ancestor* id
    /// is still uncommitted is expected (commit order across shards is
    /// free), so only items whose **dependent/process** ids
    /// ([`prov_index::IndexEntry::committed_node`]) are all absent — ids
    /// that a real commit would have written first — are reaped. Items
    /// that do not decode are left alone. Returns how many items were
    /// deleted.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors that survive retries.
    pub fn sweep_index_once(&self) -> Result<usize> {
        if !self.config.index {
            return Ok(0);
        }
        let sdb = self.env.sdb().with_actor(Actor::CleanerDaemon);
        let layout = &self.config.layout;
        let idx_domain = prov_index::index_domain(&layout.domain);
        let items = cloudprov_core::retry_cloud(self.env.sim(), self.config.retries, || {
            sdb.select_all(&format!("select * from {idx_domain}"))
        })?;
        // Which node ids does each index item stand on?
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        let per_item: Vec<(String, BTreeSet<String>)> = items
            .into_iter()
            .map(|item| {
                let ids: BTreeSet<String> = prov_index::decode_index_item(&item.attrs)
                    .unwrap_or_default()
                    .iter()
                    .map(|e| e.committed_node().to_string())
                    .collect();
                referenced.extend(ids.iter().cloned());
                (item.name, ids)
            })
            .collect();
        // Batch-check existence in the base domain.
        let mut existing: BTreeSet<String> = BTreeSet::new();
        let ids: Vec<String> = referenced.into_iter().collect();
        for chunk in ids.chunks(20) {
            let list = chunk
                .iter()
                .map(|i| quote_literal(i))
                .collect::<Vec<_>>()
                .join(", ");
            let found = cloudprov_core::retry_cloud(self.env.sim(), self.config.retries, || {
                sdb.select_all(&format!(
                    "select itemName() from {} where itemName() in ({list})",
                    layout.domain
                ))
            })?;
            existing.extend(found.into_iter().map(|i| i.name));
        }
        // An item is garbage when it references nodes yet none exist.
        let mut partitions: Vec<Vec<String>> = vec![Vec::new(); self.shards as usize];
        for (name, ids) in per_item {
            if !ids.is_empty() && !ids.iter().any(|i| existing.contains(i)) {
                let shard = fnv64(name.as_bytes()) % u64::from(self.shards);
                partitions[shard as usize].push(name);
            }
        }
        let tasks: Vec<_> = partitions
            .into_iter()
            .map(|names| {
                let this = self.clone();
                let idx_domain = idx_domain.clone();
                move || -> Result<usize> {
                    let sdb = this.env.sdb().with_actor(Actor::CleanerDaemon);
                    for name in &names {
                        cloudprov_core::retry_cloud(this.env.sim(), this.config.retries, || {
                            sdb.delete_item(&idx_domain, name)
                        })?;
                    }
                    Ok(names.len())
                }
            })
            .collect();
        let results = self.env.sim().run_parallel(self.shards as usize, tasks);
        let mut total = 0;
        for r in results {
            total += r?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::{AwsProfile, Blob, Metadata};
    use cloudprov_sim::Sim;

    #[test]
    fn partitions_cover_every_key_exactly_once() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let cleaners = ShardedCleaners::new(&env, ProtocolConfig::default(), 4);
        for k in 0..100 {
            let key = format!("tmp/{k}");
            let owners: Vec<u32> = (0..4).filter(|s| cleaners.owns(*s, &key)).collect();
            assert_eq!(owners.len(), 1, "key {key} owned by {owners:?}");
        }
    }

    #[test]
    fn index_sweep_reaps_only_unbacked_items() {
        use cloudprov_core::{FlushBatch, Protocol, ProvenanceClient, StorageProtocol};
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        // A real commit: base items + index entries (stays).
        let client = ProvenanceClient::builder(Protocol::P3)
            .queue("wal-idxsweep")
            .build(&env);
        let id = cloudprov_pass::PNodeId::initial(cloudprov_pass::Uuid(60));
        let blob = Blob::from("x");
        let obj = cloudprov_core::FlushObject::file(
            cloudprov_pass::FlushNode {
                id,
                kind: cloudprov_pass::NodeKind::File,
                name: Some("/kept".into()),
                records: vec![
                    cloudprov_pass::ProvenanceRecord::new(id, cloudprov_pass::Attr::Type, "file"),
                    cloudprov_pass::ProvenanceRecord::new(
                        id,
                        cloudprov_pass::Attr::Input,
                        cloudprov_pass::PNodeId::initial(cloudprov_pass::Uuid(61)),
                    ),
                ],
                data_hash: Some(blob.content_fingerprint()),
            },
            "kept",
            blob,
        );
        client.flush(FlushBatch { objects: vec![obj] }).unwrap();
        client.drain().unwrap();
        let idx_domain = prov_index::index_domain("provenance");
        let live_items = env.sdb().peek_item_count(&idx_domain);
        assert!(live_items > 0);
        // Plant garbage: a packed index item whose entries' committed
        // nodes never committed (a half-applied write from a
        // version-skewed daemon) — one ghost edge onto the real file and
        // one ghost seed.
        let ghost = cloudprov_pass::PNodeId::initial(cloudprov_pass::Uuid(999));
        let entries = [
            prov_index::IndexEntry::Edge {
                ancestor: id,
                dependent: ghost,
                file: true,
            },
            prov_index::IndexEntry::Seed {
                program: "ghost".into(),
                process: cloudprov_pass::PNodeId::initial(cloudprov_pass::Uuid(998)),
            },
        ];
        let planted = prov_index::index_items(&entries.into_iter().collect());
        assert_eq!(planted.len(), 1);
        env.sdb()
            .batch_put_attributes(&idx_domain, planted)
            .unwrap();
        assert!(!prov_index::audit_index(&env, &cloudprov_core::Layout::default()).consistent());
        let cleaners = ShardedCleaners::new(&env, ProtocolConfig::default(), 4);
        assert_eq!(cleaners.sweep_index_once().unwrap(), 1, "only the ghost");
        assert_eq!(env.sdb().peek_item_count(&idx_domain), live_items);
        // And the surviving index still matches the base exactly.
        let audit = prov_index::audit_index(&env, &cloudprov_core::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
        // A second sweep finds nothing.
        assert_eq!(cleaners.sweep_index_once().unwrap(), 0);
    }

    #[test]
    fn sharded_sweep_reaps_only_expired_orphans() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let config = ProtocolConfig::default();
        // Plant 20 orphaned temps now and 5 more later.
        for k in 0..20 {
            env.s3()
                .put(
                    "data",
                    &format!("tmp/orphan-{k}"),
                    Blob::from("x"),
                    Metadata::new(),
                )
                .unwrap();
        }
        sim.sleep(cloudprov_cloud::RETENTION + Duration::from_secs(60));
        for k in 0..5 {
            env.s3()
                .put(
                    "data",
                    &format!("tmp/fresh-{k}"),
                    Blob::from("y"),
                    Metadata::new(),
                )
                .unwrap();
        }
        let cleaners = ShardedCleaners::new(&env, config, 4);
        assert_eq!(cleaners.sweep_once().unwrap(), 20);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 5, "fresh temps stay");
        // A second sweep finds nothing new.
        assert_eq!(cleaners.sweep_once().unwrap(), 0);
    }
}
