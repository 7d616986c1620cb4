//! Protocol P3: cloud store + cloud database + messaging service (§4.3.3).
//!
//! P3 is the paper's most robust protocol — the only one providing
//! (eventual) **provenance data-coupling**. The trick is a write-ahead log
//! kept *in the cloud*: an SQS queue. A crashed client's partially-logged
//! transaction is simply ignored; a completely-logged transaction can be
//! committed by *any* machine, so a crash between logging and committing
//! loses nothing (using a local log instead would).
//!
//! **Log phase** (client, on close/flush): store each file's data under a
//! temporary S3 name; chunk the provenance of the object *and all its
//! not-yet-written ancestors* into ≤8 KB WAL messages tagged with a
//! transaction id, sequence number and total; send them (parallel sends
//! are safe — ordering is reconstructed from sequence numbers, which is
//! how P3 keeps causal ordering without careful upload ordering).
//!
//! **Commit phase** (commit daemon, asynchronous): assemble complete
//! transactions and commit them as a **group**. One poll round drains the
//! WAL (bounded receive rounds), and every transaction that became
//! complete commits together (`commit_group`): the per-file `COPY`s of
//! all group members fan out over `commit_parallelism` connections
//! (stamping the new version — S3 has no rename, and §4.3.3 notes copies
//! cost $0.01 per thousand); >1 KB values spill to S3; the base and
//! index `PutItem`s of **all** members pack into full
//! `BatchPutAttributes` chunks ([`pack_group_writes`]) written over the
//! same `commit_parallelism` connections; the temp-object deletes fan
//! out; with the change feed on, the group's events stage in one
//! all-or-nothing `BatchPutAttributes` call (`crate::feed`); and the WAL
//! receipts acknowledge through batched `DeleteMessageBatch` calls.
//! The §3 ordering survives grouping — see the phase ordering in
//! `commit_group`: every member's data copies land before any member's
//! provenance items, index chunks write strictly after all base chunks,
//! and no receipt is acknowledged until every chunk carrying one of its
//! transaction's items is durable, so a daemon crash mid-group leaves
//! each member either fully recommittable (unacknowledged WAL) or
//! untouched. A transaction whose temp object was lost with a dead
//! client stalls in the copy phase, before any of *its* provenance
//! lands; stalled transactions are evicted from the group without
//! blocking their peers, redeliver, and ultimately expire with SQS
//! retention.
//!
//! **Garbage collection**: SQS deletes messages after 4 days on its own;
//! a cleaner daemon reaps temporary objects older than 4 days that belong
//! to transactions that never completed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cloudprov_cloud::{
    Actor, CloudEnv, CloudError, Database, MetadataDirective, PutItem, TenantId, BATCH_ENTRY_LIMIT,
    BATCH_LIMIT, MESSAGE_LIMIT, RECEIVE_MAX,
};
use cloudprov_pass::wire;
use cloudprov_pass::{PNodeId, ProvenanceRecord, Uuid};
use cloudprov_sim::{SimHandle, SimTime};
use cloudprov_trace::{SpanContext, Tracer, SCOPE_CLIENT, SCOPE_COMMIT_DAEMON};

use crate::cas::{self, CasFlushItem};
use crate::error::{ProtocolError, Result};
use crate::feed::{extract_touches, CommitEventSink, FeedWriter, StagedTouches};
use crate::layout::{object_metadata, parse_object_metadata};
use crate::protocol::{
    detect_coupling, fan_out, item_to_records, records_to_item, retry, CouplingCheck, FlushBatch,
    ProtocolConfig, ProvenanceStore, ReadResult, StorageProtocol, Task,
};

/// Room reserved in each WAL message for the `TXN` header line.
const HEADER_ROOM: usize = 80;

/// Receive rounds one commit-daemon poll performs before committing what
/// assembled — the group-commit window. Bounded (rather than
/// drain-until-empty) so duplicate-delivery faults, which leave a
/// received message visible, cannot spin a poll forever; four rounds of
/// ten messages cover the deepest shard backlogs the fleet benchmark
/// produces while keeping one group's commit comfortably inside a
/// commit-lease TTL.
const GROUP_RECEIVE_ROUNDS: usize = 4;

/// Cap on the per-client (txn, logged-at) samples kept for commit-
/// latency measurement.
const TXN_LOG_CAP: usize = 1 << 16;

/// Protocol P3: S3 + SimpleDB + SQS write-ahead log.
#[derive(Clone)]
pub struct P3 {
    env: CloudEnv,
    config: ProtocolConfig,
    wal_url: String,
    rng: Arc<Mutex<SmallRng>>,
    /// (transaction id, WAL-durable instant) per completed log phase —
    /// the client-side half of the commit-latency measurement (capped
    /// at [`TXN_LOG_CAP`]). Shared across clones.
    logged: Arc<Mutex<Vec<(Uuid, SimTime)>>>,
}

impl std::fmt::Debug for P3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("P3").field("wal", &self.wal_url).finish()
    }
}

impl P3 {
    /// Creates the protocol; `queue_name` names this client's WAL queue
    /// (each client has its own, §4.3.3).
    pub fn new(env: &CloudEnv, config: ProtocolConfig, queue_name: &str) -> P3 {
        Self::with_identity(env, config, queue_name, queue_name)
    }

    /// Creates the protocol with an explicit client identity seeding the
    /// transaction-id generator. In the paper each client owns its queue,
    /// so the queue name doubles as the identity; a *sharded* fleet has
    /// many clients logging to one shard queue, and their id streams must
    /// not collide — interleaved WAL messages from two clients under one
    /// transaction id would reassemble into garbage.
    pub fn with_identity(
        env: &CloudEnv,
        config: ProtocolConfig,
        queue_name: &str,
        identity: &str,
    ) -> P3 {
        env.sdb().create_domain(&config.layout.domain);
        if config.index {
            env.sdb()
                .create_domain(&crate::index::index_domain(&config.layout.domain));
        }
        let wal_url = env.sqs().create_queue(queue_name);
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for b in identity.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0100_0000_01b3);
        }
        P3 {
            env: env.clone(),
            config,
            wal_url,
            rng: Arc::new(Mutex::new(SmallRng::seed_from_u64(seed))),
            logged: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Transactions this client has durably logged, with the virtual
    /// instant each log phase completed. Paired with a commit-side
    /// timestamp (see the fleet pool) this measures per-transaction
    /// commit latency: WAL-durable -> committed.
    pub fn logged_transactions(&self) -> Vec<(Uuid, SimTime)> {
        self.logged.lock().clone()
    }

    /// URL of this client's WAL queue.
    pub fn wal_url(&self) -> &str {
        &self.wal_url
    }

    /// Builds the commit daemon for this WAL (run it with
    /// [`CommitDaemon::spawn`] or drive it manually in tests).
    pub fn commit_daemon(&self) -> CommitDaemon {
        CommitDaemon::new(&self.env, self.config.clone(), &self.wal_url)
    }

    /// Builds the cleaner daemon reaping orphaned temp objects.
    pub fn cleaner_daemon(&self) -> CleanerDaemon {
        CleanerDaemon::new(&self.env, self.config.clone())
    }

    fn fresh_txn(&self) -> Uuid {
        Uuid(self.rng.lock().gen())
    }

    /// Serializes a batch into WAL message bodies.
    ///
    /// Lines are object lines (`OBJ\t<temp>\t<final>\t<node>` per file,
    /// `CAS\t<sha>\t<final>\t<node>\t<d|p>` per content-addressed
    /// reference, in batch order) or wire-encoded provenance records;
    /// they are packed greedily into bodies that, with the header, stay
    /// within the 8 KB SQS limit.
    fn build_messages(
        txn: Uuid,
        tenant: Option<TenantId>,
        obj_lines: &[String],
        records: &[ProvenanceRecord],
        message_limit: usize,
    ) -> Vec<String> {
        let limit = message_limit.clamp(HEADER_ROOM + 64, MESSAGE_LIMIT) - HEADER_ROOM;
        let mut lines: Vec<String> = obj_lines.to_vec();
        for r in records {
            lines.push(wire::encode_record(r));
        }
        let mut bodies: Vec<String> = Vec::new();
        let mut cur = String::new();
        for line in lines {
            assert!(
                line.len() <= limit,
                "WAL line of {} bytes exceeds message capacity",
                line.len()
            );
            if !cur.is_empty() && cur.len() + line.len() > limit {
                bodies.push(std::mem::take(&mut cur));
            }
            cur.push_str(&line);
        }
        if !cur.is_empty() || bodies.is_empty() {
            bodies.push(cur);
        }
        let total = bodies.len();
        // A tenant-attributed client stamps its tenant as an optional
        // header field so daemon-side change-feed events can carry the
        // originating tenant. Tracing adds nothing: the trace id is the
        // txn id already in the header.
        let extra = tenant.map_or(String::new(), |t| format!("\t{}", t.0));
        bodies
            .into_iter()
            .enumerate()
            .map(|(seq, body)| format!("TXN\t{txn}\t{seq}\t{total}{extra}\n{body}"))
            .collect()
    }

    /// The **log phase** for a mixed batch of delta objects and
    /// content-addressed references ([`CasFlushItem`]) — the CAS-aware
    /// generalization `flush` delegates to with all-`Object` items.
    ///
    /// Delta objects upload payloads to temp keys and travel as `OBJ`
    /// lines; references travel as `CAS` lines carrying only a hash —
    /// their content was published to the shared store before this call
    /// (the flusher's [`CasStore::wait`](crate::CasStore::wait) barrier),
    /// so the WAL never references content that does not exist. Object
    /// lines are emitted in item order, preserving the closure's
    /// ancestors-first, newest-version-last discipline across both kinds
    /// for the daemon's last-for-key copy election.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors after retries; [`ProtocolError::Crashed`]
    /// when the crash hook fires.
    pub fn flush_with_cas(&self, items: Vec<CasFlushItem>) -> Result<()> {
        let sim = self.env.sim().clone();
        let txn = self.fresh_txn();
        let layout = &self.config.layout;

        // Trace: open this transaction's lifecycle root (trace id = txn
        // id) and a `flush` child covering the log phase. The guard's
        // scope makes every metered client op inside the fan-out a leaf
        // span; the daemon finds the root again by txn id.
        let tracer = self.env.tracer();
        let tenant_tag = self.env.tenant().map(|t| t.0);
        let root = tracer.open_txn(txn.0, tenant_tag);
        let flush_guard = root.and_then(|r| {
            tracer.phase(
                txn.0,
                r.span,
                "flush",
                tenant_tag,
                Some((SCOPE_CLIENT, tenant_tag)),
                sim.now(),
            )
        });

        // 1. Collect temp uploads and WAL object lines in item order.
        let mut uploads: Vec<(String, cloudprov_cloud::Blob)> = Vec::new();
        let mut obj_lines: Vec<String> = Vec::new();
        let mut records: Vec<ProvenanceRecord> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match item {
                CasFlushItem::Object(o) => {
                    if let (Some(key), Some(data)) = (o.key.clone(), o.data.clone()) {
                        let temp = layout.temp_key(txn, i);
                        obj_lines.push(format!("OBJ\t{temp}\t{key}\t{}\n", o.node.id));
                        uploads.push((temp, data));
                    }
                    records.extend(o.node.records.iter().cloned());
                }
                CasFlushItem::Ref(r) => {
                    obj_lines.push(format!(
                        "CAS\t{}\t{}\t{}\t{}\n",
                        r.sha,
                        r.key.as_deref().unwrap_or("-"),
                        r.id,
                        if r.has_data { "d" } else { "p" },
                    ));
                }
            }
        }
        // 2. Build the WAL messages up front (temp keys are known before
        //    the temp PUTs complete), then run temp PUTs and WAL sends in
        //    ONE task pool: the paper's implementation sends packets in
        //    parallel — safe because ordering is reconstructed from
        //    sequence numbers and the commit daemon retries until temp
        //    objects become visible.
        let messages = Self::build_messages(
            txn,
            self.env.tenant(),
            &obj_lines,
            &records,
            self.config.wal_message_limit,
        );
        let mut tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send>> = Vec::new();
        for (temp, data) in &uploads {
            let (temp, data) = (temp.clone(), data.clone());
            let this = self.clone();
            tasks.push(Box::new(move || -> Result<()> {
                this.config.step(&format!("p3:temp:{temp}"))?;
                retry(this.env.sim(), this.config.retries, || {
                    this.env.s3().put(
                        &this.config.layout.data_bucket,
                        &temp,
                        data.clone(),
                        cloudprov_cloud::Metadata::new(),
                    )
                })?;
                Ok(())
            }));
        }
        // WAL messages ride in SendMessageBatch calls of up to ten
        // bodies: one queue round trip (and one billed request) per
        // batch instead of one per message. Safe for the same reason
        // parallel sends were — ordering is reconstructed from sequence
        // numbers — and per-entry verdicts keep failures precise. The
        // paper's 2009 tool predates SendMessageBatch; the benchmark
        // rigs reproducing its op counts turn `wal_batch_send` off and
        // get the original one-send-per-message path.
        if self.config.wal_batch_send {
            for (bi, chunk) in messages.chunks(BATCH_ENTRY_LIMIT).enumerate() {
                let bodies: Vec<Bytes> = chunk.iter().map(|b| Bytes::from(b.clone())).collect();
                let this = self.clone();
                tasks.push(Box::new(move || -> Result<()> {
                    this.config.step(&format!("p3:wal:{bi}"))?;
                    let results = retry(this.env.sim(), this.config.retries, || {
                        this.env.sqs().send_batch(&this.wal_url, bodies.clone())
                    })?;
                    for r in results {
                        r?;
                    }
                    Ok(())
                }));
            }
        } else {
            for (seq, body) in messages.into_iter().enumerate() {
                let this = self.clone();
                tasks.push(Box::new(move || -> Result<()> {
                    this.config.step(&format!("p3:wal:{seq}"))?;
                    retry(this.env.sim(), this.config.retries, || {
                        this.env
                            .sqs()
                            .send(&this.wal_url, Bytes::from(body.clone()))
                    })?;
                    Ok(())
                }));
            }
        }
        sim.run_parallel(self.config.upload_concurrency, tasks)
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        let now = sim.now();
        // WAL-durable: the root span's start instant. (On the error
        // path above the guard's drop still emitted the flush span, so
        // even a crashed log phase leaves a connected tree.)
        tracer.mark_logged(txn.0, now);
        if let Some(g) = flush_guard {
            g.finish(now);
        }
        let mut logged = self.logged.lock();
        if logged.len() < TXN_LOG_CAP {
            logged.push((txn, now));
        }
        Ok(())
    }
}

impl StorageProtocol for P3 {
    fn name(&self) -> &'static str {
        "P3"
    }

    /// The **log phase**. Returns once everything is durably in the WAL —
    /// the commit daemon finishes asynchronously, which is why P3's
    /// client-side elapsed times exclude it (§5).
    fn flush(&self, batch: FlushBatch) -> Result<()> {
        self.flush_with_cas(
            batch
                .objects
                .into_iter()
                .map(CasFlushItem::Object)
                .collect(),
        )
    }

    fn read(&self, key: &str) -> Result<ReadResult> {
        let obj = retry(self.env.sim(), self.config.retries, || {
            self.env.s3().get(&self.config.layout.data_bucket, key)
        })?;
        let id = parse_object_metadata(&obj.meta);
        let coupling = match id {
            None => CouplingCheck::Unlinked,
            Some(id) => {
                let attrs = retry(self.env.sim(), self.config.retries, || {
                    self.env
                        .sdb()
                        .get_attributes(&self.config.layout.domain, &id.to_string())
                })?;
                let records = item_to_records(&id.to_string(), &attrs);
                detect_coupling(&obj.blob, Some(id), &records)
            }
        };
        Ok(ReadResult {
            data: obj.blob,
            id,
            coupling,
        })
    }

    fn delete(&self, key: &str) -> Result<()> {
        retry(self.env.sim(), self.config.retries, || {
            self.env.s3().delete(&self.config.layout.data_bucket, key)
        })?;
        Ok(())
    }

    fn stat(&self, key: &str) -> Result<Option<u64>> {
        match retry(self.env.sim(), self.config.retries, || {
            self.env.s3().head(&self.config.layout.data_bucket, key)
        }) {
            Ok(h) => Ok(Some(h.len)),
            Err(CloudError::NoSuchKey { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn provenance_store(&self) -> Option<ProvenanceStore> {
        Some(ProvenanceStore::Database {
            domain: self.config.layout.domain.clone(),
            spill_bucket: self.config.layout.prov_bucket.clone(),
            index_domain: self
                .config
                .index
                .then(|| crate::index::index_domain(&self.config.layout.domain)),
        })
    }
}

struct TxnBuf {
    total: Option<usize>,
    tenant: Option<TenantId>,
    parts: BTreeMap<usize, String>,
    receipts: Vec<String>,
}

/// One reassembled, parsed member of a commit group.
struct ParsedTxn {
    txn: Uuid,
    tenant: Option<TenantId>,
    files: Vec<(String, String, PNodeId)>,
    records: Vec<ProvenanceRecord>,
    /// CAS hashes whose registry records this member still needs
    /// (referenced by a `CAS` line and not in this daemon's materialized
    /// cache). Fetched in phase 0; a hash that never becomes visible
    /// evicts the member like a stalled copy.
    cas_shas: Vec<String>,
    receipts: Vec<String>,
}

/// What one group commit achieved.
#[derive(Clone, Copy, Debug, Default)]
struct GroupOutcome {
    committed: usize,
    stalled: usize,
}

/// COPYs one temp object to its permanent name, stamping uuid+version
/// metadata, with the stall-detection retry loop: a temp that never
/// becomes copyable (and whose final key does not already carry this
/// version — another daemon may have committed it) makes the owning
/// transaction [`ProtocolError::CommitStalled`]. Free function so the
/// group commit can fan copies out over simulated connections.
fn copy_into_place(
    env: &CloudEnv,
    config: &ProtocolConfig,
    txn: Uuid,
    temp: &str,
    final_key: &str,
    id: PNodeId,
) -> Result<()> {
    config.step(&format!("p3:commit:copy:{final_key}"))?;
    let sim = env.sim();
    let s3 = env.s3().with_actor(Actor::CommitDaemon);
    let layout = &config.layout;
    for _ in 0..config.retries.max(1) + 8 {
        match retry(sim, config.retries, || {
            s3.copy(
                &layout.data_bucket,
                temp,
                &layout.data_bucket,
                final_key,
                MetadataDirective::Replace(object_metadata(id)),
            )
        }) {
            Ok(()) => return Ok(()),
            Err(CloudError::NoSuchKey { .. }) => {
                // Either the temp PUT is not yet visible, or another
                // daemon already committed and deleted it.
                if let Ok(head) = s3.head(&layout.data_bucket, final_key) {
                    if parse_object_metadata(&head.meta) == Some(id) {
                        return Ok(());
                    }
                }
                sim.sleep(Duration::from_secs(1));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(ProtocolError::CommitStalled(format!(
        "temp object {temp} for txn {txn} never became copyable"
    )))
}

/// The two write phases of one group commit, in execution order: every
/// `base` chunk lands (with a barrier) before any `index` chunk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupWritePlan {
    /// Chunks of base provenance items, each within the service's batch
    /// limit.
    pub base_chunks: Vec<Vec<PutItem>>,
    /// Chunks of ancestry-index items, written strictly after every base
    /// chunk.
    pub index_chunks: Vec<Vec<PutItem>>,
}

impl GroupWritePlan {
    /// Total items across both phases.
    pub fn items(&self) -> usize {
        self.base_chunks.iter().map(Vec::len).sum::<usize>()
            + self.index_chunks.iter().map(Vec::len).sum::<usize>()
    }
}

/// Packs a commit group's writes into `BatchPutAttributes` chunks.
///
/// Pure function — the packing invariants the property tests pin down:
///
/// * no chunk exceeds `batch_limit` (the service's 25-item cap);
/// * item order is preserved within each phase, and **every** base chunk
///   precedes **every** index chunk in the plan, so no transaction's
///   index items can ever write ahead of its base items no matter how
///   transactions were mixed;
/// * no item is dropped or duplicated.
///
/// Under load the chunks are full (the minimum count the limit allows);
/// a light group instead splits evenly across up to `parallelism`
/// non-empty chunks, so the per-item-dominated database time shrinks by
/// the connection fan-out rather than serializing behind one call.
pub fn pack_group_writes(
    base: Vec<PutItem>,
    index: Vec<PutItem>,
    batch_limit: usize,
    parallelism: usize,
) -> GroupWritePlan {
    GroupWritePlan {
        base_chunks: pack_items(base, batch_limit, parallelism),
        index_chunks: pack_items(index, batch_limit, parallelism),
    }
}

fn pack_items(items: Vec<PutItem>, batch_limit: usize, parallelism: usize) -> Vec<Vec<PutItem>> {
    let limit = batch_limit.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let chunks = n.div_ceil(limit).max(parallelism.max(1).min(n));
    let per = n.div_ceil(chunks);
    let mut out = Vec::with_capacity(chunks);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<PutItem> = it.by_ref().take(per).collect();
        if chunk.is_empty() {
            break;
        }
        out.push(chunk);
    }
    out
}

/// Outcome of one commit-daemon poll.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PollOutcome {
    /// WAL messages received this poll (all receive rounds).
    pub messages: usize,
    /// Transactions committed this poll (as one group).
    pub committed: usize,
    /// Transactions evicted from the group instead of committed: a
    /// referenced temp object never became copyable (e.g. the client
    /// died after logging the WAL but before its temp PUT landed), or
    /// the assembled record text failed to decode (a poisoned body).
    /// Never fatal — the evicted members' messages redeliver after the
    /// visibility timeout and ultimately expire with SQS retention,
    /// which is the paper's garbage-collection story for dead clients.
    pub stalled: usize,
    /// Messages this poll discarded through the batched delete path:
    /// garbage bodies and late redeliveries of already-committed
    /// transactions. Surfaced (rather than silently dropped) so
    /// operators can see redelivery churn; an entry that fails to delete
    /// is *not* counted and simply redelivers.
    pub dropped: usize,
}

/// Callback invoked (with the transaction id) each time a daemon commits
/// a transaction. The fleet's daemon pool uses it as a cross-daemon
/// double-commit detector.
pub type CommitListener = Arc<dyn Fn(Uuid) + Send + Sync>;

/// The asynchronous commit daemon (§4.3.3 commit phase).
pub struct CommitDaemon {
    env: CloudEnv,
    config: ProtocolConfig,
    wal_url: String,
    buf: Mutex<BTreeMap<Uuid, TxnBuf>>,
    committed: Mutex<BTreeSet<Uuid>>,
    /// When each transaction's first WAL message reached this daemon —
    /// the pickup instant. `committed_at - pickup` is service time; the
    /// client-side `pickup - logged_at` dwell is the component push
    /// delivery exists to eliminate, and the fleet bench gates it.
    first_seen: Mutex<BTreeMap<Uuid, SimTime>>,
    committed_count: AtomicU64,
    listener: Mutex<Option<CommitListener>>,
    /// CAS hashes whose registry records this daemon has already written
    /// through a committed group — their refetch is skipped (the records
    /// are durable in the provenance domain; SimpleDB deduplicates the
    /// identical re-put a cache-cold daemon performs). Data copies are
    /// NEVER skipped on cache grounds: a client may delete a final key
    /// and re-flush identical content, and the re-copy is what restores
    /// the object.
    materialized: Mutex<BTreeSet<String>>,
    /// Change-feed staging for this WAL stream; `Some` iff `config.feed`.
    feed: Option<FeedWriter>,
    /// Where published [`CommitEvent`]s go. Installing none is fine —
    /// events still stage and the watermark still advances, so a sink
    /// attached later (or on a takeover daemon) starts from a clean edge.
    sink: Mutex<Option<CommitEventSink>>,
}

impl std::fmt::Debug for CommitDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitDaemon")
            .field("wal", &self.wal_url)
            .field("committed", &self.committed_count.load(Ordering::Relaxed))
            .finish()
    }
}

impl CommitDaemon {
    /// Creates a daemon reading `wal_url`. Any machine can run one — that
    /// is the crash-tolerance argument for putting the WAL in SQS rather
    /// than on the client's disk.
    pub fn new(env: &CloudEnv, config: ProtocolConfig, wal_url: &str) -> CommitDaemon {
        // A daemon can run on a machine that never constructed a `P3`
        // (the WAL-in-the-cloud recovery story), so it provisions the
        // index domain itself. Idempotent, unmetered administrative call.
        if config.index {
            env.sdb()
                .create_domain(&crate::index::index_domain(&config.layout.domain));
        }
        // The feed stream is named by the WAL queue: one ordered event
        // stream per shard, surviving daemon identity changes.
        let stream = wal_url.rsplit('/').next().unwrap_or(wal_url).to_string();
        let feed = config
            .feed
            .then(|| FeedWriter::new(env, config.clone(), &stream));
        CommitDaemon {
            env: env.clone(),
            config,
            wal_url: wal_url.to_string(),
            buf: Mutex::new(BTreeMap::new()),
            committed: Mutex::new(BTreeSet::new()),
            materialized: Mutex::new(BTreeSet::new()),
            first_seen: Mutex::new(BTreeMap::new()),
            committed_count: AtomicU64::new(0),
            listener: Mutex::new(None),
            feed,
            sink: Mutex::new(None),
        }
    }

    /// Installs a callback fired on every committed transaction.
    pub fn set_commit_listener(&self, listener: CommitListener) {
        *self.listener.lock() = Some(listener);
    }

    /// Installs the change-feed sink receiving every published
    /// [`CommitEvent`]. No-op unless the config enables the feed.
    pub fn set_event_sink(&self, sink: CommitEventSink) {
        *self.sink.lock() = Some(sink);
    }

    /// Publishes any staged-but-unpublished feed events (this daemon's or
    /// a crashed predecessor's) to the installed sink. Called from every
    /// poll so a takeover daemon drains its predecessor's backlog even
    /// when no new traffic arrives. Returns how many events published.
    pub fn flush_feed(&self) -> Result<usize> {
        match &self.feed {
            Some(w) => w.flush(self.sink.lock().clone().as_ref()),
            None => Ok(0),
        }
    }

    /// Transactions committed over this daemon's lifetime.
    pub fn committed_transactions(&self) -> u64 {
        self.committed_count.load(Ordering::Relaxed)
    }

    /// When each transaction's first WAL message reached this daemon
    /// (assembly may still be in flight). Joined against client logged-at
    /// instants, this is the WAL-durable -> pickup dwell — the waiting
    /// component of commit latency, as opposed to the commit's own
    /// service time.
    pub fn pickup_times(&self) -> Vec<(Uuid, SimTime)> {
        self.first_seen
            .lock()
            .iter()
            .map(|(txn, at)| (*txn, *at))
            .collect()
    }

    /// One **group-commit round**: drains up to [`GROUP_RECEIVE_ROUNDS`]
    /// receives from the WAL, discards garbage and late redeliveries
    /// through the batched delete path, and commits every transaction
    /// that became complete as one group (`commit_group`).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors that survive retries. Incomplete
    /// transactions are never an error — they are ignored until their
    /// messages expire (crashed clients, §4.3.3).
    pub fn poll_once(&self) -> Result<PollOutcome> {
        self.config.step("p3:commit:poll")?;
        let sqs = self.env.sqs().with_actor(Actor::CommitDaemon);
        let mut outcome = PollOutcome::default();
        let mut ready: Vec<Uuid> = Vec::new();
        let mut drops: Vec<String> = Vec::new();
        for _ in 0..GROUP_RECEIVE_ROUNDS {
            let msgs = retry(self.env.sim(), self.config.retries, || {
                sqs.receive(&self.wal_url, RECEIVE_MAX)
            })?;
            if msgs.is_empty() {
                break;
            }
            outcome.messages += msgs.len();
            let mut buf = self.buf.lock();
            for m in msgs {
                let body = String::from_utf8_lossy(&m.body).to_string();
                let Some((txn, seq, total, tenant, rest)) = parse_header(&body) else {
                    // Garbage message: queue it for the batched drop.
                    drops.push(m.receipt);
                    continue;
                };
                if self.committed.lock().contains(&txn) {
                    // Late redelivery of an already-committed transaction.
                    drops.push(m.receipt);
                    continue;
                }
                let entry = buf.entry(txn).or_insert_with(|| {
                    self.first_seen
                        .lock()
                        .entry(txn)
                        .or_insert_with(|| self.env.sim().now());
                    // Trace: pickup instant (first mark wins across
                    // daemons, matching the pool's earliest-wins merge).
                    self.env.tracer().mark_pickup(txn.0, self.env.sim().now());
                    TxnBuf {
                        total: None,
                        tenant: None,
                        parts: BTreeMap::new(),
                        receipts: Vec::new(),
                    }
                });
                entry.total = Some(total);
                entry.tenant = entry.tenant.or(tenant);
                entry.parts.insert(seq, rest);
                entry.receipts.push(m.receipt);
                if entry.parts.len() == total && !ready.contains(&txn) {
                    ready.push(txn);
                }
            }
        }
        // Cleanup is metered and error-checked like any other daemon
        // traffic: whole-call failures (after retries) surface instead of
        // being discarded, per-entry failures just redeliver.
        for chunk in drops.chunks(BATCH_ENTRY_LIMIT) {
            let results = retry(self.env.sim(), self.config.retries, || {
                sqs.delete_batch(&self.wal_url, chunk)
            })?;
            outcome.dropped += results.iter().filter(|r| r.is_ok()).count();
        }
        let group: Vec<(Uuid, TxnBuf)> = {
            let mut buf = self.buf.lock();
            ready
                .into_iter()
                .filter_map(|txn| buf.remove(&txn).map(|entry| (txn, entry)))
                .collect()
        };
        let g = self.commit_group(group)?;
        outcome.committed = g.committed;
        outcome.stalled = g.stalled;
        // Drain any feed backlog a crashed predecessor staged but never
        // published — even on idle polls, so failover delivery does not
        // wait for new traffic.
        self.flush_feed()?;
        Ok(outcome)
    }

    /// Commits a group of fully-assembled transactions in five phases
    /// whose ordering carries the §3 invariants across the grouping
    /// (plus a phase 0 that materializes content-addressed references:
    /// each referenced CAS hash's registry records are fetched — once
    /// per hash per group, in parallel — and folded into the
    /// referencing members, whose `cas/{sha}` data objects then ride
    /// the ordinary copy fan-out below; a member whose hash never
    /// becomes visible evicts before any of its state is written):
    ///
    /// 1. **Copy** — every member's temp objects COPY into place, fanned
    ///    out over `commit_parallelism` connections. A member whose temp
    ///    never became copyable is evicted (stalled) here, before any of
    ///    its provenance exists anywhere.
    /// 2. **Base items** — all survivors' provenance items pack into
    ///    full `BatchPutAttributes` chunks ([`pack_group_writes`])
    ///    written over `commit_parallelism` connections (crash point
    ///    `p3:commit:group:db`, once per chunk).
    /// 3. **Index items** — strictly after *every* base chunk, the
    ///    group's merged ancestry-index entries, packed into as few
    ///    256-pair items as fit (`index::index_items`), write the same
    ///    way (`p3:commit:group:index`) — the index never describes
    ///    provenance that is not stored, for any member.
    /// 4. **GC** — survivors' temp objects delete in parallel
    ///    (`p3:commit:group:gc`); then, with the feed on, the group's
    ///    events stage in one all-or-nothing call
    ///    (`p3:notify:stage`, see `FeedWriter::stage`).
    /// 5. **Ack** — survivors' WAL receipts acknowledge through
    ///    `DeleteMessageBatch` calls (`p3:commit:group:ack`), strictly
    ///    after phases 2–3: no receipt is acked before every chunk
    ///    containing one of its transaction's items is durable.
    ///
    /// A daemon crash anywhere in the group therefore leaves every
    /// member's WAL unacknowledged (phases 1–4) or some members fully
    /// acked and the rest recommittable; every write in phases 1–3 is
    /// idempotent, so the recommit converges.
    fn commit_group(&self, group: Vec<(Uuid, TxnBuf)>) -> Result<GroupOutcome> {
        if group.is_empty() {
            return Ok(GroupOutcome::default());
        }
        let sim = self.env.sim();
        let tracer = self.env.tracer().clone();
        // The group's own lane keys its phases' ambient scopes, so every
        // op its fan-outs issue attaches under this group's phase — never
        // under a phase of another daemon committing at the same time.
        let _lane = cloudprov_sim::enter_lane();
        let t_group = sim.now();
        let s3 = self.env.s3().with_actor(Actor::CommitDaemon);
        let sdb = self.env.sdb().with_actor(Actor::CommitDaemon);
        let layout = &self.config.layout;
        let par = self.config.commit_parallelism.max(1);

        // Reassemble each member in sequence order and parse. A member
        // whose record text fails to decode (corrupt or truncated body
        // from a buggy client) is EVICTED like a stalled member, not an
        // error: propagating would abort the whole group before any
        // peer committed, and since the poison messages redeliver the
        // shard would relive the same failure every poll until the
        // 4-day retention — where the serial path at least committed
        // the healthy transactions ahead of the poison one. Evicted
        // members' messages redeliver and ultimately expire with SQS
        // retention, the paper's garbage-collection story.
        let mut poisoned = 0usize;
        let mut txns: Vec<ParsedTxn> = Vec::with_capacity(group.len());
        for (txn, entry) in group {
            let mut files: Vec<(String, String, PNodeId)> = Vec::new();
            let mut cas_shas: Vec<String> = Vec::new();
            let mut record_text = String::new();
            for body in entry.parts.values() {
                for line in body.lines() {
                    if let Some(rest) = line.strip_prefix("OBJ\t") {
                        let mut it = rest.split('\t');
                        let (Some(temp), Some(final_key), Some(id)) =
                            (it.next(), it.next(), it.next())
                        else {
                            continue;
                        };
                        if let Ok(id) = id.parse::<PNodeId>() {
                            files.push((temp.to_string(), final_key.to_string(), id));
                        }
                    } else if let Some(rest) = line.strip_prefix("CAS\t") {
                        // A content-addressed reference: the published
                        // `cas/{sha}` object joins the copy fan-out like
                        // a temp object (at its position in line order,
                        // preserving last-for-key election), and the
                        // hash's registry records join the member in
                        // phase 0.
                        let mut it = rest.split('\t');
                        let (Some(sha), Some(final_key), Some(id), Some(flag)) =
                            (it.next(), it.next(), it.next(), it.next())
                        else {
                            continue;
                        };
                        if let Ok(id) = id.parse::<PNodeId>() {
                            if flag == "d" && final_key != "-" {
                                files.push((cas::cas_object_key(sha), final_key.to_string(), id));
                            }
                            if !self.materialized.lock().contains(sha) {
                                cas_shas.push(sha.to_string());
                            }
                        }
                    } else {
                        record_text.push_str(line);
                        record_text.push('\n');
                    }
                }
            }
            let Ok(records) = wire::decode(record_text.as_bytes()) else {
                poisoned += 1;
                continue;
            };
            txns.push(ParsedTxn {
                txn,
                tenant: entry.tenant,
                files,
                records,
                cas_shas,
                receipts: entry.receipts,
            });
        }

        // Trace: find each member's root by its txn id in the shared
        // tracer (also how a steal's recommit lands on the original
        // tree), mark group entry, and elect a lead root to parent the
        // phase spans.
        // Non-lead traced members get identical phase spans under their
        // own roots, so every member's root-to-leaf walk is complete.
        let roots: Vec<Option<SpanContext>> = txns
            .iter()
            .map(|t| {
                tracer.mark_group_start(t.txn.0, t_group);
                tracer.root_ctx(t.txn.0)
            })
            .collect();
        let lead = roots.iter().flatten().next().copied();
        let member_tenants: Vec<Option<u32>> = txns.iter().map(|t| t.tenant.map(|x| x.0)).collect();

        // Phase 0: materialize CAS references — fetch each referenced
        // hash's registry item (once per hash per group, fanned out in
        // parallel) and fold its records into the referencing members.
        // The client's flusher only logs a reference after its publish
        // is durable, so a hash that never becomes visible within the
        // copy-style retry budget is either registry eventual
        // consistency that outlived the budget or a corrupt entry; the
        // member evicts like a stalled copy and its messages redeliver.
        // The `copy` phase span covers phases 0–1 (CAS materialization
        // + data copies); its scope parents the daemon's metered ops.
        let g_copy = lead.and_then(|l| {
            tracer.phase(
                l.trace,
                l.span,
                "copy",
                None,
                Some((SCOPE_COMMIT_DAEMON, None)),
                t_group,
            )
        });
        let mut stalled: Vec<bool> = vec![false; txns.len()];
        let needed: Vec<String> = {
            let mut seen = BTreeSet::new();
            txns.iter()
                .flat_map(|t| t.cas_shas.iter())
                .filter(|sha| seen.insert(sha.to_string()))
                .cloned()
                .collect()
        };
        if !needed.is_empty() {
            let tasks: Vec<Task<Result<cas::Fetched>>> = needed
                .chunks(cas::CAS_SELECT_HASHES)
                .map(|chunk| {
                    let (env, config, chunk) =
                        (self.env.clone(), self.config.clone(), chunk.to_vec());
                    Box::new(move || cas::fetch_records(&env, &config, &chunk)) as Task<_>
                })
                .collect();
            let mut fetched = cas::Fetched::new();
            for r in fan_out(sim, par, tasks) {
                fetched.extend(r?);
            }
            for (ti, t) in txns.iter_mut().enumerate() {
                for sha in &t.cas_shas {
                    match fetched.get(sha) {
                        Some(records) => t.records.extend(records.iter().cloned()),
                        None => stalled[ti] = true,
                    }
                }
            }
        }

        // Phase 1: COPY temp -> permanent, stamping uuid+version
        // metadata, for EVERY member before ANY provenance is written.
        // Data commits strictly before provenance: a transaction whose
        // temp object never arrived (the client died after logging the
        // WAL but before its parallel temp PUT landed) stalls HERE — so
        // a dead client can never leave provenance describing data that
        // does not exist (§3's "old data based on new provenance"
        // hazard). The short window where data is visible without
        // provenance is ordinary eventual coupling and closes when phase
        // 2 lands (or on recommit, since the WAL messages are only
        // acknowledged at the very end). A daemon that dies in that
        // window AND whose WAL then expires unrecovered leaves the data
        // permanently ProvenanceMissing — the *detectable* side of the
        // tradeoff; the reverse order risked the misleading side,
        // permanent phantom provenance.
        // Across group members, copies of one final key are unordered —
        // exactly as cross-transaction commit order always was (the
        // serial path committed ready transactions in receive order,
        // and SQS receives sample uniformly). Every interleaving is
        // safe because a copy moves data and version metadata
        // atomically, so any winner leaves a self-consistent, coupled
        // object whose provenance is written by phases 2-3.
        //
        // A transaction's file list can name one final key twice: the
        // closure may carry a historic version of a file alongside the
        // version being closed, ancestors first. The serial path copied
        // them in list order, so the LAST entry (the newest version)
        // always defined the final (data, metadata) pair and the earlier
        // copies were transient states it immediately overwrote. With
        // copies fanned out in parallel that ordering would be lost —
        // so only each key's last entry is copied at all (the winner the
        // serial path produced), which also saves the transient COPY
        // requests. The skipped entries' temp objects still reach the
        // GC phase.
        let mut owners: Vec<usize> = Vec::new();
        let mut tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send>> = Vec::new();
        for (ti, t) in txns.iter().enumerate() {
            if stalled[ti] {
                // Evicted in phase 0 (unmaterializable CAS reference):
                // none of its data commits either.
                continue;
            }
            let mut last_for_key: BTreeMap<&str, usize> = BTreeMap::new();
            for (fi, (_, final_key, _)) in t.files.iter().enumerate() {
                last_for_key.insert(final_key, fi);
            }
            for (fi, (temp, final_key, id)) in t.files.iter().enumerate() {
                if last_for_key.get(final_key.as_str()) != Some(&fi) {
                    continue;
                }
                owners.push(ti);
                let env = self.env.clone();
                let config = self.config.clone();
                let (temp, final_key, id, txn) = (temp.clone(), final_key.clone(), *id, t.txn);
                tasks.push(Box::new(move || {
                    copy_into_place(&env, &config, txn, &temp, &final_key, id)
                }));
            }
        }
        for (ti, r) in owners.into_iter().zip(sim.run_parallel(par, tasks)) {
            match r {
                Ok(()) => {}
                // A stalled member must not block its group peers: evict
                // it and let redelivery/retention handle it.
                Err(ProtocolError::CommitStalled(_)) => stalled[ti] = true,
                Err(e) => return Err(e),
            }
        }
        let survivors: Vec<usize> = (0..txns.len()).filter(|ti| !stalled[*ti]).collect();

        let t_copy_end = sim.now();
        if let Some(g) = g_copy {
            g.finish(t_copy_end);
        }
        emit_member_phase_spans(
            &tracer,
            &roots,
            lead,
            &member_tenants,
            "copy",
            t_group,
            t_copy_end,
        );
        for (ti, s) in stalled.iter().enumerate() {
            if *s {
                if let Some(r) = roots[ti] {
                    // Evicted members' roots never close; annotate so the
                    // open trace explains itself.
                    tracer.event(r, "evicted", t_copy_end);
                }
            }
        }
        // The `db` phase span covers value spills + base-item chunks.
        let g_db = lead.and_then(|l| {
            tracer.phase(
                l.trace,
                l.span,
                "db",
                None,
                Some((SCOPE_COMMIT_DAEMON, None)),
                t_copy_end,
            )
        });

        // Phases 2+3: spill oversized values, then pack every survivor's
        // base items — and the group's merged index entries, packed into
        // items — into full chunks, written in parallel with a hard
        // barrier between the base and index phases.
        let mut base_items: Vec<PutItem> = Vec::new();
        let mut index_entries: BTreeSet<crate::index::IndexEntry> = BTreeSet::new();
        let mut touches: Vec<StagedTouches> = Vec::new();
        for &ti in &survivors {
            // The records are not needed after this phase: move them
            // out instead of cloning hundreds of strings per member.
            let records = std::mem::take(&mut txns[ti].records);
            if self.feed.is_some() {
                let (uuids, programs) = extract_touches(&records);
                touches.push(StagedTouches {
                    txn: txns[ti].txn,
                    tenant: txns[ti].tenant,
                    uuids,
                    programs,
                });
            }
            if self.config.index {
                index_entries.extend(crate::index::index_updates(&records));
            }
            let mut by_subject: BTreeMap<PNodeId, Vec<ProvenanceRecord>> = BTreeMap::new();
            for r in records {
                by_subject.entry(r.subject).or_default().push(r);
            }
            for (id, recs) in &by_subject {
                base_items.push(records_to_item(
                    sim,
                    &s3,
                    layout,
                    self.config.retries,
                    *id,
                    recs,
                )?);
            }
        }
        let plan = pack_group_writes(
            base_items,
            crate::index::index_items(&index_entries),
            self.config.db_batch.clamp(1, BATCH_LIMIT),
            self.config.db_concurrency.max(1),
        );
        self.write_chunks(
            &sdb,
            &layout.domain,
            &plan.base_chunks,
            "p3:commit:group:db",
        )?;
        let t_db_end = sim.now();
        if let Some(g) = g_db {
            g.finish(t_db_end);
        }
        emit_member_phase_spans(
            &tracer,
            &roots,
            lead,
            &member_tenants,
            "db",
            t_copy_end,
            t_db_end,
        );
        let g_index = lead.and_then(|l| {
            tracer.phase(
                l.trace,
                l.span,
                "index",
                None,
                Some((SCOPE_COMMIT_DAEMON, None)),
                t_db_end,
            )
        });
        self.write_chunks(
            &sdb,
            &crate::index::index_domain(&layout.domain),
            &plan.index_chunks,
            "p3:commit:group:index",
        )?;
        let t_index_end = sim.now();
        if let Some(g) = g_index {
            g.finish(t_index_end);
        }
        emit_member_phase_spans(
            &tracer,
            &roots,
            lead,
            &member_tenants,
            "index",
            t_db_end,
            t_index_end,
        );
        // The `ack` phase span covers the commit tail: temp GC, feed
        // staging, and the WAL acknowledgement batches. Its `gc` and
        // `stage` children (under the lead's `ack` only) split the tail;
        // the acknowledgement batches are the rest.
        let g_ack = lead.and_then(|l| {
            tracer.phase(
                l.trace,
                l.span,
                "ack",
                None,
                Some((SCOPE_COMMIT_DAEMON, None)),
                t_index_end,
            )
        });
        let ack_child = |kind: &'static str, start: SimTime| {
            g_ack.as_ref().and_then(|a| {
                tracer.phase(
                    a.ctx().trace,
                    a.ctx().span,
                    kind,
                    None,
                    Some((SCOPE_COMMIT_DAEMON, None)),
                    start,
                )
            })
        };
        let g_gc = ack_child("gc", t_index_end);

        // Phase 4: delete the survivors' temp objects. S3 has no batch
        // delete in 2009, so the amortization is the parallel fan-out.
        let mut tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send>> = Vec::new();
        for &ti in &survivors {
            for (temp, _, _) in &txns[ti].files {
                if !temp.starts_with(&layout.temp_prefix) {
                    // A `cas/…` source is shared, fleet-wide published
                    // content — other transactions (on other shards,
                    // later) reference the same hash. Never GC'd here.
                    continue;
                }
                let env = self.env.clone();
                let config = self.config.clone();
                let temp = temp.clone();
                tasks.push(Box::new(move || -> Result<()> {
                    config.step("p3:commit:group:gc")?;
                    let s3 = env.s3().with_actor(Actor::CommitDaemon);
                    retry(env.sim(), config.retries, || {
                        s3.delete(&config.layout.data_bucket, &temp)
                    })?;
                    Ok(())
                }));
            }
        }
        sim.run_parallel(par, tasks)
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        let t_gc_end = sim.now();
        if let Some(g) = g_gc {
            g.finish(t_gc_end);
        }

        // Phase 4.5: durably stage the group's change-feed events —
        // strictly BEFORE any receipt acknowledges (crash point
        // `p3:notify:stage`). A crash here leaves the WAL unacked; the
        // group recommits and restages under fresh sequence numbers,
        // so a consumer can see a transaction's event twice but never
        // miss it (at-least-once, gap-free).
        if let Some(w) = &self.feed {
            let g_stage = ack_child("stage", t_gc_end);
            w.stage(&touches)?;
            if let Some(g) = g_stage {
                g.finish(sim.now());
            }
        }

        // Phase 5: acknowledge the survivors' WAL receipts in
        // DeleteMessageBatch calls — strictly after every chunk carrying
        // their items was durable. Lenient like the single-delete path
        // was: a failed acknowledgement redelivers and is dropped as an
        // already-committed transaction on a later poll.
        let receipts: Vec<String> = survivors
            .iter()
            .flat_map(|&ti| txns[ti].receipts.iter().cloned())
            .collect();
        let mut tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send>> = Vec::new();
        for chunk in receipts.chunks(BATCH_ENTRY_LIMIT) {
            let env = self.env.clone();
            let config = self.config.clone();
            let wal_url = self.wal_url.clone();
            let chunk = chunk.to_vec();
            tasks.push(Box::new(move || -> Result<()> {
                config.step("p3:commit:group:ack")?;
                let sqs = env.sqs().with_actor(Actor::CommitDaemon);
                let _ = retry(env.sim(), config.retries, || {
                    sqs.delete_batch(&wal_url, &chunk)
                });
                Ok(())
            }));
        }
        sim.run_parallel(par, tasks)
            .into_iter()
            .collect::<Result<Vec<_>>>()?;

        // Committed instant. Nothing below advances the virtual clock
        // before the commit listener observes the group, so closing each
        // survivor's root HERE makes root duration exactly equal the
        // measured WAL-durable -> committed latency.
        let t_committed = sim.now();
        if let Some(g) = g_ack {
            g.finish(t_committed);
        }
        emit_member_phase_spans(
            &tracer,
            &roots,
            lead,
            &member_tenants,
            "ack",
            t_index_end,
            t_committed,
        );
        for &ti in &survivors {
            if let Some(r) = roots[ti] {
                tracer.close_txn(r.trace, t_committed);
            }
        }

        {
            let mut committed = self.committed.lock();
            for &ti in &survivors {
                committed.insert(txns[ti].txn);
            }
        }
        {
            // Survivors' CAS records are durable in the provenance
            // domain now — this daemon need not refetch those hashes.
            let mut materialized = self.materialized.lock();
            for &ti in &survivors {
                for sha in &txns[ti].cas_shas {
                    materialized.insert(sha.clone());
                }
            }
        }
        self.committed_count
            .fetch_add(survivors.len() as u64, Ordering::Relaxed);
        if let Some(l) = self.listener.lock().clone() {
            for &ti in &survivors {
                l(txns[ti].txn);
            }
        }
        // Phase 6: publish the staged events to the sink and advance the
        // watermark — strictly AFTER the group ack (`p3:notify:publish`,
        // `p3:notify:wm`). A crash in here republishes on the next poll.
        self.flush_feed()?;
        Ok(GroupOutcome {
            committed: survivors.len(),
            stalled: stalled.iter().filter(|s| **s).count() + poisoned,
        })
    }

    /// Writes one phase's chunks over the daemon's `commit_parallelism`
    /// connections, checking `step` once per chunk. Returns only when
    /// every chunk is durable — the barrier between the base and index
    /// phases, and between the index phase and the acknowledgements.
    fn write_chunks(
        &self,
        sdb: &Database,
        domain: &str,
        chunks: &[Vec<PutItem>],
        step: &'static str,
    ) -> Result<()> {
        if chunks.is_empty() {
            return Ok(());
        }
        let tasks: Vec<Box<dyn FnOnce() -> Result<()> + Send>> = chunks
            .iter()
            .map(|chunk| {
                let sdb = sdb.clone();
                let env = self.env.clone();
                let config = self.config.clone();
                let domain = domain.to_string();
                let chunk = chunk.clone();
                Box::new(move || -> Result<()> {
                    config.step(step)?;
                    retry(env.sim(), config.retries, || {
                        sdb.batch_put_attributes(&domain, chunk.clone())
                    })?;
                    Ok(())
                }) as Box<dyn FnOnce() -> Result<()> + Send>
            })
            .collect();
        self.env
            .sim()
            .run_parallel(self.config.commit_parallelism.max(1), tasks)
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        Ok(())
    }

    /// Polls until a round yields no messages. Useful for deterministic
    /// tests and for benchmarks that want the daemon cost measured.
    pub fn run_until_idle(&self) -> Result<u64> {
        let mut committed = 0;
        loop {
            let o = self.poll_once()?;
            committed += o.committed as u64;
            if o.messages == 0 {
                return Ok(committed);
            }
        }
    }

    /// Runs the daemon on a background simulated thread until stopped.
    pub fn spawn(self: Arc<Self>, poll_interval: Duration) -> DaemonHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let sim = self.env.sim().clone();
        let handle = sim.clone().spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match self.poll_once() {
                    Ok(o) if o.messages == 0 => sim.sleep(poll_interval),
                    Ok(_) => {}
                    Err(_) => sim.sleep(poll_interval),
                }
            }
        });
        DaemonHandle { stop, handle }
    }
}

type ParsedHeader = (Uuid, usize, usize, Option<TenantId>, String);

fn parse_header(body: &str) -> Option<ParsedHeader> {
    let (header, rest) = body.split_once('\n')?;
    let mut it = header.split('\t');
    if it.next()? != "TXN" {
        return None;
    }
    let txn: Uuid = it.next()?.parse().ok()?;
    let seq: usize = it.next()?.parse().ok()?;
    let total: usize = it.next()?.parse().ok()?;
    // Optional trailing field: the logging client's tenant.
    let tenant = it.next().and_then(|f| f.parse().ok()).map(TenantId);
    Some((txn, seq, total, tenant, rest.to_string()))
}

/// Mirrors one group-commit phase span onto every traced non-lead
/// member's root, so each member's trace tree carries the full phase
/// sequence (the lead's copy is emitted by its [`cloudprov_trace::PhaseGuard`]).
fn emit_member_phase_spans(
    tracer: &Tracer,
    roots: &[Option<SpanContext>],
    lead: Option<SpanContext>,
    tenants: &[Option<u32>],
    kind: &'static str,
    t_start: SimTime,
    t_end: SimTime,
) {
    if !tracer.enabled() {
        return;
    }
    for (root, tenant) in roots.iter().zip(tenants) {
        let Some(root) = root else { continue };
        if Some(*root) == lead {
            continue;
        }
        tracer.span(
            root.trace,
            Some(root.span),
            kind,
            kind,
            *tenant,
            t_start,
            t_end,
            0.0,
        );
    }
}

/// Handle to a running background daemon.
#[derive(Debug)]
pub struct DaemonHandle {
    stop: Arc<AtomicBool>,
    handle: SimHandle<()>,
}

impl DaemonHandle {
    /// Signals the daemon and waits (in virtual time) for it to exit.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join();
    }
}

/// The cleaner daemon: removes temporary objects older than the retention
/// window — the garbage left by transactions whose client crashed before
/// logging every packet (§4.3.3: "We use a cleaner daemon to remove
/// temporary objects that have not been accessed for 4 days").
pub struct CleanerDaemon {
    env: CloudEnv,
    config: ProtocolConfig,
    max_age: Duration,
}

impl std::fmt::Debug for CleanerDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CleanerDaemon")
            .field("max_age", &self.max_age)
            .finish()
    }
}

impl CleanerDaemon {
    /// Creates a cleaner with the paper's 4-day window.
    pub fn new(env: &CloudEnv, config: ProtocolConfig) -> CleanerDaemon {
        CleanerDaemon {
            env: env.clone(),
            config,
            max_age: cloudprov_cloud::RETENTION,
        }
    }

    /// Overrides the reclamation age (tests).
    pub fn with_max_age(mut self, max_age: Duration) -> CleanerDaemon {
        self.max_age = max_age;
        self
    }

    /// One sweep: lists the temp prefix and deletes expired objects.
    /// Returns how many were reclaimed.
    pub fn clean_once(&self) -> Result<usize> {
        let s3 = self.env.s3().with_actor(Actor::CleanerDaemon);
        let layout = &self.config.layout;
        let keys = retry(self.env.sim(), self.config.retries, || {
            s3.list_all(&layout.data_bucket, &layout.temp_prefix)
        })?;
        let now = self.env.sim().now();
        let mut reclaimed = 0;
        for k in keys {
            if now.saturating_duration_since(k.last_modified) > self.max_age {
                self.config.step(&format!("p3:clean:{}", k.key))?;
                retry(self.env.sim(), self.config.retries, || {
                    s3.delete(&layout.data_bucket, &k.key)
                })?;
                reclaimed += 1;
            }
        }
        Ok(reclaimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::{AwsProfile, Blob};
    use cloudprov_pass::{Attr, FlushNode, NodeKind};
    use cloudprov_sim::Sim;

    use crate::protocol::FlushObject;

    fn setup() -> (Sim, CloudEnv, P3) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, ProtocolConfig::default(), "wal-client1");
        (sim, env, p3)
    }

    fn file_obj(uuid: u128, version: u32, key: &str, data: &str) -> FlushObject {
        let id = PNodeId {
            uuid: Uuid(uuid),
            version,
        };
        let blob = Blob::from(data);
        FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some(key.to_string()),
                records: vec![
                    ProvenanceRecord::new(id, Attr::Type, "file"),
                    ProvenanceRecord::new(id, Attr::Name, key),
                    ProvenanceRecord::new(
                        id,
                        Attr::DataHash,
                        format!("{:016x}", blob.content_fingerprint()),
                    ),
                ],
                data_hash: Some(blob.content_fingerprint()),
            },
            key,
            blob,
        )
    }

    #[test]
    fn log_phase_leaves_data_in_temp_until_commit() {
        let (_sim, env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(1, 1, "out", "payload")],
        })
        .unwrap();
        // Before the daemon runs: temp object exists, final does not.
        assert!(env.s3().peek_count("data", "tmp/") > 0);
        assert!(env.s3().peek_committed("data", "out").is_none());
        assert!(env.sqs().peek_depth(p3.wal_url()) > 0);

        let daemon = p3.commit_daemon();
        let committed = daemon.run_until_idle().unwrap();
        assert_eq!(committed, 1);
        // After commit: final object exists with metadata, temp gone, WAL empty.
        let final_obj = env.s3().peek_committed("data", "out").unwrap();
        assert_eq!(final_obj.blob, Blob::from("payload"));
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
        // And provenance is in SimpleDB.
        assert!(env
            .sdb()
            .peek_item(
                "provenance",
                &PNodeId {
                    uuid: Uuid(1),
                    version: 1
                }
                .to_string()
            )
            .is_some());
    }

    #[test]
    fn read_after_commit_is_coupled() {
        let (_sim, _env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(2, 1, "out", "data!")],
        })
        .unwrap();
        p3.commit_daemon().run_until_idle().unwrap();
        let r = p3.read("out").unwrap();
        assert_eq!(r.coupling, CouplingCheck::Coupled);
        assert_eq!(r.data, Blob::from("data!"));
    }

    #[test]
    fn incomplete_transaction_is_ignored() {
        // Client crashes after sending only some WAL packets: the daemon
        // must never commit the partial transaction (§4.3.3).
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        // Enough records that the WAL needs >1 *batch* of messages
        // (batches carry up to ten 8 KB messages); crash on batch 1.
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| step != "p3:wal:1")),
            ..ProtocolConfig::default()
        };
        let p3 = P3::new(&env, cfg, "wal");
        let id = PNodeId::initial(Uuid(3));
        let records: Vec<_> = (0..2500)
            .map(|i| ProvenanceRecord::new(id, Attr::Custom(format!("a{i}")), "v".repeat(40)))
            .collect();
        let obj = FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some("big".into()),
                records,
                data_hash: Some(1),
            },
            "big",
            Blob::from("x"),
        );
        let err = p3.flush(FlushBatch { objects: vec![obj] }).unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));

        let daemon = p3.commit_daemon();
        daemon.run_until_idle().unwrap();
        assert_eq!(daemon.committed_transactions(), 0);
        assert!(env.s3().peek_committed("data", "big").is_none());
        assert_eq!(env.sdb().peek_item_count("provenance"), 0);
    }

    #[test]
    fn another_machine_can_commit_after_client_logged_everything() {
        // The WAL-in-the-cloud argument: client finishes the log phase and
        // dies; a daemon on a DIFFERENT machine commits the transaction.
        let (_sim, env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(4, 1, "out", "survives")],
        })
        .unwrap();
        drop(p3); // client is gone
        let other_machine = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-client1");
        let committed = other_machine.run_until_idle().unwrap();
        assert_eq!(committed, 1);
        assert_eq!(
            env.s3().peek_committed("data", "out").unwrap().blob,
            Blob::from("survives")
        );
    }

    #[test]
    fn multi_message_transactions_reassemble() {
        let (_sim, env, p3) = setup();
        let id = PNodeId::initial(Uuid(5));
        // 240 records of ~140 bytes: several 8 KB messages, but within
        // SimpleDB's 256-attributes-per-item limit.
        let records: Vec<_> = (0..240)
            .map(|i| ProvenanceRecord::new(id, Attr::Custom(format!("k{i}")), "v".repeat(100)))
            .collect();
        let n_records = records.len();
        let obj = FlushObject::file(
            FlushNode {
                id,
                kind: NodeKind::File,
                name: Some("big".into()),
                records,
                data_hash: Some(2),
            },
            "big",
            Blob::from("content"),
        );
        p3.flush(FlushBatch { objects: vec![obj] }).unwrap();
        assert!(
            env.sqs().peek_depth(p3.wal_url()) > 3,
            "expected several 8KB chunks"
        );
        p3.commit_daemon().run_until_idle().unwrap();
        let item = env.sdb().peek_item("provenance", &id.to_string()).unwrap();
        assert_eq!(item.len(), n_records);
    }

    #[test]
    fn ancestors_ride_in_the_same_transaction() {
        // "We include all not-yet-written ancestors of an object in the
        // object's transaction" — so causal ordering holds even with
        // parallel sends.
        let (_sim, env, p3) = setup();
        let proc_id = PNodeId::initial(Uuid(6));
        let proc = FlushObject::provenance_only(FlushNode {
            id: proc_id,
            kind: NodeKind::Process,
            name: Some("gen".into()),
            records: vec![
                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                ProvenanceRecord::new(proc_id, Attr::Name, "gen"),
            ],
            data_hash: None,
        });
        let mut file = file_obj(7, 1, "out", "x");
        file.node
            .records
            .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
        p3.flush(FlushBatch {
            objects: vec![proc, file],
        })
        .unwrap();
        p3.commit_daemon().run_until_idle().unwrap();
        // Both the process and the file item exist; no dangling input.
        assert!(env
            .sdb()
            .peek_item("provenance", &proc_id.to_string())
            .is_some());
        let file_item = env
            .sdb()
            .peek_item("provenance", &format!("{}_1", Uuid(7)))
            .unwrap();
        assert!(file_item
            .iter()
            .any(|(k, v)| k == "input" && *v == proc_id.to_string()));
    }

    #[test]
    fn duplicate_deliveries_commit_once() {
        let (_sim, env, p3) = setup();
        env.faults().set(cloudprov_cloud::FaultPlan {
            sqs_duplicate_probability: 0.5,
            ..cloudprov_cloud::FaultPlan::none()
        });
        p3.flush(FlushBatch {
            objects: vec![file_obj(8, 1, "out", "once")],
        })
        .unwrap();
        let daemon = p3.commit_daemon();
        // Poll repeatedly; duplicates must not double-commit.
        for _ in 0..20 {
            daemon.poll_once().unwrap();
        }
        env.faults().clear();
        daemon.run_until_idle().unwrap();
        assert_eq!(daemon.committed_transactions(), 1);
        assert_eq!(
            env.s3().peek_committed("data", "out").unwrap().blob,
            Blob::from("once")
        );
    }

    #[test]
    fn commit_maintains_the_ancestry_index() {
        let (_sim, env, p3) = setup();
        let proc_id = PNodeId::initial(Uuid(30));
        let proc = FlushObject::provenance_only(FlushNode {
            id: proc_id,
            kind: NodeKind::Process,
            name: Some("gen".into()),
            records: vec![
                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                ProvenanceRecord::new(proc_id, Attr::Name, "gen"),
            ],
            data_hash: None,
        });
        let mut file = file_obj(31, 1, "out", "x");
        file.node
            .records
            .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
        p3.flush(FlushBatch {
            objects: vec![proc, file],
        })
        .unwrap();
        p3.commit_daemon().run_until_idle().unwrap();
        let audit = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
        assert!(audit.entries >= 2, "rev edge + program seed expected");
    }

    #[test]
    fn crash_between_base_and_index_write_heals_on_recommit() {
        // The p3:commit:group:index crash point: base records land, the
        // index write dies, the WAL stays unacknowledged. A fresh
        // daemon's recommit must leave base and index consistent (both
        // writes are idempotent).
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| step != "p3:commit:group:index")),
            ..ProtocolConfig::default()
        };
        let p3 = P3::new(&env, cfg, "wal-idx");
        let proc_id = PNodeId::initial(Uuid(40));
        let proc = FlushObject::provenance_only(FlushNode {
            id: proc_id,
            kind: NodeKind::Process,
            name: Some("gen".into()),
            records: vec![
                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                ProvenanceRecord::new(proc_id, Attr::Name, "gen"),
            ],
            data_hash: None,
        });
        let mut file = file_obj(41, 1, "out", "x");
        file.node
            .records
            .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
        p3.flush(FlushBatch {
            objects: vec![proc, file],
        })
        .unwrap();
        let dying = p3.commit_daemon();
        let err = dying.run_until_idle().unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));
        // Base records committed, index did not: temporarily divergent.
        assert!(env.sdb().peek_item_count("provenance") > 0);
        let mid = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(!mid.consistent(), "crash must leave the gap this models");
        // WAL unacknowledged: a recovery daemon redelivers and recommits.
        sim.sleep(cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
        let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-idx");
        recovery.run_until_idle().unwrap();
        let audit = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
    }

    #[test]
    fn disabling_the_index_skips_index_writes() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let cfg = ProtocolConfig {
            index: false,
            ..ProtocolConfig::default()
        };
        let p3 = P3::new(&env, cfg, "wal-noidx");
        assert!(matches!(
            p3.provenance_store(),
            Some(ProvenanceStore::Database {
                index_domain: None,
                ..
            })
        ));
        p3.flush(FlushBatch {
            objects: vec![file_obj(50, 1, "out", "x")],
        })
        .unwrap();
        p3.commit_daemon().run_until_idle().unwrap();
        assert_eq!(
            env.sdb()
                .peek_item_count(&crate::index::index_domain("provenance")),
            0
        );
    }

    #[test]
    fn cleaner_reaps_only_expired_orphans() {
        let (sim, env, p3) = setup();
        // Orphan a temp object by crashing before any WAL send.
        let cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| !step.starts_with("p3:wal:"))),
            ..ProtocolConfig::default()
        };
        let crasher = P3::new(&env, cfg, "wal-crasher");
        let _ = crasher.flush(FlushBatch {
            objects: vec![file_obj(9, 1, "orphaned", "lost")],
        });
        assert_eq!(env.s3().peek_count("data", "tmp/"), 1);

        let cleaner = p3.cleaner_daemon();
        // Too young: nothing reclaimed.
        assert_eq!(cleaner.clean_once().unwrap(), 0);
        // After 4 days it goes.
        sim.sleep(Duration::from_secs(4 * 24 * 3600 + 60));
        assert_eq!(cleaner.clean_once().unwrap(), 1);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0);
    }

    #[test]
    fn background_daemon_commits_while_client_works() {
        let (sim, env, p3) = setup();
        let daemon = Arc::new(p3.commit_daemon());
        let handle = daemon.clone().spawn(Duration::from_secs(5));
        for i in 0..5u128 {
            p3.flush(FlushBatch {
                objects: vec![file_obj(20 + i, 1, &format!("f{i}"), "d")],
            })
            .unwrap();
        }
        // Give the daemon virtual time to drain.
        sim.sleep(Duration::from_secs(120));
        handle.stop();
        assert_eq!(daemon.committed_transactions(), 5);
        for i in 0..5 {
            assert!(env.s3().peek_committed("data", &format!("f{i}")).is_some());
        }
    }

    #[test]
    fn wal_messages_respect_sqs_limit() {
        let id = PNodeId::initial(Uuid(11));
        let records: Vec<_> = (0..2000)
            .map(|i| ProvenanceRecord::new(id, Attr::Custom(format!("a{i}")), "z".repeat(50)))
            .collect();
        // The widest header left: the longest tenant field.
        for tenant in [None, Some(TenantId(u32::MAX))] {
            let msgs = P3::build_messages(Uuid(1), tenant, &[], &records, MESSAGE_LIMIT);
            assert!(msgs.len() > 10);
            for m in &msgs {
                assert!(m.len() <= MESSAGE_LIMIT, "message of {} bytes", m.len());
            }
        }
    }

    #[test]
    fn traced_flush_of_full_wal_messages_fits_the_sqs_limit() {
        // A flush large enough to pack WAL bodies up to the message
        // limit: tracing must not add header bytes past `HEADER_ROOM`.
        let (_sim, env, p3) = setup();
        env.tracer().enable(3);
        let objects = (0..600u128)
            .map(|i| file_obj(1000 + i, 1, &format!("f{i}"), "x"))
            .collect();
        p3.flush(FlushBatch { objects }).unwrap();
        assert!(
            env.sqs().peek_depth(p3.wal_url()) > 1,
            "bodies span messages"
        );
        assert_eq!(p3.commit_daemon().run_until_idle().unwrap(), 1);
        assert_eq!(env.tracer().stats().orphans, 0);
    }

    /// Step hook that kills the process at the `occurrence`-th crossing
    /// of exactly `target` — and keeps it dead, like a real kill.
    fn kill_at_occurrence(target: &'static str, occurrence: u64) -> crate::StepHook {
        crate::protocol::kill_at_occurrence(target, occurrence).0
    }

    #[test]
    fn one_poll_commits_a_cross_transaction_group() {
        let (_sim, env, p3) = setup();
        for i in 0..6u128 {
            p3.flush(FlushBatch {
                objects: vec![file_obj(100 + i, 1, &format!("g{i}"), "d")],
            })
            .unwrap();
        }
        let daemon = p3.commit_daemon();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.committed, 6, "one poll round commits the whole group");
        assert_eq!(o.stalled, 0);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
        for i in 0..6 {
            assert!(env.s3().peek_committed("data", &format!("g{i}")).is_some());
        }
        // The group's WAL acknowledgements drained through ONE batched
        // delete call, not one round trip per transaction.
        let usage = env.usage();
        let acks = usage.get(
            cloudprov_cloud::Actor::CommitDaemon,
            cloudprov_cloud::Service::Queue,
            cloudprov_cloud::Op::Delete,
        );
        assert_eq!(acks.count, 1, "six receipts must ack as one batch");
    }

    #[test]
    fn garbage_messages_drop_through_the_batched_path() {
        let (_sim, env, p3) = setup();
        for i in 0..3 {
            env.sqs()
                .send(p3.wal_url(), Bytes::from(format!("not-a-txn-{i}")))
                .unwrap();
        }
        let daemon = p3.commit_daemon();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.messages, 3);
        assert_eq!(o.dropped, 3, "garbage is counted, not silently eaten");
        assert_eq!(o.committed, 0);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
    }

    #[test]
    fn redelivery_of_a_committed_transaction_counts_as_dropped() {
        let (_sim, env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(110, 1, "dup", "x")],
        })
        .unwrap();
        // Capture the WAL body (peek-receive and release), as an
        // at-least-once duplicate a lagging SQS host could still hold.
        let held = env.sqs().receive(p3.wal_url(), 10).unwrap();
        assert_eq!(held.len(), 1);
        let body = held[0].body.clone();
        env.sqs()
            .change_visibility(p3.wal_url(), &held[0].receipt, Duration::ZERO)
            .unwrap();
        let daemon = p3.commit_daemon();
        let first = daemon.poll_once().unwrap();
        assert_eq!(first.committed, 1);
        // The duplicate arrives AFTER the commit: the daemon must drop
        // it through the batched path and count it.
        env.sqs().send(p3.wal_url(), body).unwrap();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.messages, 1);
        assert_eq!(o.dropped, 1, "late redelivery is counted, not re-buffered");
        assert_eq!(o.committed, 0);
        assert_eq!(daemon.committed_transactions(), 1);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
    }

    #[test]
    fn crash_between_group_db_chunks_heals_on_recommit() {
        // Kill the daemon after the first cross-transaction DB chunk
        // landed but before the rest: some members' items are durable,
        // none are acknowledged. The recovery daemon's recommit must
        // converge — every transaction exactly once, index audit clean.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, ProtocolConfig::default(), "wal-grp-db");
        for i in 0..6u128 {
            let proc_id = PNodeId::initial(Uuid(200 + i));
            let proc = FlushObject::provenance_only(FlushNode {
                id: proc_id,
                kind: NodeKind::Process,
                name: Some(format!("gen{i}")),
                records: vec![
                    ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                    ProvenanceRecord::new(proc_id, Attr::Name, format!("gen{i}")),
                ],
                data_hash: None,
            });
            let mut file = file_obj(300 + i, 1, &format!("o{i}"), "x");
            file.node
                .records
                .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
            p3.flush(FlushBatch {
                objects: vec![proc, file],
            })
            .unwrap();
        }
        let dying_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:commit:group:db", 2)),
            ..ProtocolConfig::default()
        };
        let dying = CommitDaemon::new(&env, dying_cfg, "sqs://wal-grp-db");
        let err = dying.run_until_idle().unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));
        assert_eq!(dying.committed_transactions(), 0, "no member acked yet");
        // Unacknowledged WAL: a fresh daemon recommits everything.
        sim.sleep(cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
        let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-grp-db");
        recovery.run_until_idle().unwrap();
        assert_eq!(recovery.committed_transactions(), 6);
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0);
        for i in 0..6 {
            let r = p3.read(&format!("o{i}")).unwrap();
            assert_eq!(r.coupling, CouplingCheck::Coupled, "o{i}");
        }
        let audit = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
    }

    #[test]
    fn crash_between_gc_and_ack_heals_without_double_commit() {
        // Kill the daemon after the group's temps were deleted but
        // before any WAL receipt was acknowledged: everything is durable
        // yet the whole group redelivers. The recommit must verify the
        // copies via the final keys (the temps are gone), rewrite the
        // idempotent items, and leave no duplicate effects.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, ProtocolConfig::default(), "wal-grp-ack");
        for i in 0..4u128 {
            p3.flush(FlushBatch {
                objects: vec![file_obj(400 + i, 1, &format!("a{i}"), "payload")],
            })
            .unwrap();
        }
        let dying_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:commit:group:ack", 1)),
            ..ProtocolConfig::default()
        };
        let dying = CommitDaemon::new(&env, dying_cfg, "sqs://wal-grp-ack");
        let err = dying.run_until_idle().unwrap_err();
        assert!(matches!(err, ProtocolError::Crashed { .. }));
        assert!(
            env.sqs().peek_depth(p3.wal_url()) > 0,
            "nothing was acknowledged"
        );
        sim.sleep(cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));
        let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-grp-ack");
        let committed_ids = Arc::new(Mutex::new(Vec::<Uuid>::new()));
        recovery.set_commit_listener({
            let ids = committed_ids.clone();
            Arc::new(move |txn| ids.lock().push(txn))
        });
        recovery.run_until_idle().unwrap();
        let ids = committed_ids.lock().clone();
        let distinct: BTreeSet<Uuid> = ids.iter().copied().collect();
        assert_eq!(ids.len(), 4, "every member recommits exactly once");
        assert_eq!(distinct.len(), 4, "no double commit");
        assert_eq!(env.sqs().peek_depth(p3.wal_url()), 0);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0);
        for i in 0..4 {
            let r = p3.read(&format!("a{i}")).unwrap();
            assert_eq!(r.coupling, CouplingCheck::Coupled, "a{i}");
        }
        let audit = crate::index::audit_index(&env, &crate::Layout::default());
        assert!(audit.consistent(), "{audit:?}");
    }

    #[test]
    fn stalled_member_is_evicted_without_blocking_the_group() {
        // One client's temp PUT dies after its WAL was fully logged; its
        // group peers must still commit in the same poll, and the
        // stalled member is reported, not fatal.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let good = P3::new(&env, ProtocolConfig::default(), "wal-stall");
        let crasher_cfg = ProtocolConfig {
            step_hook: Some(Arc::new(|step: &str| !step.starts_with("p3:temp:"))),
            ..ProtocolConfig::default()
        };
        let crasher = P3::with_identity(&env, crasher_cfg, "wal-stall", "crasher");
        let _ = crasher.flush(FlushBatch {
            objects: vec![file_obj(500, 1, "lost", "never-arrives")],
        });
        for i in 0..3u128 {
            good.flush(FlushBatch {
                objects: vec![file_obj(510 + i, 1, &format!("ok{i}"), "d")],
            })
            .unwrap();
        }
        let daemon = good.commit_daemon();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.stalled, 1, "the temp-less member stalls");
        assert_eq!(o.committed, 3, "its peers commit in the same group");
        for i in 0..3 {
            assert!(env.s3().peek_committed("data", &format!("ok{i}")).is_some());
        }
        assert!(env.s3().peek_committed("data", "lost").is_none());
    }

    #[test]
    fn poisoned_member_is_evicted_without_blocking_the_group() {
        // A fully-assembled transaction whose record text does not
        // decode must not abort the group: its healthy peers commit in
        // the same poll, and the poison member is reported as stalled
        // (its messages redeliver and ultimately expire with
        // retention).
        let (_sim, env, p3) = setup();
        for i in 0..3u128 {
            p3.flush(FlushBatch {
                objects: vec![file_obj(700 + i, 1, &format!("h{i}"), "d")],
            })
            .unwrap();
        }
        // Valid TXN header, garbage record body (fails wire::decode).
        env.sqs()
            .send(
                p3.wal_url(),
                Bytes::from_static(
                    b"TXN\t00000000000000000000000000000063\t0\t1\nnot-a-wire-record",
                ),
            )
            .unwrap();
        let daemon = p3.commit_daemon();
        let o = daemon.poll_once().unwrap();
        assert_eq!(o.committed, 3, "healthy peers commit");
        assert_eq!(o.stalled, 1, "the poison member is evicted, not fatal");
        for i in 0..3 {
            assert!(env.s3().peek_committed("data", &format!("h{i}")).is_some());
        }
        assert_eq!(
            env.sqs().peek_depth(p3.wal_url()),
            1,
            "the poison message stays for redelivery/retention"
        );
    }

    #[test]
    fn newest_version_of_a_key_wins_within_one_transaction() {
        // A closure can carry a historic version of the closing file
        // alongside the version being closed (both under one key, both
        // paired with today's bytes). The serial commit path copied them
        // in closure order so the newest version defined the final
        // state; the parallel copy fan-out must preserve exactly that —
        // a read after commit sees the newest version's metadata, never
        // the historic version stamped over the newest bytes.
        let (_sim, env, p3) = setup();
        let blob = Blob::from("current-bytes");
        let old_id = PNodeId {
            uuid: Uuid(600),
            version: 1,
        };
        // Historic node: records describe OLD content, data is today's
        // bytes (what the fs cache still holds).
        let historic = FlushObject::file(
            FlushNode {
                id: old_id,
                kind: NodeKind::File,
                name: Some("/evolved".into()),
                records: vec![
                    ProvenanceRecord::new(old_id, Attr::Type, "file"),
                    ProvenanceRecord::new(old_id, Attr::DataHash, "00000000deadbeef"),
                ],
                data_hash: Some(0xdead_beef),
            },
            "evolved",
            blob.clone(),
        );
        let current = file_obj(600, 2, "evolved", "current-bytes");
        p3.flush(FlushBatch {
            objects: vec![historic, current],
        })
        .unwrap();
        assert_eq!(p3.commit_daemon().run_until_idle().unwrap(), 1);
        let r = p3.read("evolved").unwrap();
        assert_eq!(
            r.id,
            Some(PNodeId {
                uuid: Uuid(600),
                version: 2
            }),
            "the newest version's copy must define the final metadata"
        );
        assert_eq!(r.coupling, CouplingCheck::Coupled);
        assert_eq!(env.s3().peek_count("data", "tmp/"), 0, "both temps GCed");
    }

    #[test]
    fn group_packing_respects_limit_order_and_phases() {
        let item = |n: usize| PutItem {
            name: format!("i{n}"),
            attrs: vec![("a".into(), "v".into())],
            replace: false,
        };
        let base: Vec<PutItem> = (0..103).map(item).collect();
        let index: Vec<PutItem> = (1000..1007).map(item).collect();
        let plan = pack_group_writes(base.clone(), index.clone(), 25, 4);
        for chunk in plan.base_chunks.iter().chain(&plan.index_chunks) {
            assert!(chunk.len() <= 25 && !chunk.is_empty());
        }
        let flat_base: Vec<PutItem> = plan.base_chunks.concat();
        let flat_index: Vec<PutItem> = plan.index_chunks.concat();
        assert_eq!(flat_base, base, "base order preserved, nothing lost");
        assert_eq!(flat_index, index, "index order preserved");
        // 103 items over the 25 cap: minimum 5 chunks, i.e. full batches.
        assert_eq!(plan.base_chunks.len(), 5);
        assert_eq!(plan.items(), 110);
    }

    #[test]
    fn group_packing_splits_light_groups_for_parallelism() {
        let item = |n: usize| PutItem {
            name: format!("i{n}"),
            attrs: vec![("a".into(), "v".into())],
            replace: false,
        };
        // 8 items fit one batch, but 4 connections are available: split
        // evenly so the per-item database time shrinks by the fan-out.
        let plan = pack_group_writes((0..8).map(item).collect(), Vec::new(), 25, 4);
        assert_eq!(plan.base_chunks.len(), 4);
        assert!(plan.base_chunks.iter().all(|c| c.len() == 2));
        // Never more chunks than items.
        let tiny = pack_group_writes((0..2).map(item).collect(), Vec::new(), 25, 8);
        assert_eq!(tiny.base_chunks.len(), 2);
        assert!(pack_group_writes(Vec::new(), Vec::new(), 25, 4)
            .base_chunks
            .is_empty());
    }

    #[test]
    fn empty_flush_sends_header_only_transaction() {
        let (_sim, _env, p3) = setup();
        p3.flush(FlushBatch::default()).unwrap();
        let daemon = p3.commit_daemon();
        assert_eq!(daemon.run_until_idle().unwrap(), 1);
    }

    // ---- change feed -----------------------------------------------

    use crate::feed::CommitEvent;
    use cloudprov_cloud::{TenantId, DEFAULT_VISIBILITY_TIMEOUT};

    fn feed_cfg() -> ProtocolConfig {
        ProtocolConfig {
            feed: true,
            ..ProtocolConfig::default()
        }
    }

    fn collecting_sink() -> (crate::feed::CommitEventSink, Arc<Mutex<Vec<CommitEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let e2 = events.clone();
        (Arc::new(move |e: CommitEvent| e2.lock().push(e)), events)
    }

    #[test]
    fn feed_publishes_one_event_per_commit_strictly_after_ack() {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let tenant_env = env.for_tenant(TenantId(3));
        let p3 = P3::new(&tenant_env, feed_cfg(), "wal-feed");
        let proc_id = PNodeId::initial(Uuid(60));
        let proc = FlushObject::provenance_only(FlushNode {
            id: proc_id,
            kind: NodeKind::Process,
            name: Some("gen".into()),
            records: vec![
                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                ProvenanceRecord::new(proc_id, Attr::Name, "gen"),
            ],
            data_hash: None,
        });
        let mut file = file_obj(61, 1, "out", "x");
        file.node
            .records
            .push(ProvenanceRecord::new(file.node.id, Attr::Input, proc_id));
        p3.flush(FlushBatch {
            objects: vec![proc, file],
        })
        .unwrap();

        let daemon = p3.commit_daemon();
        let events = Arc::new(Mutex::new(Vec::new()));
        let e2 = events.clone();
        let wal = p3.wal_url().to_string();
        let env2 = env.clone();
        daemon.set_event_sink(Arc::new(move |e: CommitEvent| {
            // Publish runs strictly after the group ack: by the time the
            // sink sees the event its WAL messages are gone.
            assert_eq!(env2.sqs().peek_depth(&wal), 0, "event before ack");
            e2.lock().push(e);
        }));
        daemon.run_until_idle().unwrap();

        let evs = events.lock();
        assert_eq!(evs.len(), 1, "one event per committed transaction");
        assert_eq!(evs[0].seq, 1);
        assert_eq!(evs[0].stream, "wal-feed");
        assert_eq!(evs[0].tenant, Some(TenantId(3)));
        assert!(evs[0].uuids.contains(&Uuid(60)));
        assert!(evs[0].uuids.contains(&Uuid(61)));
        assert_eq!(evs[0].programs, vec!["gen".to_string()]);
    }

    #[test]
    fn feed_crash_at_stage_redelivers_without_gap() {
        // The p3:notify:stage crash point: the daemon dies before the
        // event stages, so its WAL stays unacknowledged. A takeover
        // daemon recommits and the event arrives exactly once here
        // (nothing was staged), with a contiguous sequence. The event
        // names 301 uuids, so it stages as two items in one call.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, feed_cfg(), "wal-cr");
        let mut file = file_obj(70, 1, "out", "x");
        for u in 1000..1300 {
            file.node.records.push(ProvenanceRecord::new(
                file.node.id,
                Attr::Input,
                PNodeId::initial(Uuid(u)),
            ));
        }
        p3.flush(FlushBatch {
            objects: vec![file],
        })
        .unwrap();

        let crash_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:notify:stage", 1)),
            ..feed_cfg()
        };
        let a = CommitDaemon::new(&env, crash_cfg, p3.wal_url());
        assert!(a.poll_once().is_err(), "daemon A dies at the stage point");
        drop(a);

        sim.sleep(DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(10));
        let b = CommitDaemon::new(&env, feed_cfg(), p3.wal_url());
        let (sink, events) = collecting_sink();
        b.set_event_sink(sink);
        b.run_until_idle().unwrap();
        assert_eq!(b.committed_transactions(), 1);
        let evs = events.lock();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].seq, 1, "sequence starts clean — no gap");
        assert_eq!(evs[0].uuids.len(), 301, "the wide event arrives whole");
        assert!(env.s3().peek_committed("data", "out").is_some());
        let audit = crate::feed::audit_feed(&env, &feed_cfg().layout.domain, "wal-cr");
        assert_eq!(audit.events, 1);
        assert_eq!(audit.seq_gaps, 0);
        assert_eq!(audit.duplicate_seqs, 0);
    }

    #[test]
    fn feed_crash_between_ack_and_publish_survives_failover() {
        // The p3:notify:publish crash point: the group is fully acked
        // and its events staged, but nothing was published. The staged
        // backlog must reach the takeover daemon's sink even though the
        // WAL is empty (at-least-once across failover).
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, feed_cfg(), "wal-fo");
        p3.flush(FlushBatch {
            objects: vec![file_obj(80, 1, "out", "x")],
        })
        .unwrap();

        let crash_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:notify:publish", 1)),
            ..feed_cfg()
        };
        let a = CommitDaemon::new(&env, crash_cfg, p3.wal_url());
        assert!(a.poll_once().is_err(), "daemon A dies before publishing");
        assert_eq!(
            env.sqs().peek_depth(p3.wal_url()),
            0,
            "the group was acked before the crash"
        );
        drop(a);

        let b = CommitDaemon::new(&env, feed_cfg(), p3.wal_url());
        let (sink, events) = collecting_sink();
        b.set_event_sink(sink);
        // B commits nothing — the WAL is empty — yet its idle poll
        // drains the predecessor's staged backlog.
        let o = b.poll_once().unwrap();
        assert_eq!(o.committed, 0);
        let evs = events.lock();
        assert_eq!(evs.len(), 1, "staged event survives the failover");
        assert_eq!(evs[0].seq, 1);
        assert!(evs[0].uuids.contains(&Uuid(80)));
    }

    #[test]
    fn feed_crash_before_watermark_duplicates_but_never_gaps() {
        // The p3:notify:wm crash point: the event published but the
        // watermark never advanced. The takeover daemon republishes —
        // consumers see the same sequence twice (allowed), never a hole.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        let p3 = P3::new(&env, feed_cfg(), "wal-wm");
        p3.flush(FlushBatch {
            objects: vec![file_obj(90, 1, "out", "x")],
        })
        .unwrap();

        let (sink, events) = collecting_sink();
        let crash_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:notify:wm", 1)),
            ..feed_cfg()
        };
        let a = CommitDaemon::new(&env, crash_cfg, p3.wal_url());
        a.set_event_sink(sink.clone());
        assert!(a.poll_once().is_err(), "daemon A dies before the watermark");
        drop(a);

        let b = CommitDaemon::new(&env, feed_cfg(), p3.wal_url());
        b.set_event_sink(sink);
        b.poll_once().unwrap();
        let evs = events.lock();
        assert_eq!(evs.len(), 2, "republished after the lost watermark");
        assert_eq!(evs[0].seq, evs[1].seq, "a duplicate, not a gap");
        assert_eq!(evs[0].txn, evs[1].txn);
    }

    #[test]
    fn wal_headers_parse_with_and_without_trailing_fields() {
        // The tenant field is optional, so pre-tenant WAL messages still
        // parse.
        let uuid = format!("{}", Uuid(0xabc));
        let bare = format!("TXN\t{uuid}\t0\t2\nbody");
        let (txn, seq, total, tenant, rest) = parse_header(&bare).unwrap();
        assert_eq!((txn, seq, total), (Uuid(0xabc), 0, 2));
        assert_eq!(tenant, None);
        assert_eq!(rest, "body");

        let tenant_only = format!("TXN\t{uuid}\t1\t2\t7\nbody");
        let (_, _, _, tenant, _) = parse_header(&tenant_only).unwrap();
        assert_eq!(tenant, Some(TenantId(7)));

        // And the writer round-trips through the parser.
        let records = vec![ProvenanceRecord::new(
            PNodeId::initial(Uuid(0xabc)),
            Attr::Type,
            "file",
        )];
        let msgs = P3::build_messages(Uuid(0xabc), Some(TenantId(3)), &[], &records, 8192);
        let (txn, _, _, tenant, _) = parse_header(&msgs[0]).unwrap();
        assert_eq!(txn, Uuid(0xabc));
        assert_eq!(tenant, Some(TenantId(3)));
    }

    #[test]
    fn trace_survives_a_mid_commit_steal() {
        // Daemon A picks the traced txn up and dies mid-commit (db
        // phase); after the visibility timeout a second daemon receives
        // the same WAL messages and recommits. It finds the root by txn
        // id in the shared tracer, so the takeover still lands under
        // the original root: one connected tree, zero orphans, and the
        // root span's duration is the txn's true (steal-inflated)
        // commit latency.
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        env.tracer().enable(7);
        let p3 = P3::new(&env, ProtocolConfig::default(), "wal-steal-trace");
        p3.flush(FlushBatch {
            objects: vec![file_obj(600, 1, "stolen", "payload")],
        })
        .unwrap();

        let dying_cfg = ProtocolConfig {
            step_hook: Some(kill_at_occurrence("p3:commit:group:db", 1)),
            ..ProtocolConfig::default()
        };
        let dying = CommitDaemon::new(&env, dying_cfg, "sqs://wal-steal-trace");
        assert!(dying.run_until_idle().is_err(), "daemon A dies mid-commit");
        sim.sleep(cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT + Duration::from_secs(1));

        let recovery = CommitDaemon::new(&env, ProtocolConfig::default(), "sqs://wal-steal-trace");
        let committed_ids = Arc::new(Mutex::new(Vec::<Uuid>::new()));
        recovery.set_commit_listener({
            let ids = committed_ids.clone();
            Arc::new(move |txn| ids.lock().push(txn))
        });
        recovery.run_until_idle().unwrap();
        let ids = committed_ids.lock().clone();
        assert_eq!(ids.len(), 1, "the stolen txn commits exactly once");
        let txn = ids[0];

        let tracer = env.tracer();
        let st = tracer.stats();
        assert_eq!(st.orphans, 0, "the steal must not sever the tree: {st:?}");
        assert_eq!(st.open_roots, 0, "the stolen txn's root closed");
        let (logged, committed) = tracer.root_interval(txn.0).expect("root recorded");
        assert!(committed > logged);
        // Both attempts left phase spans on the SAME trace: daemon A's
        // aborted db phase plus daemon B's completed one.
        let db_spans = tracer
            .spans()
            .iter()
            .filter(|s| s.trace == txn.0 && s.kind == "db")
            .count();
        assert!(
            db_spans >= 2,
            "both daemons' db phases on one trace, got {db_spans}"
        );
        // The critical path still telescopes to the root window, with
        // the visibility-timeout wait showing up inside the breakdown
        // rather than leaking out of it.
        let b = tracer.critical_path(txn.0).expect("committed txn");
        assert_eq!(
            b.commit_sum(),
            committed.saturating_duration_since(logged),
            "breakdown must reconcile with the root window: {b:?}"
        );
        assert!(
            b.commit_sum() >= cloudprov_cloud::DEFAULT_VISIBILITY_TIMEOUT,
            "the steal's redelivery wait is part of the txn's latency"
        );
    }

    /// Two daemons, each on its own WAL queue, commit 8 transactions
    /// apiece concurrently under the calibrated profile. Returns the
    /// commit instants, the environment and the index calls made.
    fn two_daemon_run(traced: bool) -> (Vec<SimTime>, CloudEnv, u64) {
        use cloudprov_cloud::{Era, RunContext};
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::calibrated(RunContext::ec2(Era::Sept2009)));
        if traced {
            env.tracer().enable(11);
        }
        let index_calls = Arc::new(AtomicU64::new(0));
        let commits = Arc::new(Mutex::new(Vec::new()));
        let mut daemons = Vec::new();
        let mut clients = Vec::new();
        for d in 0..2u128 {
            let calls = index_calls.clone();
            let cfg = ProtocolConfig {
                feed: true,
                step_hook: Some(Arc::new(move |step: &str| {
                    if step == "p3:commit:group:index" {
                        calls.fetch_add(1, Ordering::Relaxed);
                    }
                    true
                })),
                ..ProtocolConfig::default()
            };
            let p3 = P3::new(&env, cfg.clone(), &format!("wal-lanes-{d}"));
            let daemon = Arc::new(CommitDaemon::new(&env, cfg, p3.wal_url()));
            daemon.set_commit_listener({
                let (commits, sim) = (commits.clone(), sim.clone());
                Arc::new(move |_| commits.lock().push(sim.now()))
            });
            daemons.push(daemon.spawn(Duration::from_secs(1)));
            clients.push(p3);
        }
        let tasks: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(d, p3)| {
                move || {
                    for i in 0..8u128 {
                        let n = 10_000 * (d as u128 + 1) + 10 * i;
                        let proc_id = PNodeId::initial(Uuid(n));
                        let proc = FlushObject::provenance_only(FlushNode {
                            id: proc_id,
                            kind: NodeKind::Process,
                            name: Some(format!("gen{d}")),
                            records: vec![
                                ProvenanceRecord::new(proc_id, Attr::Type, "process"),
                                ProvenanceRecord::new(proc_id, Attr::Name, format!("gen{d}")),
                            ],
                            data_hash: None,
                        });
                        let mut file = file_obj(n + 1, 1, &format!("lane{d}/{i}"), "x");
                        file.node.records.push(ProvenanceRecord::new(
                            file.node.id,
                            Attr::Input,
                            proc_id,
                        ));
                        p3.flush(FlushBatch {
                            objects: vec![proc, file],
                        })
                        .unwrap();
                    }
                }
            })
            .collect();
        sim.run_parallel(2, tasks);
        while commits.lock().len() < 16 {
            sim.sleep(Duration::from_secs(1));
        }
        for d in daemons {
            d.stop();
        }
        let mut at = commits.lock().clone();
        at.sort();
        (at, env, index_calls.load(Ordering::Relaxed))
    }

    #[test]
    fn concurrent_daemons_attribute_each_op_to_their_own_phase() {
        // Every daemon's phases install their scope under the same
        // (actor, tenant) key; the group's lane keeps one daemon's ops
        // from landing under another daemon's phase. Under `index`
        // only index writes may appear — one per index call — under
        // `gc` only temp deletes, under `stage` only feed puts.
        let (untraced, _, _) = two_daemon_run(false);
        let (traced, env, index_calls) = two_daemon_run(true);
        assert_eq!(traced, untraced, "tracing must not move any commit");
        let spans = env.tracer().spans();
        let kind_of: BTreeMap<u64, &str> = spans.iter().map(|s| (s.id, s.kind)).collect();
        let ops_under = |kind: &str| -> Vec<&str> {
            spans
                .iter()
                .filter(|s| s.kind == "op" && s.parent.and_then(|p| kind_of.get(&p)) == Some(&kind))
                .map(|s| s.name.as_str())
                .collect()
        };
        let index_ops = ops_under("index");
        assert!(index_calls > 0);
        assert_eq!(index_ops.len() as u64, index_calls, "{index_ops:?}");
        assert!(
            index_ops.iter().all(|n| *n == "SimpleDB.DbPut"),
            "{index_ops:?}"
        );
        let gc_ops = ops_under("gc");
        assert!(
            !gc_ops.is_empty() && gc_ops.iter().all(|n| *n == "S3.Delete"),
            "{gc_ops:?}"
        );
        let stage_ops = ops_under("stage");
        assert!(
            !stage_ops.is_empty() && stage_ops.iter().all(|n| *n == "SimpleDB.DbPut"),
            "{stage_ops:?}"
        );
        // `gc` and `stage` sit under `ack`, never under the root, so
        // the breakdown's phases are unchanged.
        for s in spans.iter().filter(|s| s.kind == "gc" || s.kind == "stage") {
            assert_eq!(s.parent.and_then(|p| kind_of.get(&p)), Some(&"ack"));
        }
        assert_eq!(env.tracer().stats().orphans, 0);
    }

    #[test]
    fn feed_disabled_stages_nothing() {
        let (_sim, env, p3) = setup();
        p3.flush(FlushBatch {
            objects: vec![file_obj(95, 1, "out", "x")],
        })
        .unwrap();
        let daemon = p3.commit_daemon();
        let (sink, events) = collecting_sink();
        daemon.set_event_sink(sink);
        daemon.run_until_idle().unwrap();
        assert!(events.lock().is_empty(), "no feed traffic unless enabled");
        assert_eq!(
            env.sdb()
                .peek_item_count(&crate::feed::feed_domain("provenance")),
            0
        );
    }
}
