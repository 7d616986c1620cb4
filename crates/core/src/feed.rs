//! The commit-side half of the **live provenance change feed**: compact
//! commit events, durably staged next to the provenance they describe and
//! published strictly after the WAL acknowledgement.
//!
//! The paper's P3 commits asynchronously — a client learns its data is
//! provenance-coupled only by polling a read. The feed closes that gap:
//! every committed transaction produces one [`CommitEvent`] naming the
//! uuids and program names it touched, and downstream consumers (the
//! subscription registry in `cloudprov-feed`, the query engine's
//! invalidation hook) receive the events **at least once**, in
//! per-stream sequence order, with duplicates allowed and gaps forbidden
//! — across daemon crashes and lease failover.
//!
//! The delivery guarantee rests on SimpleDB staging ordered against the
//! WAL ack:
//!
//! 1. **Stage** (`p3:notify:stage`) — before any WAL receipt of the group
//!    is acknowledged, the group's events are written to the feed domain
//!    under monotonically increasing per-stream sequence numbers, packed
//!    into as few items as the 256-pair limit allows and sent in one
//!    all-or-nothing `BatchPutAttributes` call. A crash here leaves the
//!    WAL unacknowledged: the transactions redeliver and restage under
//!    fresh sequence numbers (a duplicate event per transaction, never a
//!    gap).
//! 2. **Ack** — the group's WAL receipts acknowledge (existing phase 5).
//! 3. **Publish** (`p3:notify:publish`) — every staged-but-unpublished
//!    event (anything above the stream's watermark, including events a
//!    crashed predecessor staged) flows to the installed sink in sequence
//!    order.
//! 4. **Watermark** (`p3:notify:wm`) — the stream's watermark item
//!    advances. A crash between publish and watermark republishes on the
//!    next flush: duplicates, not losses.
//!
//! A daemon taking over a stream (fleet lease steal, chaos kill) recovers
//! the next sequence number and the pending backlog from the feed domain
//! on first use, so at-least-once delivery survives failover.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_cloud::{
    quote_like_prefix, Actor, CloudEnv, Database, PutItem, TenantId, BATCH_LIMIT, ITEM_ATTR_LIMIT,
};
use cloudprov_pass::{Attr, NodeKind, ProvenanceRecord, Uuid};

use crate::error::Result;
use crate::protocol::{retry, ProtocolConfig};

/// One committed transaction, as seen by feed consumers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitEvent {
    /// The WAL stream (shard queue name) the transaction committed from.
    pub stream: String,
    /// Per-stream sequence number. Consumers may see the same sequence
    /// twice (crash-replay duplicates) but never a hole.
    pub seq: u64,
    /// The committed transaction.
    pub txn: Uuid,
    /// Tenant that logged the transaction, when the client ran under a
    /// tenant-attributed environment.
    pub tenant: Option<TenantId>,
    /// Distinct object uuids whose provenance the transaction touched.
    pub uuids: Vec<Uuid>,
    /// Program names of process nodes the transaction recorded.
    pub programs: Vec<String>,
}

/// Callback receiving every published [`CommitEvent`]. Installed on a
/// commit daemon via `CommitDaemon::set_event_sink`; the subscription
/// registry and the fleet pool provide implementations.
pub type CommitEventSink = Arc<dyn Fn(CommitEvent) + Send + Sync>;

/// Name of the feed-staging domain for a provenance domain.
pub fn feed_domain(domain: &str) -> String {
    format!("feed_{domain}")
}

/// Item-name prefix of staged events.
const EVT_PREFIX: &str = "evt_";
/// Item-name prefix of per-stream watermark items.
const WM_PREFIX: &str = "wm_";
/// Attribute pairs one staging call can carry: 25 full items.
const CALL_PAIRS: usize = BATCH_LIMIT * ITEM_ATTR_LIMIT;

/// Item name of part `part` of the group staged from `first_seq` on,
/// whose first event is transaction `first_txn`. The zero-padded numbers
/// keep lexicographic item order equal to staging order. The transaction
/// makes the name unique per staging attempt: a sequence staged twice
/// (by two daemons serving one shard) lands in two items, never merged
/// into one, so [`audit_feed`] still counts the duplicate.
fn event_item_name(stream: &str, first_seq: u64, first_txn: Uuid, part: usize) -> String {
    format!("{EVT_PREFIX}{stream}~{first_seq:012}~{first_txn}~{part:03}")
}

/// The attribute pairs of one staged event, each named
/// `{seq:012}:{field}` so events can share items: `txn` first, then
/// `tenant`, one `uuid` per touched uuid and one `prog` per program.
fn event_pairs(ev: &CommitEvent) -> Vec<(String, String)> {
    let name = |field: &str| format!("{:012}:{field}", ev.seq);
    let mut pairs = vec![(name("txn"), ev.txn.to_string())];
    if let Some(tenant) = ev.tenant {
        pairs.push((name("tenant"), tenant.0.to_string()));
    }
    pairs.extend(ev.uuids.iter().map(|u| (name("uuid"), u.to_string())));
    pairs.extend(ev.programs.iter().map(|p| (name("prog"), p.clone())));
    pairs
}

/// Parses one stream's staged items back into events, keyed by sequence,
/// each with every transaction staged under that sequence (more than one
/// means the sequence was staged twice). Items are read in name
/// order so an event spanning items keeps its uuid order; a sequence
/// without a `txn` attribute is not an event.
fn parse_events<'a>(
    stream: &str,
    items: impl IntoIterator<Item = (&'a str, &'a [(String, String)])>,
) -> BTreeMap<u64, (CommitEvent, Vec<Uuid>)> {
    let prefix = format!("{EVT_PREFIX}{stream}~");
    let mut items: Vec<_> = items
        .into_iter()
        .filter(|(name, _)| name.starts_with(&prefix))
        .collect();
    items.sort_by_key(|(name, _)| *name);
    let mut events: BTreeMap<u64, (CommitEvent, Vec<Uuid>)> = BTreeMap::new();
    for (k, v) in items.into_iter().flat_map(|(_, attrs)| attrs) {
        let Some((seq, field)) = k.split_once(':') else {
            continue;
        };
        let Ok(seq) = seq.parse::<u64>() else {
            continue;
        };
        let (ev, txns) = events.entry(seq).or_insert_with(|| {
            let ev = CommitEvent {
                stream: stream.to_string(),
                seq,
                txn: Uuid(0),
                tenant: None,
                uuids: Vec::new(),
                programs: Vec::new(),
            };
            (ev, Vec::new())
        });
        match field {
            "txn" => {
                if let Ok(txn) = v.parse() {
                    ev.txn = txn;
                    txns.push(txn);
                }
            }
            "tenant" => ev.tenant = v.parse().ok().map(TenantId),
            "uuid" => ev.uuids.extend(v.parse::<Uuid>().ok()),
            "prog" => ev.programs.push(v.clone()),
            _ => {}
        }
    }
    events.retain(|_, (_, txns)| !txns.is_empty());
    events
}

/// Extracts the uuids and program names a record set touches — the same
/// name rules as the ancestry index's program seeds (plain text, within
/// the attribute limit, not a spill pointer).
///
/// Touched uuids cover both record subjects and `Input` cross-reference
/// targets: the ancestry index keys its reverse-edge items by the
/// *ancestor* (the xref target), so a commit changes `rev_` pages for
/// nodes that never appear as a subject in the transaction. Consumers
/// that invalidate by uuid (the read-tier ancestry cache) rely on the
/// event naming every node whose index pages the commit may have grown.
pub fn extract_touches(records: &[ProvenanceRecord]) -> (Vec<Uuid>, Vec<String>) {
    let mut uuids: Vec<Uuid> = Vec::new();
    let mut programs: Vec<String> = Vec::new();
    let mut kinds: std::collections::BTreeMap<Uuid, NodeKind> = std::collections::BTreeMap::new();
    for r in records {
        if !uuids.contains(&r.subject.uuid) {
            uuids.push(r.subject.uuid);
        }
        if r.attr == Attr::Input {
            if let Some(target) = r.value.as_xref() {
                if !uuids.contains(&target.uuid) {
                    uuids.push(target.uuid);
                }
            }
        }
        if r.attr == Attr::Type {
            let k = match r.value.to_text().as_str() {
                "process" => NodeKind::Process,
                "pipe" => NodeKind::Pipe,
                _ => NodeKind::File,
            };
            kinds.insert(r.subject.uuid, k);
        }
    }
    for r in records {
        if r.attr != Attr::Name || kinds.get(&r.subject.uuid) != Some(&NodeKind::Process) {
            continue;
        }
        let n = r.value.to_text();
        if n.len() <= cloudprov_cloud::ATTRIBUTE_LIMIT
            && !n.starts_with("@s3:")
            && !programs.contains(&n)
        {
            programs.push(n);
        }
    }
    (uuids, programs)
}

/// What the daemon stages for one committed group member.
#[derive(Clone, Debug)]
pub struct StagedTouches {
    /// The committed transaction.
    pub txn: Uuid,
    /// Tenant from the WAL header, if any.
    pub tenant: Option<TenantId>,
    /// Touched object uuids.
    pub uuids: Vec<Uuid>,
    /// Touched program names.
    pub programs: Vec<String>,
}

struct WriterState {
    /// Next sequence number to allocate.
    next_seq: u64,
    /// Highest published sequence (the durable watermark at recovery,
    /// advanced in memory as this daemon publishes).
    watermark: u64,
    /// Events a crashed predecessor staged but never published, in
    /// sequence order. Drained into the sink on the next flush.
    pending: Vec<CommitEvent>,
}

/// Stages and publishes [`CommitEvent`]s for one WAL stream.
///
/// Owned by a `CommitDaemon`; every SimpleDB call runs as the
/// [`Actor::CommitDaemon`] so feed upkeep is priced as daemon traffic.
pub struct FeedWriter {
    env: CloudEnv,
    config: ProtocolConfig,
    stream: String,
    state: Mutex<Option<WriterState>>,
}

impl std::fmt::Debug for FeedWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedWriter")
            .field("stream", &self.stream)
            .finish()
    }
}

impl FeedWriter {
    /// Creates the writer for `stream` (the shard queue name) and
    /// provisions the feed domain (idempotent, unmetered).
    pub fn new(env: &CloudEnv, config: ProtocolConfig, stream: &str) -> FeedWriter {
        env.sdb().create_domain(&feed_domain(&config.layout.domain));
        FeedWriter {
            env: env.clone(),
            config,
            stream: stream.to_string(),
            state: Mutex::new(None),
        }
    }

    /// The stream this writer stages for.
    pub fn stream(&self) -> &str {
        &self.stream
    }

    fn sdb(&self) -> Database {
        self.env.sdb().with_actor(Actor::CommitDaemon)
    }

    /// Recovers `(next_seq, watermark, pending)` from the feed domain:
    /// one scan of the stream's staged events plus the watermark item.
    /// Runs once per writer; a takeover daemon pays this on its first
    /// group (or idle flush) and inherits the predecessor's backlog.
    fn recover(&self) -> Result<WriterState> {
        let sdb = self.sdb();
        let domain = feed_domain(&self.config.layout.domain);
        let wm_item = format!("{WM_PREFIX}{}", self.stream);
        let wm_attrs = retry(self.env.sim(), self.config.retries, || {
            sdb.get_attributes(&domain, &wm_item)
        })?;
        let watermark: u64 = wm_attrs
            .iter()
            .find(|(k, _)| k == "seq")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let prefix = format!("{EVT_PREFIX}{}~", self.stream);
        let expr = format!(
            "select * from {domain} where itemName() like {}",
            quote_like_prefix(&prefix, "%")
        );
        let staged = retry(self.env.sim(), self.config.retries, || {
            sdb.select_all(&expr)
        })?;
        let events = parse_events(
            &self.stream,
            staged.iter().map(|i| (i.name.as_str(), i.attrs.as_slice())),
        );
        let max_seq = events
            .last_key_value()
            .map_or(0, |(&s, _)| s)
            .max(watermark);
        let pending = events
            .into_values()
            .map(|(ev, _)| ev)
            .filter(|ev| ev.seq > watermark)
            .collect();
        Ok(WriterState {
            next_seq: max_seq + 1,
            watermark,
            pending,
        })
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut WriterState) -> Result<R>) -> Result<R> {
        let mut guard = self.state.lock();
        if guard.is_none() {
            *guard = Some(self.recover()?);
        }
        f(guard.as_mut().expect("state recovered above"))
    }

    /// Durably stages one group's events under fresh sequence numbers.
    /// Must run **before** the group's WAL acknowledgement (crash point
    /// `p3:notify:stage`): a crash after staging redelivers and restages
    /// the transactions as duplicates, never losing them.
    ///
    /// The events pack into as few items as the 256-pair limit allows
    /// (`event_pairs`) and go out in one `BatchPutAttributes` call,
    /// which applies all-or-nothing: the group's sequence range is staged
    /// whole or not at all, so no failure can leave a hole below a later
    /// staged sequence. A group beyond one call's 6 400 pairs stages in
    /// several calls, in sequence order and split between events where
    /// an event fits a call, so a failure leaves a staged prefix.
    ///
    /// `next_seq` and the pending backlog advance over an event only once
    /// the call carrying its `txn` attribute has landed, so a failed
    /// stage burns no sequence numbers and the writer never hands out a
    /// sequence it already staged.
    pub fn stage(&self, touches: &[StagedTouches]) -> Result<Vec<CommitEvent>> {
        if touches.is_empty() {
            return Ok(Vec::new());
        }
        self.with_state(|st| {
            let events: Vec<CommitEvent> = touches
                .iter()
                .zip(st.next_seq..)
                .map(|(t, seq)| CommitEvent {
                    stream: self.stream.clone(),
                    seq,
                    txn: t.txn,
                    tenant: t.tenant,
                    uuids: t.uuids.clone(),
                    programs: t.programs.clone(),
                })
                .collect();
            let domain = feed_domain(&self.config.layout.domain);
            let sdb = self.sdb();
            let mut landed = 0;
            for (items, starts) in self.stage_calls(&events) {
                self.config.step("p3:notify:stage")?;
                retry(self.env.sim(), self.config.retries, || {
                    sdb.batch_put_attributes(&domain, items.clone())
                })?;
                let staged = &events[landed..landed + starts];
                st.next_seq += starts as u64;
                st.pending.extend(staged.iter().cloned());
                landed += starts;
            }
            Ok(events)
        })
    }

    /// Splits a group's events into staging calls, each with the number
    /// of events whose `txn` attribute it carries. Whole events fill
    /// calls of up to [`CALL_PAIRS`] pairs and each call's pairs fill
    /// items of up to 256. Item names share the group's first sequence
    /// and transaction, with part numbers that continue across calls.
    /// Only an event too wide for one call spans calls (of 25 items).
    fn stage_calls(&self, events: &[CommitEvent]) -> Vec<(Vec<PutItem>, usize)> {
        let mut groups: Vec<(Vec<(String, String)>, usize)> = Vec::new();
        for ev in events {
            let pairs = event_pairs(ev);
            match groups.last_mut() {
                Some((call, n)) if call.len() + pairs.len() <= CALL_PAIRS => {
                    call.extend(pairs);
                    *n += 1;
                }
                _ => groups.push((pairs, 1)),
            }
        }
        let (first_seq, first_txn) = (events[0].seq, events[0].txn);
        let mut part = 0;
        let mut calls = Vec::new();
        for (pairs, n) in groups {
            let items: Vec<PutItem> = pairs
                .chunks(ITEM_ATTR_LIMIT)
                .map(|attrs| {
                    let name = event_item_name(&self.stream, first_seq, first_txn, part);
                    part += 1;
                    PutItem {
                        name,
                        attrs: attrs.to_vec(),
                        replace: false,
                    }
                })
                .collect();
            for (i, batch) in items.chunks(BATCH_LIMIT).enumerate() {
                calls.push((batch.to_vec(), if i == 0 { n } else { 0 }));
            }
        }
        calls
    }

    /// Publishes every staged-but-unpublished event to `sink` in
    /// sequence order, then advances the durable watermark. Must run
    /// **after** the group's WAL acknowledgement. Crash points:
    /// `p3:notify:publish` before the sink sees anything,
    /// `p3:notify:wm` between publish and the watermark write (a crash
    /// there republishes — duplicates, never gaps).
    pub fn flush(&self, sink: Option<&CommitEventSink>) -> Result<usize> {
        self.with_state(|st| {
            if st.pending.is_empty() {
                return Ok(0);
            }
            // Trace: the publish pass becomes one `feed` span per
            // published transaction (outside its root's commit window —
            // the feed is post-commit by construction).
            let tracer = self.env.tracer();
            let t_publish = self.env.sim().now();
            let publish_txns: Vec<Uuid> = if tracer.enabled() {
                let mut seen = std::collections::BTreeSet::new();
                st.pending
                    .iter()
                    .map(|e| e.txn)
                    .filter(|t| seen.insert(*t))
                    .collect()
            } else {
                Vec::new()
            };
            self.config.step("p3:notify:publish")?;
            let high = st.pending.last().map(|e| e.seq).unwrap_or(st.watermark);
            if let Some(sink) = sink {
                for ev in st.pending.drain(..) {
                    sink(ev);
                }
            } else {
                st.pending.clear();
            }
            self.config.step("p3:notify:wm")?;
            let sdb = self.sdb();
            let domain = feed_domain(&self.config.layout.domain);
            let published = (high - st.watermark) as usize;
            retry(self.env.sim(), self.config.retries, || {
                sdb.put_attributes(
                    &domain,
                    PutItem {
                        name: format!("{WM_PREFIX}{}", self.stream),
                        attrs: vec![("seq".into(), high.to_string())],
                        replace: true,
                    },
                )
            })?;
            st.watermark = high;
            let t_done = self.env.sim().now();
            for txn in publish_txns {
                if let Some(root) = tracer.root_ctx(txn.0) {
                    tracer.span(
                        txn.0,
                        Some(root.span),
                        "feed",
                        "feed",
                        None,
                        t_publish,
                        t_done,
                        0.0,
                    );
                }
            }
            Ok(published)
        })
    }
}

/// What [`audit_feed`] found in one stream's durable staging state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FeedAudit {
    /// Staged events for the stream (one per `txn` attribute).
    pub events: usize,
    /// Distinct transactions among them (crash restaging duplicates a
    /// transaction under a fresh sequence — allowed).
    pub distinct_txns: usize,
    /// Highest staged sequence number.
    pub max_seq: u64,
    /// The stream's durable watermark (0 when never flushed).
    pub watermark: u64,
    /// Sequence numbers in `1..=max_seq` with no staged event — must be
    /// 0: staging allocates contiguously, stages each group in one
    /// all-or-nothing call, and never deletes.
    pub seq_gaps: u64,
    /// Sequence numbers staged more than once — must be 0: a sequence
    /// is allocated to exactly one event.
    pub duplicate_seqs: u64,
    /// Distinct transactions among the staged events.
    pub txns: std::collections::BTreeSet<Uuid>,
}

impl FeedAudit {
    /// Staged-but-unpublished events (above the watermark). Non-zero
    /// after a crash between stage and watermark; must drain to 0 once
    /// a recovery daemon flushes.
    pub fn unpublished(&self) -> u64 {
        self.max_seq.saturating_sub(self.watermark)
    }
}

/// Audits one stream's slice of the feed domain against the storage-
/// level invariants (contiguous sequences, watermark ≤ max). Peeks
/// bypass metering and consistency: this is the invariant checker the
/// chaos explorer and the fleet harness call, not a consumer path.
pub fn audit_feed(env: &CloudEnv, domain: &str, stream: &str) -> FeedAudit {
    let wm_item = format!("{WM_PREFIX}{stream}");
    let items = env.sdb().peek_items(&feed_domain(domain));
    let mut audit = FeedAudit::default();
    if let Some((_, attrs)) = items.iter().find(|(name, _)| *name == wm_item) {
        audit.watermark = attrs
            .iter()
            .find(|(k, _)| k == "seq")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
    }
    let events = parse_events(
        stream,
        items
            .iter()
            .map(|(name, attrs)| (name.as_str(), attrs.as_slice())),
    );
    for (&seq, (_, txns)) in &events {
        audit.events += txns.len();
        audit.duplicate_seqs += txns.len() as u64 - 1;
        audit.max_seq = audit.max_seq.max(seq);
        audit.txns.extend(txns);
    }
    audit.distinct_txns = audit.txns.len();
    audit.seq_gaps = audit.max_seq - events.len() as u64;
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StepHook;
    use cloudprov_cloud::{AwsProfile, ConsistencyParams, FaultPlan, Op, Service};
    use cloudprov_pass::PNodeId;
    use cloudprov_sim::Sim;

    fn setup() -> (Sim, CloudEnv) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        (sim, env)
    }

    fn touches(txn: u128, uuid: u128) -> StagedTouches {
        StagedTouches {
            txn: Uuid(txn),
            tenant: Some(TenantId(7)),
            uuids: vec![Uuid(uuid)],
            programs: vec!["prog".into()],
        }
    }

    #[test]
    fn stage_then_flush_publishes_in_order() {
        let (_sim, env) = setup();
        let w = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
        w.stage(&[touches(1, 10), touches(2, 20)]).unwrap();
        assert_eq!(w.flush(Some(&sink)).unwrap(), 2);
        let got = seen.lock().clone();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[1].seq, 2);
        assert_eq!(got[0].txn, Uuid(1));
        assert_eq!(got[0].tenant, Some(TenantId(7)));
        assert_eq!(got[0].uuids, vec![Uuid(10)]);
        assert_eq!(got[0].programs, vec!["prog".to_string()]);
        // Nothing pending after a flush.
        assert_eq!(w.flush(Some(&sink)).unwrap(), 0);
    }

    #[test]
    fn takeover_writer_republishes_unwatermarked_events() {
        // Writer A stages two events, publishes neither (crash before
        // publish). Writer B on the same stream recovers the backlog,
        // republishes it and continues the sequence without a gap.
        let (_sim, env) = setup();
        let a = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        a.stage(&[touches(1, 10), touches(2, 20)]).unwrap();
        drop(a);

        let b = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
        let staged = b.stage(&[touches(3, 30)]).unwrap();
        assert_eq!(staged[0].seq, 3, "sequence continues past the backlog");
        assert_eq!(b.flush(Some(&sink)).unwrap(), 3);
        let seqs: Vec<u64> = seen.lock().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "backlog first, in order, no gap");
    }

    #[test]
    fn watermark_survives_takeover_and_suppresses_republish() {
        let (_sim, env) = setup();
        let a = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let sink: CommitEventSink = Arc::new(|_| {});
        a.stage(&[touches(1, 10)]).unwrap();
        a.flush(Some(&sink)).unwrap();
        drop(a);

        let b = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
        b.stage(&[touches(2, 20)]).unwrap();
        b.flush(Some(&sink)).unwrap();
        let seqs: Vec<u64> = seen.lock().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2], "published event is not replayed");
    }

    #[test]
    fn failed_stage_does_not_burn_sequences() {
        // Retries run out while staging, but the daemon survives: the
        // restage must reuse the sequences the failed call never wrote.
        let (_sim, env) = setup();
        let config = ProtocolConfig::default();
        let w = FeedWriter::new(&env, config.clone(), "wal-a");
        assert_eq!(w.flush(None).unwrap(), 0, "recovers an empty stream");
        env.faults().set(FaultPlan {
            fail_probability: 1.0,
            ..FaultPlan::none()
        });
        assert!(w.stage(&[touches(1, 10), touches(2, 20)]).is_err());
        env.faults().clear();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
        w.stage(&[touches(1, 10), touches(2, 20)]).unwrap();
        w.flush(Some(&sink)).unwrap();
        let seqs: Vec<u64> = seen.lock().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        let audit = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!(audit.seq_gaps, 0);
        assert_eq!(audit.duplicate_seqs, 0);
    }

    #[test]
    fn wide_event_survives_takeover() {
        // 300 uuids and a program exceed one item's 256 pairs; the
        // takeover writer must still recover every one of them, or a
        // cache that invalidates by uuid misses keys.
        let (_sim, env) = setup();
        let wide = StagedTouches {
            uuids: (100..400).map(Uuid).collect(),
            ..touches(1, 0)
        };
        let a = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        a.stage(&[wide.clone(), touches(2, 20)]).unwrap();
        drop(a);

        let b = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
        assert_eq!(b.flush(Some(&sink)).unwrap(), 2);
        let got = seen.lock().clone();
        assert_eq!(got[0].txn, Uuid(1));
        assert_eq!(got[0].tenant, Some(TenantId(7)));
        assert_eq!(got[0].uuids.len(), 300, "no uuid lost to the item limit");
        assert!(got[0].uuids == wide.uuids, "uuids keep their order");
        assert_eq!(got[0].programs, vec!["prog".to_string()]);
        assert_eq!(got[1].seq, 2);
        assert_eq!(got[1].uuids, vec![Uuid(20)]);
    }

    #[test]
    fn group_stages_in_one_call_of_packed_items() {
        let (_sim, env) = setup();
        let config = ProtocolConfig::default();
        let w = FeedWriter::new(&env, config.clone(), "wal-a");
        w.flush(None).unwrap();
        let puts = || {
            env.usage()
                .get(Actor::CommitDaemon, Service::Database, Op::DbPut)
                .count
        };
        let before = puts();
        let group: Vec<StagedTouches> = (1..=40).map(|t| touches(t, t + 100)).collect();
        w.stage(&group).unwrap();
        assert_eq!(puts() - before, 1, "one BatchPutAttributes per group");
        let items = env.sdb().peek_items(&feed_domain(&config.layout.domain));
        assert_eq!(items.len(), 1, "160 pairs fit one item");
        assert_eq!(items[0].0, event_item_name("wal-a", 1, Uuid(1), 0));
        let a = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!((a.events, a.max_seq, a.seq_gaps), (40, 40, 0));
    }

    #[test]
    fn failed_stage_after_a_landed_one_reuses_no_sequence() {
        // Replicas lag by up to 12 s, so a writer that re-read its state
        // from the feed domain right after a failed stage could miss the
        // group staged just before and hand its sequence out again.
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.consistency = ConsistencyParams::eventual(std::time::Duration::from_secs(12));
        let env = CloudEnv::new(&sim, profile);
        let config = ProtocolConfig::default();
        let w = FeedWriter::new(&env, config.clone(), "wal-a");
        let mut seqs = Vec::new();
        for txn in (1..=20).step_by(2) {
            let staged = w.stage(&[touches(txn, 10)]).unwrap();
            seqs.extend(staged.iter().map(|e| e.seq));
            env.faults().set(FaultPlan {
                fail_probability: 1.0,
                ..FaultPlan::none()
            });
            assert!(w.stage(&[touches(txn + 1, 20)]).is_err());
            env.faults().clear();
        }
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>());
        let audit = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!(
            (audit.events, audit.seq_gaps, audit.duplicate_seqs),
            (10, 0, 0)
        );
    }

    #[test]
    fn group_beyond_one_call_stages_in_order_and_keeps_a_landed_prefix() {
        // 30 events of 253 pairs: 25 fill the first call (6 325 pairs in
        // 25 items), the last 5 go out in a second call.
        let wide = |txn: u128| StagedTouches {
            uuids: (0..250).map(|u| Uuid(txn * 1000 + u)).collect(),
            ..touches(txn, 0)
        };
        let group: Vec<StagedTouches> = (1..=30).map(wide).collect();
        let publish = |w: &FeedWriter| {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let seen2 = seen.clone();
            let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().push(e));
            w.flush(Some(&sink)).unwrap();
            let got = seen.lock().clone();
            got
        };
        let config = ProtocolConfig::default();

        let (_sim, env) = setup();
        let w = FeedWriter::new(&env, config.clone(), "wal-a");
        w.flush(None).unwrap();
        let puts = || {
            env.usage()
                .get(Actor::CommitDaemon, Service::Database, Op::DbPut)
                .count
        };
        let before = puts();
        w.stage(&group).unwrap();
        assert_eq!(puts() - before, 2, "two calls");
        let mut names: Vec<String> = env
            .sdb()
            .peek_items(&feed_domain(&config.layout.domain))
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with(EVT_PREFIX))
            .collect();
        names.sort();
        let want: Vec<String> = (0..30)
            .map(|part| event_item_name("wal-a", 1, Uuid(1), part))
            .collect();
        assert_eq!(names, want, "part numbers continue across calls");
        let a = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!(
            (a.events, a.max_seq, a.seq_gaps, a.duplicate_seqs),
            (30, 30, 0, 0)
        );
        drop(w);
        let got = publish(&FeedWriter::new(&env, config.clone(), "wal-a"));
        assert_eq!(got.len(), 30);
        for (i, (ev, t)) in got.iter().zip(&group).enumerate() {
            assert_eq!((ev.seq, ev.txn), (i as u64 + 1, t.txn));
            assert!(
                ev.uuids == t.uuids,
                "event {} keeps every uuid in order",
                ev.seq
            );
        }

        // The second call fails: exactly the first call's 25 events stay
        // staged, and the surviving writer reuses none of their sequences.
        let (_sim, env) = setup();
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let fail_second: StepHook = Arc::new(move |step: &str| {
            step != "p3:notify:stage"
                || calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) != 1
        });
        let faulty = ProtocolConfig {
            step_hook: Some(fail_second),
            ..config.clone()
        };
        let w = FeedWriter::new(&env, faulty, "wal-a");
        assert!(w.stage(&group).is_err());
        let a = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!((a.events, a.max_seq, a.seq_gaps), (25, 25, 0));
        let got = publish(&FeedWriter::new(&env, config.clone(), "wal-a"));
        let txns: Vec<Uuid> = got.iter().map(|e| e.txn).collect();
        assert_eq!(txns, (1..=25).map(Uuid).collect::<Vec<_>>());
        assert!(got.iter().zip(&group).all(|(e, t)| e.uuids == t.uuids));
        let restaged = w.stage(&group).unwrap();
        assert_eq!(restaged[0].seq, 26, "the landed prefix keeps its sequences");
        let a = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!((a.events, a.seq_gaps, a.duplicate_seqs), (55, 0, 0));
    }

    #[test]
    fn one_sequence_staged_by_two_writers_keeps_both_attempts() {
        // Two daemons serving one shard both recover an empty stream and
        // stage sequence 1 with a full first item. Each attempt keeps its
        // own items, so no pair is lost to a merge: the audit counts the
        // duplicate and a takeover recovers every uuid of both.
        let (_sim, env) = setup();
        let config = ProtocolConfig::default();
        let wide = |txn: u128| StagedTouches {
            uuids: (0..300).map(|u| Uuid(txn * 1000 + u)).collect(),
            ..touches(txn, 0)
        };
        let a = FeedWriter::new(&env, config.clone(), "wal-a");
        let b = FeedWriter::new(&env, config.clone(), "wal-a");
        a.flush(None).unwrap();
        b.flush(None).unwrap();
        assert_eq!(a.stage(&[wide(1)]).unwrap()[0].seq, 1);
        assert_eq!(b.stage(&[wide(2)]).unwrap()[0].seq, 1);
        let audit = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!((audit.events, audit.distinct_txns), (2, 2));
        assert_eq!(audit.duplicate_seqs, 1);
        let seen = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        let seen2 = seen.clone();
        let sink: CommitEventSink = Arc::new(move |e: CommitEvent| seen2.lock().extend(e.uuids));
        FeedWriter::new(&env, config.clone(), "wal-a")
            .flush(Some(&sink))
            .unwrap();
        let want: std::collections::BTreeSet<Uuid> =
            wide(1).uuids.into_iter().chain(wide(2).uuids).collect();
        assert!(*seen.lock() == want, "no uuid lost to the item limit");
    }

    #[test]
    fn streams_are_independent() {
        let (_sim, env) = setup();
        let a = FeedWriter::new(&env, ProtocolConfig::default(), "wal-a");
        let b = FeedWriter::new(&env, ProtocolConfig::default(), "wal-b");
        let ea = a.stage(&[touches(1, 10)]).unwrap();
        let eb = b.stage(&[touches(2, 20)]).unwrap();
        assert_eq!(ea[0].seq, 1);
        assert_eq!(eb[0].seq, 1, "each stream numbers from 1");
    }

    #[test]
    fn audit_sees_contiguous_sequences_and_the_watermark() {
        let (_sim, env) = setup();
        let config = ProtocolConfig::default();
        let w = FeedWriter::new(&env, config.clone(), "wal-a");
        let sink: CommitEventSink = Arc::new(|_| {});
        w.stage(&[touches(1, 10), touches(2, 20)]).unwrap();
        let mid = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!(mid.events, 2);
        assert_eq!(mid.max_seq, 2);
        assert_eq!(mid.watermark, 0);
        assert_eq!(mid.unpublished(), 2, "staged but not yet published");
        w.flush(Some(&sink)).unwrap();
        w.stage(&[touches(3, 30)]).unwrap();
        w.flush(Some(&sink)).unwrap();
        let a = audit_feed(&env, &config.layout.domain, "wal-a");
        assert_eq!(a.events, 3);
        assert_eq!(a.distinct_txns, 3);
        assert_eq!(a.max_seq, 3);
        assert_eq!(a.watermark, 3);
        assert_eq!(a.unpublished(), 0);
        assert_eq!(a.seq_gaps, 0);
        assert_eq!(a.duplicate_seqs, 0);
        assert!(a.txns.contains(&Uuid(2)));
        // Another stream's slice is empty.
        let b = audit_feed(&env, &config.layout.domain, "wal-b");
        assert_eq!(b, FeedAudit::default());
    }

    #[test]
    fn extract_touches_finds_uuids_and_programs() {
        let p = PNodeId::initial(Uuid(1));
        let f = PNodeId::initial(Uuid(2));
        // An ancestor referenced by xref only — never a subject in this
        // transaction. Its rev_ index pages still change, so the event
        // must name it.
        let elder = PNodeId::initial(Uuid(7));
        let records = vec![
            ProvenanceRecord::new(p, Attr::Type, "process"),
            ProvenanceRecord::new(p, Attr::Name, "sort"),
            ProvenanceRecord::new(f, Attr::Type, "file"),
            ProvenanceRecord::new(f, Attr::Name, "/out"),
            ProvenanceRecord::new(f, Attr::Input, p),
            ProvenanceRecord::new(p, Attr::Input, elder),
        ];
        let (uuids, programs) = extract_touches(&records);
        assert_eq!(uuids, vec![Uuid(1), Uuid(2), Uuid(7)]);
        assert_eq!(
            programs,
            vec!["sort".to_string()],
            "file names are not programs"
        );
    }
}
