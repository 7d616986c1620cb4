//! PA-S3fs: the provenance-aware user-level file system (§4.2).
//!
//! In the paper this is a FUSE file system (a fork of s3fs) wired to the
//! PASS kernel through the Disclosed Provenance API. Here the FUSE
//! boundary is a plain method API: workloads issue `exec`/`fork`/`read`/
//! `write`/`close` calls; data lands in the local [`Vfs`] cache and
//! provenance accumulates in the PASS [`Observer`]; on `close` (or
//! `flush`) the dirty data and the **unflushed ancestor closure** of its
//! provenance are handed to the configured [`StorageProtocol`] — P1, P2,
//! P3, or the provenance-free S3fs baseline.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::{Blob, RunContext};
use cloudprov_core::{FlushBatch, FlushObject, Result, StorageProtocol};
use cloudprov_pass::{FlushNode, NodeKind, Observer, PNodeId, Pid, PipeId, ProcessInfo, Uuid};
use cloudprov_sim::Sim;

use crate::vfs::{LocalIoParams, Vfs};

/// Converts a file path to its object-store key (strip the leading `/`).
pub fn key_of_path(path: &str) -> String {
    path.trim_start_matches('/').to_string()
}

/// The provenance-aware S3 file system client.
///
/// Construct with [`PaS3fs::new`] for provenance collection or
/// [`PaS3fs::plain`] for the paper's S3fs baseline (no provenance, no
/// PASS kernel).
pub struct PaS3fs {
    sim: Sim,
    vfs: Vfs,
    observer: Option<Mutex<Observer>>,
    protocol: Arc<dyn StorageProtocol>,
    context: RunContext,
}

impl std::fmt::Debug for PaS3fs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaS3fs")
            .field("protocol", &self.protocol.name())
            .field("provenance", &self.observer.is_some())
            .finish()
    }
}

impl PaS3fs {
    /// A provenance-aware file system over `protocol`.
    pub fn new(
        sim: &Sim,
        protocol: Arc<dyn StorageProtocol>,
        context: RunContext,
        io: LocalIoParams,
        seed: u64,
    ) -> PaS3fs {
        PaS3fs {
            sim: sim.clone(),
            vfs: Vfs::new(sim, io, context),
            observer: Some(Mutex::new(Observer::new(seed))),
            protocol,
            context,
        }
    }

    /// Mounts the file system over a [`ProvenanceClient`] session: the
    /// S3fs baseline gets the plain (no-PASS) cache, every other
    /// protocol gets provenance collection. The run context comes from
    /// the client's cloud profile, so workloads built through the
    /// facade need no separate context plumbing.
    ///
    /// [`ProvenanceClient`]: cloudprov_core::ProvenanceClient
    pub fn attach(
        client: Arc<cloudprov_core::ProvenanceClient>,
        io: LocalIoParams,
        seed: u64,
    ) -> PaS3fs {
        let sim = client.env().sim().clone();
        let context = client.env().profile().context;
        if client.protocol() == cloudprov_core::Protocol::S3fs {
            PaS3fs::plain(&sim, client, context, io)
        } else {
            PaS3fs::new(&sim, client, context, io, seed)
        }
    }

    /// The plain S3fs baseline: same cache and upload path, no provenance.
    pub fn plain(
        sim: &Sim,
        protocol: Arc<dyn StorageProtocol>,
        context: RunContext,
        io: LocalIoParams,
    ) -> PaS3fs {
        PaS3fs {
            sim: sim.clone(),
            vfs: Vfs::new(sim, io, context),
            observer: None,
            protocol,
            context,
        }
    }

    /// The storage protocol in use.
    pub fn protocol(&self) -> &Arc<dyn StorageProtocol> {
        &self.protocol
    }

    /// Run-context of this client.
    pub fn context(&self) -> RunContext {
        self.context
    }

    /// Access the PASS observer (None for the plain baseline).
    ///
    /// Exposed for tests and the examples that inspect the ground-truth
    /// DAG.
    pub fn with_observer<R>(&self, f: impl FnOnce(&Observer) -> R) -> Option<R> {
        self.observer.as_ref().map(|o| f(&o.lock()))
    }

    /// Observes `exec`.
    pub fn exec(&self, pid: Pid, mut info: ProcessInfo) {
        info.exec_time_micros = self.sim.now().as_micros();
        if let Some(obs) = &self.observer {
            obs.lock().exec(pid, info);
        }
    }

    /// Observes `fork`.
    pub fn fork(&self, parent: Pid, child: Pid) {
        if let Some(obs) = &self.observer {
            obs.lock().fork(parent, child);
        }
    }

    /// `open`: s3fs issues a `getattr` (cloud HEAD) on every open — this
    /// lookup chatter is most of the baseline's operation count.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors from the HEAD.
    pub fn open(&self, pid: Pid, path: &str) -> Result<()> {
        let _ = pid;
        self.protocol.stat(&key_of_path(path))?;
        Ok(())
    }

    /// `stat`: a cloud `getattr` without opening.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors from the HEAD.
    pub fn stat_cloud(&self, path: &str) -> Result<Option<u64>> {
        self.protocol.stat(&key_of_path(path))
    }

    /// Reads `bytes` of `path`: local-disk time plus a provenance edge.
    pub fn read(&self, pid: Pid, path: &str, bytes: u64) {
        self.vfs.read(path, bytes);
        if let Some(obs) = &self.observer {
            obs.lock().read(pid, path);
        }
    }

    /// Writes `bytes` to `path` in the local cache; provenance records the
    /// dependency and the evolving content fingerprint.
    pub fn write(&self, pid: Pid, path: &str, bytes: u64) {
        let fp = self.vfs.write(path, bytes);
        if let Some(obs) = &self.observer {
            obs.lock().write(pid, path, fp);
        }
    }

    /// Creates a pipe.
    pub fn pipe_create(&self, pipe: PipeId) {
        if let Some(obs) = &self.observer {
            obs.lock().pipe_create(pipe);
        }
    }

    /// Writes to a pipe.
    pub fn pipe_write(&self, pid: Pid, pipe: PipeId) {
        if let Some(obs) = &self.observer {
            obs.lock().pipe_write(pid, pipe);
        }
    }

    /// Reads from a pipe.
    pub fn pipe_read(&self, pid: Pid, pipe: PipeId) {
        if let Some(obs) = &self.observer {
            obs.lock().pipe_read(pid, pipe);
        }
    }

    /// Burns CPU time, scaled by the context's compute factor (UML doubles
    /// it, §5.2).
    pub fn compute(&self, d: Duration) {
        self.sim.sleep(d.mul_f64(self.context.compute_factor()));
    }

    /// Burns memory-pressure-bound time. UML's small fixed memory made the
    /// Blast workload dramatically slower (§5.2: 650 s native vs 1322 s
    /// UML); this models that class of work with a steeper UML factor.
    pub fn membound(&self, d: Duration) {
        let factor = match self.context.machine {
            cloudprov_cloud::Machine::Uml => 3.4,
            cloudprov_cloud::Machine::Native => 1.0,
        };
        self.sim.sleep(d.mul_f64(factor));
    }

    /// `close`: if the file is dirty, uploads data + provenance closure
    /// through the protocol (§4.2: "On certain events, such as file close
    /// or flush, it sends both the data and the provenance to the cloud").
    ///
    /// On a pipelined session the batch returns once enqueued, and what
    /// the eventual flush waits on is only the batch's **delta**: the
    /// ancestor closure is content-addressed, so ancestors the fleet's
    /// shared store already holds ride speculative background publishes
    /// instead of the close path. A fully-covered close settles the
    /// moment it is submitted; the client's `sync` barrier remains the
    /// durability promise either way.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (crash injection, exhausted retries).
    pub fn close(&self, pid: Pid, path: &str) -> Result<()> {
        let _ = pid;
        let Some(stat) = self.vfs.stat(path) else {
            return Ok(());
        };
        if !stat.dirty {
            return Ok(());
        }
        let data = Blob::synthetic(stat.size, stat.fingerprint);
        let batch = match &self.observer {
            Some(obs) => {
                let closure = obs.lock().flush_closure(path);
                let objects = closure
                    .into_iter()
                    .map(|node| self.flush_object(node, path, &data))
                    .collect();
                FlushBatch { objects }
            }
            None => FlushBatch {
                objects: vec![FlushObject::file(
                    baseline_node(path),
                    key_of_path(path),
                    data.clone(),
                )],
            },
        };
        self.protocol.flush(batch)?;
        self.vfs.mark_clean(path);
        Ok(())
    }

    /// `flush` (fsync-like): same upload path as close.
    ///
    /// # Errors
    ///
    /// See [`PaS3fs::close`].
    pub fn flush(&self, pid: Pid, path: &str) -> Result<()> {
        self.close(pid, path)
    }

    fn flush_object(
        &self,
        node: FlushNode,
        closing_path: &str,
        closing_data: &Blob,
    ) -> FlushObject {
        if !node.kind.is_persistent() {
            return FlushObject::provenance_only(node);
        }
        let Some(name) = node.name.clone() else {
            return FlushObject::provenance_only(node);
        };
        if name == closing_path {
            return FlushObject::file(node, key_of_path(&name), closing_data.clone());
        }
        // An ancestor file in the closure: upload its cached state too
        // ("send any unrecorded ancestors and their provenance", §4.3) —
        // but only when the cache still holds the state this node
        // version describes. Under causality-based versioning a later
        // writer starts a new version, so the closure can contain an
        // *older* version of a file another process has since modified;
        // pairing that node with today's bytes would store provenance
        // describing data that never existed (a baked-in coupling
        // violation the chaos explorer caught). Such historic nodes
        // flush provenance-only, and the newer version's own close
        // uploads the bytes. A node with no pending write has no bytes
        // of its own to ship: its data went up with an earlier flush, or
        // it is historic — a renamed file's old version still carries
        // the old name, and today's bytes under that name belong to
        // another file.
        match self.vfs.stat(&name) {
            Some(st) if node.data_hash == Some(st.fingerprint) => {
                let blob = Blob::synthetic(st.size, st.fingerprint);
                self.vfs.mark_clean(&name);
                FlushObject::file(node, key_of_path(&name), blob)
            }
            _ => FlushObject::provenance_only(node),
        }
    }

    /// `unlink`: removes local cache and the cloud data object. The
    /// provenance stays (data-independent persistence).
    ///
    /// # Errors
    ///
    /// Propagates protocol errors from the cloud delete.
    pub fn unlink(&self, pid: Pid, path: &str) -> Result<()> {
        let _ = pid;
        self.vfs.unlink(path);
        if let Some(obs) = &self.observer {
            obs.lock().unlink(path);
        }
        self.protocol.delete(&key_of_path(path))?;
        Ok(())
    }

    /// `rename` within the cache (cloud-side renames are a COPY+DELETE the
    /// workloads don't need; kept local as s3fs did for dirty files).
    pub fn rename(&self, pid: Pid, from: &str, to: &str) {
        let _ = pid;
        self.vfs.rename(from, to);
        if let Some(obs) = &self.observer {
            obs.lock().rename(from, to);
        }
    }

    /// Observes process exit.
    pub fn exit(&self, pid: Pid) {
        if let Some(obs) = &self.observer {
            obs.lock().exit(pid);
        }
    }

    /// Instrumentation: whether `path` is cached locally with unflushed
    /// changes — i.e. whether a `close` of it right now would upload and
    /// promise durability. Harnesses use this instead of shadow-tracking
    /// dirtiness, which cannot see ancestor flushes (a close of file B
    /// can upload dirty ancestor A and mark it clean behind any mirror's
    /// back).
    pub fn cached_dirty(&self, path: &str) -> bool {
        self.vfs.stat(path).is_some_and(|s| s.dirty)
    }

    /// Reads a file back from the cloud through the protocol (coupling
    /// detection included).
    ///
    /// # Errors
    ///
    /// Propagates protocol/cloud errors.
    pub fn read_back(&self, path: &str) -> Result<cloudprov_core::ReadResult> {
        self.protocol.read(&key_of_path(path))
    }

    /// The provenance-aware read of §4.3.3: "Applications that are
    /// sensitive to provenance data-coupling can detect inconsistency and
    /// can retry again on detecting inconsistency. In prior work, we
    /// discuss provenance-aware read and write system calls, which provide
    /// an interface that can perform these checks on behalf of the
    /// application."
    ///
    /// Retries (with backoff in virtual time) until the read is coupled or
    /// `attempts` is exhausted; returns the last result either way, so the
    /// caller can inspect the residual verdict.
    ///
    /// # Errors
    ///
    /// Propagates protocol/cloud errors (missing objects are errors;
    /// uncoupled reads are not).
    pub fn read_verified(&self, path: &str, attempts: usize) -> Result<cloudprov_core::ReadResult> {
        let mut delay = Duration::from_millis(500);
        let mut last = self.read_back(path)?;
        for _ in 1..attempts.max(1) {
            if last.coupling.is_coupled() {
                return Ok(last);
            }
            // "the client should try refreshing the data until the objects
            // do meet the property" (§4.3.1).
            self.sim.sleep(delay);
            delay = (delay * 2).min(Duration::from_secs(8));
            last = self.read_back(path)?;
        }
        Ok(last)
    }
}

/// Node used by the provenance-free baseline: stable per path, carries no
/// records.
fn baseline_node(path: &str) -> FlushNode {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    FlushNode {
        id: PNodeId::initial(Uuid(u128::from(h))),
        kind: NodeKind::File,
        name: Some(path.to_string()),
        records: Vec::new(),
        data_hash: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::{AwsProfile, CloudEnv};
    use cloudprov_core::{CouplingCheck, Protocol, ProvenanceClient};

    fn env() -> (Sim, CloudEnv) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        (sim, env)
    }

    fn client(env: &CloudEnv, protocol: Protocol) -> Arc<ProvenanceClient> {
        Arc::new(ProvenanceClient::builder(protocol).build(env))
    }

    fn pa(env: &CloudEnv, protocol: Protocol) -> PaS3fs {
        PaS3fs::attach(client(env, protocol), LocalIoParams::instant(), 42)
    }

    #[test]
    fn close_uploads_dirty_file_with_provenance_closure() {
        let (_sim, cloud) = env();
        let fs = pa(&cloud, Protocol::P1);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "gen".into(),
                ..Default::default()
            },
        );
        fs.read(Pid(1), "/input", 1024);
        fs.write(Pid(1), "/output", 2048);
        fs.close(Pid(1), "/output").unwrap();
        // Data object exists under the path-derived key.
        assert!(cloud.s3().peek_committed("data", "output").is_some());
        // Provenance objects exist for input, process and output.
        assert_eq!(cloud.s3().peek_count("prov", "p/"), 3);
    }

    #[test]
    fn close_of_clean_file_is_a_noop() {
        let (_sim, cloud) = env();
        let fs = pa(&cloud, Protocol::P2);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "gen".into(),
                ..Default::default()
            },
        );
        fs.write(Pid(1), "/f", 10);
        fs.close(Pid(1), "/f").unwrap();
        let ops_after_first = cloud.usage().client_ops();
        fs.close(Pid(1), "/f").unwrap();
        assert_eq!(cloud.usage().client_ops(), ops_after_first);
    }

    #[test]
    fn baseline_uploads_data_only() {
        let (_sim, cloud) = env();
        let fs = pa(&cloud, Protocol::S3fs);
        fs.write(Pid(1), "/f", 100);
        fs.close(Pid(1), "/f").unwrap();
        assert!(cloud.s3().peek_committed("data", "f").is_some());
        assert_eq!(cloud.s3().peek_count("prov", ""), 0);
        assert_eq!(cloud.sdb().peek_item_count("provenance"), 0);
    }

    #[test]
    fn full_p3_pipeline_end_to_end_via_fs() {
        let (_sim, cloud) = env();
        let p3 = client(&cloud, Protocol::P3);
        let daemon = p3.commit_daemon().unwrap().clone();
        let fs = PaS3fs::attach(p3, LocalIoParams::instant(), 42);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "pipeline".into(),
                ..Default::default()
            },
        );
        fs.read(Pid(1), "/in", 4096);
        fs.write(Pid(1), "/out", 8192);
        fs.close(Pid(1), "/out").unwrap();
        daemon.run_until_idle().unwrap();
        let r = fs.read_back("/out").unwrap();
        assert_eq!(r.coupling, CouplingCheck::Coupled);
        assert_eq!(r.data.len(), 8192);
    }

    #[test]
    fn rewrite_after_close_creates_new_version_in_cloud() {
        let (_sim, cloud) = env();
        let fs = pa(&cloud, Protocol::P2);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "w".into(),
                ..Default::default()
            },
        );
        fs.write(Pid(1), "/f", 10);
        fs.close(Pid(1), "/f").unwrap();
        fs.write(Pid(1), "/f", 10);
        fs.close(Pid(1), "/f").unwrap();
        // Two version items in SimpleDB.
        assert_eq!(cloud.sdb().peek_item_count("provenance"), 3); // proc + f_1 + f_2
        let meta = cloud.s3().peek_committed("data", "f").unwrap().meta;
        assert_eq!(meta["prov-version"], "2");
    }

    #[test]
    fn unlink_deletes_data_keeps_provenance() {
        let (_sim, cloud) = env();
        let fs = pa(&cloud, Protocol::P2);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "w".into(),
                ..Default::default()
            },
        );
        fs.write(Pid(1), "/f", 10);
        fs.close(Pid(1), "/f").unwrap();
        fs.unlink(Pid(1), "/f").unwrap();
        assert!(cloud.s3().peek_committed("data", "f").is_none());
        assert!(cloud.sdb().peek_item_count("provenance") >= 2);
    }

    #[test]
    fn ancestor_files_upload_with_descendant() {
        // A pipeline writes an intermediate file and never closes it; the
        // final output's close must carry the intermediate along (causal
        // ordering needs ancestors present).
        let (_sim, cloud) = env();
        let fs = pa(&cloud, Protocol::P1);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "stage1".into(),
                ..Default::default()
            },
        );
        fs.write(Pid(1), "/intermediate", 100);
        fs.exec(
            Pid(2),
            ProcessInfo {
                name: "stage2".into(),
                ..Default::default()
            },
        );
        fs.read(Pid(2), "/intermediate", 100);
        fs.write(Pid(2), "/final", 100);
        fs.close(Pid(2), "/final").unwrap();
        assert!(
            cloud.s3().peek_committed("data", "intermediate").is_some(),
            "unclosed ancestor file must still be uploaded"
        );
        assert!(cloud.s3().peek_committed("data", "final").is_some());
    }

    #[test]
    fn renamed_file_old_version_never_ships_the_new_bytes() {
        // p1 read /f4's first version, then /f4 was renamed away and a
        // new /f4 written. Closing p1's output flushes the old version's
        // rename provenance through p1's closure; the cache bytes under
        // /f4 belong to the new file and must not go up as that version.
        let (_sim, cloud) = env();
        let p3 = client(&cloud, Protocol::P3);
        let fs = PaS3fs::attach(p3.clone(), LocalIoParams::instant(), 42);
        for p in 0..2 {
            fs.exec(
                Pid(p),
                ProcessInfo {
                    name: format!("proc{p}"),
                    ..Default::default()
                },
            );
        }
        fs.write(Pid(0), "/f4", 2048);
        fs.close(Pid(0), "/f4").unwrap();
        p3.drain().unwrap();
        fs.read(Pid(1), "/f4", 1024);
        fs.rename(Pid(0), "/f4", "/f3");
        fs.write(Pid(0), "/f3", 2048);
        fs.write(Pid(0), "/f4", 2048);
        fs.write(Pid(0), "/f4", 2048);
        fs.write(Pid(1), "/f6", 2048);
        fs.close(Pid(1), "/f6").unwrap();
        p3.drain().unwrap();
        assert_eq!(
            fs.read_back("/f4").unwrap().coupling,
            CouplingCheck::Coupled
        );
    }

    #[test]
    fn read_verified_waits_out_eventual_consistency() {
        let sim = Sim::new();
        let mut profile = AwsProfile::instant();
        profile.consistency = cloudprov_cloud::ConsistencyParams::eventual(Duration::from_secs(10));
        let cloud = CloudEnv::new(&sim, profile);
        let fs = pa(&cloud, Protocol::P2);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "w".into(),
                ..Default::default()
            },
        );
        fs.write(Pid(1), "/f", 64);
        fs.close(Pid(1), "/f").unwrap();
        // Immediately after the flush, reads may be uncoupled (stale
        // SimpleDB view); the provenance-aware read retries past the
        // staleness window.
        let r = fs.read_verified("/f", 12).unwrap();
        assert_eq!(r.coupling, CouplingCheck::Coupled);
    }

    #[test]
    fn read_verified_reports_residual_verdict_when_budget_exhausted() {
        let (_sim, cloud) = env();
        let fs = pa(&cloud, Protocol::P2);
        fs.exec(
            Pid(1),
            ProcessInfo {
                name: "w".into(),
                ..Default::default()
            },
        );
        fs.write(Pid(1), "/f", 64);
        fs.close(Pid(1), "/f").unwrap();
        // Tamper: overwrite the data without provenance (permanent
        // decoupling, not a consistency window).
        let meta = cloud.s3().peek_committed("data", "f").unwrap().meta;
        cloud
            .s3()
            .put("data", "f", cloudprov_cloud::Blob::from("tampered"), meta)
            .unwrap();
        let r = fs.read_verified("/f", 3).unwrap();
        assert_ne!(
            r.coupling,
            CouplingCheck::Coupled,
            "retry cannot fix tampering"
        );
    }

    #[test]
    fn compute_scales_with_uml_factor() {
        let sim = Sim::new();
        let cloud = CloudEnv::new(&sim, AwsProfile::instant());
        let fs_native = pa(&cloud, Protocol::S3fs);
        let t0 = sim.now();
        fs_native.compute(Duration::from_secs(10));
        assert_eq!((sim.now() - t0).as_secs(), 10);

        let mut uml_profile = AwsProfile::instant();
        uml_profile.context = RunContext::ec2(cloudprov_cloud::Era::Sept2009);
        let uml_cloud = CloudEnv::new(&sim, uml_profile);
        let fs_uml = pa(&uml_cloud, Protocol::S3fs);
        let t1 = sim.now();
        fs_uml.compute(Duration::from_secs(10));
        assert_eq!((sim.now() - t1).as_secs(), 20, "UML doubles compute");
        let t2 = sim.now();
        fs_uml.membound(Duration::from_secs(10));
        assert!((sim.now() - t2).as_secs() > 30, "membound is steeper");
    }
}
