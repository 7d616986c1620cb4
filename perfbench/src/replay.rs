//! Replays a testkit script through PA-S3fs, timing every uploading
//! close on both clocks.
//!
//! The event semantics are the testkit's own replay (processes must exec
//! before they act, pipes exist once written, renames stay local); this
//! copy exists so each close can sit inside a benchmark span.

use std::collections::BTreeSet;
use std::time::Duration;

use cloudprov_fs::PaS3fs;
use cloudprov_pass::{Pid, PipeId, ProcessInfo};
use cloudprov_sim::{Sim, SimTime};
use cloudprov_workloads::testkit::file_path;
use cloudprov_workloads::ScriptEvent;

use crate::spans::Spans;

/// What one replay did.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Keys a successful uploading close promised durable (and that no
    /// later unlink withdrew).
    pub durable_keys: BTreeSet<String>,
    /// The error that stopped the replay, if any.
    pub died: Option<String>,
    /// Virtual duration of every uploading close.
    pub closes: Vec<Duration>,
    /// Host CPU the client's thread spent in every uploading close.
    pub close_cpu: Vec<Duration>,
    /// Virtual instant the last uploading close was issued.
    pub last_close: Option<SimTime>,
}

/// Replays `events` with every file under `prefix`.
pub fn replay(
    fs: &PaS3fs,
    sim: &Sim,
    events: &[ScriptEvent],
    prefix: &str,
    spans: &Spans,
    parent: Option<u64>,
) -> Replayed {
    let path = |f: u8| format!("{prefix}{}", file_path(f));
    let key = |f: u8| path(f).trim_start_matches('/').to_string();
    let mut out = Replayed::default();
    let mut execed = BTreeSet::new();
    let mut pipes = BTreeSet::new();
    for ev in events {
        let result = match *ev {
            ScriptEvent::Exec(p) => {
                fs.exec(
                    Pid(u64::from(p)),
                    ProcessInfo {
                        name: format!("proc{p}"),
                        ..Default::default()
                    },
                );
                execed.insert(p);
                Ok(())
            }
            ScriptEvent::Read(p, f) => {
                if execed.contains(&p) {
                    fs.read(Pid(u64::from(p)), &path(f), 1024);
                }
                Ok(())
            }
            ScriptEvent::Write(p, f) => {
                if execed.contains(&p) {
                    fs.write(Pid(u64::from(p)), &path(f), 2048);
                }
                Ok(())
            }
            ScriptEvent::PipeWrite(p, q) => {
                if execed.contains(&p) {
                    if pipes.insert(q) {
                        fs.pipe_create(PipeId(u64::from(q)));
                    }
                    fs.pipe_write(Pid(u64::from(p)), PipeId(u64::from(q)));
                }
                Ok(())
            }
            ScriptEvent::PipeRead(p, q) => {
                if execed.contains(&p) && pipes.contains(&q) {
                    fs.pipe_read(Pid(u64::from(p)), PipeId(u64::from(q)));
                }
                Ok(())
            }
            ScriptEvent::Close(f) => {
                // Only a close of a dirty file uploads, and only an
                // upload promises durability.
                if fs.cached_dirty(&path(f)) {
                    let (v0, c0) = (sim.now(), crate::host::thread_cpu());
                    let r = spans.wrap(sim, parent, "fs.close", || fs.close(Pid(0), &path(f)));
                    out.closes.push(sim.now().saturating_duration_since(v0));
                    out.close_cpu
                        .push(crate::host::thread_cpu().saturating_sub(c0));
                    out.last_close = Some(v0);
                    r.map(|()| {
                        out.durable_keys.insert(key(f));
                    })
                } else {
                    Ok(())
                }
            }
            ScriptEvent::Rename(a, b) => {
                if a != b {
                    fs.rename(Pid(0), &path(a), &path(b));
                }
                Ok(())
            }
            ScriptEvent::Unlink(f) => fs.unlink(Pid(0), &path(f)).map(|()| {
                out.durable_keys.remove(&key(f));
            }),
        };
        if let Err(e) = result {
            out.died = Some(e.to_string());
            break;
        }
    }
    out
}
