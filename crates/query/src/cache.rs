//! The memory-resident ancestry cache — the read tier in front of the
//! [`GraphSource`](crate::GraphSource) stack.
//!
//! Holds materialized reverse-edge pages (one per ancestor node, the
//! unit the commit-time index writes) and program→seed lookups, hydrated
//! from [`IndexSource`](crate::IndexSource) on miss and served without a
//! single cloud op when warm. One cache is shared by every tenant's
//! engine; per-tenant byte quotas with a reserved share keep one
//! tenant's hot working set from evicting another's, and a global LRU
//! bounds residency.
//!
//! # Coherence
//!
//! The cache is kept coherent by the live change feed, not by TTLs:
//!
//! * **Invalidation is feed-ordered and idempotent.** Every
//!   [`CommitEvent`] names the uuids whose index pages the commit may
//!   have changed (subjects *and* `Input` xref targets — see
//!   [`cloudprov_core::feed::extract_touches`]) and the programs whose
//!   seed lookups it may have grown. Handling an event only *removes*
//!   entries and records a quarantine instant; the feed's at-least-once
//!   delivery means duplicates arrive routinely, and a duplicate re-
//!   remove is a no-op that can never resurrect a stale entry.
//! * **Hydration cannot race an invalidation.** An install carries the
//!   [`FillTicket`] taken when its store fetch *started*; it is refused
//!   when the key was invalidated at or after that instant (the fetch
//!   may predate the commit), and — under an eventually-consistent
//!   profile — until the store's `max_staleness` window has also
//!   passed, so a stale-replica read can never be installed over an
//!   invalidation. A quarantine record outlives every open ticket it
//!   could refuse, so no fetch is too slow for the guard. The same
//!   guard anchored at attach time covers commits the cache never saw
//!   because they predate its subscription.
//! * **A feed gap fails closed.** The cache mirrors the feed registry's
//!   per-stream sequence accounting; a skipped sequence (or a detach)
//!   poisons the cache: everything is flushed and every lookup reports
//!   unusable until the owner re-attaches, so the engine drops to the
//!   uncached plan rather than serve possibly-stale lineage.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_cloud::TenantId;
use cloudprov_core::feed::{CommitEvent, CommitEventSink};
use cloudprov_pass::{PNodeId, Uuid};
use cloudprov_sim::{Sim, SimTime};

use crate::planner::CacheState;
use crate::source::RevAdjacency;

/// Sizing and coherence knobs for one [`AncestryCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Global byte budget across all tenants.
    pub capacity_bytes: usize,
    /// Per-tenant ceiling: one tenant's entries never exceed this.
    pub tenant_max_bytes: usize,
    /// Per-tenant floor: eviction on behalf of *another* tenant never
    /// shrinks a tenant below this (self-eviction always may).
    pub tenant_reserved_bytes: usize,
    /// The store's read-staleness window (`max_staleness` of the
    /// consistency profile): installs stay blocked for this long after
    /// an invalidation (and after attach), so an eventually-consistent
    /// replica read can never reinstall pre-invalidation state.
    pub staleness_guard: Duration,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 4 << 20,
            tenant_max_bytes: 1 << 20,
            tenant_reserved_bytes: 64 << 10,
            staleness_guard: Duration::ZERO,
        }
    }
}

/// One ancestor's materialized reverse-edge page: its dependents over
/// `input` edges and the subset of those that are files (Q.3's filter,
/// localized from the adjacency's global file set at install time).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RevPage {
    /// Dependents of this ancestor.
    pub out: Vec<PNodeId>,
    /// The dependents that are files.
    pub files: Vec<PNodeId>,
}

/// Counters the cache exposes for reports (`query.cache.*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served entirely from memory.
    pub hits: u64,
    /// Queries that had to hydrate from the store.
    pub misses: u64,
    /// Queries that bypassed an unusable cache.
    pub bypasses: u64,
    /// Entries evicted for room.
    pub evictions: u64,
    /// Entries removed by feed invalidation.
    pub invalidations: u64,
    /// Entries installed.
    pub installs: u64,
    /// Installs refused by the invalidation/staleness guard.
    pub refused_installs: u64,
    /// Feed events observed (including duplicates).
    pub events: u64,
    /// Duplicate feed deliveries (idempotently re-applied).
    pub duplicate_events: u64,
    /// Sequence gaps observed — each one poisons the cache.
    pub gaps: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Resident bytes right now.
    pub bytes: usize,
}

#[derive(Clone, Debug)]
struct Entry<T> {
    value: T,
    bytes: usize,
    owner: Option<TenantId>,
    touched: u64,
}

#[derive(Default)]
struct Inner {
    attached: bool,
    coherent: bool,
    /// Attach instant: installs whose fetch started before
    /// `floor + guard` are refused (commits missed before the
    /// subscription began may not have replicated yet).
    floor: SimTime,
    /// Monotonic count of accepted (non-duplicate) feed events —
    /// verification loops use it to tell "state moved under me" from
    /// "genuinely stale".
    epoch: u64,
    /// Per-stream high sequence marks, mirroring the feed registry's
    /// duplicate/gap accounting.
    high: BTreeMap<String, u64>,
    seeds: BTreeMap<String, Entry<Vec<PNodeId>>>,
    pages: BTreeMap<PNodeId, Entry<RevPage>>,
    quarantined_uuids: BTreeMap<Uuid, SimTime>,
    quarantined_programs: BTreeMap<String, SimTime>,
    /// Start instants of the open [`FillTicket`]s, with multiplicity.
    fills: BTreeMap<SimTime, usize>,
    usage: BTreeMap<Option<TenantId>, usize>,
    bytes: usize,
    tick: u64,
    stats: CacheStats,
}

/// The shared, feed-invalidated ancestry cache. See the module docs for
/// the coherence argument.
pub struct AncestryCache {
    sim: Sim,
    cfg: CacheConfig,
    inner: Mutex<Inner>,
}

/// Whether a fetch started at `fetch_start` may install over a key
/// invalidated at `t`: strictly after it, and past the staleness window.
fn clears_quarantine(fetch_start: SimTime, t: SimTime, guard: Duration) -> bool {
    fetch_start > t && fetch_start >= t + guard
}

/// Rough resident cost of an entry holding `ids` node ids.
fn entry_bytes(ids: usize) -> usize {
    48 + 24 * ids
}

/// One hydration in flight: the instant its store fetch started. Every
/// install presents the ticket of the fetch it installs, and while the
/// ticket is open the cache keeps each quarantine record that could
/// refuse it — however long the fetch takes. Drop it after installing.
pub struct FillTicket<'a> {
    cache: &'a AncestryCache,
    start: SimTime,
}

impl Drop for FillTicket<'_> {
    fn drop(&mut self) {
        let mut g = self.cache.inner.lock();
        if let Some(n) = g.fills.get_mut(&self.start) {
            *n -= 1;
            if *n == 0 {
                g.fills.remove(&self.start);
            }
        }
    }
}

impl AncestryCache {
    /// A detached cache on `sim`'s clock. Call [`attach`](Self::attach)
    /// once the feed sink is wired; until then every lookup bypasses.
    pub fn new(sim: &Sim, cfg: CacheConfig) -> AncestryCache {
        AncestryCache {
            sim: sim.clone(),
            cfg,
            inner: Mutex::new(Inner {
                coherent: false,
                ..Inner::default()
            }),
        }
    }

    /// The configured quotas/guard.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Declares the feed subscription live: flushes everything, resets
    /// sequence accounting, and anchors the attach-floor guard at the
    /// current instant.
    pub fn attach(&self) {
        let mut g = self.inner.lock();
        g.attached = true;
        g.coherent = true;
        g.floor = self.sim.now();
        g.high.clear();
        Self::flush(&mut g);
    }

    /// Declares the subscription lapsed: flushes and bypasses until
    /// re-attached.
    pub fn detach(&self) {
        let mut g = self.inner.lock();
        g.attached = false;
        Self::flush(&mut g);
    }

    /// Whether lookups may be served (attached and gap-free).
    pub fn usable(&self) -> bool {
        let g = self.inner.lock();
        g.attached && g.coherent
    }

    /// Count of accepted (non-duplicate) feed events so far.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock();
        let mut s = g.stats;
        s.entries = g.seeds.len() + g.pages.len();
        s.bytes = g.bytes;
        s
    }

    /// Resident bytes currently charged to `owner` (quota tests).
    pub fn owner_bytes(&self, owner: Option<TenantId>) -> usize {
        self.inner.lock().usage.get(&owner).copied().unwrap_or(0)
    }

    /// Opens a hydration: take the ticket right before the store fetch
    /// starts and pass it to the installs of what the fetch returns.
    pub fn begin_fill(&self) -> FillTicket<'_> {
        let start = self.sim.now();
        *self.inner.lock().fills.entry(start).or_insert(0) += 1;
        FillTicket { cache: self, start }
    }

    /// Counts one engine-level bypass (cache in play but unusable).
    pub fn note_bypass(&self) {
        self.inner.lock().stats.bypasses += 1;
    }

    /// The feed sink: wire into the daemon pool (the pool takes one
    /// sink — fan it in with the registry's sink via the feed crate's
    /// fan-out when both need the events).
    pub fn sink(self: &Arc<Self>) -> CommitEventSink {
        let cache = Arc::clone(self);
        Arc::new(move |ev: CommitEvent| cache.on_event(&ev))
    }

    /// Applies one feed event: sequence accounting, then idempotent
    /// invalidation. Public so tests can deliver fabricated events.
    pub fn on_event(&self, ev: &CommitEvent) {
        let now = self.sim.now();
        let mut g = self.inner.lock();
        if !g.attached {
            return;
        }
        g.stats.events += 1;
        match g.high.get(&ev.stream).copied() {
            // First observation of this stream: the attach-floor guard
            // covers anything published before we subscribed.
            None => {
                g.high.insert(ev.stream.clone(), ev.seq);
            }
            // A replayed delivery: its invalidation already ran with an
            // earlier quarantine instant, so re-applying it is a strict
            // no-op — entries installed since were fetched after the
            // original invalidation and are fresh.
            Some(h) if ev.seq <= h => {
                g.stats.duplicate_events += 1;
                return;
            }
            Some(h) if ev.seq == h + 1 => {
                g.high.insert(ev.stream.clone(), ev.seq);
            }
            // A skipped sequence: we cannot know what it would have
            // invalidated. Fail closed.
            Some(_) => {
                g.stats.gaps += 1;
                g.coherent = false;
                Self::flush(&mut g);
                return;
            }
        }
        if !g.coherent {
            return;
        }
        g.epoch += 1;
        // Idempotent invalidation: remove + quarantine. A duplicate
        // delivery re-removes nothing and refreshes the quarantine —
        // both harmless, neither can resurrect an entry.
        for &uuid in &ev.uuids {
            let span: Vec<PNodeId> = g
                .pages
                .range(
                    PNodeId { uuid, version: 0 }..=PNodeId {
                        uuid,
                        version: u32::MAX,
                    },
                )
                .map(|(k, _)| *k)
                .collect();
            for k in span {
                Self::remove_page(&mut g, k);
                g.stats.invalidations += 1;
            }
            g.quarantined_uuids.insert(uuid, now);
        }
        for program in &ev.programs {
            if Self::remove_seeds(&mut g, program) {
                g.stats.invalidations += 1;
            }
            g.quarantined_programs.insert(program.clone(), now);
        }
        // A quarantine record only matters to fetches it would refuse.
        // Every open fill, and every fill still to come, starts no
        // earlier than `horizon`: once a fetch starting there clears a
        // record, every install ever to come does too.
        let horizon = g.fills.keys().next().copied().unwrap_or(now);
        let guard = self.cfg.staleness_guard;
        g.quarantined_uuids
            .retain(|_, t| !clears_quarantine(horizon, *t, guard));
        g.quarantined_programs
            .retain(|_, t| !clears_quarantine(horizon, *t, guard));
    }

    /// Non-counting dry run: would `kind`/`program` be served from
    /// memory right now? `None` means the cache is unusable (bypass).
    pub fn probe(&self, kind: crate::QueryKind, program: &str) -> Option<CacheState> {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        let warm = match kind {
            crate::QueryKind::Q3 => Self::q3_from(&mut g, program, false).is_some(),
            crate::QueryKind::Q4 => Self::q4_from(&mut g, program, false).is_some(),
            _ => return None,
        };
        Some(if warm {
            CacheState::Warm
        } else {
            CacheState::Cold
        })
    }

    /// Serves Q.3 (direct file outputs of `program`) from memory, or
    /// `None` on a miss. Counts a hit/miss.
    pub fn serve_q3(&self, program: &str) -> Option<Vec<PNodeId>> {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        let r = Self::q3_from(&mut g, program, true);
        match r {
            Some(_) => g.stats.hits += 1,
            None => g.stats.misses += 1,
        }
        r
    }

    /// Serves Q.4 (transitive descendants of `program`) from memory, or
    /// `None` on a miss. Counts a hit/miss.
    pub fn serve_q4(&self, program: &str) -> Option<Vec<PNodeId>> {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        let r = Self::q4_from(&mut g, program, true);
        match r {
            Some(_) => g.stats.hits += 1,
            None => g.stats.misses += 1,
        }
        r
    }

    /// Cached seed lookup (no hit/miss accounting — the serve calls own
    /// that); used by the engine's hydration path to skip the seed
    /// SELECT when only pages were missing.
    pub fn seeds_of(&self, program: &str) -> Option<Vec<PNodeId>> {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return None;
        }
        g.tick += 1;
        let tick = g.tick;
        let e = g.seeds.get_mut(program)?;
        e.touched = tick;
        Some(e.value.clone())
    }

    /// Installs a seed lookup fetched from the store under `fill`; the
    /// install is refused when the program was invalidated at or after
    /// the fetch started (or within the staleness window before it).
    pub fn install_seeds(
        &self,
        owner: Option<TenantId>,
        program: &str,
        seeds: &[PNodeId],
        fill: &FillTicket<'_>,
    ) {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return;
        }
        let quarantined = g.quarantined_programs.get(program).copied();
        if !self.admissible(&g, fill.start, quarantined) {
            g.stats.refused_installs += 1;
            return;
        }
        Self::remove_seeds(&mut g, program);
        let bytes = entry_bytes(seeds.len());
        if !self.ensure_room(&mut g, owner, bytes) {
            return;
        }
        g.tick += 1;
        let e = Entry {
            value: seeds.to_vec(),
            bytes,
            owner,
            touched: g.tick,
        };
        g.bytes += bytes;
        *g.usage.entry(owner).or_insert(0) += bytes;
        g.seeds.insert(program.to_string(), e);
        g.stats.installs += 1;
    }

    /// Installs every page of a freshly fetched adjacency, plus *empty*
    /// pages for the `touched` nodes absent from it (a node with no
    /// dependents must be provably absent, or every walk that reaches it
    /// would miss forever). Per-key guard as in
    /// [`install_seeds`](Self::install_seeds).
    pub fn install_adjacency(
        &self,
        owner: Option<TenantId>,
        adj: &RevAdjacency,
        touched: &[PNodeId],
        fill: &FillTicket<'_>,
    ) {
        let mut g = self.inner.lock();
        if !(g.attached && g.coherent) {
            return;
        }
        let install = |g: &mut Inner, node: PNodeId, page: RevPage| {
            let quarantined = g.quarantined_uuids.get(&node.uuid).copied();
            if !self.admissible(g, fill.start, quarantined) {
                g.stats.refused_installs += 1;
                return;
            }
            Self::remove_page(g, node);
            let bytes = entry_bytes(page.out.len() + page.files.len());
            if !self.ensure_room(g, owner, bytes) {
                return;
            }
            g.tick += 1;
            let e = Entry {
                value: page,
                bytes,
                owner,
                touched: g.tick,
            };
            g.bytes += bytes;
            *g.usage.entry(owner).or_insert(0) += bytes;
            g.pages.insert(node, e);
            g.stats.installs += 1;
        };
        for (node, out) in &adj.out {
            let files = out
                .iter()
                .copied()
                .filter(|d| adj.files.contains(d))
                .collect();
            install(
                &mut g,
                *node,
                RevPage {
                    out: out.clone(),
                    files,
                },
            );
        }
        for node in touched {
            if !adj.out.contains_key(node) {
                install(&mut g, *node, RevPage::default());
            }
        }
    }

    fn admissible(&self, g: &Inner, fetch_start: SimTime, quarantined: Option<SimTime>) -> bool {
        let guard = self.cfg.staleness_guard;
        if fetch_start < g.floor + guard {
            return false;
        }
        quarantined.is_none_or(|t| clears_quarantine(fetch_start, t, guard))
    }

    fn q3_from(g: &mut Inner, program: &str, touch: bool) -> Option<Vec<PNodeId>> {
        let seeds = g.seeds.get(program)?.value.clone();
        let mut out: BTreeSet<PNodeId> = BTreeSet::new();
        for s in &seeds {
            let page = g.pages.get(s)?;
            out.extend(page.value.files.iter().copied());
        }
        if touch {
            g.tick += 1;
            let tick = g.tick;
            if let Some(e) = g.seeds.get_mut(program) {
                e.touched = tick;
            }
            for s in &seeds {
                if let Some(e) = g.pages.get_mut(s) {
                    e.touched = tick;
                }
            }
        }
        Some(out.into_iter().collect())
    }

    /// Same traversal as [`local::walk`](crate::source::local::walk) —
    /// excluding the seeds from the result — but a node *without* a
    /// resident page is a miss, not a leaf: only an installed empty page
    /// proves it has no dependents.
    fn q4_from(g: &mut Inner, program: &str, touch: bool) -> Option<Vec<PNodeId>> {
        let seeds = g.seeds.get(program)?.value.clone();
        let mut seen: BTreeSet<PNodeId> = seeds.iter().copied().collect();
        let mut queue: Vec<PNodeId> = seeds.clone();
        let mut out: BTreeSet<PNodeId> = BTreeSet::new();
        let mut visited: Vec<PNodeId> = seeds.clone();
        while let Some(n) = queue.pop() {
            let page = g.pages.get(&n)?;
            for m in page.value.out.clone() {
                if seen.insert(m) {
                    out.insert(m);
                    queue.push(m);
                    visited.push(m);
                }
            }
        }
        if touch {
            g.tick += 1;
            let tick = g.tick;
            if let Some(e) = g.seeds.get_mut(program) {
                e.touched = tick;
            }
            for n in &visited {
                if let Some(e) = g.pages.get_mut(n) {
                    e.touched = tick;
                }
            }
        }
        Some(out.into_iter().collect())
    }

    /// Makes room for `need` bytes charged to `owner`: evicts `owner`'s
    /// own LRU entries past its per-tenant ceiling, then global LRU
    /// entries past capacity — skipping entries whose eviction would
    /// drop *another* tenant below its reserved share. Returns false
    /// (install refused) when no evictable entry remains.
    fn ensure_room(&self, g: &mut Inner, owner: Option<TenantId>, need: usize) -> bool {
        if need > self.cfg.tenant_max_bytes {
            return false;
        }
        while g.usage.get(&owner).copied().unwrap_or(0) + need > self.cfg.tenant_max_bytes {
            if !Self::evict_lru(g, |e| e == owner) {
                return false;
            }
            g.stats.evictions += 1;
        }
        while g.bytes + need > self.cfg.capacity_bytes {
            let reserved = self.cfg.tenant_reserved_bytes;
            let usage = g.usage.clone();
            let permitted =
                |e: Option<TenantId>| e == owner || usage.get(&e).copied().unwrap_or(0) > reserved;
            if !Self::evict_lru(g, permitted) {
                return false;
            }
            g.stats.evictions += 1;
        }
        true
    }

    /// Evicts the least-recently-touched entry whose owner passes
    /// `permitted`. Returns false when none qualifies.
    fn evict_lru(g: &mut Inner, permitted: impl Fn(Option<TenantId>) -> bool) -> bool {
        let seed_victim = g
            .seeds
            .iter()
            .filter(|(_, e)| permitted(e.owner))
            .min_by_key(|(_, e)| e.touched)
            .map(|(k, e)| (k.clone(), e.touched));
        let page_victim = g
            .pages
            .iter()
            .filter(|(_, e)| permitted(e.owner))
            .min_by_key(|(_, e)| e.touched)
            .map(|(k, e)| (*k, e.touched));
        match (seed_victim, page_victim) {
            (None, None) => false,
            (Some((k, _)), None) => {
                Self::remove_seeds(g, &k);
                true
            }
            (None, Some((k, _))) => {
                Self::remove_page(g, k);
                true
            }
            (Some((sk, st)), Some((pk, pt))) => {
                if st <= pt {
                    Self::remove_seeds(g, &sk);
                } else {
                    Self::remove_page(g, pk);
                }
                true
            }
        }
    }

    fn remove_seeds(g: &mut Inner, program: &str) -> bool {
        match g.seeds.remove(program) {
            Some(e) => {
                g.bytes -= e.bytes;
                if let Some(u) = g.usage.get_mut(&e.owner) {
                    *u -= e.bytes;
                }
                true
            }
            None => false,
        }
    }

    fn remove_page(g: &mut Inner, node: PNodeId) -> bool {
        match g.pages.remove(&node) {
            Some(e) => {
                g.bytes -= e.bytes;
                if let Some(u) = g.usage.get_mut(&e.owner) {
                    *u -= e.bytes;
                }
                true
            }
            None => false,
        }
    }

    fn flush(g: &mut Inner) {
        g.seeds.clear();
        g.pages.clear();
        g.usage.clear();
        g.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryKind;

    fn node(uuid: u128) -> PNodeId {
        PNodeId::initial(Uuid(uuid))
    }

    fn event(seq: u64, uuids: Vec<Uuid>, programs: Vec<&str>) -> CommitEvent {
        CommitEvent {
            stream: "wal-a".into(),
            seq,
            txn: Uuid(9000 + u128::from(seq)),
            tenant: None,
            uuids,
            programs: programs.into_iter().map(String::from).collect(),
        }
    }

    /// A cache pre-loaded with `etl → n1 → {n2 (file)}` and an empty
    /// page for the leaf, all installed at a fetch instant strictly
    /// after attach.
    fn seeded(sim: &Sim, cfg: CacheConfig) -> Arc<AncestryCache> {
        let cache = Arc::new(AncestryCache::new(sim, cfg));
        cache.attach();
        sim.sleep(Duration::from_secs(1));
        let mut adj = RevAdjacency::default();
        adj.out.insert(node(1), vec![node(2)]);
        adj.files.insert(node(2));
        let fill = cache.begin_fill();
        cache.install_seeds(None, "etl", &[node(1)], &fill);
        cache.install_adjacency(None, &adj, &[node(1), node(2)], &fill);
        drop(fill);
        cache
    }

    #[test]
    fn warm_lookups_serve_without_any_store_state() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Warm));
        assert_eq!(cache.probe(QueryKind::Q4, "etl"), Some(CacheState::Warm));
        assert_eq!(cache.probe(QueryKind::Q3, "other"), Some(CacheState::Cold));
        assert_eq!(cache.serve_q3("etl"), Some(vec![node(2)]));
        assert_eq!(cache.serve_q4("etl"), Some(vec![node(2)]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 0));
    }

    #[test]
    fn duplicate_commit_event_delivery_is_idempotent() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        sim.sleep(Duration::from_secs(1));
        cache.on_event(&event(1, vec![Uuid(1)], vec!["etl"]));
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Cold));
        let epoch = cache.epoch();
        let inval = cache.stats().invalidations;

        // Reinstall with a fetch that started strictly after the
        // invalidation: fresh state, admissible.
        sim.sleep(Duration::from_secs(1));
        let fill = cache.begin_fill();
        let mut adj = RevAdjacency::default();
        adj.out.insert(node(1), vec![node(2), node(3)]);
        adj.files.insert(node(2));
        adj.files.insert(node(3));
        cache.install_seeds(None, "etl", &[node(1)], &fill);
        cache.install_adjacency(None, &adj, &[node(1)], &fill);
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Warm));

        // The same event replayed (at-least-once delivery): a strict
        // no-op — it must not resurrect anything, remove the fresh
        // entries, or move the epoch.
        cache.on_event(&event(1, vec![Uuid(1)], vec!["etl"]));
        assert_eq!(cache.epoch(), epoch);
        assert_eq!(cache.stats().invalidations, inval);
        assert_eq!(cache.stats().duplicate_events, 1);
        assert_eq!(cache.serve_q3("etl"), Some(vec![node(2), node(3)]));
        assert!(cache.usable());
    }

    #[test]
    fn invalidation_racing_hydration_cannot_reinstall_the_stale_page() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        sim.sleep(Duration::from_secs(1));
        // A hydration's store fetch starts now...
        let fill = cache.begin_fill();
        let mut stale = RevAdjacency::default();
        stale.out.insert(node(1), vec![node(2)]);
        stale.files.insert(node(2));
        // ...then a commit touching uuid 1 lands and its invalidation
        // arrives mid-fetch...
        sim.sleep(Duration::from_millis(5));
        cache.on_event(&event(1, vec![Uuid(1)], vec![]));
        // ...and the fetch completes, trying to install what it read
        // before the commit. The install must be refused.
        sim.sleep(Duration::from_millis(5));
        cache.install_adjacency(None, &stale, &[node(1)], &fill);
        assert_eq!(
            cache.probe(QueryKind::Q3, "etl"),
            Some(CacheState::Cold),
            "pre-invalidation page must not be reinstalled"
        );
        assert!(cache.stats().refused_installs > 0);
        // A fetch started after the invalidation installs fine.
        let fill = cache.begin_fill();
        cache.install_adjacency(None, &stale, &[node(1)], &fill);
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Warm));
    }

    #[test]
    fn slow_hydration_cannot_install_after_its_quarantine_is_reaped() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        sim.sleep(Duration::from_secs(1));
        let fill = cache.begin_fill();
        let mut stale = RevAdjacency::default();
        stale.out.insert(node(1), vec![node(2)]);
        stale.files.insert(node(2));
        sim.sleep(Duration::from_millis(5));
        cache.on_event(&event(1, vec![Uuid(1)], vec![]));
        // The fetch (a paginated, retried scan) outlasts any fixed
        // slack, and an unrelated event reaps quarantines meanwhile.
        sim.sleep(Duration::from_secs(61));
        cache.on_event(&event(2, vec![Uuid(7)], vec![]));
        cache.install_adjacency(None, &stale, &[node(1)], &fill);
        drop(fill);
        assert_eq!(
            cache.probe(QueryKind::Q3, "etl"),
            Some(CacheState::Cold),
            "the open fill kept uuid 1's quarantine alive"
        );
        // With no fill open, the next event reaps both records.
        sim.sleep(Duration::from_millis(1));
        cache.on_event(&event(3, vec![], vec![]));
        assert!(cache.inner.lock().quarantined_uuids.is_empty());
    }

    #[test]
    fn staleness_guard_blocks_installs_until_replicas_converge() {
        let sim = Sim::new();
        let guard = Duration::from_secs(12);
        let cfg = CacheConfig {
            staleness_guard: guard,
            ..CacheConfig::default()
        };
        let cache = Arc::new(AncestryCache::new(&sim, cfg));
        cache.attach();
        // Even absent any invalidation, installs within the guard of
        // attach are refused: commits missed before the subscription may
        // not have replicated yet.
        let mut adj = RevAdjacency::default();
        adj.out.insert(node(1), vec![node(2)]);
        cache.install_adjacency(None, &adj, &[node(2)], &cache.begin_fill());
        assert_eq!(cache.stats().installs, 0);
        sim.sleep(guard + Duration::from_secs(1));
        cache.install_seeds(None, "etl", &[node(1)], &cache.begin_fill());
        cache.install_adjacency(None, &adj, &[node(2)], &cache.begin_fill());
        assert_eq!(cache.stats().installs, 3, "seeds + page + empty leaf page");
        assert_eq!(cache.probe(QueryKind::Q4, "etl"), Some(CacheState::Warm));
        // After an invalidation, a fetch inside the staleness window may
        // have read a stale replica — refused; past the window it lands.
        cache.on_event(&event(1, vec![Uuid(1)], vec![]));
        sim.sleep(Duration::from_secs(5));
        cache.install_adjacency(None, &adj, &[node(2)], &cache.begin_fill());
        assert_eq!(cache.probe(QueryKind::Q4, "etl"), Some(CacheState::Cold));
        sim.sleep(guard);
        cache.install_adjacency(None, &adj, &[node(2)], &cache.begin_fill());
        assert_eq!(cache.probe(QueryKind::Q4, "etl"), Some(CacheState::Warm));
    }

    #[test]
    fn sequence_gap_poisons_the_cache_until_reattach() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        cache.on_event(&event(1, vec![], vec![]));
        assert!(cache.usable());
        // seq 2 never arrives: an unknowable invalidation was missed.
        cache.on_event(&event(3, vec![], vec![]));
        assert!(!cache.usable(), "gap must fail closed");
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), None, "lookups bypass");
        assert_eq!(cache.serve_q3("etl"), None);
        assert_eq!(cache.stats().gaps, 1);
        assert_eq!(cache.stats().entries, 0, "everything flushed");
        // Later events cannot resurrect it...
        cache.on_event(&event(4, vec![], vec![]));
        assert!(!cache.usable());
        // ...only an explicit re-attach (fresh subscription) does.
        cache.attach();
        assert!(cache.usable());
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), Some(CacheState::Cold));
    }

    #[test]
    fn detach_flushes_and_bypasses() {
        let sim = Sim::new();
        let cache = seeded(&sim, CacheConfig::default());
        cache.detach();
        assert!(!cache.usable());
        assert_eq!(cache.probe(QueryKind::Q3, "etl"), None);
        assert_eq!(cache.stats().entries, 0);
        // Events during the lapse are ignored, installs refused.
        cache.on_event(&event(1, vec![Uuid(1)], vec![]));
        cache.install_seeds(None, "etl", &[node(1)], &cache.begin_fill());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn tenant_reserved_share_survives_another_tenants_flood() {
        let sim = Sim::new();
        let a = Some(TenantId(1));
        let b = Some(TenantId(2));
        // Room for ~12 one-id entries globally; B's reserve covers its
        // two entries.
        let cfg = CacheConfig {
            capacity_bytes: 900,
            tenant_max_bytes: 800,
            tenant_reserved_bytes: 200,
            staleness_guard: Duration::ZERO,
        };
        let cache = Arc::new(AncestryCache::new(&sim, cfg));
        cache.attach();
        sim.sleep(Duration::from_secs(1));
        let fill = cache.begin_fill();
        cache.install_seeds(b, "b-prog-0", &[node(100)], &fill);
        cache.install_seeds(b, "b-prog-1", &[node(101)], &fill);
        let b_bytes = cache.owner_bytes(b);
        assert!(b_bytes <= cfg.tenant_reserved_bytes);
        // A floods far past capacity: every eviction must come out of
        // A's own entries once B is at/below its reserve.
        for i in 0..40 {
            cache.install_seeds(a, &format!("a-prog-{i}"), &[node(200 + i)], &fill);
        }
        assert_eq!(cache.owner_bytes(b), b_bytes, "B's working set intact");
        assert!(cache.seeds_of("b-prog-0").is_some());
        assert!(cache.seeds_of("b-prog-1").is_some());
        let s = cache.stats();
        assert!(s.evictions > 0, "A's flood evicted A's own LRU entries");
        assert!(s.bytes <= cfg.capacity_bytes);
        // A's own ceiling also binds: it can never hold more than
        // tenant_max_bytes.
        assert!(cache.owner_bytes(a) <= cfg.tenant_max_bytes);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_first() {
        let sim = Sim::new();
        // Two 72-byte seed entries fit; a third forces one eviction.
        let cfg = CacheConfig {
            capacity_bytes: 200,
            tenant_max_bytes: 200,
            tenant_reserved_bytes: 0,
            staleness_guard: Duration::ZERO,
        };
        let cache = Arc::new(AncestryCache::new(&sim, cfg));
        cache.attach();
        sim.sleep(Duration::from_secs(1));
        let fill = cache.begin_fill();
        cache.install_seeds(None, "old", &[node(1)], &fill);
        cache.install_seeds(None, "hot", &[node(2)], &fill);
        // Touch "hot" so "old" is the LRU victim.
        assert!(cache.seeds_of("hot").is_some());
        cache.install_seeds(None, "new", &[node(3)], &fill);
        assert!(cache.seeds_of("old").is_none(), "LRU victim");
        assert!(cache.seeds_of("hot").is_some());
        assert!(cache.seeds_of("new").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }
}
