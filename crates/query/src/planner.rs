//! The cost-based query planner.
//!
//! For each of the paper's four queries the engine may have up to three
//! access paths ([`Plan`]): the S3 full scan, SimpleDB SELECTs, or the
//! commit-time ancestry index. The planner picks one from
//!
//! * **layout** — an S3 store only scans; a database store selects; the
//!   index exists only when a commit daemon maintains one;
//! * **domain statistics** — object/item counts (the free keyspace /
//!   `DomainMetadata`-style catalog calls, modeled by the unmetered
//!   peeks) feed the op-count estimates below;
//! * **meter history** — after a query runs, the engine records the ops
//!   the meter actually charged for that (query, plan) pair; a
//!   measurement beats an estimate on the next planning round.
//!
//! The chosen plan, its cost figure and the reason are reported in
//! [`QueryOutput::plan`](crate::QueryOutput) so benchmarks (and the
//! `repro -- queries` table) can print *why* a path was taken.

use std::collections::BTreeMap;
use std::fmt;

use cloudprov_cloud::{SELECT_PAGE_BYTES, SELECT_PAGE_ITEMS};

/// An access path through the read layers.
///
/// `Cached` is declared first on purpose: [`choose`] sorts candidates
/// and keeps the first strictly-cheaper plan, so on a cost tie the
/// memory-resident cache wins — that is what lets a cold cache hydrate
/// (its cold estimate equals the index estimate) instead of being
/// starved by the index path forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Plan {
    /// Memory-resident ancestry cache (hydrates from the index on miss).
    Cached,
    /// Full scan of P1's provenance objects + local evaluation.
    S3Scan,
    /// Selective SELECTs (frontier expansion for Q.4) against SimpleDB.
    SdbSelect,
    /// Seed lookup + bounded walk over the commit-time ancestry index.
    Index,
}

impl Plan {
    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Plan::Cached => "cached",
            Plan::S3Scan => "scan",
            Plan::SdbSelect => "select",
            Plan::Index => "index",
        }
    }
}

/// The cache's relationship to one planning round. Part of the history
/// key so a cold hydration's measured cost can never pin the planner
/// away from (or onto) the warm path: cold and warm runs are different
/// rows, and plain store paths always live under `Uncached`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheState {
    /// No usable cache in play (also the key for every non-cached plan).
    Uncached,
    /// Cache usable but this query's entries are absent — a run would
    /// pay the store to hydrate.
    Cold,
    /// Cache holds everything this query needs — a run pays zero store
    /// ops.
    Warm,
}

impl CacheState {
    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            CacheState::Uncached => "uncached",
            CacheState::Cold => "cold",
            CacheState::Warm => "warm",
        }
    }
}

/// How the cache actually served one executed query, reported in
/// [`PlanReport::cache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheOutcome {
    /// Served entirely from memory — zero store ops.
    Hit,
    /// Hydrated from the store (and installed for the next query).
    Miss,
    /// Cache attached but unusable (detached, feed gap, or non-cacheable
    /// query) — the uncached plan served the result.
    Bypass,
}

impl CacheOutcome {
    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which of the §5.3 queries is being planned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryKind {
    /// Q.1 — retrieve everything.
    Q1,
    /// Q.2 — one object's versions.
    Q2,
    /// Q.3 — direct outputs of a program.
    Q3,
    /// Q.4 — transitive descendants of a program.
    Q4,
}

/// Catalog statistics the planner estimates from (free metadata calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// P1 provenance objects listed under the prefix.
    pub prov_objects: usize,
    /// Items in the SimpleDB provenance domain.
    pub main_items: usize,
    /// Items in the ancestry-index domain (0 when absent).
    pub index_items: usize,
    /// Bytes of item names, attribute names and values in the
    /// ancestry-index domain (0 when absent). A full packed item holds
    /// ~10 KB, so a SELECT page of them fills its 1 MB cap at ~100
    /// items, before its 250-item cap.
    pub index_bytes: u64,
}

/// The planner's verdict, reported with every query result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanReport {
    /// The chosen access path (`None` only on a defaulted output).
    pub plan: Option<Plan>,
    /// Estimated (or historically measured) cloud ops of the choice.
    pub cost: u64,
    /// One line of planner reasoning.
    pub reason: String,
    /// How the ancestry cache served this query, when one was in play.
    pub cache: Option<CacheOutcome>,
}

impl PlanReport {
    fn chosen(plan: Plan, cost: u64, reason: impl Into<String>) -> PlanReport {
        PlanReport {
            plan: Some(plan),
            cost,
            reason: reason.into(),
            cache: None,
        }
    }
}

/// Observed op counts per (query, plan, cache-state) — the meter history
/// feeding the planner. The cache state is part of the key so a cold
/// cached run (which pays the store to hydrate) and a warm cached run
/// (which pays nothing) never overwrite each other, and neither ever
/// shadows a pinned `with_plan_ref` measurement of a plain store path.
#[derive(Clone, Debug, Default)]
pub struct PlanHistory {
    observed: BTreeMap<(QueryKind, Plan, CacheState), u64>,
}

impl PlanHistory {
    /// Records what the meter charged for one execution.
    pub fn record(&mut self, query: QueryKind, plan: Plan, state: CacheState, ops: u64) {
        self.observed.insert((query, plan, state), ops);
    }

    /// The last measured op count, if this triple ever ran.
    pub fn measured(&self, query: QueryKind, plan: Plan, state: CacheState) -> Option<u64> {
        self.observed.get(&(query, plan, state)).copied()
    }
}

/// SELECT pages a full read of `items` items totalling `bytes` takes:
/// a page closes at 250 items or 1 MB, whichever comes first.
fn pages(items: usize, bytes: u64) -> u64 {
    let by_items = items.max(1).div_ceil(SELECT_PAGE_ITEMS) as u64;
    by_items.max(bytes.div_ceil(SELECT_PAGE_BYTES))
}

/// Static op-count estimate for running `query` through `plan`.
///
/// Deliberately coarse — the point is ordering plans, not predicting
/// bills — and corrected by meter history once a pair has actually run:
/// * scans pay one LIST round plus one GET per provenance object;
/// * SELECT point queries pay one seed SELECT plus one per estimated
///   process (process density assumed 1/64 of items when unprobed), and
///   Q.4 adds a frontier round per estimated depth;
/// * the index pays one seed lookup plus the adjacency pages, counted by
///   both page caps (items and bytes);
/// * the cache pays nothing warm and the index's bill cold (it hydrates
///   through the same lookups), so a cold cache ties the index and wins
///   the tie by declaration order — hydrating on first use.
pub fn estimate(query: QueryKind, plan: Plan, stats: &DomainStats, state: CacheState) -> u64 {
    let est_procs = (stats.main_items / 64).max(1) as u64;
    match (query, plan) {
        (_, Plan::S3Scan) => match query {
            QueryKind::Q2 => 2,
            _ => 1 + stats.prov_objects as u64,
        },
        (QueryKind::Q1, Plan::SdbSelect | Plan::Index | Plan::Cached) => pages(stats.main_items, 0),
        (QueryKind::Q2, Plan::SdbSelect | Plan::Index | Plan::Cached) => 2,
        (QueryKind::Q3, Plan::SdbSelect) => 1 + est_procs,
        (QueryKind::Q4, Plan::SdbSelect) => {
            // Seed select + per-round IN batches over an assumed depth-4
            // expansion reaching ~1/4 of the domain.
            let frontier = (stats.main_items as u64 / 4).max(1);
            1 + est_procs.div_ceil(20) + frontier.div_ceil(20)
        }
        (QueryKind::Q3 | QueryKind::Q4, Plan::Cached) if state == CacheState::Warm => 0,
        (QueryKind::Q3 | QueryKind::Q4, Plan::Index | Plan::Cached) => {
            1 + pages(stats.index_items, stats.index_bytes)
        }
    }
}

/// Picks the cheapest available plan for `query`.
///
/// `available` lists the plans the store's layout supports (layout is
/// the first filter); `force` pins the choice when the caller wants a
/// specific path measured (benchmarks comparing paths). Q.1/Q.2 have no
/// index path — the index stores structure, not records — so `Index`
/// (and `Cached`, which fronts it) degrades to `SdbSelect` for them.
/// `cache_state` is the probed state of the ancestry cache for this
/// query; non-cached plans are always costed under
/// [`CacheState::Uncached`].
pub fn choose(
    query: QueryKind,
    available: &[Plan],
    stats: &DomainStats,
    history: &PlanHistory,
    force: Option<Plan>,
    cache_state: CacheState,
) -> PlanReport {
    let degrade = |p: Plan| match (query, p) {
        (QueryKind::Q1 | QueryKind::Q2, Plan::Index | Plan::Cached) => Plan::SdbSelect,
        _ => p,
    };
    let state_for = |p: Plan| match p {
        Plan::Cached => cache_state,
        _ => CacheState::Uncached,
    };
    let candidates: Vec<Plan> = {
        let mut c: Vec<Plan> = available.iter().map(|p| degrade(*p)).collect();
        c.sort();
        c.dedup();
        c
    };
    assert!(!candidates.is_empty(), "a store always has one access path");
    if let Some(f) = force {
        let f = degrade(f);
        if candidates.contains(&f) {
            return PlanReport::chosen(
                f,
                estimate(query, f, stats, state_for(f)),
                "forced by caller",
            );
        }
    }
    if candidates.len() == 1 {
        let p = candidates[0];
        return PlanReport::chosen(
            p,
            estimate(query, p, stats, state_for(p)),
            "only path for this layout",
        );
    }
    let cost_of = |p: Plan| -> (u64, bool) {
        // A cold cache is always costed by estimate, never by measured
        // history: hydration pays the whole adjacency up front as an
        // investment amortized by later warm hits, and letting that bill
        // stand as the cold path's per-query cost would pin the planner
        // off the cache for every not-yet-hydrated program — the mirror
        // image of the warm-pinning bug the per-state keying fixes.
        if p == Plan::Cached && cache_state == CacheState::Cold {
            return (estimate(query, p, stats, CacheState::Cold), false);
        }
        match history.measured(query, p, state_for(p)) {
            Some(ops) => (ops, true),
            None => (estimate(query, p, stats, state_for(p)), false),
        }
    };
    let mut best: Option<(Plan, u64, bool)> = None;
    for p in candidates {
        let (cost, measured) = cost_of(p);
        let better = match best {
            None => true,
            Some((_, c, _)) => cost < c,
        };
        if better {
            best = Some((p, cost, measured));
        }
    }
    let (plan, cost, measured) = best.expect("non-empty candidates");
    PlanReport::chosen(
        plan,
        cost,
        format!(
            "{} {} ops vs alternatives",
            if measured { "measured" } else { "estimated" },
            cost
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(prov_objects: usize, main_items: usize, index_items: usize) -> DomainStats {
        DomainStats {
            prov_objects,
            main_items,
            index_items,
            index_bytes: 0,
        }
    }

    #[test]
    fn the_byte_cap_decides_the_index_page_count() {
        // 400 full packed items take two pages by the 250-item cap, but
        // at ~10 KB each they fill four 1 MB pages; plus the seed lookup.
        let mut s = stats(0, 2000, 400);
        s.index_bytes = 400 * 10_000;
        for q in [QueryKind::Q3, QueryKind::Q4] {
            assert_eq!(estimate(q, Plan::Index, &s, CacheState::Uncached), 5);
            assert_eq!(estimate(q, Plan::Cached, &s, CacheState::Cold), 5);
        }
        // Lean items: the item cap decides.
        s.index_bytes = 400 * 100;
        assert_eq!(
            estimate(QueryKind::Q4, Plan::Index, &s, CacheState::Uncached),
            3
        );
    }

    #[test]
    fn s3_layout_always_scans() {
        let r = choose(
            QueryKind::Q3,
            &[Plan::S3Scan],
            &stats(100, 0, 0),
            &PlanHistory::default(),
            None,
            CacheState::Uncached,
        );
        assert_eq!(r.plan, Some(Plan::S3Scan));
        assert!(r.reason.contains("only path"));
    }

    #[test]
    fn index_wins_q3_q4_at_scale() {
        let s = stats(0, 2000, 1500);
        for q in [QueryKind::Q3, QueryKind::Q4] {
            let r = choose(
                q,
                &[Plan::SdbSelect, Plan::Index],
                &s,
                &PlanHistory::default(),
                None,
                CacheState::Uncached,
            );
            assert_eq!(r.plan, Some(Plan::Index), "{q:?}");
            assert!(r.cost < estimate(q, Plan::SdbSelect, &s, CacheState::Uncached));
        }
    }

    #[test]
    fn q1_q2_degrade_index_to_select() {
        let s = stats(0, 100, 80);
        for q in [QueryKind::Q1, QueryKind::Q2] {
            for p in [Plan::Index, Plan::Cached] {
                let r = choose(
                    q,
                    &[Plan::SdbSelect, Plan::Index, Plan::Cached],
                    &s,
                    &PlanHistory::default(),
                    Some(p),
                    CacheState::Warm,
                );
                assert_eq!(r.plan, Some(Plan::SdbSelect), "{q:?} forced {p:?}");
            }
        }
    }

    #[test]
    fn measured_history_beats_estimates() {
        let s = stats(0, 2000, 1500);
        let mut h = PlanHistory::default();
        // Index "measured" terrible, select measured great: planner must
        // flip to select despite estimates favoring the index.
        h.record(QueryKind::Q4, Plan::Index, CacheState::Uncached, 500);
        h.record(QueryKind::Q4, Plan::SdbSelect, CacheState::Uncached, 3);
        let r = choose(
            QueryKind::Q4,
            &[Plan::SdbSelect, Plan::Index],
            &s,
            &h,
            None,
            CacheState::Uncached,
        );
        assert_eq!(r.plan, Some(Plan::SdbSelect));
        assert_eq!(r.cost, 3);
        assert!(r.reason.contains("measured"));
    }

    #[test]
    fn force_pins_an_available_plan_only() {
        let s = stats(0, 50, 10);
        let r = choose(
            QueryKind::Q3,
            &[Plan::SdbSelect, Plan::Index],
            &s,
            &PlanHistory::default(),
            Some(Plan::Index),
            CacheState::Uncached,
        );
        assert_eq!(r.plan, Some(Plan::Index));
        assert_eq!(r.reason, "forced by caller");
        // Forcing a plan the layout lacks falls back to planning.
        let r = choose(
            QueryKind::Q3,
            &[Plan::S3Scan],
            &s,
            &PlanHistory::default(),
            Some(Plan::Index),
            CacheState::Uncached,
        );
        assert_eq!(r.plan, Some(Plan::S3Scan));
    }

    #[test]
    fn cold_cache_ties_index_and_wins_the_tie() {
        // A cold cache estimates exactly the index's bill; declaration
        // order breaks the tie toward Cached so it can hydrate.
        let s = stats(0, 2000, 1500);
        for q in [QueryKind::Q3, QueryKind::Q4] {
            let r = choose(
                q,
                &[Plan::SdbSelect, Plan::Index, Plan::Cached],
                &s,
                &PlanHistory::default(),
                None,
                CacheState::Cold,
            );
            assert_eq!(r.plan, Some(Plan::Cached), "{q:?}");
            assert_eq!(r.cost, estimate(q, Plan::Index, &s, CacheState::Uncached));
        }
    }

    #[test]
    fn warm_cache_estimates_zero_and_wins_outright() {
        let s = stats(0, 2000, 1500);
        let r = choose(
            QueryKind::Q4,
            &[Plan::SdbSelect, Plan::Index, Plan::Cached],
            &s,
            &PlanHistory::default(),
            None,
            CacheState::Warm,
        );
        assert_eq!(r.plan, Some(Plan::Cached));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn cold_cached_measurement_cannot_pin_the_planner_for_warm_runs() {
        // A cold hydration measured an expensive store bill. That row is
        // keyed (Q4, Cached, Cold) — a warm planning round must not see
        // it, and an uncached pinned index measurement must live under
        // its own key too.
        let s = stats(0, 2000, 1500);
        let mut h = PlanHistory::default();
        h.record(QueryKind::Q4, Plan::Cached, CacheState::Cold, 400);
        h.record(QueryKind::Q4, Plan::Index, CacheState::Uncached, 10);
        let warm = choose(
            QueryKind::Q4,
            &[Plan::SdbSelect, Plan::Index, Plan::Cached],
            &s,
            &h,
            None,
            CacheState::Warm,
        );
        assert_eq!(warm.plan, Some(Plan::Cached), "warm run ignores cold bill");
        assert_eq!(warm.cost, 0);
        // A cold round ignores it too: hydration is an investment
        // amortized by later hits, so the cold cache is costed by its
        // estimate (tying the index) — the measured 400 must not pin
        // not-yet-hydrated programs onto the bare index forever.
        let cold = choose(
            QueryKind::Q4,
            &[Plan::SdbSelect, Plan::Index, Plan::Cached],
            &s,
            &h,
            None,
            CacheState::Cold,
        );
        assert_eq!(cold.plan, Some(Plan::Cached), "cold bill cannot pin");
        assert!(cold.cost <= estimate(QueryKind::Q4, Plan::Cached, &s, CacheState::Cold));
        assert_eq!(
            h.measured(QueryKind::Q4, Plan::Cached, CacheState::Warm),
            None,
            "warm row untouched by cold/uncached records"
        );
    }
}
