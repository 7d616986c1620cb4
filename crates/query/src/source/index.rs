//! [`IndexSource`] — reads the commit-time ancestry index
//! ([`cloudprov_core::index`]) that P3's commit daemon maintains next to
//! the provenance items.
//!
//! The index domain holds *only* graph structure (reverse `input` edges
//! with a file marker, plus program → process seeds), packed by the
//! commit daemon into one or a few 256-pair items per commit group, so
//! it is tiny next to the record log: fetching the whole reverse
//! adjacency is one SELECT over the domain, usually one page (pages are
//! capped at 250 items or 1 MB), after which Q.4's walk is local —
//! versus one `input in (...)` SELECT per 20 frontier ids per round on
//! the non-indexed path. Q.3 is one seed lookup plus the same adjacency.
//! The seed lookup is an equality SELECT on the items' multi-valued
//! `prog` attribute; it returns every item holding a seed of the
//! program, and the reader keeps that program's seeds. An entry a
//! recommit wrote into two items decodes twice and is kept once.

use std::collections::{BTreeMap, BTreeSet};

use cloudprov_cloud::{quote_literal, Actor, CloudEnv};
use cloudprov_core::index::{decode_index_item, IndexEntry, ATTR_PROG};
use cloudprov_pass::{PNodeId, ProvenanceRecord};

use super::{local, GraphSource, Mode, OutputSet, Result, SdbSelectSource};

/// The materialized reverse adjacency, as stored by the commit daemon.
#[derive(Clone, Debug, Default)]
pub struct RevAdjacency {
    /// Dependents per ancestor, over `input` edges.
    pub out: BTreeMap<PNodeId, Vec<PNodeId>>,
    /// The dependents that are files (Q.3's filter).
    pub files: BTreeSet<PNodeId>,
}

/// Index-backed access: point lookups and bounded walks against the
/// `{domain}_idx` sibling domain; record hydration and full scans
/// delegate to the base domain.
#[derive(Clone, Debug)]
pub struct IndexSource {
    env: CloudEnv,
    index_domain: String,
    /// Non-indexed questions (Q.1 scans, record hydration) fall through
    /// to the base domain.
    base: SdbSelectSource,
}

impl IndexSource {
    /// An index source over `index_domain`, with `domain` as the base
    /// record log for hydration.
    pub fn new(
        env: &CloudEnv,
        domain: &str,
        index_domain: &str,
        parallelism: usize,
        in_batch: usize,
    ) -> IndexSource {
        IndexSource {
            env: env.clone(),
            index_domain: index_domain.to_string(),
            base: SdbSelectSource::new(env, domain, parallelism, in_batch),
        }
    }

    /// Committed index item count (planner statistic; models SimpleDB's
    /// free `DomainMetadata` call, unmetered).
    pub fn item_count(&self) -> usize {
        self.env.sdb().peek_item_count(&self.index_domain)
    }

    /// The decoded entries of every index item `expr` selects; items a
    /// commit daemon could not have written (pairs that do not decode)
    /// are skipped.
    fn entries(&self, expr: &str) -> Result<impl Iterator<Item = IndexEntry>> {
        let items = self.env.sdb().with_actor(Actor::Query).select_all(expr)?;
        Ok(items
            .into_iter()
            .filter_map(|item| decode_index_item(&item.attrs))
            .flatten())
    }

    /// Fetches the whole materialized reverse adjacency: one SELECT over
    /// the index domain, whose items carry nothing but entries.
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    pub fn adjacency(&self) -> Result<RevAdjacency> {
        let mut out: BTreeMap<PNodeId, BTreeSet<PNodeId>> = BTreeMap::new();
        let mut adj = RevAdjacency::default();
        for entry in self.entries(&format!("select * from {}", self.index_domain))? {
            if let IndexEntry::Edge {
                ancestor,
                dependent,
                file,
            } = entry
            {
                out.entry(ancestor).or_default().insert(dependent);
                if file {
                    adj.files.insert(dependent);
                }
            }
        }
        adj.out = out
            .into_iter()
            .map(|(a, deps)| (a, deps.into_iter().collect()))
            .collect();
        Ok(adj)
    }
}

impl GraphSource for IndexSource {
    fn name(&self) -> &'static str {
        "index"
    }

    fn all_records(&self, mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        self.base.all_records(mode)
    }

    fn uuid_records(&self, id: PNodeId) -> Result<Vec<ProvenanceRecord>> {
        self.base.uuid_records(id)
    }

    fn processes_named(&self, program: &str, _mode: Mode) -> Result<Vec<PNodeId>> {
        // One equality lookup on the packed items' `prog` attribute.
        let expr = format!(
            "select * from {} where {} = {}",
            self.index_domain,
            ATTR_PROG,
            quote_literal(program)
        );
        let mut out: BTreeSet<PNodeId> = BTreeSet::new();
        for entry in self.entries(&expr)? {
            match entry {
                IndexEntry::Seed {
                    program: p,
                    process,
                } if p == program => {
                    out.insert(process);
                }
                _ => {}
            }
        }
        Ok(out.into_iter().collect())
    }

    fn direct_outputs(&self, procs: &[PNodeId], _mode: Mode) -> Result<OutputSet> {
        let adj = self.adjacency()?;
        let mut nodes: BTreeSet<PNodeId> = BTreeSet::new();
        for p in procs {
            for dep in adj.out.get(p).map(Vec::as_slice).unwrap_or(&[]) {
                if adj.files.contains(dep) {
                    nodes.insert(*dep);
                }
            }
        }
        // Nodes only: the index identifies the result without touching
        // the record log. Hydrate via `fetch_records` when needed.
        Ok(OutputSet {
            nodes: nodes.into_iter().collect(),
            records: Vec::new(),
        })
    }

    fn descendants_of(&self, seeds: &[PNodeId], _mode: Mode) -> Result<Vec<PNodeId>> {
        // Bounded walk: one adjacency fetch, then a local BFS over the
        // materialized reverse edges.
        let adj = self.adjacency()?;
        Ok(local::walk(seeds, |n| {
            adj.out.get(&n).cloned().unwrap_or_default()
        }))
    }

    fn fetch_records(&self, nodes: &[PNodeId], mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        self.base.fetch_records(nodes, mode)
    }
}
