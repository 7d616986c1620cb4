//! The commit-time ancestry index.
//!
//! The SimpleDB layout indexes every *attribute*, so a forward lookup
//! ("what does F depend on?") is one SELECT — but the §5.3 lineage
//! queries walk the graph **backwards** (Q.3 "files output by program",
//! Q.4 "descendants of program") and had to re-discover reverse edges by
//! issuing `input in (...)` SELECTs per frontier round against the full
//! record log. Following the cloud-aware-provenance line of work, this
//! module treats the queryable lineage graph itself as a first-class
//! artifact: P3's commit daemon maintains, in the same commit step that
//! writes provenance items, a lean *ancestry index* in a sibling domain
//! (`{domain}_idx`) holding nothing but the graph structure, as a set of
//! [`IndexEntry`]s:
//!
//! * **Edges** — a dependent carries an `input` edge to an ancestor,
//!   marked when the dependent is a file (Q.3's `type = 'file'` filter,
//!   resolved at commit time);
//! * **Seeds** — a process node is named after a program (Q.3/Q.4's
//!   seed lookup).
//!
//! **One packed item per group.** SimpleDB charges a server slot per
//! *item* written (~310 ms in the calibrated profile), whatever the item
//! holds, so the daemon does not write an item per ancestor: it packs the
//! merged entry set of a whole commit group into as few 256-pair items
//! as fit ([`index_items`]) — usually one or two per group. An item lists
//! its ancestors in a multi-valued `anc` attribute and its programs in a
//! multi-valued `prog` attribute; each edge is one pair `o{slot}` (or
//! `f{slot}` for a file dependent) whose value is the dependent, and each
//! seed is one pair `p{slot}` whose value is the process, where `slot`
//! is the rank (two hex digits) of the ancestor or program among the
//! item's own `anc` or `prog` values. A field thus names its key without
//! repeating it, and `prog` is an equality-SELECT lookup attribute, so a
//! program's seeds are one `prog = '…'` SELECT away.
//!
//! **Idempotent recommits.** Entries are derived **purely from the
//! records of committed transactions** — a dependent's `type` travels
//! with its `input` edges, and a process's `name` travels with its
//! `type` — and packing is a pure function of the entry set, with each
//! item named by the SHA-256 of its packed pairs. A recommitted group
//! re-puts identical pairs into identically named items (SimpleDB
//! deduplicates exact pairs), and two different sets never merge into
//! one item, where the pair cap could truncate either. A recommit whose
//! group came out differently writes its entries again in other items;
//! readers take the union, so a duplicate entry is harmless.
//!
//! **No buckets.** A hub ancestor's fan-in used to be spread over a fixed
//! number of per-ancestor items so one node could not overflow the
//! 256-pair item limit. Packed items have no per-node item to overflow:
//! an ancestor whose edges do not fit in one item continues in the next,
//! with its id repeated in that item's `anc` list.
//!
//! **Crash safety.** The daemon writes the group's base items, then the
//! index (`p3:commit:group:index`), then acknowledges the WAL, so a
//! crash between base and index write leaves unacknowledged
//! transactions whose recommit rewrites both.
//!
//! [`audit_index`] is the machine-checked invariant: rebuild the
//! expected entry set from the committed base records and diff it
//! against the entries the stored items decode to. The chaos explorer
//! runs it after every crash/recovery schedule.

use std::collections::{BTreeMap, BTreeSet};

use cloudprov_cloud::{Attributes, CloudEnv, PutItem, ATTRIBUTE_LIMIT, ITEM_ATTR_LIMIT};
use cloudprov_pass::{Attr, AttrValue, NodeKind, PNodeId, ProvenanceRecord};

use crate::cas::sha256_hex;
use crate::layout::Layout;
use crate::protocol::item_to_records;

/// Suffix appended to the provenance domain to name the index domain.
pub const INDEX_SUFFIX: &str = "_idx";

/// Multi-valued attribute listing the ancestors an item holds edges of.
pub const ATTR_ANC: &str = "anc";
/// Multi-valued attribute listing the programs an item holds seeds of
/// (the seed lookup key).
pub const ATTR_PROG: &str = "prog";

/// Field tag of an edge whose dependent is not a file.
const TAG_OUT: char = 'o';
/// Field tag of an edge whose dependent is a file.
const TAG_FILE: char = 'f';
/// Field tag of a program seed.
const TAG_PROC: char = 'p';

/// Name of the ancestry-index domain for a provenance domain.
pub fn index_domain(domain: &str) -> String {
    format!("{domain}{INDEX_SUFFIX}")
}

/// One entry of the ancestry index.
///
/// Ordered edges first (by ancestor, then dependent), then seeds (by
/// program, then process): the order [`index_items`] packs in.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexEntry {
    /// `dependent` carries an `input` edge to `ancestor`.
    Edge {
        /// The node the edge points to.
        ancestor: PNodeId,
        /// The node carrying the edge.
        dependent: PNodeId,
        /// Whether the dependent is a file.
        file: bool,
    },
    /// Process `process` is named `program`.
    Seed {
        /// The program name.
        program: String,
        /// The process node.
        process: PNodeId,
    },
}

impl IndexEntry {
    /// The node whose own commit wrote this entry: the dependent of an
    /// edge, the process of a seed. (An edge's ancestor may commit on
    /// another shard, in any order.)
    pub fn committed_node(&self) -> PNodeId {
        match self {
            IndexEntry::Edge { dependent, .. } => *dependent,
            IndexEntry::Seed { process, .. } => *process,
        }
    }
}

/// Derives the index entries of one record set.
///
/// Pure function: callers (the commit daemon, the audit) feed it record
/// sets and get the entries the index must hold for them. Edges
/// considered are `input` cross-references — the exact edge set the
/// SELECT frontier-expansion path expands — and a dependent is
/// file-marked when its own `type` record rides in the same record set
/// (which it always does: a version's `type` is stamped when the version
/// is created, before any of its edges).
pub fn index_updates(records: &[ProvenanceRecord]) -> BTreeSet<IndexEntry> {
    let mut kinds: BTreeMap<PNodeId, NodeKind> = BTreeMap::new();
    let mut names: BTreeMap<PNodeId, &str> = BTreeMap::new();
    for r in records {
        match (&r.attr, &r.value) {
            (Attr::Type, v) => {
                let k = match v.to_text().as_str() {
                    "process" => NodeKind::Process,
                    "pipe" => NodeKind::Pipe,
                    _ => NodeKind::File,
                };
                kinds.insert(r.subject, k);
            }
            // Names above the 1 KB attribute limit are spilled to S3 by
            // the base-item path and stored as `@s3:` pointers — neither
            // form is a usable program seed, and indexing either would
            // make the commit-time writer (which sees the raw record)
            // and the audit (which sees the spilled base item) disagree.
            // Both forms are skipped.
            (Attr::Name, AttrValue::Text(n))
                if n.len() <= ATTRIBUTE_LIMIT && !n.starts_with("@s3:") =>
            {
                names.insert(r.subject, n.as_str());
            }
            _ => {}
        }
    }
    let mut entries = BTreeSet::new();
    for r in records {
        if r.attr != Attr::Input {
            continue;
        }
        let Some(ancestor) = r.value.as_xref() else {
            continue;
        };
        entries.insert(IndexEntry::Edge {
            ancestor,
            dependent: r.subject,
            file: kinds.get(&r.subject) == Some(&NodeKind::File),
        });
    }
    for (node, kind) in &kinds {
        if *kind != NodeKind::Process {
            continue;
        }
        if let Some(name) = names.get(node) {
            entries.insert(IndexEntry::Seed {
                program: (*name).to_string(),
                process: *node,
            });
        }
    }
    entries
}

/// Packs `entries` into as few items as the 256-pair limit allows, in
/// entry order: each edge or seed is one pair, plus one `anc` / `prog`
/// pair per key an item holds entries of (see the module docs). Each
/// item is named by the SHA-256 of its pairs, so the same entry set
/// always packs into the same items.
pub fn index_items(entries: &BTreeSet<IndexEntry>) -> Vec<PutItem> {
    let mut items = Vec::new();
    let mut attrs: Attributes = Vec::new();
    let seal = |attrs: &mut Attributes, items: &mut Vec<PutItem>| {
        if attrs.is_empty() {
            return;
        }
        let mut content = String::new();
        for (k, v) in attrs.iter() {
            content.push_str(k);
            content.push('=');
            content.push_str(v);
            content.push('\n');
        }
        items.push(PutItem {
            name: sha256_hex(content.as_bytes()),
            attrs: std::mem::take(attrs),
            replace: false,
        });
    };
    // The key attribute and value the last field belongs to, and that
    // key's slot: its rank among the item's keys of the same attribute
    // (edges sort before seeds, so each attribute's keys are contiguous).
    let mut current: Option<(&str, String)> = None;
    let mut slot = 0usize;
    for entry in entries {
        let (key_attr, key, tag, value) = match entry {
            IndexEntry::Edge {
                ancestor,
                dependent,
                file,
            } => (
                ATTR_ANC,
                ancestor.to_string(),
                if *file { TAG_FILE } else { TAG_OUT },
                dependent,
            ),
            IndexEntry::Seed { program, process } => {
                (ATTR_PROG, program.clone(), TAG_PROC, process)
            }
        };
        let same_key = current
            .as_ref()
            .is_some_and(|(a, k)| *a == key_attr && *k == key);
        if attrs.len() + if same_key { 1 } else { 2 } > ITEM_ATTR_LIMIT {
            seal(&mut attrs, &mut items);
            current = None;
        }
        if current.is_none() || !same_key {
            slot = match &current {
                Some((a, _)) if *a == key_attr => slot + 1,
                _ => 0,
            };
            attrs.push((key_attr.to_string(), key.clone()));
            current = Some((key_attr, key));
        }
        attrs.push((format!("{tag}{slot:02x}"), value.to_string()));
    }
    seal(&mut attrs, &mut items);
    items
}

/// Decodes one stored index item back into its entries. `None` when a
/// pair does not decode (an item no commit daemon wrote).
pub fn decode_index_item(attrs: &[(String, String)]) -> Option<Vec<IndexEntry>> {
    let mut ancestors: Vec<PNodeId> = Vec::new();
    let mut programs: Vec<&str> = Vec::new();
    for (k, v) in attrs {
        match k.as_str() {
            ATTR_ANC => ancestors.push(v.parse().ok()?),
            ATTR_PROG => programs.push(v),
            _ => {}
        }
    }
    // SimpleDB attributes are unordered: slots are ranks, restored by
    // sorting the keys the same way `index_items` visited them.
    ancestors.sort_unstable();
    ancestors.dedup();
    programs.sort_unstable();
    programs.dedup();
    let mut entries = Vec::new();
    for (k, v) in attrs {
        if k == ATTR_ANC || k == ATTR_PROG {
            continue;
        }
        let mut chars = k.chars();
        let tag = chars.next()?;
        let slot = usize::from_str_radix(chars.as_str(), 16).ok()?;
        let node: PNodeId = v.parse().ok()?;
        entries.push(match tag {
            TAG_OUT | TAG_FILE => IndexEntry::Edge {
                ancestor: *ancestors.get(slot)?,
                dependent: node,
                file: tag == TAG_FILE,
            },
            TAG_PROC => IndexEntry::Seed {
                program: (*programs.get(slot)?).to_string(),
                process: node,
            },
            _ => return None,
        });
    }
    Some(entries)
}

/// Outcome of an index ↔ base-record consistency audit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexAudit {
    /// Entries derivable from the base records but absent from the
    /// index — a commit that wrote provenance without its index entries.
    pub missing: Vec<IndexEntry>,
    /// Entries present in the index but not derivable from the base —
    /// phantom entries describing provenance that never committed.
    pub unexpected: Vec<IndexEntry>,
    /// Stored items whose pairs do not decode.
    pub malformed: Vec<String>,
    /// Distinct entries the stored index holds (an entry stored in two
    /// groups' items counts once).
    pub entries: usize,
}

impl IndexAudit {
    /// True when the index and the base records agree exactly.
    pub fn consistent(&self) -> bool {
        self.inconsistencies() == 0
    }

    /// Total disagreements (the chaos explorer's violation count).
    pub fn inconsistencies(&self) -> usize {
        self.missing.len() + self.unexpected.len() + self.malformed.len()
    }
}

/// Diffs the stored ancestry index against what the committed base
/// records imply, entry by distinct entry. Instrumentation-path only
/// (peeks bypass metering and consistency): this is the invariant
/// checker, not a query path.
pub fn audit_index(env: &CloudEnv, layout: &Layout) -> IndexAudit {
    let base: Vec<ProvenanceRecord> = env
        .sdb()
        .peek_items(&layout.domain)
        .iter()
        .flat_map(|(name, attrs)| item_to_records(name, attrs))
        .collect();
    let expected = index_updates(&base);
    let mut audit = IndexAudit::default();
    let mut actual: BTreeSet<IndexEntry> = BTreeSet::new();
    for (name, attrs) in env.sdb().peek_items(&index_domain(&layout.domain)) {
        match decode_index_item(&attrs) {
            Some(entries) => actual.extend(entries),
            None => audit.malformed.push(name),
        }
    }
    audit.entries = actual.len();
    audit.missing = expected.difference(&actual).cloned().collect();
    audit.unexpected = actual.difference(&expected).cloned().collect();
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudprov_cloud::BATCH_LIMIT;
    use cloudprov_pass::Uuid;
    use proptest::prelude::*;

    fn nid(n: u128, v: u32) -> PNodeId {
        PNodeId {
            uuid: Uuid(n),
            version: v,
        }
    }

    fn edge(ancestor: PNodeId, dependent: PNodeId, file: bool) -> IndexEntry {
        IndexEntry::Edge {
            ancestor,
            dependent,
            file,
        }
    }

    fn seed(program: &str, process: PNodeId) -> IndexEntry {
        IndexEntry::Seed {
            program: program.to_string(),
            process,
        }
    }

    /// The entry set the stored `items` decode to.
    fn decoded(items: &[PutItem]) -> BTreeSet<IndexEntry> {
        items
            .iter()
            .flat_map(|i| decode_index_item(&i.attrs).expect("packed items decode"))
            .collect()
    }

    /// proc(2, "gen") reads file(1); file(3) written by proc(2).
    fn txn_records() -> Vec<ProvenanceRecord> {
        vec![
            ProvenanceRecord::new(nid(1, 1), Attr::Type, "file"),
            ProvenanceRecord::new(nid(2, 1), Attr::Type, "process"),
            ProvenanceRecord::new(nid(2, 1), Attr::Name, "gen"),
            ProvenanceRecord::new(nid(2, 1), Attr::Input, nid(1, 1)),
            ProvenanceRecord::new(nid(3, 1), Attr::Type, "file"),
            ProvenanceRecord::new(nid(3, 1), Attr::Name, "/out"),
            ProvenanceRecord::new(nid(3, 1), Attr::Input, nid(2, 1)),
        ]
    }

    #[test]
    fn updates_cover_reverse_edges_and_program_seeds() {
        let entries = index_updates(&txn_records());
        // file(1) lists proc(2) as a non-file dependent; proc(2) lists
        // file(3) as a file dependent; "gen" seeds Q.3 with proc(2).
        // Files with names do NOT become seeds, and nothing else is
        // indexed.
        let want: BTreeSet<IndexEntry> = [
            edge(nid(1, 1), nid(2, 1), false),
            edge(nid(2, 1), nid(3, 1), true),
            seed("gen", nid(2, 1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(entries, want);
        // The packed item carries exactly those entries.
        let items = index_items(&entries);
        assert_eq!(items.len(), 1);
        assert_eq!(decoded(&items), want);
        assert!(!items[0].attrs.iter().any(|(_, v)| v == "/out"));
    }

    #[test]
    fn updates_are_a_pure_function() {
        assert_eq!(index_updates(&txn_records()), index_updates(&txn_records()));
        assert!(index_updates(&[]).is_empty());
        assert!(index_items(&BTreeSet::new()).is_empty());
    }

    #[test]
    fn oversized_and_spilled_names_are_never_seeds() {
        // The raw record (what the commit daemon sees) carries the huge
        // name; the base item (what the audit rebuilds from) carries its
        // spill pointer. Both derivations must agree: no seed either way.
        let p = nid(5, 1);
        let huge = "n".repeat(2048);
        let raw = vec![
            ProvenanceRecord::new(p, Attr::Type, "process"),
            ProvenanceRecord::new(p, Attr::Name, huge),
        ];
        let spilled = vec![
            ProvenanceRecord::new(p, Attr::Type, "process"),
            ProvenanceRecord::new(p, Attr::Name, "@s3:prov/xattr/spilled"),
        ];
        assert!(index_updates(&raw).is_empty());
        assert!(index_updates(&spilled).is_empty());
    }

    #[test]
    fn cross_txn_merge_coalesces_shared_items_without_changing_state() {
        // Two transactions sharing an ancestor pack into fewer items as
        // one group than apart; distinct entries survive, exact repeats
        // (a redelivered transaction in the same group) deduplicate.
        let a_txn = txn_records();
        let mut b_txn = txn_records();
        b_txn.push(ProvenanceRecord::new(nid(4, 1), Attr::Type, "file"));
        b_txn.push(ProvenanceRecord::new(nid(4, 1), Attr::Input, nid(2, 1)));
        let separate: Vec<PutItem> = index_items(&index_updates(&a_txn))
            .into_iter()
            .chain(index_items(&index_updates(&b_txn)))
            .collect();
        let mut group = index_updates(&a_txn);
        group.extend(index_updates(&b_txn));
        let merged = index_items(&group);
        assert!(
            merged.len() < separate.len(),
            "shared entries must coalesce"
        );
        // Entry for entry the merged plan equals the accumulated effect
        // of the separate writes.
        assert_eq!(decoded(&merged), decoded(&separate));
        assert_eq!(decoded(&merged), group);
        // Idempotent: repacking what the items decode to changes nothing.
        assert_eq!(index_items(&decoded(&merged)), merged);
    }

    #[test]
    fn a_hub_with_thousands_of_dependents_round_trips() {
        // 1 500 dependents of one hub in one group: its edges span items
        // (no per-node bucket caps them), and every edge decodes back.
        let hub = nid(42, 1);
        let mut records = vec![ProvenanceRecord::new(hub, Attr::Type, "file")];
        for i in 0..1500u128 {
            let d = nid(1000 + i, 1);
            let kind = if i % 3 == 0 { "process" } else { "file" };
            records.push(ProvenanceRecord::new(d, Attr::Type, kind));
            records.push(ProvenanceRecord::new(d, Attr::Input, hub));
        }
        let entries = index_updates(&records);
        assert_eq!(entries.len(), 1500);
        let items = index_items(&entries);
        assert!(
            items.len() >= 6,
            "1 500 edges cannot fit in {} items",
            items.len()
        );
        assert!(items.iter().all(|i| i.attrs.len() <= ITEM_ATTR_LIMIT));
        assert_eq!(decoded(&items), entries);
    }

    #[test]
    fn malformed_items_do_not_decode() {
        let bad = |k: &str, v: &str| vec![(k.to_string(), v.to_string())];
        assert_eq!(decode_index_item(&bad("o00", "not-a-node")), None);
        // A field whose slot names no key.
        assert_eq!(decode_index_item(&bad("o00", &nid(1, 1).to_string())), None);
        assert_eq!(decode_index_item(&bad("out", &nid(1, 1).to_string())), None);
        assert_eq!(decode_index_item(&[]), Some(Vec::new()));
    }

    /// A random record set over a small node pool: types, program names
    /// and `input` edges, so ancestors and programs repeat across
    /// entries — plus, with `hub`, 1 001 dependents of one pool node.
    fn records_from(
        nodes: &[(u8, u8)],
        names: &[(u8, u8)],
        edges: &[(u8, u8)],
        hub: bool,
    ) -> Vec<ProvenanceRecord> {
        let id = |n: u8| nid(u128::from(n % 48), 1 + u32::from(n % 3));
        let mut records = Vec::new();
        for &(n, kind) in nodes {
            let kind = ["file", "process", "pipe"][usize::from(kind % 3)];
            records.push(ProvenanceRecord::new(id(n), Attr::Type, kind));
        }
        for &(n, program) in names {
            let program = format!("prog-{}", program % 7);
            records.push(ProvenanceRecord::new(id(n), Attr::Name, program));
        }
        for &(d, a) in edges {
            records.push(ProvenanceRecord::new(id(d), Attr::Input, id(a)));
        }
        for i in 0..if hub { 1001 } else { 0 } {
            let d = nid(1000 + i, 1);
            records.push(ProvenanceRecord::new(d, Attr::Type, "file"));
            records.push(ProvenanceRecord::new(d, Attr::Input, id(0)));
        }
        records
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random record sets (some with a 1 001-dependent hub):
        /// every packed item fits the pair cap and every write call the
        /// batch cap; the items decode to
        /// exactly `index_updates`' entries; and packing again yields
        /// identical items (so a recommit re-puts identical pairs).
        #[test]
        fn packing_is_capped_lossless_and_idempotent(
            nodes in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..160),
            names in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..60),
            edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..900),
            hub in any::<bool>(),
        ) {
            let records = records_from(&nodes, &names, &edges, hub);
            let entries = index_updates(&records);
            let items = index_items(&entries);
            for item in &items {
                prop_assert!(item.attrs.len() <= ITEM_ATTR_LIMIT, "{} pairs", item.attrs.len());
            }
            let plan = crate::p3::pack_group_writes(Vec::new(), items.clone(), BATCH_LIMIT, 4);
            for chunk in &plan.index_chunks {
                prop_assert!(chunk.len() <= BATCH_LIMIT);
            }
            prop_assert_eq!(plan.items(), items.len());
            prop_assert_eq!(decoded(&items), entries.clone());
            prop_assert_eq!(index_items(&entries), items.clone());
            let names: BTreeSet<&str> = items.iter().map(|i| i.name.as_str()).collect();
            prop_assert_eq!(names.len(), items.len());
        }
    }
}
