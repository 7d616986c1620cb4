//! The SimpleDB-like database service (§2.3 "Database Service").
//!
//! Semi-structured data model: *domains* hold *items* identified by an item
//! name; each item carries multi-valued `<attribute, value>` pairs. The
//! same attribute may appear several times with different values (the paper
//! relies on this to store several `input` edges on one provenance item).
//!
//! Limits reproduced from the 2009 service: attribute names and values at
//! most 1 KB (P2/P3 spill larger provenance values into S3), at most
//! 25 items per `BatchPutAttributes`, at most 256 attribute pairs per item,
//! SELECT responses paginated at 250 items / 1 MB with a next-token.
//! Reads and SELECTs are eventually consistent.
//!
//! SELECTs are evaluated in item-name order at a drawn staleness
//! horizon. Those whose WHERE clause implies an equality lookup —
//! `attr = v`, `attr IN (…)`, the same on `itemName()`, or an AND/OR of
//! them — visit only the candidates an index yields instead of the
//! whole domain. The index is per (domain, attribute), built by the
//! first such query that names the attribute and kept current by every
//! later write. It covers the pairs of every version ever written and
//! never forgets one, so it returns a superset of the matching items;
//! each candidate is then checked with the full predicate at the read's
//! horizon, and pages, `LIMIT` and `count(*)` come out exactly as a full
//! scan's. This is host-side work only: a SELECT's modelled latency and
//! price do not depend on it. Attributes no query names are never
//! indexed.

pub mod select;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use cloudprov_sim::SimTime;

use crate::error::{CloudError, Result};
use crate::meter::{Actor, Op, Service, TenantId};
use crate::service::ServiceCore;

use select::{CmpOp, Expr, Operand, Output, Select};

/// SimpleDB's limit on attribute names and values, in bytes.
pub const ATTRIBUTE_LIMIT: usize = 1024;
/// SimpleDB's limit on items per BatchPutAttributes call.
pub const BATCH_LIMIT: usize = 25;
/// SimpleDB's limit on attribute pairs per item.
pub const ITEM_ATTR_LIMIT: usize = 256;
/// Maximum items per SELECT page.
pub const SELECT_PAGE_ITEMS: usize = 250;
/// Maximum response payload per SELECT page, in bytes.
pub const SELECT_PAGE_BYTES: u64 = 1 << 20;

/// Multi-valued attributes of one item, in insertion order.
pub type Attributes = Vec<(String, String)>;

/// Quotes a string as a SELECT string literal: wraps it in single quotes
/// and doubles embedded quotes (the service's `''` escape). Every query
/// built with `format!` must route user-controlled values through this —
/// a program named `o'brien` interpolated raw produces an invalid (or,
/// worse, differently-filtered) query.
pub fn quote_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
    out
}

/// Quotes a string for use inside a `LIKE` pattern literal. Identical to
/// [`quote_literal`] except the caller appends/embeds `%` wildcards
/// *outside* this call; embedded `%` in `s` cannot be escaped by the 2009
/// service and will act as wildcards — callers interpolating arbitrary
/// names into LIKE patterns inherit that service quirk.
pub fn quote_like_prefix(s: &str, suffix: &str) -> String {
    let mut inner = String::with_capacity(s.len() + suffix.len() + 2);
    for c in s.chars() {
        if c == '\'' {
            inner.push('\'');
        }
        inner.push(c);
    }
    inner.push_str(suffix);
    format!("'{inner}'")
}

/// One item to write in a batch: `(item_name, attributes)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PutItem {
    /// Item name (row key).
    pub name: String,
    /// Attribute pairs to add.
    pub attrs: Attributes,
    /// If true, existing values of the written attribute names are
    /// replaced; otherwise values accumulate (SimpleDB's default).
    pub replace: bool,
}

/// An item returned by a SELECT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectedItem {
    /// Item name.
    pub name: String,
    /// Attributes (empty for `select itemName()`).
    pub attrs: Attributes,
}

/// One page of SELECT results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectPage {
    /// Items on this page.
    pub items: Vec<SelectedItem>,
    /// For `select count(*)`: the count.
    pub count: Option<usize>,
    /// Token for the next page, if the scan is not finished.
    pub next_token: Option<String>,
}

#[derive(Clone, Default)]
struct ItemVersion {
    published: SimTime,
    /// `None` is a deletion tombstone; `Some` is the full attribute state.
    attrs: Option<Attributes>,
}

#[derive(Default)]
struct ItemHistory {
    versions: Vec<ItemVersion>,
}

impl ItemHistory {
    fn visible_at(&self, horizon: SimTime) -> Option<&Attributes> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.published <= horizon)
            .and_then(|v| v.attrs.as_ref())
    }

    fn latest(&self) -> Option<&Attributes> {
        self.versions.last().and_then(|v| v.attrs.as_ref())
    }

    fn prune(&mut self, oldest_horizon: SimTime) {
        let keep_from = self
            .versions
            .iter()
            .rposition(|v| v.published <= oldest_horizon)
            .unwrap_or(0);
        if keep_from > 0 {
            self.versions.drain(..keep_from);
        }
    }
}

/// One equality index: value → names of every item any written version
/// of which carried `(attribute, value)`.
type AttrIndex = HashMap<String, BTreeSet<String>>;

/// A domain's items plus the equality indexes its SELECTs have asked for.
#[derive(Default)]
struct Domain {
    items: BTreeMap<String, ItemHistory>,
    /// Per-attribute equality indexes (see the module docs). Entries
    /// are never removed: a replaced value, a deleted item or a pruned
    /// version keeps its names, so a lookup yields a superset of the
    /// items that match at any horizon.
    index: HashMap<String, AttrIndex>,
}

impl Domain {
    /// Applies one item write at `now`, pruning versions no read with a
    /// staleness of at most `max_staleness` can still see.
    fn put(&mut self, item: PutItem, now: SimTime, max_staleness: Duration) {
        for (k, v) in &item.attrs {
            if let Some(idx) = self.index.get_mut(k) {
                idx.entry(v.clone()).or_default().insert(item.name.clone());
            }
        }
        let hist = self.items.entry(item.name.clone()).or_default();
        let merged = apply_put(hist.latest(), &item);
        hist.versions.push(ItemVersion {
            published: now,
            attrs: Some(merged),
        });
        hist.prune(horizon(now, max_staleness));
    }

    /// Tombstones an item at `now` (a no-op for an unknown item).
    fn delete(&mut self, name: &str, now: SimTime) {
        if let Some(hist) = self.items.get_mut(name) {
            hist.versions.push(ItemVersion {
                published: now,
                attrs: None,
            });
        }
    }

    /// Builds the index of every attribute `expr` could look up.
    fn ensure_indexes(&mut self, expr: &Expr) {
        match expr {
            Expr::Cmp {
                operand: Operand::Attr(attr),
                op: CmpOp::Eq,
                ..
            }
            | Expr::In {
                operand: Operand::Attr(attr),
                ..
            } if !self.index.contains_key(attr) => {
                let mut idx = AttrIndex::new();
                for (name, hist) in &self.items {
                    for attrs in hist.versions.iter().filter_map(|v| v.attrs.as_ref()) {
                        for (_, v) in attrs.iter().filter(|(k, _)| k == attr) {
                            idx.entry(v.clone()).or_default().insert(name.clone());
                        }
                    }
                }
                self.index.insert(attr.clone(), idx);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.ensure_indexes(a);
                self.ensure_indexes(b);
            }
            _ => {}
        }
    }

    /// Names of a superset of the items `expr` can match, from the
    /// indexes [`Domain::ensure_indexes`] built — `None` when the
    /// predicate implies no equality lookup and the page must scan.
    fn candidates(&self, expr: &Expr) -> Option<BTreeSet<&str>> {
        let lookup = |operand: &Operand, values: &[String]| -> Option<BTreeSet<&str>> {
            Some(match operand {
                Operand::ItemName => values
                    .iter()
                    .filter_map(|v| self.items.get_key_value(v).map(|(k, _)| k.as_str()))
                    .collect(),
                Operand::Attr(attr) => {
                    let idx = self.index.get(attr)?;
                    values
                        .iter()
                        .filter_map(|v| idx.get(v))
                        .flatten()
                        .map(String::as_str)
                        .collect()
                }
            })
        };
        match expr {
            Expr::Cmp {
                operand,
                op: CmpOp::Eq,
                value,
            } => lookup(operand, std::slice::from_ref(value)),
            Expr::In { operand, values } => lookup(operand, values),
            Expr::And(a, b) => match (self.candidates(a), self.candidates(b)) {
                (Some(x), Some(y)) => Some(if x.len() <= y.len() { x } else { y }),
                (x, y) => x.or(y),
            },
            Expr::Or(a, b) => {
                let mut x = self.candidates(a)?;
                x.extend(self.candidates(b)?);
                Some(x)
            }
            _ => None,
        }
    }

    /// Evaluates one SELECT page at `horizon`, resuming after the
    /// `start` matches earlier pages returned. With `indexed`, only the
    /// candidates an index lookup yields are visited — still in name
    /// order and still under the full predicate, so pages, `LIMIT` and
    /// `count(*)` come out exactly as the full scan's. Returns the page
    /// and its response size.
    fn select_page(
        &mut self,
        query: &Select,
        start: usize,
        horizon: SimTime,
        indexed: bool,
    ) -> (SelectPage, u64) {
        let candidates = match (&query.predicate, indexed) {
            (Some(p), true) => {
                self.ensure_indexes(p);
                self.candidates(p)
            }
            _ => None,
        };
        let visit: Box<dyn Iterator<Item = (&String, &ItemHistory)>> = match &candidates {
            Some(names) => Box::new(names.iter().filter_map(|n| self.items.get_key_value(*n))),
            None => Box::new(self.items.iter()),
        };
        let mut items = Vec::new();
        let mut bytes: u64 = 0;
        let mut matched = 0usize;
        let mut next = None;
        let limit = query.limit.unwrap_or(usize::MAX);
        for (name, hist) in visit {
            let Some(attrs) = hist.visible_at(horizon) else {
                continue;
            };
            let matches = query
                .predicate
                .as_ref()
                .is_none_or(|p| p.matches(name, attrs));
            if !matches {
                continue;
            }
            matched += 1;
            if matched <= start {
                continue;
            }
            if query.output == Output::Count {
                continue;
            }
            if matched - start > limit {
                break;
            }
            let item_bytes = name.len() as u64
                + if query.output == Output::All {
                    attrs_size(attrs)
                } else {
                    0
                };
            if items.len() >= SELECT_PAGE_ITEMS || bytes + item_bytes > SELECT_PAGE_BYTES {
                next = Some(matched - 1); // resume before this item
                break;
            }
            bytes += item_bytes;
            items.push(SelectedItem {
                name: name.clone(),
                attrs: if query.output == Output::All {
                    attrs.clone()
                } else {
                    Vec::new()
                },
            });
        }
        let count = (query.output == Output::Count).then_some(matched);
        let page = SelectPage {
            items,
            count,
            next_token: next.map(|n| n.to_string()),
        };
        (page, bytes.max(16))
    }
}

/// The latest instant a read `staleness` behind `now` can see.
fn horizon(now: SimTime, staleness: Duration) -> SimTime {
    SimTime::from_micros(now.as_micros().saturating_sub(staleness.as_micros() as u64))
}

#[derive(Default)]
struct DbState {
    domains: BTreeMap<String, Domain>,
}

/// Handle to the simulated database. Cloning is cheap; see
/// [`Database::with_actor`].
#[derive(Clone)]
pub struct Database {
    core: Arc<ServiceCore>,
    state: Arc<Mutex<DbState>>,
    actor: Actor,
    tenant: Option<TenantId>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("actor", &self.actor)
            .finish()
    }
}

fn attrs_size(attrs: &Attributes) -> u64 {
    attrs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
}

fn validate_item(item: &PutItem) -> Result<()> {
    for (k, v) in &item.attrs {
        if k.len() > ATTRIBUTE_LIMIT {
            return Err(CloudError::AttributeTooLarge {
                item: item.name.clone(),
                size: k.len(),
                limit: ATTRIBUTE_LIMIT,
            });
        }
        if v.len() > ATTRIBUTE_LIMIT {
            return Err(CloudError::AttributeTooLarge {
                item: item.name.clone(),
                size: v.len(),
                limit: ATTRIBUTE_LIMIT,
            });
        }
    }
    Ok(())
}

fn apply_put(existing: Option<&Attributes>, item: &PutItem) -> Attributes {
    let mut attrs = existing.cloned().unwrap_or_default();
    if item.replace {
        let names: std::collections::BTreeSet<&str> =
            item.attrs.iter().map(|(k, _)| k.as_str()).collect();
        attrs.retain(|(k, _)| !names.contains(k.as_str()));
    }
    for (k, v) in &item.attrs {
        // SimpleDB deduplicates exact (name, value) repeats.
        if !attrs.iter().any(|(ek, ev)| ek == k && ev == v) {
            attrs.push((k.clone(), v.clone()));
        }
    }
    attrs.truncate(ITEM_ATTR_LIMIT);
    attrs
}

impl Database {
    pub(crate) fn new(core: Arc<ServiceCore>) -> Database {
        debug_assert_eq!(core.service(), Service::Database);
        Database {
            core,
            state: Arc::new(Mutex::new(DbState::default())),
            actor: Actor::Client,
            tenant: None,
        }
    }

    /// Returns a handle whose calls are metered under `actor`.
    pub fn with_actor(&self, actor: Actor) -> Database {
        Database {
            actor,
            ..self.clone()
        }
    }

    /// Returns a handle whose calls are additionally attributed to
    /// `tenant` (fleet accounting).
    pub fn with_tenant(&self, tenant: TenantId) -> Database {
        Database {
            tenant: Some(tenant),
            ..self.clone()
        }
    }

    /// Creates a domain (idempotent). Not metered as a paid op — domain
    /// creation is a one-time administrative call.
    pub fn create_domain(&self, domain: &str) {
        self.state
            .lock()
            .domains
            .entry(domain.to_string())
            .or_default();
    }

    /// Writes attributes to a single item.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchDomain`] if the domain was not created;
    /// [`CloudError::AttributeTooLarge`] if a name or value exceeds 1 KB.
    pub fn put_attributes(&self, domain: &str, item: PutItem) -> Result<()> {
        self.batch_put_attributes(domain, vec![item])
    }

    /// Writes up to 25 items in one call (`BatchPutAttributes`).
    ///
    /// # Errors
    ///
    /// [`CloudError::BatchTooLarge`] beyond 25 items, plus the
    /// [`Database::put_attributes`] errors. Validation happens before any
    /// latency is charged, as the real service rejected oversized requests
    /// up front; the batch applies atomically.
    pub fn batch_put_attributes(&self, domain: &str, items: Vec<PutItem>) -> Result<()> {
        if items.len() > BATCH_LIMIT {
            return Err(CloudError::BatchTooLarge {
                items: items.len(),
                limit: BATCH_LIMIT,
            });
        }
        for item in &items {
            validate_item(item)?;
        }
        let bytes_in: u64 = items
            .iter()
            .map(|i| i.name.len() as u64 + attrs_size(&i.attrs))
            .sum();
        let n = items.len();
        let state = self.state.clone();
        let core = self.core.clone();
        let domain = domain.to_string();
        self.core.call(
            self.actor,
            self.tenant,
            Op::DbPut,
            n,
            bytes_in,
            move |now| {
                let mut st = state.lock();
                let dom = st
                    .domains
                    .get_mut(&domain)
                    .ok_or(CloudError::NoSuchDomain(domain.clone()))?;
                for item in items {
                    dom.put(item, now, core.max_staleness());
                }
                Ok(((), 0))
            },
        )
    }

    /// Reads all attributes of one item. Eventually consistent: an empty
    /// result may mean the item is not yet visible.
    ///
    /// # Errors
    ///
    /// [`CloudError::NoSuchDomain`] if the domain was not created.
    pub fn get_attributes(&self, domain: &str, item_name: &str) -> Result<Attributes> {
        let staleness = self.core.draw_staleness();
        let state = self.state.clone();
        let domain = domain.to_string();
        let item_name = item_name.to_string();
        self.core
            .call(self.actor, self.tenant, Op::DbGet, 0, 0, move |now| {
                let st = state.lock();
                let dom = st
                    .domains
                    .get(&domain)
                    .ok_or(CloudError::NoSuchDomain(domain.clone()))?;
                let attrs = dom
                    .items
                    .get(&item_name)
                    .and_then(|h| h.visible_at(horizon(now, staleness)))
                    .cloned()
                    .unwrap_or_default();
                let bytes = attrs_size(&attrs);
                Ok((attrs, bytes))
            })
    }

    /// Deletes an entire item (all attributes). Used by the
    /// data-independent-persistence experiments.
    pub fn delete_item(&self, domain: &str, item_name: &str) -> Result<()> {
        let state = self.state.clone();
        let domain = domain.to_string();
        let item_name = item_name.to_string();
        self.core
            .call(self.actor, self.tenant, Op::Delete, 0, 0, move |now| {
                let mut st = state.lock();
                let dom = st
                    .domains
                    .get_mut(&domain)
                    .ok_or(CloudError::NoSuchDomain(domain.clone()))?;
                dom.delete(&item_name, now);
                Ok(((), 0))
            })
    }

    /// Executes one page of a SELECT. Pass the previous page's
    /// `next_token` to continue; pages are limited to 250 items or 1 MB,
    /// whichever is hit first (so large scans decompose into several
    /// sequential operations, as §5.3 describes for Q.1).
    ///
    /// # Errors
    ///
    /// [`CloudError::InvalidQuery`] on syntax errors,
    /// [`CloudError::NoSuchDomain`] for unknown domains.
    pub fn select(&self, expression: &str, next_token: Option<&str>) -> Result<SelectPage> {
        let query: Select = select::parse(expression)?;
        let start: usize = match next_token {
            Some(t) => t
                .parse()
                .map_err(|_| CloudError::InvalidQuery(format!("bad next token '{t}'")))?,
            None => 0,
        };
        let staleness = self.core.draw_staleness();
        let state = self.state.clone();
        let bytes_in = expression.len() as u64;
        self.core.call(
            self.actor,
            self.tenant,
            Op::DbSelect,
            0,
            bytes_in,
            move |now| {
                let mut st = state.lock();
                let dom = st
                    .domains
                    .get_mut(&query.domain)
                    .ok_or_else(|| CloudError::NoSuchDomain(query.domain.clone()))?;
                Ok(dom.select_page(&query, start, horizon(now, staleness), true))
            },
        )
    }

    /// Runs a SELECT to completion, following pagination sequentially (one
    /// page must finish before the next starts, as §5.3 notes for Q.1).
    pub fn select_all(&self, expression: &str) -> Result<Vec<SelectedItem>> {
        let mut out = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let page = self.select(expression, token.as_deref())?;
            out.extend(page.items);
            match page.next_token {
                Some(t) => token = Some(t),
                None => return Ok(out),
            }
        }
    }

    /// Instrumentation: latest committed attributes, bypassing consistency,
    /// latency and metering. For tests and invariant checkers only.
    pub fn peek_item(&self, domain: &str, item_name: &str) -> Option<Attributes> {
        let st = self.state.lock();
        st.domains
            .get(domain)?
            .items
            .get(item_name)
            .and_then(|h| h.latest())
            .cloned()
    }

    /// Instrumentation: every committed item (name + latest attributes)
    /// in a domain, bypassing consistency, latency and metering. For
    /// tests and invariant checkers (the chaos explorer's index audit)
    /// only.
    pub fn peek_items(&self, domain: &str) -> Vec<(String, Attributes)> {
        let st = self.state.lock();
        st.domains
            .get(domain)
            .map(|d| {
                d.items
                    .iter()
                    .filter_map(|(name, h)| h.latest().map(|a| (name.clone(), a.clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Bytes of the committed items' names, attribute names and values
    /// in a domain — the size fields of SimpleDB's free `DomainMetadata`
    /// call, unmetered like [`Database::peek_item_count`].
    pub fn peek_domain_bytes(&self, domain: &str) -> u64 {
        let st = self.state.lock();
        st.domains
            .get(domain)
            .map(|d| {
                d.items
                    .iter()
                    .filter_map(|(name, h)| h.latest().map(|a| name.len() as u64 + attrs_size(a)))
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Instrumentation: number of committed items in a domain.
    pub fn peek_item_count(&self, domain: &str) -> usize {
        let st = self.state.lock();
        st.domains
            .get(domain)
            .map(|d| d.items.values().filter(|h| h.latest().is_some()).count())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultHandle;
    use crate::meter::Meter;
    use crate::profile::AwsProfile;
    use cloudprov_sim::Sim;

    fn db(profile: AwsProfile) -> (Sim, Database) {
        let sim = Sim::new();
        let core = ServiceCore::new(
            &sim,
            Service::Database,
            &profile,
            Meter::new(),
            FaultHandle::new(),
            cloudprov_trace::Tracer::new(&sim),
        );
        let d = Database::new(core);
        d.create_domain("prov");
        (sim, d)
    }

    fn item(name: &str, pairs: &[(&str, &str)]) -> PutItem {
        PutItem {
            name: name.to_string(),
            attrs: pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            replace: false,
        }
    }

    #[test]
    fn paper_example_roundtrip() {
        // §4.3.2: item uuid1_2 with name=foo, input=bar_2, type=file.
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes(
            "prov",
            item(
                "uuid1_2",
                &[("name", "foo"), ("input", "bar_2"), ("type", "file")],
            ),
        )
        .unwrap();
        let attrs = db.get_attributes("prov", "uuid1_2").unwrap();
        assert_eq!(attrs.len(), 3);
        assert!(attrs.contains(&("input".to_string(), "bar_2".to_string())));
    }

    #[test]
    fn multi_valued_attributes_accumulate() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("i", &[("input", "a_1")]))
            .unwrap();
        db.put_attributes("prov", item("i", &[("input", "b_3")]))
            .unwrap();
        let attrs = db.get_attributes("prov", "i").unwrap();
        assert_eq!(
            attrs,
            vec![
                ("input".to_string(), "a_1".to_string()),
                ("input".to_string(), "b_3".to_string())
            ]
        );
    }

    #[test]
    fn replace_overwrites_only_named_attributes() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("i", &[("a", "1"), ("b", "2")]))
            .unwrap();
        db.put_attributes(
            "prov",
            PutItem {
                name: "i".into(),
                attrs: vec![("a".into(), "9".into())],
                replace: true,
            },
        )
        .unwrap();
        let attrs = db.get_attributes("prov", "i").unwrap();
        assert!(attrs.contains(&("a".to_string(), "9".to_string())));
        assert!(!attrs.contains(&("a".to_string(), "1".to_string())));
        assert!(attrs.contains(&("b".to_string(), "2".to_string())));
    }

    #[test]
    fn batch_limit_enforced() {
        let (_sim, db) = db(AwsProfile::instant());
        let items: Vec<PutItem> = (0..26)
            .map(|i| item(&format!("i{i}"), &[("a", "1")]))
            .collect();
        let err = db.batch_put_attributes("prov", items).unwrap_err();
        assert!(matches!(
            err,
            CloudError::BatchTooLarge {
                items: 26,
                limit: 25
            }
        ));
    }

    #[test]
    fn attribute_size_limit_enforced() {
        let (_sim, db) = db(AwsProfile::instant());
        let big = "x".repeat(1025);
        let err = db
            .put_attributes("prov", item("i", &[("a", big.as_str())]))
            .unwrap_err();
        assert!(matches!(err, CloudError::AttributeTooLarge { .. }));
    }

    #[test]
    fn unknown_domain_rejected() {
        let (_sim, db) = db(AwsProfile::instant());
        let err = db
            .put_attributes("nope", item("i", &[("a", "1")]))
            .unwrap_err();
        assert!(matches!(err, CloudError::NoSuchDomain(_)));
    }

    #[test]
    fn select_filters_and_projects() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes(
            "prov",
            item("p1", &[("type", "process"), ("name", "blast")]),
        )
        .unwrap();
        db.put_attributes("prov", item("f1", &[("type", "file"), ("input", "p1")]))
            .unwrap();
        let got = db
            .select_all("select * from prov where type = 'process'")
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "p1");

        let names = db
            .select_all("select itemName() from prov where input = 'p1'")
            .unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].name, "f1");
        assert!(names[0].attrs.is_empty());
    }

    #[test]
    fn select_count() {
        let (_sim, db) = db(AwsProfile::instant());
        for i in 0..7 {
            db.put_attributes("prov", item(&format!("i{i}"), &[("t", "x")]))
                .unwrap();
        }
        let page = db.select("select count(*) from prov", None).unwrap();
        assert_eq!(page.count, Some(7));
        assert!(page.items.is_empty());
    }

    #[test]
    fn select_paginates_at_item_limit() {
        let (_sim, db) = db(AwsProfile::instant());
        for i in 0..600 {
            db.put_attributes("prov", item(&format!("i{i:04}"), &[("a", "1")]))
                .unwrap();
        }
        let p1 = db.select("select * from prov", None).unwrap();
        assert_eq!(p1.items.len(), SELECT_PAGE_ITEMS);
        assert!(p1.next_token.is_some());
        let all = db.select_all("select * from prov").unwrap();
        assert_eq!(all.len(), 600);
    }

    #[test]
    fn select_paginates_at_byte_limit() {
        let (_sim, db) = db(AwsProfile::instant());
        let chunk = "v".repeat(1000);
        // ~6 KB per item: the 1 MB page cap binds before the 250-item cap
        // (250 × 6 KB ≈ 1.5 MB > 1 MB).
        for i in 0..1500 {
            db.put_attributes(
                "prov",
                PutItem {
                    name: format!("i{i:05}"),
                    attrs: (0..6)
                        .map(|j| (format!("data{j}"), format!("{chunk}{i}")))
                        .collect(),
                    replace: false,
                },
            )
            .unwrap();
        }
        let mut pages = 0;
        let mut token: Option<String> = None;
        let mut total = 0;
        loop {
            let page = db.select("select * from prov", token.as_deref()).unwrap();
            pages += 1;
            total += page.items.len();
            match page.next_token {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert_eq!(total, 1500);
        assert!(pages > 6, "expected byte-capped pages, got {pages}");
    }

    #[test]
    fn select_limit_clause() {
        let (_sim, db) = db(AwsProfile::instant());
        for i in 0..10 {
            db.put_attributes("prov", item(&format!("i{i}"), &[("a", "1")]))
                .unwrap();
        }
        let page = db.select("select * from prov limit 3", None).unwrap();
        assert_eq!(page.items.len(), 3);
    }

    #[test]
    fn delete_item_removes_it() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("i", &[("a", "1")])).unwrap();
        db.delete_item("prov", "i").unwrap();
        assert!(db.get_attributes("prov", "i").unwrap().is_empty());
        assert_eq!(db.peek_item_count("prov"), 0);
    }

    #[test]
    fn eventual_consistency_converges_for_items() {
        let mut profile = AwsProfile::instant();
        profile.consistency =
            crate::profile::ConsistencyParams::eventual(std::time::Duration::from_secs(10));
        let (sim, db) = db(profile);
        db.put_attributes("prov", item("i", &[("a", "1")])).unwrap();
        let mut stale_seen = false;
        for _ in 0..200 {
            if db.get_attributes("prov", "i").unwrap().is_empty() {
                stale_seen = true;
                break;
            }
        }
        assert!(stale_seen);
        sim.sleep(std::time::Duration::from_secs(11));
        assert!(!db.get_attributes("prov", "i").unwrap().is_empty());
    }

    #[test]
    fn quote_literal_escapes_embedded_quotes() {
        assert_eq!(quote_literal("blast"), "'blast'");
        assert_eq!(quote_literal("o'brien"), "'o''brien'");
        assert_eq!(quote_literal(""), "''");
        // Round-trip through the parser: the literal comes back verbatim.
        let q = format!(
            "select * from prov where name = {}",
            quote_literal("o'brien")
        );
        let parsed = select::parse(&q).unwrap();
        let p = parsed.predicate.unwrap();
        assert!(p.matches("i", &[("name".to_string(), "o'brien".to_string())]));
        assert!(!p.matches("i", &[("name".to_string(), "obrien".to_string())]));
    }

    #[test]
    fn quote_like_prefix_escapes_and_appends_wildcard() {
        assert_eq!(quote_like_prefix("abc", "%"), "'abc%'");
        assert_eq!(quote_like_prefix("o'b", "_%"), "'o''b_%'");
        let q = format!(
            "select * from prov where itemName() like {}",
            quote_like_prefix("it's", "%")
        );
        let parsed = select::parse(&q).unwrap();
        let p = parsed.predicate.unwrap();
        assert!(p.matches("it's here", &[]));
        assert!(!p.matches("its here", &[]));
    }

    #[test]
    fn peek_items_lists_latest_state() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("a", &[("x", "1")])).unwrap();
        db.put_attributes("prov", item("b", &[("y", "2")])).unwrap();
        db.delete_item("prov", "b").unwrap();
        let items = db.peek_items("prov");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].0, "a");
        assert!(db.peek_items("nope").is_empty());
    }

    #[test]
    fn equality_selects_follow_later_writes_and_replaces() {
        let (_sim, db) = db(AwsProfile::instant());
        db.put_attributes("prov", item("i1", &[("sha", "a"), ("sha", "b")]))
            .unwrap();
        let names = |q: &str| -> Vec<String> {
            db.select_all(q)
                .unwrap()
                .into_iter()
                .map(|i| i.name)
                .collect()
        };
        // The first lookup builds the `sha` index; later writes join it.
        assert_eq!(names("select * from prov where sha = 'b'"), ["i1"]);
        db.put_attributes("prov", item("i0", &[("sha", "b")]))
            .unwrap();
        assert_eq!(
            names("select * from prov where sha in ('b', 'zz')"),
            ["i0", "i1"]
        );
        // A replaced value stays indexed but no longer matches.
        db.put_attributes(
            "prov",
            PutItem {
                name: "i0".into(),
                attrs: vec![("sha".into(), "c".into())],
                replace: true,
            },
        )
        .unwrap();
        assert_eq!(names("select * from prov where sha = 'b'"), ["i1"]);
        assert_eq!(
            names("select itemName() from prov where itemName() in ('i0', 'nope')"),
            ["i0"]
        );
    }

    #[test]
    fn indexed_select_pages_like_a_scan() {
        let (_sim, db) = db(AwsProfile::instant());
        for i in 0..600 {
            let v = if i % 3 == 0 { "hit" } else { "miss" };
            db.put_attributes("prov", item(&format!("i{i:04}"), &[("a", v)]))
                .unwrap();
        }
        let q = select::parse("select * from prov where a = 'hit'").unwrap();
        let now = SimTime::from_micros(u64::MAX / 2);
        let mut st = db.state.lock();
        let dom = st.domains.get_mut("prov").unwrap();
        let mut start = 0;
        let mut pages = 0;
        loop {
            let indexed = dom.select_page(&q, start, now, true);
            assert_eq!(indexed, dom.select_page(&q, start, now, false));
            pages += 1;
            match indexed.0.next_token {
                Some(t) => start = t.parse().unwrap(),
                None => break,
            }
        }
        assert_eq!(pages, 1);
        assert_eq!(start, 0);
        let q = select::parse("select itemName() from prov where a in ('hit', 'miss')").unwrap();
        let (page, _) = dom.select_page(&q, 0, now, true);
        assert_eq!(page.items.len(), SELECT_PAGE_ITEMS);
        assert_eq!(page, dom.select_page(&q, 0, now, false).0);
        let (rest, _) = dom.select_page(&q, SELECT_PAGE_ITEMS, now, true);
        assert_eq!(rest, dom.select_page(&q, SELECT_PAGE_ITEMS, now, false).0);
    }

    #[test]
    fn batch_put_is_atomic_for_valid_batches() {
        let (_sim, db) = db(AwsProfile::instant());
        let items = vec![item("a", &[("x", "1")]), item("b", &[("x", "2")])];
        db.batch_put_attributes("prov", items).unwrap();
        assert_eq!(db.peek_item_count("prov"), 2);
        // Names, attribute names and values: "a" + "x" + "1", twice.
        assert_eq!(db.peek_domain_bytes("prov"), 6);
        db.delete_item("prov", "a").unwrap();
        assert_eq!(db.peek_domain_bytes("prov"), 3);
        assert_eq!(db.peek_domain_bytes("absent"), 0);
    }
}

#[cfg(test)]
mod index_props {
    use super::*;
    use proptest::prelude::*;

    const NAMES: [&str; 6] = ["a1", "a2", "b1", "b2", "c", "ab"];
    const ATTRS: [&str; 3] = ["k", "m", "sha"];
    const VALUES: [&str; 4] = ["x", "y", "z", "xy"];

    /// A WHERE clause over the small name/attribute/value universe:
    /// indexable shapes (`=`, `IN`, `itemName()` lookups and prefix
    /// LIKEs, and their AND/OR) next to ones that must scan.
    fn predicate(shape: u8, a: usize, v: usize, w: usize) -> Option<String> {
        let (attr, val, val2) = (ATTRS[a], VALUES[v], VALUES[w]);
        let name = NAMES[(v + w) % NAMES.len()];
        Some(match shape {
            0 => return None,
            1 => format!("{attr} = '{val}'"),
            2 => format!("{attr} in ('{val}', '{val2}')"),
            3 => format!("itemName() = '{name}'"),
            4 => format!("itemName() in ('{name}', 'a2', 'zz')"),
            5 => format!("itemName() like '{}%' and k = '{val}'", &name[..1]),
            6 => format!("{attr} = '{val}' and k in ('{val2}', 'y')"),
            7 => format!("{attr} = '{val}' or itemName() = '{name}'"),
            8 => format!("{attr} = '{val}' or m != '{val2}'"),
            _ => format!("not {attr} = '{val}'"),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After any history of puts (accumulating or `replace`),
        /// deletes and prunes, every SELECT answered from the lazily
        /// built, write-maintained index returns exactly the page the
        /// full scan returns — at every staleness horizon, `LIMIT`,
        /// resume offset (`next_token`) and projection, `count(*)`
        /// included.
        #[test]
        fn indexed_select_equals_a_full_scan(
            ops in proptest::collection::vec(
                (
                    (0u8..4, 0usize..6, 0usize..3, 0usize..4),
                    (any::<bool>(), 0u64..4, 0u8..10, 0u8..3),
                    (0usize..4, 0usize..5, 0usize..4, 0u64..8),
                ),
                1..40,
            ),
        ) {
            let max_staleness = Duration::from_secs(5);
            let mut dom = Domain::default();
            let mut now = 0u64;
            for ((kind, n, a, v), (replace, dt, shape, out), (w, limit, start, stale)) in ops {
                now += dt;
                let at = SimTime::from_micros(now * 1_000_000);
                let name = NAMES[n].to_string();
                match kind {
                    0 | 1 => dom.put(
                        PutItem {
                            name,
                            attrs: vec![
                                (ATTRS[a].into(), VALUES[v].into()),
                                (ATTRS[(a + 1) % 3].into(), VALUES[w].into()),
                            ],
                            replace,
                        },
                        at,
                        max_staleness,
                    ),
                    2 => dom.put(
                        PutItem {
                            name,
                            attrs: vec![(ATTRS[a].into(), VALUES[v].into())],
                            replace: true,
                        },
                        at,
                        max_staleness,
                    ),
                    _ => dom.delete(&name, at),
                }
                let output = ["*", "itemName()", "count(*)"][out as usize];
                let mut q = format!("select {output} from prov");
                if let Some(p) = predicate(shape, a, v, w) {
                    q.push_str(&format!(" where {p}"));
                }
                if limit > 0 {
                    q.push_str(&format!(" limit {limit}"));
                }
                let query = select::parse(&q).unwrap();
                let horizon = SimTime::from_micros(now.saturating_sub(stale) * 1_000_000);
                let indexed = dom.select_page(&query, start, horizon, true);
                let scanned = dom.select_page(&query, start, horizon, false);
                prop_assert_eq!(indexed, scanned, "{} at {:?} from {}", q, horizon, start);
            }
        }
    }
}
