//! What one execution of a workload on a fresh simulation reports, and
//! the pieces every workload shares.

use std::collections::BTreeMap;
use std::time::Duration;

use cloudprov_cloud::{PriceBook, Service, UsageReport};

use crate::stats::Ratio;

/// One workload execution on a fresh simulation. Everything here except
/// `host_layer` is on the virtual clock or a count, and must repeat
/// exactly for the same inputs.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// WAL-durable → committed, per committed transaction.
    pub commits: Vec<Duration>,
    /// Virtual window the commits were counted over (throughput base).
    pub commit_window: Duration,
    /// Close → visible to a reader, per observed write.
    pub visible: Vec<Duration>,
    /// Latency of every read the workload's readers issued.
    pub queries: Vec<Duration>,
    /// Time to make uploads durable with provenance (num) over the same
    /// uploads without it (base), in seconds.
    pub upload: Ratio,
    /// Virtual time of the quiescent lineage pass.
    pub lineage: Duration,
    /// The workload's bill at 2009 prices.
    pub cost_usd: f64,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Per-layer counts and virtual times.
    pub layer: BTreeMap<&'static str, f64>,
    /// Per-layer host times (not expected to repeat).
    pub host_layer: BTreeMap<&'static str, f64>,
}

impl Episode {
    /// Every field that must repeat for the same inputs, rendered exactly.
    pub fn digest(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.commits,
            self.commit_window,
            self.visible,
            self.queries,
            (self.upload.num.to_bits(), self.upload.base.to_bits()),
            self.lineage,
            self.cost_usd.to_bits(),
            self.attempted,
            self.failures,
            self.layer
                .iter()
                .map(|(k, v)| (*k, v.to_bits()))
                .collect::<Vec<_>>(),
        )
    }
}

/// SplitMix64 finalizer: derives independent seeds from one seed. A
/// plain multiple of the seed would land sub-seeds on one orbit of the
/// generator the workloads use.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mean of a set of durations, in seconds (0 for none).
pub fn mean_s(d: &[Duration]) -> f64 {
    Ratio::new(d.iter().map(Duration::as_secs_f64).sum(), d.len() as f64).or_zero()
}

/// Nearest-rank percentile of durations, in seconds (0 for none).
pub fn pct_s(d: impl IntoIterator<Item = Duration>, p: f64) -> f64 {
    crate::stats::Sample::of(d).percentile(p).unwrap_or(0.0)
}

/// Each service with its per-layer metric names.
const SERVICES: [(Service, &str, &str); 3] = [
    (
        Service::ObjectStore,
        "cloud.s3.requests_per_txn",
        "cloud.s3.usd",
    ),
    (
        Service::Database,
        "cloud.sdb.requests_per_txn",
        "cloud.sdb.usd",
    ),
    (
        Service::Queue,
        "cloud.sqs.requests_per_txn",
        "cloud.sqs.usd",
    ),
];

/// The cloud layer's per-service requests and dollars, plus bytes, per
/// committed transaction.
pub fn cloud_layer(layer: &mut BTreeMap<&'static str, f64>, usage: &UsageReport, txns: u64) {
    let book = PriceBook::aws_2009();
    for (service, requests_key, usd_key) in SERVICES {
        let only = UsageReport {
            ops: usage
                .ops
                .iter()
                .filter(|((_, s, _), _)| *s == service)
                .map(|(k, v)| (*k, *v))
                .collect(),
            tenant_ops: BTreeMap::new(),
            storage_gb_months: usage
                .storage_gb_months
                .iter()
                .filter(|(s, _)| **s == service)
                .map(|(k, v)| (*k, *v))
                .collect(),
        };
        let requests = usage.total_ops(|_, s, _| s == service);
        layer.insert(
            requests_key,
            Ratio::new(requests as f64, txns as f64).or_zero(),
        );
        layer.insert(usd_key, book.cost(&only).total());
    }
    let bytes = usage.total_bytes(|_, _, _| true);
    layer.insert(
        "cloud.bytes_per_txn",
        Ratio::new(bytes as f64, txns as f64).or_zero(),
    );
}
