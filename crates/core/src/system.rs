//! The underlying DMS instances the mediator drives.

use estocada_docstore::DocStore;
use estocada_kvstore::KvStore;
use estocada_parstore::ParStore;
use estocada_pivot::kernel::values_of;
use estocada_pivot::Value;
use estocada_relstore::RelStore;
use estocada_simkit::{FaultHook, FaultPlan, LatencyModel, MetricsSnapshot, StoreError};
use estocada_textstore::TextStore;
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;

/// Identifies a kind of underlying store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// Relational store (Postgres stand-in).
    Relational,
    /// Key-value store (Redis/Voldemort stand-in).
    KeyValue,
    /// Document store (MongoDB stand-in).
    Document,
    /// Full-text store (SOLR stand-in).
    Text,
    /// Parallel nested-relational store (Spark stand-in).
    Parallel,
}

impl SystemId {
    /// Every backend; a system's position here is `sys as usize`.
    pub(crate) const ALL: [SystemId; 5] = [
        SystemId::Relational,
        SystemId::KeyValue,
        SystemId::Document,
        SystemId::Text,
        SystemId::Parallel,
    ];
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SystemId::Relational => "relational",
            SystemId::KeyValue => "key-value",
            SystemId::Document => "document",
            SystemId::Text => "text",
            SystemId::Parallel => "parallel",
        };
        write!(f, "{s}")
    }
}

/// Per-system latency configuration for a deployment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latencies {
    /// Relational store latency.
    pub relational: LatencyModel,
    /// Key-value store latency.
    pub key_value: LatencyModel,
    /// Document store latency.
    pub document: LatencyModel,
    /// Text store latency.
    pub text: LatencyModel,
    /// Parallel store latency.
    pub parallel: LatencyModel,
}

impl Latencies {
    /// All-zero latencies (unit tests).
    pub fn zero() -> Latencies {
        Latencies::default()
    }

    /// `true` when every model is zero (no simulated latency).
    pub fn is_zero(&self) -> bool {
        [
            self.relational,
            self.key_value,
            self.document,
            self.text,
            self.parallel,
        ]
        .iter()
        .all(|m| *m == LatencyModel::ZERO)
    }

    /// A calibration mimicking typical same-datacenter deployments of the
    /// real systems (documented in EXPERIMENTS.md): the key-value store has
    /// the cheapest per-request cost; the document store pays more per
    /// request and per returned document; the relational store pays a
    /// query-parse/plan overhead per request; the parallel store pays a
    /// job-dispatch overhead per request but little per tuple.
    pub fn datacenter() -> Latencies {
        Latencies {
            relational: LatencyModel {
                per_request_ns: 120_000,
                per_tuple_ns: 250,
                per_byte_ns: 1,
                per_scan_ns: 150,
            },
            key_value: LatencyModel {
                per_request_ns: 25_000,
                per_tuple_ns: 100,
                per_byte_ns: 1,
                per_scan_ns: 0,
            },
            document: LatencyModel {
                per_request_ns: 90_000,
                per_tuple_ns: 600,
                per_byte_ns: 2,
                per_scan_ns: 400,
            },
            text: LatencyModel {
                per_request_ns: 80_000,
                per_tuple_ns: 200,
                per_byte_ns: 1,
                per_scan_ns: 50,
            },
            parallel: LatencyModel {
                per_request_ns: 900_000,
                per_tuple_ns: 60,
                per_byte_ns: 1,
                per_scan_ns: 40,
            },
        }
    }

    /// The model of one system.
    pub fn of(&self, id: SystemId) -> LatencyModel {
        match id {
            SystemId::Relational => self.relational,
            SystemId::KeyValue => self.key_value,
            SystemId::Document => self.document,
            SystemId::Text => self.text,
            SystemId::Parallel => self.parallel,
        }
    }
}

/// One backend's fault gate: the only place a [`FaultPlan`] is consulted.
/// The connector's runners hold a clone next to their store handle and
/// pass it before every delegated request; nothing else does, so admin
/// paths (materialization, DML maintenance, [`Stores::dump`]) cannot fault.
/// Clones share the cursor, so a plan installed after a query was planned
/// still governs its cached units.
#[derive(Clone, Default)]
pub(crate) struct FaultGate(Arc<RwLock<Option<FaultHook>>>);

impl FaultGate {
    /// Consult the installed plan for this backend's next `op` request:
    /// injected latency is charged here, an injected error is returned
    /// and the request must not be issued.
    pub(crate) fn check(&self, op: &str) -> Result<(), StoreError> {
        match self.0.read().as_ref() {
            Some(hook) => hook.check(op),
            None => Ok(()),
        }
    }

    /// Delegated requests that reached this gate since the current fault
    /// plan was installed (0 while none is).
    pub(crate) fn ops(&self) -> u64 {
        self.0.read().as_ref().map_or(0, FaultHook::ops)
    }
}

/// The set of store instances of one deployment.
#[derive(Clone)]
pub struct Stores {
    /// Relational store.
    pub rel: Arc<RelStore>,
    /// Key-value store.
    pub kv: Arc<KvStore>,
    /// Document store.
    pub doc: Arc<DocStore>,
    /// Full-text store.
    pub text: Arc<TextStore>,
    /// Parallel store.
    pub par: Arc<ParStore>,
    /// Per-backend fault gates, indexed by `SystemId as usize`.
    gates: [FaultGate; 5],
}

impl Stores {
    /// Instantiate all five stores with the given latencies.
    pub fn new(latencies: Latencies) -> Stores {
        Stores {
            rel: Arc::new(RelStore::with_latency(latencies.relational)),
            kv: Arc::new(KvStore::with_latency(latencies.key_value)),
            doc: Arc::new(DocStore::with_latency(latencies.document)),
            text: Arc::new(TextStore::with_latency(latencies.text)),
            par: Arc::new(ParStore::with_latency(latencies.parallel)),
            gates: Default::default(),
        }
    }

    /// The fault gate of one backend.
    pub(crate) fn gate(&self, sys: SystemId) -> FaultGate {
        self.gates[sys as usize].clone()
    }

    /// Arm every gate with a fresh cursor over `plan`, keyed by the
    /// backend's display name; `None` disarms them.
    pub(crate) fn set_fault_plan(&self, plan: Option<&FaultPlan>) {
        let plan = plan.map(|p| Arc::new(p.clone()));
        for sys in SystemId::ALL {
            *self.gates[sys as usize].0.write() = plan
                .as_ref()
                .map(|p| FaultHook::new(p.clone(), &sys.to_string()));
        }
    }

    /// The generation of the indexes translation reads: the relational
    /// store's indexes and the parallel store's keys. It moves whenever
    /// either store's does ([`RelStore::index_generation`],
    /// [`ParStore::index_generation`]), so a plan priced at one generation
    /// is priced again after any index build, keying, or container created
    /// or dropped in those stores.
    pub fn index_generation(&self) -> u64 {
        self.rel.index_generation() + self.par.index_generation()
    }

    /// Snapshot every store's metrics, one entry per backend.
    pub fn metrics(&self) -> [(SystemId, MetricsSnapshot); 5] {
        [
            (SystemId::Relational, self.rel.metrics.snapshot()),
            (SystemId::KeyValue, self.kv.metrics.snapshot()),
            (SystemId::Document, self.doc.metrics.snapshot()),
            (SystemId::Text, self.text.metrics.snapshot()),
            (SystemId::Parallel, self.par.metrics.snapshot()),
        ]
    }

    /// Canonical dump of every container of every store, as sorted
    /// `(label, contents)` pairs. Rows are sorted per container — stores do
    /// not promise a physical order across maintenance histories — but the
    /// rendered bytes of two equal deployments match exactly. Admin paths
    /// only: no metrics, no latency, and never through a fault gate.
    pub fn dump(&self) -> Vec<(String, String)> {
        fn render<T: Ord + fmt::Debug>(mut items: Vec<T>) -> String {
            items.sort();
            format!("{items:?}")
        }
        let mut out = Vec::new();
        for t in self.rel.table_names() {
            let rows = self.rel.scan(&t).unwrap_or_default();
            out.push((format!("rel:{t}"), render(rows)));
        }
        for ns in self.kv.namespace_names() {
            // An entry as the one list of its value tuples.
            let entries = self.kv.scan(&ns).into_iter().map(|(key, tuples)| {
                let tuples = values_of(tuples.rows()).into_iter().map(Value::array);
                (key.value(), [Value::array(tuples)])
            });
            out.push((format!("kv:{ns}"), render(entries.collect())));
        }
        for c in self.doc.collection_names() {
            out.push((format!("doc:{c}"), render(self.doc.scan(&c))));
        }
        for d in self.par.dataset_names() {
            let rows = self.par.dataset(&d).map(|ds| values_of(ds.iter_rows()));
            out.push((
                format!("par:{d}"),
                render::<Vec<_>>(rows.unwrap_or_default()),
            ));
        }
        for i in self.text.index_names() {
            out.push((format!("text:{i}"), render(self.text.documents(&i))));
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datacenter_calibration_orders_request_costs() {
        let l = Latencies::datacenter();
        assert!(l.key_value.per_request_ns < l.document.per_request_ns);
        assert!(l.document.per_request_ns < l.parallel.per_request_ns);
        assert_eq!(l.of(SystemId::KeyValue), l.key_value);
    }

    #[test]
    fn stores_construct_and_snapshot() {
        let s = Stores::new(Latencies::zero());
        let m = s.metrics();
        assert_eq!(m.len(), 5);
        assert!(m.iter().all(|(_, snap)| snap.requests == 0));
    }
}
