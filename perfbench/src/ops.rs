//! The four workloads and their seeded op streams. `--seed` drives the
//! dataset and every stream; the engine only ever sees generated inputs.

use crate::model::{category_index, Model};
use estocada_workloads::marketplace::CATEGORIES;
use estocada_workloads::{analytics_workload, AnalyticsConfig, AnalyticsQuery, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Languages of `Prefs.language`, as the generator draws them.
pub const LANGUAGES: [&str; 4] = ["en", "fr", "de", "es"];

/// Users the hot lookup workload cycles over: 100 users × 2 query kinds
/// is a working set of 200 plan-cache keys, well inside the 1 024-entry
/// cache.
pub const HOT_USERS: usize = 100;

/// Distinct analytics queries cycled by the `analytics` workload.
pub const ANALYTICS_QUERIES: usize = 252;

/// Users `readwrite` reads and writes: the head of the Zipf order. Every
/// one of them has browsing history, so every order write maintains the
/// `UserHist` join view (a write for a user without history skips it and
/// costs 5 ms instead of 130 ms — how many of those a window draws would be
/// luck), and their 256 order-history plans are all cached by the warm-up.
pub const RW_USERS: usize = 256;

/// HAVING threshold of the big-spender rollup.
const MIN_TOTAL: i64 = 200;

/// Zipf skew of user and category sampling, as in the generator.
pub const SKEW: f64 = 0.9;

/// One `Orders` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Order {
    /// Order id.
    pub oid: i64,
    /// Ordering user.
    pub uid: i64,
    /// Ordered product.
    pub pid: i64,
    /// Index into the generator's category list.
    pub cat: u8,
    /// Amount in cents.
    pub cents: i64,
}

/// One `Prefs` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pref {
    /// The user.
    pub uid: i64,
    /// Dark theme (else light).
    pub dark: bool,
    /// Index into [`LANGUAGES`].
    pub lang: u8,
    /// Newsletter opt-in.
    pub newsletter: bool,
}

impl Pref {
    /// `Prefs.theme`.
    pub fn theme(&self) -> &'static str {
        if self.dark {
            "dark"
        } else {
            "light"
        }
    }

    /// `Prefs.language`.
    pub fn language(&self) -> &'static str {
        LANGUAGES[self.lang as usize]
    }
}

/// One operation an application session sends to the mediator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `PrefLookup`: SQL point lookup of a user's preferences.
    Pref(i64),
    /// `CartLookup`: tree-pattern lookup of a user's cart items.
    Cart(i64),
    /// `UserOrders`: SQL order history of a user.
    Orders(i64),
    /// Per-category order volume, revenue and price extrema.
    CategoryVolume,
    /// Users whose total spend clears the threshold (GROUP BY + HAVING).
    BigSpenders(i64),
    /// Order counts per user tier × product category (grouped join).
    TierCategory,
    /// Per-product views and dwell time within one category.
    CategoryEngagement(u8),
    /// One user's spend per category.
    UserSpend(i64),
    /// The paper's personalized search: purchases × browsing history of
    /// one user within one category.
    Personalized(i64, u8),
    /// Insert one order.
    Insert(Order),
    /// Delete one live order.
    Delete(Order),
    /// Upsert one user's preferences.
    Upsert(Pref),
}

/// Names of the op classes, indexed by [`Op::class`].
pub const CLASS_NAMES: [&str; 12] = [
    "pref_lookup",
    "cart_lookup",
    "user_orders",
    "category_volume",
    "big_spenders",
    "tier_category",
    "category_engagement",
    "user_spend",
    "personalized",
    "insert_order",
    "delete_order",
    "upsert_pref",
];

impl Op {
    /// The op's class: an index into [`CLASS_NAMES`].
    pub fn class(&self) -> u8 {
        match self {
            Op::Pref(_) => 0,
            Op::Cart(_) => 1,
            Op::Orders(_) => 2,
            Op::CategoryVolume => 3,
            Op::BigSpenders(_) => 4,
            Op::TierCategory => 5,
            Op::CategoryEngagement(_) => 6,
            Op::UserSpend(_) => 7,
            Op::Personalized(..) => 8,
            Op::Insert(_) => 9,
            Op::Delete(_) => 10,
            Op::Upsert(_) => 11,
        }
    }

    /// Whether the op is a write (DML).
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert(_) | Op::Delete(_) | Op::Upsert(_))
    }

    fn from_analytics(q: &AnalyticsQuery) -> Op {
        match q {
            AnalyticsQuery::CategoryVolume => Op::CategoryVolume,
            AnalyticsQuery::BigSpenders { min_total } => Op::BigSpenders(*min_total),
            AnalyticsQuery::TierCategoryMatrix => Op::TierCategory,
            AnalyticsQuery::CategoryEngagement { category } => {
                Op::CategoryEngagement(category_index(category))
            }
            AnalyticsQuery::UserSpendByCategory { uid } => Op::UserSpend(*uid),
        }
    }

    /// The op as the public analytics query type, for the aggregate
    /// templates.
    pub fn to_analytics(&self) -> Option<AnalyticsQuery> {
        Some(match *self {
            Op::CategoryVolume => AnalyticsQuery::CategoryVolume,
            Op::BigSpenders(min_total) => AnalyticsQuery::BigSpenders { min_total },
            Op::TierCategory => AnalyticsQuery::TierCategoryMatrix,
            Op::CategoryEngagement(cat) => AnalyticsQuery::CategoryEngagement {
                category: CATEGORIES[cat as usize].to_string(),
            },
            Op::UserSpend(uid) => AnalyticsQuery::UserSpendByCategory { uid },
            _ => return None,
        })
    }
}

/// A benchmark workload. Names are fixed: later issues refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Point lookups that always hit the plan cache.
    KvLookupHot,
    /// The same lookups, every one a plan-cache miss.
    LookupCold,
    /// GROUP BY / HAVING rollups plus the personalized search.
    Analytics,
    /// 70 % reads beside 30 % incrementally maintained writes.
    ReadWrite,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::KvLookupHot,
        Workload::LookupCold,
        Workload::Analytics,
        Workload::ReadWrite,
    ];

    /// The workload's fixed name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::KvLookupHot => "kv_lookup_hot",
            Workload::LookupCold => "lookup_cold",
            Workload::Analytics => "analytics",
            Workload::ReadWrite => "readwrite",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 finalizer: a stateless hash of `(seed, index)`, so that the
/// i-th op of a stream is a pure function of the seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut StdRng) -> Vec<i64> {
    let mut p: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.random_range(0..=i));
    }
    p
}

/// An additive golden-ratio (Weyl) sequence behind the `Rng` interface: its
/// values fill `[0, 1)` evenly at every prefix length, so `n` draws through
/// an inverse CDF are a stratified sample of the distribution rather than
/// an independent one. The `readwrite` schedule draws its users this way:
/// every window sees the Zipf mix of hot and cold users almost exactly, and
/// the cost of its writes (which grows with the user's history) does not
/// depend on sampling luck. The seed sets the phase.
#[derive(Debug, Clone)]
struct Weyl(u64);

impl Rng for Weyl {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0
    }
}

/// The stateful generator of the `readwrite` schedule: it keeps the live
/// orders so that deletes only ever target live oids, and never repeats.
#[derive(Debug)]
pub struct RwGen {
    rng: StdRng,
    /// How many users the schedule touches.
    head: usize,
    /// Zipf over the head users.
    users: Zipf,
    read_users: Weyl,
    write_users: Weyl,
    /// Picks the order a delete removes; `live` starts sorted by user, so
    /// these draws are stratified over users too.
    victims: Weyl,
    products: i64,
    live: Vec<Order>,
    next_oid: i64,
    /// User of the previous op when that was an order write.
    last_written: Option<i64>,
    /// Writes generated so far.
    writes: usize,
    generated: Vec<Op>,
}

/// Reads and writes of one `readwrite` cycle: 7 reads to 3 writes, spread
/// evenly. The mix is a fixed pattern — only the parameters are drawn from
/// the seed — so that every slice of the window holds the same mix and
/// write time (> 95 % of the window) does not vary with binomial luck.
const RW_CYCLE: [bool; 10] = [
    false, false, true, false, false, true, false, false, true, false,
];

/// Kinds of twenty consecutive writes: 9 inserts, 9 deletes, 2 upserts.
const WRITE_CYCLE: [u8; 20] = [0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2];

impl RwGen {
    fn next(&mut self) -> Op {
        let at = self.generated.len();
        let op = if !RW_CYCLE[at % RW_CYCLE.len()] {
            // Half of the reads that follow an order write go to the user
            // just written, so read-your-writes is exercised on fresh rows.
            match self.last_written.take() {
                Some(written) if self.rng.random_bool(0.5) => Op::Orders(written),
                _ => Op::Orders(self.users.sample(&mut self.read_users) as i64),
            }
        } else {
            let kind = WRITE_CYCLE[self.writes % WRITE_CYCLE.len()];
            self.writes += 1;
            let uid = self.users.sample(&mut self.write_users) as i64;
            match kind {
                0 => {
                    let o = Order {
                        oid: self.next_oid,
                        uid,
                        pid: self.rng.random_range(0..self.products),
                        cat: self.rng.random_range(0..CATEGORIES.len()) as u8,
                        cents: self.rng.random_range(100..100_000),
                    };
                    self.next_oid += 1;
                    self.live.push(o);
                    Op::Insert(o)
                }
                1 if !self.live.is_empty() => {
                    let at = self.victims.random_range(0..self.live.len());
                    Op::Delete(self.live.swap_remove(at))
                }
                _ => Op::Upsert(Pref {
                    uid,
                    dark: self.rng.random_bool(0.5),
                    lang: self.rng.random_range(0..LANGUAGES.len()) as u8,
                    newsletter: self.rng.random_bool(0.3),
                }),
            }
        };
        self.last_written = match op {
            Op::Insert(o) | Op::Delete(o) => Some(o.uid),
            _ => None,
        };
        op
    }
}

/// A workload's op stream: `op_at(i)` is the i-th op for a given seed.
#[derive(Debug)]
pub enum Stream {
    /// 3 `Pref` : 1 `Cart` over [`HOT_USERS`] seeded users.
    Hot {
        /// Stream seed.
        seed: u64,
        /// The hot users.
        users: Vec<i64>,
    },
    /// The same 3 : 1 mix, with `Pref` ops walking one seeded permutation
    /// of all users and `Cart` ops another: a `Pref` key recurs after
    /// `users` other `Pref` ops plus a third as many `Cart` ops, all on
    /// distinct keys.
    Cold {
        /// Permutation walked by the `Pref` ops.
        pref_walk: Vec<i64>,
        /// Permutation walked by the `Cart` ops.
        cart_walk: Vec<i64>,
    },
    /// [`ANALYTICS_QUERIES`] seeded queries, cycled through
    /// [`ANALYTICS_CYCLE`].
    Analytics {
        /// The queries.
        queries: Vec<Op>,
    },
    /// 70 % `Orders` reads, 30 % writes (45 % insert, 45 % delete, 10 %
    /// preference upsert) in a fixed pattern, users Zipf over the
    /// [`RW_USERS`] hottest, generated on demand.
    ReadWrite(RefCell<RwGen>),
}

impl Stream {
    /// The stream of `workload` for `seed` over the generated dataset.
    pub fn new(workload: Workload, seed: u64, model: &Model) -> Stream {
        let users = model.users();
        // Decorrelate from the dataset generator, which consumes `seed`
        // itself.
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x5EED));
        match workload {
            Workload::KvLookupHot => Stream::Hot {
                seed,
                users: permutation(users, &mut rng)
                    .into_iter()
                    .take(HOT_USERS)
                    .collect(),
            },
            Workload::LookupCold => Stream::Cold {
                pref_walk: permutation(users, &mut rng),
                cart_walk: permutation(users, &mut rng),
            },
            Workload::Analytics => Stream::Analytics {
                queries: analytics_queries(seed, users, &mut rng),
            },
            Workload::ReadWrite => {
                let head = RW_USERS.min(users);
                let all: Vec<Order> = model.orders().copied().collect();
                let next_oid = all.iter().map(|o| o.oid + 1).max().unwrap_or(0);
                let products = all.iter().map(|o| o.pid + 1).max().unwrap_or(1);
                let mut live: Vec<Order> = all
                    .into_iter()
                    .filter(|o| (o.uid as usize) < head)
                    .collect();
                live.sort_by_key(|o| (o.uid, o.oid));
                let phases = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
                Stream::ReadWrite(RefCell::new(RwGen {
                    rng,
                    head,
                    users: Zipf::new(head, SKEW),
                    read_users: Weyl(phases[0]),
                    write_users: Weyl(phases[1]),
                    victims: Weyl(phases[2]),
                    products,
                    live,
                    next_oid,
                    last_written: None,
                    writes: 0,
                    generated: Vec::new(),
                }))
            }
        }
    }

    /// The i-th op of the stream. Pure for the read-only streams; the
    /// `readwrite` schedule is generated in order and remembered, so any
    /// index can be read again.
    pub fn op_at(&self, i: u64) -> Op {
        let lookup = |i: u64, pref_uid: &dyn Fn(u64) -> i64, cart_uid: &dyn Fn(u64) -> i64| {
            if i % 4 == 3 {
                Op::Cart(cart_uid(i / 4))
            } else {
                Op::Pref(pref_uid(3 * (i / 4) + i % 4))
            }
        };
        match self {
            Stream::Hot { seed, users } => {
                let pick = |k: u64| users[(mix(*seed, k) % users.len() as u64) as usize];
                lookup(i, &|k| pick(2 * k), &|k| pick(2 * k + 1))
            }
            Stream::Cold {
                pref_walk,
                cart_walk,
            } => lookup(
                i,
                &|k| pref_walk[(k % pref_walk.len() as u64) as usize],
                &|k| cart_walk[(k % cart_walk.len() as u64) as usize],
            ),
            Stream::Analytics { queries } => queries[(i % queries.len() as u64) as usize],
            Stream::ReadWrite(state) => {
                let mut gen = state.borrow_mut();
                while gen.generated.len() as u64 <= i {
                    let op = gen.next();
                    gen.generated.push(op);
                }
                gen.generated[i as usize]
            }
        }
    }

    /// Distinct ops to run once during warm-up so that the window starts
    /// with every plan it will need already cached; empty where the window
    /// must miss (`lookup_cold`).
    pub fn working_set(&self) -> Vec<Op> {
        match self {
            Stream::Hot { users, .. } => users
                .iter()
                .flat_map(|u| [Op::Pref(*u), Op::Cart(*u)])
                .collect(),
            Stream::Analytics { queries } => {
                let mut seen = std::collections::HashSet::new();
                queries
                    .iter()
                    .copied()
                    .filter(|q| seen.insert(*q))
                    .collect()
            }
            Stream::ReadWrite(state) => {
                let head = state.borrow().head;
                (0..head as i64).map(Op::Orders).collect()
            }
            Stream::Cold { .. } => Vec::new(),
        }
    }

    /// A hash of the first `n` ops: equal seeds give equal hashes.
    pub fn prefix_hash(&self, n: u64) -> u64 {
        let mut h = DefaultHasher::new();
        for i in 0..n {
            self.op_at(i).hash(&mut h);
        }
        h.finish()
    }
}

/// Op classes of one analytics cycle: the six templates in turn, with the
/// per-category volume rollup twice. Sorted by cost the classes then end
/// at 14 % (`user_spend`), 29 % (`personalized`) and 57 % (`category_volume`)
/// of the ops, so the median read lies inside a class and not on the edge
/// between two (with six equal shares it sat exactly on one).
pub const ANALYTICS_CYCLE: [u8; 7] = [3, 4, 5, 6, 7, 8, 3];

/// The analytics queries: parameters of the five aggregate templates come
/// from the public `analytics_workload` generator (Zipf users and
/// categories); the personalized search takes a hot user (ranks 2–9 of the
/// Zipf order: thousands of `UserHist` rows per call, without the one
/// outlier user whose single call would own the tail) and a Zipf category.
fn analytics_queries(seed: u64, users: usize, rng: &mut StdRng) -> Vec<Op> {
    let pool = analytics_workload(&AnalyticsConfig {
        queries: 8 * ANALYTICS_QUERIES,
        users,
        skew: SKEW,
        min_total: MIN_TOTAL,
        seed: mix(seed, 0xA9A),
    });
    // Template of each aggregate class, in cycle order.
    let mut by_class: Vec<std::vec::IntoIter<Op>> = (3..8u8)
        .map(|class| {
            pool.iter()
                .map(Op::from_analytics)
                .filter(|op| op.class() == class)
                .collect::<Vec<_>>()
                .into_iter()
        })
        .collect();
    let hot_user = Zipf::new(8.min(users.saturating_sub(1)).max(1), SKEW);
    let category = Zipf::new(CATEGORIES.len(), SKEW);
    (0..ANALYTICS_QUERIES)
        .map(|j| match ANALYTICS_CYCLE[j % ANALYTICS_CYCLE.len()] {
            8 => Op::Personalized(
                (1 + hot_user.sample(rng)).min(users - 1) as i64,
                category.sample(rng) as u8,
            ),
            class => by_class[class as usize - 3]
                .next()
                .expect("the pool holds enough queries of every template"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_workloads::{generate_marketplace, MarketplaceConfig};
    use std::collections::{HashMap, HashSet};

    fn model(users: usize) -> Model {
        Model::new(&generate_marketplace(MarketplaceConfig {
            users,
            products: 50,
            orders: 400,
            log_entries: 800,
            skew: SKEW,
            seed: 5,
        }))
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        let m = model(300);
        for w in Workload::ALL {
            let a = Stream::new(w, 11, &m).prefix_hash(500);
            let b = Stream::new(w, 11, &m).prefix_hash(500);
            let c = Stream::new(w, 12, &m).prefix_hash(500);
            assert_eq!(a, b, "{} is not deterministic", w.name());
            assert_ne!(a, c, "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn lookup_mix_is_three_prefs_to_one_cart() {
        let m = model(300);
        for w in [Workload::KvLookupHot, Workload::LookupCold] {
            let s = Stream::new(w, 3, &m);
            let carts = (0..4000)
                .filter(|i| matches!(s.op_at(*i), Op::Cart(_)))
                .count();
            assert_eq!(carts, 1000);
        }
    }

    #[test]
    fn hot_stream_stays_inside_its_working_set() {
        let m = model(300);
        let s = Stream::new(Workload::KvLookupHot, 3, &m);
        let set: HashSet<Op> = s.working_set().into_iter().collect();
        assert_eq!(set.len(), 2 * HOT_USERS);
        assert!((0..5000).all(|i| set.contains(&s.op_at(i))));
    }

    #[test]
    fn cold_stream_reuse_distance_exceeds_the_plan_cache() {
        // The paper-sized deployment: 2 000 users against a 1 024-entry,
        // 16-shard FIFO plan cache. A key must not recur before at least
        // 2 048 other distinct keys were inserted, so that every shard has
        // turned over with a wide margin.
        let m = model(2000);
        let s = Stream::new(Workload::LookupCold, 9, &m);
        let mut last_seen: HashMap<Op, u64> = HashMap::new();
        let mut min_distance = u64::MAX;
        let n = 9_000;
        let ops: Vec<Op> = (0..n).map(|i| s.op_at(i)).collect();
        for (i, op) in ops.iter().enumerate() {
            let prev = last_seen.insert(*op, i as u64);
            // Counting the keys in between is quadratic: sample the reuses.
            if let Some(prev) = prev.filter(|_| i % 7 == 0) {
                let between: HashSet<&Op> = ops[prev as usize + 1..i].iter().collect();
                min_distance = min_distance.min(between.len() as u64);
            }
        }
        assert!(min_distance >= 2048, "reuse distance {min_distance}");
    }

    #[test]
    fn analytics_cycle_holds_every_template_in_fixed_shares() {
        let m = model(300);
        let s = Stream::new(Workload::Analytics, 4, &m);
        let mut per_class = [0usize; 12];
        for i in 0..7 * 100 {
            per_class[s.op_at(i).class() as usize] += 1;
        }
        assert_eq!(&per_class[3..9], &[200, 100, 100, 100, 100, 100]);
        assert_eq!(ANALYTICS_QUERIES % ANALYTICS_CYCLE.len(), 0);
        assert!(s.working_set().len() <= ANALYTICS_QUERIES);
    }

    #[test]
    fn readwrite_schedule_deletes_only_live_orders() {
        let m = model(300);
        let s = Stream::new(Workload::ReadWrite, 8, &m);
        let mut shadow = m.clone();
        let (mut reads, mut writes) = (0, 0);
        for i in 0..3000 {
            let op = s.op_at(i);
            // `apply` panics on a duplicate insert or a dead delete.
            shadow.apply(&op);
            if op.is_write() {
                writes += 1;
            } else {
                assert!(matches!(op, Op::Orders(_)));
                reads += 1;
            }
        }
        assert_eq!((reads, writes), (2100, 900));
        let kinds = |k: fn(&Op) -> bool| (0..3000).filter(|i| k(&s.op_at(*i))).count();
        assert_eq!(kinds(|op| matches!(op, Op::Insert(_))), 405);
        assert_eq!(kinds(|op| matches!(op, Op::Delete(_))), 405);
        assert_eq!(kinds(|op| matches!(op, Op::Upsert(_))), 90);
        // Reading an index again returns the same op.
        assert_eq!(s.op_at(17), s.op_at(17));
    }
}
