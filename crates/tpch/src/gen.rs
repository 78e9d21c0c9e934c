//! Scaled dbgen-equivalent TPC-H generator (paper, Section 6.3).
//!
//! Generates the tables the Q3/Q7/Q12 subset touches, with the paper's
//! data-order manipulation: `lineitem` is produced sorted by `l_orderkey`
//! (a perfect sorting constraint) and a chosen fraction of rows is then
//! relocated to random positions, yielding the 0% / 5% / 10% NSC-exception
//! datasets of Figure 10. Refresh sets mirror TPC-H RF1 (insert orders +
//! lineitems) and RF2 (delete by orderkey).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pi_storage::{date, ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

/// Column indices of the generated tables (schema constants).
pub mod cols {
    /// nation: key.
    pub const N_NATIONKEY: usize = 0;
    /// nation: name.
    pub const N_NAME: usize = 1;
    /// supplier: key.
    pub const S_SUPPKEY: usize = 0;
    /// supplier: nation FK.
    pub const S_NATIONKEY: usize = 1;
    /// customer: key.
    pub const C_CUSTKEY: usize = 0;
    /// customer: market segment.
    pub const C_MKTSEGMENT: usize = 1;
    /// customer: nation FK.
    pub const C_NATIONKEY: usize = 2;
    /// orders: key (sorted).
    pub const O_ORDERKEY: usize = 0;
    /// orders: customer FK.
    pub const O_CUSTKEY: usize = 1;
    /// orders: order date.
    pub const O_ORDERDATE: usize = 2;
    /// orders: ship priority.
    pub const O_SHIPPRIORITY: usize = 3;
    /// orders: order priority string.
    pub const O_ORDERPRIORITY: usize = 4;
    /// lineitem: order FK (nearly sorted).
    pub const L_ORDERKEY: usize = 0;
    /// lineitem: supplier FK.
    pub const L_SUPPKEY: usize = 1;
    /// lineitem: extended price.
    pub const L_EXTENDEDPRICE: usize = 2;
    /// lineitem: discount.
    pub const L_DISCOUNT: usize = 3;
    /// lineitem: ship date.
    pub const L_SHIPDATE: usize = 4;
    /// lineitem: commit date.
    pub const L_COMMITDATE: usize = 5;
    /// lineitem: receipt date.
    pub const L_RECEIPTDATE: usize = 6;
    /// lineitem: ship mode.
    pub const L_SHIPMODE: usize = 7;
}

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct TpchSpec {
    /// Scale factor (paper: 1000; default here is laptop scale).
    pub sf: f64,
    /// Partitions of `lineitem` (other tables use one partition).
    pub lineitem_partitions: usize,
    /// Fraction of lineitem rows relocated to break the orderkey sorting
    /// (the paper's 0% / 5% / 10% datasets).
    pub exception_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TpchSpec {
    /// Spec with the given scale factor and exception rate.
    pub fn new(sf: f64, exception_rate: f64) -> Self {
        TpchSpec {
            sf,
            lineitem_partitions: 2,
            exception_rate,
            seed: 0x7269_7065,
        }
    }
}

/// The generated database.
pub struct TpchDb {
    /// nation(n_nationkey, n_name).
    pub nation: Table,
    /// supplier(s_suppkey, s_nationkey).
    pub supplier: Table,
    /// customer(c_custkey, c_mktsegment, c_nationkey).
    pub customer: Table,
    /// orders(o_orderkey, o_custkey, o_orderdate, o_shippriority, o_orderpriority),
    /// sorted by o_orderkey.
    pub orders: Table,
    /// lineitem(l_orderkey, …), nearly sorted by l_orderkey.
    pub lineitem: Table,
    /// Row counts at generation time (orders, lineitem).
    pub counts: (usize, usize),
    next_orderkey: i64,
    spec: TpchSpec,
}

fn single_part(name: &str, schema: Schema) -> Table {
    Table::new(name, schema, 1, Partitioning::RoundRobin)
}

/// Generates the database.
pub fn generate(spec: &TpchSpec) -> TpchDb {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let n_customers = ((150_000.0 * spec.sf) as usize).max(50);
    let n_orders = n_customers * 10;
    let n_suppliers = ((10_000.0 * spec.sf) as usize).max(10);

    // nation
    let mut nation = single_part(
        "nation",
        Schema::new(vec![
            Field::new("n_nationkey", DataType::Int),
            Field::new("n_name", DataType::Str),
        ]),
    );
    let names = nation.encode_strings(cols::N_NAME, &NATIONS);
    nation.load_partition(0, &[ColumnData::Int((0..25).collect()), names]);

    // supplier
    let mut supplier = single_part(
        "supplier",
        Schema::new(vec![
            Field::new("s_suppkey", DataType::Int),
            Field::new("s_nationkey", DataType::Int),
        ]),
    );
    supplier.load_partition(
        0,
        &[
            ColumnData::Int((1..=n_suppliers as i64).collect()),
            ColumnData::Int((0..n_suppliers).map(|_| rng.gen_range(0..25)).collect()),
        ],
    );

    // customer
    let mut customer = single_part(
        "customer",
        Schema::new(vec![
            Field::new("c_custkey", DataType::Int),
            Field::new("c_mktsegment", DataType::Str),
            Field::new("c_nationkey", DataType::Int),
        ]),
    );
    let segs: Vec<&str> = (0..n_customers)
        .map(|_| SEGMENTS[rng.gen_range(0..5)])
        .collect();
    let segs = customer.encode_strings(cols::C_MKTSEGMENT, &segs);
    customer.load_partition(
        0,
        &[
            ColumnData::Int((1..=n_customers as i64).collect()),
            segs,
            ColumnData::Int((0..n_customers).map(|_| rng.gen_range(0..25)).collect()),
        ],
    );

    // orders, sorted by o_orderkey
    let mut orders = single_part(
        "orders",
        Schema::new(vec![
            Field::new("o_orderkey", DataType::Int),
            Field::new("o_custkey", DataType::Int),
            Field::new("o_orderdate", DataType::Date),
            Field::new("o_shippriority", DataType::Int),
            Field::new("o_orderpriority", DataType::Str),
        ]),
    );
    let date_lo = date(1992, 1, 1);
    let date_hi = date(1998, 8, 2);
    let orderdates: Vec<i64> = (0..n_orders)
        .map(|_| rng.gen_range(date_lo..date_hi))
        .collect();
    let prios: Vec<&str> = (0..n_orders)
        .map(|_| PRIORITIES[rng.gen_range(0..5)])
        .collect();
    let prios = orders.encode_strings(cols::O_ORDERPRIORITY, &prios);
    orders.load_partition(
        0,
        &[
            ColumnData::Int((1..=n_orders as i64).collect()),
            ColumnData::Int(
                (0..n_orders)
                    .map(|_| rng.gen_range(1..=n_customers as i64))
                    .collect(),
            ),
            ColumnData::Int(orderdates.clone()),
            ColumnData::Int(vec![0; n_orders]),
            prios,
        ],
    );

    // lineitem: 1..=7 lines per order, generated in orderkey order, then
    // perturbed to plant sorting exceptions.
    let mut l_orderkey: Vec<i64> = Vec::new();
    let mut l_suppkey: Vec<i64> = Vec::new();
    let mut l_price: Vec<f64> = Vec::new();
    let mut l_discount: Vec<f64> = Vec::new();
    let mut l_ship: Vec<i64> = Vec::new();
    let mut l_commit: Vec<i64> = Vec::new();
    let mut l_receipt: Vec<i64> = Vec::new();
    let mut l_mode: Vec<&str> = Vec::new();
    for ok in 1..=n_orders {
        let odate = orderdates[ok - 1];
        for _ in 0..rng.gen_range(1..=7) {
            l_orderkey.push(ok as i64);
            l_suppkey.push(rng.gen_range(1..=n_suppliers as i64));
            l_price.push(rng.gen_range(900.0..105_000.0));
            l_discount.push(rng.gen_range(0.0..0.1));
            let ship = odate + rng.gen_range(1..=121);
            let commit = odate + rng.gen_range(30..=90);
            l_ship.push(ship);
            l_commit.push(commit);
            l_receipt.push(ship + rng.gen_range(1..=30));
            l_mode.push(SHIPMODES[rng.gen_range(0..7)]);
        }
    }
    let n_lines = l_orderkey.len();
    // Data-order manipulation: relocate a fraction of rows.
    let perm = perturbation(n_lines, spec.exception_rate, &mut rng);
    let apply = |v: &mut Vec<i64>| {
        let old = std::mem::take(v);
        *v = perm.iter().map(|&i| old[i]).collect();
    };
    let apply_f = |v: &mut Vec<f64>| {
        let old = std::mem::take(v);
        *v = perm.iter().map(|&i| old[i]).collect();
    };
    apply(&mut l_orderkey);
    apply(&mut l_suppkey);
    apply_f(&mut l_price);
    apply_f(&mut l_discount);
    apply(&mut l_ship);
    apply(&mut l_commit);
    apply(&mut l_receipt);
    let l_mode: Vec<&str> = perm.iter().map(|&i| l_mode[i]).collect();

    let nparts = spec.lineitem_partitions.max(1);
    let mut lineitem = Table::new(
        "lineitem",
        Schema::new(vec![
            Field::new("l_orderkey", DataType::Int),
            Field::new("l_suppkey", DataType::Int),
            Field::new("l_extendedprice", DataType::Float),
            Field::new("l_discount", DataType::Float),
            Field::new("l_shipdate", DataType::Date),
            Field::new("l_commitdate", DataType::Date),
            Field::new("l_receiptdate", DataType::Date),
            Field::new("l_shipmode", DataType::Str),
        ]),
        nparts,
        Partitioning::RoundRobin,
    );
    let per_part = n_lines.div_ceil(nparts);
    for pid in 0..nparts {
        let s = pid * per_part;
        let e = ((pid + 1) * per_part).min(n_lines);
        if s >= e {
            continue;
        }
        let modes = lineitem.encode_strings(cols::L_SHIPMODE, &l_mode[s..e]);
        lineitem.load_partition(
            pid,
            &[
                ColumnData::Int(l_orderkey[s..e].to_vec()),
                ColumnData::Int(l_suppkey[s..e].to_vec()),
                ColumnData::Float(l_price[s..e].to_vec()),
                ColumnData::Float(l_discount[s..e].to_vec()),
                ColumnData::Int(l_ship[s..e].to_vec()),
                ColumnData::Int(l_commit[s..e].to_vec()),
                ColumnData::Int(l_receipt[s..e].to_vec()),
                modes,
            ],
        );
    }
    for t in [
        &mut nation,
        &mut supplier,
        &mut customer,
        &mut orders,
        &mut lineitem,
    ] {
        t.propagate_all();
    }
    TpchDb {
        nation,
        supplier,
        customer,
        orders,
        lineitem,
        counts: (n_orders, n_lines),
        next_orderkey: n_orders as i64 + 1,
        spec: spec.clone(),
    }
}

/// Produces a permutation that relocates `rate * n` random rows to random
/// positions, leaving the rest in their original relative (sorted) order.
///
/// The `j`-th moved row is spliced in at a uniform slot among the
/// `n - k + j` rows placed before it. Later splices shift it but never
/// reorder it, so placing the moved rows last to first, each in the
/// `(p + 1)`-th slot no later one took, builds the same permutation from
/// the same draws in `O(n log n)`; the kept rows fill the free slots in
/// order.
fn perturbation(n: usize, rate: f64, rng: &mut SmallRng) -> Vec<usize> {
    let k = ((n as f64) * rate).round() as usize;
    if k == 0 {
        return (0..n).collect();
    }
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(rng);
    let moved = &all[..k];
    let draws: Vec<usize> = (0..k).map(|j| rng.gen_range(0..=n - k + j)).collect();
    let mut free = FreeSlots::new(n);
    let mut out = vec![usize::MAX; n];
    for (&m, &p) in moved.iter().zip(&draws).rev() {
        out[free.take(p)] = m;
    }
    let mut is_moved = vec![false; n];
    moved.iter().for_each(|&i| is_moved[i] = true);
    let mut kept = (0..n).filter(|&i| !is_moved[i]);
    for slot in out.iter_mut().filter(|s| **s == usize::MAX) {
        *slot = kept.next().expect("a kept row per free slot");
    }
    out
}

/// The free slots among `0..n`, as a Fenwick tree of 0/1 counts.
struct FreeSlots {
    /// 1-based: node `i` counts the free slots in `(i - lowbit(i), i]`.
    tree: Vec<usize>,
}

impl FreeSlots {
    /// All `n` slots free.
    fn new(n: usize) -> Self {
        FreeSlots {
            tree: (0..=n).map(|i| i & i.wrapping_neg()).collect(),
        }
    }

    /// Takes the `(p + 1)`-th free slot and returns it.
    fn take(&mut self, p: usize) -> usize {
        let n = self.tree.len() - 1;
        // Descend to the longest prefix holding at most `p` free slots.
        let (mut pos, mut rest) = (0, p);
        let mut step = n.next_power_of_two();
        while step > 0 {
            if pos + step <= n && self.tree[pos + step] <= rest {
                pos += step;
                rest -= self.tree[pos];
            }
            step /= 2;
        }
        let mut i = pos + 1;
        while i <= n {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        pos
    }
}

impl TpchDb {
    /// The spec this database was generated with.
    pub fn spec(&self) -> &TpchSpec {
        &self.spec
    }

    /// RF1-style refresh: generates `n_orders` new orders with 1–7 lines
    /// each, returning `(order rows, lineitem rows)` ready for insertion.
    pub fn refresh_insert_rows(&mut self, n_orders: usize) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
        let mut rng = SmallRng::seed_from_u64(self.spec.seed ^ self.next_orderkey as u64);
        let n_customers = self.customer.visible_len() as i64;
        let n_suppliers = self.supplier.visible_len() as i64;
        let date_lo = date(1995, 1, 1);
        let mut orows = Vec::new();
        let mut lrows = Vec::new();
        for _ in 0..n_orders {
            let ok = self.next_orderkey;
            self.next_orderkey += 1;
            let odate = date_lo + rng.gen_range(0..1000);
            orows.push(vec![
                Value::Int(ok),
                Value::Int(rng.gen_range(1..=n_customers)),
                Value::Int(odate),
                Value::Int(0),
                Value::from(PRIORITIES[rng.gen_range(0..5)]),
            ]);
            for _ in 0..rng.gen_range(1..=7) {
                let ship = odate + rng.gen_range(1..=121);
                lrows.push(vec![
                    Value::Int(ok),
                    Value::Int(rng.gen_range(1..=n_suppliers)),
                    Value::Float(rng.gen_range(900.0..105_000.0)),
                    Value::Float(rng.gen_range(0.0..0.1)),
                    Value::Int(ship),
                    Value::Int(odate + rng.gen_range(30..=90)),
                    Value::Int(ship + rng.gen_range(1..=30)),
                    Value::from(SHIPMODES[rng.gen_range(0..7)]),
                ]);
            }
        }
        (orows, lrows)
    }

    /// RF2-style refresh: the lineitem rowIDs (per partition) of the lines
    /// belonging to `n_orders` random existing orders.
    pub fn refresh_delete_rids(&self, n_orders: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let max_ok = self.counts.0 as i64;
        let targets: pi_exec::hash::IntSet = {
            let mut s = pi_exec::hash::int_set();
            while s.len() < n_orders.min(self.counts.0) {
                s.insert(rng.gen_range(1..=max_ok));
            }
            s
        };
        (0..self.lineitem.partition_count())
            .map(|pid| {
                let p = self.lineitem.partition(pid);
                let keys = p.read_range(&[cols::L_ORDERKEY], 0, p.visible_len());
                keys[0]
                    .as_int()
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| targets.contains(k))
                    .map(|(rid, _)| rid)
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchindex::discovery::{discover_values, partition_column_values};
    use patchindex::{Constraint, SortDir};

    fn small(e: f64) -> TpchDb {
        generate(&TpchSpec::new(0.002, e))
    }

    #[test]
    fn row_counts_scale() {
        let db = small(0.0);
        assert_eq!(db.customer.visible_len(), 300);
        assert_eq!(db.orders.visible_len(), 3_000);
        let lines = db.lineitem.visible_len();
        assert!((3_000..=21_000).contains(&lines), "lines {lines}");
    }

    #[test]
    fn zero_rate_lineitem_is_sorted_per_partition() {
        let db = small(0.0);
        for pid in 0..db.lineitem.partition_count() {
            let keys = partition_column_values(db.lineitem.partition(pid), cols::L_ORDERKEY);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "partition {pid}");
        }
    }

    #[test]
    fn perturbation_plants_requested_exception_rate() {
        for e in [0.05, 0.10] {
            let db = small(e);
            let mut patches = 0usize;
            let mut rows = 0usize;
            for pid in 0..db.lineitem.partition_count() {
                let keys = partition_column_values(db.lineitem.partition(pid), cols::L_ORDERKEY);
                let r = discover_values(&keys, Constraint::NearlySorted(SortDir::Asc));
                patches += r.patches.len();
                rows += keys.len();
            }
            let got = patches as f64 / rows as f64;
            assert!(got <= e + 0.01, "e={e} got {got}");
            assert!(got >= e * 0.5, "e={e} got {got}");
        }
    }

    /// The splice loop `perturbation` replaced: each moved row is
    /// inserted with `Vec::insert`, in `O(n * k)`.
    fn perturbation_by_insert(n: usize, rate: f64, rng: &mut SmallRng) -> Vec<usize> {
        let k = ((n as f64) * rate).round() as usize;
        if k == 0 {
            return (0..n).collect();
        }
        let mut all: Vec<usize> = (0..n).collect();
        all.shuffle(rng);
        let moved: Vec<usize> = all[..k].to_vec();
        let mut is_moved = vec![false; n];
        moved.iter().for_each(|&i| is_moved[i] = true);
        let mut out: Vec<usize> = (0..n).filter(|&i| !is_moved[i]).collect();
        for &m in &moved {
            let pos = rng.gen_range(0..=out.len());
            out.insert(pos, m);
        }
        out
    }

    #[test]
    fn perturbation_is_the_splice_loop() {
        use rand::RngCore;
        let mut cases = SmallRng::seed_from_u64(0x5EED);
        for case in 0..1_200 {
            let n = cases.gen_range(0..1_500);
            let rate = match case % 5 {
                0 => 0.0,
                1 => 1.0,
                2 => cases.gen_range(0.0..0.02),
                _ => cases.gen_range(0.0..1.0),
            };
            let seed = cases.next_u64();
            let (mut a, mut b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            let got = perturbation(n, rate, &mut a);
            assert_eq!(
                got,
                perturbation_by_insert(n, rate, &mut b),
                "n={n} rate={rate} seed={seed}"
            );
            // The same draws: both leave the generator in the same state.
            assert_eq!(a.next_u64(), b.next_u64(), "n={n} rate={rate} seed={seed}");
        }
    }

    #[test]
    fn orders_sorted_by_orderkey() {
        let db = small(0.05);
        let keys = partition_column_values(db.orders.partition(0), cols::O_ORDERKEY);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn refresh_insert_produces_fresh_orderkeys() {
        let mut db = small(0.0);
        let (orows, lrows) = db.refresh_insert_rows(10);
        assert_eq!(orows.len(), 10);
        assert!(!lrows.is_empty());
        let max_existing = db.counts.0 as i64;
        assert!(orows.iter().all(|r| r[0].as_int() > max_existing));
    }

    #[test]
    fn refresh_delete_targets_existing_lines() {
        let db = small(0.0);
        let rids = db.refresh_delete_rids(20, 1);
        let total: usize = rids.iter().map(|r| r.len()).sum();
        assert!(total >= 20, "deleted lines {total}");
        for (pid, part_rids) in rids.iter().enumerate() {
            let len = db.lineitem.partition(pid).visible_len();
            assert!(part_rids.iter().all(|&r| r < len));
        }
    }

    #[test]
    fn generation_deterministic() {
        let a = small(0.05);
        let b = small(0.05);
        assert_eq!(
            partition_column_values(a.lineitem.partition(0), 0),
            partition_column_values(b.lineitem.partition(0), 0)
        );
    }
}
