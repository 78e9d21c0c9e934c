//! Hand-lowered physical plans for TPC-H Q3, Q7 and Q12 (paper,
//! Section 6.3 / Figure 10) in four variants each:
//!
//! * **Reference** — hash joins, no constraint information;
//! * **PatchIndex** — the NSC on `l_orderkey` replaces the big HashJoin by
//!   a merge join of the `exclude_patches` flow with the buffered join
//!   subtree "X" (intermediate result caching), and joins the patches to
//!   X apart; the flows recombine as one output (Figure 2, right).
//!   `lineitem` is read once, in one pass per partition: the query's
//!   lineitem predicate and the patch mask are read word-wise, the kept
//!   lines sweep X's sorted keys, each patch finds its partners by binary
//!   search in them, and only lines with a partner are copied. X is
//!   materialized once and only borrowed from then on;
//! * **PatchIndexZbp** — the same plan with zero-branch pruning, which the
//!   one-pass join does by itself: a partition without patches has no
//!   exception bits, so its patches are never joined;
//! * **JoinIdx** — the lineitem⋈orders join is read from a materialized
//!   [`JoinIndex`] partner column instead of being computed.

use patchindex::scan::patch_merge_join;
use patchindex::PatchIndex;
use pi_baselines::JoinIndex;
use pi_exec::expr::str_code;
use pi_exec::ops::agg::{AggSpec, HashAggOp};
use pi_exec::ops::filter::{FilterOp, ProjectOp};
use pi_exec::ops::hash_join::HashJoinOp;
use pi_exec::ops::merge::UnionAllOp;
use pi_exec::ops::scan::ScanOp;
use pi_exec::ops::sort::{SortOp, SortOrder};
use pi_exec::{collect, drain, Batch, Expr, OpRef};
use pi_storage::{date, Table};

use crate::gen::{cols, TpchDb};

/// Which physical plan a query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryVariant {
    /// Hash joins without constraint information.
    Reference,
    /// PatchIndex rewrite (merge join of the kept flow + the patches flow).
    PatchIndex,
    /// PatchIndex rewrite with zero-branch pruning.
    PatchIndexZbp,
    /// Materialized JoinIndex.
    JoinIdx,
}

/// Scans all partitions of a table (union), optionally filtered.
fn scan_all<'a>(table: &'a Table, cols_: Vec<usize>, filter: Option<Expr>) -> OpRef<'a> {
    let parts: Vec<OpRef<'a>> = (0..table.partition_count())
        .map(|pid| Box::new(ScanOp::new(table.partition(pid), cols_.clone(), false)) as OpRef<'a>)
        .collect();
    let union: OpRef<'a> = Box::new(UnionAllOp::new(parts));
    match filter {
        Some(pred) => Box::new(FilterOp::new(union, pred)),
        None => union,
    }
}

/// The lineitem⋈X join for the PatchIndex variants over the materialized
/// subtree `x`, sorted on `x_key`: per partition, one pass of
/// [`patch_merge_join`] joins the lines passing `l_filter` — the kept
/// ones, sorted on `l_orderkey`, by a sweep of `x`, the patches by a
/// binary search in it. Output columns are `[X columns..., lineitem
/// columns...]`.
fn pi_lineitem_join(
    db: &TpchDb,
    index: &PatchIndex,
    x: &Batch,
    x_key: usize,
    l_cols: &[usize],
    l_filter: &Expr,
) -> Batch {
    let mut pieces: Vec<Batch> = Vec::new();
    for part in db.lineitem.partitions() {
        let pred = Some(l_filter.clone());
        let mut join = patch_merge_join(part, index, l_cols.to_vec(), pred, x, x_key);
        pieces.extend(drain(join.as_mut()));
    }
    Batch::concat(&pieces)
}

/// TPC-H Q3 (shipping priority).
pub fn q3(
    db: &TpchDb,
    variant: QueryVariant,
    index: Option<&PatchIndex>,
    ji: Option<&JoinIndex>,
) -> Batch {
    let cutoff = date(1995, 3, 15);
    let seg_dict = db.customer.dict(cols::C_MKTSEGMENT).unwrap();
    let cust_filter = Expr::col(1).eq(Expr::lit_str(seg_dict, "BUILDING"));
    let customer_f = || {
        scan_all(
            &db.customer,
            vec![cols::C_CUSTKEY, cols::C_MKTSEGMENT],
            Some(cust_filter.clone()),
        )
    };
    let orders_cols = vec![
        cols::O_ORDERKEY,
        cols::O_CUSTKEY,
        cols::O_ORDERDATE,
        cols::O_SHIPPRIORITY,
    ];
    let orders_f = || {
        scan_all(
            &db.orders,
            orders_cols.clone(),
            Some(Expr::col(2).lt(Expr::LitInt(cutoff))),
        )
    };
    // X = customer_f ⋈ orders_f, probe side = orders (order preserving).
    // Output: [o_orderkey, o_custkey, o_orderdate, o_shippriority, c_custkey, c_seg]
    let x = || -> OpRef<'_> { Box::new(HashJoinOp::inner(customer_f(), 0, orders_f(), 1)) };
    let l_cols = vec![
        cols::L_ORDERKEY,
        cols::L_EXTENDEDPRICE,
        cols::L_DISCOUNT,
        cols::L_SHIPDATE,
    ];
    let l_filter = Expr::col(3).gt(Expr::LitInt(cutoff));

    let joined: Batch = match variant {
        QueryVariant::Reference => {
            // HashJoin: build = X, probe = lineitem.
            // Output: [l cols (0..4), x cols (4..10)]
            let li = scan_all(&db.lineitem, l_cols.clone(), Some(l_filter.clone()));
            let mut join = HashJoinOp::inner(x(), 0, li, 0);
            // Normalize to [x..., l...].
            project_concat(collect(&mut join), 4)
        }
        QueryVariant::PatchIndex | QueryVariant::PatchIndexZbp => {
            let index = index.expect("PatchIndex variant needs the NSC index");
            let x = collect(x().as_mut());
            pi_lineitem_join(db, index, &x, 0, &l_cols, &l_filter)
        }
        QueryVariant::JoinIdx => {
            let ji = ji.expect("JoinIdx variant needs the JoinIndex");
            return q3_joinindex(db, ji, cutoff, &cust_filter);
        }
    };
    // joined layout: [x(0..6), l(6..)]:
    //   0 o_orderkey 1 o_custkey 2 o_orderdate 3 o_shippriority
    //   4 c_custkey 5 c_seg 6 l_orderkey 7 price 8 discount 9 shipdate
    let revenue = Expr::col(7).mul(Expr::LitFloat(1.0).sub(Expr::col(8)));
    let projected = Batch::new(vec![
        joined.column(6).clone(),
        joined.column(2).clone(),
        joined.column(3).clone(),
        revenue.eval(&joined),
    ]);
    finish_q3(projected)
}

/// Groups, sorts and limits the projected Q3 rows
/// `[l_orderkey, o_orderdate, o_shippriority, revenue]`.
fn finish_q3(projected: Batch) -> Batch {
    let mut agg = HashAggOp::new(
        Box::new(pi_exec::BatchSource::single(projected)),
        vec![0, 1, 2],
        vec![AggSpec::sum(Expr::col(3))],
    );
    let aggd = collect(&mut agg);
    let mut sort = SortOp::new(
        Box::new(pi_exec::BatchSource::single(aggd)),
        vec![(3, SortOrder::Desc), (1, SortOrder::Asc)],
    );
    let sorted = collect(&mut sort);
    let keep: Vec<usize> = (0..sorted.len().min(10)).collect();
    sorted.gather(&keep)
}

fn q3_joinindex(db: &TpchDb, ji: &JoinIndex, cutoff: i64, cust_filter: &Expr) -> Batch {
    // Gather the orders partner columns of the filtered lineitem rows
    // through the materialized index, then finish with the customer join.
    let l_cols = [
        cols::L_ORDERKEY,
        cols::L_EXTENDEDPRICE,
        cols::L_DISCOUNT,
        cols::L_SHIPDATE,
    ];
    let o_cols = [cols::O_CUSTKEY, cols::O_ORDERDATE, cols::O_SHIPPRIORITY];
    // [o_custkey, o_orderdate, o_shipprio, l_orderkey, price, discount, shipdate]
    let combined = joinindex_lines(
        db,
        ji,
        &l_cols,
        &Expr::col(3).gt(Expr::LitInt(cutoff)),
        &o_cols,
    );
    let mut date_f = FilterOp::new(
        Box::new(pi_exec::BatchSource::single(combined)),
        Expr::col(1).lt(Expr::LitInt(cutoff)),
    );
    // Remaining join with the filtered customers.
    let cust = scan_all(
        &db.customer,
        vec![cols::C_CUSTKEY, cols::C_MKTSEGMENT],
        Some(cust_filter.clone()),
    );
    let mut join = HashJoinOp::inner(cust, 0, Box::new(take_op(&mut date_f)), 0);
    let out = collect(&mut join);
    // [o..3, l..4, c_custkey, c_seg]
    let revenue = Expr::col(4).mul(Expr::LitFloat(1.0).sub(Expr::col(5)));
    let projected = Batch::new(vec![
        out.column(3).clone(),
        out.column(1).clone(),
        out.column(2).clone(),
        revenue.eval(&out),
    ]);
    finish_q3(projected)
}

/// The JoinIdx variant's lineitem⋈orders: per partition, the lineitem
/// rows passing `l_filter` with the orders columns `o_cols` of each
/// row's partner, gathered through the materialized [`JoinIndex`].
/// Output columns are `[orders columns..., lineitem columns...]`.
fn joinindex_lines(
    db: &TpchDb,
    ji: &JoinIndex,
    l_cols: &[usize],
    l_filter: &Expr,
    o_cols: &[usize],
) -> Batch {
    let mut pieces: Vec<Batch> = Vec::new();
    for pid in 0..db.lineitem.partition_count() {
        // The scan's trailing rowID column names each line's partner.
        let mut scan = ScanOp::new(db.lineitem.partition(pid), l_cols.to_vec(), true);
        let mut filt = FilterOp::new(Box::new(take_op(&mut scan)), l_filter.clone());
        let out = collect(&mut filt);
        if out.is_empty() {
            continue;
        }
        let mut lines = out.into_columns();
        let rids = lines.pop().expect("rowID column");
        let rids: Vec<usize> = rids.as_int().iter().map(|&r| r as usize).collect();
        let mut columns = ji.gather_dim(&db.orders, pid, &rids, o_cols);
        columns.extend(lines);
        pieces.push(Batch::new(columns));
    }
    Batch::concat(&pieces)
}

// --- small plumbing helpers -------------------------------------------------

/// Drains an operator into a replayable source (pipeline-breaking helper
/// for hand-lowered plans).
fn take_op(op: &mut dyn pi_exec::Operator) -> pi_exec::BatchSource {
    pi_exec::BatchSource::new(pi_exec::drain(op))
}

/// Reorders `[l(0..l_width), x(l_width..)]` into `[x..., l...]`.
fn project_concat(out: Batch, l_width: usize) -> Batch {
    let mut columns = out.into_columns();
    columns.rotate_left(l_width);
    Batch::new(columns)
}

/// TPC-H Q7 (volume shipping).
pub fn q7(
    db: &TpchDb,
    variant: QueryVariant,
    index: Option<&PatchIndex>,
    ji: Option<&JoinIndex>,
) -> Batch {
    let n_dict = db.nation.dict(cols::N_NAME).unwrap();
    let fr = Expr::lit_str(n_dict, "FRANCE");
    let de = Expr::lit_str(n_dict, "GERMANY");
    let nation_pair = || {
        scan_all(
            &db.nation,
            vec![cols::N_NATIONKEY, cols::N_NAME],
            Some(Expr::col(1).eq(fr.clone()).or(Expr::col(1).eq(de.clone()))),
        )
    };
    // supp side: [s_suppkey, s_nationkey, n_key, n_name]
    let supp_nation = || -> OpRef<'_> {
        Box::new(HashJoinOp::inner(
            nation_pair(),
            0,
            scan_all(&db.supplier, vec![cols::S_SUPPKEY, cols::S_NATIONKEY], None),
            1,
        ))
    };
    // cust side: [c_custkey, c_nationkey, n_key, n_name]
    let cust_nation = || -> OpRef<'_> {
        Box::new(HashJoinOp::inner(
            nation_pair(),
            0,
            scan_all(&db.customer, vec![cols::C_CUSTKEY, cols::C_NATIONKEY], None),
            1,
        ))
    };
    // X = cust_nation ⋈ orders (probe = orders, order preserving):
    // [o_orderkey, o_custkey, c_custkey, c_nationkey, n_key, n_name]
    let x = || -> OpRef<'_> {
        Box::new(HashJoinOp::inner(
            cust_nation(),
            0,
            scan_all(&db.orders, vec![cols::O_ORDERKEY, cols::O_CUSTKEY], None),
            1,
        ))
    };
    let ship_lo = date(1995, 1, 1);
    let ship_hi = date(1996, 12, 31);
    let l_cols = vec![
        cols::L_ORDERKEY,
        cols::L_SUPPKEY,
        cols::L_EXTENDEDPRICE,
        cols::L_DISCOUNT,
        cols::L_SHIPDATE,
    ];
    let l_filter = Expr::Between(Box::new(Expr::col(4)), ship_lo, ship_hi);

    // lineitem ⋈ X, normalized to [x(0..6), l(6..)].
    let joined: Batch = match variant {
        QueryVariant::Reference => {
            let li = scan_all(&db.lineitem, l_cols.clone(), Some(l_filter.clone()));
            let mut join = HashJoinOp::inner(x(), 0, li, 0);
            project_concat(collect(&mut join), 5)
        }
        QueryVariant::PatchIndex | QueryVariant::PatchIndexZbp => {
            let index = index.expect("PatchIndex variant needs the NSC index");
            let x = collect(x().as_mut());
            pi_lineitem_join(db, index, &x, 0, &l_cols, &l_filter)
        }
        QueryVariant::JoinIdx => {
            let ji = ji.expect("JoinIdx variant needs the JoinIndex");
            q7_joinindex_join(db, ji, &l_cols, &l_filter)
        }
    };
    // joined: 0 o_orderkey 1 o_custkey 2 c_custkey 3 c_nationkey 4 n2_key
    // 5 cust_nation 6 l_orderkey 7 l_suppkey 8 price 9 discount 10 shipdate
    let mut supp_join = HashJoinOp::inner(
        supp_nation(),
        0,
        Box::new(pi_exec::BatchSource::single(joined)),
        7,
    );
    let out = collect(&mut supp_join);
    // [prev(0..11), s_suppkey(11), s_nationkey(12), n1_key(13), supp_nation(14)]
    if out.is_empty() {
        return Batch::default();
    }
    let pair_filter = Expr::col(14)
        .eq(fr.clone())
        .and(Expr::col(5).eq(de.clone()))
        .or(Expr::col(14).eq(de).and(Expr::col(5).eq(fr)));
    let mut filt = FilterOp::new(Box::new(pi_exec::BatchSource::single(out)), pair_filter);
    let mut proj = ProjectOp::new(
        Box::new(take_op(&mut filt)),
        vec![
            Expr::col(14),                                           // supp_nation
            Expr::col(5),                                            // cust_nation
            Expr::Year(Box::new(Expr::col(10))),                     // l_year
            Expr::col(8).mul(Expr::LitFloat(1.0).sub(Expr::col(9))), // volume
        ],
    );
    let mut agg = HashAggOp::new(
        Box::new(take_op(&mut proj)),
        vec![0, 1, 2],
        vec![AggSpec::sum(Expr::col(3))],
    );
    let mut sort = SortOp::new(
        Box::new(take_op(&mut agg)),
        vec![
            (0, SortOrder::Asc),
            (1, SortOrder::Asc),
            (2, SortOrder::Asc),
        ],
    );
    collect(&mut sort)
}

/// Q7's lineitem⋈orders through the JoinIndex, producing the same
/// `[x(0..6), l(6..)]` layout as the join variants (the cust/nation columns
/// are joined afterwards like the reference plan would).
fn q7_joinindex_join(db: &TpchDb, ji: &JoinIndex, l_cols: &[usize], l_filter: &Expr) -> Batch {
    let o_cols = [cols::O_ORDERKEY, cols::O_CUSTKEY];
    let combined = joinindex_lines(db, ji, l_cols, l_filter, &o_cols);
    // [o_orderkey, o_custkey, l(2..7)] -> join customers to reach the X layout.
    let n_dict = db.nation.dict(cols::N_NAME).unwrap();
    let pair = Expr::col(1)
        .eq(Expr::lit_str(n_dict, "FRANCE"))
        .or(Expr::col(1).eq(Expr::lit_str(n_dict, "GERMANY")));
    let nation_f = scan_all(
        &db.nation,
        vec![cols::N_NATIONKEY, cols::N_NAME],
        Some(pair),
    );
    let cust: OpRef<'_> = Box::new(HashJoinOp::inner(
        nation_f,
        0,
        scan_all(&db.customer, vec![cols::C_CUSTKEY, cols::C_NATIONKEY], None),
        1,
    ));
    let mut join = HashJoinOp::inner(cust, 0, Box::new(pi_exec::BatchSource::single(combined)), 1);
    let out = collect(&mut join);
    // [o_orderkey, o_custkey, l(2..7), c_custkey, c_nationkey, n_key, n_name]
    // Reorder into the uniform [x(0..6), l(6..11)] layout.
    let order: Vec<usize> = vec![0, 1, 7, 8, 9, 10, 2, 3, 4, 5, 6];
    out.project(&order)
}

/// TPC-H Q12 (shipping modes and order priority).
pub fn q12(
    db: &TpchDb,
    variant: QueryVariant,
    index: Option<&PatchIndex>,
    ji: Option<&JoinIndex>,
) -> Batch {
    let mode_dict = db.lineitem.dict(cols::L_SHIPMODE).unwrap();
    let mail = str_code(mode_dict, "MAIL") as i64;
    let ship = str_code(mode_dict, "SHIP") as i64;
    let recv_lo = date(1994, 1, 1);
    let recv_hi = date(1995, 1, 1);
    let l_cols = vec![
        cols::L_ORDERKEY,
        cols::L_SHIPMODE,
        cols::L_COMMITDATE,
        cols::L_RECEIPTDATE,
        cols::L_SHIPDATE,
    ];
    let l_filter = Expr::InInts(Box::new(Expr::col(1)), vec![mail, ship])
        .and(Expr::col(2).lt(Expr::col(3)))
        .and(Expr::col(4).lt(Expr::col(2)))
        .and(Expr::col(3).ge(Expr::LitInt(recv_lo)))
        .and(Expr::col(3).lt(Expr::LitInt(recv_hi)));
    let o_cols = vec![cols::O_ORDERKEY, cols::O_ORDERPRIORITY];

    // Normalized layout: [o_orderkey, o_orderpriority, l(2..)].
    let joined: Batch = match variant {
        QueryVariant::Reference => {
            // Build on the (selective) filtered lineitem, probe orders.
            let li = scan_all(&db.lineitem, l_cols.clone(), Some(l_filter.clone()));
            let mut join = HashJoinOp::inner(li, 0, scan_all(&db.orders, o_cols.clone(), None), 0);
            collect(&mut join)
        }
        QueryVariant::PatchIndex | QueryVariant::PatchIndexZbp => {
            let index = index.expect("PatchIndex variant needs the NSC index");
            let x = collect(scan_all(&db.orders, o_cols.clone(), None).as_mut());
            pi_lineitem_join(db, index, &x, 0, &l_cols, &l_filter)
        }
        QueryVariant::JoinIdx => {
            let ji = ji.expect("JoinIdx variant needs the JoinIndex");
            joinindex_lines(db, ji, &l_cols, &l_filter, &o_cols)
        }
    };
    if joined.is_empty() {
        return Batch::default();
    }
    // All variants produce an o-first layout: the Reference plan probes
    // orders ([probe o(0..2), build l(2..7)]), the PatchIndex flows emit
    // [X=o(0..2), l(2..)], and the JoinIndex gather prepends the o columns.
    let (prio_col, mode_col) = (1, 3);
    let prio_dict = db.orders.dict(cols::O_ORDERPRIORITY).unwrap();
    let urgent = str_code(prio_dict, "1-URGENT") as i64;
    let high = str_code(prio_dict, "2-HIGH") as i64;
    let high_pred = Expr::InInts(Box::new(Expr::col(prio_col)), vec![urgent, high]);
    let projected = Batch::new(vec![
        joined.column(mode_col).clone(),
        high_pred.eval(&joined),
    ]);
    let mut agg = HashAggOp::new(
        Box::new(pi_exec::BatchSource::single(projected)),
        vec![0],
        vec![
            AggSpec::count_if(Expr::col(1).eq(Expr::LitInt(1))),
            AggSpec::count_if(Expr::col(1).eq(Expr::LitInt(0))),
        ],
    );
    let mut sort = SortOp::new(Box::new(take_op(&mut agg)), vec![(0, SortOrder::Asc)]);
    collect(&mut sort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchSpec};
    use patchindex::{Constraint, Design, SortDir};

    fn setup(e: f64) -> (TpchDb, PatchIndex, JoinIndex) {
        let db = generate(&TpchSpec::new(0.002, e));
        let pi = PatchIndex::create(
            &db.lineitem,
            cols::L_ORDERKEY,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        );
        let ji = JoinIndex::create(&db.lineitem, cols::L_ORDERKEY, &db.orders, cols::O_ORDERKEY);
        (db, pi, ji)
    }

    /// Sorts rows into a canonical multiset representation for comparison
    /// (revenue sums may differ in the last float bits between join
    /// orders).
    fn canonical(b: &Batch) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = (0..b.len())
            .map(|i| {
                (0..b.width())
                    .map(|c| match b.column(c) {
                        pi_storage::ColumnData::Float(v) => format!("{:.3}", v[i]),
                        col => col.value(i).to_string(),
                    })
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }

    fn check_all_variants(
        q: impl Fn(&TpchDb, QueryVariant, Option<&PatchIndex>, Option<&JoinIndex>) -> Batch,
        e: f64,
    ) {
        let (db, pi, ji) = setup(e);
        let reference = q(&db, QueryVariant::Reference, None, None);
        assert!(!reference.is_empty(), "reference result empty — weak test");
        for variant in [
            QueryVariant::PatchIndex,
            QueryVariant::PatchIndexZbp,
            QueryVariant::JoinIdx,
        ] {
            let got = q(&db, variant, Some(&pi), Some(&ji));
            assert_eq!(
                canonical(&got),
                canonical(&reference),
                "variant {variant:?} e={e}"
            );
        }
    }

    #[test]
    fn q3_variants_agree_clean() {
        check_all_variants(q3, 0.0);
    }

    #[test]
    fn q3_variants_agree_10pct() {
        check_all_variants(q3, 0.10);
    }

    #[test]
    fn q7_variants_agree_clean() {
        check_all_variants(q7, 0.0);
    }

    #[test]
    fn q7_variants_agree_5pct() {
        check_all_variants(q7, 0.05);
    }

    #[test]
    fn q12_variants_agree_clean() {
        check_all_variants(q12, 0.0);
    }

    #[test]
    fn q12_variants_agree_10pct() {
        check_all_variants(q12, 0.10);
    }

    /// The benchmark's shape: 4 `lineitem` partitions, e = 5 %, one RF1
    /// and one RF2 through the direct index API. The rewrites must agree
    /// with the reference while the refreshes sit in the delta stores
    /// (patch scans select over merge-on-read batches) and after they are
    /// propagated.
    #[test]
    fn patchindex_variants_agree_across_a_refresh_pair() {
        let mut spec = TpchSpec::new(0.004, 0.05);
        spec.lineitem_partitions = 4;
        let mut db = generate(&spec);
        let mut index = PatchIndex::create(
            &db.lineitem,
            cols::L_ORDERKEY,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        );
        // RF1: new orders and their lines.
        let (orders, lines) = db.refresh_insert_rows(20);
        db.orders.insert_rows(&orders);
        let addrs = db.lineitem.insert_rows(&lines);
        index.handle_insert(&mut db.lineitem, &addrs);
        // RF2: old orders and all their lines.
        let line_rids = db.refresh_delete_rids(20, 7);
        let mut doomed: Vec<i64> = Vec::new();
        for (pid, rids) in line_rids.iter().enumerate() {
            let p = db.lineitem.partition(pid);
            doomed.extend(p.gather(&[cols::L_ORDERKEY], rids)[0].as_int());
            index.handle_delete(pid, rids);
            db.lineitem.delete(pid, rids);
        }
        let o = db.orders.partition(0);
        let okeys = o.read_range(&[cols::O_ORDERKEY], 0, o.visible_len());
        let order_rids: Vec<usize> = (0..okeys[0].len())
            .filter(|&r| doomed.contains(&okeys[0].as_int()[r]))
            .collect();
        assert!(!order_rids.is_empty() && !addrs.is_empty(), "weak test");
        db.orders.delete(0, &order_rids);
        type Query = fn(&TpchDb, QueryVariant, Option<&PatchIndex>, Option<&JoinIndex>) -> Batch;
        for propagated in [false, true] {
            if propagated {
                db.lineitem.propagate_all();
                db.orders.propagate_all();
            }
            let pending = db
                .lineitem
                .partitions()
                .iter()
                .any(|p| !p.delta().is_empty());
            assert_eq!(pending, !propagated);
            for (name, q) in [("q3", q3 as Query), ("q7", q7), ("q12", q12)] {
                let want = canonical(&q(&db, QueryVariant::Reference, None, None));
                assert!(!want.is_empty(), "{name}: weak test");
                for variant in [QueryVariant::PatchIndex, QueryVariant::PatchIndexZbp] {
                    let got = canonical(&q(&db, variant, Some(&index), None));
                    assert_eq!(got, want, "{name} {variant:?} propagated={propagated}");
                }
            }
        }
    }

    #[test]
    fn q3_returns_at_most_ten_rows() {
        let (db, _, _) = setup(0.0);
        let out = q3(&db, QueryVariant::Reference, None, None);
        assert!(out.len() <= 10);
        // Sorted by revenue descending.
        let rev = out.column(3).as_float();
        assert!(rev.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn q7_groups_cover_both_nation_directions() {
        let (db, _, _) = setup(0.0);
        let out = q7(&db, QueryVariant::Reference, None, None);
        assert!(!out.is_empty());
        // supp_nation != cust_nation in every group.
        for i in 0..out.len() {
            assert_ne!(out.column(0).value(i), out.column(1).value(i));
        }
    }

    #[test]
    fn q12_counts_split_by_priority() {
        let (db, _, _) = setup(0.0);
        let out = q12(&db, QueryVariant::Reference, None, None);
        assert_eq!(out.len(), 2); // MAIL and SHIP
        let total: i64 =
            out.column(1).as_int().iter().sum::<i64>() + out.column(2).as_int().iter().sum::<i64>();
        assert!(total > 0);
    }
}
