//! Hand-lowered physical plans for TPC-H Q3, Q7 and Q12 (paper,
//! Section 6.3 / Figure 10) in three variants each:
//!
//! * **Reference** — hash joins, no constraint information;
//! * **PatchIndex** — the NSC on `l_orderkey` replaces the big HashJoin by
//!   a merge join of the `exclude_patches` flow with the buffered join
//!   subtree "X" (intermediate result caching), and joins the patches to
//!   X apart; the flows recombine as one output (Figure 2, right).
//!   `lineitem` is read once, in one pass per morsel: the query's
//!   lineitem predicate and the patch mask are read word-wise, the kept
//!   lines sweep X's sorted keys, each patch finds its partners by binary
//!   search in them, and only lines with a partner are copied. X is
//!   materialized once and only borrowed from then on. Zero-branch
//!   pruning needs no plan of its own: a partition without patches has
//!   no exception bits, so its patches are never joined;
//! * **JoinIdx** — the lineitem⋈orders join is read from a materialized
//!   [`JoinIndex`] partner column instead of being computed.
//!
//! No stage of the `orders` or `lineitem` side runs serially (paper,
//! Section 3.2, with the morsel-driven scheduling of Leis et al.). Both
//! tables are read in window-aligned morsels on the pool
//! ([`per_morsel`]): X builds its small side's [`JoinTable`] once and
//! probes `orders` morsel by morsel, and each `lineitem` morsel builds and
//! drains its own pipeline — the PatchIndex join, a probe of the
//! Reference plan's one shared [`JoinTable`], or the JoinIndex gather.
//! The pieces concatenate in (partition, morsel) order, so the result's
//! rows come out in the order a sequential loop over the partitions
//! gives, byte for byte.

use std::ops::Range;

use patchindex::scan::patch_merge_join_rows;
use patchindex::PatchIndex;
use pi_baselines::JoinIndex;
use pi_exec::expr::str_code;
use pi_exec::ops::agg::{AggSpec, HashAggOp};
use pi_exec::ops::filter::{FilterOp, ProjectOp};
use pi_exec::ops::hash_join::{HashJoinOp, JoinTable};
use pi_exec::ops::merge::UnionAllOp;
use pi_exec::ops::scan::ScanOp;
use pi_exec::ops::sort::{SortOp, SortOrder};
use pi_exec::parallel::per_morsel;
use pi_exec::{collect, drain, Batch, BatchSource, Expr, OpRef, Operator};
use pi_storage::{date, Partition, Table};

use crate::gen::{cols, TpchDb};

/// Which physical plan a query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryVariant {
    /// Hash joins without constraint information.
    Reference,
    /// PatchIndex rewrite (merge join of the kept flow + the patches flow).
    PatchIndex,
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

/// A scan of the visible rows `rows` of `part`, filtered by `filter`.
fn scan_rows<'a>(
    part: &'a Partition,
    rows: Range<usize>,
    cols_: Vec<usize>,
    filter: Option<&Expr>,
    with_rowids: bool,
) -> OpRef<'a> {
    let scan: OpRef<'a> = Box::new(ScanOp::with_ranges(part, cols_, vec![rows], with_rowids));
    match filter {
        Some(pred) => Box::new(FilterOp::new(scan, pred.clone())),
        None => scan,
    }
}

/// X, a query's join subtree on the `orders` side, keyed on its column 0
/// (`o_orderkey`): the `orders` columns `cols` of the rows passing
/// `filter`, each joined — when the query has one — with its rows of a
/// small side on one of those columns. Columns: `[orders columns...,
/// small side's columns...]`, rows in `orders` order, a row's small-side
/// partners in their build order: what a [`HashJoinOp`] with the small
/// side as build and the `orders` scan as probe returns.
///
/// It is a description, run only by [`OrdersSide::pieces`], so a plan
/// that needs no X (the JoinIdx variant) never runs it.
struct OrdersSide {
    cols: Vec<usize>,
    filter: Option<Expr>,
    /// The small side's plan and the `orders` column (an index into
    /// `cols`) it joins on its column 0.
    small: Option<(SmallSide, usize)>,
}

/// The plan of X's small side, the build side of its join with `orders`.
type SmallSide = fn(&TpchDb) -> OpRef<'_>;

impl OrdersSide {
    /// X on the pool: builds the small side's [`JoinTable`] once, then
    /// probes it with `orders` morsel by morsel. Returns `each` of every
    /// non-empty X batch, in X's row order.
    fn pieces<T: Send>(&self, db: &TpchDb, each: impl Fn(&Batch) -> T + Sync) -> Vec<T> {
        let small = self
            .small
            .map(|(plan, on)| (JoinTable::build(plan(db).as_mut(), 0), on));
        if small.as_ref().is_some_and(|(table, _)| table.is_empty()) {
            return Vec::new();
        }
        per_morsel(&db.orders, |part, rows| {
            let mut orders = scan_rows(part, rows, self.cols.clone(), self.filter.as_ref(), false);
            let mut out = Vec::new();
            while let Some(batch) = orders.next() {
                let x = match &small {
                    Some((table, on)) => table.probe(&batch, *on),
                    None => batch,
                };
                if !x.is_empty() {
                    out.push(each(&x));
                }
            }
            out
        })
    }

    /// X materialized, dense.
    fn collect(&self, db: &TpchDb) -> Batch {
        Batch::concat(&self.pieces(db, Batch::clone))
    }
}

/// A query's `lineitem` side: what its scans of each partition read and
/// what the JoinIdx plan gathers for each line.
struct LineSide {
    /// The `lineitem` columns read, `l_orderkey` first.
    l_cols: Vec<usize>,
    /// The predicate pushed into the `lineitem` scans.
    l_filter: Expr,
    /// The `orders` columns the JoinIdx plan gathers per line.
    o_cols: Vec<usize>,
    /// Whether the Reference plan builds its hash table on the filtered
    /// lines and probes X (Q12's selective filter), instead of building
    /// on X and probing the lines.
    build_on_lines: bool,
}

/// The lineitem⋈X join of one query as `variant` computes it. The
/// `lineitem` side runs one [`per_morsel`] task per morsel, X's `orders`
/// probe too, and the pieces concatenate in (partition, morsel) order.
/// Output columns:
/// * Reference: `[lineitem columns..., X columns...]`, or `[X columns...,
///   lineitem columns...]` when it builds on the lines;
/// * PatchIndex: `[X columns..., lineitem columns...]`;
/// * JoinIdx: `[side.o_cols..., lineitem columns...]`; X is not run.
fn lineitem_join(
    db: &TpchDb,
    variant: QueryVariant,
    index: Option<&PatchIndex>,
    ji: Option<&JoinIndex>,
    side: &LineSide,
    x: &OrdersSide,
) -> Batch {
    match variant {
        QueryVariant::Reference if side.build_on_lines => {
            let lines = JoinTable::from_batch(Batch::concat(&filtered_lines(db, side)), 0);
            if lines.is_empty() {
                return Batch::default();
            }
            Batch::concat(&x.pieces(db, |x| lines.probe(x, 0)))
        }
        QueryVariant::Reference => probe_lines(db, &JoinTable::from_batch(x.collect(db), 0), side),
        QueryVariant::PatchIndex => {
            let index = index.expect("PatchIndex variant needs the NSC index");
            pi_lineitem_join(db, index, &x.collect(db), side)
        }
        QueryVariant::JoinIdx => {
            let ji = ji.expect("JoinIdx variant needs the JoinIndex");
            joinindex_lines(db, ji, side)
        }
    }
}

/// The lineitem⋈X join for the PatchIndex variant over the materialized
/// X, sorted on its key column 0: each [`per_morsel`] task runs one pass
/// of [`patch_merge_join_rows`] over its rows, which joins the lines
/// passing the side's filter — the kept ones, sorted on `l_orderkey`, by
/// a sweep of `x`, the patches by a binary search in it. Every task
/// borrows `x`. Output columns are `[X columns..., lineitem columns...]`.
fn pi_lineitem_join(db: &TpchDb, index: &PatchIndex, x: &Batch, side: &LineSide) -> Batch {
    let pieces = per_morsel(&db.lineitem, |part, rows| {
        let pred = Some(side.l_filter.clone());
        let cols = side.l_cols.clone();
        drain(patch_merge_join_rows(part, rows, index, cols, pred, x, 0).as_mut())
    });
    Batch::concat(&pieces)
}

/// The `lineitem` lines of one morsel passing the side's filter.
fn morsel_lines<'a>(part: &'a Partition, rows: Range<usize>, side: &LineSide) -> OpRef<'a> {
    scan_rows(part, rows, side.l_cols.clone(), Some(&side.l_filter), false)
}

/// The Reference plans' probe of X's one shared [`JoinTable`]: each
/// [`per_morsel`] task probes it with its morsel's lines passing the
/// side's filter, on `l_orderkey`, batch by batch. Output columns are
/// `[lineitem columns..., X columns...]`.
fn probe_lines(db: &TpchDb, table: &JoinTable, side: &LineSide) -> Batch {
    let pieces = per_morsel(&db.lineitem, |part, rows| {
        let mut lines = morsel_lines(part, rows, side);
        let mut out = Vec::new();
        while let Some(batch) = lines.next() {
            let joined = table.probe(&batch, 0);
            if !joined.is_empty() {
                out.push(joined);
            }
        }
        out
    });
    Batch::concat(&pieces)
}

/// The `lineitem` lines passing the side's filter, from one
/// [`per_morsel`] task per morsel, in order.
fn filtered_lines(db: &TpchDb, side: &LineSide) -> Vec<Batch> {
    per_morsel(&db.lineitem, |part, rows| {
        drain(morsel_lines(part, rows, side).as_mut())
    })
}

/// The JoinIdx variant's lineitem⋈orders: each [`per_morsel`] task
/// yields its morsel's lines passing the side's filter with the `orders`
/// columns `side.o_cols` of each line's partner, gathered through the
/// materialized [`JoinIndex`]. Output columns are `[orders columns...,
/// lineitem columns...]`.
fn joinindex_lines(db: &TpchDb, ji: &JoinIndex, side: &LineSide) -> Batch {
    let pieces = per_morsel(&db.lineitem, |part, rows| {
        // The scan's trailing rowID column names each line's partner.
        let cols = side.l_cols.clone();
        let out = collect(scan_rows(part, rows, cols, Some(&side.l_filter), true).as_mut());
        if out.is_empty() {
            return Vec::new();
        }
        let mut lines = out.into_columns();
        let rids = lines.pop().expect("rowID column");
        let rids: Vec<usize> = rids.as_int().iter().map(|&r| r as usize).collect();
        let mut columns = ji.gather_dim(&db.orders, part.id, &rids, &side.o_cols);
        columns.extend(lines);
        vec![Batch::new(columns)]
    });
    Batch::concat(&pieces)
}

/// Q3's date: orders placed before it, lines shipped after it.
fn q3_cutoff() -> i64 {
    date(1995, 3, 15)
}

/// Q3's lineitem side: `[l_orderkey, l_extendedprice, l_discount,
/// l_shipdate]` of the lines shipped after the cutoff; the JoinIdx plan
/// gathers `[o_custkey, o_orderdate, o_shippriority]`.
fn q3_side() -> LineSide {
    LineSide {
        l_cols: vec![
            cols::L_ORDERKEY,
            cols::L_EXTENDEDPRICE,
            cols::L_DISCOUNT,
            cols::L_SHIPDATE,
        ],
        l_filter: Expr::col(3).gt(Expr::LitInt(q3_cutoff())),
        o_cols: vec![cols::O_CUSTKEY, cols::O_ORDERDATE, cols::O_SHIPPRIORITY],
        build_on_lines: false,
    }
}

/// Q3's customers in the BUILDING segment: `[c_custkey, c_mktsegment]`.
fn q3_customers(db: &TpchDb) -> OpRef<'_> {
    let seg_dict = db.customer.dict(cols::C_MKTSEGMENT).unwrap();
    scan_all(
        &db.customer,
        vec![cols::C_CUSTKEY, cols::C_MKTSEGMENT],
        Some(Expr::col(1).eq(Expr::lit_str(seg_dict, "BUILDING"))),
    )
}

/// Q3's X = customers ⋈ orders placed before the cutoff, probe side =
/// orders (order preserving): `[o_orderkey, o_custkey, o_orderdate,
/// o_shippriority, c_custkey, c_seg]`.
fn q3_orders() -> OrdersSide {
    OrdersSide {
        cols: vec![
            cols::O_ORDERKEY,
            cols::O_CUSTKEY,
            cols::O_ORDERDATE,
            cols::O_SHIPPRIORITY,
        ],
        filter: Some(Expr::col(2).lt(Expr::LitInt(q3_cutoff()))),
        small: Some((q3_customers, 1)),
    }
}

/// TPC-H Q3 (shipping priority).
pub fn q3(
    db: &TpchDb,
    variant: QueryVariant,
    index: Option<&PatchIndex>,
    ji: Option<&JoinIndex>,
) -> Batch {
    let side = q3_side();
    let joined = lineitem_join(db, variant, index, ji, &side, &q3_orders());
    let joined = match variant {
        // Normalize [l(0..4), x(4..10)] to [x..., l...].
        QueryVariant::Reference => project_concat(joined, side.l_cols.len()),
        QueryVariant::PatchIndex => joined,
        QueryVariant::JoinIdx => return q3_joinindex(db, joined),
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
        Box::new(BatchSource::single(projected)),
        vec![0, 1, 2],
        vec![AggSpec::sum(Expr::col(3))],
    );
    let aggd = collect(&mut agg);
    let mut sort = SortOp::new(
        Box::new(BatchSource::single(aggd)),
        vec![(3, SortOrder::Desc), (1, SortOrder::Asc)],
    );
    let sorted = collect(&mut sort);
    let keep: Vec<usize> = (0..sorted.len().min(10)).collect();
    sorted.gather(&keep)
}

/// Finishes Q3 from the JoinIdx plan's gathered lines `[o_custkey,
/// o_orderdate, o_shippriority, l_orderkey, price, discount, shipdate]`:
/// the orders date filter, then the join with the filtered customers.
fn q3_joinindex(db: &TpchDb, combined: Batch) -> Batch {
    let mut date_f = FilterOp::new(
        Box::new(BatchSource::single(combined)),
        Expr::col(1).lt(Expr::LitInt(q3_cutoff())),
    );
    let mut join = HashJoinOp::inner(q3_customers(db), 0, Box::new(take_op(&mut date_f)), 0);
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

// --- small plumbing helpers -------------------------------------------------

/// Drains an operator into a replayable source (pipeline-breaking helper
/// for hand-lowered plans).
fn take_op(op: &mut dyn Operator) -> BatchSource {
    BatchSource::new(drain(op))
}

/// Reorders `[l(0..l_width), x(l_width..)]` into `[x..., l...]`.
fn project_concat(out: Batch, l_width: usize) -> Batch {
    let mut columns = out.into_columns();
    columns.rotate_left(l_width);
    Batch::new(columns)
}

/// Q7's two nations, FRANCE and GERMANY, as `n_name` literals.
fn q7_nations(db: &TpchDb) -> (Expr, Expr) {
    let n_dict = db.nation.dict(cols::N_NAME).unwrap();
    (
        Expr::lit_str(n_dict, "FRANCE"),
        Expr::lit_str(n_dict, "GERMANY"),
    )
}

/// Q7's nations: `[n_nationkey, n_name]` of FRANCE and GERMANY.
fn q7_nation_pair(db: &TpchDb) -> OpRef<'_> {
    let (fr, de) = q7_nations(db);
    scan_all(
        &db.nation,
        vec![cols::N_NATIONKEY, cols::N_NAME],
        Some(Expr::col(1).eq(fr).or(Expr::col(1).eq(de))),
    )
}

/// Q7's customers of the two nations: `[c_custkey, c_nationkey, n_key,
/// n_name]`.
fn q7_cust_nation(db: &TpchDb) -> OpRef<'_> {
    Box::new(HashJoinOp::inner(
        q7_nation_pair(db),
        0,
        scan_all(&db.customer, vec![cols::C_CUSTKEY, cols::C_NATIONKEY], None),
        1,
    ))
}

/// Q7's X = customers of the two nations ⋈ orders (probe = orders, order
/// preserving): `[o_orderkey, o_custkey, c_custkey, c_nationkey, n_key,
/// n_name]`.
fn q7_orders() -> OrdersSide {
    OrdersSide {
        cols: vec![cols::O_ORDERKEY, cols::O_CUSTKEY],
        filter: None,
        small: Some((q7_cust_nation, 1)),
    }
}

/// Q7's lineitem side: `[l_orderkey, l_suppkey, l_extendedprice,
/// l_discount, l_shipdate]` of the lines shipped in 1995–1996; the
/// JoinIdx plan gathers `[o_orderkey, o_custkey]`.
fn q7_side() -> LineSide {
    LineSide {
        l_cols: vec![
            cols::L_ORDERKEY,
            cols::L_SUPPKEY,
            cols::L_EXTENDEDPRICE,
            cols::L_DISCOUNT,
            cols::L_SHIPDATE,
        ],
        l_filter: Expr::Between(Box::new(Expr::col(4)), date(1995, 1, 1), date(1996, 12, 31)),
        o_cols: vec![cols::O_ORDERKEY, cols::O_CUSTKEY],
        build_on_lines: false,
    }
}

/// TPC-H Q7 (volume shipping).
pub fn q7(
    db: &TpchDb,
    variant: QueryVariant,
    index: Option<&PatchIndex>,
    ji: Option<&JoinIndex>,
) -> Batch {
    let (fr, de) = q7_nations(db);
    // supp side: [s_suppkey, s_nationkey, n_key, n_name]
    let supp_nation: OpRef<'_> = Box::new(HashJoinOp::inner(
        q7_nation_pair(db),
        0,
        scan_all(&db.supplier, vec![cols::S_SUPPKEY, cols::S_NATIONKEY], None),
        1,
    ));
    let side = q7_side();
    let joined = lineitem_join(db, variant, index, ji, &side, &q7_orders());
    // lineitem ⋈ X, normalized to [x(0..6), l(6..)].
    let joined = match variant {
        QueryVariant::Reference => project_concat(joined, side.l_cols.len()),
        QueryVariant::PatchIndex => joined,
        QueryVariant::JoinIdx => q7_joinindex_layout(db, joined),
    };
    // joined: 0 o_orderkey 1 o_custkey 2 c_custkey 3 c_nationkey 4 n2_key
    // 5 cust_nation 6 l_orderkey 7 l_suppkey 8 price 9 discount 10 shipdate
    let mut supp_join = HashJoinOp::inner(supp_nation, 0, Box::new(BatchSource::single(joined)), 7);
    let out = collect(&mut supp_join);
    // [prev(0..11), s_suppkey(11), s_nationkey(12), n1_key(13), supp_nation(14)]
    if out.is_empty() {
        return Batch::default();
    }
    let pair_filter = Expr::col(14)
        .eq(fr.clone())
        .and(Expr::col(5).eq(de.clone()))
        .or(Expr::col(14).eq(de).and(Expr::col(5).eq(fr)));
    let mut filt = FilterOp::new(Box::new(BatchSource::single(out)), pair_filter);
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

/// Brings the JoinIdx plan's gathered Q7 lines `[o_orderkey, o_custkey,
/// l(2..7)]` into the join variants' `[x(0..6), l(6..)]` layout: the
/// cust/nation columns are joined afterwards like the reference plan
/// would.
fn q7_joinindex_layout(db: &TpchDb, combined: Batch) -> Batch {
    let mut join = HashJoinOp::inner(
        q7_cust_nation(db),
        0,
        Box::new(BatchSource::single(combined)),
        1,
    );
    let out = collect(&mut join);
    // [o_orderkey, o_custkey, l(2..7), c_custkey, c_nationkey, n_key, n_name]
    // Reorder into the uniform [x(0..6), l(6..11)] layout.
    let order: Vec<usize> = vec![0, 1, 7, 8, 9, 10, 2, 3, 4, 5, 6];
    out.project(&order)
}

/// Q12's lineitem side: `[l_orderkey, l_shipmode, l_commitdate,
/// l_receiptdate, l_shipdate]` of the MAIL and SHIP lines received late
/// in 1994. X is `[o_orderkey, o_orderpriority]`, which the JoinIdx plan
/// gathers, and the Reference plan builds on these selective lines.
fn q12_side(db: &TpchDb) -> LineSide {
    let mode_dict = db.lineitem.dict(cols::L_SHIPMODE).unwrap();
    let mail = str_code(mode_dict, "MAIL") as i64;
    let ship = str_code(mode_dict, "SHIP") as i64;
    let l_filter = Expr::InInts(Box::new(Expr::col(1)), vec![mail, ship])
        .and(Expr::col(2).lt(Expr::col(3)))
        .and(Expr::col(4).lt(Expr::col(2)))
        .and(Expr::col(3).ge(Expr::LitInt(date(1994, 1, 1))))
        .and(Expr::col(3).lt(Expr::LitInt(date(1995, 1, 1))));
    LineSide {
        l_cols: vec![
            cols::L_ORDERKEY,
            cols::L_SHIPMODE,
            cols::L_COMMITDATE,
            cols::L_RECEIPTDATE,
            cols::L_SHIPDATE,
        ],
        l_filter,
        o_cols: vec![cols::O_ORDERKEY, cols::O_ORDERPRIORITY],
        build_on_lines: true,
    }
}

/// Q12's X: `[o_orderkey, o_orderpriority]` of every order.
fn q12_orders() -> OrdersSide {
    OrdersSide {
        cols: vec![cols::O_ORDERKEY, cols::O_ORDERPRIORITY],
        filter: None,
        small: None,
    }
}

/// TPC-H Q12 (shipping modes and order priority).
pub fn q12(
    db: &TpchDb,
    variant: QueryVariant,
    index: Option<&PatchIndex>,
    ji: Option<&JoinIndex>,
) -> Batch {
    let joined = lineitem_join(db, variant, index, ji, &q12_side(db), &q12_orders());
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
        Box::new(BatchSource::single(projected)),
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
    use patchindex::scan::patch_merge_join;
    use patchindex::{Constraint, Design, SortDir};
    use pi_exec::parallel::morsels;
    use pi_exec::BATCH_SIZE;

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
        for variant in [QueryVariant::PatchIndex, QueryVariant::JoinIdx] {
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

    /// The benchmark's shape at scale factor `sf`: 4 `lineitem`
    /// partitions, e = 5 %, one RF1 and one RF2 through the direct index
    /// API, left in the delta stores.
    fn refresh_pair(sf: f64) -> (TpchDb, PatchIndex) {
        let mut spec = TpchSpec::new(sf, 0.05);
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
        (db, index)
    }

    /// Runs `check` on the refresh pair while the refreshes sit in the
    /// delta stores (scans select over merge-on-read batches) and after
    /// they are propagated.
    fn across_a_refresh_pair(check: impl Fn(&TpchDb, &PatchIndex, bool)) {
        across_a_refresh_pair_at(0.004, check);
    }

    /// [`across_a_refresh_pair`] at scale factor `sf`.
    fn across_a_refresh_pair_at(sf: f64, check: impl Fn(&TpchDb, &PatchIndex, bool)) {
        let (mut db, index) = refresh_pair(sf);
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
            check(&db, &index, propagated);
        }
    }

    /// The rewrite must agree with the reference across a refresh pair.
    #[test]
    fn patchindex_variants_agree_across_a_refresh_pair() {
        type Query = fn(&TpchDb, QueryVariant, Option<&PatchIndex>, Option<&JoinIndex>) -> Batch;
        across_a_refresh_pair(|db, index, propagated| {
            for (name, q) in [("q3", q3 as Query), ("q7", q7), ("q12", q12)] {
                let want = canonical(&q(db, QueryVariant::Reference, None, None));
                assert!(!want.is_empty(), "{name}: weak test");
                let got = canonical(&q(db, QueryVariant::PatchIndex, Some(index), None));
                assert_eq!(got, want, "{name} propagated={propagated}");
            }
        });
    }

    /// Every value of `b`, column by column and row by row, as exact
    /// bytes (floats by their bits, strings by their codes).
    fn exact_bytes(b: &Batch) -> Vec<u8> {
        let mut out = b.width().to_le_bytes().to_vec();
        for c in 0..b.width() {
            match b.column(c) {
                pi_storage::ColumnData::Int(v) => {
                    v.iter().for_each(|x| out.extend(x.to_le_bytes()));
                }
                pi_storage::ColumnData::Float(v) => {
                    v.iter().for_each(|x| out.extend(x.to_bits().to_le_bytes()));
                }
                pi_storage::ColumnData::Str { codes, .. } => {
                    codes.iter().for_each(|x| out.extend(x.to_le_bytes()));
                }
            }
        }
        out
    }

    impl OrdersSide {
        /// X as one serial operator pipeline: a [`HashJoinOp`] with the
        /// small side as build and the scan of every `orders` partition
        /// as probe. The oracle of [`OrdersSide::pieces`].
        fn serial<'a>(&self, db: &'a TpchDb) -> OpRef<'a> {
            let orders = scan_all(&db.orders, self.cols.clone(), self.filter.clone());
            match self.small {
                Some((plan, on)) => Box::new(HashJoinOp::inner(plan(db), 0, orders, on)),
                None => orders,
            }
        }
    }

    fn q3_x(db: &TpchDb) -> OpRef<'_> {
        q3_orders().serial(db)
    }

    fn q7_x(db: &TpchDb) -> OpRef<'_> {
        q7_orders().serial(db)
    }

    fn q12_x(db: &TpchDb) -> OpRef<'_> {
        q12_orders().serial(db)
    }

    /// The X of the query named `name`.
    fn orders(name: &str) -> OrdersSide {
        match name {
            "q3" => q3_orders(),
            "q7" => q7_orders(),
            "q12" => q12_orders(),
            other => panic!("no query {other}"),
        }
    }

    /// [`lineitem_join`] as one sequential loop over the `lineitem`
    /// partitions: the Reference plans as one hash join over the union
    /// of the partition scans, the other variants partition by partition
    /// in order.
    fn sequential_lineitem_join(
        db: &TpchDb,
        variant: QueryVariant,
        index: &PatchIndex,
        ji: &JoinIndex,
        side: &LineSide,
        mut x: OpRef<'_>,
    ) -> Batch {
        let lines = || {
            scan_all(
                &db.lineitem,
                side.l_cols.clone(),
                Some(side.l_filter.clone()),
            )
        };
        let mut pieces: Vec<Batch> = Vec::new();
        match variant {
            QueryVariant::Reference if side.build_on_lines => {
                return collect(&mut HashJoinOp::inner(lines(), 0, x, 0));
            }
            QueryVariant::Reference => return collect(&mut HashJoinOp::inner(x, 0, lines(), 0)),
            QueryVariant::PatchIndex => {
                let x = collect(x.as_mut());
                for part in db.lineitem.partitions() {
                    let pred = Some(side.l_filter.clone());
                    let cols = side.l_cols.clone();
                    pieces.extend(drain(
                        patch_merge_join(part, index, cols, pred, &x, 0).as_mut(),
                    ));
                }
            }
            QueryVariant::JoinIdx => {
                for pid in 0..db.lineitem.partition_count() {
                    let part = db.lineitem.partition(pid);
                    let mut scan = ScanOp::new(part, side.l_cols.clone(), true);
                    let out = collect(&mut FilterOp::new(
                        Box::new(take_op(&mut scan)),
                        side.l_filter.clone(),
                    ));
                    if out.is_empty() {
                        continue;
                    }
                    let mut lines = out.into_columns();
                    let rids = lines.pop().expect("rowID column");
                    let rids: Vec<usize> = rids.as_int().iter().map(|&r| r as usize).collect();
                    let mut columns = ji.gather_dim(&db.orders, pid, &rids, &side.o_cols);
                    columns.extend(lines);
                    pieces.push(Batch::new(columns));
                }
            }
        }
        Batch::concat(&pieces)
    }

    /// The partition-parallel lineitem side of Q3, Q7 and Q12 yields, in
    /// every variant, exactly the bytes and row order of the sequential
    /// loop: the pieces concatenate in partition order.
    #[test]
    fn lineitem_join_is_the_sequential_loop_byte_for_byte() {
        type Side = (
            &'static str,
            fn(&TpchDb) -> LineSide,
            fn(&TpchDb) -> OpRef<'_>,
        );
        let sides: [Side; 3] = [
            ("q3", |_| q3_side(), q3_x),
            ("q7", |_| q7_side(), q7_x),
            ("q12", q12_side, q12_x),
        ];
        across_a_refresh_pair(|db, index, propagated| {
            let ji =
                JoinIndex::create(&db.lineitem, cols::L_ORDERKEY, &db.orders, cols::O_ORDERKEY);
            for (name, side, x) in sides {
                let side = side(db);
                for variant in [
                    QueryVariant::Reference,
                    QueryVariant::PatchIndex,
                    QueryVariant::JoinIdx,
                ] {
                    let got =
                        lineitem_join(db, variant, Some(index), Some(&ji), &side, &orders(name));
                    let want = sequential_lineitem_join(db, variant, index, &ji, &side, x(db));
                    assert!(want.len() > 1, "{name} {variant:?}: weak test");
                    assert_eq!(
                        exact_bytes(&got),
                        exact_bytes(&want),
                        "{name} {variant:?} propagated={propagated}"
                    );
                }
            }
        });
    }

    /// At a size where every `lineitem` partition splits into ≥ 3
    /// morsels and `orders` into ≥ 2, the morsel-parallel join is still
    /// the sequential loop byte for byte, in every variant, propagated
    /// and with a refresh pair pending — appends past a base whose
    /// visible length is off the window grid, and deletes — and Q3's and
    /// Q7's pooled X is the serial hash join pipeline's bytes. A morsel
    /// cut off the scan's window grid reorders the PatchIndex join's
    /// kept rows and exceptions, and fails here.
    #[test]
    fn morsel_parallel_join_is_the_sequential_loop_byte_for_byte() {
        let sf = 0.05;
        type Side = (&'static str, fn(&TpchDb) -> LineSide);
        let sides: [Side; 3] = [
            ("q3", |_| q3_side()),
            ("q7", |_| q7_side()),
            ("q12", q12_side),
        ];
        across_a_refresh_pair_at(sf, |db, index, propagated| {
            let parts = db.lineitem.partitions();
            assert!(parts.iter().all(|p| morsels(p).len() >= 3), "weak test");
            assert!(morsels(db.orders.partition(0)).len() >= 2, "weak test");
            if !propagated {
                let off_grid = parts.iter().filter(|p| {
                    let d = p.delta();
                    d.base_visible_len() % BATCH_SIZE != 0
                        && d.append_len() > 0
                        && d.base_visible_len() < p.base_column(0).len()
                });
                assert!(
                    off_grid.count() > 0,
                    "weak test: no off-grid pending partition"
                );
            }
            for name in ["q3", "q7"] {
                let got = orders(name).collect(db);
                let want = collect(orders(name).serial(db).as_mut());
                assert!(want.len() > 1_000, "{name}: weak test");
                assert_eq!(exact_bytes(&got), exact_bytes(&want), "{name} X");
            }
            let ji =
                JoinIndex::create(&db.lineitem, cols::L_ORDERKEY, &db.orders, cols::O_ORDERKEY);
            for (name, side) in sides {
                let side = side(db);
                for variant in [
                    QueryVariant::Reference,
                    QueryVariant::PatchIndex,
                    QueryVariant::JoinIdx,
                ] {
                    let x = orders(name);
                    let got = lineitem_join(db, variant, Some(index), Some(&ji), &side, &x);
                    let want =
                        sequential_lineitem_join(db, variant, index, &ji, &side, x.serial(db));
                    assert!(want.len() > 1, "{name} {variant:?}: weak test");
                    assert_eq!(
                        exact_bytes(&got),
                        exact_bytes(&want),
                        "{name} {variant:?} propagated={propagated}"
                    );
                }
            }
        });
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
