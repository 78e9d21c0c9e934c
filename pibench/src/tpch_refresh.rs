//! `tpch_refresh`: the paper's join-heavy scenario. TPC-H at scale 0.1
//! with 5 % of `lineitem` out of order, an NSC Bitmap PatchIndex on
//! `l_orderkey`, everything through the direct `PatchIndex` API. A write
//! op is a refresh pair: RF1 inserts 2 % new orders with their lines
//! (`insert_rows` + `handle_insert`), RF2 deletes 2 % of the live orders
//! and their lines (`handle_delete` + `Table::delete`) — 12k lines each
//! way, so a pair takes ~6 ms (at TPC-H's 0.1 % it took 0.2 ms, at 0.5 %
//! 2 ms, and on a busy host a 2 ms op measures the scheduler). After three
//! pairs Q3, Q7 and Q12 run in their PatchIndex variant. Merge and hash
//! join kernels, LIS maintenance and `bulk_delete` dominate; planner,
//! cache, server and durability are bypassed.

use std::cell::RefCell;

use patchindex::{Constraint, Design, PatchIndex, SortDir};
use pi_exec::Batch;
use pi_storage::{ColumnData, Table, Value};
use pi_tpch::{cols, q12, q3, q7, QueryVariant, TpchDb, TpchSpec};

use crate::probes;
use crate::rec::{Recorder, Stages};
use crate::util::Rng;
use crate::workload::{table_delta_rows, Metrics, Workload};

const E_NSC: f64 = 0.05;
const REFRESH_SHARE: f64 = 0.02;
const PAIRS_PER_ROUND: usize = 3;

type Query =
    fn(&TpchDb, QueryVariant, Option<&PatchIndex>, Option<&pi_baselines::JoinIndex>) -> Batch;

/// (span name, query, its `_ms` metric, its `_speedup` metric)
const QUERIES: [(&str, Query, &str, &str); 3] = [
    ("q3", q3, "tpch.q3_ms", "tpch.q3_speedup"),
    ("q7", q7, "tpch.q7_ms", "tpch.q7_speedup"),
    ("q12", q12, "tpch.q12_ms", "tpch.q12_speedup"),
];

pub struct Input {
    seed: u64,
    /// The generated database with `lineitem` and `orders` as generated.
    /// `TpchDb` cannot be cloned and generating one takes seconds, so a
    /// set-up takes it from here and a teardown puts it back; the two
    /// tables the refreshes change are restored from the copy-on-write
    /// clones beside it.
    db: RefCell<Option<TpchDb>>,
    lineitem: Table,
    orders: Table,
}

pub struct TpchRefresh {
    db: TpchDb,
    index: PatchIndex,
    rng: Rng,
    refresh_orders: usize,
    /// The driver's own copy of `o_orderkey` and (per partition) of
    /// `l_orderkey`, kept in step with every refresh, so drawing RF2's
    /// targets never reads the tables through their pending deltas.
    order_keys: Vec<i64>,
    line_keys: Vec<Vec<i64>>,
    /// Lines inserted / deleted inside traced rounds (what the `rf1` and
    /// `rf2` spans cover).
    rf1_rows: usize,
    rf2_rows: usize,
    index_create_ms: f64,
}

fn canonical(b: &Batch) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..b.len())
        .map(|i| {
            (0..b.width())
                .map(|c| match b.column(c) {
                    ColumnData::Float(v) => format!("{:.3}", v[i]),
                    col => col.value(i).to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// Visible values of an integer column, partition by partition.
fn int_column(t: &Table, col: usize) -> Vec<Vec<i64>> {
    t.partitions()
        .iter()
        .map(|p| {
            p.read_range(&[col], 0, p.visible_len())[0]
                .as_int()
                .to_vec()
        })
        .collect()
}

impl TpchRefresh {
    /// RF1 input: new orders and their lines from the generator, with the
    /// base table's share of lines moved out of order so the exception
    /// rate stays where it started. Untimed.
    fn rf1_input(&mut self) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
        let (orders, mut lines) = self.db.refresh_insert_rows(self.refresh_orders);
        let moves = (lines.len() as f64 * E_NSC / 2.0).round() as usize;
        for _ in 0..moves {
            let a = self.rng.below(lines.len() as u64) as usize;
            let b = self.rng.below(lines.len() as u64) as usize;
            lines.swap(a, b);
        }
        (orders, lines)
    }

    /// RF2 input: the rowIDs of 2 % of the *live* orders and of their
    /// lines (the generator's own helper samples keys that earlier rounds
    /// already deleted, so its sets shrink over a run). Untimed.
    fn rf2_input(&mut self) -> (Vec<usize>, Vec<Vec<usize>>) {
        let order_rids = self
            .rng
            .distinct_sorted(self.refresh_orders, 0, self.order_keys.len());
        let targets: std::collections::HashSet<i64> =
            order_rids.iter().map(|&r| self.order_keys[r]).collect();
        let line_rids = self
            .line_keys
            .iter()
            .map(|keys| {
                keys.iter()
                    .enumerate()
                    .filter(|(_, k)| targets.contains(k))
                    .map(|(rid, _)| rid)
                    .collect()
            })
            .collect();
        (order_rids, line_rids)
    }

    /// Applies a refresh pair to the driver's key copies.
    fn mirror(
        &mut self,
        orders: &[Vec<Value>],
        lines: &[Vec<Value>],
        addrs: &[pi_storage::RowAddr],
        order_rids: &[usize],
        line_rids: &[Vec<usize>],
    ) {
        fn remove_sorted(keys: &mut Vec<i64>, rids: &[usize]) {
            let mut next = rids.iter().peekable();
            let mut i = 0;
            keys.retain(|_| {
                let hit = next.peek().is_some_and(|&&r| r == i);
                if hit {
                    next.next();
                }
                i += 1;
                !hit
            });
        }
        // RF2's rowIDs name rows as they were before RF1 appended.
        remove_sorted(&mut self.order_keys, order_rids);
        for (keys, rids) in self.line_keys.iter_mut().zip(line_rids) {
            remove_sorted(keys, rids);
        }
        self.order_keys
            .extend(orders.iter().map(|o| o[cols::O_ORDERKEY].as_int()));
        for (line, addr) in lines.iter().zip(addrs) {
            self.line_keys[addr.partition].push(line[cols::L_ORDERKEY].as_int());
        }
    }

    /// One write op: a refresh pair, RF1 then RF2. The last pair of a
    /// round also merges the pending deltas, so the round's queries run on
    /// propagated tables — join kernels and patch scans, not the
    /// merge-on-read path — and the slow write class is a third of the
    /// writes.
    fn refresh_pair(&mut self, propagate: bool, rec: &mut Recorder) {
        // Both inputs are drawn up front: RF1 only appends, so the rowIDs
        // RF2 names stay valid across it.
        let (orders, lines, order_rids, line_rids) = rec.span("input", |_| {
            let (orders, lines) = self.rf1_input();
            let (order_rids, line_rids) = self.rf2_input();
            (orders, lines, order_rids, line_rids)
        });
        let deleted: usize = line_rids.iter().map(Vec::len).sum();
        rec.note(&[1, orders[0][0].as_int() as u64, lines.len() as u64]);
        rec.note(&[2, order_rids[0] as u64, deleted as u64]);
        if rec.traced {
            self.rf1_rows += lines.len();
            self.rf2_rows += deleted;
        }
        let addrs = rec.write(|rec| {
            let addrs = rec.span("rf1", |_| {
                self.db.orders.insert_rows(&orders);
                let addrs = self.db.lineitem.insert_rows(&lines);
                self.index.handle_insert(&mut self.db.lineitem, &addrs);
                addrs
            });
            rec.span("rf2", |_| {
                for (pid, rids) in line_rids.iter().enumerate() {
                    self.index.handle_delete(pid, rids);
                    self.db.lineitem.delete(pid, rids);
                }
                self.db.orders.delete(0, &order_rids);
            });
            if propagate {
                rec.span("propagate", |_| {
                    self.db.lineitem.propagate_all();
                    self.db.orders.propagate_all();
                });
            }
            addrs
        });
        rec.span("input", |_| {
            self.mirror(&orders, &lines, &addrs, &order_rids, &line_rids)
        });
    }
}

impl Workload for TpchRefresh {
    const NAME: &'static str = "tpch_refresh";
    const OPS_PER_ROUND: usize = PAIRS_PER_ROUND + 3;
    const ROUND_MS: f64 = 225.0;
    const CADENCE: usize = 4;
    type Input = Input;

    fn generate(seed: u64, smoke: bool) -> Input {
        let mut spec = TpchSpec::new(if smoke { 0.004 } else { 0.1 }, E_NSC);
        spec.lineitem_partitions = 4;
        spec.seed ^= seed.wrapping_mul(0x9E37_79B9);
        let db = pi_tpch::generate(&spec);
        Input {
            seed,
            lineitem: db.lineitem.clone(),
            orders: db.orders.clone(),
            db: RefCell::new(Some(db)),
        }
    }

    fn setup(input: &Input, _traced: bool, st: &mut Stages, rec: &mut Recorder) -> TpchRefresh {
        let mut db = input.db.borrow_mut().take().expect("one set-up at a time");
        db.lineitem = input.lineitem.clone();
        db.orders = input.orders.clone();
        let index = st.run("index", rec, || {
            PatchIndex::create(
                &db.lineitem,
                cols::L_ORDERKEY,
                Constraint::NearlySorted(SortDir::Asc),
                Design::Bitmap,
            )
        });
        let refresh_orders = ((db.counts.0 as f64 * REFRESH_SHARE) as usize).max(4);
        let order_keys = int_column(&db.orders, cols::O_ORDERKEY).swap_remove(0);
        let line_keys = int_column(&db.lineitem, cols::L_ORDERKEY);
        TpchRefresh {
            db,
            index,
            rng: Rng::new(input.seed ^ 0x7C4),
            refresh_orders,
            order_keys,
            line_keys,
            rf1_rows: 0,
            rf2_rows: 0,
            index_create_ms: st.stage_ms("index"),
        }
    }

    fn round(&mut self, _r: usize, rec: &mut Recorder) {
        for pair in 0..PAIRS_PER_ROUND {
            self.refresh_pair(pair + 1 == PAIRS_PER_ROUND, rec);
        }
        for (name, q, _, _) in QUERIES {
            rec.note(&[3]);
            let rows = rec.read(|rec| {
                rec.span(name, |_| {
                    q(&self.db, QueryVariant::PatchIndex, Some(&self.index), None)
                })
                .len()
            });
            if rows == 0 {
                rec.fail("empty result");
            }
        }
    }

    fn audit(&mut self) -> Result<u64, String> {
        let mut passed = 0;
        for (name, q, _, _) in QUERIES {
            let got = q(&self.db, QueryVariant::PatchIndex, Some(&self.index), None);
            let want = q(&self.db, QueryVariant::Reference, None, None);
            if canonical(&got) != canonical(&want) {
                return Err(format!("{name}: PatchIndex variant differs from Reference"));
            }
            passed += 1;
        }
        Ok(passed)
    }

    fn final_audit(&mut self) -> Result<u64, String> {
        let passed = self.audit()?;
        self.index.check_consistency(&self.db.lineitem);
        Ok(passed + 1)
    }

    fn index_bytes_and_rows(&self) -> (usize, usize) {
        (self.index.memory_bytes(), self.db.lineitem.visible_len())
    }

    fn delta_rows(&self) -> usize {
        table_delta_rows(&self.db.lineitem) + table_delta_rows(&self.db.orders)
    }

    fn layers(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        m.insert("core.index_create_ms", self.index_create_ms);
        m.insert(
            "tpch.rf1_us_per_row",
            rec.span_total_ms("rf1") * 1e3 / self.rf1_rows.max(1) as f64,
        );
        m.insert(
            "tpch.rf2_us_per_row",
            rec.span_total_ms("rf2") * 1e3 / self.rf2_rows.max(1) as f64,
        );
        for (name, q, ms_key, speedup_key) in QUERIES {
            m.insert(ms_key, rec.span_mean_ms(name));
            let with = probes::median_ms(3, || {
                drop(q(
                    &self.db,
                    QueryVariant::PatchIndex,
                    Some(&self.index),
                    None,
                ))
            });
            let without =
                probes::median_ms(3, || drop(q(&self.db, QueryVariant::Reference, None, None)));
            m.insert(speedup_key, without / with.max(1e-9));
        }
        m.insert("tpch.nsc_exception_rate_end", self.index.exception_rate());
        let indexes = [std::sync::Arc::new(self.index.clone())];
        probes::index_quality(&indexes, m);
        probes::storage_probes(&self.db.lineitem, &mut self.rng, m);
        probes::bitmap_probe(&indexes, &mut self.rng, m);
        probes::fanout_spawn(&self.db.lineitem, m);
        m.insert(
            "core.recompute_ms",
            probes::time_ms(|| self.index.recompute(&self.db.lineitem)),
        );
    }

    fn teardown(self, input: &Input) {
        *input.db.borrow_mut() = Some(self.db);
    }
}
