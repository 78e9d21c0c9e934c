//! `adhoc_exec`: in-process `ConcurrentTable`, no result cache. Every read
//! is planned and executed on a fresh snapshot, so planner, executor,
//! patch-select and the partition fan-out do nearly all the work; cache
//! and server do none, and an optimisation of either must show no change
//! here.

use std::sync::Arc;

use patchindex::{ConcurrentTable, Design, IndexedTable, TableWriter};
use pi_exec::ops::sort::SortOrder;
use pi_obs::MetricsRegistry;
use pi_planner::Plan;
use pi_storage::Value;

use crate::probes;
use crate::rec::{Recorder, Stages};
use crate::util::Rng;
use crate::workload::{
    audit_plans, micro, snapshot_index_bytes_and_rows, snapshot_read, table_delta_rows, Metrics,
    OpAgg, ReadPlan, Workload,
};

const PARTS: usize = 8;
const MODIFY_ROWS: usize = 256;
/// Writes of a propagate cycle all land in one partition, so every read
/// sees exactly one partition with a pending delta: a plateau, not a
/// saw-tooth.
const PROPAGATE_EVERY: usize = 8;
/// One round: write `i` modifies column `i` (NUC, NSC, NCC, plain), then
/// two reads (0 distinct on NUC, 1 sort on NSC, 2 distinct on NCC). The
/// slow classes are a quarter of their op type — the NUC write (collision
/// join) and the sort — so both p95s sit at the 80th percentile of a
/// homogeneous class; five of eight reads are the same kind, so
/// `read_p50_ms` sits inside that class and not between two.
const ROUND: [[usize; 2]; 4] = [[0, 1], [0, 0], [1, 2], [0, 0]];

pub struct Input {
    seed: u64,
    rows: usize,
    /// Per partition: the four columns.
    parts: Vec<[Vec<i64>; 4]>,
}

pub struct AdhocExec {
    handle: ConcurrentTable,
    writer: TableWriter,
    registry: Option<Arc<MetricsRegistry>>,
    rng: Rng,
    rows: usize,
    fresh: i64,
    plans: [ReadPlan; 3],
    agg: OpAgg,
    index_create_ms: f64,
}

fn plans() -> [ReadPlan; 3] {
    [
        (
            Plan::scan(vec![0]).distinct(vec![0]),
            false,
            "distinct(nuc)",
        ),
        (
            Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]),
            true,
            "sort(nsc)",
        ),
        (
            Plan::scan(vec![2]).distinct(vec![0]),
            false,
            "distinct(ncc)",
        ),
    ]
}

impl AdhocExec {
    /// New value for column `col` of row `i`: drawn like the base
    /// distribution, so exception rates stay where they started.
    fn new_value(&mut self, col: usize, pid: usize, i: usize) -> i64 {
        match col {
            0 => micro::nuc_value(&mut self.rng, pid, &mut self.fresh),
            1 => {
                let backbone = micro::nsc_backbone(self.rows, pid, i);
                micro::nsc_value(&mut self.rng, backbone, PARTS * self.rows)
            }
            2 => micro::ncc_value(&mut self.rng),
            _ => self.rng.below(61) as i64,
        }
    }

    fn write(&mut self, r: usize, col: usize, propagate: bool, rec: &mut Recorder) {
        let pid = (r / PROPAGATE_EVERY) % PARTS;
        let (rids, vals) = rec.span("input", |_| {
            let rids = self.rng.distinct_sorted(MODIFY_ROWS, 0, self.rows);
            let vals: Vec<Value> = rids
                .iter()
                .map(|&i| Value::Int(self.new_value(col, pid, i)))
                .collect();
            (rids, vals)
        });
        rec.note(&[
            1,
            pid as u64,
            col as u64,
            rids[0] as u64,
            vals[0].as_int() as u64,
        ]);
        rec.write(|rec| {
            if propagate {
                rec.span("propagate", |_| self.writer.staging_mut().propagate());
            }
            rec.span("modify", |_| self.writer.modify(pid, &rids, col, &vals));
            rec.span("publish", |_| self.writer.publish());
        });
    }

    fn read(&mut self, which: usize, rec: &mut Recorder) {
        rec.note(&[2, which as u64]);
        snapshot_read(&self.handle, &self.plans[which].0, &mut self.agg, rec);
    }
}

impl Workload for AdhocExec {
    const NAME: &'static str = "adhoc_exec";
    const OPS_PER_ROUND: usize = 12;
    const ROUND_MS: f64 = 190.0;
    const CADENCE: usize = PROPAGATE_EVERY;
    type Input = Input;

    fn generate(seed: u64, smoke: bool) -> Input {
        let rows = if smoke { 2_000 } else { 50_000 };
        let mut rng = Rng::new(seed ^ 0xAD0C);
        Input {
            seed,
            rows,
            parts: micro::columns(&mut rng, PARTS, rows),
        }
    }

    fn setup(input: &Input, traced: bool, st: &mut Stages, rec: &mut Recorder) -> AdhocExec {
        let it = st.run("load", rec, || {
            IndexedTable::new(micro::table("adhoc", &input.parts))
        });
        let it = st.run("index", rec, || {
            let mut it = it;
            for (col, constraint) in micro::INDEXES {
                it.add_index(col, constraint, Design::Bitmap);
            }
            it
        });
        let index_create_ms = st.stage_ms("index");
        let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
        let (handle, writer) = st.run("start", rec, || match &registry {
            Some(reg) => ConcurrentTable::with_observability(it, None, Arc::clone(reg)),
            None => ConcurrentTable::new(it),
        });
        AdhocExec {
            handle,
            writer,
            registry,
            rng: Rng::new(input.seed ^ 0x0AD0_C0B5),
            rows: input.rows,
            fresh: 1_000_000_000_000,
            plans: plans(),
            agg: OpAgg::default(),
            index_create_ms,
        }
    }

    fn round(&mut self, r: usize, rec: &mut Recorder) {
        for (col, reads) in ROUND.iter().enumerate() {
            self.write(r, col, col == 0 && r.is_multiple_of(PROPAGATE_EVERY), rec);
            for &which in reads {
                self.read(which, rec);
            }
        }
    }

    fn audit(&mut self) -> Result<u64, String> {
        audit_plans(&self.handle, &self.plans)
    }

    fn final_audit(&mut self) -> Result<u64, String> {
        let passed = self.audit()?;
        let snap = self.handle.snapshot();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| snap.check_consistency()))
            .map_err(|_| "check_consistency failed".to_string())?;
        Ok(passed + 1)
    }

    fn index_bytes_and_rows(&self) -> (usize, usize) {
        snapshot_index_bytes_and_rows(&self.handle)
    }

    fn delta_rows(&self) -> usize {
        table_delta_rows(self.writer.staging().table())
    }

    fn layers(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        self.agg.report(m);
        m.insert("core.index_create_ms", self.index_create_ms);
        probes::core_from_spans(rec, m);
        if let Some(reg) = &self.registry {
            probes::publish_counters(reg, m);
            probes::registry_snapshot(reg, m);
        }
        let snap = self.handle.snapshot();
        probes::index_quality(snap.indexes(), m);
        probes::planner_probes(&snap, &self.plans.clone().map(|(p, _, _)| p), m);
        probes::rewrite_speedups(&snap, &self.plans.clone().map(|(p, _, _)| p), m);
        probes::storage_probes(snap.table(), &mut self.rng, m);
        probes::bitmap_probe(snap.indexes(), &mut self.rng, m);
        probes::fanout_spawn(snap.table(), m);

        let stmts: Vec<probes::Stmt> = (0..12)
            .map(|k| {
                let (pid, col) = (k % PARTS, k % 4);
                let rids = self.rng.distinct_sorted(MODIFY_ROWS, 0, self.rows);
                let vals = rids
                    .iter()
                    .map(|&i| Value::Int(self.new_value(col, pid, i)))
                    .collect();
                probes::Stmt::Modify {
                    pid,
                    rids,
                    col,
                    vals,
                }
            })
            .collect();
        probes::maintenance_twin(&snap, &stmts, m);
        drop(snap);

        m.insert(
            "core.recompute_ms",
            probes::time_ms(|| self.writer.recompute_index(1)),
        );
        self.writer.publish();
        // One advisor cycle with a decision to make: the NCC index is gone,
        // the run's reads are in the query log and the column still matches
        // at 99 %, so the step has to bring the index back.
        self.writer.drop_index(2);
        self.writer.publish();
        let mut advisor = pi_advisor::Advisor::new(pi_advisor::AdvisorConfig::default());
        let mut actions = 0;
        m.insert(
            "advisor.step_ms",
            probes::time_ms(|| actions = advisor.step_writer(&mut self.writer).len()),
        );
        m.insert("advisor.actions", actions as f64);
    }

    fn teardown(self, _input: &Input) {}
}
