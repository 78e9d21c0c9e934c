//! The advisor loop: observe an [`IndexedTable`], decide, act.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use patchindex::discovery::sampled_match;
use patchindex::stats::{pi_bitmap_bytes, pi_identifier_bytes, preferred_design};
use patchindex::{
    Constraint, Design, IndexCatalog, IndexStats, IndexedTable, QueryShape, SortDir, Statement,
    WorkloadDelta,
};
use pi_exec::ops::sort::SortOrder;
use pi_obs::{Counter, MetricsRegistry};
use pi_planner::{cost, rewrite, Plan};

use crate::policy::{
    decide, AdvisorConfig, CandidateObservation, Decision, DropReason, IndexObservation,
    Observation,
};
use crate::window::{IndexWindow, Window};

/// What one advisor step actually did (the executed counterpart of a
/// [`Decision`], with post-action facts filled in).
#[derive(Debug, Clone)]
pub enum AdvisorAction {
    /// An index was created.
    Created {
        /// Slot the new index landed in.
        slot: usize,
        /// Indexed column.
        column: usize,
        /// Materialized constraint.
        constraint: Constraint,
        /// Chosen physical design (memory-model crossover).
        design: Design,
        /// Sampled match fraction that justified the creation.
        sampled_e: f64,
        /// Actual match fraction the full discovery found.
        discovered_e: f64,
    },
    /// An index was recomputed.
    Recomputed {
        /// Slot of the recomputed index.
        slot: usize,
        /// Match fraction before the recompute (drifted).
        e_before: f64,
        /// Match fraction after (restored).
        e_after: f64,
        /// The create-time value it had drifted away from.
        baseline_e: f64,
        /// Physical design before the recompute.
        design_before: Design,
        /// Design the rebuild chose from the fresh exception rate — the
        /// recompute migrates designs when drift carried the rate across
        /// the Table-3 crossover.
        design_after: Design,
    },
    /// An index was dropped.
    Dropped {
        /// Column the dropped index covered.
        column: usize,
        /// Its constraint.
        constraint: Constraint,
        /// Which rule fired.
        reason: DropReason,
        /// Windowed maintenance cost at decision time.
        maintenance_cost: f64,
        /// Windowed query benefit at decision time.
        query_benefit: f64,
    },
}

impl AdvisorAction {
    /// One-line human-readable summary (examples and the reproduction
    /// harness print these).
    pub fn describe(&self) -> String {
        match self {
            AdvisorAction::Created {
                slot,
                column,
                constraint,
                design,
                sampled_e,
                discovered_e,
            } => {
                format!(
                    "create {} ({design:?}) on col {column} -> slot {slot} \
                     [sampled e {sampled_e:.3}, discovered e {discovered_e:.3}]",
                    constraint.name()
                )
            }
            AdvisorAction::Recomputed {
                slot,
                e_before,
                e_after,
                baseline_e,
                design_before,
                design_after,
            } => {
                let migration = if design_before == design_after {
                    String::new()
                } else {
                    format!(", design {design_before:?} -> {design_after:?}")
                };
                format!(
                    "recompute slot {slot} [e {e_before:.3} -> {e_after:.3}, \
                     create-time {baseline_e:.3}{migration}]"
                )
            }
            AdvisorAction::Dropped {
                column,
                constraint,
                reason,
                maintenance_cost,
                query_benefit,
            } => {
                format!(
                    "drop {} on col {column} ({reason:?}) \
                     [window maintenance {maintenance_cost:.0} vs benefit {query_benefit:.0}]",
                    constraint.name()
                )
            }
        }
    }
}

/// Pre-registered handles for the advisor's action counters.
#[derive(Debug)]
struct AdvisorMetrics {
    steps: Arc<Counter>,
    created: Arc<Counter>,
    recomputed: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl AdvisorMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        AdvisorMetrics {
            steps: registry.counter("advisor.steps"),
            created: registry.counter("advisor.created"),
            recomputed: registry.counter("advisor.recomputed"),
            dropped: registry.counter("advisor.dropped"),
        }
    }
}

/// The self-tuning index-lifecycle advisor.
///
/// One [`Advisor::step`] runs the whole observe → decide → act loop:
/// drain the query evidence the table's sink collected since the last
/// step, snapshot every index's error/drift state (drift counters are
/// always exact — maintenance runs per statement) and every queried
/// column's match fractions, estimated from a strided sample of the
/// table as it stands ([`sampled_match`]), apply the [`decide`] rules, and
/// execute the resulting create/recompute/drop actions through the table.
#[derive(Debug, Default)]
pub struct Advisor {
    cfg: AdvisorConfig,
    windows: HashMap<(usize, Constraint), IndexWindow>,
    /// Per-(column, shape) sliding window over drained query counts: the
    /// create rule demands *recent* query evidence, so a dropped index
    /// is not immediately re-created from stale counts.
    query_windows: HashMap<(usize, QueryShape), Window<u64>>,
    metrics: Option<AdvisorMetrics>,
}

impl Advisor {
    /// An advisor with the given configuration.
    pub fn new(cfg: AdvisorConfig) -> Self {
        Advisor {
            cfg,
            ..Advisor::default()
        }
    }

    /// An advisor that reports its activity (`advisor.steps`,
    /// `advisor.created`, `advisor.recomputed`, `advisor.dropped`) to a
    /// metrics registry.
    pub fn with_metrics(cfg: AdvisorConfig, registry: &MetricsRegistry) -> Self {
        Advisor {
            metrics: Some(AdvisorMetrics::new(registry)),
            ..Advisor::new(cfg)
        }
    }

    /// Replaces the patch-memory budget for subsequent steps. This is
    /// the multi-tenant hook: a coordinator owning several advisors (one
    /// per shard) re-divides one global budget by observed benefit
    /// ([`crate::split_budget`]) and pushes each share down here.
    pub fn set_memory_budget(&mut self, bytes: usize) {
        self.cfg.memory_budget_bytes = bytes;
    }

    /// Runs one advisor cycle against the snapshot/writer split of
    /// [`patchindex::snapshot`]: [`Advisor::step`] runs against the
    /// writer's staging state (create / recompute / drop all execute off
    /// the read path), and the result is published as a new epoch —
    /// concurrent readers keep querying their snapshots the whole time
    /// and pick the advised state up at their next snapshot pull.
    pub fn step_writer(&mut self, writer: &mut patchindex::TableWriter) -> Vec<AdvisorAction> {
        let actions = self.step(writer.staging_mut());
        writer.publish();
        actions
    }

    /// Runs one observe → decide → act cycle and returns the executed
    /// actions. The observation starts by taking what queries left in the
    /// table's sink (its own and its snapshots') since the last take.
    pub fn step(&mut self, it: &mut IndexedTable) -> Vec<AdvisorAction> {
        if let Some(m) = &self.metrics {
            m.steps.inc();
        }
        let delta = it.sink().take();
        let obs = self.observe(it, delta);
        let decisions = decide(&self.cfg, &obs);
        self.act(it, decisions)
    }

    /// Builds the observation: live index stats with this step's drained
    /// evidence windowed, plus creation candidates from the windowed
    /// query counts and a strided sample of the table as it is now.
    fn observe(&mut self, it: &IndexedTable, mut delta: WorkloadDelta) -> Observation {
        let cap = self.cfg.drop_window;
        let mut indexes = Vec::new();
        let mut live: Vec<(usize, Constraint)> = Vec::new();
        for (slot, idx) in it.indexes().iter().enumerate() {
            let key = (idx.column(), idx.constraint());
            live.push(key);
            let maintained = idx.maintenance_stats().maintained_rows;
            let saved = delta
                .feedback
                .remove(&key)
                .map_or(0.0, |fb| fb.est_cost_saved);
            let window = match self.windows.entry(key) {
                Entry::Occupied(known) => {
                    let window = known.into_mut();
                    window.push(maintained, saved);
                    window
                }
                // First sight: anchor at the current counters and discard
                // this step's saving, so pre-advisor history does not
                // flood the first window.
                Entry::Vacant(new) => {
                    let window = new.insert(IndexWindow::anchored(cap, maintained));
                    window.push(maintained, 0.0);
                    window
                }
            };
            indexes.push(IndexObservation {
                slot,
                column: idx.column(),
                constraint: idx.constraint(),
                e: idx.match_fraction(),
                baseline_e: idx.baseline().match_fraction,
                memory_bytes: idx.memory_bytes(),
                window_maintained_rows: window.maintained.sum(),
                window_cost_saved: window.saved.sum(),
                window_full: window.maintained.is_full(),
            });
        }
        // Windows of dropped indexes would otherwise linger forever, and
        // feedback for them (`delta.feedback`'s remainder) is ignored.
        self.windows.retain(|key, _| live.contains(key));

        // Windowed query evidence over the same sliding window as the drop
        // rule: a known key with no new queries pushes 0 so its window
        // slides; a new key's first sample is everything drained for it.
        for (key, window) in &mut self.query_windows {
            window.push(delta.queries.remove(key).unwrap_or(0));
        }
        for (key, queries) in delta.queries {
            let mut window = Window::new(cap);
            window.push(queries);
            self.query_windows.insert(key, window);
        }
        let windowed: Vec<(usize, QueryShape, u64)> = self
            .query_windows
            .iter()
            .map(|(&(col, shape), window)| (col, shape, window.sum()))
            .collect();

        let rows = it.table().visible_len() as u64;
        let mut candidates: Vec<CandidateObservation> = Vec::new();
        for (col, shape, queries) in windowed {
            let options: &[Constraint] = match shape {
                QueryShape::Distinct => &[Constraint::NearlyUnique, Constraint::NearlyConstant],
                QueryShape::Sort(SortDir::Asc) => &[Constraint::NearlySorted(SortDir::Asc)],
                QueryShape::Sort(SortDir::Desc) => &[Constraint::NearlySorted(SortDir::Desc)],
            };
            // Skip columns already served for this shape.
            if it
                .indexes()
                .iter()
                .any(|idx| idx.column() == col && options.contains(&idx.constraint()))
            {
                continue;
            }
            let best = options
                .iter()
                .filter_map(|&c| sampled_match(it.table(), col, c).map(|e| (c, e)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let Some((constraint, sampled_e)) = best else {
                continue;
            };
            let exception_rate = 1.0 - sampled_e;
            let design = preferred_design(exception_rate);
            let projected_bytes = match design {
                Design::Bitmap => pi_bitmap_bytes(rows) as usize,
                Design::Identifier => pi_identifier_bytes(exception_rate, rows) as usize,
            };
            let est_benefit_per_query = hypothetical_benefit(it, col, constraint, sampled_e, shape);
            candidates.push(CandidateObservation {
                column: col,
                constraint,
                design,
                sampled_e,
                queries,
                projected_bytes,
                est_benefit_per_query,
            });
        }
        Observation {
            indexes,
            candidates,
        }
    }

    /// Executes the decisions as statements through
    /// [`IndexedTable::apply`]: recomputes (snapshot slots still valid),
    /// then drops in descending slot order, then creates.
    fn act(&mut self, it: &mut IndexedTable, decisions: Vec<Decision>) -> Vec<AdvisorAction> {
        let mut actions = Vec::new();
        for d in &decisions {
            if let Decision::Recompute {
                slot,
                e,
                baseline_e,
            } = *d
            {
                let design_before = it.index(slot).design();
                it.apply(&Statement::Recompute { slot });
                actions.push(AdvisorAction::Recomputed {
                    slot,
                    e_before: e,
                    e_after: it.index(slot).match_fraction(),
                    baseline_e,
                    design_before,
                    design_after: it.index(slot).design(),
                });
            }
        }
        let mut drops: Vec<(usize, DropReason, f64, f64)> = decisions
            .iter()
            .filter_map(|d| match *d {
                Decision::Drop {
                    slot,
                    reason,
                    maintenance_cost,
                    query_benefit,
                } => Some((slot, reason, maintenance_cost, query_benefit)),
                _ => None,
            })
            .collect();
        drops.sort_by_key(|d| std::cmp::Reverse(d.0)); // descending: removal shifts later slots
        for (slot, reason, maintenance_cost, query_benefit) in drops {
            let dropped = it
                .apply(&Statement::DropIndex { slot })
                .dropped
                .expect("a drop hands back its index");
            self.windows
                .remove(&(dropped.column(), dropped.constraint()));
            actions.push(AdvisorAction::Dropped {
                column: dropped.column(),
                constraint: dropped.constraint(),
                reason,
                maintenance_cost,
                query_benefit,
            });
        }
        for d in decisions {
            if let Decision::Create {
                column,
                constraint,
                design,
                sampled_e,
            } = d
            {
                let created = it.apply(&Statement::AddIndex {
                    col: column,
                    constraint,
                    design,
                });
                let slot = created.slot.expect("a create hands back its slot");
                // A fresh index starts its counters at zero, and its first
                // saving arrives with the next step's take.
                self.windows.insert(
                    (column, constraint),
                    IndexWindow::anchored(self.cfg.drop_window, 0),
                );
                actions.push(AdvisorAction::Created {
                    slot,
                    column,
                    constraint,
                    design,
                    sampled_e,
                    discovered_e: it.index(slot).match_fraction(),
                });
            }
        }
        if let Some(m) = &self.metrics {
            for a in &actions {
                match a {
                    AdvisorAction::Created { .. } => m.created.inc(),
                    AdvisorAction::Recomputed { .. } => m.recomputed.inc(),
                    AdvisorAction::Dropped { .. } => m.dropped.inc(),
                }
            }
        }
        actions
    }
}

/// Estimated planner cost one rewritten query would save if an index
/// with the sampled match fraction existed on `col` — the candidate's
/// side of the benefit-per-byte ranking, in the same cost units as the
/// engine's feedback. Computed against a hypothetical catalog entry via
/// the real cost model and rewrite rule.
fn hypothetical_benefit(
    it: &IndexedTable,
    col: usize,
    constraint: Constraint,
    sampled_e: f64,
    shape: QueryShape,
) -> f64 {
    let rows = it.table().visible_len() as u64;
    let entry = IndexStats {
        slot: 0,
        column: col,
        constraint,
        rows,
        patches: ((1.0 - sampled_e) * rows as f64).round() as u64,
    };
    let cat = IndexCatalog {
        rows,
        partitions: it.table().partition_count(),
        indexes: vec![entry],
    };
    let reference = match shape {
        QueryShape::Distinct => Plan::Scan {
            cols: vec![col],
            filter: None,
        }
        .distinct(vec![0]),
        QueryShape::Sort(dir) => {
            let order = match dir {
                SortDir::Asc => SortOrder::Asc,
                SortDir::Desc => SortOrder::Desc,
            };
            Plan::Scan {
                cols: vec![col],
                filter: None,
            }
            .sort(vec![(0, order)])
        }
    };
    let rewritten = rewrite(reference.clone(), &cat.indexes[0]);
    (cost::estimate(&reference, &cat) - cost::estimate(&rewritten, &cat)).max(0.0)
}
