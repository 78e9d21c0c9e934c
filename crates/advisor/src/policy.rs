//! The decision rules: a pure function from an [`Observation`] of the
//! system to a list of [`Decision`]s.
//!
//! Every rule is explicit and threshold-driven so each can be unit-tested
//! in isolation (the tests below construct observations by hand):
//!
//! * **create** — a candidate column whose *sampled* match fraction (a
//!   strided sample the advisor reads from the table at each step,
//!   [`patchindex::discovery::sampled_match`]) clears
//!   [`AdvisorConfig::create_threshold`] and that recent queries hit at
//!   least [`AdvisorConfig::min_queries`] times;
//! * **recompute** — an index whose live `e` fell more than
//!   [`AdvisorConfig::recompute_margin`] below its create-time value
//!   (the paper's reorganization trigger: updates eroded optimality);
//! * **drop** — an index whose maintenance cost exceeded the estimated
//!   query benefit over a full sliding window of advisor steps, both in
//!   planner cost units ([`MAINTENANCE_COST_PER_ROW`] per maintained row);
//! * **budget** — all of the above run under a global patch-memory
//!   budget: candidates are admitted by benefit-per-byte rank, evicting
//!   a strictly worse existing index when that frees enough room.

use patchindex::{Constraint, Design};

/// Cost of maintaining one row-event, in planner cost units — the
/// currency of the engine's estimated-cost-saved feedback, so the drop
/// rule compares like with like.
pub const MAINTENANCE_COST_PER_ROW: f64 = 1.0;

/// Tuning knobs of the advisor; the defaults suit mid-size tables and
/// step cadences of tens of statements.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Minimum sampled match fraction `e` for auto-creating an index.
    pub create_threshold: f64,
    /// Minimum windowed queries of a (column, shape) before it is a
    /// creation candidate — nobody benefits from an unqueried index.
    pub min_queries: u64,
    /// Recompute once live `e` fell this far below the create-time `e`.
    pub recompute_margin: f64,
    /// Advisor steps per drop-rule sliding window; the rule only fires
    /// on a full window.
    pub drop_window: usize,
    /// Global patch-memory budget in bytes across all indexes.
    pub memory_budget_bytes: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            create_threshold: 0.9,
            min_queries: 3,
            recompute_margin: 0.1,
            drop_window: 4,
            memory_budget_bytes: usize::MAX,
        }
    }
}

/// What the advisor observed about one live index at this step.
#[derive(Debug, Clone)]
pub struct IndexObservation {
    /// Catalog slot at observation time.
    pub slot: usize,
    /// Indexed column.
    pub column: usize,
    /// Materialized constraint.
    pub constraint: Constraint,
    /// Live match fraction `e = 1 − patches/rows`.
    pub e: f64,
    /// Match fraction at create/recompute time.
    pub baseline_e: f64,
    /// Patch-store heap bytes.
    pub memory_bytes: usize,
    /// Row-events maintained within the sliding window.
    pub window_maintained_rows: u64,
    /// Estimated planner cost saved by queries within the window.
    pub window_cost_saved: f64,
    /// Whether the sliding window has accumulated `drop_window` steps.
    pub window_full: bool,
}

impl IndexObservation {
    /// Maintenance cost over the window, in planner cost units.
    pub fn window_maintenance_cost(&self) -> f64 {
        self.window_maintained_rows as f64 * MAINTENANCE_COST_PER_ROW
    }

    /// Windowed benefit per byte — the budget rule's ranking key.
    pub fn benefit_per_byte(&self) -> f64 {
        self.window_cost_saved / self.memory_bytes.max(1) as f64
    }
}

/// A creation candidate: an unindexed column the workload queries, with
/// its sample-estimated match fraction.
#[derive(Debug, Clone)]
pub struct CandidateObservation {
    /// Column the queries hit.
    pub column: usize,
    /// Best-scoring constraint for the observed query shape.
    pub constraint: Constraint,
    /// Physical design the memory model picks at the sampled `e`.
    pub design: Design,
    /// Sampled match fraction.
    pub sampled_e: f64,
    /// Windowed queries of the matching shape.
    pub queries: u64,
    /// Projected index size (paper's Table-3 memory model).
    pub projected_bytes: usize,
    /// Estimated planner cost a single rewritten query saves (used only
    /// for benefit-per-byte ranking against live indexes).
    pub est_benefit_per_query: f64,
}

impl CandidateObservation {
    /// Projected benefit per byte, assuming the windowed query rate holds.
    pub fn benefit_per_byte(&self) -> f64 {
        self.queries as f64 * self.est_benefit_per_query / self.projected_bytes.max(1) as f64
    }
}

/// Everything `decide` looks at.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Live indexes.
    pub indexes: Vec<IndexObservation>,
    /// Creation candidates (deduplicated per column, best constraint
    /// first).
    pub candidates: Vec<CandidateObservation>,
}

/// Why a drop decision fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Windowed maintenance cost exceeded windowed query benefit.
    CostDominated,
    /// Evicted to make room for a better candidate under the budget.
    BudgetEvicted,
}

/// One lifecycle decision. Slots refer to the observation's snapshot.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Create an index on `column`.
    Create {
        /// Target column.
        column: usize,
        /// Constraint to materialize.
        constraint: Constraint,
        /// Physical design.
        design: Design,
        /// Sampled match fraction that justified the creation.
        sampled_e: f64,
    },
    /// Recompute the index in `slot`.
    Recompute {
        /// Snapshot slot.
        slot: usize,
        /// Live match fraction at decision time.
        e: f64,
        /// Create-time match fraction it drifted away from.
        baseline_e: f64,
    },
    /// Drop the index in `slot`.
    Drop {
        /// Snapshot slot.
        slot: usize,
        /// Which rule fired.
        reason: DropReason,
        /// Windowed maintenance cost (planner cost units).
        maintenance_cost: f64,
        /// Windowed estimated query benefit (planner cost units).
        query_benefit: f64,
    },
}

/// Applies the rules to one observation. Pure — no table access, no
/// side effects — so every rule is directly unit-testable.
pub fn decide(cfg: &AdvisorConfig, obs: &Observation) -> Vec<Decision> {
    let mut decisions = Vec::new();
    let mut dropped = vec![false; obs.indexes.len()];

    // Drop rule first: an index that costs more than it helps is not
    // worth recomputing either. Both sides are planner cost units.
    for (i, idx) in obs.indexes.iter().enumerate() {
        let cost = idx.window_maintenance_cost();
        if idx.window_full && cost > idx.window_cost_saved {
            dropped[i] = true;
            decisions.push(Decision::Drop {
                slot: idx.slot,
                reason: DropReason::CostDominated,
                maintenance_cost: cost,
                query_benefit: idx.window_cost_saved,
            });
        }
    }

    // Recompute rule on the survivors.
    for (i, idx) in obs.indexes.iter().enumerate() {
        if !dropped[i] && idx.baseline_e - idx.e > cfg.recompute_margin {
            decisions.push(Decision::Recompute {
                slot: idx.slot,
                e: idx.e,
                baseline_e: idx.baseline_e,
            });
        }
    }

    // Create rule under the memory budget, best benefit-per-byte first.
    let mut used: usize = obs
        .indexes
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped[*i])
        .map(|(_, idx)| idx.memory_bytes)
        .sum();
    let mut candidates: Vec<&CandidateObservation> = obs
        .candidates
        .iter()
        .filter(|c| c.queries >= cfg.min_queries && c.sampled_e >= cfg.create_threshold)
        .collect();
    candidates.sort_by(|a, b| {
        b.benefit_per_byte()
            .partial_cmp(&a.benefit_per_byte())
            .unwrap()
    });
    for cand in candidates {
        if used + cand.projected_bytes > cfg.memory_budget_bytes {
            // Eviction: the strictly worst surviving index, if the
            // candidate beats it AND evicting makes the candidate fit.
            let worst = obs
                .indexes
                .iter()
                .enumerate()
                .filter(|(i, _)| !dropped[*i])
                .min_by(|(_, a), (_, b)| {
                    a.benefit_per_byte()
                        .partial_cmp(&b.benefit_per_byte())
                        .unwrap()
                });
            match worst {
                Some((i, idx))
                    if idx.benefit_per_byte() < cand.benefit_per_byte()
                        && used - idx.memory_bytes + cand.projected_bytes
                            <= cfg.memory_budget_bytes =>
                {
                    dropped[i] = true;
                    used -= idx.memory_bytes;
                    // A budget eviction supersedes any recompute decision
                    // already queued for the same slot.
                    decisions.retain(
                        |d| !matches!(d, Decision::Recompute { slot, .. } if *slot == idx.slot),
                    );
                    decisions.push(Decision::Drop {
                        slot: idx.slot,
                        reason: DropReason::BudgetEvicted,
                        maintenance_cost: idx.window_maintenance_cost(),
                        query_benefit: idx.window_cost_saved,
                    });
                }
                _ => continue, // over budget, nothing worth evicting
            }
        }
        used += cand.projected_bytes;
        decisions.push(Decision::Create {
            column: cand.column,
            constraint: cand.constraint,
            design: cand.design,
            sampled_e: cand.sampled_e,
        });
    }
    decisions
}

/// Splits a global patch-memory budget across shards proportionally to
/// each shard's observed benefit (any non-negative currency — windowed
/// cost saved or query counts — as long as all shards report in the
/// same one).
///
/// Shards with zero observed benefit still get a floor share: a shard
/// that has never been queried must be able to create its first index,
/// or it can never *earn* benefit. The floor is an equal split of 10%
/// of the budget; the remaining 90% is divided pro rata. When no shard
/// reports any benefit the whole budget splits equally. The shares sum
/// to at most `total` (integer truncation may leave a few bytes
/// unassigned).
///
/// ```
/// use pi_advisor::split_budget;
///
/// // Twice the benefit ⇒ roughly twice the budget.
/// let shares = split_budget(1_000_000, &[10.0, 20.0]);
/// assert_eq!(shares.len(), 2);
/// assert!(shares[1] > shares[0]);
/// assert!(shares.iter().sum::<usize>() <= 1_000_000);
///
/// // No evidence yet ⇒ equal split.
/// assert_eq!(split_budget(1_000, &[0.0, 0.0]), vec![500, 500]);
/// ```
pub fn split_budget(total: usize, benefits: &[f64]) -> Vec<usize> {
    if benefits.is_empty() {
        return Vec::new();
    }
    let n = benefits.len();
    let sum: f64 = benefits.iter().map(|b| b.max(0.0)).sum();
    if sum <= 0.0 || !sum.is_finite() {
        return vec![total / n; n];
    }
    let floor_pool = total / 10;
    let floor = floor_pool / n;
    let pro_rata = (total - floor * n) as f64;
    benefits
        .iter()
        .map(|b| floor + (pro_rata * (b.max(0.0) / sum)) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchindex::SortDir;

    fn cfg() -> AdvisorConfig {
        AdvisorConfig::default()
    }

    fn cand(column: usize, e: f64, queries: u64, bytes: usize) -> CandidateObservation {
        CandidateObservation {
            column,
            constraint: Constraint::NearlyUnique,
            design: Design::Bitmap,
            sampled_e: e,
            queries,
            projected_bytes: bytes,
            est_benefit_per_query: 1000.0,
        }
    }

    fn idx(slot: usize, e: f64, baseline_e: f64) -> IndexObservation {
        IndexObservation {
            slot,
            column: slot,
            constraint: Constraint::NearlySorted(SortDir::Asc),
            e,
            baseline_e,
            memory_bytes: 1_000,
            window_maintained_rows: 0,
            window_cost_saved: 0.0,
            window_full: false,
        }
    }

    fn creates(d: &[Decision]) -> usize {
        d.iter()
            .filter(|d| matches!(d, Decision::Create { .. }))
            .count()
    }

    #[test]
    fn create_requires_threshold_and_query_evidence() {
        // Clears both bars.
        let obs = Observation {
            indexes: vec![],
            candidates: vec![cand(1, 0.97, 5, 100)],
        };
        assert_eq!(creates(&decide(&cfg(), &obs)), 1);
        // Match fraction too low.
        let obs = Observation {
            indexes: vec![],
            candidates: vec![cand(1, 0.5, 5, 100)],
        };
        assert_eq!(creates(&decide(&cfg(), &obs)), 0);
        // Queried too rarely.
        let obs = Observation {
            indexes: vec![],
            candidates: vec![cand(1, 0.97, 2, 100)],
        };
        assert_eq!(creates(&decide(&cfg(), &obs)), 0);
    }

    #[test]
    fn recompute_fires_on_drift_past_the_margin() {
        // Drifted 0.15 below create-time e: beyond the 0.1 margin.
        let obs = Observation {
            indexes: vec![idx(0, 0.80, 0.95)],
            candidates: vec![],
        };
        let d = decide(&cfg(), &obs);
        assert!(
            matches!(d[..], [Decision::Recompute { slot: 0, .. }]),
            "{d:?}"
        );
        // Within the margin: nothing.
        let obs = Observation {
            indexes: vec![idx(0, 0.90, 0.95)],
            candidates: vec![],
        };
        assert!(decide(&cfg(), &obs).is_empty());
        // A *better* e than at creation never triggers.
        let obs = Observation {
            indexes: vec![idx(0, 0.99, 0.90)],
            candidates: vec![],
        };
        assert!(decide(&cfg(), &obs).is_empty());
    }

    #[test]
    fn drop_fires_when_maintenance_dominates_a_full_window() {
        let mut i = idx(0, 0.99, 0.99);
        i.window_full = true;
        i.window_maintained_rows = 10_000; // cost 10_000 × 1.0
        i.window_cost_saved = 500.0;
        let d = decide(
            &cfg(),
            &Observation {
                indexes: vec![i.clone()],
                candidates: vec![],
            },
        );
        assert!(
            matches!(
                d[..],
                [Decision::Drop {
                    slot: 0,
                    reason: DropReason::CostDominated,
                    ..
                }]
            ),
            "{d:?}"
        );
        // Same counters but the window is not full yet: hold fire.
        i.window_full = false;
        let d = decide(
            &cfg(),
            &Observation {
                indexes: vec![i.clone()],
                candidates: vec![],
            },
        );
        assert!(d.is_empty());
        // Benefit exceeds cost: keep.
        i.window_full = true;
        i.window_cost_saved = 50_000.0;
        let d = decide(
            &cfg(),
            &Observation {
                indexes: vec![i],
                candidates: vec![],
            },
        );
        assert!(d.is_empty());
    }

    #[test]
    fn drop_supersedes_recompute_for_the_same_index() {
        let mut i = idx(0, 0.5, 0.99); // drifted far...
        i.window_full = true;
        i.window_maintained_rows = 10_000; // ...and maintenance-dominated
        i.window_cost_saved = 0.0;
        let d = decide(
            &cfg(),
            &Observation {
                indexes: vec![i],
                candidates: vec![],
            },
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(matches!(d[0], Decision::Drop { .. }));
    }

    #[test]
    fn budget_blocks_candidates_that_do_not_fit() {
        let mut c = cfg();
        c.memory_budget_bytes = 1_000;
        let obs = Observation {
            indexes: vec![],
            candidates: vec![cand(1, 0.99, 9, 2_000)],
        };
        assert_eq!(creates(&decide(&c, &obs)), 0);
        // Fits exactly: admitted.
        let obs = Observation {
            indexes: vec![],
            candidates: vec![cand(1, 0.99, 9, 1_000)],
        };
        assert_eq!(creates(&decide(&c, &obs)), 1);
    }

    #[test]
    fn budget_evicts_a_strictly_worse_index_for_a_better_candidate() {
        let mut c = cfg();
        c.memory_budget_bytes = 1_500;
        // Existing index uses 1_000 bytes and saved almost nothing.
        let mut existing = idx(0, 0.99, 0.99);
        existing.window_cost_saved = 1.0;
        // Candidate needs 1_000 bytes (only 500 free) but scores far
        // higher benefit-per-byte.
        let obs = Observation {
            indexes: vec![existing],
            candidates: vec![cand(1, 0.99, 9, 1_000)],
        };
        let d = decide(&c, &obs);
        assert!(
            matches!(
                d[..],
                [
                    Decision::Drop {
                        slot: 0,
                        reason: DropReason::BudgetEvicted,
                        ..
                    },
                    Decision::Create { column: 1, .. }
                ]
            ),
            "{d:?}"
        );
    }

    #[test]
    fn budget_never_evicts_a_better_index() {
        let mut c = cfg();
        c.memory_budget_bytes = 1_500;
        let mut existing = idx(0, 0.99, 0.99);
        existing.window_cost_saved = 1e12; // clearly worth its bytes
        let obs = Observation {
            indexes: vec![existing],
            candidates: vec![cand(1, 0.99, 9, 1_000)],
        };
        assert!(decide(&c, &obs).is_empty());
    }

    #[test]
    fn candidates_are_admitted_by_benefit_per_byte_rank() {
        let mut c = cfg();
        c.memory_budget_bytes = 1_000;
        // Both clear the thresholds; only one fits. The heavier-queried,
        // smaller candidate must win.
        let strong = cand(1, 0.99, 50, 800);
        let weak = cand(2, 0.99, 5, 800);
        let obs = Observation {
            indexes: vec![],
            candidates: vec![weak, strong],
        };
        let d = decide(&c, &obs);
        assert_eq!(creates(&d), 1);
        assert!(matches!(
            d.iter().find(|x| matches!(x, Decision::Create { .. })),
            Some(Decision::Create { column: 1, .. })
        ));
    }
    #[test]
    fn split_budget_proportional_with_floor() {
        let shares = split_budget(1_000_000, &[1.0, 3.0, 0.0, 0.0]);
        assert_eq!(shares.len(), 4);
        // Idle shards keep a creation floor.
        assert!(shares[2] > 0 && shares[3] > 0);
        // Benefit triples ⇒ share roughly triples (pro-rata part).
        assert!(shares[1] > 2 * shares[0] && shares[1] < 4 * shares[0]);
        assert!(shares.iter().sum::<usize>() <= 1_000_000);
    }

    #[test]
    fn split_budget_degenerate_cases() {
        assert!(split_budget(100, &[]).is_empty());
        assert_eq!(split_budget(100, &[0.0]), vec![100]);
        // NaN benefits are absorbed as zero by the clamp; the honest
        // shard gets the pro-rata pool, the NaN one keeps the floor.
        assert_eq!(split_budget(99, &[f64::NAN, 1.0]), vec![4, 95]);
        assert_eq!(split_budget(80, &[-5.0, -5.0]), vec![40, 40]);
    }
}
