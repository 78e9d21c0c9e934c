//! Single-table logical plans.
//!
//! Rich enough to express the paper's microbenchmark queries and the
//! PatchIndex rewrites of Section 3.3 (Figure 2): distinct and sort
//! queries over a scanned table, plus the cloned
//! `exclude_patches`/`use_patches` subtrees and their recombination.
//! The TPC-H join plans (Figure 10) are hand-lowered in `pi-tpch`.

use std::fmt;

use pi_exec::expr::Expr;
use pi_exec::ops::patch_select::PatchMode;
use pi_exec::ops::sort::SortOrder;

/// A logical operator tree over one (implicitly bound) table.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Scan of the given columns, optionally filtered.
    Scan {
        /// Column indices to produce.
        cols: Vec<usize>,
        /// Optional row predicate.
        filter: Option<Expr>,
    },
    /// PatchIndex scan: scan plus on-the-fly patch selection (the layout
    /// of a plain scan of `cols`).
    PatchScan {
        /// Column indices to produce.
        cols: Vec<usize>,
        /// Optional row predicate.
        filter: Option<Expr>,
        /// Which flow this node keeps.
        mode: PatchMode,
        /// Catalog slot of the index this scan is bound to — different
        /// sites of one plan may bind different indexes.
        slot: usize,
    },
    /// Duplicate elimination over the given output columns.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
        /// Output columns to deduplicate on.
        cols: Vec<usize>,
    },
    /// Sort by output columns.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys.
        keys: Vec<(usize, SortOrder)>,
    },
    /// First `n` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Row cap.
        n: usize,
    },
    /// Bag union of same-schema children.
    Union {
        /// Children.
        inputs: Vec<Plan>,
    },
    /// Order-preserving merge of children that are each sorted on `keys`.
    Merge {
        /// Children (each sorted).
        inputs: Vec<Plan>,
        /// Merge keys.
        keys: Vec<(usize, SortOrder)>,
    },
}

impl Plan {
    /// Leaf scan helper.
    pub fn scan(cols: Vec<usize>) -> Plan {
        Plan::Scan { cols, filter: None }
    }

    /// DISTINCT over all produced columns.
    pub fn distinct(self, cols: Vec<usize>) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
            cols,
        }
    }

    /// ORDER BY helper.
    pub fn sort(self, keys: Vec<(usize, SortOrder)>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// LIMIT helper.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Whether this subtree contains a Distinct node. Duplicate
    /// elimination is only partition-distributive under a combine that
    /// re-aggregates globally; other combines (ordered merge, bag union)
    /// must lower such subtrees globally or cross-partition duplicates
    /// survive.
    pub fn contains_distinct(&self) -> bool {
        match self {
            Plan::Distinct { .. } => true,
            Plan::Scan { .. } | Plan::PatchScan { .. } => false,
            Plan::Sort { input, .. } | Plan::Limit { input, .. } => input.contains_distinct(),
            Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
                inputs.iter().any(Plan::contains_distinct)
            }
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Plan::Scan { cols, filter } => {
                writeln!(f, "{pad}Scan cols={cols:?} filter={}", filter.is_some())
            }
            Plan::PatchScan {
                cols, mode, slot, ..
            } => {
                let m = match mode {
                    PatchMode::ExcludePatches => "exclude_patches",
                    PatchMode::UsePatches => "use_patches",
                };
                writeln!(f, "{pad}PatchScan[{m}] slot={slot} cols={cols:?}")
            }
            Plan::Distinct { input, cols } => {
                writeln!(f, "{pad}Distinct cols={cols:?}")?;
                input.fmt_indent(f, indent + 1)
            }
            Plan::Sort { input, keys } => {
                writeln!(f, "{pad}Sort keys={keys:?}")?;
                input.fmt_indent(f, indent + 1)
            }
            Plan::Limit { input, n } => {
                writeln!(f, "{pad}Limit {n}")?;
                input.fmt_indent(f, indent + 1)
            }
            Plan::Union { inputs } => {
                writeln!(f, "{pad}Union")?;
                inputs.iter().try_for_each(|i| i.fmt_indent(f, indent + 1))
            }
            Plan::Merge { inputs, keys } => {
                writeln!(f, "{pad}Merge keys={keys:?}")?;
                inputs.iter().try_for_each(|i| i.fmt_indent(f, indent + 1))
            }
        }
    }
}

impl fmt::Display for Plan {
    /// EXPLAIN-style indented tree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let p = Plan::scan(vec![1]).distinct(vec![0]).limit(5);
        let s = p.to_string();
        assert!(s.contains("Limit 5"));
        assert!(s.contains("Distinct"));
        assert!(s.contains("Scan"));
    }

    #[test]
    fn explain_shows_patch_modes() {
        let p = Plan::Union {
            inputs: vec![
                Plan::PatchScan {
                    cols: vec![1],
                    filter: None,
                    mode: PatchMode::ExcludePatches,
                    slot: 0,
                },
                Plan::PatchScan {
                    cols: vec![1],
                    filter: None,
                    mode: PatchMode::UsePatches,
                    slot: 1,
                },
            ],
        };
        let s = p.to_string();
        assert!(s.contains("exclude_patches"));
        assert!(s.contains("use_patches"));
        assert!(s.contains("slot=1"));
    }
}
