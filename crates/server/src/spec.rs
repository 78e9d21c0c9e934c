//! The wire query mini-language: a pipe-separated stage list compiled
//! to a `pi_planner::Plan`.
//!
//! Grammar (see `docs/WIRE_PROTOCOL.md` for the spec with examples):
//!
//! ```text
//! spec     := scan ( '|' stage )*
//! scan     := 'scan' collist
//! stage    := 'distinct' collist | 'sort' sortlist | 'limit' N
//! collist  := col ( ',' col )*
//! sortlist := pos ':' ('asc'|'desc') ( ',' pos ':' ('asc'|'desc') )*
//! ```
//!
//! `scan` columns index the *table schema*; `distinct` and `sort`
//! positions index the current *output row* (so after `scan 2,0`,
//! position 0 is table column 2). Each stage may appear at most once,
//! in `distinct`/`sort`/`limit` order.

use pi_exec::ops::sort::SortOrder;
use pi_planner::Plan;

use crate::protocol::{ErrorCode, ServerError};

/// A parsed wire query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Table columns scanned, in output order.
    pub scan: Vec<usize>,
    /// Distinct over these output positions, if requested.
    pub distinct: Option<Vec<usize>>,
    /// Sort keys over output positions, if requested.
    pub sort: Option<Vec<(usize, SortOrder)>>,
    /// Row-count cap applied after the canonical combine.
    pub limit: Option<usize>,
}

fn bad(msg: impl Into<String>) -> ServerError {
    ServerError::new(ErrorCode::BadPlan, msg)
}

fn parse_cols(s: &str) -> Result<Vec<usize>, ServerError> {
    let cols: Result<Vec<usize>, _> = s
        .split(',')
        .map(|c| {
            c.trim()
                .parse::<usize>()
                .map_err(|_| bad(format!("not a column: {c:?}")))
        })
        .collect();
    let cols = cols?;
    if cols.is_empty() {
        return Err(bad("empty column list"));
    }
    Ok(cols)
}

impl QuerySpec {
    /// Parses the wire form. Validates stage arity and output-position
    /// ranges, but not table width — the server checks `scan` columns
    /// against the live schema.
    pub fn parse(text: &str) -> Result<QuerySpec, ServerError> {
        let mut stages = text.split('|').map(str::trim);
        let scan_stage = stages.next().unwrap_or("");
        let scan = match scan_stage.split_once(' ') {
            Some(("scan", cols)) => parse_cols(cols.trim())?,
            _ => return Err(bad("spec must start with 'scan <cols>'")),
        };
        let mut spec = QuerySpec {
            scan,
            distinct: None,
            sort: None,
            limit: None,
        };
        for stage in stages {
            let (word, args) = stage.split_once(' ').unwrap_or((stage, ""));
            let args = args.trim();
            match word {
                "distinct"
                    if spec.distinct.is_none() && spec.sort.is_none() && spec.limit.is_none() =>
                {
                    let cols = parse_cols(args)?;
                    for &c in &cols {
                        if c >= spec.scan.len() {
                            return Err(bad(format!("distinct position {c} out of range")));
                        }
                    }
                    spec.distinct = Some(cols);
                }
                "sort" if spec.sort.is_none() && spec.limit.is_none() => {
                    let mut keys = Vec::new();
                    for part in args.split(',') {
                        let (pos, dir) = part.trim().split_once(':').ok_or_else(|| {
                            bad(format!("sort key must be pos:dir, got {part:?}"))
                        })?;
                        let pos: usize = pos
                            .parse()
                            .map_err(|_| bad(format!("not a position: {pos:?}")))?;
                        if pos >= spec.output_width() {
                            return Err(bad(format!("sort position {pos} out of range")));
                        }
                        let dir = match dir {
                            "asc" => SortOrder::Asc,
                            "desc" => SortOrder::Desc,
                            other => {
                                return Err(bad(format!(
                                    "sort direction must be asc|desc, got {other:?}"
                                )))
                            }
                        };
                        keys.push((pos, dir));
                    }
                    if keys.is_empty() {
                        return Err(bad("empty sort key list"));
                    }
                    spec.sort = Some(keys);
                }
                "limit" if spec.limit.is_none() => {
                    spec.limit = Some(
                        args.parse()
                            .map_err(|_| bad(format!("not a limit: {args:?}")))?,
                    );
                }
                "distinct" | "sort" | "limit" => {
                    return Err(bad(format!("stage '{word}' repeated or out of order")))
                }
                other => return Err(bad(format!("unknown stage {other:?}"))),
            }
        }
        Ok(spec)
    }

    /// Width of the final output row: `distinct` projects to its
    /// positions, otherwise the scan width stands.
    pub fn output_width(&self) -> usize {
        self.distinct.as_ref().map_or(self.scan.len(), Vec::len)
    }

    /// The logical plan each shard executes. `limit` is *not* lowered —
    /// a per-shard limit would discard rows another shard's combine
    /// needs; the server truncates after the canonical merge instead.
    pub fn fanout_plan(&self) -> Plan {
        let mut plan = Plan::scan(self.scan.clone());
        if let Some(d) = &self.distinct {
            plan = plan.distinct(d.clone());
        }
        if let Some(keys) = &self.sort {
            plan = plan.sort(keys.clone());
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_pipeline() {
        let spec = QuerySpec::parse("scan 2,0 | distinct 0,1 | sort 1:desc | limit 10").unwrap();
        assert_eq!(spec.scan, vec![2, 0]);
        assert_eq!(spec.distinct, Some(vec![0, 1]));
        assert_eq!(spec.sort, Some(vec![(1, SortOrder::Desc)]));
        assert_eq!(spec.limit, Some(10));
    }

    #[test]
    fn rejects_malformed_specs() {
        for text in [
            "",
            "scan",
            "scan x",
            "distinct 0",
            "scan 0 | distinct 1", // position out of range
            "scan 0 | sort 0",     // missing direction
            "scan 0 | sort 1:asc", // position out of range
            "scan 0 | sort 0:up",
            "scan 0 | limit x",
            "scan 0 | limit 1 | sort 0:asc", // out of order
            "scan 0 | distinct 0 | distinct 0",
            "scan 0 | frobnicate 1",
        ] {
            assert!(QuerySpec::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn fanout_plan_excludes_limit() {
        let spec = QuerySpec::parse("scan 0 | limit 5").unwrap();
        assert!(matches!(spec.fanout_plan(), Plan::Scan { .. }));
    }
}
