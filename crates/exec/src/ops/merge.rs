//! Combining dataflows: union, order-preserving merge, limit.
//!
//! The PatchIndex rewrites recombine the constraint-satisfying subtree with
//! the patches subtree: distinct queries use a plain Union, sort queries a
//! Merge operator that preserves the sort order (paper, Section 3.3). The
//! same merge combines the reference plan's per-partition sorts. One loser
//! tree, [`OrderedMergeOp`], is the merge kernel, and it runs two ways:
//!
//! * **streaming**, for a merge with a `LIMIT` above it: one batch held per
//!   input, one batch emitted per pull, so the limit stops the inputs once
//!   its first output batch is in;
//! * **split by key** ([`SplitMergeOp`]), for a merge of drained runs that
//!   is read whole: at its first pull the runs are cut into key ranges at
//!   splitters drawn by regular sampling, each range is one loser-tree
//!   merge on the fan-out pool, and the ranges' output follows in range
//!   order — the streaming merge's rows, byte for byte.

use std::cmp::Ordering;
use std::ops::Range;

use pi_storage::ColumnData;

use crate::batch::{Batch, BATCH_SIZE};
use crate::keycmp::{cmp_rows_cross, oriented_int, KeyColumn};
use crate::op::{drain, OpRef, Operator};
use crate::ops::sort::{SortKeySpec, SortOrder};
use crate::parallel::{fan_out, tasks_for, threads};

/// Concatenates the outputs of several inputs (bag semantics), passing
/// each batch on as it is, selection included.
pub struct UnionAllOp<'a> {
    inputs: Vec<OpRef<'a>>,
    cur: usize,
}

impl<'a> UnionAllOp<'a> {
    /// Creates a union over inputs with identical schemas.
    pub fn new(inputs: Vec<OpRef<'a>>) -> Self {
        UnionAllOp { inputs, cur: 0 }
    }
}

impl Operator for UnionAllOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        while self.cur < self.inputs.len() {
            if let Some(b) = self.inputs[self.cur].next() {
                return Some(b);
            }
            self.cur += 1;
        }
        None
    }
}

/// K-way merge of inputs that are each sorted on `keys`; the output is
/// globally sorted. Used to recombine the pre-sorted non-patch flow with
/// the sorted patches, and to merge per-partition sorted results.
///
/// **Streaming.** Each input (a *side*) holds one current batch and a
/// cursor into it. The first [`Operator::next`] pulls one non-empty batch
/// from every side — every input is touched before the first row is
/// emitted, so a trace counts every merged partition as visited — and
/// a side is pulled again only when its batch is used up and one more of
/// its rows is wanted. Each call emits at most [`BATCH_SIZE`] rows;
/// nothing is held beyond one batch per side and the batch being built.
///
/// **Loser tree.** The sides play a tournament whose inner nodes keep
/// each match's loser, so the next winner costs ⌈log₂ k⌉ comparisons.
/// Equal keys go to the lower input index and an exhausted side loses to
/// every live one: the output is ordered by key, then input index, then
/// position within the input — a stable merge.
///
/// **Runs.** The best loser on the winner's path is the runner-up overall.
/// Every further row of the winner's batch that still beats it is copied
/// in one range copy per column. With a single `Int` key, matches compare
/// cached plain `i64`s with the direction folded in, and the run end is
/// galloped for over the batch's key slice; other keys compare row by row
/// through key columns built per batch.
pub struct OrderedMergeOp<'a> {
    sides: Vec<Side<'a>>,
    keys: Vec<SortKeySpec>,
    /// The single `Int` sort key, when that is the whole key (set on the
    /// first pull, from the first batch's column type).
    int_key: Option<SortKeySpec>,
    /// `tree[0]` is the current winner, `tree[1..k]` the match losers; side
    /// `i` is leaf `i + k`, so node `n`'s parent is `n / 2`. Empty until
    /// the first pull.
    tree: Vec<usize>,
    /// Per side on the single-`Int`-key path: (exhausted, oriented key of
    /// the current row) — what a match compares there.
    heads: Vec<(bool, i64)>,
}

/// One input of the merge and its current batch (`None` once the input
/// is exhausted).
struct Side<'a> {
    input: OpRef<'a>,
    cur: Option<Cursor>,
}

/// A side's current batch, its key columns on the row-by-row path (empty
/// on the single-`Int`-key path) and the next row to emit, counted from
/// the batch's first row.
struct Cursor {
    batch: Batch,
    keys: Vec<KeyColumn>,
    pos: usize,
}

impl Cursor {
    /// The batch's `Int` column `col`, from its first row on.
    fn ints(&self, col: usize) -> &[i64] {
        &self.batch.raw_column(col).as_int()[self.batch.span()]
    }
}

/// The input's next non-empty batch, or `None` once the input is
/// exhausted. The merge copies runs of contiguous rows, so a window is
/// read where it lies and only a selection is gathered first.
fn pull(input: &mut dyn Operator) -> Option<Batch> {
    std::iter::from_fn(|| input.next())
        .find(|b| !b.is_empty())
        .map(|b| match b.sel() {
            Some(_) => b.materialize(),
            None => b,
        })
}

/// The length of the prefix of `keys` on which `pred` holds (`pred` must
/// be true then false along `keys`): probes at doubling offsets, then a
/// `partition_point` inside the last step. A run of `r` rows costs
/// O(log r) probes, all within 2r rows of the cursor — a binary search
/// over the whole batch would touch cold rows far ahead of it.
fn gallop(keys: &[i64], pred: impl Fn(&i64) -> bool) -> usize {
    let mut hi = 1;
    while hi < keys.len() && pred(&keys[hi]) {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + keys[lo..hi.min(keys.len())].partition_point(pred)
}

impl<'a> OrderedMergeOp<'a> {
    /// Creates an ordered merge.
    pub fn new(inputs: Vec<OpRef<'a>>, keys: Vec<SortKeySpec>) -> Self {
        OrderedMergeOp {
            sides: inputs
                .into_iter()
                .map(|input| Side { input, cur: None })
                .collect(),
            keys,
            int_key: None,
            tree: Vec::new(),
            heads: Vec::new(),
        }
    }

    /// Pulls every side's first batch and plays the first tournament.
    fn start(&mut self) {
        let firsts: Vec<Option<Batch>> = self
            .sides
            .iter_mut()
            .map(|s| pull(s.input.as_mut()))
            .collect();
        self.int_key = match (&self.keys[..], firsts.iter().flatten().next()) {
            (&[key], Some(b)) if matches!(b.raw_column(key.0), ColumnData::Int(_)) => Some(key),
            _ => None,
        };
        let cursors: Vec<Option<Cursor>> = firsts
            .into_iter()
            .map(|b| b.map(|b| self.cursor(b)))
            .collect();
        for (side, cur) in self.sides.iter_mut().zip(cursors) {
            side.cur = cur;
        }
        self.heads = vec![(true, 0); self.sides.len()];
        for s in 0..self.sides.len() {
            self.set_head(s);
        }
        self.tree = vec![0; self.sides.len()];
        self.tree[0] = self.play(1);
    }

    fn cursor(&self, batch: Batch) -> Cursor {
        let keys = match self.int_key {
            Some(_) => Vec::new(),
            None => self
                .keys
                .iter()
                .map(|&(c, o)| KeyColumn::build(batch.raw_column(c), batch.span(), o))
                .collect(),
        };
        let cur = Cursor {
            batch,
            keys,
            pos: 0,
        };
        debug_assert!(
            (1..cur.batch.len()).all(|i| self.cmp_at(&cur, i - 1, &cur, i) != Ordering::Greater),
            "ordered-merge input not sorted"
        );
        cur
    }

    /// Replaces side `s`'s used-up batch with its input's next one.
    fn refill(&mut self, s: usize) {
        let next = pull(self.sides[s].input.as_mut()).map(|b| self.cursor(b));
        debug_assert!(
            match (&self.sides[s].cur, &next) {
                (Some(old), Some(new)) =>
                    self.cmp_at(old, old.batch.len() - 1, new, 0) != Ordering::Greater,
                _ => true,
            },
            "ordered-merge input not sorted across its batches"
        );
        self.sides[s].cur = next;
        self.set_head(s);
    }

    /// Caches side `s`'s current key on the single-`Int`-key path.
    fn set_head(&mut self, s: usize) {
        if let Some((col, o)) = self.int_key {
            self.heads[s] = match &self.sides[s].cur {
                Some(c) => (false, oriented_int(c.ints(col)[c.pos], o)),
                None => (true, 0),
            };
        }
    }

    /// Compares row `i` of `a` with row `j` of `b` by the merge keys.
    fn cmp_at(&self, a: &Cursor, i: usize, b: &Cursor, j: usize) -> Ordering {
        match self.int_key {
            Some((c, o)) => oriented_int(a.ints(c)[i], o).cmp(&oriented_int(b.ints(c)[j], o)),
            None => cmp_rows_cross(&a.keys, i, &b.keys, j),
        }
    }

    /// Whether side `a`'s current row comes out before side `b`'s.
    fn beats(&self, a: usize, b: usize) -> bool {
        // An exhausted side sorts after every live one.
        let ord = match (self.int_key, &self.sides[a].cur, &self.sides[b].cur) {
            (Some(_), _, _) => self.heads[a].cmp(&self.heads[b]),
            (None, Some(x), Some(y)) => cmp_rows_cross(&x.keys, x.pos, &y.keys, y.pos),
            (None, x, y) => x.is_none().cmp(&y.is_none()),
        };
        ord.then(a.cmp(&b)) == Ordering::Less
    }

    /// Plays the matches below `node`, leaving each loser in its node, and
    /// returns the winner.
    fn play(&mut self, node: usize) -> usize {
        let k = self.sides.len();
        if node >= k {
            return node - k;
        }
        let (a, b) = (self.play(2 * node), self.play(2 * node + 1));
        let (winner, loser) = if self.beats(a, b) { (a, b) } else { (b, a) };
        self.tree[node] = loser;
        winner
    }

    /// Re-plays the path of side `s`, the last winner, after its current
    /// row changed: the path holds exactly the sides it beat.
    fn replay(&mut self, s: usize) {
        let mut winner = s;
        let mut node = (s + self.sides.len()) / 2;
        while node != 0 {
            let loser = self.tree[node];
            if self.beats(loser, winner) {
                self.tree[node] = winner;
                winner = loser;
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// The best live side on winner `w`'s path — the runner-up overall,
    /// which can only have lost to `w`.
    fn challenger(&self, w: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut node = (w + self.sides.len()) / 2;
        while node != 0 {
            let loser = self.tree[node];
            if best.is_none_or(|b| self.beats(loser, b)) {
                best = Some(loser);
            }
            node /= 2;
        }
        best.filter(|&b| self.sides[b].cur.is_some())
    }

    /// How many rows of winner `w`'s batch, from its cursor and at most
    /// `cap`, come out before challenger `c`'s current row.
    fn run_len(&self, w: usize, c: Option<usize>, cap: usize) -> usize {
        let cw = self.sides[w].cur.as_ref().expect("the winner is live");
        let end = cw.batch.len().min(cw.pos + cap);
        let Some(c) = c else {
            return end - cw.pos;
        };
        // Equal keys go to the lower side index.
        let ties_win = w < c;
        match self.int_key {
            Some((col, o)) => {
                let bound = self.heads[c].1;
                gallop(&cw.ints(col)[cw.pos..end], |&v| {
                    let v = oriented_int(v, o);
                    v < bound || (ties_win && v == bound)
                })
            }
            None => {
                let cc = self.sides[c].cur.as_ref().expect("the challenger is live");
                (cw.pos..end)
                    .take_while(|&i| match cmp_rows_cross(&cw.keys, i, &cc.keys, cc.pos) {
                        Ordering::Less => true,
                        Ordering::Equal => ties_win,
                        Ordering::Greater => false,
                    })
                    .count()
            }
        }
    }
}

impl Operator for OrderedMergeOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        if self.sides.is_empty() {
            return None;
        }
        if self.tree.is_empty() {
            self.start();
        }
        let mut out: Option<Vec<ColumnData>> = None;
        let mut emitted = 0;
        while emitted < BATCH_SIZE {
            let w = self.tree[0];
            // The winner is exhausted only when every side is.
            let Some(cur) = &self.sides[w].cur else {
                break;
            };
            if cur.pos == cur.batch.len() {
                self.refill(w);
                self.replay(w);
                continue;
            }
            let n = self.run_len(w, self.challenger(w), BATCH_SIZE - emitted);
            debug_assert!(n > 0, "the winner's row must beat the challenger");
            let cur = self.sides[w].cur.as_mut().expect("the winner is live");
            let batch = &cur.batch;
            let cols = out.get_or_insert_with(|| {
                (0..batch.width())
                    .map(|c| {
                        let mut col = batch.raw_column(c).empty_like();
                        col.reserve(BATCH_SIZE);
                        col
                    })
                    .collect()
            });
            for (c, o) in cols.iter_mut().enumerate() {
                o.extend_from_range(batch.raw_column(c), batch.row(cur.pos), n);
            }
            cur.pos += n;
            emitted += n;
            // A used-up batch is refilled when the next row is wanted, not
            // before: a `LIMIT` above may never want it.
            if cur.pos < cur.batch.len() {
                self.set_head(w);
                self.replay(w);
            }
        }
        out.map(Batch::new)
    }
}

/// A merge of drained sorted runs that is read whole, split by key: at
/// its first pull it cuts the runs into as many key ranges as the pool
/// has threads and the task-size rule ([`tasks_for`]) allows, merges each
/// range as one [`fan_out`] task ([`merge_runs`]), and then emits the
/// ranges' batches in range order. A trace therefore charges the split
/// and every range's merge to this operator's first pull.
pub struct SplitMergeOp {
    runs: Vec<Vec<Batch>>,
    keys: Vec<SortKeySpec>,
    out: Option<std::vec::IntoIter<Batch>>,
}

impl SplitMergeOp {
    /// Creates a split merge of `runs`, each one input's batches sorted on
    /// `keys`.
    pub fn new(runs: Vec<Vec<Batch>>, keys: Vec<SortKeySpec>) -> Self {
        SplitMergeOp {
            runs,
            keys,
            out: None,
        }
    }
}

impl Operator for SplitMergeOp {
    fn next(&mut self) -> Option<Batch> {
        let out = self.out.get_or_insert_with(|| {
            let runs = std::mem::take(&mut self.runs);
            let total = runs.iter().map(|run| rows(run)).sum();
            merge_runs(&runs, &self.keys, tasks_for(total, threads())).into_iter()
        });
        out.next()
    }
}

/// Sampled rows per range and run. A sampled row stands for the `stride`
/// rows around it in its run, so a cut lands within one stride per run of
/// its even rank; a stride of rows / (4 · ranges · runs) keeps that under
/// a quarter of a range.
const OVERSAMPLE: usize = 4;

/// Merges `runs` — each one input's batches, sorted on `keys` — into the
/// batches of their stable merge: by key, then run, then position within
/// the run, as one [`OrderedMergeOp`] over the runs emits it. The merge is
/// cut into at most `ranges` key ranges, each one [`OrderedMergeOp`] as a
/// [`fan_out`] task, concatenated in range order.
///
/// Only a first key of type `Int` splits; any other key merges as one
/// range. The splitters are a regular sample of every run, weighted by
/// its length, as in parallel sorting by regular sampling (Shi &
/// Schaeffer, 1992), so runs that each cover a part of the key domain
/// still split evenly. Every run is cut at the lower bound of every
/// splitter: all rows with one first key fall in one range, and the
/// ranges concatenate to the one-range merge. A range reads its part of a
/// window where it lies and gathers its part of a selection inside its
/// own task, one batch at a time.
pub fn merge_runs(runs: &[Vec<Batch>], keys: &[SortKeySpec], ranges: usize) -> Vec<Batch> {
    let int_key = keys.first().copied().filter(|&(col, _)| {
        let first = runs.iter().flatten().find(|b| !b.is_empty());
        first.is_some_and(|b| matches!(b.raw_column(col), ColumnData::Int(_)))
    });
    let cuts = match int_key {
        Some((col, o)) if ranges > 1 => cuts(runs, col, o, ranges),
        _ => runs.iter().map(|run| vec![0, rows(run)]).collect(),
    };
    let ranges = cuts.first().map_or(1, |cut| cut.len() - 1);
    let merged = fan_out(ranges, |r| {
        let inputs = runs.iter().zip(&cuts).map(|(run, cut)| {
            Box::new(RangeSource {
                batches: run.iter(),
                start: 0,
                rows: cut[r]..cut[r + 1],
            }) as OpRef<'_>
        });
        drain(&mut OrderedMergeOp::new(inputs.collect(), keys.to_vec()))
    });
    merged.into_iter().flatten().collect()
}

/// The rows of a run.
fn rows(run: &[Batch]) -> usize {
    run.iter().map(Batch::len).sum()
}

/// Per run, where each key range starts, then the run's length. The
/// splitters — at most `ranges − 1` oriented first keys, ascending and
/// distinct — sit at even ranks of a regular sample that takes every
/// run's rows at one stride, so each run is sampled in proportion to its
/// length; each range starts at a splitter's lower bound.
fn cuts(runs: &[Vec<Batch>], col: usize, o: SortOrder, ranges: usize) -> Vec<Vec<usize>> {
    let total: usize = runs.iter().map(|run| rows(run)).sum();
    let stride = (total / (OVERSAMPLE * ranges * runs.len())).max(1);
    let mut sample = Vec::new();
    for run in runs {
        // Run positions of the batch's first row and of the next sample.
        let (mut start, mut next) = (0, stride / 2);
        for b in run {
            let end = start + b.len();
            while next < end {
                let key = b.raw_column(col).as_int()[b.row(next - start)];
                sample.push(oriented_int(key, o));
                next += stride;
            }
            start = end;
        }
    }
    sample.sort_unstable();
    let mut splitters: Vec<i64> = (1..ranges)
        .filter_map(|j| sample.get(j * sample.len() / ranges).copied())
        .collect();
    splitters.dedup();
    let cut = |run: &[Batch]| {
        let starts = splitters
            .iter()
            .map(|&s| run.iter().map(|b| below(b, col, o, s)).sum());
        std::iter::once(0)
            .chain(starts)
            .chain([rows(run)])
            .collect()
    };
    runs.iter().map(|run| cut(run)).collect()
}

/// How many of `b`'s rows have an oriented `Int` key in column `col`
/// below `s` (`b` is sorted on that key).
fn below(b: &Batch, col: usize, o: SortOrder, s: i64) -> usize {
    if b.is_empty() {
        return 0;
    }
    let keys = b.raw_column(col).as_int();
    match b.sel() {
        Some(sel) => sel.partition_point(|&p| oriented_int(keys[p], o) < s),
        None => keys[b.span()].partition_point(|&k| oriented_int(k, o) < s),
    }
}

/// One run's rows `rows`, counted over its batches, as a stream: the part
/// of each batch inside them, as a window of it, or gathered from a
/// selection when the part is pulled.
struct RangeSource<'r> {
    batches: std::slice::Iter<'r, Batch>,
    /// The run position of the next batch's first row.
    start: usize,
    rows: Range<usize>,
}

impl Operator for RangeSource<'_> {
    fn next(&mut self) -> Option<Batch> {
        while self.start < self.rows.end {
            let b = self.batches.next()?;
            let (lo, hi) = (self.start, self.start + b.len());
            self.start = hi;
            let (from, to) = (lo.max(self.rows.start), hi.min(self.rows.end));
            if from < to {
                return Some(b.slice(from - lo..to - lo));
            }
        }
        None
    }
}

/// Emits at most `n` rows; the batch it cuts is cut by its selection,
/// not copied.
pub struct LimitOp<'a> {
    input: OpRef<'a>,
    remaining: usize,
}

impl<'a> LimitOp<'a> {
    /// Creates a limit.
    pub fn new(input: OpRef<'a>, n: usize) -> Self {
        LimitOp {
            input,
            remaining: n,
        }
    }
}

impl Operator for LimitOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        if self.remaining == 0 {
            return None;
        }
        let batch = self.input.next()?.head(self.remaining);
        self.remaining -= batch.len();
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, BatchSource};
    use crate::ops::sort::{is_sorted_asc, SortOrder};
    use pi_storage::ColumnData;

    fn src(vals: &[i64]) -> OpRef<'static> {
        Box::new(BatchSource::single(Batch::new(vec![ColumnData::Int(
            vals.to_vec(),
        )])))
    }

    #[test]
    fn union_concatenates() {
        let mut u = UnionAllOp::new(vec![src(&[1, 2]), src(&[3]), src(&[])]);
        let out = collect(&mut u);
        assert_eq!(out.column(0).as_int(), &[1, 2, 3]);
    }

    #[test]
    fn ordered_merge_two_ways() {
        let mut m = OrderedMergeOp::new(
            vec![src(&[1, 4, 9]), src(&[2, 3, 10])],
            vec![(0, SortOrder::Asc)],
        );
        let out = collect(&mut m);
        assert_eq!(out.column(0).as_int(), &[1, 2, 3, 4, 9, 10]);
    }

    #[test]
    fn ordered_merge_k_ways_with_duplicates() {
        let mut m = OrderedMergeOp::new(
            vec![src(&[1, 5]), src(&[1, 1, 6]), src(&[0, 5])],
            vec![(0, SortOrder::Asc)],
        );
        let out = collect(&mut m);
        assert_eq!(out.column(0).as_int(), &[0, 1, 1, 1, 5, 5, 6]);
        assert!(is_sorted_asc(out.column(0)));
    }

    #[test]
    fn ordered_merge_descending() {
        let mut m =
            OrderedMergeOp::new(vec![src(&[9, 4]), src(&[7, 1])], vec![(0, SortOrder::Desc)]);
        let out = collect(&mut m);
        assert_eq!(out.column(0).as_int(), &[9, 7, 4, 1]);
    }

    #[test]
    fn ordered_merge_empty_inputs() {
        let mut m = OrderedMergeOp::new(vec![src(&[]), src(&[])], vec![(0, SortOrder::Asc)]);
        assert!(collect(&mut m).is_empty());
    }

    #[test]
    fn limit_truncates_mid_batch() {
        let mut l = LimitOp::new(src(&[1, 2, 3, 4, 5]), 3);
        let out = collect(&mut l);
        assert_eq!(out.column(0).as_int(), &[1, 2, 3]);
    }

    #[test]
    fn limit_zero() {
        let mut l = LimitOp::new(src(&[1, 2]), 0);
        assert!(l.next().is_none());
    }
}
