//! Combining dataflows: union, order-preserving merge, limit.
//!
//! The PatchIndex rewrites recombine the constraint-satisfying subtree with
//! the patches subtree: distinct queries use a plain Union, sort queries a
//! Merge operator that preserves the sort order (paper, Section 3.3). The
//! same merge combines the reference plan's per-partition sorts. It
//! streams — one batch held per input, one batch emitted per pull — so a
//! `LIMIT` above it stops the inputs once its first output batch is in.

use std::cmp::Ordering;

use pi_storage::ColumnData;

use crate::batch::{Batch, BATCH_SIZE};
use crate::keycmp::{cmp_rows_cross, oriented_int, KeyColumn};
use crate::op::{OpRef, Operator};
use crate::ops::sort::SortKeySpec;

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
                    .map(|c| batch.raw_column(c).empty_like())
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
