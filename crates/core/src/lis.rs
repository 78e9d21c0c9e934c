//! Longest non-decreasing subsequence (Fredman \[12\] — patience sorting with
//! binary search, `O(n log n)`).
//!
//! Used by NSC discovery (the minimal patch set is the complement of a
//! longest sorted subsequence) and by the insert-handling mechanism, which
//! extends the existing sorted run with a longest sorted subsequence of the
//! inserted values (paper, Section 5.1).

/// Index set (ascending) of one longest non-decreasing subsequence of
/// `values`.
pub fn longest_nondecreasing_indices(values: &[i64]) -> Vec<usize> {
    if values.is_empty() {
        return Vec::new();
    }
    // tails[k] = index of the smallest possible tail of a subsequence of
    // length k+1; parent[i] = predecessor of i in the best subsequence
    // ending at i.
    let mut tails: Vec<usize> = Vec::new();
    let mut parent: Vec<usize> = vec![usize::MAX; values.len()];
    for (i, &v) in values.iter().enumerate() {
        // Non-decreasing: find the first tail strictly greater than v.
        let pos = tails.partition_point(|&t| values[t] <= v);
        if pos > 0 {
            parent[i] = tails[pos - 1];
        }
        if pos == tails.len() {
            tails.push(i);
        } else {
            tails[pos] = i;
        }
    }
    // Reconstruct.
    let mut out = Vec::with_capacity(tails.len());
    let mut cur = *tails.last().unwrap();
    loop {
        out.push(cur);
        if parent[cur] == usize::MAX {
            break;
        }
        cur = parent[cur];
    }
    out.reverse();
    out
}

/// Length of a longest non-decreasing subsequence.
pub fn longest_nondecreasing_len(values: &[i64]) -> usize {
    let mut tails: Vec<i64> = Vec::new();
    for &v in values {
        let pos = tails.partition_point(|&t| t <= v);
        if pos == tails.len() {
            tails.push(v);
        } else {
            tails[pos] = v;
        }
    }
    tails.len()
}

/// Index complement of [`longest_nondecreasing_indices`]: the minimal patch
/// set for an ascending NSC.
pub fn nsc_patches(values: &[i64]) -> Vec<usize> {
    let lis = longest_nondecreasing_indices(values);
    gaps(&lis, values.len()).flatten().collect()
}

/// The runs of `0..n` between the ascending indices `keep`, in order: the
/// complement of a kept sorted run, walked once.
pub(crate) fn gaps(keep: &[usize], n: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let starts = std::iter::once(0).chain(keep.iter().map(|&k| k + 1));
    starts
        .zip(keep.iter().copied().chain([n]))
        .map(|(s, e)| s..e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_lis(values: &[i64], idx: &[usize]) {
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "indices not ascending");
        assert!(
            idx.windows(2).all(|w| values[w[0]] <= values[w[1]]),
            "subsequence not sorted"
        );
    }

    #[test]
    fn sorted_input_keeps_everything() {
        let v: Vec<i64> = (0..100).collect();
        assert_eq!(longest_nondecreasing_indices(&v).len(), 100);
        assert!(nsc_patches(&v).is_empty());
    }

    #[test]
    fn reverse_sorted_keeps_one() {
        let v: Vec<i64> = (0..50).rev().collect();
        assert_eq!(longest_nondecreasing_len(&v), 1);
        assert_eq!(nsc_patches(&v).len(), 49);
    }

    #[test]
    fn duplicates_allowed_in_nondecreasing_run() {
        let v = vec![1i64, 3, 3, 3, 2, 4];
        let lis = longest_nondecreasing_indices(&v);
        assert_valid_lis(&v, &lis);
        assert_eq!(lis.len(), 5); // 1,3,3,3,4
        assert_eq!(nsc_patches(&v), vec![4]);
    }

    #[test]
    fn classic_example() {
        let v = vec![2i64, 8, 9, 5, 6, 7, 1];
        let lis = longest_nondecreasing_indices(&v);
        assert_valid_lis(&v, &lis);
        assert_eq!(lis.len(), 4); // 2,5,6,7
        assert_eq!(lis, vec![0, 3, 4, 5]);
    }

    #[test]
    fn paper_insert_example() {
        // Table (1, 2, 10) + inserts (3, 4): combining per-part optima may
        // miss the global optimum — the global LIS here is length 4.
        let v = vec![1i64, 2, 10, 3, 4];
        assert_eq!(longest_nondecreasing_len(&v), 4);
    }

    #[test]
    fn len_matches_indices_on_random_input() {
        // Deterministic pseudo-random input.
        let v: Vec<i64> = (0..500u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as i64)
            .collect();
        let lis = longest_nondecreasing_indices(&v);
        assert_valid_lis(&v, &lis);
        assert_eq!(lis.len(), longest_nondecreasing_len(&v));
        // Complement accounting.
        assert_eq!(nsc_patches(&v).len() + lis.len(), v.len());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(longest_nondecreasing_indices(&[]).is_empty());
        assert_eq!(longest_nondecreasing_indices(&[7]), vec![0]);
        assert_eq!(longest_nondecreasing_len(&[]), 0);
    }
}
