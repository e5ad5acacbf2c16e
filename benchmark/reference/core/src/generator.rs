//! Test dataset generation (paper Section III.B, "Test Dataset
//! Generator" and Eq. 1).
//!
//! The toolset builds the `test_value_matrix` — one value set per input
//! parameter — and enumerates **all combinations** of test values across
//! the parameters. The total is Eq. (1):
//!
//! ```text
//! combinations_total = Π  n_v(p_i)      for i = 1..N
//! ```
//!
//! [`CartesianIter`] enumerates the combinations lazily in canonical
//! order (last parameter varies fastest, like nested loops in the
//! generated C mutants) and implements `ExactSizeIterator`.

use crate::dictionary::TestValue;

/// Eq. (1): the total number of test datasets for a value matrix.
/// Returns 1 for a parameter-less call (the empty product), matching the
/// convention that such a call still has exactly one invocation form.
/// Saturates at `u64::MAX` on adversarial matrices instead of wrapping —
/// a wrapped total would silently truncate campaign planning (and a
/// wrap to zero would claim an enormous matrix has *no* datasets). An
/// empty value set anywhere yields 0, even when other parameters would
/// overflow on their own.
pub fn combinations_total(matrix: &[Vec<TestValue>]) -> u64 {
    if matrix.iter().any(|vs| vs.is_empty()) {
        return 0;
    }
    matrix.iter().try_fold(1u64, |acc, vs| acc.checked_mul(vs.len() as u64)).unwrap_or(u64::MAX)
}

/// Lazy Cartesian-product iterator over a test value matrix.
///
/// ```
/// use skrt::dictionary::TestValue;
/// use skrt::generator::{combinations_total, CartesianIter};
///
/// // Two parameters with 2 and 3 candidate values: Eq. (1) gives 6.
/// let matrix = vec![
///     vec![TestValue::scalar(0), TestValue::scalar(1)],
///     vec![TestValue::scalar(10), TestValue::scalar(20), TestValue::scalar(30)],
/// ];
/// assert_eq!(combinations_total(&matrix), 6);
///
/// let datasets: Vec<Vec<u64>> = CartesianIter::new(matrix)
///     .map(|ds| ds.iter().map(|v| v.raw).collect())
///     .collect();
/// assert_eq!(datasets.len(), 6);
/// assert_eq!(datasets[0], vec![0, 10]);
/// assert_eq!(datasets[5], vec![1, 30]);
/// ```
#[derive(Debug, Clone)]
pub struct CartesianIter {
    matrix: Vec<Vec<TestValue>>,
    /// Odometer indices; `None` once exhausted.
    cursor: Option<Vec<usize>>,
    produced: u64,
    total: u64,
}

impl CartesianIter {
    /// Creates an iterator over `matrix`. A matrix containing an empty
    /// value set yields no datasets; an empty matrix yields exactly one
    /// empty dataset (the parameter-less case).
    pub fn new(matrix: Vec<Vec<TestValue>>) -> Self {
        let total =
            if matrix.iter().any(|v| v.is_empty()) { 0 } else { combinations_total(&matrix) };
        let cursor = if total == 0 { None } else { Some(vec![0; matrix.len()]) };
        CartesianIter { matrix, cursor, produced: 0, total }
    }

    /// Eq. (1) total for this matrix.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The dataset at a given index without iterating (mixed-radix
    /// decode); `None` if out of range. Lets the parallel executor shard
    /// work without materialising all datasets.
    pub fn nth_dataset(&self, index: u64) -> Option<Vec<TestValue>> {
        if index >= self.total {
            return None;
        }
        let mut idx = index;
        let mut out = vec![TestValue::scalar(0); self.matrix.len()];
        for (slot, values) in self.matrix.iter().enumerate().rev() {
            let n = values.len() as u64;
            out[slot] = values[(idx % n) as usize];
            idx /= n;
        }
        Some(out)
    }
}

impl Iterator for CartesianIter {
    type Item = Vec<TestValue>;

    fn next(&mut self) -> Option<Self::Item> {
        let cursor = self.cursor.as_mut()?;
        let item: Vec<TestValue> = cursor.iter().zip(&self.matrix).map(|(&i, vs)| vs[i]).collect();
        self.produced += 1;
        // Advance the odometer (last slot fastest).
        let mut done = true;
        for slot in (0..cursor.len()).rev() {
            cursor[slot] += 1;
            if cursor[slot] < self.matrix[slot].len() {
                done = false;
                break;
            }
            cursor[slot] = 0;
        }
        if done {
            self.cursor = None;
        }
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.total - self.produced) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CartesianIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[i64]) -> Vec<TestValue> {
        xs.iter().map(|&x| TestValue::scalar(x as u64)).collect()
    }

    #[test]
    fn eq1_matches_paper_arithmetic() {
        // XM_reset_partition with the Fig. 2 signature and the default
        // dictionaries: 8 × 5 × 5 = 200.
        let matrix =
            vec![vals(&(0..8).collect::<Vec<_>>()), vals([0; 5].as_ref()), vals([0; 5].as_ref())];
        assert_eq!(combinations_total(&matrix), 200);
    }

    #[test]
    fn empty_matrix_is_one_combination() {
        assert_eq!(combinations_total(&[]), 1);
        let mut it = CartesianIter::new(vec![]);
        assert_eq!(it.len(), 1);
        assert_eq!(it.next(), Some(vec![]));
        assert_eq!(it.next(), None);
    }

    #[test]
    fn empty_value_set_yields_nothing() {
        let it = CartesianIter::new(vec![vals(&[1, 2]), vec![]]);
        assert_eq!(it.total(), 0);
        assert_eq!(it.count(), 0);
    }

    #[test]
    fn enumerates_all_unique_in_canonical_order() {
        let it = CartesianIter::new(vec![vals(&[0, 1]), vals(&[10, 20, 30])]);
        let all: Vec<Vec<i64>> = it.map(|ds| ds.iter().map(TestValue::as_s64).collect()).collect();
        assert_eq!(
            all,
            vec![vec![0, 10], vec![0, 20], vec![0, 30], vec![1, 10], vec![1, 20], vec![1, 30]]
        );
    }

    #[test]
    fn exact_size_is_maintained() {
        let mut it = CartesianIter::new(vec![vals(&[1, 2, 3]), vals(&[1, 2])]);
        assert_eq!(it.len(), 6);
        it.next();
        it.next();
        assert_eq!(it.len(), 4);
        assert_eq!(it.by_ref().count(), 4);
    }

    #[test]
    fn nth_dataset_matches_iteration() {
        let it = CartesianIter::new(vec![vals(&[0, 1]), vals(&[10, 20, 30]), vals(&[7, 8])]);
        let all: Vec<_> = it.clone().collect();
        for (i, ds) in all.iter().enumerate() {
            assert_eq!(it.nth_dataset(i as u64).as_ref(), Some(ds), "index {i}");
        }
        assert_eq!(it.nth_dataset(all.len() as u64), None);
    }

    #[test]
    fn large_products_do_not_overflow() {
        let matrix: Vec<Vec<TestValue>> =
            (0..8).map(|_| vals(&(0..100).collect::<Vec<_>>())).collect();
        assert_eq!(combinations_total(&matrix), 100u64.pow(8));
    }
}
