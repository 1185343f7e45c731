//! Dense row-major matrices and Gaussian elimination.

use crate::LinalgError;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Dense::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from nested rows; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Dense {
            rows: r,
            cols: c,
            data: rows.concat(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Dense {
        let mut t = Dense::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `y = xᵀ·A` (left multiplication by a row vector).
    pub fn left_mul(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.rows,
                got: x.len(),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, &aij) in self.row(i).iter().enumerate() {
                y[j] += xi * aij;
            }
        }
        Ok(y)
    }

    /// Solve `A·x = b` in place by Gaussian elimination with partial
    /// pivoting. `A` must be square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.rows;
        if self.cols != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                got: self.cols,
            });
        }
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        // Forward elimination with partial pivoting.
        for col in 0..n {
            // Pivot: largest |a[row][col]| for row >= col.
            let (pivot_row, pivot_val) = (col..n)
                .map(|r| (r, a[r * n + col].abs()))
                .max_by(|l, r| l.1.total_cmp(&r.1))
                .expect("non-empty pivot range");
            if pivot_val < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            let inv = 1.0 / a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] * inv;
                if f == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for j in col + 1..n {
                    a[r * n + j] -= f * a[col * n + j];
                }
                x[r] -= f * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for j in col + 1..n {
                s -= a[col * n + j] * x[j];
            }
            x[col] = s / a[col * n + col];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Dense {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Dense {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let a = Dense::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3.
        let a = Dense::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Dense::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Dense::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn left_mul_matches_manual() {
        let a = Dense::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let y = a.left_mul(&[5.0, 6.0]).unwrap();
        assert_eq!(y, vec![5.0 + 18.0, 10.0 + 24.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Dense::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn dimension_mismatch_reported() {
        let a = Dense::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.left_mul(&[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
