//! A minimal matrix type and the elementwise kernels a decoder needs.
//!
//! This is intentionally small: the transformer substrate only needs 2-D matrices,
//! matrix multiplication, row softmax and GeLU. Keeping it dependency-free makes the
//! simulation reproducible and easy to audit.

use crate::error::LlmError;
use std::sync::OnceLock;

/// Width, in columns, of one panel of the packed layout (see
/// [`Matrix::packed_from_fn`]).
const PANEL: usize = 16;

/// Smallest packed weight, in elements (`k · n`), whose products
/// [`Matrix::matmul_into`] splits across cores. On a 2-core AVX2 host with
/// cold weights a 256 × 512 weight breaks even at 8 rows (a thread spawn costs
/// about what the second core saves) and 512 × 512 gains 1.1–1.3×, so the gate
/// sits there. GPT-2-small projections (768 × 768 and up) split; the E=64
/// serving model's weights (at most 64 × 256) never do.
const SPLIT_MIN_WEIGHT: usize = 512 * 512;

/// Rows of the left operand one register tile of the packed kernel covers: a
/// `ROW_TILE × PANEL` block of accumulators stays in registers across the
/// whole reduction.
const ROW_TILE: usize = 4;

/// A `rows × cols` matrix of `f32`.
///
/// Storage is row-major, except for matrices built by [`Matrix::packed_from_fn`]:
/// those hold column panels, the layout the projection weights use so that
/// [`Matrix::matmul_into`] can run a register-tiled kernel over them. The layout
/// is private to this type. [`Matrix::get`]/[`Matrix::set`] and the elementwise
/// helpers work on either; the row-slice accessors and every kernel that walks
/// rows panic on a packed matrix rather than hand out panel-ordered data.
/// Equality is structural, so a packed matrix never equals a row-major one.
///
/// # Example
///
/// ```
/// use haan_llm::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c.get(1, 0), 3.0);
/// # Ok::<(), haan_llm::LlmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    /// `data` holds column panels rather than rows.
    packed: bool,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            packed: false,
        }
    }

    /// Creates an identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, LlmError> {
        if data.len() != rows * cols {
            return Err(LlmError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Self {
            rows,
            cols,
            data,
            packed: false,
        })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, LlmError> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LlmError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (rows.len(), cols),
                    rhs: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
            packed: false,
        })
    }

    /// Creates a matrix in the column-panel layout of the projection weights,
    /// calling `value(row, col)` once per element in row-major order, so a
    /// seeded generator draws the same values in the same order that
    /// [`Matrix::from_vec`] would store.
    ///
    /// The columns are cut into panels 16 wide (the last one narrower when
    /// `cols` is not a multiple of 16), and each panel stores its
    /// `rows × width` block contiguously, row by row. As the right-hand side of
    /// [`Matrix::matmul_into`] a packed matrix takes a register-tiled kernel
    /// that is bit-identical to the row-major one.
    ///
    /// # Example
    ///
    /// ```
    /// use haan_llm::Matrix;
    /// let w = Matrix::packed_from_fn(2, 3, |row, col| (row * 3 + col) as f32);
    /// assert!(w.is_packed());
    /// assert_eq!(w.get(1, 2), 5.0);
    /// let x = Matrix::from_rows(&[&[1.0, 1.0]])?;
    /// assert_eq!(x.matmul(&w)?.row(0), &[3.0, 5.0, 7.0]);
    /// # Ok::<(), haan_llm::LlmError>(())
    /// ```
    #[must_use]
    pub fn packed_from_fn(
        rows: usize,
        cols: usize,
        mut value: impl FnMut(usize, usize) -> f32,
    ) -> Self {
        let mut m = Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            packed: true,
        };
        for row in 0..rows {
            for col in 0..cols {
                let at = m.index(row, col);
                m.data[at] = value(row, col);
            }
        }
        m
    }

    /// True when the matrix is stored in the column-panel layout of
    /// [`Matrix::packed_from_fn`].
    #[must_use]
    pub fn is_packed(&self) -> bool {
        self.packed
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Offset of element `(row, col)` in `data` under this matrix's layout.
    fn index(&self, row: usize, col: usize) -> usize {
        if self.packed {
            let start = col - col % PANEL;
            let width = PANEL.min(self.cols - start);
            start * self.rows + row * width + col % PANEL
        } else {
            row * self.cols + col
        }
    }

    /// The row-major buffer.
    fn row_major(&self) -> &[f32] {
        assert!(!self.packed, "a panel-packed matrix has no row-major view");
        &self.data
    }

    /// The row-major buffer, mutably.
    fn row_major_mut(&mut self) -> &mut [f32] {
        assert!(!self.packed, "a panel-packed matrix has no row-major view");
        &mut self.data
    }

    /// Element accessor (either layout).
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[self.index(row, col)]
    }

    /// Element mutator (either layout).
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let at = self.index(row, col);
        self.data[at] = value;
    }

    /// Borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds or the matrix is packed.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row out of bounds");
        &self.row_major()[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows one row.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds or the matrix is packed.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row out of bounds");
        let cols = self.cols;
        &mut self.row_major_mut()[row * cols..(row + 1) * cols]
    }

    /// Borrows the underlying row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is packed.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        self.row_major()
    }

    /// Mutably borrows the underlying row-major buffer (used by the batched kernels).
    ///
    /// # Panics
    ///
    /// Panics when the matrix is packed.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.row_major_mut()
    }

    /// Reshapes the matrix in place to a row-major `rows × cols`, reusing the
    /// existing buffer. The buffer only ever grows (`Vec::resize` keeps its
    /// capacity on shrink), which is what makes reusable scratch matrices
    /// allocation-free at steady state — see [`Matrix::buffer_capacity`]. Old
    /// element values do not survive a reshape in any meaningful layout;
    /// callers must treat the contents as uninitialized and overwrite every
    /// element they read.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.packed = false;
        self.data.resize(rows * cols, 0.0);
    }

    /// Elements the underlying buffer can hold without reallocating — the
    /// telemetry the no-allocation-growth assertions in the decode bench watch
    /// across steps.
    #[must_use]
    pub fn buffer_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Matrix multiplication `self × rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LlmError> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix multiplication `self × rhs` into a caller-provided output matrix.
    ///
    /// A row-major `rhs` takes a kernel cache-blocked over the `k` (reduction)
    /// and `j` (output column) dimensions: each `k`-panel of `rhs` is streamed
    /// against a row of `self` while the corresponding slice of the output row
    /// stays hot, and the inner `j` loop is a contiguous multiply-add the
    /// compiler can vectorise. A packed `rhs` ([`Matrix::packed_from_fn`])
    /// takes a register-tiled kernel: a 4-row × 16-column block of outputs
    /// stays in registers across the whole reduction, so every weight load
    /// feeds four rows. Either way every output element starts at `0.0` and
    /// adds its products in ascending-`k` order, so both kernels are
    /// bit-identical to the naive triple loop at any row count.
    ///
    /// A packed `rhs` of at least 512 × 512 elements is also split across the
    /// host's cores ([`Matrix::matmul_parts`] says into how many parts): its
    /// column panels are cut into contiguous ranges, the calling thread
    /// computes the first and scoped threads the others, so each core streams
    /// only its own share of the weight. Every output column still runs the
    /// same kernel in the same order, so the result does not depend on the
    /// split.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when `self.cols() != rhs.rows()` or when
    /// `out` is not `self.rows() × rhs.cols()`.
    ///
    /// # Panics
    ///
    /// Panics when `self` or `out` is packed.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LlmError> {
        if self.cols != rhs.rows {
            return Err(LlmError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LlmError::ShapeMismatch {
                op: "matmul (output)",
                lhs: (self.rows, rhs.cols),
                rhs: out.shape(),
            });
        }
        let lhs = self.row_major();
        let out = out.row_major_mut();
        if rhs.packed {
            let parts = self.matmul_parts(rhs);
            matmul_panel_ranges(lhs, self.cols, &rhs.data, rhs.cols, out, parts);
            return Ok(());
        }
        out.fill(0.0);
        let n = rhs.cols;
        for jj in (0..n).step_by(Self::BLOCK) {
            let j_end = (jj + Self::BLOCK).min(n);
            for kk in (0..self.cols).step_by(Self::BLOCK) {
                let k_end = (kk + Self::BLOCK).min(self.cols);
                for i in 0..self.rows {
                    let a_panel = &lhs[i * self.cols + kk..i * self.cols + k_end];
                    let out_tile = &mut out[i * n + jj..i * n + j_end];
                    let rhs_panel = rhs.data[kk * n..k_end * n].chunks_exact(n);
                    for (&a, rhs_row) in a_panel.iter().zip(rhs_panel) {
                        let rhs_tile = &rhs_row[jj..j_end];
                        for (o, &b) in out_tile.iter_mut().zip(rhs_tile) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// How many column-panel ranges, one per core, [`Matrix::matmul_into`]
    /// splits `self × rhs` into: `min(host threads, panels of rhs)` for a
    /// packed `rhs` of at least 512 × 512 elements and a non-empty `self`, 1
    /// otherwise. Only the weight's size and the host select the split.
    #[must_use]
    pub fn matmul_parts(&self, rhs: &Matrix) -> usize {
        if rhs.packed {
            split_parts(self.rows, rhs.rows, rhs.cols, host_threads)
        } else {
            1
        }
    }

    /// Matrix multiplication with the transpose of `rhs` (`self × rhsᵀ`), used for
    /// attention scores.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when `self.cols() != rhs.cols()`.
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Result<Matrix, LlmError> {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transposed_into(rhs, &mut out)?;
        Ok(out)
    }

    /// `self × rhsᵀ` into a caller-provided output matrix.
    ///
    /// Both operands are traversed row-major (that is the point of the transposed
    /// form), so the kernel is a tiled batch of dot products: `rhs` rows are walked in
    /// blocks that stay cache-resident across consecutive `self` rows, and each dot
    /// product runs over four independent accumulator lanes to break the addition
    /// dependency chain.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when `self.cols() != rhs.cols()` or when
    /// `out` is not `self.rows() × rhs.rows()`.
    ///
    /// # Panics
    ///
    /// Panics when any of the three matrices is packed.
    pub fn matmul_transposed_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LlmError> {
        if self.cols != rhs.cols {
            return Err(LlmError::ShapeMismatch {
                op: "matmul_transposed",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.rows) {
            return Err(LlmError::ShapeMismatch {
                op: "matmul_transposed (output)",
                lhs: (self.rows, rhs.rows),
                rhs: out.shape(),
            });
        }
        let (lhs, rhs_data) = (self.row_major(), rhs.row_major());
        let out = out.row_major_mut();
        let n = rhs.rows;
        for jj in (0..n).step_by(Self::BLOCK) {
            let j_end = (jj + Self::BLOCK).min(n);
            for i in 0..self.rows {
                let a_row = &lhs[i * self.cols..(i + 1) * self.cols];
                for j in jj..j_end {
                    let b_row = &rhs_data[j * rhs.cols..(j + 1) * rhs.cols];
                    out[i * n + j] = dot_unrolled(a_row, b_row);
                }
            }
        }
        Ok(())
    }

    /// Block edge (in elements) of the cache-blocked kernels: 64 × 64 f32 tiles are
    /// 16 KiB, comfortably inside a typical 32–48 KiB L1 data cache alongside the
    /// operand rows.
    const BLOCK: usize = 64;

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, LlmError> {
        let mut out = self.clone();
        out.add_assign(rhs)?;
        Ok(out)
    }

    /// In-place elementwise addition `self += rhs` (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) -> Result<(), LlmError> {
        if self.shape() != rhs.shape() {
            return Err(LlmError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.row_major_mut().iter_mut().zip(rhs.row_major()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place elementwise multiplication `self *= rhs` (no allocation), used by the
    /// gated (SwiGLU) MLP.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the shapes differ.
    pub fn mul_assign(&mut self, rhs: &Matrix) -> Result<(), LlmError> {
        if self.shape() != rhs.shape() {
            return Err(LlmError::ShapeMismatch {
                op: "elementwise product",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.row_major_mut().iter_mut().zip(rhs.row_major()) {
            *a *= b;
        }
        Ok(())
    }

    /// Adds a row vector to every row (broadcast bias addition).
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_bias(&self, bias: &[f32]) -> Result<Matrix, LlmError> {
        if bias.len() != self.cols {
            return Err(LlmError::ShapeMismatch {
                op: "add_bias",
                lhs: self.shape(),
                rhs: (1, bias.len()),
            });
        }
        let mut out = self.clone();
        for i in 0..self.rows {
            for (v, b) in out.row_mut(i).iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Scales every element.
    #[must_use]
    pub fn scale(&self, factor: f32) -> Matrix {
        self.map(|v| v * factor)
    }

    /// Scales every element in place (no allocation).
    pub fn scale_in_place(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Applies a function elementwise.
    #[must_use]
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            data: self.data.iter().map(|&v| f(v)).collect(),
            ..*self
        }
    }

    /// Applies a function elementwise in place (no allocation).
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Copies the column window `[start, start + width)` of every row into `out`
    /// (which must be `self.rows() × width`), used to slice attention heads without
    /// allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the window exceeds `self.cols()` or
    /// `out` has the wrong shape.
    pub fn columns_into(
        &self,
        start: usize,
        width: usize,
        out: &mut Matrix,
    ) -> Result<(), LlmError> {
        if start + width > self.cols {
            return Err(LlmError::ShapeMismatch {
                op: "columns_into",
                lhs: self.shape(),
                rhs: (start, width),
            });
        }
        if out.shape() != (self.rows, width) {
            return Err(LlmError::ShapeMismatch {
                op: "columns_into (output)",
                lhs: (self.rows, width),
                rhs: out.shape(),
            });
        }
        // A column window is the all-rows special case of the general window copy.
        self.window_into(0, start, out)
    }

    /// Writes `src` (which must be `self.rows() × width`) into the column window
    /// `[start, start + width)` of every row — the inverse of [`Matrix::columns_into`].
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the window exceeds `self.cols()` or
    /// `src` has the wrong shape.
    pub fn set_columns(&mut self, start: usize, src: &Matrix) -> Result<(), LlmError> {
        let width = src.cols;
        if start + width > self.cols {
            return Err(LlmError::ShapeMismatch {
                op: "set_columns",
                lhs: self.shape(),
                rhs: (start, width),
            });
        }
        if src.rows != self.rows {
            return Err(LlmError::ShapeMismatch {
                op: "set_columns (source)",
                lhs: self.shape(),
                rhs: src.shape(),
            });
        }
        let (rows, cols) = self.shape();
        let (dst, src) = (self.row_major_mut(), src.row_major());
        for row in 0..rows {
            dst[row * cols + start..row * cols + start + width]
                .copy_from_slice(&src[row * width..(row + 1) * width]);
        }
        Ok(())
    }

    /// Copies an `out.rows() × out.cols()` window of `self` starting at
    /// `(row_start, col_start)` into `out`. The KV-cached attention path uses this
    /// to slice a per-head key/value panel out of the populated prefix of a cache
    /// matrix without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the window exceeds `self`'s bounds.
    pub fn window_into(
        &self,
        row_start: usize,
        col_start: usize,
        out: &mut Matrix,
    ) -> Result<(), LlmError> {
        if row_start + out.rows > self.rows || col_start + out.cols > self.cols {
            return Err(LlmError::ShapeMismatch {
                op: "window_into",
                lhs: self.shape(),
                rhs: (row_start + out.rows, col_start + out.cols),
            });
        }
        let (rows, width) = out.shape();
        let src = self.row_major();
        let dst = out.row_major_mut();
        for row in 0..rows {
            let src_base = (row_start + row) * self.cols + col_start;
            dst[row * width..(row + 1) * width].copy_from_slice(&src[src_base..src_base + width]);
        }
        Ok(())
    }

    /// Writes `src` into the row window `[row_start, row_start + src.rows())` of
    /// `self` — the row-axis sibling of [`Matrix::set_columns`], used to append
    /// freshly projected K/V rows into a preallocated cache matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the widths differ or the window
    /// exceeds `self.rows()`.
    pub fn set_rows(&mut self, row_start: usize, src: &Matrix) -> Result<(), LlmError> {
        if src.cols != self.cols || row_start + src.rows > self.rows {
            return Err(LlmError::ShapeMismatch {
                op: "set_rows",
                lhs: self.shape(),
                rhs: (row_start + src.rows, src.cols),
            });
        }
        let dst_base = row_start * self.cols;
        let src = src.row_major();
        self.row_major_mut()[dst_base..dst_base + src.len()].copy_from_slice(src);
        Ok(())
    }

    /// In-place causal row softmax: row `i` only attends to columns `0..=i`.
    /// Columns above the diagonal are set to zero probability.
    pub fn causal_softmax_rows(&mut self) {
        self.causal_softmax_rows_offset(0);
    }

    /// In-place causal row softmax for rows that sit `offset` positions into the
    /// sequence: row `i` of this matrix holds the scores of absolute position
    /// `offset + i`, so it attends to columns `0..=offset + i`. With `offset == 0`
    /// this is exactly [`Matrix::causal_softmax_rows`]; the KV-cached decode path
    /// uses a nonzero offset so freshly appended query rows score causally against
    /// the whole cache. The reduction order (max, exponentiate, sum, divide, in
    /// ascending column order) is shared with the zero-offset path, keeping the two
    /// bit-identical on the positions they both compute.
    pub fn causal_softmax_rows_offset(&mut self, offset: usize) {
        for i in 0..self.rows {
            let cols = self.cols;
            let row = self.row_mut(i);
            let limit = (offset + i + 1).min(cols);
            let max = row[..limit]
                .iter()
                .fold(f32::NEG_INFINITY, |acc, &v| acc.max(v));
            let mut sum = 0.0f32;
            for v in row[..limit].iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row[..limit].iter_mut() {
                *v /= sum;
            }
            for v in row[limit..].iter_mut() {
                *v = 0.0;
            }
        }
    }

    /// Frobenius norm, mainly used by tests.
    #[must_use]
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// The host's hardware threads, read once: `available_parallelism` reads
/// cgroup files, too slow to query on every product.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The split gate of [`Matrix::matmul_parts`] for an `m`-row product with a
/// packed `k × n` weight. `threads` is asked only once the weight has passed
/// the size gate.
fn split_parts(m: usize, k: usize, n: usize, threads: impl FnOnce() -> usize) -> usize {
    if m == 0 || k * n < SPLIT_MIN_WEIGHT {
        return 1;
    }
    threads().min(n.div_ceil(PANEL))
}

/// The packed-rhs kernel of [`Matrix::matmul_into`] with its column panels
/// cut into `parts` contiguous ranges of near-equal panel count. The calling
/// thread runs [`matmul_panels`] over the first range straight into `out`;
/// each other range runs on a scoped thread into its own `m × width` scratch,
/// copied into `out` once all have joined. Each output column is computed by
/// the kernel it would get unsplit, so the result is bit-identical at any
/// `parts`.
fn matmul_panel_ranges(
    lhs: &[f32],
    k: usize,
    panels: &[f32],
    n: usize,
    out: &mut [f32],
    parts: usize,
) {
    let count = n.div_ceil(PANEL);
    let parts = parts.clamp(1, count.max(1));
    if parts == 1 {
        matmul_panels(lhs, k, panels, n, out);
        return;
    }
    let m = out.len() / n;
    // First column of range `i`; every range but the last is whole panels, so
    // columns `c..` start `c * k` floats into `panels`.
    let col = |i: usize| (i * count / parts * PANEL).min(n);
    let others = (1..parts).map(|i| col(i)..col(i + 1));
    let mut scratch = vec![0.0f32; m * (n - col(1))];
    std::thread::scope(|scope| {
        let mut rest = scratch.as_mut_slice();
        for cols in others.clone() {
            let (buf, tail) = rest.split_at_mut(m * cols.len());
            rest = tail;
            let range = &panels[cols.start * k..cols.end * k];
            scope.spawn(move || matmul_panels(lhs, k, range, cols.len(), buf));
        }
        matmul_panels(lhs, k, &panels[..col(1) * k], n, out);
    });
    let mut rest = scratch.as_slice();
    for cols in others {
        let (buf, tail) = rest.split_at(m * cols.len());
        rest = tail;
        for (out_row, buf_row) in out.chunks_exact_mut(n).zip(buf.chunks_exact(cols.len())) {
            out_row[cols.clone()].copy_from_slice(buf_row);
        }
    }
}

/// The packed-rhs kernel: `lhs` is row-major `m × k`, `panels` a run of
/// whole column panels of a packed right-hand side (all of it, or one range
/// of [`matmul_panel_ranges`]), and `out` row-major with rows `stride` wide,
/// the panels' columns starting at column 0 of each row. Full-width panels
/// run [`ROW_TILE`]-row register tiles (two- and one-row tiles for the
/// leftover rows); a narrower last panel runs row by row.
fn matmul_panels(lhs: &[f32], k: usize, panels: &[f32], stride: usize, out: &mut [f32]) {
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let m = lhs.len() / k;
    for (p, panel) in panels.chunks(PANEL * k).enumerate() {
        let col = p * PANEL;
        if panel.len() == PANEL * k {
            let mut row = 0;
            while row < m {
                row += match m - row {
                    ROW_TILE.. => panel_tile::<ROW_TILE>(lhs, k, row, panel, out, stride, col),
                    2.. => panel_tile::<2>(lhs, k, row, panel, out, stride, col),
                    _ => panel_tile::<1>(lhs, k, row, panel, out, stride, col),
                };
            }
        } else {
            let width = panel.len() / k;
            for (a_row, out_row) in lhs.chunks_exact(k).zip(out.chunks_exact_mut(stride)) {
                let out_tile = &mut out_row[col..col + width];
                out_tile.fill(0.0);
                for (&a, b) in a_row.iter().zip(panel.chunks_exact(width)) {
                    for (o, &b) in out_tile.iter_mut().zip(b) {
                        *o += a * b;
                    }
                }
            }
        }
    }
}

/// One `R × PANEL` register tile: rows `row..row + R` of `lhs` times one
/// full-width `panel`, written to columns `col..col + PANEL` of `out`, whose
/// rows are `stride` wide. The accumulators start at `0.0` and take the
/// products in ascending-`k` order. Returns `R`, the rows it covered.
fn panel_tile<const R: usize>(
    lhs: &[f32],
    k: usize,
    row: usize,
    panel: &[f32],
    out: &mut [f32],
    stride: usize,
    col: usize,
) -> usize {
    let a: [&[f32]; R] = std::array::from_fn(|r| &lhs[(row + r) * k..(row + r + 1) * k]);
    let (b_rows, _) = panel.as_chunks::<PANEL>();
    let mut acc = [[0.0f32; PANEL]; R];
    for (kk, b) in b_rows.iter().enumerate() {
        for r in 0..R {
            let x = a[r][kk];
            for j in 0..PANEL {
                acc[r][j] += x * b[j];
            }
        }
    }
    for (r, tile) in acc.iter().enumerate() {
        let at = (row + r) * stride + col;
        out[at..at + PANEL].copy_from_slice(tile);
    }
    R
}

/// Dot product over four independent accumulator lanes (breaks the floating-point
/// addition dependency chain so the loop pipelines/vectorises).
#[must_use]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 4];
    let mut a_chunks = a.chunks_exact(4);
    let mut b_chunks = b.chunks_exact(4);
    for (ac, bc) in (&mut a_chunks).zip(&mut b_chunks) {
        for lane in 0..4 {
            lanes[lane] += ac[lane] * bc[lane];
        }
    }
    let mut acc = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for (x, y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        acc += x * y;
    }
    acc
}

/// Numerically stable log-softmax of a vector.
#[must_use]
pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().fold(f32::NEG_INFINITY, |acc, &v| acc.max(v));
    let log_sum: f32 = logits.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
    logits.iter().map(|&v| v - max - log_sum).collect()
}

/// The exact GeLU activation (`x · Φ(x)` with the tanh approximation used by GPT-2).
#[must_use]
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// The SiLU (swish) activation used in LLaMA-style MLPs.
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice().len(), 6);

        let z = Matrix::zeros(2, 2);
        assert_eq!(z.frobenius_norm(), 0.0);

        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
        assert_eq!(Matrix::from_rows(&[]).unwrap().shape(), (0, 0));
    }

    #[test]
    fn matmul_identity_is_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0], &[0.5], &[2.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (1, 1));
        assert!((c.get(0, 0) - 8.0).abs() < 1e-6);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, -1.0]]).unwrap();
        let c = a.matmul_transposed(&b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert!((c.get(0, 0) - 3.0).abs() < 1e-6); // [1,2]·[1,1]
        assert!((c.get(2, 1) - 4.0).abs() < 1e-6); // [5,6]·[2,-1]
        let bad = Matrix::zeros(2, 3);
        assert!(a.matmul_transposed(&bad).is_err());
    }

    #[test]
    fn add_and_bias_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = a.scale(2.0);
        assert_eq!(b.get(1, 1), 8.0);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.get(0, 0), 3.0);
        let biased = a.add_bias(&[10.0, 20.0]).unwrap();
        assert_eq!(biased.get(1, 1), 24.0);
        assert!(a.add(&Matrix::zeros(1, 1)).is_err());
        assert!(a.add_bias(&[1.0]).is_err());
        let mapped = a.map(|v| -v);
        assert_eq!(mapped.get(0, 1), -2.0);
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        // Deterministic pseudo-random matrices large enough to cross block boundaries.
        let gen = |rows: usize, cols: usize, seed: u64| {
            let mut state = seed;
            let data: Vec<f32> = (0..rows * cols)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f32 / 2f32.powi(31)) - 1.0
                })
                .collect();
            Matrix::from_vec(rows, cols, data).unwrap()
        };
        let a = gen(70, 130, 1);
        let b = gen(130, 90, 2);
        let mut out = Matrix::zeros(70, 90);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());

        let bt = gen(90, 130, 3);
        let mut out_t = Matrix::zeros(70, 90);
        a.matmul_transposed_into(&bt, &mut out_t).unwrap();
        assert_eq!(out_t, a.matmul_transposed(&bt).unwrap());

        // Wrong output shapes are rejected, not silently resized.
        let mut bad = Matrix::zeros(3, 3);
        assert!(a.matmul_into(&b, &mut bad).is_err());
        assert!(a.matmul_transposed_into(&bt, &mut bad).is_err());
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        // Straddles the 64-wide block edge in every dimension.
        let rows = 65;
        let inner = 129;
        let cols = 67;
        let mut state = 9u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / 2f32.powi(31)) - 1.0
        };
        let a = Matrix::from_vec(rows, inner, (0..rows * inner).map(|_| next()).collect()).unwrap();
        let b = Matrix::from_vec(inner, cols, (0..inner * cols).map(|_| next()).collect()).unwrap();
        let blocked = a.matmul(&b).unwrap();
        // Naive ijk reference.
        let mut naive = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let mut acc = 0.0f32;
                for k in 0..inner {
                    acc += a.get(i, k) * b.get(k, j);
                }
                naive.set(i, j, acc);
            }
        }
        for i in 0..rows {
            for j in 0..cols {
                let (x, y) = (blocked.get(i, j), naive.get(i, j));
                assert!(
                    (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                    "({i}, {j}): {x} vs {y}"
                );
            }
        }
    }

    /// Row-major values with the awkward cases mixed in: signed zeros and
    /// subnormals of either sign between ordinary magnitudes.
    fn edge_values(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let bits = (state >> 32) as u32;
                match bits % 8 {
                    0 => -0.0,
                    1 => f32::from_bits((bits >> 9) | ((bits & 2) << 30)),
                    _ => (bits >> 8) as f32 / (1u32 << 23) as f32 - 1.0,
                }
            })
            .collect()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `a · b` with `b` packed must equal `a · b` row-major bit for bit.
    fn assert_packed_matches_row_major(rows: usize, inner: usize, cols: usize, seed: u64) {
        let a = Matrix::from_vec(rows, inner, edge_values(rows * inner, seed)).unwrap();
        let b = Matrix::from_vec(inner, cols, edge_values(inner * cols, !seed)).unwrap();
        let packed = Matrix::packed_from_fn(inner, cols, |r, c| b.get(r, c));
        assert!(packed.is_packed() && !b.is_packed());
        assert_eq!(
            bits(&a.matmul(&packed).unwrap()),
            bits(&a.matmul(&b).unwrap()),
            "{rows}x{inner} · {inner}x{cols}, seed {seed}"
        );
    }

    #[test]
    fn packed_matmul_is_bit_identical_on_edge_shapes() {
        // Rows on and off the 4-row tile, k = 1, and widths below, at and
        // around the 16-column panel.
        for rows in 1..=9 {
            for inner in [1, 2, 17] {
                for cols in [1, 15, 16, 17, 33, 48] {
                    assert_packed_matches_row_major(
                        rows,
                        inner,
                        cols,
                        (rows * inner + cols) as u64,
                    );
                }
            }
        }
    }

    #[test]
    fn panel_range_split_is_bit_identical_to_the_unsplit_kernel() {
        // One panel, a narrow last panel, an odd panel count, and a narrow
        // last panel behind several full ones; parts above the panel count
        // clamp to it.
        for (inner, cols) in [(17, 16), (17, 40), (9, 48), (1, 100), (33, 7)] {
            for rows in 1..=9 {
                let seed = (rows * inner + cols) as u64;
                let mut lhs = edge_values(rows * inner, seed);
                let mut rhs = edge_values(inner * cols, !seed);
                // A NaN and both infinities, so NaN propagation and inf · 0
                // ride the split too.
                lhs[rows * inner - 1] = f32::NAN;
                rhs[0] = f32::INFINITY;
                rhs[inner * cols / 2] = f32::NEG_INFINITY;
                let packed = Matrix::packed_from_fn(inner, cols, |r, c| rhs[r * cols + c]);
                let mut whole = vec![0.0f32; rows * cols];
                matmul_panels(&lhs, inner, &packed.data, cols, &mut whole);
                for parts in 1..=3 {
                    let mut split = vec![1.0f32; rows * cols];
                    matmul_panel_ranges(&lhs, inner, &packed.data, cols, &mut split, parts);
                    let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        to_bits(&split),
                        to_bits(&whole),
                        "{rows}x{inner} · {inner}x{cols} in {parts} parts"
                    );
                }
            }
        }
    }

    #[test]
    fn split_gate_takes_gpt2_weights_and_never_the_e64_serving_weights() {
        use crate::{ModelConfig, ModelFamily, TransformerModel};
        // GPT-2-small projections split over every thread up to their panel
        // count, at decode and prefill row counts alike.
        for (k, n) in [(768, 768), (768, 3072), (3072, 768)] {
            for rows in [1, 8, 64] {
                assert_eq!(split_parts(rows, k, n, || 1), 1, "{k}x{n}, one thread");
                for threads in 2..=8 {
                    assert_eq!(
                        split_parts(rows, k, n, || threads),
                        threads,
                        "{k}x{n}, {rows} rows, {threads} threads"
                    );
                }
                assert_eq!(split_parts(rows, k, n, || 1000), n / PANEL);
            }
        }
        // The gate sits where the split measured a gain: 512 × 512 splits,
        // 256 × 512 (break-even) does not.
        assert_eq!(split_parts(8, 512, 512, || 2), 2);
        assert_eq!(split_parts(8, 256, 512, || 2), 1);
        // The serve_mixed model (E=64): no weight splits at any row count,
        // and the gate never asks for the host's threads.
        let config = ModelConfig {
            name: "decode-bench".to_string(),
            family: ModelFamily::Gpt2,
            num_blocks: 2,
            embedding_dim: 64,
            num_heads: 4,
            mlp_dim: 128,
            vocab_size: 128,
            max_seq_len: 256,
            final_norm: true,
            paper_embedding_dim: 64,
        };
        let model = TransformerModel::new(&config, 42).unwrap();
        for weight in model.projection_weights() {
            assert!(weight.rows() * weight.cols() <= 64 * 256);
            for rows in 0..=config.max_seq_len {
                let parts = split_parts(rows, weight.rows(), weight.cols(), || {
                    panic!(
                        "a {}x{} weight read the thread count",
                        weight.rows(),
                        weight.cols()
                    )
                });
                assert_eq!(parts, 1);
                assert_eq!(Matrix::zeros(rows, weight.rows()).matmul_parts(weight), 1);
            }
        }
        // On this host a GPT-2 weight takes every thread; a row-major one and
        // an empty left operand never split.
        let weight = Matrix::packed_from_fn(768, 768, |_, _| 0.0);
        assert_eq!(
            Matrix::zeros(8, 768).matmul_parts(&weight),
            host_threads().min(768 / PANEL)
        );
        assert_eq!(Matrix::zeros(0, 768).matmul_parts(&weight), 1);
        assert_eq!(
            Matrix::zeros(8, 768).matmul_parts(&Matrix::zeros(768, 768)),
            1
        );
    }

    #[test]
    fn packed_layout_round_trips_through_get_and_set() {
        let m = Matrix::from_vec(3, 20, (0..60).map(|i| i as f32).collect()).unwrap();
        let mut packed = Matrix::packed_from_fn(3, 20, |r, c| m.get(r, c));
        for r in 0..3 {
            for c in 0..20 {
                assert_eq!(packed.get(r, c), m.get(r, c), "({r}, {c})");
            }
        }
        packed.set(2, 17, -1.0);
        assert_eq!(packed.get(2, 17), -1.0);
        assert_ne!(packed, m, "equality is structural");
        let mut scaled = packed.scale(2.0);
        assert!(scaled.is_packed());
        assert_eq!(scaled.get(1, 3), 2.0 * m.get(1, 3));
        scaled.resize(2, 2);
        assert!(
            !scaled.is_packed(),
            "a reshape hands back a row-major scratch"
        );
    }

    #[test]
    #[should_panic(expected = "row-major view")]
    fn packed_matrix_refuses_row_slices() {
        let packed = Matrix::packed_from_fn(2, 3, |r, c| (r + c) as f32);
        let _ = packed.row(0);
    }

    #[test]
    fn model_projection_weights_take_the_packed_kernel() {
        use crate::{ModelConfig, ModelFamily, TransformerModel};
        for (family, per_block) in [(ModelFamily::Gpt2, 6), (ModelFamily::Llama, 7)] {
            let config = ModelConfig {
                family,
                ..ModelConfig::tiny_test()
            };
            let model = TransformerModel::new(&config, 5).unwrap();
            let weights = model.projection_weights();
            assert_eq!(weights.len(), config.num_blocks * per_block);
            for (w, weight) in weights.iter().enumerate() {
                assert!(weight.is_packed(), "{family:?} weight {w} is row-major");
                // Eight stacked rows (two full register tiles) equal eight
                // one-row products.
                let k = weight.rows();
                let batch = Matrix::from_vec(8, k, edge_values(8 * k, w as u64)).unwrap();
                let stacked = bits(&batch.matmul(weight).unwrap());
                for r in 0..8 {
                    let one = Matrix::from_vec(1, k, batch.row(r).to_vec()).unwrap();
                    assert_eq!(
                        bits(&one.matmul(weight).unwrap()),
                        stacked[r * weight.cols()..(r + 1) * weight.cols()],
                        "{family:?} weight {w}, row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn in_place_helpers_match_allocating_forms() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, 2.0], &[-1.0, 0.25]]).unwrap();

        let mut sum = a.clone();
        sum.add_assign(&b).unwrap();
        assert_eq!(sum, a.add(&b).unwrap());

        let mut scaled = a.clone();
        scaled.scale_in_place(-2.0);
        assert_eq!(scaled, a.scale(-2.0));

        let mut mapped = a.clone();
        mapped.map_in_place(|v| v * v);
        assert_eq!(mapped, a.map(|v| v * v));

        let mut product = a.clone();
        product.mul_assign(&b).unwrap();
        assert_eq!(product.get(0, 1), -4.0);

        assert!(sum.add_assign(&Matrix::zeros(1, 1)).is_err());
        assert!(sum.mul_assign(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn column_windows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]).unwrap();
        let mut window = Matrix::zeros(2, 2);
        m.columns_into(1, 2, &mut window).unwrap();
        assert_eq!(
            window,
            Matrix::from_rows(&[&[2.0, 3.0], &[6.0, 7.0]]).unwrap()
        );

        let mut target = Matrix::zeros(2, 4);
        target.set_columns(2, &window).unwrap();
        assert_eq!(target.get(0, 2), 2.0);
        assert_eq!(target.get(1, 3), 7.0);
        assert_eq!(target.get(0, 0), 0.0);

        assert!(m.columns_into(3, 2, &mut window).is_err());
        assert!(m.columns_into(0, 2, &mut Matrix::zeros(1, 2)).is_err());
        let mut small = Matrix::zeros(2, 3);
        assert!(small.set_columns(2, &window).is_err());
        assert!(small.set_columns(0, &Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn window_into_copies_interior_blocks() {
        let m = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            &[9.0, 10.0, 11.0, 12.0],
        ])
        .unwrap();
        let mut window = Matrix::zeros(2, 2);
        m.window_into(1, 1, &mut window).unwrap();
        assert_eq!(
            window,
            Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]).unwrap()
        );
        // Row-range-only windows are how the cache prefix is sliced.
        let mut prefix = Matrix::zeros(2, 4);
        m.window_into(0, 0, &mut prefix).unwrap();
        assert_eq!(prefix.row(1), m.row(1));
        assert!(m.window_into(2, 0, &mut window).is_err());
        assert!(m.window_into(0, 3, &mut window).is_err());
    }

    #[test]
    fn set_rows_appends_into_preallocated_storage() {
        let mut cache = Matrix::zeros(4, 3);
        let first = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let rest = Matrix::from_rows(&[&[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        cache.set_rows(0, &first).unwrap();
        cache.set_rows(1, &rest).unwrap();
        assert_eq!(cache.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(cache.row(2), &[7.0, 8.0, 9.0]);
        assert_eq!(cache.row(3), &[0.0, 0.0, 0.0]);
        assert!(cache.set_rows(3, &rest).is_err());
        assert!(cache.set_rows(0, &Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn offset_causal_softmax_matches_the_suffix_of_the_full_softmax() {
        // The bottom two rows of a 4-row causal softmax must be reproducible by a
        // 2-row matrix at offset 2 — that is exactly the cached-decode contract.
        let data: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let mut full = Matrix::from_vec(4, 4, data.clone()).unwrap();
        full.causal_softmax_rows();
        let mut suffix = Matrix::from_vec(2, 4, data[8..].to_vec()).unwrap();
        suffix.causal_softmax_rows_offset(2);
        for row in 0..2 {
            assert_eq!(suffix.row(row), full.row(row + 2), "row {row}");
        }
        // Offsets past the width saturate instead of panicking.
        let mut wide = Matrix::from_vec(1, 3, vec![0.0, 1.0, 2.0]).unwrap();
        wide.causal_softmax_rows_offset(10);
        let sum: f32 = wide.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn causal_softmax_masks_future_positions() {
        let mut m =
            Matrix::from_rows(&[&[1.0, 5.0, 9.0], &[1.0, 1.0, 9.0], &[1.0, 1.0, 1.0]]).unwrap();
        m.causal_softmax_rows();
        // Row 0 can only see itself.
        assert!((m.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 0.0);
        // Row 1 sees two positions with equal logits.
        assert!((m.get(1, 0) - 0.5).abs() < 1e-6);
        assert!((m.get(1, 1) - 0.5).abs() < 1e-6);
        assert_eq!(m.get(1, 2), 0.0);
        // Every row sums to one.
        for i in 0..3 {
            let s: f32 = m.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_sums_to_one_in_prob_space() {
        let ls = log_softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = ls.iter().map(|v| v.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(ls[2] > ls[1] && ls[1] > ls[0]);
        assert!(log_softmax(&[]).is_empty());
    }

    #[test]
    fn activations_have_expected_shape() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(5.0) - 5.0).abs() < 1e-2);
        assert!(gelu(-5.0).abs() < 1e-2);
        assert!(silu(0.0).abs() < 1e-7);
        assert!((silu(5.0) - 4.966).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    proptest! {
        #[test]
        fn prop_matmul_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let mut data = Vec::new();
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for _ in 0..rows * cols {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                data.push(((state >> 33) as f32 / 2f32.powi(31)) - 1.0);
            }
            let m = Matrix::from_vec(rows, cols, data).unwrap();
            let i = Matrix::identity(cols);
            prop_assert_eq!(m.matmul(&i).unwrap(), m);
        }

        #[test]
        fn prop_packed_matmul_is_bit_identical_to_row_major(
            rows in 1usize..10,
            inner in 1usize..40,
            cols in 1usize..50,
            seed in 0u64..1_000_000,
        ) {
            assert_packed_matches_row_major(rows, inner, cols, seed);
        }

        #[test]
        fn prop_log_softmax_normalises(xs in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
            let ls = log_softmax(&xs);
            let sum: f32 = ls.iter().map(|v| v.exp()).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }

        #[test]
        fn prop_gelu_is_bounded(x in -20.0f32..20.0) {
            // GeLU is bounded below by ≈ -0.17 and never exceeds ReLU.
            prop_assert!(gelu(x) >= -0.2);
            prop_assert!(gelu(x) <= x.max(0.0) + 1e-5);
        }
    }
}
