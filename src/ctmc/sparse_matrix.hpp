// Compressed sparse row (CSR) matrix tailored to CTMC generator matrices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace gprsim::ctmc {

/// State indices are the library-wide common::index_type; the alias keeps
/// unqualified `index_type` spelled the same throughout the CTMC layer.
using common::index_type;

/// Column storage type. Columns are kept as 32-bit integers: the largest
/// chain the paper's configurations produce (~22 million states) is far
/// below 2^31, and halving the column array doubles the useful L2 reach of
/// the sweep kernels. Row pointers and nonzero counts stay 64-bit.
using col_type = std::int32_t;

/// One (row, col, value) entry used while assembling a sparse matrix.
struct Triplet {
    index_type row = 0;
    index_type col = 0;
    double value = 0.0;
};

/// Immutable CSR sparse matrix with double precision values.
///
/// Rows are stored contiguously; duplicate (row, col) triplets are summed
/// during assembly. Column indices within a row are sorted. Assembly also
/// records the bandwidth (max |i - j| over stored entries), which the
/// pipelined Gauss-Seidel kernel needs to pick a safe wavefront distance.
class SparseMatrix {
public:
    SparseMatrix() = default;

    /// Assembles a rows x cols matrix from triplets (duplicates are summed,
    /// explicit zeros are kept so structural patterns stay predictable).
    static SparseMatrix from_triplets(index_type rows, index_type cols,
                                      std::vector<Triplet> triplets);

    /// Adopts ready-made CSR arrays. Column indices within each row must be
    /// sorted and duplicate-free; this is validated. Used by generators that
    /// can emit rows in order, avoiding the triplet staging buffer (the
    /// largest GPRS chain has ~240 million nonzeros).
    static SparseMatrix from_csr(index_type rows, index_type cols,
                                 std::vector<index_type> row_ptr,
                                 std::vector<col_type> cols_idx,
                                 std::vector<double> values);

    index_type rows() const { return rows_; }
    index_type cols() const { return cols_; }
    index_type nonzeros() const { return static_cast<index_type>(values_.size()); }

    /// Column indices of row i (sorted ascending).
    std::span<const col_type> row_cols(index_type i) const {
        return {cols_idx_.data() + row_ptr_[i],
                static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
    }
    /// Values of row i, aligned with row_cols(i).
    std::span<const double> row_values(index_type i) const {
        return {values_.data() + row_ptr_[i],
                static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
    }

    // --- raw contiguous views (sweep kernels) ----------------------------
    const index_type* row_ptr_data() const { return row_ptr_.data(); }
    const col_type* col_data() const { return cols_idx_.data(); }
    const double* value_data() const { return values_.data(); }

    /// max |i - j| over stored entries (0 for an empty matrix). For the
    /// GPRS generator this is one QBD buffer level: (N_gsm + 1) times the
    /// (m, r) pair count.
    index_type bandwidth() const { return bandwidth_; }

    /// Value at (i, j); zero when the entry is not stored.
    double at(index_type i, index_type j) const;

    SparseMatrix transpose() const;

private:
    void compute_bandwidth();

    index_type rows_ = 0;
    index_type cols_ = 0;
    index_type bandwidth_ = 0;
    std::vector<index_type> row_ptr_;
    std::vector<col_type> cols_idx_;
    std::vector<double> values_;
};

}  // namespace gprsim::ctmc
