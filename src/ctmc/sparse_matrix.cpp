#include "ctmc/sparse_matrix.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace gprsim::ctmc {

namespace {

void check_col_capacity(index_type cols) {
    if (cols > static_cast<index_type>(std::numeric_limits<col_type>::max())) {
        throw std::invalid_argument(
            "SparseMatrix: column count exceeds 32-bit column storage");
    }
}

}  // namespace

SparseMatrix SparseMatrix::from_triplets(index_type rows, index_type cols,
                                         std::vector<Triplet> triplets) {
    if (rows < 0 || cols < 0) {
        throw std::invalid_argument("SparseMatrix: negative dimensions");
    }
    check_col_capacity(cols);
    for (const Triplet& t : triplets) {
        if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
            throw std::out_of_range("SparseMatrix: triplet outside matrix bounds");
        }
    }

    SparseMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);

    // Counting pass, then bucket fill, then per-row sort + duplicate merge.
    for (const Triplet& t : triplets) {
        ++m.row_ptr_[static_cast<std::size_t>(t.row) + 1];
    }
    for (index_type i = 0; i < rows; ++i) {
        m.row_ptr_[static_cast<std::size_t>(i) + 1] += m.row_ptr_[static_cast<std::size_t>(i)];
    }
    m.cols_idx_.resize(triplets.size());
    m.values_.resize(triplets.size());
    {
        std::vector<index_type> next(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
        for (const Triplet& t : triplets) {
            const index_type pos = next[static_cast<std::size_t>(t.row)]++;
            m.cols_idx_[static_cast<std::size_t>(pos)] = static_cast<col_type>(t.col);
            m.values_[static_cast<std::size_t>(pos)] = t.value;
        }
    }

    // Sort each row by column and merge duplicates in place.
    std::vector<index_type> new_row_ptr(m.row_ptr_.size(), 0);
    index_type write = 0;
    std::vector<std::pair<col_type, double>> row_buf;
    for (index_type i = 0; i < rows; ++i) {
        const index_type begin = m.row_ptr_[static_cast<std::size_t>(i)];
        const index_type end = m.row_ptr_[static_cast<std::size_t>(i) + 1];
        row_buf.clear();
        for (index_type p = begin; p < end; ++p) {
            row_buf.emplace_back(m.cols_idx_[static_cast<std::size_t>(p)],
                                 m.values_[static_cast<std::size_t>(p)]);
        }
        std::sort(row_buf.begin(), row_buf.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        new_row_ptr[static_cast<std::size_t>(i)] = write;
        for (std::size_t p = 0; p < row_buf.size();) {
            const col_type col = row_buf[p].first;
            double sum = 0.0;
            while (p < row_buf.size() && row_buf[p].first == col) {
                sum += row_buf[p].second;
                ++p;
            }
            m.cols_idx_[static_cast<std::size_t>(write)] = col;
            m.values_[static_cast<std::size_t>(write)] = sum;
            ++write;
        }
    }
    new_row_ptr[static_cast<std::size_t>(rows)] = write;
    m.row_ptr_ = std::move(new_row_ptr);
    m.cols_idx_.resize(static_cast<std::size_t>(write));
    m.cols_idx_.shrink_to_fit();
    m.values_.resize(static_cast<std::size_t>(write));
    m.values_.shrink_to_fit();
    return m;
}

SparseMatrix SparseMatrix::from_csr(index_type rows, index_type cols,
                                    std::vector<index_type> row_ptr,
                                    std::vector<col_type> cols_idx,
                                    std::vector<double> values) {
    if (rows < 0 || cols < 0) {
        throw std::invalid_argument("SparseMatrix::from_csr: negative dimensions");
    }
    check_col_capacity(cols);
    if (row_ptr.size() != static_cast<std::size_t>(rows) + 1 || row_ptr.front() != 0 ||
        row_ptr.back() != static_cast<index_type>(cols_idx.size()) ||
        cols_idx.size() != values.size()) {
        throw std::invalid_argument("SparseMatrix::from_csr: inconsistent CSR arrays");
    }
    for (index_type i = 0; i < rows; ++i) {
        const index_type begin = row_ptr[static_cast<std::size_t>(i)];
        const index_type end = row_ptr[static_cast<std::size_t>(i) + 1];
        if (begin > end) {
            throw std::invalid_argument("SparseMatrix::from_csr: row pointers not monotone");
        }
        for (index_type p = begin; p < end; ++p) {
            const col_type c = cols_idx[static_cast<std::size_t>(p)];
            if (c < 0 || static_cast<index_type>(c) >= cols) {
                throw std::invalid_argument("SparseMatrix::from_csr: column out of range");
            }
            if (p > begin && cols_idx[static_cast<std::size_t>(p) - 1] >= c) {
                throw std::invalid_argument(
                    "SparseMatrix::from_csr: columns must be sorted and unique per row");
            }
        }
    }
    SparseMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.row_ptr_ = std::move(row_ptr);
    m.cols_idx_ = std::move(cols_idx);
    m.values_ = std::move(values);
    return m;
}

double SparseMatrix::at(index_type i, index_type j) const {
    if (i < 0 || i >= rows_ || j < 0 || j >= cols_) {
        throw std::out_of_range("SparseMatrix::at: index outside matrix");
    }
    const auto cols = row_cols(i);
    const auto it = std::lower_bound(cols.begin(), cols.end(), static_cast<col_type>(j));
    if (it == cols.end() || *it != static_cast<col_type>(j)) {
        return 0.0;
    }
    return row_values(i)[static_cast<std::size_t>(it - cols.begin())];
}

SparseMatrix SparseMatrix::transpose() const {
    std::vector<Triplet> triplets;
    triplets.reserve(static_cast<std::size_t>(nonzeros()));
    for (index_type i = 0; i < rows_; ++i) {
        const auto cols = row_cols(i);
        const auto values = row_values(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
            triplets.push_back({static_cast<index_type>(cols[p]), i, values[p]});
        }
    }
    return from_triplets(cols_, rows_, std::move(triplets));
}

}  // namespace gprsim::ctmc
