#include "ctmc/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gprsim::ctmc {
namespace {

TEST(SparseMatrix, EmptyMatrixHasNoEntries) {
    const SparseMatrix m = SparseMatrix::from_triplets(3, 3, {});
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 3);
    EXPECT_EQ(m.nonzeros(), 0);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

TEST(SparseMatrix, StoresAndLooksUpEntries) {
    const SparseMatrix m =
        SparseMatrix::from_triplets(2, 3, {{0, 2, 5.0}, {1, 0, -1.5}, {0, 0, 2.0}});
    EXPECT_EQ(m.nonzeros(), 3);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.at(0, 2), 5.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), -1.5);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(SparseMatrix, SumsDuplicateTriplets) {
    const SparseMatrix m =
        SparseMatrix::from_triplets(2, 2, {{0, 1, 1.0}, {0, 1, 2.5}, {0, 1, -0.5}});
    EXPECT_EQ(m.nonzeros(), 1);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
}

TEST(SparseMatrix, SortsColumnsWithinRows) {
    const SparseMatrix m =
        SparseMatrix::from_triplets(1, 4, {{0, 3, 3.0}, {0, 1, 1.0}, {0, 2, 2.0}});
    const auto cols = m.row_cols(0);
    ASSERT_EQ(cols.size(), 3u);
    EXPECT_EQ(cols[0], 1);
    EXPECT_EQ(cols[1], 2);
    EXPECT_EQ(cols[2], 3);
    const auto values = m.row_values(0);
    EXPECT_DOUBLE_EQ(values[0], 1.0);
    EXPECT_DOUBLE_EQ(values[2], 3.0);
}

TEST(SparseMatrix, RejectsOutOfBoundsTriplets) {
    EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), std::out_of_range);
    EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, -1, 1.0}}), std::out_of_range);
}

TEST(SparseMatrix, TransposeSwapsEntries) {
    const SparseMatrix m = SparseMatrix::from_triplets(2, 3, {{0, 2, 7.0}, {1, 0, 4.0}});
    const SparseMatrix t = m.transpose();
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.cols(), 2);
    EXPECT_DOUBLE_EQ(t.at(2, 0), 7.0);
    EXPECT_DOUBLE_EQ(t.at(0, 1), 4.0);
}

TEST(SparseMatrix, FromCsrAcceptsValidArrays) {
    const SparseMatrix m =
        SparseMatrix::from_csr(2, 2, {0, 1, 2}, {1, 0}, {3.0, 4.0});
    EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 4.0);
}

TEST(SparseMatrix, FromCsrRejectsUnsortedColumns) {
    EXPECT_THROW(SparseMatrix::from_csr(1, 3, {0, 2}, {2, 1}, {1.0, 2.0}),
                 std::invalid_argument);
}

TEST(SparseMatrix, FromCsrRejectsInconsistentRowPtr) {
    EXPECT_THROW(SparseMatrix::from_csr(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
    EXPECT_THROW(SparseMatrix::from_csr(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace gprsim::ctmc
