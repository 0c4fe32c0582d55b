#include "core/generator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crew.hpp"
#include "common/thread_pool.hpp"
#include "ctmc/gth.hpp"
#include "core/handover.hpp"
#include "core/initial_guess.hpp"
#include "core/model.hpp"

namespace gprsim::core {
namespace {

Parameters tiny_config() {
    Parameters p = Parameters::base();
    p.total_channels = 3;
    p.reserved_pdch = 1;
    p.buffer_capacity = 4;
    p.max_gprs_sessions = 2;
    p.call_arrival_rate = 0.3;
    p.gprs_fraction = 0.3;
    // Faster traffic so the chain mixes quickly.
    p.traffic.mean_reading_time = 10.0;
    p.traffic.mean_packet_calls = 2.0;
    p.traffic.mean_packets_per_call = 5.0;
    p.traffic.mean_packet_interarrival = 0.5;
    return p;
}

TEST(GprsGenerator, MatrixFreeRowsMatchCsrRows) {
    const Parameters p = tiny_config();
    const BalancedTraffic balanced = balance_handover(p);
    const GprsGenerator gen(p, balanced.rates);
    const ctmc::QtMatrix qt = gen.to_qt_matrix();

    ASSERT_EQ(qt.size(), gen.size());
    for (common::index_type i = 0; i < gen.size(); ++i) {
        EXPECT_NEAR(qt.diagonal(i), gen.diagonal(i), 1e-13) << "state " << i;
        std::map<common::index_type, double> csr_row;
        qt.for_each_incoming(i, [&](common::index_type j, double rate) {
            csr_row[j] += rate;
        });
        std::map<common::index_type, double> free_row;
        gen.for_each_incoming(i, [&](common::index_type j, double rate) {
            free_row[j] += rate;
        });
        ASSERT_EQ(csr_row.size(), free_row.size()) << "state " << i;
        for (const auto& [j, rate] : csr_row) {
            ASSERT_TRUE(free_row.count(j)) << "state " << i << " pred " << j;
            EXPECT_NEAR(free_row.at(j), rate, 1e-13);
        }
    }
}

TEST(GprsGenerator, GeneratorRowsSumToZero) {
    const Parameters p = tiny_config();
    const GprsGenerator gen(p, balance_handover(p).rates);
    const ctmc::SparseMatrix q = gen.to_generator_matrix();
    for (common::index_type i = 0; i < q.rows(); ++i) {
        double row_sum = 0.0;
        for (double v : q.row_values(i)) {
            row_sum += v;
        }
        EXPECT_NEAR(row_sum, 0.0, 1e-12) << "row " << i;
    }
}

TEST(GprsGenerator, TransposeOfGeneratorMatchesQtMatrix) {
    const Parameters p = tiny_config();
    const GprsGenerator gen(p, balance_handover(p).rates);
    const ctmc::SparseMatrix q = gen.to_generator_matrix();
    const ctmc::SparseMatrix qt_ref = q.transpose();
    const ctmc::QtMatrix qt = gen.to_qt_matrix();
    for (common::index_type i = 0; i < q.rows(); ++i) {
        qt.for_each_incoming(i, [&](common::index_type j, double rate) {
            EXPECT_NEAR(qt_ref.at(i, j), rate, 1e-13);
        });
        EXPECT_NEAR(qt_ref.at(i, i), qt.diagonal(i), 1e-13);
    }
}

TEST(GprsGenerator, SteadyStateMatchesGthGroundTruth) {
    const Parameters p = tiny_config();
    const GprsGenerator gen(p, balance_handover(p).rates);

    const std::vector<double> exact = ctmc::solve_gth(gen.to_generator_matrix());

    ctmc::SolveOptions options;
    options.tolerance = 1e-13;
    const ctmc::SolveResult iterative = ctmc::solve_steady_state(gen.to_qt_matrix(), options);
    ASSERT_TRUE(iterative.converged);
    for (common::index_type i = 0; i < gen.size(); ++i) {
        EXPECT_NEAR(iterative.distribution[static_cast<std::size_t>(i)],
                    exact[static_cast<std::size_t>(i)], 1e-9);
    }

    // Matrix-free path reaches the same fixed point.
    const ctmc::SolveResult matrix_free = ctmc::solve_steady_state(gen, options);
    ASSERT_TRUE(matrix_free.converged);
    for (common::index_type i = 0; i < gen.size(); ++i) {
        EXPECT_NEAR(matrix_free.distribution[static_cast<std::size_t>(i)],
                    exact[static_cast<std::size_t>(i)], 1e-9);
    }
}

// --- the stencil against its CSR reference, bit for bit -------------------

struct StencilCase {
    std::string name;
    Parameters parameters;
};

// gtest lists a parameter after the test's name: print the case's name, not
// its bytes, which hold a heap pointer and padding and change every run.
void PrintTo(const StencilCase& c, std::ostream* os) { *os << c.name; }

Parameters stencil_cell(int buffer, int channels, int reserved, int sessions) {
    Parameters p = tiny_config();
    p.buffer_capacity = buffer;
    p.total_channels = channels;
    p.reserved_pdch = reserved;
    p.max_gprs_sessions = sessions;
    return p;
}

std::vector<StencilCase> stencil_cases() {
    std::vector<StencilCase> cases;
    // K = 1..5: the wavefront's prologue and epilogue overlap.
    for (const int k : {1, 2, 3, 5}) {
        cases.push_back({"k" + std::to_string(k), stencil_cell(k, 3, 1, 2)});
    }
    cases.push_back({"m1_g1", stencil_cell(4, 2, 1, 1)});
    cases.push_back({"m2_g1", stencil_cell(4, 2, 1, 2)});
    // All channels on demand: no PDCH, so no service at n = N.
    cases.push_back({"no_reserved_pdch", stencil_cell(4, 3, 0, 2)});
    Parameters eta_one = stencil_cell(5, 3, 1, 2);
    eta_one.flow_control_threshold = 1.0;
    cases.push_back({"eta_one", eta_one});
    Parameters onset_zero = stencil_cell(5, 3, 1, 2);
    onset_zero.flow_control_threshold = 0.1;  // floor(0.1 * 5) = 0
    cases.push_back({"onset_zero", onset_zero});
    Parameters bler = stencil_cell(5, 3, 1, 2);
    bler.block_error_rate = 0.2;
    cases.push_back({"bler", bler});
    Parameters pinned = stencil_cell(5, 3, 1, 2);
    pinned.pinned_handover = true;
    pinned.gsm_handover_in = 0.05;
    pinned.gprs_handover_in = 0.02;
    cases.push_back({"pinned_handover", pinned});
    // Thirteen levels: all four chains of the wavefront run together.
    cases.push_back({"mid_size", stencil_cell(12, 6, 1, 6)});
    // 69,632 states, above ctmc::kTeamMinStates: wide solves run as a team.
    cases.push_back({"team_size", stencil_cell(63, 8, 1, 15)});
    return cases;
}

void expect_bitwise_equal(const std::vector<double>& actual,
                          const std::vector<double>& expected) {
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "entry " << i << ": " << actual[i] << " vs " << expected[i];
    }
}

class GeneratorStencil : public ::testing::TestWithParam<StencilCase> {
protected:
    GeneratorStencil()
        : gen_(GetParam().parameters, balance_handover(GetParam().parameters).rates),
          qt_(gen_.to_qt_matrix()) {}

    /// A positive, non-uniform iterate.
    std::vector<double> start() const {
        std::vector<double> x(static_cast<std::size_t>(gen_.size()));
        for (std::size_t i = 0; i < x.size(); ++i) {
            x[i] = 1.0 + static_cast<double>((i * 7919) % 97) / 13.0;
        }
        return x;
    }

    const GprsGenerator gen_;
    const ctmc::QtMatrix qt_;
};

TEST_P(GeneratorStencil, IncomingRowsMatchCsr) {
    ASSERT_EQ(gen_.size(), qt_.size());
    using Row = std::vector<std::pair<common::index_type, std::uint64_t>>;
    for (common::index_type i = 0; i < gen_.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gen_.diagonal(i)),
                  std::bit_cast<std::uint64_t>(qt_.diagonal(i)))
            << "state " << i;
        Row stencil;
        gen_.for_each_incoming(i, [&](common::index_type j, double rate) {
            stencil.emplace_back(j, std::bit_cast<std::uint64_t>(rate));
        });
        Row csr;
        qt_.for_each_incoming(i, [&](common::index_type j, double rate) {
            csr.emplace_back(j, std::bit_cast<std::uint64_t>(rate));
        });
        ASSERT_EQ(stencil, csr) << "state " << i;
    }
}

TEST_P(GeneratorStencil, SweepsMatchCsrKernel) {
    for (const common::index_type count : {1, 2, 3, 4, 5, 9}) {
        for (const bool want_sum : {true, false}) {
            std::vector<double> stencil = start();
            std::vector<double> csr = start();
            const double stencil_sum = gen_.gauss_seidel_sweeps(stencil.data(), count, want_sum);
            const double csr_sum = qt_.gauss_seidel_sweeps(csr.data(), count, want_sum);
            SCOPED_TRACE("count " + std::to_string(count) + (want_sum ? " with sum" : ""));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(stencil_sum),
                      std::bit_cast<std::uint64_t>(csr_sum));
            expect_bitwise_equal(stencil, csr);
        }
    }
}

TEST_P(GeneratorStencil, TeamSweepsMatchCsrKernel) {
    // The team pass against the CSR kernel, iterate and final-sweep sum bit
    // for bit. A late helper's seat first sleeps through a task of its own,
    // so that it joins mid-pass (on the larger cells; on the small ones the
    // pass is over by then).
    struct Seating {
        int seats;
        bool late;
    };
    common::ThreadPool pool(4);
    const auto expect_team_matches_csr = [&](common::index_type count,
                                             std::initializer_list<Seating> seatings) {
        std::vector<double> csr = start();
        const double csr_sum = qt_.gauss_seidel_sweeps(csr.data(), count, true);
        for (const Seating& seating : seatings) {
            std::vector<double> team = start();
            double team_sum = 0.0;
            std::vector<std::function<void()>> tasks{[&] {
                team_sum = gen_.gauss_seidel_sweeps(team.data(), count, true, true);
            }};
            if (seating.late) {
                tasks.emplace_back(
                    [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); });
            }
            common::Crew::run_tasks(pool, tasks, seating.seats);
            SCOPED_TRACE("count " + std::to_string(count) + ", " +
                         std::to_string(seating.seats) + " seats" +
                         (seating.late ? ", one late" : ""));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(team_sum),
                      std::bit_cast<std::uint64_t>(csr_sum));
            expect_bitwise_equal(team, csr);
        }
    };
    // Runs of up to three groups on 1, 2 and 3 seats, and with a late helper.
    for (common::index_type count = 1; count <= 9; ++count) {
        expect_team_matches_csr(count, {{1, false}, {2, false}, {3, false}, {2, true}});
    }
    // A solve sweeps straight through from one residual checkpoint to the
    // next, so a run is up to 40 groups long and a seat claims several
    // groups of one pass, each waiting on a group another seat runs.
    for (const common::index_type count : {16, 37, 160}) {
        expect_team_matches_csr(count, {{2, false}, {4, false}, {4, true}});
    }
}

TEST_P(GeneratorStencil, FusedNormalizeResidualMatchesCsr) {
    std::vector<double> stencil = start();
    std::vector<double> csr = start();
    const double sum = gen_.gauss_seidel_sweeps(stencil.data(), 3, true);
    qt_.gauss_seidel_sweeps(csr.data(), 3, true);
    const double lambda = ctmc::detail::max_exit_rate(qt_);
    const double stencil_residual = gen_.fused_normalize_residual(stencil.data(), sum, lambda);
    const double csr_residual = qt_.fused_normalize_residual(csr.data(), sum, lambda);
    EXPECT_GT(csr_residual, 0.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stencil_residual),
              std::bit_cast<std::uint64_t>(csr_residual));
    expect_bitwise_equal(stencil, csr);
    EXPECT_THROW(gen_.fused_normalize_residual(stencil.data(), 0.0, lambda), std::runtime_error);
}

TEST_P(GeneratorStencil, ModelSolveMatchesCsrSolve) {
    const Parameters& p = GetParam().parameters;
    // At every width the stencil solve is the serial CSR solve, bit for
    // bit: distribution, sweeps, residual and residual passes.
    ctmc::SolverEngine engine;
    for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ctmc::SolveOptions options;
        options.num_threads = threads;
        options.tolerance = 1e-11;
        GprsModel model(p);
        const ctmc::SolveResult& stencil = model.solve(options, engine);
        // A large chain runs a wide solve as a team on all its seats.
        const bool team = gen_.size() >= ctmc::kTeamMinStates;
        EXPECT_EQ(stencil.threads_used, team ? threads : 1);

        ctmc::SolveOptions reference = options;
        reference.initial = product_form_initial(p, model.balanced(), model.space());
        const ctmc::SolveResult csr = engine.solve(model.generator().to_qt_matrix(), reference);
        ASSERT_TRUE(csr.converged);
        EXPECT_EQ(stencil.iterations, csr.iterations);
        EXPECT_EQ(stencil.residual_evaluations, csr.residual_evaluations);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(stencil.residual),
                  std::bit_cast<std::uint64_t>(csr.residual));
        expect_bitwise_equal(stencil.distribution, csr.distribution);
    }
}

TEST_P(GeneratorStencil, WarmStartCandidatesMatchCsr) {
    // A warm-started campaign point ranks its two starts, the product form
    // and a transfer (here a non-uniform vector), with ctmc::prepare_start,
    // then solves from the raw winner. Both rankings, and a solve from the
    // transfer (ModelSolveMatchesCsrSolve covers the product form's), are
    // the CSR's bit for bit.
    const Parameters& p = GetParam().parameters;
    const GprsModel model(p);
    for (const std::vector<double>& raw :
         {product_form_initial(p, model.balanced(), model.space()), start()}) {
        std::vector<double> stencil = raw;
        std::vector<double> csr = raw;
        const double stencil_residual = ctmc::prepare_start(gen_, stencil);
        const double csr_residual = ctmc::prepare_start(qt_, csr);
        EXPECT_GT(csr_residual, 0.0);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(stencil_residual),
                  std::bit_cast<std::uint64_t>(csr_residual));
        expect_bitwise_equal(stencil, csr);
    }
    ctmc::SolveOptions options;
    options.tolerance = 1e-11;
    options.initial = start();
    ctmc::SolverEngine engine;
    const ctmc::SolveResult stencil = engine.solve(gen_, options);
    const ctmc::SolveResult csr = engine.solve(qt_, options);
    EXPECT_EQ(stencil.iterations, csr.iterations);
    expect_bitwise_equal(stencil.distribution, csr.distribution);
}

INSTANTIATE_TEST_SUITE_P(Cells, GeneratorStencil, ::testing::ValuesIn(stencil_cases()),
                         [](const ::testing::TestParamInfo<StencilCase>& info) {
                             return info.param.name;
                         });

}  // namespace
}  // namespace gprsim::core
