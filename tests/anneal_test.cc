#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "anneal/chimera.h"
#include "anneal/embedding.h"
#include "anneal/embedding_composite.h"
#include "anneal/metropolis.h"
#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "anneal/simulated_annealer.h"
#include "bilp/bilp_to_qubo.h"
#include "common/random.h"
#include "common/simd.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "joinorder/query_graph.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/brute_force_solver.h"

namespace qopt {
namespace {

QuboModel MakeRandomQubo(int n, double density, std::uint64_t seed) {
  Rng rng(seed);
  QuboModel qubo(n);
  for (int i = 0; i < n; ++i) qubo.AddLinear(i, rng.NextDouble(-2.0, 2.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(density)) {
        qubo.AddQuadratic(i, j, rng.NextDouble(-2.0, 2.0));
      }
    }
  }
  return qubo;
}

// --- Simulated annealing -----------------------------------------------------

class AnnealerParamTest : public ::testing::TestWithParam<int> {};

TEST_P(AnnealerParamTest, ReachesGroundStateOfRandomProblems) {
  const QuboModel qubo = MakeRandomQubo(12, 0.4, GetParam());
  const BruteForceResult exact = SolveQuboBruteForce(qubo);
  AnnealOptions options;
  options.num_reads = 20;
  options.num_sweeps = 400;
  options.seed = GetParam() + 1;
  const AnnealResult result = SolveQuboWithAnnealing(qubo, options);
  EXPECT_NEAR(result.best_energy, exact.best_energy, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AnnealerParamTest,
                         ::testing::Range(0, 6));

TEST(AnnealerTest, DeterministicForFixedSeed) {
  const QuboModel qubo = MakeRandomQubo(10, 0.5, 99);
  AnnealOptions options;
  options.seed = 42;
  const AnnealResult a = SolveQuboWithAnnealing(qubo, options);
  const AnnealResult b = SolveQuboWithAnnealing(qubo, options);
  EXPECT_EQ(a.best_bits, b.best_bits);
  EXPECT_EQ(a.read_energies, b.read_energies);
}

TEST(AnnealerTest, ReadEnergiesSizeMatchesReads) {
  const QuboModel qubo = MakeRandomQubo(6, 0.5, 1);
  AnnealOptions options;
  options.num_reads = 7;
  const AnnealResult result = SolveQuboWithAnnealing(qubo, options);
  EXPECT_EQ(result.read_energies.size(), 7u);
  const double best =
      *std::min_element(result.read_energies.begin(),
                        result.read_energies.end());
  EXPECT_NEAR(result.best_energy, best, 1e-8);
}

TEST(AnnealerTest, GroupFlipEnergiesMatchRecomputation) {
  // Pins the incremental group-flip delta (local-field cache + in-group
  // pairwise correction) to the ground truth: every read's tracked final
  // energy must agree with a from-scratch Energy() recompute of its bits,
  // on both sides of the dense-row layout threshold and with overlapping
  // groups. A wrong pairwise term corrupts the tracked energies without
  // necessarily changing which bits win, so this catches what the
  // ground-state tests cannot.
  for (const double density : {0.15, 0.7}) {
    const QuboModel qubo = MakeRandomQubo(14, density, 21);
    AnnealOptions options;
    options.num_reads = 10;
    options.num_sweeps = 250;
    options.seed = 17;
    options.flip_groups = {{0, 1}, {2, 5, 9}, {1, 2, 13}};
    const AnnealResult result = SolveQuboWithAnnealing(qubo, options);
    ASSERT_EQ(result.read_energies.size(), 10u);
    const double best = *std::min_element(result.read_energies.begin(),
                                          result.read_energies.end());
    EXPECT_NEAR(best, result.best_energy, 1e-8) << "density " << density;
    EXPECT_EQ(result.best_energy, qubo.Energy(result.best_bits));

    // The joint proposals must also still reach the optimum.
    const BruteForceResult exact = SolveQuboBruteForce(qubo);
    EXPECT_NEAR(result.best_energy, exact.best_energy, 1e-8);
  }
}

TEST(AnnealerTest, ConstantObjectiveHandled) {
  QuboModel qubo(3);
  qubo.AddOffset(5.0);
  const AnnealResult result = SolveQuboWithAnnealing(qubo);
  EXPECT_DOUBLE_EQ(result.best_energy, 5.0);
}

// --- Golden pins -------------------------------------------------------------
//
// Exact results of three seeded solves, recorded from the sweep kernel
// that called std::exp on every uphill proposal and ran the dense field
// update as a plain scalar loop. They pin "same draw, same decision" for
// every proposal: the early Metropolis decision, the inlined RNG and the
// AVX2 field update must reproduce them bit for bit, at the scalar and at
// the best SIMD level.

std::string BitString(const std::vector<std::uint8_t>& bits) {
  std::string out;
  for (const std::uint8_t b : bits) out += b ? '1' : '0';
  return out;
}

void ExpectGolden(const QuboModel& qubo, const AnnealOptions& options,
                  const std::string& bits, double best_energy,
                  const std::vector<double>& read_energies) {
  for (const SimdLevel level : {SimdLevel::kScalar, BestSupportedSimdLevel()}) {
    ScopedSimdLevel guard(level);
    SCOPED_TRACE(SimdLevelName(level));
    const AnnealResult result = SolveQuboWithAnnealing(qubo, options);
    EXPECT_EQ(BitString(result.best_bits), bits);
    EXPECT_EQ(result.best_energy, best_energy);
    EXPECT_EQ(result.read_energies, read_energies);
  }
}

TEST(AnnealerGoldenTest, DenseRowsOnTheTenByTenMqoEncoding) {
  // workloads/mqo_batch_10x10.json: 100 variables at density 0.38, above
  // the dense-row threshold.
  MqoGeneratorOptions gen;
  gen.num_queries = 10;
  gen.plans_per_query = 10;
  gen.seed = 4;
  const QuboModel qubo = EncodeMqoAsQubo(GenerateMqoProblem(gen)).qubo;
  ASSERT_EQ(qubo.NumVariables(), 100);
  ASSERT_GE(qubo.Density(), 0.35);
  AnnealOptions options;
  options.num_reads = 6;
  options.num_sweeps = 400;
  options.seed = 7;
  ExpectGolden(qubo, options,
               "00010000000000000001000000000100010000000100000000000100000000"
               "00000001001000000010000000000000100000",
               -0x1.d3a6f70ecdd05p+8,
               {-0x1.aed82c873281dp+8, -0x1.aef903b8c3687p+8,
                -0x1.b4f0548ec2994p+8, -0x1.c274c5806a367p+8,
                -0x1.9205880b3b3fap+8, -0x1.d3a6f70ecd285p+8});
}

TEST(AnnealerGoldenTest, CsrRowsOnABilpJoinEncoding) {
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  const QuboModel qubo =
      EncodeBilpAsQubo(
          EncodeJoinOrderAsBilp(GenerateStarQuery(4, 100.0, 0.1, 3), encoder)
              .bilp)
          .qubo;
  ASSERT_EQ(qubo.NumVariables(), 70);
  ASSERT_LT(qubo.Density(), 0.35);
  AnnealOptions options;
  options.num_reads = 6;
  options.num_sweeps = 400;
  options.seed = 11;
  ExpectGolden(qubo, options,
               "01101000000110101000011000100011110101010000001010001110111"
               "00000100000",
               0x1.9p+7,
               {0x1.9p+7, 0x1.5f8p+9, 0x1.5f8p+9, 0x1.9p+7, 0x1.f6p+8,
                0x1.9cp+9});
}

TEST(AnnealerGoldenTest, GroupFlips) {
  const QuboModel qubo = MakeRandomQubo(30, 0.2, 31);
  ASSERT_LT(qubo.Density(), 0.35);
  AnnealOptions options;
  options.num_reads = 6;
  options.num_sweeps = 300;
  options.seed = 13;
  options.flip_groups = {{0, 1, 2}, {3, 4}, {5, 10, 15, 20}, {7, 8}, {28, 29}};
  ExpectGolden(qubo, options, "011101001000010111011110111010",
               -0x1.d8bc8aa061adcp+4,
               {-0x1.d8bc8aa061adp+4, -0x1.d8bc8aa061ad1p+4,
                -0x1.d8bc8aa061ae1p+4, -0x1.d8bc8aa061ad8p+4,
                -0x1.d8bc8aa061adcp+4, -0x1.d8bc8aa061ad6p+4});
}

TEST(MetropolisAcceptTest, MatchesTheExpComparisonEverywhere) {
  // x from 0 to 800, densely across ln 2^53 ~ 36.74 and the clamp row
  // (~38.1), across exp's underflow to 0 near 745, and on both sides of
  // every bracket-row boundary up to the clamp; u on the NextDouble grid
  // (0, 2^-53, 2 * 2^-53, the draws around exp(-x), 1 - 2^-53), the
  // off-grid doubles next to exp(-x), and the doubles next to the row's
  // bounds, exp(-x) * 2^(+-1/64).
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {inf, -inf, -1.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::denorm_min()};
  for (int k = 0; k <= 3200; ++k) xs.push_back(0.25 * k);
  for (int k = 0; k <= 20000; ++k) {
    xs.push_back(36.5 + 1e-4 * k);
    xs.push_back(744.5 + 1e-4 * k);
  }
  const double per_row = metropolis_internal::kLog2eTimesSteps;
  for (int m = 1; m <= 64 * 56; ++m) {
    const double boundary = m / per_row;
    xs.push_back(std::nextafter(boundary, 0.0));
    xs.push_back(boundary);
    xs.push_back(std::nextafter(boundary, inf));
  }
  const double step = 0x1.0p-53;
  const double row_ratio = std::exp2(1.0 / 64.0);
  int checked = 0;
  int mismatches = 0;
  std::ostringstream first;
  for (const double x : xs) {
    const double e = std::exp(-x);
    std::vector<double> us = {0.0, step, 2 * step, 1.0 - step};
    for (const double edge : {e, e * row_ratio, e / row_ratio}) {
      if (!(edge > 0.0 && edge < 1.0)) continue;
      us.push_back(std::nextafter(edge, 0.0));
      us.push_back(edge);
      us.push_back(std::nextafter(edge, 1.0));
      const double k = std::floor(edge / step);
      for (double d = -1.0; d <= 2.0; d += 1.0) {
        if (k + d >= 0.0 && (k + d) * step < 1.0) us.push_back((k + d) * step);
      }
    }
    for (const double u : us) {
      ++checked;
      if (MetropolisAccept(u, x) != (u < e)) {
        if (mismatches++ == 0) {
          first << std::hexfloat << "u=" << u << " x=" << x;
        }
      }
    }
  }
  EXPECT_GT(checked, 500000);
  EXPECT_EQ(mismatches, 0) << "first mismatch at " << first.str();
}

// --- Chimera ------------------------------------------------------------------

TEST(ChimeraTest, UnitCellIsK44) {
  const SimpleGraph cell = MakeChimera(1, 1, 4);
  EXPECT_EQ(cell.NumVertices(), 8);
  EXPECT_EQ(cell.NumEdges(), 16);
  for (int v = 0; v < 8; ++v) EXPECT_EQ(cell.Degree(v), 4);
}

TEST(ChimeraTest, PaperFigureFiveShape) {
  // Fig. 5: 32 qubits in 4 unit cells.
  const SimpleGraph graph = MakeChimera(2, 2, 4);
  EXPECT_EQ(graph.NumVertices(), 32);
  // 4 cells x 16 internal + 8 vertical + 8 horizontal external couplers.
  EXPECT_EQ(graph.NumEdges(), 80);
  // On the 2x2 boundary each qubit has one external coupler.
  EXPECT_EQ(graph.MaxDegree(), 5);
  EXPECT_TRUE(graph.IsConnected());
  // In a 3x3 fabric the center cell's qubits reach the full degree 6
  // ("each qubit is connected to at most six others", Sec. 3.6.2).
  EXPECT_EQ(MakeChimera(3, 3, 4).MaxDegree(), 6);
}

TEST(ChimeraTest, DWave2xScale) {
  const SimpleGraph graph = MakeChimera(12, 12, 4);
  EXPECT_EQ(graph.NumVertices(), 1152);  // the D-Wave 2X fabric
  EXPECT_EQ(graph.MaxDegree(), 6);
  EXPECT_TRUE(graph.IsConnected());
}

// --- Pegasus ------------------------------------------------------------------

TEST(PegasusTest, SmallInstanceInvariants) {
  const SimpleGraph graph = MakePegasus(3, /*fabric_only=*/false);
  EXPECT_EQ(graph.NumVertices(), 2 * 3 * 12 * 2);  // 144
  EXPECT_LE(graph.MaxDegree(), 15);
}

TEST(PegasusTest, FabricTrimKeepsConnectedDegreeBoundedGraph) {
  const SimpleGraph graph = MakePegasus(4);
  EXPECT_LE(graph.MaxDegree(), 15);
  EXPECT_TRUE(graph.IsConnected());
  // Fabric of P(m) has 24m(m-1) - 2*... qubits; for m=4: 264 before trim.
  EXPECT_GT(graph.NumVertices(), 200);
  EXPECT_LT(graph.NumVertices(), 288);
}

TEST(PegasusTest, InteriorQubitsReachDegree15) {
  const SimpleGraph graph = MakePegasus(6);
  EXPECT_EQ(graph.MaxDegree(), 15);
  int degree15 = 0;
  for (int v = 0; v < graph.NumVertices(); ++v) {
    if (graph.Degree(v) == 15) ++degree15;
  }
  // Most interior qubits have full degree.
  EXPECT_GT(degree15, graph.NumVertices() / 3);
}

TEST(PegasusTest, AdvantageScaleP16) {
  const SimpleGraph graph = MakePegasus(16);
  // D-Wave quotes "more than 5000 qubits" for the Advantage (P16 fabric).
  EXPECT_GT(graph.NumVertices(), 5000);
  EXPECT_LE(graph.NumVertices(), 5760);
  EXPECT_EQ(graph.MaxDegree(), 15);
  EXPECT_TRUE(graph.IsConnected());
}

TEST(PegasusTest, StrictlyDenserThanChimera) {
  // Pegasus' 15 couplers per qubit vs Chimera's 6 (Sec. 3.6.2).
  const SimpleGraph pegasus = MakePegasus(6);
  const SimpleGraph chimera = MakeChimera(6, 6, 4);
  const double pegasus_avg =
      2.0 * pegasus.NumEdges() / pegasus.NumVertices();
  const double chimera_avg =
      2.0 * chimera.NumEdges() / chimera.NumVertices();
  EXPECT_GT(pegasus_avg, chimera_avg + 3.0);
}

// --- Embedding validation -------------------------------------------------------

TEST(EmbeddingTest, StatsOfHandBuiltEmbedding) {
  Embedding embedding;
  embedding.chains = {{0, 1}, {2}, {3, 4, 5}};
  EXPECT_EQ(embedding.NumPhysicalQubits(), 6);
  EXPECT_EQ(embedding.MaxChainLength(), 3);
  EXPECT_DOUBLE_EQ(embedding.MeanChainLength(), 2.0);
}

TEST(EmbeddingTest, ValidateAcceptsCorrectEmbedding) {
  // Source: triangle. Target: 5-cycle -> vertex 2 needs chain {2,3,4}.
  SimpleGraph source(3);
  source.AddEdge(0, 1);
  source.AddEdge(1, 2);
  source.AddEdge(0, 2);
  SimpleGraph target(5);
  for (int i = 0; i < 5; ++i) target.AddEdge(i, (i + 1) % 5);
  Embedding embedding;
  embedding.chains = {{0}, {1}, {2, 3, 4}};
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, embedding, &error)) << error;
}

TEST(EmbeddingTest, ValidateRejectsDisconnectedChain) {
  SimpleGraph source(1);
  SimpleGraph target(3);
  target.AddEdge(0, 1);
  Embedding embedding;
  embedding.chains = {{0, 2}};
  std::string error;
  EXPECT_FALSE(ValidateEmbedding(source, target, embedding, &error));
  EXPECT_NE(error.find("not connected"), std::string::npos);
}

TEST(EmbeddingTest, ValidateRejectsOverlappingChains) {
  SimpleGraph source(2);
  SimpleGraph target(2);
  target.AddEdge(0, 1);
  Embedding embedding;
  embedding.chains = {{0}, {0}};
  std::string error;
  EXPECT_FALSE(ValidateEmbedding(source, target, embedding, &error));
}

TEST(EmbeddingTest, ValidateRejectsMissingCoupler) {
  SimpleGraph source(2);
  source.AddEdge(0, 1);
  SimpleGraph target(3);
  target.AddEdge(0, 1);  // vertex 2 isolated
  Embedding embedding;
  embedding.chains = {{0}, {2}};
  std::string error;
  EXPECT_FALSE(ValidateEmbedding(source, target, embedding, &error));
  EXPECT_NE(error.find("coupler"), std::string::npos);
}

// --- Minor embedder -------------------------------------------------------------

TEST(MinorEmbedderTest, IdentityWhenSourceIsSubgraph) {
  SimpleGraph source(3);
  source.AddEdge(0, 1);
  source.AddEdge(1, 2);
  const SimpleGraph target = MakeChimera(1, 1, 4);
  const auto embedding = FindMinorEmbedding(source, target);
  ASSERT_TRUE(embedding.has_value());
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
}

TEST(MinorEmbedderTest, TriangleIntoCycleNeedsChains) {
  SimpleGraph source(3);
  source.AddEdge(0, 1);
  source.AddEdge(1, 2);
  source.AddEdge(0, 2);
  SimpleGraph target(5);
  for (int i = 0; i < 5; ++i) target.AddEdge(i, (i + 1) % 5);
  const auto embedding = FindMinorEmbedding(source, target);
  ASSERT_TRUE(embedding.has_value());
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
  EXPECT_GT(embedding->NumPhysicalQubits(), 3);  // chains are required
}

TEST(MinorEmbedderTest, K5IntoChimeraCellImpossible) {
  // K5 needs treewidth the 8-qubit cell cannot offer: 5 chains over 8
  // vertices with every pair coupled. The embedder must give up cleanly.
  SimpleGraph source(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) source.AddEdge(i, j);
  }
  SimpleGraph small(3);
  small.AddEdge(0, 1);
  small.AddEdge(1, 2);
  EXPECT_FALSE(FindMinorEmbedding(source, small).has_value());
}

TEST(MinorEmbedderTest, K4IntoChimeraCell) {
  SimpleGraph source(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) source.AddEdge(i, j);
  }
  const SimpleGraph target = MakeChimera(1, 1, 4);
  const auto embedding = FindMinorEmbedding(source, target);
  ASSERT_TRUE(embedding.has_value());
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
  // K4 in C(1,1,4) needs chains of length 2 (the canonical embedding).
  EXPECT_LE(embedding->NumPhysicalQubits(), 8);
}

class MinorEmbedderParamTest : public ::testing::TestWithParam<int> {};

TEST_P(MinorEmbedderParamTest, RandomGraphsIntoChimera) {
  Rng rng(GetParam());
  const int n = 10;
  SimpleGraph source(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(0.3)) source.AddEdge(i, j);
    }
  }
  const SimpleGraph target = MakeChimera(4, 4, 4);
  EmbedOptions options;
  options.seed = GetParam() + 7;
  const auto embedding = FindMinorEmbedding(source, target, options);
  ASSERT_TRUE(embedding.has_value());
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
}

TEST_P(MinorEmbedderParamTest, RandomGraphsIntoPegasus) {
  Rng rng(GetParam() + 100);
  const int n = 16;
  SimpleGraph source(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.NextBool(0.35)) source.AddEdge(i, j);
    }
  }
  const SimpleGraph target = MakePegasus(3);
  EmbedOptions options;
  options.seed = GetParam() + 11;
  const auto embedding = FindMinorEmbedding(source, target, options);
  ASSERT_TRUE(embedding.has_value());
  std::string error;
  EXPECT_TRUE(ValidateEmbedding(source, target, *embedding, &error)) << error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinorEmbedderParamTest, ::testing::Range(0, 5));

TEST(MinorEmbedderTest, IsolatedSourceVerticesGetChains) {
  SimpleGraph source(4);  // no edges at all
  const SimpleGraph target = MakeChimera(1, 1, 4);
  const auto embedding = FindMinorEmbedding(source, target);
  ASSERT_TRUE(embedding.has_value());
  for (const auto& chain : embedding->chains) EXPECT_EQ(chain.size(), 1u);
}

// --- Embedding composite ----------------------------------------------------------

TEST(EmbeddingCompositeTest, SolvesQuboThroughChimeraTopology) {
  const QuboModel qubo = MakeRandomQubo(8, 0.5, 5);
  const BruteForceResult exact = SolveQuboBruteForce(qubo);
  EmbeddedSolveOptions options;
  options.anneal.num_reads = 30;
  options.anneal.num_sweeps = 500;
  options.anneal.seed = 3;
  options.embed.seed = 3;
  const auto result = SolveQuboOnTopology(qubo, MakeChimera(4, 4, 4), options);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->energy, exact.best_energy, 1e-6);
  EXPECT_GE(result->chain_break_fraction, 0.0);
  EXPECT_LE(result->chain_break_fraction, 1.0);
}

TEST(EmbeddingCompositeTest, SolvesQuboThroughPegasusTopology) {
  const QuboModel qubo = MakeRandomQubo(10, 0.4, 9);
  const BruteForceResult exact = SolveQuboBruteForce(qubo);
  EmbeddedSolveOptions options;
  options.anneal.num_reads = 30;
  options.anneal.num_sweeps = 500;
  options.anneal.seed = 4;
  options.embed.seed = 4;
  const auto result = SolveQuboOnTopology(qubo, MakePegasus(3), options);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->energy, exact.best_energy, 1e-6);
}

TEST(EmbeddingCompositeTest, ReturnsNulloptWhenEmbeddingImpossible) {
  QuboModel qubo(5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) qubo.AddQuadratic(i, j, 1.0);
  }
  SimpleGraph tiny(3);
  tiny.AddEdge(0, 1);
  tiny.AddEdge(1, 2);
  EXPECT_FALSE(SolveQuboOnTopology(qubo, tiny).has_value());
}

}  // namespace
}  // namespace qopt
