#include "anneal/simulated_annealer.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "anneal/metropolis.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if QQO_SIMD_X86
#include <immintrin.h>
#endif

namespace qopt {
namespace {

/// Sweep-kernel view of the QUBO, shared read-only by every read.
///
/// The proposal loop never touches adjacency at all: it maintains a
/// per-variable local field
///
///   local_field[i] = linear_i + sum_j c_ij * bits[j]
///
/// so the energy delta of flipping bit i is +-local_field[i] — an O(1)
/// lookup per proposal. Only an *accepted* flip pays O(degree(i)) to push
/// the change into its neighbors' fields (the dwave-neal scheme; the old
/// code rescanned the adjacency row on every proposal).
///
/// Two field-update layouts, chosen deterministically from the problem
/// shape: CSR rows (index-sorted, one contiguous coefficient stream per
/// variable) for sparse problems, and full dense coefficient rows for
/// dense ones, where the unit-stride `field[j] += sign * row[j]` pass over
/// all n columns vectorizes and out-runs the gather through a CSR row.
/// The dense pass dispatches on the SIMD level resolved once per solve.
struct SweepGraph {
  int n = 0;
  bool dense = false;
  SimdLevel simd = SimdLevel::kScalar;
  std::vector<double> linear;
  CsrAdjacency csr;
  std::vector<double> rows;  ///< n*n, row-major, 0.0 where no coupling.
};

/// Dense rows win once enough of the row is populated that the contiguous
/// pass beats the CSR gather; the variable cap bounds the n*n buffer
/// (2048^2 doubles = 32 MiB).
constexpr double kDenseRowThreshold = 0.35;
constexpr int kDenseRowMaxVars = 2048;

SweepGraph BuildSweepGraph(const QuboModel& qubo) {
  SweepGraph graph;
  graph.n = qubo.NumVariables();
  graph.linear.resize(static_cast<std::size_t>(graph.n));
  for (int i = 0; i < graph.n; ++i) {
    graph.linear[static_cast<std::size_t>(i)] = qubo.Linear(i);
  }
  graph.csr = qubo.BuildCsrAdjacency();
  graph.dense =
      graph.n >= 2 && graph.n <= kDenseRowMaxVars &&
      qubo.Density() >= kDenseRowThreshold;
  if (graph.dense) {
    graph.simd = ActiveSimdLevel();
    const std::size_t n = static_cast<std::size_t>(graph.n);
    graph.rows.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = graph.csr.offsets[i]; k < graph.csr.offsets[i + 1];
           ++k) {
        graph.rows[i * n +
                   static_cast<std::size_t>(graph.csr.neighbors[k])] =
            graph.csr.coeffs[k];
      }
    }
  }
  return graph;
}

#if QQO_SIMD_X86
/// AVX2 twin of the dense `field[j] += sign * row[j]` pass. sign is +-1,
/// so sign * row[j] is exact and the update is one correctly rounded
/// add, or the subtraction that IEEE defines as adding the negation:
/// lane for lane the same double as the scalar loop. The tail past the
/// last full vector runs the scalar loop.
QQO_SIMD_TARGET_AVX2 void AddSignedRowAvx2(double* field, const double* row,
                                           double sign, std::size_t n) {
  std::size_t j = 0;
  if (sign > 0.0) {
    for (; j + 4 <= n; j += 4) {
      _mm256_storeu_pd(field + j, _mm256_add_pd(_mm256_loadu_pd(field + j),
                                                _mm256_loadu_pd(row + j)));
    }
  } else {
    for (; j + 4 <= n; j += 4) {
      _mm256_storeu_pd(field + j, _mm256_sub_pd(_mm256_loadu_pd(field + j),
                                                _mm256_loadu_pd(row + j)));
    }
  }
  for (; j < n; ++j) field[j] += sign * row[j];
}
#endif

/// Derives a default inverse-temperature range from the problem's energy
/// scale, mirroring dwave-neal: hot enough that the largest single-flip
/// barrier is accepted with probability ~1/2, cold enough that the
/// smallest non-zero barrier is frozen out.
std::pair<double, double> DefaultBetaRange(const SweepGraph& graph) {
  // Hot end: the largest single-flip barrier must be crossable with
  // probability ~1/2. Cold end: the smallest non-zero coefficient — the
  // finest energy scale in the problem — must be frozen out, so that
  // penalty-dominated problems (where every variable also carries huge
  // constraint terms) still resolve their small objective differences.
  double max_delta = 0.0;
  double min_coeff = std::numeric_limits<double>::infinity();
  for (int i = 0; i < graph.n; ++i) {
    const double linear = std::abs(graph.linear[static_cast<std::size_t>(i)]);
    double scale = linear;
    if (linear > 0.0) min_coeff = std::min(min_coeff, linear);
    for (std::size_t k = graph.csr.offsets[static_cast<std::size_t>(i)];
         k < graph.csr.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const double coeff = graph.csr.coeffs[k];
      scale += std::abs(coeff);
      if (coeff != 0.0) min_coeff = std::min(min_coeff, std::abs(coeff));
    }
    max_delta = std::max(max_delta, scale);
  }
  if (max_delta == 0.0) return {0.1, 1.0};  // constant objective
  const double beta_min = std::log(2.0) / max_delta;
  const double beta_max = std::log(100.0) / std::max(min_coeff, 1e-9);
  return {beta_min, std::max(beta_max, beta_min * 2.0)};
}

/// Independent RNG stream per read (splitmix64 finalizer over seed and
/// read index). Decoupling the reads from one shared sequential stream is
/// what lets them run in parallel while staying deterministic: read r sees
/// the same randomness no matter how many threads execute the sweep.
std::uint64_t ReadSeed(std::uint64_t seed, int read) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL *
                               (static_cast<std::uint64_t>(read) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Per-read mutable state. The buffers live in a thread_local arena (one
/// per pool worker) and are fully re-initialized by Reset() for each read
/// — the PR-1 Reset() reuse pattern — so steady-state reads allocate
/// nothing. Determinism is unaffected by the reuse: every cell a read
/// observes is overwritten before use, and reads never share state.
struct ReadState {
  std::vector<std::uint8_t> bits;
  std::vector<double> local_field;
  std::vector<std::uint8_t> in_group;  ///< group-flip membership scratch
  double energy = 0.0;

  void Reset(const SweepGraph& graph, const QuboModel& qubo, Rng* rng) {
    const std::size_t n = static_cast<std::size_t>(graph.n);
    bits.resize(n);
    for (auto& b : bits) b = rng->NextBool() ? 1 : 0;
    in_group.assign(n, 0);
    energy = qubo.Energy(bits);
    // local_field[i] = linear_i + sum over couplings to set bits, summed
    // in CSR (index-sorted) order so the init is platform-deterministic.
    local_field.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      double field = graph.linear[i];
      for (std::size_t k = graph.csr.offsets[i]; k < graph.csr.offsets[i + 1];
           ++k) {
        if (bits[static_cast<std::size_t>(graph.csr.neighbors[k])]) {
          field += graph.csr.coeffs[k];
        }
      }
      local_field[i] = field;
    }
  }

  /// Energy delta of flipping bit i, from the cached field: O(1).
  double FlipDelta(int i) const {
    const std::size_t idx = static_cast<std::size_t>(i);
    return bits[idx] ? -local_field[idx] : local_field[idx];
  }

  /// Flips bit i and pushes the change into the neighbors' local fields —
  /// O(degree(i)) sparse, O(n) unit-stride dense. local_field[i] itself
  /// is untouched (no self-coupling), so an immediate flip-back sees the
  /// exact negated delta.
  void CommitFlip(const SweepGraph& graph, int i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const std::uint8_t now = (bits[idx] ^= 1);
    const double sign = now ? 1.0 : -1.0;
    if (graph.dense) {
      const std::size_t n = static_cast<std::size_t>(graph.n);
      const double* row = graph.rows.data() + idx * n;
      double* field = local_field.data();
#if QQO_SIMD_X86
      if (graph.simd == SimdLevel::kAvx2) {
        AddSignedRowAvx2(field, row, sign, n);
        return;
      }
#endif
      for (std::size_t j = 0; j < n; ++j) field[j] += sign * row[j];
    } else {
      for (std::size_t k = graph.csr.offsets[idx];
           k < graph.csr.offsets[idx + 1]; ++k) {
        local_field[static_cast<std::size_t>(graph.csr.neighbors[k])] +=
            sign * graph.csr.coeffs[k];
      }
    }
  }

  /// Energy delta of jointly flipping every bit of `group`, computed from
  /// the shared local-field cache WITHOUT mutating any state:
  ///
  ///   dE(S) = sum_{i in S} FlipDelta(i)
  ///         + sum_{edges (i,j) inside S} c_ij * s_i * s_j,   s = 1 - 2b.
  ///
  /// Each member's single-flip delta counts the edge to another member as
  /// if that member stayed put; the pairwise term restores the joint
  /// product change c_ij * (b_i' - b_i)(b_j' - b_j). Rejected proposals
  /// therefore cost no undo at all (the old code flipped bits per member
  /// to evaluate the delta and had to roll them back).
  double GroupDelta(const SweepGraph& graph, const std::vector<int>& group) {
    double delta = 0.0;
    for (int i : group) {
      delta += FlipDelta(i);
      in_group[static_cast<std::size_t>(i)] = 1;
    }
    for (int i : group) {
      const std::size_t idx = static_cast<std::size_t>(i);
      const double si = bits[idx] ? -1.0 : 1.0;
      for (std::size_t k = graph.csr.offsets[idx];
           k < graph.csr.offsets[idx + 1]; ++k) {
        const int j = graph.csr.neighbors[k];
        // j > i counts each inside-group edge exactly once.
        if (j > i && in_group[static_cast<std::size_t>(j)]) {
          const double sj = bits[static_cast<std::size_t>(j)] ? -1.0 : 1.0;
          delta += graph.csr.coeffs[k] * si * sj;
        }
      }
    }
    for (int i : group) in_group[static_cast<std::size_t>(i)] = 0;
    return delta;
  }

  /// Commits an accepted group flip: O(sum of member degrees).
  void CommitGroup(const SweepGraph& graph, const std::vector<int>& group,
                   double delta) {
    for (int i : group) CommitFlip(graph, i);
    energy += delta;
  }
};

/// One reusable ReadState per pool worker. thread_local rather than
/// per-read storage so the arena survives across the reads a worker
/// processes (and across TrySolveQuboWithAnnealing calls on that thread).
ReadState& LocalReadState() {
  thread_local ReadState state;
  return state;
}

}  // namespace

StatusOr<AnnealResult> TrySolveQuboWithAnnealing(const QuboModel& qubo,
                                                 const AnnealOptions& options) {
  QQO_TRACE_SPAN("anneal.solve");
  QOPT_CHECK(qubo.NumVariables() >= 1);
  QOPT_CHECK(options.num_reads >= 1);
  QOPT_CHECK(options.num_sweeps >= 1);
  const int n = qubo.NumVariables();
  const SweepGraph graph = BuildSweepGraph(qubo);

  double beta_min = options.beta_min;
  double beta_max = options.beta_max;
  if (beta_max <= 0.0) {
    std::tie(beta_min, beta_max) = DefaultBetaRange(graph);
  }
  QOPT_CHECK(beta_min > 0.0 && beta_max >= beta_min);
  const double beta_ratio =
      options.num_sweeps > 1
          ? std::pow(beta_max / beta_min,
                     1.0 / static_cast<double>(options.num_sweeps - 1))
          : 1.0;

  for (const auto& group : options.flip_groups) {
    for (int i : group) QOPT_CHECK(i >= 0 && i < n);
  }

  // One fully independent read per slot: its own RNG stream, its own
  // state, results indexed by read. Reads then run on the default pool
  // with identical output at any thread count. The deadline is checked
  // at every sweep boundary and at read claim time; reads cut short keep
  // their best-so-far state (anytime semantics), reads that never start
  // stay absent.
  const std::size_t num_reads = static_cast<std::size_t>(options.num_reads);
  std::vector<std::vector<std::uint8_t>> read_bits(num_reads);
  std::vector<double> read_energies(num_reads);
  std::vector<std::uint8_t> read_done(num_reads, 0);
  std::vector<Status> read_status(num_reads);
  std::atomic<bool> timed_out{false};
  const Status loop_status = ThreadPool::Default().ParallelFor(
      num_reads, options.deadline, [&](std::size_t read) {
        QQO_TRACE_SPAN("anneal.read");
        QQO_COUNT("anneal.reads", 1);
        Rng rng(ReadSeed(options.seed, static_cast<int>(read)));
        ReadState& state = LocalReadState();
        state.Reset(graph, qubo, &rng);
        double beta = beta_min;
        bool cut_short = false;
        long long accepted = 0;  // Metropolis accepts, counted once per read
        // QQO_LOOP(anneal.sweep)
        for (int sweep = 0; sweep < options.num_sweeps; ++sweep) {
          QQO_COUNT("anneal.sweeps", 1);
          if (Status fault = CheckFaultPoint("annealer.sweep"); !fault.ok()) {
            read_status[read] = std::move(fault);
            return;  // this read contributes nothing
          }
          if (Status check = options.deadline.Check(); !check.ok()) {
            if (check.code() == StatusCode::kCancelled) {
              read_status[read] = std::move(check);
              return;
            }
            timed_out.store(true, std::memory_order_relaxed);
            cut_short = true;
            break;  // keep the best-so-far state
          }
          for (int i = 0; i < n; ++i) {
            const double delta = state.FlipDelta(i);
            if (delta <= 0.0 ||
                MetropolisAccept(rng.NextDouble(), beta * delta)) {
              state.CommitFlip(graph, i);
              state.energy += delta;
              ++accepted;
            }
          }
          for (const auto& group : options.flip_groups) {
            const double delta = state.GroupDelta(graph, group);
            if (delta <= 0.0 ||
                MetropolisAccept(rng.NextDouble(), beta * delta)) {
              state.CommitGroup(graph, group, delta);
              ++accepted;
            }
          }
          beta *= beta_ratio;
        }
        // Greedy descent to the local minimum removes residual thermal
        // noise. Skipped when the deadline already fired — it is the one
        // unbounded loop here.
        bool improved = !cut_short;
        while (improved) {
          improved = false;
          for (int i = 0; i < n; ++i) {
            const double delta = state.FlipDelta(i);
            if (delta < -1e-12) {
              state.CommitFlip(graph, i);
              state.energy += delta;
              improved = true;
            }
          }
          for (const auto& group : options.flip_groups) {
            const double delta = state.GroupDelta(graph, group);
            if (delta < -1e-12) {
              state.CommitGroup(graph, group, delta);
              improved = true;
            }
          }
        }
        QQO_COUNT("anneal.flips_accepted", accepted);
        read_energies[read] = state.energy;
        // Copy (not move) so the worker's arena keeps its storage for the
        // next read.
        read_bits[read] = state.bits;
        read_done[read] = 1;
      });

  // Cancellation and injected faults fail the whole call; a plain expiry
  // only marks it timed out.
  for (std::size_t read = 0; read < num_reads; ++read) {
    if (!read_status[read].ok()) return read_status[read];
  }
  if (!loop_status.ok()) {
    if (loop_status.code() == StatusCode::kCancelled) return loop_status;
    timed_out.store(true, std::memory_order_relaxed);
  }

  AnnealResult result;
  result.timed_out = timed_out.load(std::memory_order_relaxed);
  std::size_t best_read = num_reads;
  for (std::size_t read = 0; read < num_reads; ++read) {
    if (!read_done[read]) continue;
    result.read_energies.push_back(read_energies[read]);
    if (best_read == num_reads ||
        read_energies[read] < read_energies[best_read]) {
      best_read = read;
    }
  }
  if (best_read == num_reads) {
    // The deadline fired before any read finished a single sweep. The
    // anytime contract still owes the caller a valid state: all-zeros is
    // the canonical deterministic fallback.
    result.best_bits.assign(static_cast<std::size_t>(n), 0);
  } else {
    result.best_bits = std::move(read_bits[best_read]);
  }
  // Recompute exactly to clear accumulated floating-point drift.
  result.best_energy = qubo.Energy(result.best_bits);
  return result;
}

AnnealResult SolveQuboWithAnnealing(const QuboModel& qubo,
                                    const AnnealOptions& options) {
  StatusOr<AnnealResult> result = TrySolveQuboWithAnnealing(qubo, options);
  QOPT_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

}  // namespace qopt
