// qqo_bench — the in-process half of the end-to-end benchmark (run.py
// drives the real entry points; this binary does what needs the library).
//
//   qqo_bench gen <workload> <seed> <count> <dir>
//       Seeded inputs for one run: dir/manifest.json plus input files.
//   qqo_bench check <dir>
//       Verifies every output in dir/results.jsonl against the inputs,
//       recomputing plans, costs and energies with the library; prints one
//       JSON summary line (mismatches, quality, result digest).
//   qqo_bench trace <dir> <ops>
//       Replays the first <ops> ops of the run layer by layer, calling each
//       module's public functions in the order the entry point does, with
//       a span around every call; checks that the replay reproduces the
//       entry point's output; writes dir/spans.json and prints per-layer
//       metrics as one JSON line.
//   qqo_bench calib <iterations>
//       Fixed single-thread loop for host calibration; prints wall and CPU
//       milliseconds as one JSON line.
//
// Workloads: serve_fresh, serve_repeat (qqo_serve MQO requests),
// join_decompose (qqo join --decompose), device_paths (qqo estimate, qqo mqo
// --backend=qaoa|annealer). Options below mirror the entry points' own
// solver defaults (tools/qqo_cli.cc MakeOptions, serve/server.cc
// MakeOptimizerOptions); the replay parity check fails loudly if they drift.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "anneal/embedding_composite.h"
#include "anneal/minor_embedder.h"
#include "anneal/pegasus.h"
#include "anneal/simulated_annealer.h"
#include "bilp/bilp_to_qubo.h"
#include "common/deadline.h"
#include "common/json.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/device_model.h"
#include "core/quantum_optimizer.h"
#include "core/resource_estimator.h"
#include "decompose/decomposer.h"
#include "io/workload_io.h"
#include "joinorder/join_order.h"
#include "joinorder/join_order_baselines.h"
#include "joinorder/join_order_bilp_encoder.h"
#include "mqo/mqo_baselines.h"
#include "mqo/mqo_generator.h"
#include "mqo/mqo_qubo_encoder.h"
#include "qubo/conversions.h"
#include "qubo/qubo_canonical.h"
#include "serve/protocol.h"
#include "serve/solution_cache.h"
#include "transpile/ibm_topologies.h"
#include "transpile/transpiler.h"
#include "variational/qaoa.h"
#include "variational/variational_solver.h"
#include "variational/vqe_ansatz.h"

namespace fs = std::filesystem;
using namespace qopt;

namespace {

// ---------------------------------------------------------------------------
// Workload constants shared by gen, check and trace.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kRequestSeed = 7;   // serve requests' "seed"
constexpr int kServeQueries = 10;           // 10 x 10 MQO batches
constexpr int kServePlans = 10;
// serve_repeat's batches are 20 x 10, so a cache hit costs about 20 ms of CPU
// rather than 4. The per-request wake-up delays of a shared host then weigh
// less: the spread of latency and throughput across runs fell from about
// 1.9x to 1.3x the spread of CPU time per op.
constexpr int kRepeatQueries = 20;
constexpr int kRepeatBases = 3;             // serve_repeat: K set-up batches
constexpr int kRepeatRelabelings = 8;       // relabeled variants per batch
constexpr int kDeviceQueries = 7;           // device_paths: 7 x 2 = 14 qubits
constexpr int kDevicePlans = 2;
constexpr int kDeviceShapes = 8;            // savings structures cycled
constexpr std::uint64_t kWarmSeed = 0x5E7;  // set-up inputs: seed-independent
constexpr int kServeCacheCapacity = 128;    // qqo_serve default --cache
constexpr int kEstimateTrials = 20;
constexpr int kDecomposeBlock = 26;
/// join_decompose cycles through these shapes: every topology and size
/// 8-12, picked so that each costs at least 1.3x the previous one (155 ms
/// to 1.2 s serially). With distinct costs, each percentile of a run of
/// whole cycles falls on one shape's block of ops instead of flipping
/// between shapes of near-equal cost.
const std::vector<std::pair<std::string, int>> kJoinShapes = {
    {"cycle", 8}, {"star", 8},   {"star", 9},  {"chain", 8},
    {"chain", 12}, {"chain", 10}, {"star", 11}};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "qqo_bench: %s\n", message.c_str());
  std::exit(2);
}

std::string Fmt6(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

std::string Fmt17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool Close(double a, double b) {
  return std::abs(a - b) <=
         1e-9 * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

JsonValue ReadJsonFile(const fs::path& path) {
  std::optional<std::string> text = ReadFileToString(path.string());
  if (!text.has_value()) Die("cannot read " + path.string());
  StatusOr<JsonValue> json = JsonValue::ParseOrStatus(*text);
  if (!json.ok()) Die(path.string() + ": " + json.status().ToString());
  return *std::move(json);
}

std::vector<JsonValue> ReadJsonLines(const fs::path& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path.string());
  std::vector<JsonValue> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    StatusOr<JsonValue> row = JsonValue::ParseOrStatus(line);
    if (!row.ok()) Die(path.string() + ": " + row.status().ToString());
    rows.push_back(*std::move(row));
  }
  return rows;
}

void WriteFile(const fs::path& path, const std::string& text) {
  if (!WriteStringToFile(path.string(), text)) {
    Die("cannot write " + path.string());
  }
}

JsonValue Num(double value) { return JsonValue::Number(value); }
JsonValue Str(const std::string& value) { return JsonValue::String(value); }

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The value after "prefix" on the first line starting with it.
std::optional<std::string> Field(const std::vector<std::string>& lines,
                                 const std::string& prefix) {
  for (const std::string& line : lines) {
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Solver options exactly as the entry points build them.
// ---------------------------------------------------------------------------

OptimizerOptions EntryPointOptions(Backend backend, std::uint64_t seed,
                                   int decompose) {
  OptimizerOptions options;
  options.backend = backend;
  options.decompose = decompose;
  options.seed = seed;
  options.anneal.num_reads = 50;
  options.anneal.num_sweeps = 2000;
  options.variational.max_iterations = 250;
  options.variational.shots = 4096;
  options.embedded.anneal.num_reads = 100;
  options.embedded.anneal.num_sweeps = 4000;
  options.budget.retry.max_attempts = 1;
  options.budget.retry.initial_backoff_ms = 10.0;
  options.budget.retry.seed = seed;
  return options;
}

JoinOrderEncoderOptions CliJoinEncoder() {
  JoinOrderEncoderOptions encoder;
  encoder.thresholds = {10.0, 100.0};
  encoder.precision_decimals = 0;
  encoder.safe_slack_bounds = true;
  return encoder;
}

// ---------------------------------------------------------------------------
// Input generation.
// ---------------------------------------------------------------------------

/// The same batch with queries, and plans within each query, permuted.
/// Its QUBO is a variable permutation of the original's.
MqoProblem RelabelMqo(const MqoProblem& problem, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> query_order(static_cast<std::size_t>(problem.NumQueries()));
  for (int q = 0; q < problem.NumQueries(); ++q) query_order[q] = q;
  rng.Shuffle(&query_order);
  MqoProblem relabeled;
  std::vector<int> new_id(static_cast<std::size_t>(problem.NumPlans()), -1);
  int next_plan = 0;
  for (int q : query_order) {
    std::vector<int> plans = problem.PlansOfQuery(q);
    rng.Shuffle(&plans);
    std::vector<double> costs;
    for (int plan : plans) {
      costs.push_back(problem.PlanCost(plan));
      new_id[static_cast<std::size_t>(plan)] = next_plan++;
    }
    relabeled.AddQuery(costs);
  }
  // Savings keep their order: the encoder accumulates them into the
  // coefficients in list order, and a reordered sum could round
  // differently, which would make the QUBO a numerically different problem
  // rather than a relabeling.
  for (const auto& [plans, saving] : problem.Savings()) {
    relabeled.AddSaving(new_id[static_cast<std::size_t>(plans.first)],
                        new_id[static_cast<std::size_t>(plans.second)],
                        saving);
  }
  return relabeled;
}

MqoProblem MakeMqo(int queries, int plans, std::uint64_t seed) {
  MqoGeneratorOptions gen;
  gen.num_queries = queries;
  gen.plans_per_query = plans;
  gen.seed = seed;
  return GenerateMqoProblem(gen);
}

/// device_paths instance: one of kDeviceShapes fixed savings structures
/// (the embedder's input graph) with plan costs raised and savings lowered
/// by at most 5%, which keeps every saving below its plans' costs.
MqoProblem MakeDeviceMqo(int shape, std::uint64_t seed) {
  const MqoProblem base = MakeMqo(kDeviceQueries, kDevicePlans,
                                  1000 + static_cast<std::uint64_t>(shape));
  Rng rng(seed);
  MqoProblem problem;
  for (int q = 0; q < base.NumQueries(); ++q) {
    std::vector<double> costs;
    for (int plan : base.PlansOfQuery(q)) {
      costs.push_back(base.PlanCost(plan) * (1.0 + rng.NextDouble(0.0, 0.05)));
    }
    problem.AddQuery(costs);
  }
  for (const auto& [plans, saving] : base.Savings()) {
    problem.AddSaving(plans.first, plans.second,
                      saving * (1.0 - rng.NextDouble(0.0, 0.05)));
  }
  return problem;
}

/// Request body without its id; run.py prepends {"id":"...", per op.
std::string MqoRequestBody(const MqoProblem& problem) {
  JsonValue request = JsonValue::Object();
  request.Set("type", Str("mqo"));
  request.Set("backend", Str("sa"));
  request.Set("seed", Num(static_cast<double>(kRequestSeed)));
  request.Set("workload", MqoProblemToJson(problem));
  return request.Dump();
}

/// Fresh inputs keep their shape and move their weights by at most 5%:
/// how much work a solve does depends on the shape (the decomposer's round
/// count swings 2-8x across random weights of one shape), and a seed must
/// not change how much work a run measures.
double Jitter(Rng& rng) { return 1.0 + rng.NextDouble(-0.05, 0.05); }

/// A chain, star or cycle join graph: cardinality 1000 and selectivity 0.1
/// (the `qqo generate join` fixed-topology convention), jittered per seed.
QueryGraph MakeJoinGraph(const std::string& topology, int relations,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> cardinality(static_cast<std::size_t>(relations));
  for (double& c : cardinality) c = 1000.0 * Jitter(rng);
  QueryGraph graph(cardinality);
  auto add = [&](int a, int b) { graph.AddPredicate(a, b, 0.1 * Jitter(rng)); };
  if (topology == "star") {
    for (int i = 1; i < relations; ++i) add(0, i);
  } else {
    for (int i = 0; i + 1 < relations; ++i) add(i, i + 1);
    if (topology == "cycle") add(relations - 1, 0);
  }
  return graph;
}

JsonValue Argv(std::initializer_list<std::string> args) {
  JsonValue argv = JsonValue::Array();
  for (const std::string& arg : args) argv.Append(Str(arg));
  return argv;
}

/// One CLI op: the qqo invocations it makes (argv without the program).
JsonValue CliItem(const std::string& workload, const std::string& file,
                  int base) {
  JsonValue item = JsonValue::Object();
  item.Set("file", Str(file));
  item.Set("base", Num(base));
  JsonValue runs = JsonValue::Array();
  if (workload == "join_decompose") {
    runs.Append(Argv({"join", file, "--backend=sa",
                      "--decompose=" + std::to_string(kDecomposeBlock)}));
  } else {
    runs.Append(Argv({"estimate", "mqo", file, "--device=mumbai",
                      "--trials=" + std::to_string(kEstimateTrials)}));
    runs.Append(Argv({"mqo", file, "--backend=qaoa"}));
    runs.Append(Argv({"mqo", file, "--backend=annealer"}));
  }
  item.Set("runs", runs);
  return item;
}

JsonValue ServeItem(const MqoProblem& problem, int base, bool relabeled) {
  JsonValue item = JsonValue::Object();
  item.Set("line", Str(MqoRequestBody(problem)));
  item.Set("base", Num(base));
  item.Set("relabeled", JsonValue::Bool(relabeled));
  return item;
}

int RunGen(const std::string& workload, std::uint64_t seed, int count,
           const fs::path& dir) {
  fs::create_directories(dir / "inputs");
  std::uint64_t root = seed;
  for (unsigned char c : workload) root = HashCombine(root, c);
  JsonValue warm = JsonValue::Array();
  JsonValue ops = JsonValue::Array();
  bool cycle = false;
  // Every run completes at least the first prefix_ops ops; the result
  // digest and the plan-quality figures cover exactly those, so they are
  // identical across runs with one seed however many ops a run fits.
  int prefix_ops = 32;
  int period = 1;  // ops per cycle of input shapes
  if (workload == "serve_fresh") {
    // Set-up: as many fixed batches as serve_repeat solves.
    for (int b = 0; b < kRepeatBases; ++b) {
      warm.Append(ServeItem(
          MakeMqo(kServeQueries, kServePlans, HashCombine(kWarmSeed, b)), -1, false));
    }
    for (int i = 0; i < count; ++i) {
      ops.Append(ServeItem(MakeMqo(kServeQueries, kServePlans, HashCombine(root, i)),
                           i, false));
    }
  } else if (workload == "serve_repeat") {
    // Op i repeats batch i % K; each block of K ops alternates between the
    // verbatim request (exact hit) and the next relabeling (isomorphic hit).
    std::vector<MqoProblem> bases;
    for (int b = 0; b < kRepeatBases; ++b) {
      bases.push_back(MakeMqo(kRepeatQueries, kServePlans, HashCombine(root, b)));
      warm.Append(ServeItem(bases.back(), b, false));
    }
    for (int r = 0; r < kRepeatRelabelings; ++r) {
      for (int b = 0; b < kRepeatBases; ++b) ops.Append(ServeItem(bases[b], b, false));
      for (int b = 0; b < kRepeatBases; ++b) {
        ops.Append(ServeItem(RelabelMqo(bases[b], HashCombine(root, 1000 + r * 16 + b)),
                             b, true));
      }
    }
    cycle = true;
    prefix_ops = 2 * kRepeatBases * kRepeatRelabelings;
  } else if (workload == "join_decompose") {
    // Op i solves shape i % kJoinShapes.size(); the seed draws the weights.
    const int shapes = static_cast<int>(kJoinShapes.size());
    for (int i = -1; i < count; ++i) {
      const auto& [topology, relations] =
          i < 0 ? std::pair<std::string, int>{"chain", 9}
                : kJoinShapes[static_cast<std::size_t>(i % shapes)];
      const std::string file =
          "inputs/" + (i < 0 ? std::string("warm") : std::to_string(i)) + ".json";
      const QueryGraph graph = MakeJoinGraph(
          topology, relations,
          i < 0 ? kWarmSeed : HashCombine(root, static_cast<std::uint64_t>(i)));
      if (Status saved = SaveQueryGraph(graph, (dir / file).string());
          !saved.ok()) {
        Die(saved.ToString());
      }
      (i < 0 ? warm : ops).Append(CliItem(workload, file, i));
    }
    prefix_ops = shapes;
    period = shapes;
  } else if (workload == "device_paths") {
    for (int i = -1; i < count; ++i) {
      const std::string file =
          "inputs/" + (i < 0 ? std::string("warm") : std::to_string(i)) + ".json";
      const MqoProblem problem =
          i < 0 ? MakeDeviceMqo(0, kWarmSeed)
                : MakeDeviceMqo(i % kDeviceShapes,
                                HashCombine(root, static_cast<std::uint64_t>(i)));
      if (Status saved = SaveMqoProblem(problem, (dir / file).string());
          !saved.ok()) {
        Die(saved.ToString());
      }
      (i < 0 ? warm : ops).Append(CliItem(workload, file, i));
    }
    prefix_ops = kDeviceShapes;
    period = kDeviceShapes;
  } else {
    Die("unknown workload " + workload);
  }
  JsonValue manifest = JsonValue::Object();
  manifest.Set("workload", Str(workload));
  manifest.Set("seed", Str(std::to_string(seed)));
  manifest.Set("warm", warm);
  manifest.Set("ops", ops);
  manifest.Set("cycle", JsonValue::Bool(cycle));
  manifest.Set("prefix_ops", Num(prefix_ops));
  manifest.Set("period", Num(period));
  WriteFile(dir / "manifest.json", manifest.Dump());
  return 0;
}

// ---------------------------------------------------------------------------
// Shared view of one run: manifest + the entry point's results.
// ---------------------------------------------------------------------------

struct Op {
  std::string phase;  // "warm" or "op"
  int index = 0;      // position within the phase
  const JsonValue* item = nullptr;
  const JsonValue* result = nullptr;  // row of results.jsonl
};

struct Run {
  fs::path dir;
  std::string workload;
  JsonValue manifest;
  std::vector<JsonValue> rows;
  std::vector<Op> ops;  // warm rows first, then op rows, in order
  int prefix_ops = 0;

  bool Serve() const { return workload.rfind("serve_", 0) == 0; }
};

Run LoadRun(const fs::path& dir) {
  Run run;
  run.dir = dir;
  run.manifest = ReadJsonFile(dir / "manifest.json");
  run.workload = run.manifest.Find("workload")->AsString();
  run.prefix_ops = static_cast<int>(run.manifest.Find("prefix_ops")->AsNumber());
  run.rows = ReadJsonLines(dir / "results.jsonl");
  const JsonValue& warm = *run.manifest.Find("warm");
  const JsonValue& items = *run.manifest.Find("ops");
  for (const JsonValue& row : run.rows) {
    Op op;
    op.phase = row.Find("phase")->AsString();
    op.index = static_cast<int>(row.Find("index")->AsNumber());
    const JsonValue& list = op.phase == "warm" ? warm : items;
    const std::size_t item = static_cast<std::size_t>(op.index) % list.Size();
    if (op.phase != "warm" && !run.manifest.Find("cycle")->AsBool() &&
        static_cast<std::size_t>(op.index) >= list.Size()) {
      Die("op index beyond the generated inputs");
    }
    op.item = &list.At(item);
    op.result = &row;
    run.ops.push_back(op);
  }
  return run;
}

std::string RequestLine(const Op& op) {
  const std::string body = op.item->Find("line")->AsString();
  return "{\"id\":\"" + op.phase.substr(0, 1) + std::to_string(op.index) +
         "\"," + body.substr(1);
}

/// Parsed instance of a serve item, cached by its line.
struct MqoInstance {
  MqoProblem problem;
  QuboModel qubo;
  double greedy = 0.0;
};

class MqoInstances {
 public:
  const MqoInstance& Get(const Op& op) {
    const std::string& body = op.item->Find("line")->AsString();
    auto it = cache_.find(body);
    if (it != cache_.end()) return it->second;
    StatusOr<serve::ServeRequest> request =
        serve::ParseServeRequest(RequestLine(op), DispatchMode::kSerial);
    if (!request.ok() || !request->mqo.has_value()) Die("unparsable input");
    return Add(body, *request->mqo);
  }
  const MqoInstance& GetFile(const fs::path& path) {
    auto it = cache_.find(path.string());
    if (it != cache_.end()) return it->second;
    StatusOr<MqoProblem> problem = LoadMqoProblem(path.string());
    if (!problem.ok()) Die(problem.status().ToString());
    return Add(path.string(), *problem);
  }

 private:
  const MqoInstance& Add(const std::string& key, const MqoProblem& problem) {
    StatusOr<MqoQuboEncoding> encoding = TryEncodeMqoAsQubo(problem);
    if (!encoding.ok()) Die(encoding.status().ToString());
    MqoInstance instance{problem, encoding->qubo,
                         SolveMqoGreedy(problem).cost};
    return cache_.emplace(key, std::move(instance)).first->second;
  }
  std::map<std::string, MqoInstance> cache_;
};

std::vector<std::uint8_t> OneHot(const MqoProblem& problem,
                                 const std::vector<int>& selection) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(problem.NumPlans()), 0);
  for (int plan : selection) bits[static_cast<std::size_t>(plan)] = 1;
  return bits;
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

/// FNV-1a over the canonical result strings of the first prefix_ops ops.
class Digest {
 public:
  void Add(const std::string& text) {
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
    hash_ ^= 0xFF;
    hash_ *= 1099511628211ULL;
  }
  std::string Hex() const {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

struct Checker {
  explicit Checker(Run& r) : run(r) {}

  Run& run;
  MqoInstances mqo;
  std::vector<std::string> mismatches;
  int failed = 0;     // measured ops that failed (error / refusal / exit)
  int attempted = 0;  // measured ops
  int solves = 0;
  int valid = 0;
  double gap_sum = 0.0;
  int gap_count = 0;
  Digest digest;
  /// serve_repeat: cost of each set-up batch's miss, by base.
  std::map<int, double> base_cost;

  void Mismatch(const Op& op, const std::string& what) {
    mismatches.push_back(op.phase + " " + std::to_string(op.index) + ": " + what);
  }

  void Quality(bool is_valid, double cost, double baseline) {
    ++solves;
    if (!is_valid) return;
    ++valid;
    gap_sum += (cost - baseline) / std::abs(baseline);
    ++gap_count;
  }

  /// Returns false when the op failed (error response).
  bool CheckServe(const Op& op) {
    const MqoInstance& instance = mqo.Get(op);
    StatusOr<JsonValue> response =
        JsonValue::ParseOrStatus(op.result->Find("response")->AsString());
    if (!response.ok()) {
      Mismatch(op, "response is not JSON");
      return false;
    }
    const JsonValue* id = response->Find("id");
    const std::string want_id = op.phase.substr(0, 1) + std::to_string(op.index);
    if (id == nullptr || !id->IsString() || id->AsString() != want_id) {
      Mismatch(op, "response id does not match the request");
    }
    const JsonValue* ok = response->Find("ok");
    if (ok == nullptr || !ok->IsBool() || !ok->AsBool()) return false;
    const JsonValue* result = response->Find("result");
    if (result == nullptr || !result->IsObject()) {
      Mismatch(op, "ok response without a result");
      return true;
    }
    const bool is_valid = result->Find("valid") != nullptr &&
                          result->Find("valid")->AsBool();
    const JsonValue* selection_json = result->Find("selection");
    std::vector<int> selection;
    if (selection_json != nullptr) {
      for (std::size_t i = 0; i < selection_json->Size(); ++i) {
        selection.push_back(static_cast<int>(selection_json->At(i).AsNumber()));
      }
    }
    const bool decodes =
        selection_json != nullptr && instance.problem.IsValidSelection(selection);
    if (is_valid != decodes) {
      Mismatch(op, "\"valid\" disagrees with the returned selection");
      return true;
    }
    if (result->Find("backend")->AsString() != "sa" ||
        result->Find("degraded")->AsBool() || result->Find("timed_out")->AsBool()) {
      Mismatch(op, "solve did not run on the requested SA backend to completion");
    }
    double cost = 0.0;
    if (is_valid) {
      cost = result->Find("cost")->AsNumber();
      if (!Close(cost, instance.problem.SelectionCost(selection))) {
        Mismatch(op, "reported cost != recomputed selection cost");
      }
      const double energy = result->Find("energy")->AsNumber();
      if (!Close(energy, instance.qubo.Energy(OneHot(instance.problem, selection)))) {
        Mismatch(op, "reported energy != QuboModel::Energy of the returned plan");
      }
    }
    const bool cached = response->Find("cached")->AsBool();
    const int base = static_cast<int>(op.item->Find("base")->AsNumber());
    if (run.workload == "serve_repeat") {
      if (op.phase == "warm") {
        if (cached) Mismatch(op, "set-up batch was served from the cache");
        base_cost[base] = cost;
      } else if (cached) {
        auto it = base_cost.find(base);
        if (it == base_cost.end() || !is_valid || !Close(it->second, cost)) {
          Mismatch(op, "cache hit returned a different plan cost than its miss");
        }
      }
    } else if (cached) {
      Mismatch(op, "a distinct batch was served from the cache");
    }
    if (op.phase == "op" && op.index < run.prefix_ops) {
      Quality(is_valid, cost, instance.greedy);
      digest.Add(std::to_string(op.index) + (is_valid ? " valid " : " invalid ") +
                 Fmt17(cost) + " " + (selection_json ? selection_json->Dump() : ""));
    }
    return true;
  }

  /// Parses one `qqo mqo|join` report; returns false when the op failed.
  bool CheckSolveReport(const Op& op, const JsonValue& run_row,
                        const std::string& backend, bool join) {
    const int exit_code = static_cast<int>(run_row.Find("exit")->AsNumber());
    const std::vector<std::string> lines =
        Lines(run_row.Find("stdout")->AsString());
    const std::string invalid_line =
        join ? "result: INVALID (backend returned a non-permutation)"
             : "result: INVALID (backend returned a non-selection)";
    const bool reported_invalid =
        std::find(lines.begin(), lines.end(), invalid_line) != lines.end();
    if (exit_code != 0 && !(exit_code == 1 && reported_invalid)) return false;
    if (Field(lines, "backend: ") != backend) {
      Mismatch(op, backend + " solve reported backend " +
                       Field(lines, "backend: ").value_or("(none)"));
    }
    const fs::path file = run.dir / op.item->Find("file")->AsString();
    int qubits = 0;
    int terms = 0;
    bool is_valid = false;
    double cost = 0.0;
    double baseline = 0.0;
    if (join) {
      StatusOr<QueryGraph> graph = LoadQueryGraph(file.string());
      if (!graph.ok()) Die(graph.status().ToString());
      StatusOr<JoinOrderEncoding> encoding =
          TryEncodeJoinOrderAsBilp(*graph, CliJoinEncoder());
      if (!encoding.ok()) Die(encoding.status().ToString());
      const QuboModel qubo = EncodeBilpAsQubo(encoding->bilp).qubo;
      qubits = qubo.NumVariables();
      terms = qubo.NumQuadraticTerms();
      baseline = SolveJoinOrderGreedy(*graph).cost;
      std::optional<std::string> order_text = Field(lines, "order:");
      std::vector<int> order;
      if (order_text.has_value()) {
        std::istringstream in(*order_text);
        std::string token;
        while (in >> token) order.push_back(std::stoi(token.substr(1)));
      }
      is_valid = order_text.has_value() && IsValidJoinOrder(*graph, order);
      if (is_valid) {
        cost = CoutCost(*graph, order);
        if (Field(lines, "C_out cost: ") != Fmt6(cost)) {
          Mismatch(op, "reported C_out cost != recomputed CoutCost");
        }
      }
      // Decomposition: round energies never increase (apply-or-revert
      // stitching plus tabu refinement keep the incumbent monotone).
      std::optional<std::string> energies = Field(lines, "decompose energies:");
      if (!energies.has_value()) {
        Mismatch(op, "decomposed solve printed no round energies");
      } else {
        std::istringstream in(*energies);
        double previous = INFINITY;
        double energy = 0.0;
        while (in >> energy) {
          if (energy > previous) Mismatch(op, "decompose round energy increased");
          previous = energy;
        }
      }
    } else {
      const MqoInstance& instance = mqo.GetFile(file);
      qubits = instance.qubo.NumVariables();
      terms = instance.qubo.NumQuadraticTerms();
      baseline = instance.greedy;
      std::optional<std::string> selection_text =
          Field(lines, "selection (query: plan):");
      std::vector<int> selection;
      if (selection_text.has_value()) {
        std::istringstream in(*selection_text);
        std::string token;
        while (in >> token) {
          selection.push_back(std::stoi(token.substr(token.find(':') + 1)));
        }
      }
      is_valid = selection_text.has_value() &&
                 instance.problem.IsValidSelection(selection);
      if (is_valid) {
        cost = instance.problem.SelectionCost(selection);
        if (Field(lines, "cost: ") != Fmt6(cost)) {
          Mismatch(op, "reported cost != recomputed selection cost");
        }
      }
    }
    if (is_valid == reported_invalid || is_valid != (exit_code == 0)) {
      Mismatch(op, "validity verdict disagrees with the returned plan");
    }
    if (Field(lines, "qubits: ") != std::to_string(qubits) ||
        Field(lines, "quadratic terms: ") != std::to_string(terms)) {
      Mismatch(op, "reported QUBO size != the encoder's");
    }
    if (op.phase == "op" && op.index < run.prefix_ops) {
      Quality(is_valid, cost, baseline);
    }
    return true;
  }

  bool CheckEstimate(const Op& op, const JsonValue& run_row) {
    if (run_row.Find("exit")->AsNumber() != 0) return false;
    const std::vector<std::string> lines =
        Lines(run_row.Find("stdout")->AsString());
    const MqoInstance& instance =
        mqo.GetFile(run.dir / op.item->Find("file")->AsString());
    const std::string qubits =
        std::to_string(instance.qubo.NumVariables()) + " (device offers 27)";
    if (Field(lines, "logical qubits: ") != qubits ||
        Field(lines, "quadratic terms: ") !=
            std::to_string(instance.qubo.NumQuadraticTerms()) ||
        !Field(lines, "QAOA depth: ").has_value() ||
        !Field(lines, "VQE depth:  ").has_value()) {
      Mismatch(op, "estimate report does not describe the instance");
    }
    return true;
  }

  bool CheckCli(const Op& op) {
    const JsonValue& runs = *op.result->Find("runs");
    const JsonValue& argvs = *op.item->Find("runs");
    if (runs.Size() != argvs.Size()) {
      Mismatch(op, "wrong number of invocations recorded");
      return false;
    }
    bool ok = true;
    for (std::size_t r = 0; r < runs.Size(); ++r) {
      const std::string command = argvs.At(r).At(0).AsString();
      if (command == "estimate") {
        ok = CheckEstimate(op, runs.At(r)) && ok;
      } else if (command == "join") {
        ok = CheckSolveReport(op, runs.At(r), "sa", true) && ok;
      } else {
        const std::string flag = argvs.At(r).At(2).AsString();
        ok = CheckSolveReport(op, runs.At(r), flag.substr(flag.find('=') + 1),
                              false) && ok;
      }
      if (op.phase == "op" && op.index < run.prefix_ops) {
        digest.Add(std::to_string(op.index) + " " + command + " exit " +
                   Fmt6(runs.At(r).Find("exit")->AsNumber()) + "\n" +
                   runs.At(r).Find("stdout")->AsString());
      }
    }
    return ok;
  }
};

int RunCheck(const fs::path& dir) {
  Run run = LoadRun(dir);
  Checker checker(run);
  for (const Op& op : run.ops) {
    const bool ok = run.Serve() ? checker.CheckServe(op) : checker.CheckCli(op);
    if (op.phase == "op") {
      ++checker.attempted;
      if (!ok) ++checker.failed;
    } else if (!ok) {
      checker.Mismatch(op, "set-up op failed");
    }
  }
  if (checker.attempted < run.prefix_ops) {
    checker.mismatches.push_back("fewer ops than the fixed prefix every run completes");
  }
  JsonValue summary = JsonValue::Object();
  summary.Set("correct", JsonValue::Bool(checker.mismatches.empty()));
  JsonValue mismatches = JsonValue::Array();
  for (std::size_t i = 0; i < checker.mismatches.size() && i < 20; ++i) {
    mismatches.Append(Str(checker.mismatches[i]));
  }
  summary.Set("mismatches", mismatches);
  summary.Set("mismatch_count", Num(static_cast<double>(checker.mismatches.size())));
  summary.Set("attempted", Num(checker.attempted));
  summary.Set("failed", Num(checker.failed));
  summary.Set("solves", Num(checker.solves));
  summary.Set("valid_plan_rate",
              Num(checker.solves > 0 ? static_cast<double>(checker.valid) /
                                           checker.solves
                                     : 0.0));
  summary.Set("plan_cost_gap", checker.gap_count > 0
                                   ? Num(checker.gap_sum / checker.gap_count)
                                   : JsonValue::Null());
  summary.Set("digest", Str(checker.digest.Hex()));
  std::printf("%s\n", summary.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace: span recorder and the layer-by-layer replays.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int op = 0;
  int parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// In-memory span store. Disarmed, it records nothing, so the untraced
/// replay pass times the same call sequence without span bookkeeping.
class Recorder {
 public:
  explicit Recorder(bool armed) : armed_(armed), origin_(Clock::now()) {}

  double Now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }
  int Open(const char* name, int op, int parent) {
    if (!armed_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, op, parent, Now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    if (id < 0) return;
    const double end = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ms = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  bool armed() const { return armed_; }

 private:
  const bool armed_;
  const Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Current parent span on this thread (decompose blocks pass it across
/// the pool explicitly).
thread_local int tls_parent = -1;
thread_local int tls_op = 0;

class Scope {
 public:
  Scope(Recorder& recorder, const char* name)
      : recorder_(recorder),
        saved_(tls_parent),
        id_(recorder.Open(name, tls_op, tls_parent)) {
    if (id_ >= 0) tls_parent = id_;
  }
  ~Scope() { End(); }
  void End() {
    if (ended_) return;
    ended_ = true;
    recorder_.Close(id_);
    tls_parent = saved_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& recorder_;
  const int saved_;
  const int id_;
  bool ended_ = false;
};

template <typename F>
auto Timed(Recorder& recorder, const char* name, F&& fn) {
  Scope scope(recorder, name);
  return fn();
}

/// Counts the replay gathers besides span times.
struct Counts {
  double qubo_terms = 0, qubo_vars = 0, join_solves = 0, join_valid = 0;
  double proposals = 0, best_reads = 0, reads = 0;
  double embed_attempts = 0, embed_successes = 0, physical_qubits = 0,
         max_chain = 0, embed_ops = 0;
  double transpile_trials = 0, routed_depth = 0, transpile_ops = 0;
  double evaluations = 0;
  double rounds = 0, subproblems = 0, improving_rounds = 0;
  double decompose_ms = 0, block_ms = 0, block_cover_ms = 0;
  double facade_ms = 0, layer_ms = 0;
};

struct Replay {
  Replay(Run& r, Recorder& rec, Counts& c, std::vector<std::string>& m,
         bool with_facade)
      : run(r), recorder(rec), counts(c), mismatches(m), facade(with_facade) {}

  Run& run;
  Recorder& recorder;
  Counts& counts;
  std::mutex counts_mutex;  // decompose blocks anneal on pool workers
  std::vector<std::string>& mismatches;
  serve::SolutionCache cache{kServeCacheCapacity};
  const bool facade;  // also run the facade (untraced pass only)
  bool measured = false;  // current op is a measured op, not set-up history
  double op_facade_ms = 0.0;  // facade time inside the current op

  /// Counts gather in the traced pass, over measured ops only.
  bool Counting() const { return recorder.armed() && measured; }

  void Mismatch(const Op& op, const std::string& what) {
    mismatches.push_back("replay " + op.phase + " " + std::to_string(op.index) +
                         ": " + what);
  }

  AnnealResult Anneal(const QuboModel& qubo, AnnealOptions options) {
    AnnealResult result = Timed(recorder, "anneal.solve", [&] {
      StatusOr<AnnealResult> sa = TrySolveQuboWithAnnealing(qubo, options);
      if (!sa.ok()) Die(sa.status().ToString());
      return *std::move(sa);
    });
    if (Counting()) {
      std::lock_guard<std::mutex> lock(counts_mutex);
      counts.proposals += static_cast<double>(options.num_reads) *
                          options.num_sweeps * qubo.NumVariables();
      counts.reads += static_cast<double>(result.read_energies.size());
      for (double energy : result.read_energies) {
        if (Close(energy, result.best_energy)) counts.best_reads += 1;
      }
    }
    return result;
  }

  /// The serial dispatch's SA attempt: attempt 1 re-seeds the kernel with
  /// AttemptSeed(seed, 1).
  AnnealOptions SaOptions(const OptimizerOptions& options) {
    AnnealOptions anneal = options.anneal;
    anneal.seed = AttemptSeed(options.seed, 1);
    return anneal;
  }

  // ---- qqo_serve: Server::SolveMqoRequest, call for call ----------------
  void ServeOp(const Op& op) {
    const std::string line = RequestLine(op);
    const serve::ServeRequest request = Timed(recorder, "serve.parse", [&] {
      StatusOr<serve::ServeRequest> parsed =
          serve::ParseServeRequest(line, DispatchMode::kSerial);
      if (!parsed.ok()) Die(parsed.status().ToString());
      return *std::move(parsed);
    });
    const MqoProblem& problem = *request.mqo;
    const MqoQuboEncoding encoding = Timed(recorder, "mqo.encode", [&] {
      return *TryEncodeMqoAsQubo(problem);
    });
    if (Counting()) counts.qubo_terms += encoding.qubo.NumQuadraticTerms();
    const QuboSignature signature = Timed(recorder, "qubo.signature", [&] {
      return ComputeQuboSignature(encoding.qubo);
    });
    // The daemon's options hash is constant across this workload's
    // requests (same backend, seed and flags), so 0 stands in for it.
    serve::CacheEntry entry;
    const serve::CacheHitKind kind = Timed(recorder, "cache.lookup", [&] {
      return cache.Lookup(signature.canonical_hash, 0, signature.exact_hash,
                          &entry);
    });
    std::string response;
    if (kind == serve::CacheHitKind::kExact) {
      response = Timed(recorder, "serve.render", [&] {
        return serve::MakeOkResponse(request.id, true,
                                     *JsonValue::ParseOrStatus(entry.payload));
      });
    } else if (kind == serve::CacheHitKind::kIsomorphic) {
      const auto [bits, energy] = Timed(recorder, "qubo.verify", [&] {
        std::vector<std::uint8_t> mapped =
            MapBitsFromCanonical(signature, entry.canonical_bits);
        const double e = encoding.qubo.Energy(mapped);
        return std::make_pair(mapped, e);
      });
      std::vector<int> selection;
      const bool decoded = Timed(recorder, "mqo.decode", [&] {
        return problem.DecodeBits(bits, &selection);
      });
      if (!decoded || !Close(energy, entry.energy)) {
        Mismatch(op, "isomorphic hit failed verification in the replay");
        return;
      }
      response = Timed(recorder, "serve.render", [&] {
        JsonValue payload = *JsonValue::ParseOrStatus(entry.payload);
        payload.Set("energy", Num(energy));
        payload.Set("cost", Num(problem.SelectionCost(selection)));
        JsonValue selection_json = JsonValue::Array();
        for (int plan : selection) selection_json.Append(Num(plan));
        payload.Set("selection", selection_json);
        return serve::MakeOkResponse(request.id, true, payload);
      });
    } else {
      const OptimizerOptions options =
          EntryPointOptions(request.backend, request.seed, request.decompose);
      const double solve_start = recorder.Now();
      const AnnealResult sa = Anneal(encoding.qubo, SaOptions(options));
      MqoSolveReport report;
      report.qubits = encoding.qubo.NumVariables();
      report.quadratic_terms = encoding.qubo.NumQuadraticTerms();
      report.backend_used = Backend::kSimulatedAnnealing;
      report.qubo_energy = sa.best_energy;
      report.bits = sa.best_bits;
      std::vector<int> selection;
      report.valid = Timed(recorder, "mqo.decode", [&] {
        return problem.DecodeBits(report.bits, &selection);
      });
      if (report.valid) {
        report.solution.cost = problem.SelectionCost(selection);
        report.solution.selection = selection;
      }
      const double layers_ms = recorder.Now() - solve_start;
      CompareFacade(op, [&] { return TrySolveMqo(problem, options); }, report,
                    layers_ms);
      JsonValue payload;
      response = Timed(recorder, "serve.render", [&] {
        payload = serve::MqoReportToJson(report);
        return serve::MakeOkResponse(request.id, false, payload);
      });
      if (report.valid) {
        Timed(recorder, "cache.insert", [&] {
          serve::CacheEntry inserted;
          inserted.exact_hash = signature.exact_hash;
          inserted.canonical_bits = MapBitsToCanonical(signature, report.bits);
          inserted.energy = report.qubo_energy;
          inserted.payload = payload.Dump();
          cache.Insert(signature.canonical_hash, 0, std::move(inserted));
          return 0;
        });
      }
    }
    if (response != op.result->Find("response")->AsString()) {
      Mismatch(op, "replayed response differs from qqo_serve's");
    }
  }

  /// Untraced pass: times the facade on the same instance (its span minus
  /// the replayed layer spans is the dispatch overhead) and checks that the
  /// layer-by-layer replay reproduced the facade's bits, energy and plan.
  template <typename Facade, typename Report>
  void CompareFacade(const Op& op, Facade&& solve, const Report& replayed,
                     double layers_ms) {
    if (!facade || !measured) return;
    const double start = recorder.Now();
    auto report = solve();
    op_facade_ms += recorder.Now() - start;
    counts.facade_ms += recorder.Now() - start;
    counts.layer_ms += layers_ms;
    if (!report.ok()) Die(report.status().ToString());
    if (report->bits != replayed.bits || report->qubo_energy != replayed.qubo_energy ||
        report->valid != replayed.valid) {
      Mismatch(op, "layer replay differs from the facade's bits or energy");
    }
  }

  // ---- qqo join --backend=sa --decompose=26 -----------------------------
  void JoinOp(const Op& op) {
    const fs::path file = run.dir / op.item->Find("file")->AsString();
    const QueryGraph graph = Timed(recorder, "io.load", [&] {
      return *LoadQueryGraph(file.string());
    });
    const double solve_start = recorder.Now();
    const JoinOrderEncoderOptions encoder = CliJoinEncoder();
    const auto [encoding, qubo] = Timed(recorder, "joinorder.encode", [&] {
      JoinOrderEncoding e = *TryEncodeJoinOrderAsBilp(graph, encoder);
      QuboModel q = EncodeBilpAsQubo(e.bilp).qubo;
      return std::make_pair(std::move(e), std::move(q));
    });
    const OptimizerOptions options =
        EntryPointOptions(Backend::kSimulatedAnnealing, kRequestSeed,
                          kDecomposeBlock);
    DecomposeOptions decompose;
    decompose.max_subproblem_size = options.decompose;
    decompose.seed = options.seed;
    const double decompose_start = recorder.Now();
    Scope decompose_span(recorder, "decompose.solve");
    // The facade's block solver (SolveDecomposeSubproblem): SA at <= 8
    // reads and <= 1000 sweeps, seeded with attempt 1 of the block seed.
    const int parent = tls_parent;
    const int op_id = tls_op;
    std::mutex block_mutex;
    std::vector<std::pair<double, double>> blocks;
    const SubproblemSolver solver = [&](const QuboModel& subproblem,
                                        std::uint64_t seed, const Deadline&) {
      tls_parent = parent;
      tls_op = op_id;
      const double start = recorder.Now();
      StatusOr<SubproblemResult> result = [&]() -> StatusOr<SubproblemResult> {
        Scope block(recorder, "decompose.block");
        AnnealOptions anneal = options.anneal;
        anneal.num_reads = std::min(std::max(1, options.anneal.num_reads), 8);
        anneal.num_sweeps = std::min(std::max(1, options.anneal.num_sweeps), 1000);
        anneal.seed = AttemptSeed(seed, 1);
        SubproblemResult solved;
        solved.bits = Anneal(subproblem, anneal).best_bits;
        return solved;
      }();
      std::lock_guard<std::mutex> lock(block_mutex);
      blocks.emplace_back(start, recorder.Now());
      return result;
    };
    StatusOr<DecomposeResult> decomposed =
        SolveQuboDecomposed(qubo, decompose, solver);
    if (!decomposed.ok()) Die(decomposed.status().ToString());
    const DecomposeResult solved = *std::move(decomposed);
    const double decompose_ms = recorder.Now() - decompose_start;
    decompose_span.End();
    JoinOrderSolveReport report;
    report.qubo_energy = solved.energy;
    report.bits = solved.bits;
    std::vector<int> order;
    report.valid = Timed(recorder, "joinorder.decode", [&] {
      return DecodeJoinOrder(encoding, report.bits, &order);
    });
    const double layers_ms = recorder.Now() - solve_start;
    CompareFacade(op, [&] { return TrySolveJoinOrder(graph, encoder, options); },
                  report, layers_ms);
    if (Counting()) {
      counts.qubo_vars += qubo.NumVariables();
      counts.join_solves += 1;
      counts.join_valid += report.valid ? 1 : 0;
      counts.rounds += solved.rounds;
      counts.subproblems += solved.subproblems;
      double previous = qubo.Energy(std::vector<std::uint8_t>(
          static_cast<std::size_t>(qubo.NumVariables()), 0));
      for (double energy : solved.round_energies) {
        if (energy < previous) counts.improving_rounds += 1;
        previous = energy;
      }
      counts.decompose_ms += decompose_ms;
      std::sort(blocks.begin(), blocks.end());
      double cover = 0.0;
      double reach = -INFINITY;
      for (const auto& [start, end] : blocks) {
        counts.block_ms += end - start;
        cover += std::max(0.0, end - std::max(start, reach));
        reach = std::max(reach, end);
      }
      counts.block_cover_ms += cover;
    }
    // Parity with the CLI's stdout report.
    const std::vector<std::string> lines =
        Lines(op.result->Find("runs")->At(0).Find("stdout")->AsString());
    std::string energies;
    for (double energy : solved.round_energies) {
      energies += ' ';
      energies += Fmt6(energy);
    }
    if (Field(lines, "decompose energies:") != energies ||
        Field(lines, "decompose rounds: ") !=
            std::to_string(solved.rounds) + " (" +
                std::to_string(solved.subproblems) + " subproblems)" ||
        report.valid != Field(lines, "order:").has_value() ||
        !Close(solved.energy, qubo.Energy(solved.bits))) {
      Mismatch(op, "replayed decomposition differs from qqo join's report");
    }
  }

  // ---- qqo estimate / mqo --backend=qaoa / mqo --backend=annealer -------
  void DeviceOp(const Op& op) {
    const fs::path file = run.dir / op.item->Find("file")->AsString();
    const JsonValue& runs = *op.result->Find("runs");
    // Every qqo invocation loads and encodes the workload file itself.
    MqoProblem problem;
    auto encode = [&] {
      problem = Timed(recorder, "io.load",
                      [&] { return *LoadMqoProblem(file.string()); });
      return Timed(recorder, "mqo.encode",
                   [&] { return TryEncodeMqoAsQubo(problem)->qubo; });
    };
    // estimate mqo --device=mumbai --trials=20 (EstimateGateResources).
    {
      const QuboModel qubo = encode();
      const CouplingMap coupling = MakeMumbai27();
      const IsingModel ising = QuboToIsing(qubo);
      const QuantumCircuit qaoa = BuildQaoaTemplate(ising, 1);
      const QuantumCircuit vqe = BuildVqeTemplate(qubo.NumVariables(), 3);
      std::vector<std::uint64_t> seeds;
      for (int t = 0; t < kEstimateTrials; ++t) seeds.push_back(t);
      double qaoa_depth = 0.0;
      Timed(recorder, "transpile.route", [&] {
        for (const QuantumCircuit* circuit : {&qaoa, &vqe}) {
          StatusOr<std::vector<TranspileResult>> routed =
              TryTranspileManySeeds(*circuit, coupling, seeds);
          if (!routed.ok()) Die(routed.status().ToString());
          if (circuit == &qaoa) {
            for (const TranspileResult& r : *routed) qaoa_depth += r.depth;
            qaoa_depth /= static_cast<double>(routed->size());
          }
        }
        return 0;
      });
      if (Counting()) {
        counts.transpile_ops += 1;
        counts.transpile_trials += 2.0 * kEstimateTrials;
        counts.routed_depth += qaoa_depth;
      }
      char routed_text[32];
      std::snprintf(routed_text, sizeof(routed_text), "%.1f routed", qaoa_depth);
      if (runs.At(0).Find("stdout")->AsString().find(routed_text) ==
          std::string::npos) {
        Mismatch(op, "replayed routed QAOA depth differs from qqo estimate's");
      }
      if (facade) {
        const GateResourceEstimate estimate = EstimateGateResources(
            qubo, coupling, MumbaiDevice(), [] {
              GateEstimateOptions o;
              o.transpile_trials = kEstimateTrials;
              return o;
            }());
        if (!Close(estimate.qaoa_depth_device, qaoa_depth)) {
          Mismatch(op, "replayed routing differs from EstimateGateResources");
        }
      }
    }
    if (Counting()) {
      counts.qubo_terms += TryEncodeMqoAsQubo(problem)->qubo.NumQuadraticTerms();
    }
    // mqo --backend=qaoa and --backend=annealer.
    for (const Backend backend : {Backend::kQaoa, Backend::kAnnealerEmulation}) {
      const QuboModel qubo = encode();
      const double solve_start = recorder.Now();
      const OptimizerOptions options = EntryPointOptions(backend, kRequestSeed, 0);
      const std::uint64_t seed = AttemptSeed(options.seed, 1);
      MqoSolveReport report;
      if (backend == Backend::kQaoa) {
        VariationalOptions variational = options.variational;
        variational.seed = seed;
        const VariationalResult result = Timed(recorder, "variational.qaoa", [&] {
          StatusOr<VariationalResult> r = TrySolveQuboWithQaoa(qubo, variational);
          if (!r.ok()) Die(r.status().ToString());
          return *std::move(r);
        });
        if (Counting()) counts.evaluations += result.evaluations;
        report.bits = result.best_bits;
        report.qubo_energy = result.best_energy;
      } else {
        EmbeddedSolveOptions embedded = options.embedded;
        embedded.embed.seed = seed;
        embedded.anneal.seed = seed;
        const SimpleGraph topology = MakePegasus(options.pegasus_m);
        // The embedder's own retry loop, one try at a time, to count
        // attempts (TryFindMinorEmbedding re-seeds try k with +0x9E37 k).
        const std::optional<Embedding> embedding = Timed(recorder, "embed.find", [&] {
          std::optional<Embedding> found;
          for (int attempt = 0; attempt < embedded.embed.tries && !found; ++attempt) {
            EmbedOptions one = embedded.embed;
            one.tries = 1;
            one.seed = embedded.embed.seed + 0x9E37u * static_cast<std::uint64_t>(attempt);
            StatusOr<Embedding> e =
                TryFindMinorEmbedding(qubo.InteractionGraph(), topology, one);
            if (Counting()) counts.embed_attempts += 1;
            if (e.ok()) found = *std::move(e);
          }
          return found;
        });
        const EmbeddedSolveResult result = Timed(recorder, "anneal.embedded_solve", [&] {
          StatusOr<EmbeddedSolveResult> r =
              TrySolveQuboOnTopology(qubo, topology, embedded);
          if (!r.ok()) Die(r.status().ToString());
          return *std::move(r);
        });
        if (!embedding.has_value() || embedding->chains != result.embedding.chains) {
          Mismatch(op, "replayed embedding differs from the composite's");
        } else if (Counting()) {
          counts.embed_successes += 1;
          counts.embed_ops += 1;
          counts.physical_qubits += embedding->NumPhysicalQubits();
          counts.max_chain += embedding->MaxChainLength();
        }
        report.bits = result.bits;
        report.qubo_energy = result.energy;
      }
      std::vector<int> selection;
      report.valid = Timed(recorder, "mqo.decode", [&] {
        return problem.DecodeBits(report.bits, &selection);
      });
      const double layers_ms = recorder.Now() - solve_start;
      CompareFacade(op, [&] { return TrySolveMqo(problem, options); }, report,
                    layers_ms);
      const std::string& out =
          runs.At(backend == Backend::kQaoa ? 1 : 2).Find("stdout")->AsString();
      std::string plan = "selection (query: plan):";
      for (int q = 0; q < problem.NumQueries() && report.valid; ++q) {
        plan += ' ';
        plan += std::to_string(q);
        plan += ':';
        plan += std::to_string(selection[q]);
      }
      if (report.valid != (out.find(plan + "\n") != std::string::npos) ||
          !Close(report.qubo_energy, qubo.Energy(report.bits))) {
        Mismatch(op, "replayed plan differs from qqo mqo's report");
      }
    }
  }

  /// Replays one op; returns its wall time in ms, facade calls excluded.
  double RunOp(const Op& op, int op_number) {
    tls_op = op_number;
    measured = op.phase == "op";
    op_facade_ms = 0.0;
    const double start = recorder.Now();
    {
      Scope root(recorder, "op");
      if (run.Serve()) {
        ServeOp(op);
      } else if (run.workload == "join_decompose") {
        JoinOp(op);
      } else {
        DeviceOp(op);
      }
    }
    return recorder.Now() - start - op_facade_ms;
  }
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int RunTrace(const fs::path& dir, int max_ops) {
  Run run = LoadRun(dir);
  // Serve replays need the daemon's cache history: every set-up request
  // first. CLI ops are independent processes: measured ops only.
  std::vector<Op> ops;
  int measured = 0;
  for (const Op& op : run.ops) {
    if (op.phase == "warm" && !run.Serve()) continue;
    if (op.phase == "op" && measured++ >= max_ops) break;
    ops.push_back(op);
  }
  std::vector<std::string> mismatches;
  Counts untraced_counts;
  Counts counts;
  // Pass 1, spans disarmed: per-op time and the facade comparison.
  Recorder quiet(false);
  Replay pass1(run, quiet, untraced_counts, mismatches, true);
  std::vector<double> untraced_ms;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    untraced_ms.push_back(pass1.RunOp(ops[i], static_cast<int>(i)));
  }
  // Pass 2, spans armed.
  Recorder recorder(true);
  Replay pass2(run, recorder, counts, mismatches, false);
  std::vector<double> traced_ms;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    traced_ms.push_back(pass2.RunOp(ops[i], static_cast<int>(i)));
  }

  // Aggregate measured ops only (serve set-up requests are history).
  std::vector<bool> counted(ops.size(), false);
  int n = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    counted[i] = ops[i].phase == "op";
    n += counted[i] ? 1 : 0;
  }
  const double per_op = n > 0 ? 1.0 / n : 0.0;
  std::map<std::string, double> layer_ms;
  for (const Span& span : recorder.spans()) {
    if (counted[static_cast<std::size_t>(span.op)]) {
      layer_ms[span.name] += (span.end_ms - span.start_ms) * per_op;
    }
  }
  std::vector<double> overhead;
  std::vector<double> wait;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!counted[i]) continue;
    overhead.push_back(traced_ms[i] - untraced_ms[i]);
    if (run.Serve()) {
      wait.push_back(ops[i].result->Find("latency_ms")->AsNumber() -
                     traced_ms[i]);
    }
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double threads = ThreadPool::Default().NumThreads();
  JsonValue metrics = JsonValue::Object();
  auto set = [&](const std::string& name, double value) {
    metrics.Set(name, Num(value));
  };
  set("serve.parse_ms", layer_ms["serve.parse"]);
  set("serve.render_ms", layer_ms["serve.render"]);
  set("serve.wait_ms", Median(wait));
  set("cache.lookup_ms", layer_ms["cache.lookup"]);
  set("cache.insert_ms", layer_ms["cache.insert"]);
  set("qubo.signature_ms", layer_ms["qubo.signature"]);
  set("qubo.verify_ms", layer_ms["qubo.verify"]);
  set("mqo.encode_ms", layer_ms["mqo.encode"]);
  set("mqo.decode_ms", layer_ms["mqo.decode"]);
  set("mqo.qubo_terms", counts.qubo_terms * per_op);
  set("joinorder.encode_ms", layer_ms["joinorder.encode"]);
  set("joinorder.decode_ms", layer_ms["joinorder.decode"]);
  set("joinorder.qubo_vars", ratio(counts.qubo_vars, counts.join_solves));
  set("joinorder.valid_ratio", ratio(counts.join_valid, counts.join_solves));
  set("anneal.solve_ms", layer_ms["anneal.solve"]);
  set("anneal.proposals", counts.proposals * per_op);
  set("anneal.ns_per_proposal",
      ratio(layer_ms["anneal.solve"] * n * 1e6, counts.proposals));
  set("anneal.best_read_ratio", ratio(counts.best_reads, counts.reads));
  set("embed.ms", layer_ms["embed.find"]);
  set("embed.attempts", counts.embed_attempts * per_op);
  set("embed.success_ratio", ratio(counts.embed_successes, counts.embed_attempts));
  set("embed.physical_qubits", ratio(counts.physical_qubits, counts.embed_ops));
  set("embed.max_chain", ratio(counts.max_chain, counts.embed_ops));
  set("transpile.ms", layer_ms["transpile.route"]);
  set("transpile.trials", counts.transpile_trials * per_op);
  set("transpile.routed_depth", ratio(counts.routed_depth, counts.transpile_ops));
  set("variational.qaoa_ms", layer_ms["variational.qaoa"]);
  set("variational.evaluations", counts.evaluations * per_op);
  set("circuit.ms_per_evaluation",
      ratio(layer_ms["variational.qaoa"] * n, counts.evaluations));
  set("decompose.self_ms", (counts.decompose_ms - counts.block_cover_ms) * per_op);
  set("decompose.block_ms", counts.block_ms * per_op);
  set("decompose.rounds", counts.rounds * per_op);
  set("decompose.subproblems", counts.subproblems * per_op);
  set("decompose.improving_round_ratio", ratio(counts.improving_rounds, counts.rounds));
  set("decompose.parallel_efficiency",
      ratio(counts.block_ms, counts.decompose_ms * threads));
  set("core.dispatch_overhead_ms",
      (untraced_counts.facade_ms - untraced_counts.layer_ms) * per_op);
  set("io.load_ms", layer_ms["io.load"]);
  set("trace.overhead_ms", Median(overhead));

  // Spans are written once, at exit.
  JsonValue spans = JsonValue::Array();
  for (const Span& span : recorder.spans()) {
    JsonValue row = JsonValue::Object();
    row.Set("name", Str(span.name));
    row.Set("op", Num(span.op));
    row.Set("parent", Num(span.parent));
    row.Set("start_ms", Num(span.start_ms));
    row.Set("end_ms", Num(span.end_ms));
    spans.Append(row);
  }
  WriteFile(dir / "spans.json", spans.Dump());

  JsonValue out = JsonValue::Object();
  out.Set("ops", Num(n));
  out.Set("metrics", metrics);
  JsonValue list = JsonValue::Array();
  for (std::size_t i = 0; i < mismatches.size() && i < 20; ++i) {
    list.Append(Str(mismatches[i]));
  }
  out.Set("mismatches", list);
  out.Set("correct", JsonValue::Bool(mismatches.empty()));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// calib
// ---------------------------------------------------------------------------

int RunCalib(int iterations) {
  const double cpu_start = static_cast<double>(std::clock());
  Stopwatch watch;
  // A dependent integer chain the compiler cannot vectorize or fold.
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < iterations; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x *= 2685821657736338717ULL;
  }
  const double wall_ms = watch.ElapsedMillis();
  const double cpu_ms =
      (static_cast<double>(std::clock()) - cpu_start) * 1000.0 / CLOCKS_PER_SEC;
  std::printf("{\"wall_ms\": %.6f, \"cpu_ms\": %.6f, \"sink\": %llu}\n",
              wall_ms, cpu_ms, static_cast<unsigned long long>(x & 1));
  return 0;
}

int ParseInt(const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0 || value > 1000000000) {
    Die(std::string("not a non-negative integer: ") + text);
  }
  return static_cast<int>(value);
}

/// A run's --seed: any unsigned 64-bit decimal.
std::uint64_t ParseSeed(const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || *text == '-' || errno == ERANGE) {
    Die(std::string("not an unsigned 64-bit integer: ") + text);
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "gen" && argc == 6) {
    return RunGen(argv[2], ParseSeed(argv[3]),
                  ParseInt(argv[4]), argv[5]);
  }
  if (command == "check" && argc == 3) return RunCheck(argv[2]);
  if (command == "trace" && argc == 4) return RunTrace(argv[2], ParseInt(argv[3]));
  if (command == "calib" && argc == 3) return RunCalib(ParseInt(argv[2]));
  std::fprintf(stderr,
               "usage: qqo_bench gen <workload> <seed> <count> <dir>\n"
               "       qqo_bench check <dir>\n"
               "       qqo_bench trace <dir> <ops>\n"
               "       qqo_bench calib <iterations>\n");
  return 2;
}
