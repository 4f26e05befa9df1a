// The two solve workloads. Each generates one G(n,p) graph from the
// workload seed and solves it through the algorithm registry over a fixed
// list of seeds derived from the workload seed, checking every output.
//
//   clique_gather     "clique" (Theorem 1.1) at n = 2^14, average degree 8.
//                     Gather packet building, the sort that ends
//                     CliqueNetwork::route and knowledge merging do most of
//                     the work; the CONGEST engine does none. 2 threads are
//                     asked for and ignored until clique can step in
//                     parallel.
//   congest_frontier  "congest" (the §2.3 CONGEST translation) at n = 2^17,
//                     average degree 64 (about 4.2M edges), 2 threads. The
//                     engine round does nearly all the work; the clique
//                     layer does none. Two threads leave headroom on a
//                     shared 4-core host.
//
// An untraced run reports end-to-end metrics. A traced run measures the
// layers instead: thread scaling, engine rounds through a RoundObserver,
// and for clique_gather each phase's induced subgraph, ball gathering and
// local replay, rebuilt from the phase trace and timed one by one.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_util.h"
#include "clique/gather.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "mis/clique_mis.h"
#include "mis/phase_wire.h"
#include "mis/registry.h"
#include "mis/registry_support.h"
#include "mis/sparsified.h"

namespace perfbench {
namespace {

using dmis::Graph;
using dmis::NodeId;

struct SolveShape {
  const char* algorithm;
  NodeId n;
  double average_degree;
  int threads;
  std::size_t seeds;  ///< solve seeds per measured cycle
};

SolveShape shape_for(const Options& o) {
  const bool clique = o.workload == "clique_gather";
  if (o.tiny) {
    return clique ? SolveShape{"clique", NodeId{1} << 9, 8.0, 2, 2}
                  : SolveShape{"congest", NodeId{1} << 10, 16.0, 2, 2};
  }
  return clique ? SolveShape{"clique", NodeId{1} << 14, 8.0, 2, 5}
                : SolveShape{"congest", NodeId{1} << 17, 64.0, 2, 5};
}

/// Set-up runs this often and reports its median.
constexpr int kSetupRepeats = 3;

struct Solve {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t rounds = 0;
  dmis::CostAccounting costs;
};

/// One registry solve, its output checked with algo_output_valid.
Solve solve(const dmis::AlgorithmDescriptor& algo, const Graph& g,
            std::uint64_t seed, int threads, Report& report,
            dmis::RoundObserver* observer = nullptr) {
  const dmis::AlgoOptions options(algo);
  dmis::AlgoRunRequest request;
  request.seed = seed;
  request.threads = threads;
  if (observer != nullptr) request.observers.push_back(observer);
  report.attempted();
  const Clock::time_point start = Clock::now();
  const dmis::AlgoResult result =
      dmis::run_registered_algorithm(algo, g, options, request);
  Solve out;
  out.seconds = seconds_between(start, Clock::now());
  out.checksum = membership_checksum(result.run.in_mis);
  out.rounds = result.run.rounds;
  out.costs = result.run.costs;
  if (!dmis::algo_output_valid(algo, g, result.run.in_mis)) {
    report.fail(std::string(algo.name) + " seed " + std::to_string(seed) +
                ": output is not a valid MIS");
  }
  return out;
}

/// Times every engine round from its begin to its end event. The
/// algorithm's analysis snapshots fire outside that pair, so they count as
/// time outside rounds.
class RoundTimer final : public dmis::RoundObserver {
 public:
  RoundTimer(NodeId n, SpanRecorder& spans, std::uint64_t parent)
      : n_(n), spans_(spans), parent_(parent) {}

  void on_round_begin(const dmis::RoundContext& ctx) override {
    begin_ = Clock::now();
    live_ = ctx.live;
  }

  void on_round_end(const dmis::RoundContext&) override {
    const Clock::time_point end = Clock::now();
    round_s += seconds_between(begin_, end);
    ++rounds;
    live_node_rounds += live_;
    occupancy_sum += static_cast<double>(live_) / static_cast<double>(n_);
    spans_.add("runtime.round", begin_, end, parent_);
  }

  std::uint64_t rounds = 0;
  double round_s = 0.0;
  std::uint64_t live_node_rounds = 0;
  double occupancy_sum = 0.0;

 private:
  NodeId n_;
  SpanRecorder& spans_;
  std::uint64_t parent_;
  Clock::time_point begin_;
  std::uint64_t live_ = 0;
};

void measure_end_to_end(const SolveShape& shape,
                        const dmis::AlgorithmDescriptor& algo, const Graph& g,
                        const std::vector<std::uint64_t>& seeds,
                        const Options& o, Report& report) {
  // Untimed warm-up: the first solve of a process runs slower while the
  // allocator grows.
  const Solve warm = solve(algo, g, seeds[0], shape.threads, report);
  report.checksum(seeds[0], shape.threads, warm.checksum);
  // Whole cycles over the seed list only, so every run averages the same
  // seeds: as many as fit the requested time, at least one.
  const long long cycles = std::max<long long>(
      1, std::llround(o.seconds /
                      (warm.seconds * static_cast<double>(seeds.size()))));
  std::vector<double> times;
  std::vector<double> rounds;
  std::vector<double> bits;
  for (long long c = 0; c < cycles && !stop_requested(); ++c) {
    for (std::size_t i = 0; i < seeds.size() && !stop_requested(); ++i) {
      const Solve s = solve(algo, g, seeds[i], shape.threads, report);
      times.push_back(s.seconds);
      report.checksum(seeds[i], shape.threads, s.checksum);
      if (c == 0) {
        rounds.push_back(static_cast<double>(s.rounds));
        bits.push_back(static_cast<double>(s.costs.bits));
      }
    }
  }
  double total = 0.0;
  for (const double t : times) total += t;
  const auto n = static_cast<std::uint64_t>(times.size());
  report.metric("latency_p50_ms", median(times) * 1e3, "ms", n);
  report.metric("latency_p99_ms", percentile(times, 0.99) * 1e3, "ms", n);
  report.metric("throughput_per_s", static_cast<double>(n) / total, "1/s", n);
  report.metric("peak_rss_mb",
                static_cast<double>(dmis::bench::peak_rss_bytes()) /
                    (1024.0 * 1024.0),
                "MiB", 1);
  report.metric("rounds_per_solve", mean(rounds), "rounds", rounds.size());
  report.metric("bits_per_solve", mean(bits), "bits", bits.size());
}

void report_wire(const dmis::CostAccounting& costs, Report& report) {
  report.metric("wire.messages", static_cast<double>(costs.messages), "count",
                1);
  report.metric("wire.bits", static_cast<double>(costs.bits), "bits", 1);
  for (std::size_t t = 0; t < dmis::kWireMessageTypeCount; ++t) {
    const auto type = static_cast<dmis::WireMessageType>(t);
    report.metric(std::string("wire.bits.") +
                      dmis::wire_message_type_name(type),
                  static_cast<double>(costs.of(type).bits), "bits", 1);
  }
}

struct TracedClique {
  dmis::CliqueMisResult result;
  std::vector<dmis::SparsifiedPhaseRecord> records;
  double seconds = 0.0;
};

/// The registry's clique run, called directly so CliqueMisOptions::trace
/// can record every phase. The options mirror the registry adapter's.
TracedClique traced_clique(const dmis::AlgorithmDescriptor& algo,
                           const Graph& g, std::uint64_t seed,
                           const dmis::SparsifiedParams& params,
                           dmis::RoundObserver* observer, Report& report) {
  const dmis::AlgoOptions defaults(algo);
  TracedClique out;
  dmis::CliqueMisOptions options;
  options.params = params;
  options.randomness = dmis::RandomSource(seed);
  options.budget_constant = defaults.get_double("budget_constant");
  options.max_phase_retries = defaults.get_u64("max_phase_retries");
  options.trace = [&out](const dmis::SparsifiedPhaseRecord& r) {
    out.records.push_back(r);
  };
  options.observers = {observer};
  report.attempted();
  const Clock::time_point start = Clock::now();
  out.result = dmis::clique_mis(g, options);
  out.seconds = seconds_between(start, Clock::now());
  if (!dmis::algo_output_valid(algo, g, out.result.run.in_mis)) {
    report.fail("traced clique solve: output is not a valid MIS");
  }
  return out;
}

/// Rebuilds each traced phase's decorated graph G*[S] as clique_mis builds
/// it (S from the trace; decorations from the phase-start p, the OR of the
/// super-heavy neighbours' committed vectors and the phase seed), then
/// times induced_subgraph, gather_balls and replay_phase_center on it.
/// Every replayed centre must reproduce its traced join iteration and beep
/// vector.
void measure_clique_phases(const Graph& g, const TracedClique& traced,
                           const dmis::SparsifiedParams& params,
                           std::uint64_t seed, double solve_s, Report& report,
                           SpanRecorder& spans) {
  const dmis::RandomSource randomness(seed);
  dmis::CliqueNetwork net(g.node_count(), randomness.fork(0xc11c));
  double induced_s = 0.0;
  double gather_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t gather_rounds = 0;
  std::uint64_t max_dest_load = 0;
  std::uint64_t max_ball = 0;
  for (const dmis::SparsifiedPhaseRecord& rec : traced.records) {
    std::vector<NodeId> sampled;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (rec.sampled[v] != 0) sampled.push_back(v);
    }
    if (sampled.empty()) continue;
    const std::uint64_t phase_span = spans.open("clique.phase");
    const Clock::time_point t0 = Clock::now();
    const dmis::InducedSubgraph sub = dmis::induced_subgraph(g, sampled);
    const Clock::time_point t1 = Clock::now();
    dmis::AnnotationTable annotations(static_cast<NodeId>(sampled.size()),
                                      dmis::kDecorationWords);
    for (std::size_t i = 0; i < sub.to_parent.size(); ++i) {
      const NodeId v = sub.to_parent[i];
      std::uint64_t superheavy_or = 0;
      for (const NodeId u : g.neighbors(v)) {
        if (rec.alive_start[u] != 0 && rec.superheavy[u] != 0) {
          superheavy_or |= rec.realized_beeps[u];
        }
      }
      const dmis::DecorationWords words = dmis::encode_decoration(
          {rec.p_exp_start[v], superheavy_or,
           dmis::sparsified_phase_seed(randomness, v, rec.phase)});
      std::copy(words.begin(), words.end(),
                annotations.row(static_cast<NodeId>(i)).begin());
    }
    const Clock::time_point t2 = Clock::now();
    const dmis::GatherResult gathered = dmis::gather_balls(
        net, sub.graph, annotations, 2 * params.phase_length);
    const Clock::time_point t3 = Clock::now();
    bool replay_matches = true;
    for (std::size_t i = 0; i < gathered.balls.size(); ++i) {
      const NodeId v = sub.to_parent[i];
      const dmis::PhaseReplayOutcome outcome =
          dmis::replay_phase_center(gathered.balls[i], params);
      replay_matches = replay_matches &&
                       outcome.join_iter == rec.join_iter[v] &&
                       outcome.realized_beeps == rec.realized_beeps[v];
      max_ball = std::max<std::uint64_t>(max_ball,
                                         gathered.balls[i].members.size());
    }
    const Clock::time_point t4 = Clock::now();
    report.attempted();
    if (!replay_matches) {
      report.fail("phase " + std::to_string(rec.phase) +
                  ": rebuilt balls replay differently from the trace");
    }
    induced_s += seconds_between(t0, t1);
    gather_s += seconds_between(t2, t3);
    replay_s += seconds_between(t3, t4);
    packets += gathered.stats.packets;
    gather_rounds += gathered.stats.rounds;
    max_dest_load = std::max(max_dest_load, gathered.stats.max_dest_load);
    spans.add("graph.induced", t0, t1, phase_span);
    spans.add("clique.gather", t2, t3, phase_span);
    spans.add("mis.replay", t3, t4, phase_span);
    spans.close(phase_span);
  }
  const std::uint64_t phases = traced.records.size();
  report.metric("graph.induced_s", induced_s, "s", phases);
  report.metric("clique.gather_s", gather_s, "s", phases);
  report.metric("clique.gather_share", gather_s / solve_s, "ratio", phases);
  report.metric("clique.gather_packets", static_cast<double>(packets), "count",
                phases);
  report.metric("clique.gather_rounds", static_cast<double>(gather_rounds),
                "rounds", phases);
  report.metric("clique.max_dest_load", static_cast<double>(max_dest_load),
                "count", phases);
  report.metric("mis.replay_s", replay_s, "s", phases);
  report.metric("mis.phases", static_cast<double>(traced.result.stats.phases),
                "count", 1);
  report.metric("mis.max_ball_members", static_cast<double>(max_ball),
                "count", phases);
  report.metric("mis.residual_edges",
                static_cast<double>(traced.result.stats.residual_edges),
                "count", 1);
}

/// Lemma 2.13 on the measured instance: the clique simulation's phase
/// trace must equal the direct sparsified run's, field by field.
void check_equivalence(const Graph& g, const dmis::SparsifiedParams& params,
                       std::uint64_t seed,
                       const std::vector<dmis::SparsifiedPhaseRecord>& clique,
                       Report& report) {
  dmis::SparsifiedOptions options;
  options.params = params;
  options.randomness = dmis::RandomSource(seed);
  options.max_phases = clique.size();
  std::vector<dmis::SparsifiedPhaseRecord> direct;
  options.trace = [&direct](const dmis::SparsifiedPhaseRecord& r) {
    direct.push_back(r);
  };
  report.attempted();
  dmis::sparsified_mis(g, options);
  if (direct.size() != clique.size()) {
    report.fail("clique traced " + std::to_string(clique.size()) +
                " phases, sparsified_mis " + std::to_string(direct.size()));
    return;
  }
  for (std::size_t k = 0; k < direct.size(); ++k) {
    const dmis::SparsifiedPhaseRecord& d = direct[k];
    const dmis::SparsifiedPhaseRecord& c = clique[k];
    const char* field = nullptr;
    if (d.live_at_start != c.live_at_start) {
      field = "live_at_start";
    } else if (d.alive_start != c.alive_start) {
      field = "alive_start";
    } else if (d.superheavy != c.superheavy) {
      field = "superheavy";
    } else if (d.sampled != c.sampled) {
      field = "sampled";
    } else if (d.p_exp_start != c.p_exp_start) {
      field = "p_exp_start";
    } else if (d.p_exp_end != c.p_exp_end) {
      field = "p_exp_end";
    } else if (d.realized_beeps != c.realized_beeps) {
      field = "realized_beeps";
    } else if (d.join_iter != c.join_iter) {
      field = "join_iter";
    } else if (d.removed_iter != c.removed_iter) {
      field = "removed_iter";
    } else if (d.max_sampled_degree != c.max_sampled_degree) {
      field = "max_sampled_degree";
    }
    if (field != nullptr) {
      report.fail("phase " + std::to_string(k) + ": " + field +
                  " differs from sparsified_mis");
      return;
    }
  }
}

void measure_layers(const Options& o, const SolveShape& shape,
                    const dmis::AlgorithmDescriptor& algo, const Graph& g,
                    std::uint64_t seed, Report& report, SpanRecorder& spans) {
  solve(algo, g, seed, shape.threads, report);  // untimed warm-up
  Clock::time_point start = Clock::now();
  const Solve parallel = solve(algo, g, seed, shape.threads, report);
  spans.add("solve.untraced", start, Clock::now());
  start = Clock::now();
  const Solve single = solve(algo, g, seed, 1, report);
  spans.add("solve.untraced_1t", start, Clock::now());
  report.checksum(seed, shape.threads, parallel.checksum);
  report.checksum(seed, 1, single.checksum);
  if (single.checksum != parallel.checksum) {
    report.fail("seed " + std::to_string(seed) +
                ": membership differs between 1 and " +
                std::to_string(shape.threads) + " threads");
  }
  report.metric("runtime.speedup_vs_1t", single.seconds / parallel.seconds,
                "ratio", 2);

  const std::uint64_t traced_span = spans.open("solve.traced");
  RoundTimer timer(g.node_count(), spans, traced_span);
  double traced_s = 0.0;
  std::uint64_t traced_checksum = 0;
  dmis::CostAccounting costs;
  if (o.workload == "clique_gather") {
    const dmis::SparsifiedParams params = dmis::sparsified_params_from_options(
        dmis::AlgoOptions(algo), g.node_count());
    const TracedClique traced =
        traced_clique(algo, g, seed, params, &timer, report);
    spans.close(traced_span);
    traced_s = traced.seconds;
    traced_checksum = membership_checksum(traced.result.run.in_mis);
    costs = traced.result.run.costs;
    measure_clique_phases(g, traced, params, seed, parallel.seconds, report,
                          spans);
    check_equivalence(g, params, seed, traced.records, report);
  } else {
    const Solve traced = solve(algo, g, seed, shape.threads, report, &timer);
    spans.close(traced_span);
    traced_s = traced.seconds;
    traced_checksum = traced.checksum;
    costs = traced.costs;
  }
  if (traced_checksum != parallel.checksum) {
    report.fail("seed " + std::to_string(seed) +
                ": traced solve differs from the untraced one");
  }
  const double rounds = static_cast<double>(timer.rounds);
  report.metric("runtime.rounds", rounds, "rounds", 1);
  report.metric("runtime.round_s", timer.round_s, "s", timer.rounds);
  report.metric("runtime.outside_round_s", traced_s - timer.round_s, "s", 1);
  report.metric("runtime.ns_per_live_node_round",
                timer.live_node_rounds == 0
                    ? 0.0
                    : timer.round_s * 1e9 /
                          static_cast<double>(timer.live_node_rounds),
                "ns", timer.rounds);
  report.metric("runtime.frontier_occupancy",
                timer.rounds == 0 ? 0.0 : timer.occupancy_sum / rounds,
                "ratio", timer.rounds);
  report.metric("trace.overhead_frac", traced_s / parallel.seconds - 1.0,
                "ratio", 2);
  report_wire(costs, report);
}

}  // namespace

void run_solve_workload(const Options& o, Report& report,
                        SpanRecorder& spans) {
  const SolveShape shape = shape_for(o);
  dmis::bench::detail::last_threads() = shape.threads;
  const dmis::AlgorithmDescriptor& algo =
      dmis::AlgorithmRegistry::instance().require(shape.algorithm);

  std::vector<double> setup;
  Graph g;
  for (int r = 0; r < kSetupRepeats && !stop_requested(); ++r) {
    g = Graph();  // release the previous copy so set-ups do not stack up
    const Clock::time_point start = Clock::now();
    g = dmis::gnp(shape.n,
                  shape.average_degree / static_cast<double>(shape.n - 1),
                  derive_seed(o.seed, 1));
    const Clock::time_point end = Clock::now();
    setup.push_back(seconds_between(start, end));
    spans.add("graph.generate", start, end);
  }
  if (stop_requested()) return;
  report.set_input_digest(g.content_digest());
  report.metric("setup_s", median(setup), "s", setup.size());
  report.metric("graph.generate_s", median(setup), "s", setup.size());
  std::cout << "input: " << shape.algorithm << " on G(n=" << g.node_count()
            << ", m=" << g.edge_count() << "), max degree " << g.max_degree()
            << ", " << shape.threads << " threads\n";

  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < shape.seeds; ++i) {
    seeds.push_back(derive_seed(o.seed, 100 + i) % 1000000007);
  }
  if (o.trace) {
    measure_layers(o, shape, algo, g, seeds[0], report, spans);
  } else {
    measure_end_to_end(shape, algo, g, seeds, o, report);
  }
}

}  // namespace perfbench
