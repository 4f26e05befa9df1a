// Benchmark driver: runs one workload of the repository benchmark in this
// process and prints its metrics. perfbench/run.py builds it and starts a
// fresh process for every run, so memory peaks and caches never carry over
// from one run to the next.
//
//   perfbench_driver --workload clique_gather|congest_frontier|serve_routed
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//                    [--trace-out FILE] [--tiny] [--flip-byte]
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench_common.h"
#include "bench_util.h"
#include "rng/mix.h"
#include "util/json.h"

namespace perfbench {
namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_stop_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_driver: " << problem << "\n"
            << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] [--tiny] "
               "[--flip-byte]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  o.dmis_bin = PERFBENCH_DMIS_BIN;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--work-dir") {
        o.work_dir = value();
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else if (arg == "--tiny") {
        o.tiny = true;
      } else if (arg == "--flip-byte") {
        o.flip_byte = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload != "clique_gather" && o.workload != "congest_frontier" &&
      o.workload != "serve_routed") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.work_dir.empty()) usage("--work-dir is required");
  return o;
}

/// Refuses, in one line, to measure a build whose numbers would mislead:
/// an unoptimized one, or one without the server the serving workload runs.
bool preflight(const Options& o) {
  const std::string type = DMIS_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    std::cerr << "perfbench: refusing to measure an unoptimized build "
                 "(CMAKE_BUILD_TYPE '"
              << type << "'); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return false;
  }
  if (::access(o.dmis_bin.c_str(), X_OK) != 0) {
    std::cerr << "perfbench: dmis binary missing at " << o.dmis_bin
              << "; build the dmis_cli target\n";
    return false;
  }
  return true;
}

dmis::json::Value text(const std::string& s) {
  return dmis::json::Value::string(s);
}

}  // namespace

bool stop_requested() { return g_stop != 0; }

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t salt) {
  return dmis::mix64(workload_seed, salt);
}

std::uint64_t membership_checksum(const std::vector<char>& in_set) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : in_set) {
    h ^= (c != 0 ? 1U : 0U);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, samples});
}

void Report::fail(const std::string& reason) {
  ++failed_;
  if (reasons_.size() < 20) reasons_.push_back(reason);
}

void Report::checksum(std::uint64_t seed, int threads, std::uint64_t value) {
  const std::string key = std::to_string(seed) + "/" + std::to_string(threads);
  const auto [it, inserted] = checksums_.emplace(key, hex64(value));
  if (!inserted && it->second != hex64(value)) {
    fail("seed/threads " + key + ": membership checksum changed");
  }
}

void Report::print(std::ostream& os) const {
  dmis::json::Value metrics = dmis::json::Value::object();
  for (const Entry& m : metrics_) {
    os << "metric " << m.name << " = "
       << dmis::json::Value::number(m.value).dump() << " " << m.unit
       << " (samples " << m.samples << ")\n";
    dmis::json::Value entry = dmis::json::Value::object();
    entry.set("value", dmis::json::Value::number(m.value));
    entry.set("unit", text(m.unit));
    entry.set("samples", dmis::json::Value::number(m.samples));
    metrics.set(m.name, std::move(entry));
  }
  dmis::json::Value checksums = dmis::json::Value::object();
  for (const auto& [key, hex] : checksums_) {
    os << "checksum seed/threads " << key << " " << hex << "\n";
    checksums.set(key, text(hex));
  }
  for (const std::string& reason : reasons_) os << "FAILED: " << reason << "\n";
  if (failed_ > reasons_.size()) {
    os << "FAILED: ... and " << failed_ - reasons_.size() << " more\n";
  }
  os << "operations attempted " << attempted_ << ", failed " << failed_
     << "\n";

  dmis::json::Value out = dmis::json::Value::object();
  out.set("correct", dmis::json::Value::boolean(failed_ == 0));
  out.set("attempted", dmis::json::Value::number(attempted_));
  out.set("failed", dmis::json::Value::number(failed_));
  out.set("input_digest", text(hex64(input_digest_)));
  out.set("checksums", std::move(checksums));
  out.set("metrics", std::move(metrics));
  os << out.dump() << "\n";
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t SpanRecorder::open(const std::string& name,
                                 std::uint64_t parent,
                                 const std::string& request) {
  const Clock::time_point now = Clock::now();
  return add(name, now, now, parent, request);
}

void SpanRecorder::close(std::uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end = Clock::now();
}

std::uint64_t SpanRecorder::add(const std::string& name,
                                Clock::time_point start,
                                Clock::time_point end, std::uint64_t parent,
                                const std::string& request, int lane) {
  if (!enabled_) return 0;
  spans_.push_back({name, start, end, parent, request, lane});
  return spans_.size();
}

void SpanRecorder::write(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perfbench: cannot write trace " << path << "\n";
    return;
  }
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    dmis::json::Value args = dmis::json::Value::object();
    args.set("span_id", dmis::json::Value::number(std::uint64_t{i + 1}));
    args.set("parent_id", dmis::json::Value::number(s.parent));
    if (!s.request.empty()) args.set("request_id", text(s.request));
    dmis::json::Value event = dmis::json::Value::object();
    event.set("name", text(s.name));
    event.set("cat", text(s.name.substr(0, s.name.find('.'))));
    event.set("ph", text("X"));
    event.set("ts", dmis::json::Value::number(
                        std::chrono::duration<double, std::micro>(
                            s.start - origin_)
                            .count()));
    event.set("dur", dmis::json::Value::number(
                         std::chrono::duration<double, std::micro>(s.end -
                                                                   s.start)
                             .count()));
    event.set("pid", dmis::json::Value::number(std::uint64_t{1}));
    event.set("tid", dmis::json::Value::number(
                         static_cast<std::uint64_t>(s.lane)));
    event.set("args", std::move(args));
    os << (i == 0 ? "\n" : ",\n") << event.dump();
  }
  dmis::json::Value other = dmis::json::Value::object();
  for (const auto& [key, value] : meta) other.set(key, text(value));
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << other.dump()
     << "}\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse_args(argc, argv);
  if (!preflight(options)) return 2;

  struct sigaction action {};
  action.sa_handler = on_stop_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
  // Router workers re-parent to this process if the router dies first, so
  // the server's whole process group can always be reaped here.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  Report report;
  SpanRecorder spans(options.trace);
  try {
    if (options.workload == "serve_routed") {
      run_serve_workload(options, report, spans);
    } else {
      run_solve_workload(options, report, spans);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("run aborted: ") + e.what());
  }
  if (stop_requested()) {
    std::cerr << "perfbench: interrupted; no result\n";
    return 130;
  }

  dmis::bench::BenchMeta meta = dmis::bench::run_metadata();
  meta.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  meta.emplace_back("workload", options.workload);
  meta.emplace_back("seed", std::to_string(options.seed));
  meta.emplace_back("trace", options.trace ? "1" : "0");
  for (const auto& [key, value] : meta) {
    std::cout << "meta " << key << " " << value << "\n";
  }
  if (options.trace && !options.trace_out.empty()) {
    spans.write(options.trace_out, meta);
  }
  report.print(std::cout);
  return report.failures() == 0 ? 0 : 1;
}
