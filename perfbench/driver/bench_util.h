// Shared pieces of the benchmark driver: run options, the metric report,
// the span recorder that writes Chrome trace-event JSON, and the small
// statistics helpers every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every workload shrinks to a second or two.
  bool tiny = false;
  /// Self-test fault: corrupt one byte of one served response, which the
  /// serve_routed checks must catch.
  bool flip_byte = false;
  /// Scratch space for stores and graph directories, removed on exit.
  std::string work_dir;
  /// Chrome trace-event JSON written by a traced run ("" = none).
  std::string trace_out;
  std::string dmis_bin;
};

/// True once SIGINT or SIGTERM arrived; every loop of the driver polls it.
bool stop_requested();

/// Every generated input is a pure function of (workload seed, salt).
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t salt);

/// FNV-1a over a membership vector: the per-seed checksum compared across
/// repeated solves, thread counts, and traced and untraced runs.
std::uint64_t membership_checksum(const std::vector<char>& in_set);
std::string hex64(std::uint64_t value);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1]. With fewer than 1 / (1 - q)
/// samples it is the maximum.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Metrics, operation counts and failures of one run. print() writes a
/// human-readable list and, as the last line, one JSON object that
/// perfbench/run.py turns into the benchmark result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples);
  void attempted(std::uint64_t count = 1) { attempted_ += count; }
  /// One failed operation; the first few reasons are printed.
  void fail(const std::string& reason);
  /// Membership checksum of one (seed, threads) solve. A second, different
  /// value for the same pair is a failure.
  void checksum(std::uint64_t seed, int threads, std::uint64_t value);
  void set_input_digest(std::uint64_t digest) { input_digest_ = digest; }

  std::uint64_t failures() const { return failed_; }
  void print(std::ostream& os) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> reasons_;
  std::map<std::string, std::string> checksums_;  // "seed/threads" -> hex
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t input_digest_ = 0;
};

/// Spans kept in memory and written once, at the end, as Chrome trace-event
/// JSON: complete ("X") events whose args carry span_id, parent_id (0 for a
/// root) and, for service requests, the request_id every span of that
/// request shares. A disabled recorder records nothing and returns id 0.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  /// Opens a span starting now; close() ends it.
  std::uint64_t open(const std::string& name, std::uint64_t parent = 0,
                     const std::string& request = {});
  void close(std::uint64_t id);
  /// Records a finished span.
  std::uint64_t add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    const std::string& request = {}, int lane = 0);
  void write(const std::string& path,
             const std::vector<std::pair<std::string, std::string>>& meta)
      const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t parent;
    std::string request;
    int lane;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;  // span id = index + 1
};

void run_solve_workload(const Options& options, Report& report,
                        SpanRecorder& spans);
void run_serve_workload(const Options& options, Report& report,
                        SpanRecorder& spans);

}  // namespace perfbench
