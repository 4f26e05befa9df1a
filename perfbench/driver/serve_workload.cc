// serve_routed: `dmis serve --router --workers 2` on loopback TCP, driven
// closed-loop by two client connections; each connection sends its next
// request when the previous answer arrives.
//
// Requests run cheap registry algorithms on small uploaded graphs named by
// graph_digest; a small share carry inline edges and a few are
// {"cmd":"stats"}. About one request in ten opens a new job, which executes
// and appends to the durable store. The rest repeat earlier jobs: half of
// them recent ones (LRU hits), half drawn from the whole history (mostly
// store reads, since each worker's LRU holds far fewer entries than there
// are jobs). So p50 sits on the read path, while p99 and throughput sit on
// the execute-and-append path.
//
// After the timed window the server is stopped and the same request lines
// are replayed in process through parse_request, job_key, ResultCache (a
// ResultStore attached, the workers' cache size, keys split by the
// router's own hash ring) and execute_job. The replay checks every served
// result against execute_job and, in a traced run, times each step.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench_common.h"
#include "bench_util.h"
#include "graph/generators.h"
#include "rng/mix.h"
#include "svc/cache.h"
#include "svc/frontend.h"
#include "svc/job.h"
#include "svc/net/graph_store.h"
#include "svc/net/line_chunker.h"
#include "svc/net/router.h"
#include "svc/net/tcp.h"
#include "svc/store.h"
#include "util/json.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dmis::Graph;
using dmis::NodeId;
using dmis::svc::net::LineChunker;

constexpr const char* kAlgorithms[] = {"luby", "beeping", "sparsified",
                                       "ghaffari"};
constexpr std::uint64_t kAlgorithmCount = 4;
constexpr int kConnections = 2;
constexpr int kWorkers = 2;
constexpr int kSetupRepeats = 3;

struct ServeShape {
  int graphs;  ///< uploaded graphs, sizes cycling 2^min_log2 .. 2^max_log2
  int min_log2;
  int max_log2;
  double average_degree;
  NodeId inline_n;            ///< the graph sent as inline edges
  std::size_t cache_entries;  ///< per worker; far fewer than the jobs
  /// First jobs of each connection whose model costs are averaged into
  /// rounds_per_solve and bits_per_solve (a fixed set, so it repeats).
  std::uint64_t cost_jobs;
};

ServeShape shape_for(const Options& o) {
  if (o.tiny) return {2, 6, 7, 6.0, 24, 8, 4};
  return {6, 9, 12, 8.0, 64, 64, 32};
}

struct Catalogue {
  std::vector<std::string> digests;  ///< uploaded graphs
  std::string inline_graph;          ///< "n":N,"edges":[[u,v],...]
  std::uint64_t input_digest = 0;
};

struct Planned {
  bool stats = false;
  std::uint64_t job = 0;  ///< index among the connection's own jobs
};

/// Request k of connection c. Each connection owns its jobs, so a repeat
/// never races the first execution of its job on the other connection.
Planned plan(std::uint64_t seed, int c, std::uint64_t k) {
  if (k % 200 == 199) return {true, 0};
  const std::uint64_t fresh = k / 10;
  if (k % 10 == 0 || fresh == 0) return {false, fresh};
  const std::uint64_t h = dmis::mix64(seed, static_cast<std::uint64_t>(c), k);
  if ((h & 1) != 0) {
    const std::uint64_t window = std::min<std::uint64_t>(fresh, 32);
    return {false, fresh - 1 - (h >> 1) % window};
  }
  return {false, (h >> 1) % fresh};
}

std::string request_id(int c, std::uint64_t k) {
  return "c" + std::to_string(c) + "-" + std::to_string(k);
}

std::string job_name(int c, std::uint64_t job) {
  return std::to_string(c) + "/" + std::to_string(job);
}

std::string request_line(const Catalogue& cat, std::uint64_t seed, int c,
                         std::uint64_t k) {
  const Planned p = plan(seed, c, k);
  const std::string head = "{\"id\":\"" + request_id(c, k) + "\",";
  if (p.stats) return head + "\"cmd\":\"stats\"}";
  const std::uint64_t j = p.job;
  const std::uint64_t job_seed =
      derive_seed(seed, ((static_cast<std::uint64_t>(c) + 1) << 40) | j) %
      1000000007;
  std::string line = head + "\"algorithm\":\"" +
                     kAlgorithms[j % kAlgorithmCount] +
                     "\",\"seed\":" + std::to_string(job_seed) + ",";
  if (j % 16 == 6) {
    line += cat.inline_graph;
  } else {
    const std::uint64_t g =
        (j / kAlgorithmCount + static_cast<std::uint64_t>(c)) %
        cat.digests.size();
    line += "\"graph_digest\":\"" + cat.digests[g] + "\"";
  }
  return line + "}";
}

struct SetupTimes {
  double generate_s = 0.0;
  double put_s = 0.0;
};

Catalogue build_catalogue(const ServeShape& shape, std::uint64_t seed,
                          const std::string& graphs_dir, SetupTimes& times) {
  Clock::time_point start = Clock::now();
  std::vector<Graph> graphs;
  const int sizes = shape.max_log2 - shape.min_log2 + 1;
  for (int i = 0; i < shape.graphs; ++i) {
    const NodeId n = NodeId{1} << (shape.min_log2 + i % sizes);
    graphs.push_back(dmis::gnp(
        n, shape.average_degree / static_cast<double>(n - 1),
        derive_seed(seed, 200 + static_cast<std::uint64_t>(i))));
  }
  const Graph small = dmis::gnp(
      shape.inline_n, 4.0 / static_cast<double>(shape.inline_n - 1),
      derive_seed(seed, 300));
  times.generate_s = seconds_between(start, Clock::now());

  Catalogue cat;
  start = Clock::now();
  for (const Graph& g : graphs) {
    cat.digests.push_back(dmis::svc::net::put_graph(graphs_dir, g).digest_hex);
  }
  times.put_s = seconds_between(start, Clock::now());

  std::ostringstream edges;
  edges << "\"n\":" << small.node_count() << ",\"edges\":[";
  bool first = true;
  small.for_each_edge([&](NodeId u, NodeId v) {
    edges << (first ? "[" : ",[") << u << ',' << v << ']';
    first = false;
  });
  edges << ']';
  cat.inline_graph = edges.str();
  cat.input_digest = small.content_digest();
  for (const Graph& g : graphs) {
    cat.input_digest = dmis::mix64(cat.input_digest, g.content_digest());
  }
  return cat;
}

/// A directory removed with its contents when the object goes away.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The router and its workers, started in a process group of their own so
/// one signal reaches all of them. stop(), which the destructor also runs
/// so every exit path takes it, sends SIGTERM, waits a bounded time,
/// SIGKILLs whatever is left and reaps every member.
class ServerGroup {
 public:
  ServerGroup(const std::vector<std::string>& command,
              const std::string& log_path);
  ~ServerGroup() { stop(); }
  ServerGroup(const ServerGroup&) = delete;
  ServerGroup& operator=(const ServerGroup&) = delete;

  const std::string& endpoint() const { return endpoint_; }
  /// Sum of the members' peak resident sets (VmHWM), in bytes.
  std::uint64_t peak_rss_bytes() const;
  void stop();

 private:
  void wait_for_announcement();

  pid_t pgid_ = -1;
  int announce_fd_ = -1;
  std::string endpoint_;
};

ServerGroup::ServerGroup(const std::vector<std::string>& command,
                         const std::string& log_path) {
  std::vector<char*> argv;
  for (const std::string& arg : command) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setpgid(0, 0);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, 0);
    ::dup2(fds[1], 1);
    if (log_fd >= 0) ::dup2(log_fd, 2);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const int fork_errno = errno;
  ::close(fds[1]);
  if (log_fd >= 0) ::close(log_fd);
  if (pid < 0) {
    ::close(fds[0]);
    throw std::runtime_error(std::string("fork: ") +
                             std::strerror(fork_errno));
  }
  // Also set here: whichever of parent and child runs first wins the race,
  // and a signal sent right after this line reaches the whole group.
  ::setpgid(pid, pid);
  pgid_ = pid;
  announce_fd_ = fds[0];
  try {
    wait_for_announcement();
  } catch (...) {
    stop();
    throw;
  }
}

void ServerGroup::wait_for_announcement() {
  LineChunker chunker;
  std::string line;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  while (chunker.next_line(&line) != LineChunker::Next::kLine) {
    if (stop_requested() || Clock::now() > deadline) {
      throw std::runtime_error("server did not announce its port");
    }
    pollfd pfd{announce_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t got = ::read(announce_fd_, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      throw std::runtime_error("server exited before announcing its port");
    }
    chunker.append(buf, static_cast<std::size_t>(got));
  }
  const dmis::json::Value announced = dmis::json::parse(line);
  const dmis::json::Value* listening = announced.find("listening");
  if (listening == nullptr || !listening->is_string()) {
    throw std::runtime_error("unexpected announcement: " + line);
  }
  endpoint_ = listening->as_string();
}

void ServerGroup::stop() {
  if (pgid_ <= 0) return;
  const auto reap = [this] {
    while (::waitpid(-pgid_, nullptr, WNOHANG) > 0) {
    }
  };
  // kill(-pgid, 0) succeeds while any member, zombies included, exists.
  const auto wait_for_exit = [&] {
    for (int i = 0; i < 250 && ::kill(-pgid_, 0) == 0; ++i) {
      reap();
      ::usleep(20'000);
    }
    reap();
  };
  ::kill(-pgid_, SIGTERM);
  wait_for_exit();  // up to 5 s to drain, seal the stores and exit
  if (::kill(-pgid_, 0) == 0) {
    ::kill(-pgid_, SIGKILL);
    wait_for_exit();
  }
  if (announce_fd_ >= 0) ::close(announce_fd_);
  announce_fd_ = -1;
  pgid_ = -1;
}

std::uint64_t ServerGroup::peak_rss_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it("/proc", ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.empty() || !std::all_of(name.begin(), name.end(), [](char ch) {
          return ch >= '0' && ch <= '9';
        })) {
      continue;
    }
    std::ifstream stat(it->path() / "stat");
    std::string text;
    std::getline(stat, text);
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 1));
    std::string state;
    long long parent = 0;
    long long group = 0;
    if (!(fields >> state >> parent >> group) || group != pgid_) continue;
    std::ifstream status(it->path() / "status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        total += std::stoull(line.substr(6)) * 1024;
      }
    }
  }
  return total;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one line; false on EOF, error, interruption or the deadline.
bool read_line(int fd, LineChunker& chunker, std::string& line,
               Clock::time_point deadline) {
  while (chunker.next_line(&line) != LineChunker::Next::kLine) {
    if (stop_requested() || Clock::now() > deadline) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[1 << 16];
    const ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    chunker.append(buf, static_cast<std::size_t>(got));
  }
  return true;
}

int connect_to(const std::string& endpoint, std::string& error) {
  const int fd = dmis::svc::net::connect_tcp(
      dmis::svc::net::parse_endpoint(endpoint), &error);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

struct Exchange {
  int connection = 0;
  std::uint64_t k = 0;
  Clock::time_point start;
  Clock::time_point end;
  std::string response;
};

/// One closed-loop connection: request k + 1 leaves when the answer to
/// request k is in, until the deadline. Returns "" or what went wrong.
std::string run_client(const std::string& endpoint, const Catalogue& cat,
                       std::uint64_t seed, int c, Clock::time_point deadline,
                       std::vector<Exchange>& out) {
  std::string error;
  const int fd = connect_to(endpoint, error);
  if (fd < 0) return "connect: " + error;
  LineChunker chunker;
  for (std::uint64_t k = 0; Clock::now() < deadline && !stop_requested();
       ++k) {
    const std::string line = request_line(cat, seed, c, k) + "\n";
    Exchange ex;
    ex.connection = c;
    ex.k = k;
    ex.start = Clock::now();
    if (!send_all(fd, line)) {
      error = "cannot send " + request_id(c, k);
      break;
    }
    if (!read_line(fd, chunker, ex.response,
                   ex.start + std::chrono::seconds(30))) {
      if (!stop_requested()) error = "no answer to " + request_id(c, k);
      break;
    }
    ex.end = Clock::now();
    out.push_back(std::move(ex));
  }
  ::close(fd);
  return error;
}

/// The router's own counters, read after the window on a new connection.
std::string router_stats(const std::string& endpoint) {
  std::string error;
  const int fd = connect_to(endpoint, error);
  if (fd < 0) return {};
  LineChunker chunker;
  std::string line;
  const bool ok =
      send_all(fd, "{\"id\":\"final\",\"cmd\":\"stats\"}\n") &&
      read_line(fd, chunker, line, Clock::now() + std::chrono::seconds(10));
  ::close(fd);
  return ok ? line : std::string();
}

/// The verbatim bytes of a response's "result" object (responses embed the
/// canonical result unchanged), or "" when there is none.
std::string raw_result(const std::string& response) {
  static const std::string kMarker = "\"result\":";
  const std::size_t at = response.find(kMarker);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + kMarker.size();
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = begin; i < response.size(); ++i) {
    const char ch = response[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{') {
      ++depth;
    } else if (ch == '}' && --depth == 0) {
      return response.substr(begin, i + 1 - begin);
    } else if (depth == 0) {
      return {};
    }
  }
  return {};
}

/// Self-test fault: one hex digit of one repeated answer's MIS mask.
void flip_one_byte(std::vector<Exchange>& all, std::uint64_t seed) {
  for (Exchange& ex : all) {
    if (plan(seed, ex.connection, ex.k).stats || ex.k % 10 == 0) continue;
    const std::size_t at = ex.response.find("\"mis\":\"");
    if (at == std::string::npos || at + 7 >= ex.response.size()) continue;
    char& digit = ex.response[at + 7];
    digit = digit == '0' ? '1' : '0';
    return;
  }
}

const dmis::json::Value& member(const dmis::json::Value& object,
                                const char* key) {
  const dmis::json::Value* value = object.find(key);
  if (value == nullptr) {
    throw std::runtime_error(std::string("no \"") + key + "\" member");
  }
  return *value;
}

struct Served {
  std::vector<double> latency_ms;  ///< every answered request
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> worker_us;
  std::vector<double> overhead_us;
  std::unordered_map<std::string, std::string> first;  ///< job -> bytes
  std::vector<double> rounds;  ///< first answers of the cost jobs
  std::vector<double> bits;
  std::uint64_t stats_requests = 0;
};

/// Checks every answer: it parses, carries its request's id, is no error,
/// holds an ok result, and repeats its job's first answer byte for byte.
Served check_served(const std::vector<Exchange>& all, std::uint64_t seed,
                    const ServeShape& shape, Report& report) {
  Served s;
  for (const Exchange& ex : all) {
    report.attempted();
    const std::string id = request_id(ex.connection, ex.k);
    const double latency_ms =
        std::chrono::duration<double, std::milli>(ex.end - ex.start).count();
    s.latency_ms.push_back(latency_ms);
    const Planned p = plan(seed, ex.connection, ex.k);
    try {
      const dmis::json::Value v = dmis::json::parse(ex.response);
      if (member(v, "id").as_string() != id) {
        throw std::runtime_error("answer carries another id");
      }
      if (const dmis::json::Value* error = v.find("error")) {
        throw std::runtime_error("error response " + error->dump());
      }
      if (p.stats) {
        member(v, "stats");
        ++s.stats_requests;
        continue;
      }
      const dmis::json::Value& result = member(v, "result");
      if (member(result, "status").as_string() != "ok") {
        throw std::runtime_error("result status " +
                                 member(result, "status").dump());
      }
      const double worker_us = member(v, "elapsed_us").as_double();
      const std::string bytes = raw_result(ex.response);
      const auto [it, is_first] =
          s.first.try_emplace(job_name(ex.connection, p.job), bytes);
      if (!is_first && it->second != bytes) {
        throw std::runtime_error(
            "result bytes differ from the first answer of job " + it->first);
      }
      if (is_first && p.job < shape.cost_jobs) {
        s.rounds.push_back(member(result, "rounds").as_double());
        s.bits.push_back(member(result, "bits").as_double());
      }
      (member(v, "cached").as_bool() ? s.hit_ms : s.miss_ms)
          .push_back(latency_ms);
      s.worker_us.push_back(worker_us);
      s.overhead_us.push_back(latency_ms * 1e3 - worker_us);
    } catch (const std::exception& e) {
      report.fail(id + ": " + e.what());
    }
  }
  return s;
}

struct ServiceLayers {
  std::vector<double> parse_us;
  std::vector<double> key_us;
  std::vector<double> get_us;
  std::vector<double> put_us;
  std::vector<double> execute_ms;
  dmis::svc::CacheStats cache;
  std::uint64_t store_appends = 0;
  double wall_s = 0.0;
};

double micros(Clock::time_point from, Clock::time_point to) {
  return seconds_between(from, to) * 1e6;
}

/// Replays the served request lines in process, in the order they were
/// sent, and checks each result against its job's served first answer.
ServiceLayers replay(const std::vector<Exchange>& all, const Catalogue& cat,
                     std::uint64_t seed, const ServeShape& shape,
                     const std::string& graphs_dir,
                     const std::string& store_dir, const Served& served,
                     Report& report, SpanRecorder& spans) {
  ScratchDir stores_root(store_dir);
  const dmis::svc::net::HashRing ring(kWorkers);
  std::vector<std::unique_ptr<dmis::svc::ResultStore>> stores;
  std::vector<std::unique_ptr<dmis::svc::ResultCache>> caches;
  for (int w = 0; w < kWorkers; ++w) {
    dmis::svc::StoreOptions options;
    options.dir = stores_root.path() + "/worker" + std::to_string(w);
    stores.push_back(std::make_unique<dmis::svc::ResultStore>(options));
    caches.push_back(
        std::make_unique<dmis::svc::ResultCache>(shape.cache_entries));
    caches.back()->attach_store(stores.back().get());
  }
  ServiceLayers layers;
  const Clock::time_point begin = Clock::now();
  std::uint64_t seq = 0;
  for (const Exchange& ex : all) {
    if (stop_requested()) break;
    const Planned p = plan(seed, ex.connection, ex.k);
    if (p.stats) continue;
    const std::string id = request_id(ex.connection, ex.k);
    const std::string line = request_line(cat, seed, ex.connection, ex.k);
    const std::uint64_t root = spans.open("svc.request", 0, id);
    const Clock::time_point t0 = Clock::now();
    const dmis::svc::Request request =
        dmis::svc::parse_request(line, ++seq, false, graphs_dir);
    const Clock::time_point t1 = Clock::now();
    const dmis::svc::JobKey key = dmis::svc::job_key(request.spec);
    const Clock::time_point t2 = Clock::now();
    dmis::svc::ResultCache& cache = *caches[ring.pick(key)];
    std::optional<std::string> canonical = cache.get(key);
    const Clock::time_point t3 = Clock::now();
    spans.add("svc.parse", t0, t1, root, id);
    spans.add("svc.key", t1, t2, root, id);
    spans.add("svc.cache_get", t2, t3, root, id);
    layers.parse_us.push_back(micros(t0, t1));
    layers.key_us.push_back(micros(t1, t2));
    layers.get_us.push_back(micros(t2, t3));
    if (!canonical) {
      const dmis::svc::JobResult result =
          dmis::svc::execute_job(request.spec, 1);
      const Clock::time_point t4 = Clock::now();
      if (result.status == dmis::svc::JobStatus::kOk) {
        cache.put(key, result.canonical);
      } else {
        report.fail(id + ": execute_job returned " +
                    dmis::svc::job_status_name(result.status));
      }
      const Clock::time_point t5 = Clock::now();
      spans.add("svc.execute", t3, t4, root, id);
      spans.add("svc.cache_put", t4, t5, root, id);
      layers.execute_ms.push_back(micros(t3, t4) / 1e3);
      layers.put_us.push_back(micros(t4, t5));
      canonical = result.canonical;
    }
    spans.close(root);
    const auto expected = served.first.find(job_name(ex.connection, p.job));
    if (expected != served.first.end() && expected->second != *canonical) {
      report.fail(id + ": served result differs from execute_job in process");
    }
  }
  layers.wall_s = seconds_between(begin, Clock::now());
  for (const auto& cache : caches) {
    const dmis::svc::CacheStats s = cache->stats();
    layers.cache.hits += s.hits;
    layers.cache.misses += s.misses;
    layers.cache.store_hits += s.store_hits;
  }
  for (const auto& store : stores) layers.store_appends += store->stats().appends;
  caches.clear();
  stores.clear();
  return layers;
}

void report_router_stats(const std::string& line, Report& report) {
  try {
    const dmis::json::Value v = dmis::json::parse(line);
    const dmis::json::Value& router = member(member(v, "stats"), "router");
    const auto& per_worker = member(router, "per_worker").as_array();
    std::uint64_t total = 0;
    std::uint64_t most = 0;
    for (const dmis::json::Value& count : per_worker) {
      total += count.as_u64();
      most = std::max(most, count.as_u64());
    }
    report.metric("net.per_worker_max_share",
                  total == 0 ? 0.0
                             : static_cast<double>(most) /
                                   static_cast<double>(total),
                  "ratio", per_worker.size());
    report.metric("net.resends", member(router, "resends").as_double(),
                  "count", 1);
  } catch (const std::exception& e) {
    report.fail(std::string("router stats unreadable: ") + e.what());
  }
}

void report_service_layers(const ServiceLayers& l, Report& report) {
  const std::uint64_t lookups = l.cache.hits + l.cache.misses;
  const double denominator = lookups == 0 ? 1.0 : static_cast<double>(lookups);
  report.metric("svc.parse_us_p50", median(l.parse_us), "us",
                l.parse_us.size());
  report.metric("svc.key_us_p50", median(l.key_us), "us", l.key_us.size());
  report.metric("svc.cache_get_us_p50", median(l.get_us), "us",
                l.get_us.size());
  report.metric("svc.lru_hit_rate",
                static_cast<double>(l.cache.hits) / denominator, "ratio",
                lookups);
  report.metric("svc.store_hit_rate",
                static_cast<double>(l.cache.store_hits) / denominator, "ratio",
                lookups);
  report.metric("svc.execute_ms_p50", median(l.execute_ms), "ms",
                l.execute_ms.size());
  report.metric("svc.cache_put_us_p50", median(l.put_us), "us",
                l.put_us.size());
  report.metric("svc.store_appends", static_cast<double>(l.store_appends),
                "count", 1);
}

std::vector<std::string> server_command(const Options& o,
                                        const ServeShape& shape,
                                        const std::string& dir) {
  return {o.dmis_bin,
          "serve",
          "--router",
          "--workers",
          std::to_string(kWorkers),
          "--tcp",
          "127.0.0.1:0",
          "--store-dir",
          dir + "/store",
          "--graphs-dir",
          dir + "/graphs",
          "--cache-entries",
          std::to_string(shape.cache_entries)};
}

}  // namespace

void run_serve_workload(const Options& o, Report& report,
                        SpanRecorder& spans) {
  const ServeShape shape = shape_for(o);
  dmis::bench::detail::last_threads() = kWorkers;

  // Set-up from scratch, repeated; the last repetition's server stays up.
  // The directory is declared first so the server stops before it goes.
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<ServerGroup> server;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> put_s;
  Catalogue cat;
  for (int r = 0; r < kSetupRepeats && !stop_requested(); ++r) {
    server.reset();
    dir.reset();
    dir = std::make_unique<ScratchDir>(o.work_dir + "/serve" +
                                       std::to_string(r));
    SetupTimes times;
    const Clock::time_point start = Clock::now();
    cat = build_catalogue(shape, o.seed, dir->path() + "/graphs", times);
    server = std::make_unique<ServerGroup>(
        server_command(o, shape, dir->path()), dir->path() + "/server.log");
    const Clock::time_point ready = Clock::now();
    setup_s.push_back(seconds_between(start, ready));
    generate_s.push_back(times.generate_s);
    put_s.push_back(times.put_s);
    spans.add("serve.setup", start, ready);
  }
  if (stop_requested()) return;
  report.set_input_digest(cat.input_digest);
  report.metric("setup_s", median(setup_s), "s", setup_s.size());
  report.metric("graph.generate_s", median(generate_s), "s",
                generate_s.size());
  report.metric("graph.put_s", median(put_s), "s", put_s.size());

  const Clock::time_point begin = Clock::now();
  const Clock::time_point deadline =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(o.seconds));
  std::vector<std::vector<Exchange>> per_connection(kConnections);
  std::vector<std::string> errors(kConnections);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        try {
          errors[c] = run_client(server->endpoint(), cat, o.seed, c, deadline,
                                 per_connection[c]);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double window_s = seconds_between(begin, Clock::now());
  if (stop_requested()) return;
  const std::string stats_line = router_stats(server->endpoint());
  const double server_rss_mb =
      static_cast<double>(server->peak_rss_bytes()) / (1024.0 * 1024.0);
  server.reset();  // the replay below must not share the CPU with it
  for (int c = 0; c < kConnections; ++c) {
    if (!errors[c].empty()) {
      report.fail("connection " + std::to_string(c) + ": " + errors[c]);
    }
  }

  std::vector<Exchange> all;
  for (std::vector<Exchange>& part : per_connection) {
    std::move(part.begin(), part.end(), std::back_inserter(all));
  }
  std::sort(all.begin(), all.end(), [](const Exchange& a, const Exchange& b) {
    return a.start < b.start;
  });
  if (o.flip_byte) flip_one_byte(all, o.seed);

  const Served served = check_served(all, o.seed, shape, report);
  std::cout << "served " << all.size() << " requests in " << window_s
            << " s on " << kConnections << " connections: "
            << served.hit_ms.size() << " cached, " << served.miss_ms.size()
            << " executed, " << served.stats_requests << " stats\n";
  const auto n = static_cast<std::uint64_t>(served.latency_ms.size());
  report.metric("latency_p50_ms", median(served.latency_ms), "ms", n);
  report.metric("latency_p99_ms", percentile(served.latency_ms, 0.99), "ms",
                n);
  report.metric("throughput_per_s", static_cast<double>(n) / window_s, "1/s",
                n);
  report.metric("peak_rss_mb", server_rss_mb, "MiB", kWorkers + 1);
  report.metric("rounds_per_solve", mean(served.rounds), "rounds",
                served.rounds.size());
  report.metric("bits_per_solve", mean(served.bits), "bits",
                served.bits.size());
  if (served.rounds.size() < kConnections * shape.cost_jobs) {
    report.fail("too few jobs answered for the model-cost average");
  }
  report.metric("net.hit_p50_ms", median(served.hit_ms), "ms",
                served.hit_ms.size());
  report.metric("net.miss_p50_ms", median(served.miss_ms), "ms",
                served.miss_ms.size());
  report.metric("net.worker_elapsed_us_p50", median(served.worker_us), "us",
                served.worker_us.size());
  report.metric("net.overhead_us_p50", median(served.overhead_us), "us",
                served.overhead_us.size());
  report_router_stats(stats_line, report);

  const std::string graphs_dir = dir->path() + "/graphs";
  if (!o.trace) {
    replay(all, cat, o.seed, shape, graphs_dir, dir->path() + "/replay",
           served, report, spans);
    return;
  }
  for (const Exchange& ex : all) {
    spans.add("net.request", ex.start, ex.end, 0,
              request_id(ex.connection, ex.k), ex.connection + 1);
  }
  // The same replay without and then with span recording; the ratio of
  // their wall times is the tracing overhead.
  Report unchecked;
  SpanRecorder off(false);
  const ServiceLayers plain =
      replay(all, cat, o.seed, shape, graphs_dir, dir->path() + "/replay0",
             served, unchecked, off);
  const ServiceLayers traced =
      replay(all, cat, o.seed, shape, graphs_dir, dir->path() + "/replay1",
             served, report, spans);
  report_service_layers(traced, report);
  report.metric("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0,
                "ratio", 2);
}

}  // namespace perfbench
