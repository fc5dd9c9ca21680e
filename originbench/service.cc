// The `service` workload: an in-process service::Originscand over
// socketpairs, fed by a single-threaded open-loop generator over a few
// multiplexed connections. Requests draw from the loadgen's spec mix
// (origin x protocol x trial x probes x retries) on a small universe, so
// the fixed per-session cost dominates; every RESULT is byte-compared
// against a solo service::run_session of its spec.
//
// One run measures, in order:
//   low / high  constant-rate arrivals at kLowRps and kHighRps, in
//               alternating windows; each request is timed from its due
//               time to its RESULT.
//   burst       kBurstRequests submitted at once, after every group of
//               windows; run_s is the time until the last RESULT (the
//               daemon's drain time for a fixed input).
//   search      bisected rates; max_rps is the highest rate whose p99
//               stays under kLimitMs with every request answered and no
//               growing backlog of outstanding requests.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "netbase/frame.h"
#include "netbase/rng.h"
#include "obsv/metrics.h"
#include "service/client.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wire.h"
#include "sim/internet.h"
#include "sim/scenario.h"

namespace originbench {
namespace {

namespace net = originscan::net;
namespace obsv = originscan::obsv;
namespace proto = originscan::proto;
namespace service = originscan::service;
namespace sim = originscan::sim;

// Workload constants (absolute, recorded in BENCHMARK.json), against a
// capacity (max_rps) of about 1800 req/s when the recording host was quiet
// and 1100-1300 when other tenants loaded it: the low rate is a third of
// the quiet capacity, the high rate about two thirds of the loaded one. A
// high rate at two thirds of the quiet capacity (1200) sat at the knee
// whenever the host slowed and its p99 moved tenfold between runs; a lower
// low rate (400) left the executors idle longer, and its p99 followed the
// host's wakeup latency more. The latency limit is 50 times the solo
// session median (about 1 ms).
constexpr double kLowRps = 600.0;
constexpr double kHighRps = 800.0;
constexpr double kLimitMs = 50.0;
constexpr std::uint32_t kUniverseBits = 12;
constexpr int kExecutors = 2;
constexpr int kConnections = 2;
constexpr std::uint32_t kTenants = 16;
// Request counts are whole cycles of the 252-spec mix (see spec_for).
constexpr std::uint32_t kMixSize = 7 * 3 * 3 * 2 * 2;
constexpr std::uint32_t kBurstRequests = 4 * kMixSize;
constexpr std::uint32_t kSmallestBurstRequests = kMixSize;
// Latency windows: kGroupWindows rounds of one window per rate, then a
// burst, make a group; a run makes kGroups groups (about 3.7 s each), then
// searches max_rps.
constexpr int kGroupWindows = 4;
constexpr int kGroups = 7;
// Daemon starts timed for setup_s: a batch before the load and one after
// every group.
constexpr int kSetupBatch = 13;
constexpr int kSetupRepeats = kSetupBatch * (kGroups + 1);

sim::ScenarioConfig service_scenario(const Options& options) {
  sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();
  scenario.universe_size = 1u << kUniverseBits;
  // The daemon serves the paper universe (its default seed); --seed drives
  // the request stream: arrivals, specs and tenants.
  (void)options;
  return scenario;
}

// The spec mix, enumerated: every origin x protocol x trial x probes x
// retries combination the loadgen draws from.
std::vector<service::SessionSpec> all_specs() {
  static constexpr std::string_view kOrigins[] = {"AU",  "BR",   "DE", "JP",
                                                  "US1", "US64", "CEN"};
  std::vector<service::SessionSpec> specs;
  for (std::string_view origin : kOrigins) {
    for (proto::Protocol protocol : proto::kAllProtocols) {
      for (int trial = 1; trial <= 3; ++trial) {
        for (int probes = 1; probes <= 2; ++probes) {
          for (int retries = 0; retries <= 1; ++retries) {
            service::SessionSpec spec;
            spec.origin_code = std::string(origin);
            spec.protocol = protocol;
            spec.trial = trial;
            spec.probes = probes;
            spec.retries = retries;
            specs.push_back(spec);
          }
        }
      }
    }
  }
  return specs;
}

struct SoloReference {
  std::vector<service::SessionSpec> specs;
  std::vector<std::vector<std::uint8_t>> bytes;
  std::vector<double> exec_ms;
};

SoloReference solo_reference(const sim::ScenarioConfig& scenario) {
  SoloReference reference;
  reference.specs = all_specs();
  const service::FrozenUniverse universe(scenario);
  for (const service::SessionSpec& spec : reference.specs) {
    const auto start = Clock::now();
    service::SessionOutcome outcome = service::run_session(universe, spec);
    reference.exec_ms.push_back(seconds_since(start) * 1e3);
    reference.bytes.push_back(outcome.ok ? std::move(outcome.records)
                                         : std::vector<std::uint8_t>{});
  }
  return reference;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// One running daemon with its client connections handshaken.
struct RunningDaemon {
  std::unique_ptr<service::Originscand> daemon;
  std::thread serve_thread;
  std::vector<int> fds;  // client ends, nonblocking after HELLO

  ~RunningDaemon() { stop(); }

  void stop() {
    if (!serve_thread.joinable()) return;
    daemon->request_stop();
    serve_thread.join();
    for (int fd : fds) ::close(fd);
    fds.clear();
  }
};

// The CPUs this process may use, split in two: the spinning generator
// gets one to itself and the daemon's threads the rest, so that the
// scheduler never queues a woken daemon thread behind the generator (as
// it may when it places a wakee on its waker's CPU). With a single CPU
// nothing is split.
struct CpuSplit {
  cpu_set_t daemon;
  cpu_set_t generator;
  bool split = false;
};

const CpuSplit& cpu_split() {
  static const CpuSplit split = [] {
    CpuSplit cpus;
    CPU_ZERO(&cpus.daemon);
    CPU_ZERO(&cpus.generator);
    if (::sched_getaffinity(0, sizeof cpus.daemon, &cpus.daemon) != 0 ||
        CPU_COUNT(&cpus.daemon) < 2) {
      return cpus;
    }
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &cpus.daemon)) continue;
      CPU_CLR(cpu, &cpus.daemon);
      CPU_SET(cpu, &cpus.generator);
      break;
    }
    cpus.split = true;
    return cpus;
  }();
  return split;
}

// Moves the calling thread to the generator's CPU, or to the daemon's
// (where the threads it starts inherit them).
void pin_calling_thread(bool generator) {
  const CpuSplit& cpus = cpu_split();
  if (!cpus.split) return;
  const cpu_set_t& set = generator ? cpus.generator : cpus.daemon;
  ::sched_setaffinity(0, sizeof set, &set);
}

// Starts a daemon and handshakes every connection; returns the time from
// construction to the first HELLO_ACK. The daemon's threads inherit the
// daemon CPUs from the calling thread (a Generator later moves that thread
// to its own CPU).
double start_daemon(RunningDaemon& running, const service::ServiceConfig& config,
                    std::string* error) {
  pin_calling_thread(false);
  const auto start = Clock::now();
  running.daemon = std::make_unique<service::Originscand>(config);
  std::vector<int> server_fds;
  for (int i = 0; i < kConnections; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      *error = "socketpair failed";
      return 0.0;
    }
    running.fds.push_back(sv[0]);
    server_fds.push_back(sv[1]);
  }
  service::Originscand* daemon = running.daemon.get();
  running.serve_thread =
      std::thread([daemon, server_fds] { daemon->serve(-1, server_fds); });
  double setup_s = 0.0;
  for (int& fd : running.fds) {
    service::ServiceClient client(fd);
    const bool ok = client.hello();
    if (setup_s == 0.0) setup_s = seconds_since(start);
    fd = client.release();
    if (!ok) {
      *error = "handshake failed: " + client.error();
      return 0.0;
    }
    set_nonblocking(fd);
  }
  return setup_s;
}

// Set-up: kSetupBatch daemon starts, each timed from construction (the
// universe build) to the first HELLO_ACK. Batches run before the load and
// between groups of windows, so the median covers the whole run, not the
// moment before the load.
bool time_setup(const service::ServiceConfig& config,
                std::vector<double>& setup_s, Report& report) {
  for (int i = 0; i < kSetupBatch; ++i) {
    RunningDaemon running;
    std::string error;
    setup_s.push_back(start_daemon(running, config, &error));
    if (!error.empty()) {
      report.check(1, 1, "daemon start: " + error);
      return false;
    }
  }
  return true;
}

// ---- Open-loop generator ---------------------------------------------

struct Request {
  std::uint32_t spec = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point admitted;
  bool has_admitted = false;
  bool answered = false;
};

struct PhaseResult {
  std::vector<double> latency_ms;  // answered OK, due -> RESULT
  std::vector<double> late_ms;     // due -> SUBMIT handed to the socket
  std::vector<double> admit_ms;    // SUBMIT -> ACCEPTED (STATUS QUEUED)
  std::vector<double> queue_ms;    // latency minus the spec's solo time
  std::vector<double> frame_us;    // RESULT re-encode + FrameDecoder
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;    // ERROR (ADMISSION_FULL or other)
  std::uint64_t unanswered = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t results = 0;
  bool backlog_growing = false;
  double wall_s = 0.0;  // first due -> last answer

  [[nodiscard]] std::uint64_t failed() const {
    return refused + unanswered + mismatched;
  }
  // The tail latency with every failed request counted as over any limit.
  [[nodiscard]] double tail_ms() const {
    std::vector<double> all = latency_ms;
    all.insert(all.end(), failed(), HUGE_VAL);
    return summarize(std::move(all)).tail;
  }
};

constexpr double kGraceS = 5.0;

class Generator {
 public:
  Generator(const std::vector<int>& fds, const SoloReference& reference,
            const Options& options, Tracer* tracer)
      : reference_(reference), options_(options), tracer_(tracer) {
    pin_calling_thread(true);
    for (int fd : fds) {
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
  }

  // Runs one phase: requests become due at `offsets_s` after the phase
  // starts (sorted). Waits for every answer, or until `grace_s` after the
  // last due time.
  PhaseResult run(const std::vector<double>& offsets_s, std::uint64_t mix_key,
                  double grace_s) {
    PhaseResult phase;
    phase.attempted = offsets_s.size();
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    std::size_t next = 0;
    std::size_t outstanding = 0;
    Clock::time_point last_answer = start;
    std::vector<std::pair<double, std::size_t>> backlog;  // (t, outstanding)
    Clock::time_point next_sample = start;
    const auto due_of = [&](std::size_t k) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets_s[k]));
    };
    const auto last_due =
        offsets_s.empty() ? start : due_of(offsets_s.size() - 1);
    const auto give_up = last_due + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(grace_s));
    for (;;) {
      auto now = Clock::now();
      while (next < offsets_s.size() && due_of(next) <= now) {
        submit(next, due_of(next), mix_key);
        ++next;
        ++outstanding;
      }
      flush();
      now = Clock::now();
      if (now >= next_sample) {
        backlog.push_back({seconds_between(start, now), outstanding});
        next_sample = now + std::chrono::milliseconds(10);
      }
      if (next == offsets_s.size() && outstanding == 0) break;
      if (now > give_up) break;

      // Spin, polling without a timeout: a sleeping thread wakes up tens
      // to hundreds of microseconds late on a loaded virtual machine, and
      // that lateness would land in every request's latency, both when it
      // is due and when its RESULT arrives.
      timespec timeout{};
      std::vector<pollfd> fds;
      for (const Conn& conn : conns_) {
        short events = POLLIN;
        if (conn.out_off < conn.out.size()) events |= POLLOUT;
        fds.push_back({conn.fd, events, 0});
      }
      const int ready =
          ::ppoll(fds.data(), static_cast<nfds_t>(fds.size()), &timeout, nullptr);
      if (ready < 0 && errno != EINTR) break;
      if (ready <= 0) continue;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        receive(conns_[c], phase, outstanding, last_answer);
      }
    }
    for (auto& [id, request] : pending_) {
      (void)id;
      if (!request.answered) ++phase.unanswered;
    }
    pending_.clear();
    phase.wall_s = seconds_between(start, last_answer);
    // Backlog: outstanding requests sampled over the arrival window; a
    // queue that keeps rising ends much higher than it started.
    const double horizon = offsets_s.empty() ? 0.0 : offsets_s.back();
    std::vector<double> early;
    std::vector<double> late;
    for (const auto& [t, count] : backlog) {
      if (t > horizon) break;
      if (t < horizon * 0.4) {
        early.push_back(static_cast<double>(count));
      } else if (t >= horizon * 0.7) {
        late.push_back(static_cast<double>(count));
      }
    }
    if (!early.empty() && !late.empty()) {
      const double before = median(early);
      const double after = median(late);
      phase.backlog_growing = after > 2.0 * before + 2.0 * kExecutors;
    }
    return phase;
  }

  [[nodiscard]] bool io_error() const { return io_error_; }

 private:
  struct Conn {
    int fd = -1;
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
  };

  void submit(std::size_t k, Clock::time_point due, std::uint64_t mix_key) {
    const std::uint64_t id = ++last_id_;
    const std::uint64_t draw = net::mix_u64(options_.seed, mix_key, k);
    Request request;
    request.spec = spec_for(k, mix_key);
    request.due = due;
    const service::SessionSpec& spec = reference_.specs[request.spec];
    service::ServiceWire message;
    message.type = service::ServiceMsg::kSubmit;
    message.request_id = id;
    message.tenant = static_cast<std::uint32_t>((draw >> 32) % kTenants);
    message.origin_code = spec.origin_code;
    message.protocol = spec.protocol;
    message.trial = static_cast<std::uint8_t>(spec.trial);
    message.probes = static_cast<std::uint8_t>(spec.probes);
    message.retries = static_cast<std::uint8_t>(spec.retries);
    const auto frame = service::encode_service_message(message);
    Conn& conn = conns_[message.tenant % conns_.size()];
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
    request.sent = Clock::now();
    pending_.emplace(id, request);
  }

  // The spec mix is stratified: every kMixSize consecutive requests are a
  // seed-shuffled permutation of the whole mix, so any whole
  // number of cycles carries exactly the same work whatever the seed;
  // only the order differs.
  std::uint32_t spec_for(std::size_t k, std::uint64_t mix_key) {
    const std::size_t n = reference_.specs.size();
    const std::uint64_t cycle = k / n;
    if (cycle_order_.size() != n || cycle_ != cycle || cycle_key_ != mix_key) {
      cycle_order_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        cycle_order_[i] = static_cast<std::uint32_t>(i);
      }
      for (std::size_t i = n - 1; i > 0; --i) {
        const std::uint64_t draw =
            net::mix_u64(options_.seed, mix_key, cycle, i + 0x5F0000u);
        std::swap(cycle_order_[i], cycle_order_[draw % (i + 1)]);
      }
      cycle_ = cycle;
      cycle_key_ = mix_key;
    }
    return cycle_order_[k % n];
  }

  void flush() {
    for (Conn& conn : conns_) {
      while (conn.out_off < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.out_off,
                   conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        io_error_ = true;
        break;
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
    }
  }

  void receive(Conn& conn, PhaseResult& phase, std::size_t& outstanding,
               Clock::time_point& last_answer) {
    std::uint8_t buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        conn.decoder.feed(std::span(buffer, static_cast<std::size_t>(n)));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      io_error_ = true;
      break;
    }
    while (auto payload = conn.decoder.next()) {
      const auto now = Clock::now();
      auto message = service::decode_service_message(*payload);
      if (!message) {
        io_error_ = true;
        break;
      }
      const auto it = pending_.find(message->request_id);
      if (it == pending_.end() || it->second.answered) continue;
      Request& request = it->second;
      if (message->type == service::ServiceMsg::kStatus) {
        if (!request.has_admitted) {
          request.admitted = now;
          request.has_admitted = true;
        }
        continue;
      }
      request.answered = true;
      --outstanding;
      last_answer = now;
      if (message->type != service::ServiceMsg::kResult) {
        ++phase.refused;
        continue;
      }
      if (options_.corrupt == "result" && !corrupted_ &&
          !message->records.empty()) {
        message->records[message->records.size() / 2] ^= 0x01;
        corrupted_ = true;
      }
      const auto& expected = reference_.bytes[request.spec];
      if (message->records != expected || expected.empty()) {
        ++phase.mismatched;
        continue;
      }
      const double latency_ms = seconds_between(request.due, now) * 1e3;
      phase.latency_ms.push_back(latency_ms);
      phase.late_ms.push_back(seconds_between(request.due, request.sent) * 1e3);
      if (request.has_admitted) {
        phase.admit_ms.push_back(
            seconds_between(request.sent, request.admitted) * 1e3);
      }
      phase.queue_ms.push_back(latency_ms - reference_.exec_ms[request.spec]);
      phase.result_bytes += message->records.size();
      ++phase.results;
      if (tracer_ != nullptr) trace_request(*message, request, now, phase);
    }
    if (conn.decoder.error() != net::FrameError::kNone) io_error_ = true;
  }

  // Spans of one request (all sharing its id): the request from due time
  // to RESULT, its admission, the solo-measured execution it contains,
  // and the benchmark-side framing of its RESULT.
  void trace_request(const service::ServiceWire& message,
                     const Request& request, Clock::time_point received,
                     PhaseResult& phase) {
    const std::uint64_t id = message.request_id;
    const auto frame_start = Clock::now();
    const auto frame = service::encode_service_message(message);
    net::FrameDecoder decoder;
    decoder.feed(frame);
    const auto payload = decoder.next();
    const auto decoded = payload ? service::decode_service_message(*payload)
                                 : std::nullopt;
    const auto frame_end = Clock::now();
    if (!decoded || decoded->records != message.records) io_error_ = true;
    phase.frame_us.push_back(seconds_between(frame_start, frame_end) * 1e6);

    const std::uint32_t root =
        tracer_->record("service.request", id, 0, request.due, received);
    if (request.has_admitted) {
      tracer_->record("service.admit", id, root, request.sent,
                      request.admitted);
    }
    const auto exec_ns = static_cast<std::int64_t>(
        reference_.exec_ms[request.spec] * 1e6);
    tracer_->aggregate("service.exec", id, root, request.sent, received,
                       exec_ns, 1);
    tracer_->record("netbase.frame", id, root, frame_start, frame_end);
  }

  const SoloReference& reference_;
  const Options& options_;
  Tracer* tracer_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, Request> pending_;
  std::uint64_t last_id_ = 0;
  std::vector<std::uint32_t> cycle_order_;
  std::uint64_t cycle_ = 0;
  std::uint64_t cycle_key_ = 0;
  bool io_error_ = false;
  bool corrupted_ = false;
};

// Due times of a constant-rate open loop (as wrk2 drives one): request k
// is due at k / rps, whether or not earlier requests have been answered.
// Poisson arrivals model independent users more closely, but their
// arrival clumps make the tail vary more between runs than any change
// the benchmark is meant to detect.
std::vector<double> constant_rate_offsets(double rps, std::uint64_t requests) {
  std::vector<double> offsets;
  for (std::uint64_t k = 0; k < requests; ++k) {
    offsets.push_back(static_cast<double>(k) / rps);
  }
  return offsets;
}

// Whole mix cycles covering about `seconds` at `rps` (at least one).
std::uint64_t requests_for(double rps, double seconds) {
  const auto cycles = static_cast<std::uint64_t>(rps * seconds / kMixSize);
  return std::max<std::uint64_t>(1, cycles) * kMixSize;
}

void check_phase(Report& report, const PhaseResult& phase,
                 const std::string& what) {
  report.check(phase.attempted, phase.failed(),
               what + ": refused " + std::to_string(phase.refused) +
                   ", unanswered " + std::to_string(phase.unanswered) +
                   ", mismatched " + std::to_string(phase.mismatched));
}

// Finds the highest offered rate whose p99 stays under kLimitMs with
// every request answered and no growing backlog. The burst drain rate
// `capacity` brackets it: rates between 0.5x and 1.1x capacity are
// bisected five times, one open-loop step each. (A bracket centred on the
// capacity put the first, coin-flip step exactly at the knee and split the
// result between two halves of the bracket.) Refused or unanswered
// requests fail a step (overload is what the search probes for); only a
// mismatched RESULT fails the run.
double search_max_rps(Generator& generator, Report& report, double capacity,
                      double step_s) {
  std::uint64_t key = 100;
  std::string steps;
  const auto passes = [&](double rps) {
    const auto offsets =
        constant_rate_offsets(rps, requests_for(rps, step_s));
    const PhaseResult phase = generator.run(offsets, key, kGraceS);
    ++key;
    report.check(phase.attempted, phase.mismatched,
                 "search at " + std::to_string(rps) + " req/s: mismatched");
    const bool ok = phase.failed() == 0 && !phase.backlog_growing &&
                    phase.tail_ms() <= kLimitMs;
    char step[96];
    std::snprintf(step, sizeof step, "%s%.0f:%s(p99 %.1f%s)",
                  steps.empty() ? "" : " ", rps, ok ? "ok" : "fail",
                  phase.tail_ms(), phase.backlog_growing ? " backlog" : "");
    steps += step;
    return ok;
  };
  double pass = 0.0;
  double lo = 0.5 * capacity;
  double hi = 1.1 * capacity;
  for (int i = 0; i < 5; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (passes(mid)) {
      pass = lo = mid;
    } else {
      hi = mid;
    }
  }
  // Every bisection step failed: walk down from the bracket's floor.
  for (double rps = lo; pass == 0.0 && rps >= 0.05 * capacity; rps *= 0.7) {
    if (passes(rps)) pass = rps;
  }
  report.note("max_rps.steps", steps);
  return pass;
}

std::uint32_t burst_requests(const Options& options) {
  return options.smallest ? kSmallestBurstRequests : kBurstRequests;
}

PhaseResult burst(Generator& generator, const Options& options,
                  std::uint64_t key) {
  return generator.run(std::vector<double>(burst_requests(options), 0.0), key,
                       30.0);
}

int trace_service(const Options& options, const service::ServiceConfig& config,
                  const SoloReference& reference,
                  const std::vector<double>& setup_s, Report& report) {
  std::map<std::string, double> layer;
  const sim::ScenarioConfig scenario = service_scenario(options);

  // World build and per-(origin, protocol) prewarm on the service world.
  std::vector<double> build_s;
  std::optional<sim::World> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const auto start = Clock::now();
    world.emplace(
        sim::build_world(scenario, sim::paper_origins(scenario.universe_size)));
    build_s.push_back(seconds_since(start));
  }
  layer["sim.build_world_s"] = median(build_s);
  std::vector<double> prewarm_ms;
  for (sim::OriginId origin = 0; origin < world->origins.size(); ++origin) {
    for (proto::Protocol protocol : proto::kAllProtocols) {
      sim::PersistentState persistent;
      sim::TrialContext context;
      context.experiment_seed = world->seed;
      context.simultaneous_origins = static_cast<int>(world->origins.size());
      sim::Internet internet(&*world, context, &persistent);
      const auto start = Clock::now();
      internet.prewarm(origin, protocol);
      prewarm_ms.push_back(seconds_since(start) * 1e3);
    }
  }
  layer["sim.prewarm_ms"] = median(prewarm_ms);
  // A 2^12 permutation is too short to time once; walk it 256 times.
  layer["scanner.perm_ns_per_addr"] = permutation_ns_per_addr(
      world->universe_size, net::mix_u64(world->seed, 0, 0x5EEDAULL), 256,
      report);
  const Tail exec = summarize(reference.exec_ms);
  layer["service.exec_ms.p50"] = exec.p50;
  layer["service.exec_ms.p99"] = exec.tail;

  // Untraced burst, then the traced phases on a daemon whose scan
  // counters are on.
  double untraced_burst_s = 0.0;
  {
    RunningDaemon running;
    std::string error;
    start_daemon(running, config, &error);
    if (!error.empty()) {
      report.check(1, 1, "daemon start: " + error);
      return report.finish(options);
    }
    Generator generator(running.fds, reference, options, nullptr);
    const PhaseResult phase = burst(generator, options, 90);
    check_phase(report, phase, "burst (untraced)");
    untraced_burst_s = phase.wall_s;
  }

  Tracer tracer;
  obsv::MetricsRegistry registry;
  service::ServiceConfig traced_config = config;
  traced_config.metrics = &registry;
  RunningDaemon running;
  std::string error;
  start_daemon(running, traced_config, &error);
  if (!error.empty()) {
    report.check(1, 1, "daemon start: " + error);
    return report.finish(options);
  }
  Generator generator(running.fds, reference, options, &tracer);
  const double phase_s = std::max(1.0, options.seconds / 4.0);
  PhaseResult all;
  for (const auto& [key, rps] :
       std::vector<std::pair<std::uint64_t, double>>{{1, kLowRps},
                                                     {2, kHighRps}}) {
    const PhaseResult phase = generator.run(
        constant_rate_offsets(rps, requests_for(rps, phase_s)), key,
        kGraceS);
    check_phase(report, phase, "traced phase");
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.latency_ms, phase.latency_ms);
    append(all.late_ms, phase.late_ms);
    append(all.admit_ms, phase.admit_ms);
    append(all.queue_ms, phase.queue_ms);
    append(all.frame_us, phase.frame_us);
    all.result_bytes += phase.result_bytes;
    all.results += phase.results;
  }
  const PhaseResult traced_burst = burst(generator, options, 91);
  check_phase(report, traced_burst, "burst (traced)");
  if (generator.io_error()) report.check(1, 1, "generator transport error");
  running.stop();

  const Tail queue = summarize(all.queue_ms);
  layer["service.queue_ms.p50"] = queue.p50;
  layer["service.queue_ms.p99"] = queue.tail;
  const Tail admit = summarize(all.admit_ms);
  layer["service.admit_ms.p50"] = admit.p50;
  layer["service.admit_ms.p99"] = admit.tail;
  const obsv::MetricBlock& metrics = running.daemon->service_metrics();
  layer["service.inflight_peak"] = static_cast<double>(
      metrics.gauge(obsv::Gauge::kServiceInflightPeak));
  const auto depth_count =
      metrics.histogram_count(obsv::Histogram::kServiceQueueDepth);
  layer["service.queue_depth"] =
      depth_count == 0
          ? 0.0
          : static_cast<double>(
                metrics.histogram_sum(obsv::Histogram::kServiceQueueDepth)) /
                static_cast<double>(depth_count);
  double frame_us = 0.0;
  for (double us : all.frame_us) frame_us += us;
  layer["netbase.frame_us_per_result"] =
      all.frame_us.empty() ? 0.0 : frame_us / static_cast<double>(all.frame_us.size());
  layer["service.result_kib"] =
      all.results == 0 ? 0.0
                       : static_cast<double>(all.result_bytes) / 1024.0 /
                             static_cast<double>(all.results);
  layer["gen.late_ms"] = summarize(all.late_ms).tail;

  const obsv::MetricBlock scans = registry.snapshot();
  using obsv::Counter;
  const double grabs = static_cast<double>(scans.counter(Counter::kZgrabGrabs));
  layer["scanner.grabs"] = grabs;
  layer["scanner.l7_completed_ratio"] =
      grabs > 0 ? static_cast<double>(scans.counter(Counter::kZgrabCompleted)) /
                      grabs
                : 0.0;
  const auto attempts =
      scans.histogram_count(obsv::Histogram::kZgrabAttempts);
  layer["scanner.l7_attempts_per_grab"] =
      attempts == 0
          ? 0.0
          : static_cast<double>(
                scans.histogram_sum(obsv::Histogram::kZgrabAttempts)) /
                static_cast<double>(attempts);
  const double sent =
      static_cast<double>(scans.counter(Counter::kZmapProbesSent));
  layer["sim.live_share"] =
      sent > 0 ? static_cast<double>(scans.counter(Counter::kSimDropsIds) +
                                     scans.counter(Counter::kSimResponsesSynack) +
                                     scans.counter(Counter::kSimResponsesRst)) /
                     sent
               : 0.0;
  layer["trace.overhead_ratio"] =
      untraced_burst_s > 0 ? traced_burst.wall_s / untraced_burst_s : 0.0;
  // Share of request time no span covers: queue wait and delivery.
  double covered = 0.0;
  double total = 0.0;
  for (double share : tracer.unattributed_shares("service.request")) {
    covered += 1.0 - share;
    total += 1.0;
  }
  layer["trace.unattributed_share"] = total > 0 ? 1.0 - covered / total : 0.0;
  report.note("setup_s", std::to_string(median(setup_s)));
  report.note("untraced_burst_s", std::to_string(untraced_burst_s));
  report.note("traced_burst_s", std::to_string(traced_burst.wall_s));
  write_trace(tracer, options, report);
  emit_per_layer(report, std::move(layer));
  return report.finish(options);
}

}  // namespace

int run_service(const Options& options) {
  Report report;
  const sim::ScenarioConfig scenario = service_scenario(options);
  service::ServiceConfig config;
  config.scenario = scenario;
  config.executor_threads = kExecutors;

  const SoloReference reference = solo_reference(scenario);
  report.check(1, reference.specs.size() == kMixSize ? 0 : 1,
               "spec mix size");
  std::uint64_t solo_failed = 0;
  for (const auto& bytes : reference.bytes) solo_failed += bytes.empty();
  report.check(reference.bytes.size(), solo_failed, "solo reference sessions");

  EndToEnd e2e;
  if (!time_setup(config, e2e.setup_s, report)) return report.finish(options);
  if (options.trace) {
    return trace_service(options, config, reference, e2e.setup_s, report);
  }

  RunningDaemon running;
  std::string error;
  start_daemon(running, config, &error);
  if (!error.empty()) {
    report.check(1, 1, "daemon start: " + error);
    return report.finish(options);
  }
  Generator generator(running.fds, reference, options, nullptr);
  // The two rates alternate one window (one mix cycle) at a time, so both
  // see the same host states, and a burst follows every group of
  // kGroupWindows rounds. p50 is the median of the windows' own p50s, p99
  // the median of the groups' (kGroupWindows windows of one rate, enough
  // requests for a p99 with ten beyond it) and run_s the median of the
  // bursts' drain times: a host stall, or a slow spell of a few seconds,
  // moves few of the samples.
  const int group_windows = options.smallest ? 1 : kGroupWindows;
  const int groups = options.smallest ? 1 : kGroups;
  struct Rate {
    std::uint64_t key;
    double rps;
    std::vector<double> p50s;
    std::vector<double> tails;
    std::vector<double> group;  // latencies of the current group
    Tail tail;
  };
  Rate rates[] = {{1, kLowRps, {}, {}, {}, {}}, {2, kHighRps, {}, {}, {}, {}}};
  std::vector<double> late_ms;
  std::string bursts;
  std::uint64_t window = 0;
  for (int group = 0; group < groups; ++group) {
    for (int w = 0; w < group_windows; ++w, ++window) {
      for (Rate& rate : rates) {
        const PhaseResult phase =
            generator.run(constant_rate_offsets(rate.rps, kMixSize),
                          rate.key * 1000 + window, kGraceS);
        check_phase(report, phase, rate.key == 1 ? "low rate" : "high rate");
        std::vector<double> latency = phase.latency_ms;
        latency.insert(latency.end(), phase.failed(), HUGE_VAL);
        rate.p50s.push_back(median(latency));
        rate.group.insert(rate.group.end(), latency.begin(), latency.end());
        late_ms.insert(late_ms.end(), phase.late_ms.begin(),
                       phase.late_ms.end());
      }
    }
    for (Rate& rate : rates) {
      const Tail group_tail = summarize(std::move(rate.group));
      rate.group.clear();
      rate.tails.push_back(group_tail.tail);
      rate.tail.tail_q = group_tail.tail_q;
      rate.tail.n += group_tail.n;
    }
    const PhaseResult phase =
        burst(generator, options, 10 + static_cast<std::uint64_t>(group));
    check_phase(report, phase, "burst");
    e2e.run_s.push_back(phase.wall_s);
    bursts += std::to_string(phase.wall_s) + " ";
    if (!time_setup(config, e2e.setup_s, report)) return report.finish(options);
    pin_calling_thread(true);
  }
  for (Rate& rate : rates) {
    rate.tail.p50 = median(rate.p50s);
    rate.tail.tail = median(rate.tails);
    std::string listing;
    for (double p50 : rate.p50s) listing += std::to_string(p50) + " ";
    listing += "/";
    for (double tail : rate.tails) listing += " " + std::to_string(tail);
    report.note(rate.key == 1 ? "windows.low" : "windows.high", listing);
  }
  e2e.low = rates[0].tail;
  e2e.high = rates[1].tail;
  report.note("bursts", bursts);
  const double capacity = burst_requests(options) / median(e2e.run_s);
  e2e.max_rps = search_max_rps(
      generator, report, capacity,
      options.smallest ? 0.3 : std::max(0.5, options.seconds * 0.05));
  if (generator.io_error()) report.check(1, 1, "generator transport error");
  running.stop();

  emit_end_to_end(report, e2e);
  report.note("gen.late_ms.p99", std::to_string(summarize(late_ms).tail));
  report.note("units",
              "requests; low = " + std::to_string(kLowRps) +
                  " req/s, high = " + std::to_string(kHighRps) +
                  " req/s, limit " + std::to_string(kLimitMs) + " ms");
  return report.finish(options);
}

}  // namespace originbench
