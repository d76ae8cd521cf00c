#include "open_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <strings.h>
#include <thread>

#include "common.h"
#include "host_speed.h"

namespace perfbench {

namespace {

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Parses one complete response at the front of `buffer` (from `offset`).
/// Returns false when more bytes are needed; on success advances `offset`.
bool ParseResponse(const std::string& buffer, size_t* offset, int* status,
                   std::string_view* body, bool* malformed) {
  const size_t start = *offset;
  const size_t header_end = buffer.find("\r\n\r\n", start);
  if (header_end == std::string::npos) return false;
  *malformed = false;
  if (buffer.compare(start, 9, "HTTP/1.1 ") != 0 &&
      buffer.compare(start, 9, "HTTP/1.0 ") != 0) {
    *malformed = true;
    return true;
  }
  *status = std::atoi(buffer.c_str() + start + 9);
  size_t content_length = 0;
  size_t line = buffer.find("\r\n", start) + 2;
  while (line < header_end) {
    const size_t next = buffer.find("\r\n", line);
    static constexpr char kName[] = "content-length:";
    if (next - line > sizeof(kName) - 1 &&
        strncasecmp(buffer.c_str() + line, kName, sizeof(kName) - 1) == 0) {
      content_length = static_cast<size_t>(
          std::strtoull(buffer.c_str() + line + sizeof(kName) - 1, nullptr, 10));
    }
    line = next + 2;
  }
  const size_t body_start = header_end + 4;
  if (buffer.size() < body_start + content_length) return false;
  *body = std::string_view(buffer.data() + body_start, content_length);
  *offset = body_start + content_length;
  return true;
}

/// One connection's state inside a generator thread.
struct Conn {
  int index = 0;
  const std::vector<ScheduledRequest>* schedule = nullptr;
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  size_t in_offset = 0;
  std::deque<size_t> inflight;
  size_t next = 0;
  bool broken = false;

  bool done() const {
    return broken || (next >= schedule->size() && inflight.empty());
  }
};

struct ThreadResult {
  std::vector<std::vector<double>> latency_s;  ///< Per owned connection.
  std::vector<double> late_s;
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  int64_t transport_errors = 0;
  double cpu_s = 0.0;
  double last_answer_s = 0.0;
};

/// Drives `conns` from one thread until every request is answered or the
/// drain deadline passes.
void DriveConnections(std::vector<Conn>* conns, int port,
                      const ResponseCheck& check, double start_s,
                      double drain_timeout_s, ThreadResult* result) {
  // The default 50 us timer slack would show up as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const double cpu_start = ThreadCpuSeconds();
  double last_due = start_s;
  for (Conn& conn : *conns) {
    result->latency_s.emplace_back(conn.schedule->size(), -1.0);
    if (!conn.schedule->empty()) {
      last_due = std::max(last_due, start_s + conn.schedule->back().due_s);
    }
    conn.fd = ConnectLoopback(port);
    if (conn.fd < 0) conn.broken = true;
  }
  const double drain_deadline = last_due + drain_timeout_s;
  char chunk[65536];
  std::vector<pollfd> pfds(conns->size());

  for (;;) {
    double now = Now();
    double wake_s = drain_deadline;
    bool active = false;
    for (size_t k = 0; k < conns->size(); ++k) {
      Conn& conn = (*conns)[k];
      const auto& schedule = *conn.schedule;
      while (!conn.broken && conn.next < schedule.size() &&
             start_s + schedule[conn.next].due_s <= now) {
        result->late_s.push_back(now - (start_s + schedule[conn.next].due_s));
        conn.out += schedule[conn.next].bytes;
        conn.inflight.push_back(conn.next);
        ++conn.next;
        ++result->sent;
      }
      while (!conn.broken && conn.out_offset < conn.out.size()) {
        const ssize_t n = send(conn.fd, conn.out.data() + conn.out_offset,
                               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_offset += static_cast<size_t>(n);
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            conn.broken = true;
          }
          break;
        }
      }
      if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
      }
      if (conn.next < schedule.size()) {
        wake_s = std::min(wake_s, start_s + schedule[conn.next].due_s);
      }
      active = active || !conn.done();
      pfds[k].fd = conn.done() ? -1 : conn.fd;
      pfds[k].events = POLLIN | (conn.out.empty() ? 0 : POLLOUT);
      pfds[k].revents = 0;
    }
    if (!active || now >= drain_deadline) break;
    const double wait_s = wake_s - now;
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    if (ppoll(pfds.data(), pfds.size(), &timeout, nullptr) <= 0) continue;
    now = Now();
    for (size_t k = 0; k < conns->size(); ++k) {
      Conn& conn = (*conns)[k];
      if ((pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      for (;;) {
        const ssize_t n = recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          conn.in.append(chunk, static_cast<size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          conn.broken = true;
        }
        break;
      }
      int status = 0;
      std::string_view body;
      bool malformed = false;
      while (!conn.inflight.empty() &&
             ParseResponse(conn.in, &conn.in_offset, &status, &body, &malformed)) {
        if (malformed) {
          conn.broken = true;
          break;
        }
        const size_t index = conn.inflight.front();
        conn.inflight.pop_front();
        if (check(conn.index, index, status, body)) {
          result->latency_s[k][index] =
              now - (start_s + (*conn.schedule)[index].due_s);
          ++result->succeeded;
        } else {
          ++result->failed;
        }
        result->last_answer_s = now;
      }
      if (conn.in_offset > 0 && conn.in_offset * 2 >= conn.in.size()) {
        conn.in.erase(0, conn.in_offset);
        conn.in_offset = 0;
      }
    }
  }
  for (Conn& conn : *conns) {
    if (conn.fd >= 0) close(conn.fd);
    if (conn.broken) ++result->transport_errors;
    // Requests never sent or never answered count against the program.
    result->failed += static_cast<int64_t>(conn.inflight.size()) +
                      static_cast<int64_t>(conn.schedule->size() - conn.next);
  }
  result->cpu_s = ThreadCpuSeconds() - cpu_start;
}

}  // namespace

double LoadReport::SlowdownAt(double due_s) const {
  const size_t window = static_cast<size_t>(due_s / kWindowS);
  return window < window_slowdown.size() ? window_slowdown[window] : slowdown;
}

std::vector<double> LoadReport::AllLatencies() const {
  std::vector<double> all;
  for (const auto& connection : latency_s) {
    for (const double value : connection) {
      if (value >= 0.0) all.push_back(value);
    }
  }
  return all;
}

LoadReport RunOpenLoop(
    int port, const std::vector<std::vector<ScheduledRequest>>& schedules,
    const ResponseCheck& check, double drain_timeout_s,
    const std::vector<int>& program_cpus,
    const std::vector<int>& generator_cpus) {
  std::vector<Conn> conns(schedules.size());
  for (size_t c = 0; c < schedules.size(); ++c) {
    conns[c].index = static_cast<int>(c);
    conns[c].schedule = &schedules[c];
  }
  ThreadResult result;
  std::vector<int> other_cpus;
  for (const int cpu : generator_cpus) {
    if (std::find(program_cpus.begin(), program_cpus.end(), cpu) == program_cpus.end()) {
      other_cpus.push_back(cpu);
    }
  }
  const HostCpuTimes host_before = ReadHostCpuTimes();
  // A short lead so the generator is connected before the first due time.
  const double start_s = Now() + 0.05;
  SpeedProbe program_probe(program_cpus, start_s, kWindowS);
  SpeedProbe generator_probe(other_cpus);
  std::thread generator([&] {
    PinToCpus(generator_cpus);
    DriveConnections(&conns, port, check, start_s, drain_timeout_s, &result);
  });
  generator.join();

  LoadReport report;
  report.poller_cpu_s = program_probe.Stop() + generator_probe.Stop();
  report.slowdown = program_probe.Slowdown();
  report.steal_frac = StealFraction(host_before, ReadHostCpuTimes());
  report.latency_s = std::move(result.latency_s);
  for (const auto& schedule : schedules) {
    report.due_s.emplace_back();
    for (const ScheduledRequest& request : schedule) {
      report.due_s.back().push_back(request.due_s);
    }
  }
  report.late_s = std::move(result.late_s);
  report.sent = result.sent;
  report.succeeded = result.succeeded;
  report.failed = result.failed;
  report.transport_errors = result.transport_errors;
  report.generator_cpu_s = result.cpu_s;
  report.wall_s = std::max(start_s, result.last_answer_s) - start_s;
  for (size_t w = 0; static_cast<double>(w) * kWindowS < report.wall_s; ++w) {
    report.window_slowdown.push_back(program_probe.WindowSlowdown(w));
  }
  return report;
}

void ReportLoad(const std::string& phase, const LoadReport& report,
                int64_t ops, double program_cpu_s, RunResult* result) {
  PrintPhase(phase, report.sent, report.succeeded, report.failed);
  int64_t scheduled = 0;
  for (const auto& connection : report.latency_s) {
    scheduled += static_cast<int64_t>(connection.size());
  }
  result->attempted += scheduled;
  result->failed += report.failed;
  std::vector<double> latency = report.AllLatencies();
  const double n = static_cast<double>(latency.size());
  // The gated percentiles are medians over fixed windows of the schedule:
  // a burst the host imposes on one window moves one of the medianed
  // values, not the run's figure.
  std::vector<std::vector<double>> windows;
  for (size_t c = 0; c < report.latency_s.size(); ++c) {
    for (size_t i = 0; i < report.latency_s[c].size(); ++i) {
      if (report.latency_s[c][i] < 0.0) continue;
      const size_t w = static_cast<size_t>(report.due_s[c][i] / kWindowS);
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].push_back(report.latency_s[c][i]);
    }
  }
  std::vector<double> window_p50;
  std::vector<double> window_p50_normalized;
  std::vector<double> window_p75;
  std::vector<double> window_p90;
  for (size_t w = 0; w < windows.size(); ++w) {
    std::vector<double>& window = windows[w];
    if (window.size() < kMinWindowSamples) continue;
    window_p50.push_back(Quantile(&window, 0.5));
    window_p50_normalized.push_back(window_p50.back() /
                                    report.SlowdownAt(static_cast<double>(w) * kWindowS));
    window_p75.push_back(Quantile(&window, 0.75));
    window_p90.push_back(Quantile(&window, 0.9));
  }
  std::printf("%s latency:", phase.c_str());
  for (const double q : {0.5, 0.75, 0.9, 0.99, 0.999}) {
    std::printf(" p%g=%.3fms(%lld beyond)", 100.0 * q,
                1e3 * Quantile(&latency, q),
                static_cast<long long>(n * (1.0 - q)));
  }
  std::printf("\n%s latency over %zu windows of %gs: median p50=%.3fms "
              "median p75=%.3fms median p90=%.3fms; window p90s (ms):",
              phase.c_str(), window_p50.size(), kWindowS,
              1e3 * Median(window_p50), 1e3 * Median(window_p75),
              1e3 * Median(window_p90));
  for (const double p90 : window_p90) std::printf(" %.3f", 1e3 * p90);
  std::printf("\n");
  std::vector<double> late = report.late_s;
  const double late_p90 = Quantile(&late, 0.9);
  const double late_max = late.empty() ? 0.0 : late.back();
  std::printf("%s generator: late_p90=%.1fus late_max=%.1fus cpu=%.3fs "
              "pollers_cpu=%.3fs transport_errors=%lld wall=%.2fs "
              "host_steal=%.1f%%\n",
              phase.c_str(), 1e6 * late_p90, 1e6 * late_max,
              report.generator_cpu_s, report.poller_cpu_s,
              static_cast<long long>(report.transport_errors), report.wall_s,
              100.0 * report.steal_frac);
  if (late_p90 > kMaxGeneratorLateP90S) {
    result->invalid_reason =
        phase + ": generator issued its 90th-percentile request " +
        std::to_string(1e6 * late_p90) + " us late (limit " +
        std::to_string(1e6 * kMaxGeneratorLateP90S) + " us)";
  }
  const double per_op = ops > 0 ? 1e6 / static_cast<double>(ops) : 0.0;
  std::printf("%s raw: latency_p50_ms=%.6f cpu_us_per_op=%.4f; host slowdown "
              "%.4f (÷ gives reference-host times)\n",
              phase.c_str(), 1e3 * Median(window_p50), program_cpu_s * per_op,
              report.slowdown);
  result->end_to_end["latency_p50_ms"] = {1e3 * Median(window_p50_normalized), "ms"};
  result->end_to_end["cpu_us_per_op"] = {program_cpu_s * per_op / report.slowdown, "us"};
  result->per_layer["loadgen.late_p90_us"] = {1e6 * late_p90, "us"};
  result->per_layer["host.steal_frac"] = {report.steal_frac, "ratio"};
  result->per_layer["loadgen.cpu_us_per_op"] = {report.generator_cpu_s * per_op,
                                                "us"};
}

std::vector<double> PoissonArrivals(double rate_per_s, double seconds,
                                    uint64_t seed, uint64_t stream) {
  Rng rng = SeededRng(seed, stream);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<double> out;
  for (double t = gap(rng); t < seconds; t += gap(rng)) out.push_back(t);
  return out;
}

}  // namespace perfbench
