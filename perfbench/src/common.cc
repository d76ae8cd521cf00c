#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string ReadSmallFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// CPU seconds of one task: schedstat's nanosecond run time when the
/// kernel exposes it, else utime+stime ticks from stat.
double TaskCpuSeconds(const std::string& task_dir) {
  const std::string schedstat = ReadSmallFile(task_dir + "/schedstat");
  if (!schedstat.empty()) {
    return 1e-9 * std::strtod(schedstat.c_str(), nullptr);
  }
  const std::string stat = ReadSmallFile(task_dir + "/stat");
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after "(comm)": state is field 3; utime and stime are 14, 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14 || index == 15) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double RssMiB() {
  std::ifstream in("/proc/self/statm");
  long long size_pages = 0;
  long long resident_pages = 0;
  in >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::map<std::string, double> ThreadCpuByName(const std::string& prefix) {
  std::map<std::string, double> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string task_dir =
        std::string("/proc/self/task/") + entry->d_name;
    std::string name = ReadSmallFile(task_dir + "/comm");
    while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
      name.pop_back();
    }
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    out[name] += TaskCpuSeconds(task_dir);
  }
  closedir(dir);
  return out;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(values->size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

Rng SeededRng(uint64_t seed, uint64_t stream) {
  std::seed_seq sequence{static_cast<uint32_t>(seed),
                         static_cast<uint32_t>(seed >> 32),
                         static_cast<uint32_t>(stream), 0x9e3779b9u};
  return Rng(sequence);
}

HistogramSnapshot SnapshotHistogram(const std::string& name) {
  const dlinf::obs::Histogram* histogram =
      dlinf::obs::MetricsRegistry::Global().GetHistogram(name);
  HistogramSnapshot snapshot;
  for (int i = 0; i < dlinf::obs::Histogram::kNumBuckets; ++i) {
    snapshot.buckets.push_back(histogram->BucketCount(i));
  }
  return snapshot;
}

double DeltaQuantile(const HistogramSnapshot& before,
                     const HistogramSnapshot& after, double q) {
  int64_t total = 0;
  for (size_t i = 0; i < after.buckets.size(); ++i) {
    total += after.buckets[i] - before.buckets[i];
  }
  if (total <= 0) return 0.0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(total))));
  int64_t seen = 0;
  for (size_t i = 0; i < after.buckets.size(); ++i) {
    seen += after.buckets[i] - before.buckets[i];
    if (seen >= rank) {
      return dlinf::obs::Histogram::BucketUpperBound(static_cast<int>(i));
    }
  }
  return 0.0;
}

int64_t CounterValue(const std::string& name) {
  return dlinf::obs::MetricsRegistry::Global().GetCounter(name)->value();
}

HostCpuTimes ReadHostCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostCpuTimes times;
  double value = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8 && (in >> value); ++field) {
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

double StealFraction(const HostCpuTimes& before, const HostCpuTimes& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

std::vector<int> ChooseCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> chosen;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return chosen;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && static_cast<int>(chosen.size()) < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen.insert(chosen.begin(), cpu);
  }
  return chosen;
}

bool PinToCpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

int PinThreadsByName(const std::string& prefix, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  int pinned = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string name =
        ReadSmallFile(std::string("/proc/self/task/") + entry->d_name + "/comm");
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (sched_setaffinity(tid, sizeof(set), &set) == 0) ++pinned;
  }
  closedir(dir);
  return pinned;
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  check_failures.push_back(what);
}

void PrintPhase(const std::string& name, int64_t sent, int64_t succeeded,
                int64_t failed) {
  std::printf("phase %-14s sent=%lld succeeded=%lld failed=%lld\n",
              name.c_str(), static_cast<long long>(sent),
              static_cast<long long>(succeeded),
              static_cast<long long>(failed));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned char>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
