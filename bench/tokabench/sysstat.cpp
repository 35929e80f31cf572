#include "sysstat.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

namespace tokabench {

double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::vector<pid_t> list_tasks() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<pid_t> new_tasks(const std::vector<pid_t>& before,
                             const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(out));
  return out;
}

pid_t current_tid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

namespace {

/// Nanoseconds on CPU from /proc/self/task/<tid>/schedstat (first field).
double task_cpu_ns(pid_t tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/schedstat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long long ns = 0;
  const int got = std::fscanf(f, "%llu", &ns);
  std::fclose(f);
  return got == 1 ? static_cast<double>(ns) : 0.0;
}

/// voluntary + involuntary context switches from /proc/self/task/<tid>/status.
double task_ctx_switches(pid_t tid) {
  const std::string path = "/proc/self/task/" + std::to_string(tid) + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  char line[256];
  double total = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long n = 0;
    if (std::sscanf(line, "voluntary_ctxt_switches: %llu", &n) == 1 ||
        std::sscanf(line, "nonvoluntary_ctxt_switches: %llu", &n) == 1)
      total += static_cast<double>(n);
  }
  std::fclose(f);
  return total;
}

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void pin(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof set, &set);  // best effort
}

}  // namespace

ThreadUsage thread_usage(const std::vector<pid_t>& tids) {
  ThreadUsage usage;
  for (const pid_t tid : tids) {
    usage.cpu_ns += task_cpu_ns(tid);
    usage.ctx_switches += task_ctx_switches(tid);
  }
  return usage;
}

void pin_apart(const std::vector<pid_t>& busy) {
  std::vector<int> cpus = allowed_cpus();
  if (cpus.empty() || busy.empty()) return;
  const std::size_t used = std::min(busy.size(), cpus.size());
  for (std::size_t i = 0; i < busy.size(); ++i)
    pin(busy[i], {cpus[cpus.size() - 1 - i % used]});
  cpus.resize(cpus.size() - used);
  if (cpus.empty()) return;
  std::vector<pid_t> sorted = busy;
  std::sort(sorted.begin(), sorted.end());
  for (const pid_t tid : new_tasks(sorted, list_tasks())) pin(tid, cpus);
}

void set_timer_slack_ns(unsigned long ns) { prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0); }

}  // namespace tokabench
