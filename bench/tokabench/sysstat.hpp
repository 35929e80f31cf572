// Process- and thread-level resource readings taken from outside the
// program: rusage CPU, per-thread CPU and context switches from /proc, the
// task list (to attribute threads to the component that started them) and
// resident memory.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <vector>

namespace tokabench {

/// utime + stime of every thread of this process, in microseconds.
double process_cpu_us();

/// Peak resident set size of this process (ru_maxrss), in MiB.
double peak_rss_mib();

/// Current resident set size of this process, in bytes.
double current_rss_bytes();

/// Thread ids of this process, ascending.
std::vector<pid_t> list_tasks();

/// Ids in `after` that are not in `before` (both ascending).
std::vector<pid_t> new_tasks(const std::vector<pid_t>& before,
                             const std::vector<pid_t>& after);

/// The calling thread's id.
pid_t current_tid();

/// CPU time and context switches of a set of threads, summed.
struct ThreadUsage {
  double cpu_ns = 0;
  double ctx_switches = 0;  ///< voluntary + involuntary
};

ThreadUsage thread_usage(const std::vector<pid_t>& tids);

/// Gives each thread in `busy` a CPU of its own, from the last allowed
/// CPU down, and confines every other thread of the process (the caller
/// included, so the threads it starts later too) to the CPUs left over.
/// Busy threads share CPUs round-robin when there are more of them than
/// CPUs; with no CPU left over the other threads stay where they were.
void pin_apart(const std::vector<pid_t>& busy);

/// Sets the calling thread's timer slack (PR_SET_TIMERSLACK) so its sleeps
/// wake within `ns` of the deadline instead of the default 50 µs.
void set_timer_slack_ns(unsigned long ns);

}  // namespace tokabench
