// tokabench: the repository's serving benchmark.
//
//   tokabench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//             [--quick] [--spans-dir DIR]
//
// Runs the fixed workloads (all four, or the one named) against the
// serving planes in production defaults, checks the outputs, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 (the default) the metrics are the gated end-to-end ones; with
// --trace 1 (or --traced) they are the per-layer diagnostics, and the
// span ledger is written as JSON under --spans-dir.
//
// Each workload runs in its own child process (this binary re-executed),
// so set-up time and peak memory belong to that workload alone. setup_s is
// the median over five set-ups (one with --quick), each in a fresh child;
// all but the measured one exit at their first timed op. The exit code is
// 0 only when every correctness check of every workload passed.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "load.hpp"
#include "report.hpp"
#include "run.hpp"
#include "util/cli.hpp"
#include "workload.hpp"

extern char** environ;

namespace {

using tokabench::Report;

/// Runs this binary with `args`, returns its stdout; `ok` is false when it
/// could not start or exited non-zero.
std::string run_child(const std::vector<std::string>& args, bool& ok) {
  ok = false;
  int fds[2];
  if (pipe(fds) != 0) return {};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(),
                              environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (err == 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof buf);
      if (n > 0) {
        out.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (err != 0) {
    std::fprintf(stderr, "tokabench: cannot start a workload process: %s\n",
                 std::strerror(err));
    return out;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Runs one workload (its set-up-only children first, then the measured
/// child); false when a child failed to produce a report.
bool run_workload(const std::vector<std::string>& base, int setups, bool traced,
                  Report& report) {
  std::vector<double> setup_s;
  for (int i = 1; i < setups && !traced; ++i) {
    std::vector<std::string> args = base;
    args.push_back("--setup-only");
    bool ok = false;
    const Report r = tokabench::parse_report(run_child(args, ok));
    const tokabench::Metric* m = r.find("setup_s");
    if (!ok || m == nullptr) return false;
    setup_s.push_back(m->value);
  }
  bool ok = false;
  report = tokabench::parse_report(run_child(base, ok));
  if (report.attempted == 0) return false;  // it never got to report
  if (const tokabench::Metric* m = report.find("setup_s")) {
    setup_s.push_back(m->value);
    report.add("setup_s", median(setup_s), "s");
  }
  return ok || !report.correct();
}

int child_main(const toka::util::Args& args, std::int64_t start_ns) {
  tokabench::RunOptions o;
  const tokabench::WorkloadSpec* spec =
      tokabench::find_workload(args.get_string("workload", ""));
  if (spec == nullptr) return 2;
  o.quick = args.get_flag("quick");
  o.spec = o.quick ? tokabench::quick_variant(*spec) : *spec;
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  o.seconds = args.get_double("seconds", 15);
  o.traced = args.get_flag("trace") || args.get_flag("traced");
  o.setup_only = args.get_flag("setup-only");
  o.spans_dir = args.get_string("spans-dir", "");
  o.start_ns = start_ns;
  const Report report = o.spec.shape == tokabench::Shape::kCluster
                            ? tokabench::run_cluster(o)
                            : tokabench::run_wire(o);
  report.print_lines(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start_ns = tokabench::now_ns();
  const toka::util::Args args(argc, argv);
  if (args.get_flag("child")) return child_main(args, start_ns);
  if (!args.positional().empty()) {
    std::fprintf(stderr, "tokabench: unexpected argument '%s'\n",
                 args.positional().front().c_str());
    return 2;
  }

  const bool quick = args.get_flag("quick");
  const bool traced = args.get_flag("trace") || args.get_flag("traced");
  const std::string seed = std::to_string(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", quick ? 1.5 : 15);
  const int setups = quick ? 1 : 5;
  if (!(seconds > 0)) {
    std::fprintf(stderr, "tokabench: --seconds must be positive\n");
    return 2;
  }
  std::vector<const tokabench::WorkloadSpec*> selected;
  if (args.has("workload")) {
    const tokabench::WorkloadSpec* spec =
        tokabench::find_workload(args.get_string("workload", ""));
    if (spec == nullptr) {
      std::fprintf(stderr, "tokabench: unknown workload '%s'\n",
                   args.get_string("workload", "").c_str());
      return 2;
    }
    selected.push_back(spec);
  } else {
    for (const tokabench::WorkloadSpec& w : tokabench::workloads()) selected.push_back(&w);
  }
  std::string spans_dir;
  if (traced) {
    spans_dir = args.get_string(
        "spans-dir",
        (std::filesystem::read_symlink("/proc/self/exe").parent_path() / "spans").string());
    std::error_code ec;
    std::filesystem::create_directories(spans_dir, ec);
  }

  Report total;
  for (const tokabench::WorkloadSpec* spec : selected) {
    std::vector<std::string> base = {"tokabench", "--child",   "--workload", spec->name,
                                     "--seed",    seed,        "--seconds",
                                     std::to_string(seconds), "--trace",
                                     traced ? "1" : "0"};
    if (quick) base.push_back("--quick");
    if (traced) {
      base.push_back("--spans-dir");
      base.push_back(spans_dir);
    }
    Report report;
    if (!run_workload(base, setups, traced, report)) {
      std::fprintf(stderr, "tokabench: workload %s failed to run\n", spec->name.c_str());
      return 1;
    }
    report.print_table(stdout, spec->name + (traced ? " (traced)" : ""));
    total.attempted += report.attempted;
    total.failed += report.failed;
    for (const std::string& v : report.violations)
      total.violations.push_back(spec->name + ": " + v);
    for (const tokabench::Metric& m : report.metrics)
      total.add(selected.size() == 1 ? m.name : spec->name + "." + m.name, m.value,
                m.unit);
  }
  std::printf("%s\n", total.json().c_str());
  return total.correct() ? 0 : 1;
}
