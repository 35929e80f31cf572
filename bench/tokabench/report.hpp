// What one workload process hands back: metrics with units, request
// tallies and the verdict of every correctness check. A child prints it as
// tagged lines on stdout; the parent parses them back (parse_report) and
// renders the final JSON object.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tokabench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed correctness check; empty means correct.
  std::vector<std::string> violations;

  /// Adds a metric, or replaces the one already under `name`.
  void add(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a false `ok` adds `what` to violations.
  void check(bool ok, const std::string& what);
  const Metric* find(const std::string& name) const;
  bool correct() const { return violations.empty(); }

  /// Tagged-line form (one "metric"/"count"/"violation" record per line).
  void print_lines(std::FILE* out) const;
  /// Human-readable table.
  void print_table(std::FILE* out, const std::string& title) const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string json() const;
};

/// Parses the tagged lines of a child's stdout back into a report. Lines
/// without a tag are ignored.
Report parse_report(const std::string& text);

}  // namespace tokabench
