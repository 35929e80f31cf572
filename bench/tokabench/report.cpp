#include "report.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace tokabench {

namespace {
constexpr const char* kMetricTag = "tokabench-metric";
constexpr const char* kCountTag = "tokabench-count";
constexpr const char* kViolationTag = "tokabench-violation";

/// Shortest text that reads back as exactly `v` (all measured digits kept).
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

void Report::add(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = Metric{name, value, unit};
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) violations.push_back(what);
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

void Report::print_lines(std::FILE* out) const {
  for (const Metric& m : metrics)
    std::fprintf(out, "%s %s %s %s\n", kMetricTag, m.name.c_str(),
                 number(m.value).c_str(), m.unit.c_str());
  std::fprintf(out, "%s %llu %llu\n", kCountTag,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const std::string& v : violations)
    std::fprintf(out, "%s %s\n", kViolationTag, v.c_str());
  std::fflush(out);
}

void Report::print_table(std::FILE* out, const std::string& title) const {
  std::fprintf(out, "== %s: %s, %llu attempted, %llu failed\n", title.c_str(),
               correct() ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const Metric& m : metrics)
    std::fprintf(out, "   %-32s %16.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  for (const std::string& v : violations)
    std::fprintf(out, "   VIOLATION: %s\n", v.c_str());
  std::fflush(out);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

Report parse_report(const std::string& text) {
  Report report;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == kMetricTag) {
      Metric m;
      std::string value;
      fields >> m.name >> value >> m.unit;
      m.value = std::strtod(value.c_str(), nullptr);
      report.metrics.push_back(m);
    } else if (tag == kCountTag) {
      fields >> report.attempted >> report.failed;
    } else if (tag == kViolationTag) {
      std::string rest;
      std::getline(fields, rest);
      report.violations.push_back(rest.empty() ? rest : rest.substr(1));
    }
  }
  return report;
}

}  // namespace tokabench
