// Tiny command-line argument parser for benches and examples.
//
// Accepts `--key=value`, `--key value` and boolean `--flag` forms. Unknown
// arguments are collected as positionals. Typed getters with defaults keep
// call sites one-liners:
//
//   util::Args args(argc, argv);
//   const int n = args.get_int("n", 5000);
//   const bool full = args.get_flag("full");
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace toka::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;
  /// Boolean flag: true when present without value or with a value in
  /// {1,true,yes,on}, false when absent or with a value in
  /// {0,false,no,off} (case-insensitive). Any other value throws IoError
  /// naming the flag: since `--name value` binds the next token, a stray
  /// argument after a bare flag (`--quick foo`) must not read as false.
  bool get_flag(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Comma-separated integer list, e.g. --a=1,2,5,10.
  std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  /// Every --name given, in sorted order (for rejecting unknown flags).
  std::vector<std::string> names() const;
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
};

}  // namespace toka::util
