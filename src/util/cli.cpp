#include "util/cli.hpp"

#include <algorithm>
#include <cctype>

#include "util/error.hpp"

namespace toka::util {

namespace {
std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}
}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      named_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      named_[arg] = argv[++i];
    } else {
      named_[arg] = "";  // bare flag
    }
  }
}

bool Args::has(const std::string& name) const { return named_.count(name) > 0; }

std::vector<std::string> Args::names() const {
  std::vector<std::string> out;
  out.reserve(named_.size());
  for (const auto& [name, value] : named_) out.push_back(name);
  return out;
}

bool Args::get_flag(const std::string& name) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return false;
  const std::string v = lower(it->second);
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on")
    return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw IoError("flag --" + name + " takes no value or one of 1/0, " +
                "true/false, yes/no, on/off; got '" + it->second + "'");
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  const auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw IoError("argument --" + name + " expects an integer, got '" +
                  it->second + "'");
  }
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw IoError("argument --" + name + " expects a number, got '" +
                  it->second + "'");
  }
}

std::vector<std::int64_t> Args::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::string token;
  for (char c : it->second + ",") {
    if (c == ',') {
      if (!token.empty()) {
        try {
          out.push_back(std::stoll(token));
        } catch (const std::exception&) {
          throw IoError("argument --" + name + " expects integers, got '" +
                        token + "'");
        }
        token.clear();
      }
    } else {
      token += c;
    }
  }
  return out;
}

}  // namespace toka::util
