#include "support/cli.hpp"

#include <stdexcept>

#include "support/parse.hpp"

namespace rfc::support {

namespace {

[[noreturn]] void bad_numeric(const std::string& name,
                              const std::string& value,
                              const char* expected) {
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got \"" + value + "\"");
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)].value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg].value = argv[++i];
    } else {
      flags_[arg].value = "true";
    }
  }
}

const CliArgs::Flag* CliArgs::find(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& def) const {
  const Flag* flag = find(name);
  return flag == nullptr ? def : flag->value;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t def) const {
  const Flag* flag = find(name);
  if (flag == nullptr) return def;
  std::int64_t value = 0;
  if (!parse_int64(flag->value, value)) {
    bad_numeric(name, flag->value, "an integer");
  }
  return value;
}

std::uint64_t CliArgs::get_uint(const std::string& name,
                                std::uint64_t def) const {
  const Flag* flag = find(name);
  if (flag == nullptr) return def;
  std::uint64_t value = 0;
  if (!parse_uint64(flag->value, value)) {
    bad_numeric(name, flag->value, "a non-negative integer");
  }
  return value;
}

double CliArgs::get_double(const std::string& name, double def) const {
  const Flag* flag = find(name);
  if (flag == nullptr) return def;
  double value = 0.0;
  if (!parse_number(flag->value, value)) {
    bad_numeric(name, flag->value, "a number");
  }
  return value;
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  const Flag* flag = find(name);
  if (flag == nullptr) return def;
  return flag->value == "true" || flag->value == "1" || flag->value == "yes";
}

void CliArgs::reject_unread() const {
  std::string unread;
  for (const auto& [name, flag] : flags_) {
    if (flag.read) continue;
    unread += (unread.empty() ? "--" : ", --") + name;
  }
  if (!unread.empty()) {
    throw std::invalid_argument("unknown flag(s) for this binary: " + unread);
  }
}

}  // namespace rfc::support
