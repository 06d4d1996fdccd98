// A tiny command-line flag parser for example and bench binaries.
// Supports `--name=value`, `--name value`, and boolean `--name`.
//
// Every has()/get*() call marks the flag it names as read; once a binary
// has parsed its options, reject_unread() fails on any flag left over, so
// a typo (`--netwrok=...`) or a flag the binary does not take stops the
// run instead of silently falling back to defaults.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rfc::support {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  /// Numeric getters return `def` when the flag is absent and throw
  /// std::invalid_argument naming the flag and the offending text when the
  /// value is present but malformed (`--n=abc`, `--n=`, trailing junk,
  /// a negative value for get_uint) — a typo must not silently run the
  /// experiment with defaults.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  std::uint64_t get_uint(const std::string& name, std::uint64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Throws std::invalid_argument naming every flag that no has()/get*()
  /// call has read.  Call it once option parsing is complete.
  void reject_unread() const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  struct Flag {
    std::string value;
    /// Atomic so reads stay safe from concurrent const callers.
    mutable std::atomic<bool> read{false};
  };
  /// The flag's entry, marked read; null when the flag was not given.
  const Flag* find(const std::string& name) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace rfc::support
