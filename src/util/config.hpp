// Minimal key=value configuration with typed getters and environment
// overrides (CA_AGCM_<KEY>).  Examples and benches read their command-line
// arguments through it; WorkerPool and obs::TraceOptions::env_resolved
// resolve their environment overrides through an empty one.
//
// Env override naming: the key is uppercased and every '.' or '-' becomes
// '_' so namespaced keys stay exportable from a POSIX shell
// ("service.delta_chain" -> CA_AGCM_SERVICE_DELTA_CHAIN).
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>

namespace ca::util {

/// A present config value failed to parse as the requested type.  Missing
/// keys still yield the fallback; only malformed values raise (a typo in
/// "steps=1O" must not silently become the default).
struct ConfigError : std::runtime_error {
  ConfigError(const std::string& key, const std::string& value,
              const std::string& expected)
      : std::runtime_error("config key '" + key + "': cannot parse '" +
                           value + "' as " + expected),
        key(key),
        value(value) {}

  std::string key;
  std::string value;
};

class Config {
 public:
  Config() = default;

  /// Parses argv-style "key=value" tokens (skips tokens without '=').
  static Config from_args(int argc, const char* const* argv);

  void set(std::string key, std::string value);

  std::string get_string(const std::string& key,
                         std::string fallback = "") const;
  /// Typed getters: a missing key returns the fallback; a present value
  /// must parse as ONE full token of the requested type (surrounding
  /// whitespace allowed, trailing garbage is not) or ConfigError is
  /// raised.  "10x" and "3.5" are errors for get_int, not 10 and 3.
  int get_int(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Env override name of `key`: "CA_AGCM_" + uppercase(key) with '.'
  /// and '-' mapped to '_'.  Exposed so docs/tests state the rule once.
  static std::string env_name(const std::string& key);

 private:
  /// Env var env_name(key) wins over the stored entry.
  std::optional<std::string> lookup(const std::string& key) const;

  std::map<std::string, std::string> entries_;
};

}  // namespace ca::util
