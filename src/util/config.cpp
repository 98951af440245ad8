#include "util/config.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string_view>

namespace ca::util {
namespace {

std::string trim(std::string_view s) {
  const char* ws = " \t\r\n";
  auto b = s.find_first_not_of(ws);
  if (b == std::string_view::npos) return {};
  auto e = s.find_last_not_of(ws);
  return std::string(s.substr(b, e - b + 1));
}

/// Full-token integer parse: the trimmed value must be exactly one
/// integer (no trailing garbage, no "3.5" truncation, no overflow).
std::optional<long long> parse_long(const std::string& raw) {
  const std::string tok = trim(raw);
  if (tok.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (errno == ERANGE || end != tok.c_str() + tok.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(const std::string& raw) {
  const std::string tok = trim(raw);
  if (tok.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (errno == ERANGE || end != tok.c_str() + tok.size()) return std::nullopt;
  return v;
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config c;
  for (int a = 1; a < argc; ++a) {
    std::string_view tok = argv[a];
    auto eq = tok.find('=');
    if (eq == std::string_view::npos) continue;
    c.set(trim(tok.substr(0, eq)), trim(tok.substr(eq + 1)));
  }
  return c;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

std::string Config::env_name(const std::string& key) {
  std::string name = "CA_AGCM_";
  for (char ch : key) {
    // '.' and '-' are common in namespaced keys but illegal in POSIX
    // environment names; fold both to '_' so every key stays exportable.
    if (ch == '.' || ch == '-')
      name += '_';
    else
      name +=
          static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  return name;
}

std::optional<std::string> Config::lookup(const std::string& key) const {
  if (const char* env = std::getenv(env_name(key).c_str()))
    return std::string(env);
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second;
  return std::nullopt;
}

std::string Config::get_string(const std::string& key,
                               std::string fallback) const {
  auto v = lookup(key);
  return v ? *v : fallback;
}

int Config::get_int(const std::string& key, int fallback) const {
  auto v = lookup(key);
  if (!v) return fallback;
  auto parsed = parse_long(*v);
  if (!parsed || *parsed < std::numeric_limits<int>::min() ||
      *parsed > std::numeric_limits<int>::max())
    throw ConfigError(key, *v, "int");
  return static_cast<int>(*parsed);
}

double Config::get_double(const std::string& key, double fallback) const {
  auto v = lookup(key);
  if (!v) return fallback;
  auto parsed = parse_double(*v);
  if (!parsed) throw ConfigError(key, *v, "double");
  return *parsed;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto v = lookup(key);
  if (!v) return fallback;
  if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  return fallback;
}

}  // namespace ca::util
