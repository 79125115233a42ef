#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <thread>

namespace tiledqr {

std::optional<std::string> env_string(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

long env_long(const char* name, long fallback) {
  auto s = env_string(name);
  if (!s) return fallback;
  try {
    size_t pos = 0;
    long value = std::stol(*s, &pos);
    return pos == s->size() ? value : fallback;
  } catch (...) {
    return fallback;
  }
}

double env_double(const char* name, double fallback) {
  auto s = env_string(name);
  if (!s) return fallback;
  try {
    size_t pos = 0;
    double value = std::stod(*s, &pos);
    return pos == s->size() ? value : fallback;
  } catch (...) {
    return fallback;
  }
}

bool env_flag(const char* name, bool fallback) {
  auto s = env_string(name);
  if (!s) return fallback;
  std::string lower = *s;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return lower == "1" || lower == "true" || lower == "yes" || lower == "on";
}

int default_thread_count() {
  // A count that does not fit in int is as unusable as an unparsable one.
  const long n = env_long("TILEDQR_THREADS", 0);
  if (n > 0 && n <= std::numeric_limits<int>::max()) return static_cast<int>(n);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace tiledqr
