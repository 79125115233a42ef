// Environment-variable configuration.
//
// Benchmarks and examples read their default problem sizes from TILEDQR_*
// environment variables so that the same binaries can run at smoke-test scale
// in CI and at paper scale on a large machine.
#pragma once

#include <optional>
#include <string>

namespace tiledqr {

/// Returns the raw value of an environment variable, if set and non-empty.
std::optional<std::string> env_string(const char* name);

/// Integer-valued env var; returns `fallback` when unset or unparsable.
long env_long(const char* name, long fallback);

/// Double-valued env var; returns `fallback` when unset or unparsable.
double env_double(const char* name, double fallback);

/// Boolean env var: "1", "true", "yes", "on" (case-insensitive) are true.
bool env_flag(const char* name, bool fallback = false);

/// Number of worker threads to use by default: TILEDQR_THREADS if it is a
/// positive int, otherwise std::thread::hardware_concurrency() clamped to
/// >= 1.
int default_thread_count();

}  // namespace tiledqr
