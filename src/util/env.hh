/**
 * @file
 * The process-environment front door.
 *
 * Environment variables are process-global mutable state: a getenv()
 * scattered through the tree is invisible configuration that no
 * determinism audit can enumerate. Every environment read in src/,
 * bench/ and tools/ therefore goes through these helpers — the
 * env-read rule in tools/tlat_lint.py confines the raw getenv() call
 * to env.cc — so `grep envString` (and friends) lists the complete
 * configuration surface of the system.
 *
 * Semantics shared by all helpers: an unset variable and an empty
 * value are both "not configured" (the historical behaviour of every
 * knob here: TLAT_JOBS, TLAT_BRANCH_BUDGET, TLAT_CHUNK_RECORDS,
 * TLAT_TRACE_CACHE_DIR, TLAT_DISABLE_SIMD, TLAT_CSV_DIR,
 * TLAT_BENCH_JSON_DIR).
 */

#ifndef TLAT_UTIL_ENV_HH
#define TLAT_UTIL_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

namespace tlat::util
{

/** The variable's value, or nullopt when unset or empty. */
std::optional<std::string> envString(const char *name);

/**
 * The variable parsed by parseSize() (base 10, or the 2^k notation),
 * or nullopt when unset, empty, malformed or above 2^64 - 1. Callers
 * that want to treat a malformed value as a hard error parse
 * envString() themselves.
 */
std::optional<std::uint64_t> envUnsigned(const char *name);

/**
 * Boolean knob: false when unset, empty, "0" or "OFF"; true for any
 * other value (ON, 1, yes, ...).
 */
bool envFlag(const char *name);

} // namespace tlat::util

#endif // TLAT_UTIL_ENV_HH
