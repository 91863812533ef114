#pragma once

/**
 * @file
 * Telemetry runtime switches and the monotonic clock shared by the
 * warehouse's self-observability layer (metrics_registry.h,
 * trace_span.h, self_profile.h).
 *
 * The whole layer sits behind one process-wide enable flag so its cost
 * can be measured (bench_profile_service emits instrumented-vs-disabled
 * overhead) and killed at runtime. The flag read is a single relaxed
 * atomic load — cheap enough for query-path call sites — and compiling
 * with -DDC_OBS_DISABLED removes the instrumentation bodies outright
 * for a true zero-cost build.
 */

#include <atomic>
#include <cstdint>

namespace dc::obs {

namespace detail {
/// First call latches the state from the DC_OBS env var (0/off/false
/// disables; anything else, or unset, enables).
bool enabledSlow();
extern std::atomic<int> g_enabled_state; ///< 0 unset, 1 on, 2 off.
} // namespace detail

/** Whether telemetry (counters, spans, slow-op log) is recording. */
inline bool
enabled()
{
#ifdef DC_OBS_DISABLED
    return false;
#else
    const int state =
        detail::g_enabled_state.load(std::memory_order_relaxed);
    if (state != 0)
        return state == 1;
    return detail::enabledSlow();
#endif
}

/** Flip telemetry at runtime (bench overhead phases, tests). */
void setEnabled(bool on);

/**
 * Monotonic nanoseconds since the first call in this process — the
 * timestamp base every span start/end shares, so exported traces line
 * up across threads.
 */
std::uint64_t nowNs();

} // namespace dc::obs
