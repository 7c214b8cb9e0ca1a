/**
 * @file
 * Error-handling primitives.
 *
 * Follows the gem5 discipline: panic() is for simulator bugs
 * (conditions that should be impossible regardless of user input) and
 * aborts; fatal() is for user/configuration errors and exits cleanly.
 */

#ifndef MARIONETTE_SIM_LOGGING_H
#define MARIONETTE_SIM_LOGGING_H

namespace marionette
{

/**
 * Terminate because the *simulator* is broken.  Prints the message and
 * the offending source location, then aborts (may dump core).
 */
[[noreturn]] void panicImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * Terminate because the *user input* (configuration, workload,
 * mapping request) cannot be honoured.  Exits with status 1.
 */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace marionette

/** Simulator-bug assertion/termination; see panicImpl(). */
#define MARIONETTE_PANIC(...) \
    ::marionette::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** User-error termination; see fatalImpl(). */
#define MARIONETTE_FATAL(...) \
    ::marionette::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Panic unless an invariant holds. */
#define MARIONETTE_ASSERT(cond, ...)                                  \
    do {                                                              \
        if (!(cond)) {                                                \
            ::marionette::panicImpl(__FILE__, __LINE__, __VA_ARGS__); \
        }                                                             \
    } while (0)

#endif // MARIONETTE_SIM_LOGGING_H
