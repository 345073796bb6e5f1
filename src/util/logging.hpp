/**
 * @file
 * Status and error reporting for the FastCap library.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (a library bug), fatal() is for user errors (bad
 * configuration, impossible budgets), warn()/inform() are advisory.
 *
 * The printf-style helpers (inform/warn) emit one-liners through one
 * Logger and its one level (the CLIs' `--log-level`).
 *
 * Emission is serialized with a mutex — sweep workers, shard
 * workers, and cluster machine threads all log concurrently — but
 * level checks are lock-free. Log output goes to stderr (or the
 * redirected stream) only; nothing here may touch result files.
 */

#ifndef FASTCAP_UTIL_LOGGING_HPP
#define FASTCAP_UTIL_LOGGING_HPP

#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/mutex.hpp"

namespace fastcap {

/** Verbosity levels for the global logger. */
enum class LogLevel : int {
    Silent = 0,   //!< no advisory output at all
    Warn = 1,     //!< warnings only
    Inform = 2,   //!< warnings and informational messages
    Debug = 3,    //!< everything, including per-epoch traces
};

/**
 * Parse "silent" / "warn" / "inform" (or "info") / "debug".
 * Throws FatalError on anything else.
 */
LogLevel parseLogLevel(const std::string &name);

/** Process-wide logging configuration. */
class Logger
{
  public:
    /** Access the process-wide logger. */
    static Logger &global();

    LogLevel level() const { return _level; }
    void level(LogLevel lvl) { _level = lvl; }

    /** Redirect output (default stderr). Not owned. */
    void stream(std::FILE *out) { _out = out; }
    std::FILE *stream() const { return _out; }

    /** Emit a message at the given level with a tag prefix. */
    void emit(LogLevel lvl, const char *tag, const std::string &msg);

  private:
    Logger() = default;

    void write(const std::string &line);

    LogLevel _level = LogLevel::Warn;
    std::FILE *_out = stderr;
    Mutex _mu;
};

/** Thrown by fatal(): unrecoverable *user* error (bad config). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what) {}
};

/** Thrown by panic(): unrecoverable *internal* error (library bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what)
        : std::logic_error(what) {}
};

namespace detail {

/** printf-style formatting into a std::string. */
std::string vformat(const char *fmt, std::va_list args);
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/** Informational message; shown at LogLevel::Inform and above. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Warning; shown at LogLevel::Warn and above. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Unrecoverable user error: throws FatalError without logging, since
 * whoever catches it reports what() (each CLI prints it once).
 *
 * Use for bad configuration or impossible requests (e.g., a power
 * budget below the floor power of the machine).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Internal invariant violation: logs and throws PanicError.
 *
 * Use for conditions that indicate a bug in this library regardless of
 * user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** panic() unless the condition holds. */
#define FASTCAP_ASSERT(cond)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::fastcap::panic("assertion failed: %s (%s:%d) ",             \
                             #cond, __FILE__, __LINE__);                  \
        }                                                                 \
    } while (0)

} // namespace fastcap

#endif // FASTCAP_UTIL_LOGGING_HPP
