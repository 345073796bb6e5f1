#include "util/logging.hpp"

#include <vector>

namespace fastcap {

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "silent")
        return LogLevel::Silent;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "inform" || name == "info")
        return LogLevel::Inform;
    if (name == "debug")
        return LogLevel::Debug;
    throw FatalError("unknown log level '" + name +
                     "' (want silent|warn|inform|debug)");
}

Logger &
Logger::global()
{
    static Logger instance;
    return instance;
}

void
Logger::write(const std::string &line)
{
    LockGuard lock(_mu);
    std::fprintf(_out, "%s\n", line.c_str());
    std::fflush(_out);
}

void
Logger::emit(LogLevel lvl, const char *tag, const std::string &msg)
{
    if (static_cast<int>(lvl) > static_cast<int>(_level))
        return;
    write(std::string(tag) + ": " + msg);
}

namespace detail {

std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);

    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    const int written = std::vsnprintf(buf.data(), buf.size(), fmt,
                                       args);
    // Cannot panic() from the formatter panic() itself uses; fall
    // back to the raw format string on the (unreachable) mismatch.
    if (written != needed)
        return std::string(fmt);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
format(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vformat(fmt, args);
    va_end(args);
    return out;
}

} // namespace detail

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    Logger::global().emit(LogLevel::Inform, "info", msg);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    Logger::global().emit(LogLevel::Warn, "warn", msg);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    throw FatalError(msg);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = detail::vformat(fmt, args);
    va_end(args);
    Logger::global().emit(LogLevel::Warn, "panic", msg);
    throw PanicError(msg);
}

} // namespace fastcap
