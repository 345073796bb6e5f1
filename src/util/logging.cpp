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

LogField::LogField(const char *k, double v) : key(k)
{
    value = detail::format("%.6g", v);
}

LogField::LogField(const char *k, long long v) : key(k)
{
    value = detail::format("%lld", v);
}

LogField::LogField(const char *k, unsigned long long v) : key(k)
{
    value = detail::format("%llu", v);
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

namespace {

const char *
levelTag(LogLevel lvl)
{
    switch (lvl) {
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Inform:
        return "info";
      case LogLevel::Debug:
        return "debug";
      default:
        return "log";
    }
}

/** Quote a value when spaces/'='/quotes would break k=v parsing. */
std::string
kvValue(const std::string &v)
{
    if (v.empty() ||
        v.find_first_of(" =\"\t\n") != std::string::npos) {
        std::string out = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += '"';
        return out;
    }
    return v;
}

} // namespace

void
Logger::logkv(LogLevel lvl, const char *module, const char *event,
              std::initializer_list<LogField> fields)
{
    if (static_cast<int>(lvl) > static_cast<int>(_level))
        return;
    std::string line = levelTag(lvl);
    line += ": module=";
    line += module;
    line += " event=";
    line += event;
    for (const LogField &f : fields) {
        line += ' ';
        line += f.key;
        line += '=';
        line += kvValue(f.value);
    }
    write(line);
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
