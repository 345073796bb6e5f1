#include "util/args.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fastcap {

int
narrowToInt(long value, const char *what)
{
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max())
        fatal("%s value %ld does not fit in an int", what, value);
    return static_cast<int>(value);
}

ArgParser::ArgParser(std::string program, std::string description)
    : _program(std::move(program)), _description(std::move(description))
{
}

void
ArgParser::addString(const std::string &name, std::string def,
                     std::string help)
{
    if (!_options.emplace(name, Option{Kind::String, std::move(help),
                                       std::move(def), false})
             .second)
        panic("ArgParser: duplicate option --%s", name.c_str());
    _order.push_back(name);
}

void
ArgParser::addDouble(const std::string &name, double def,
                     std::string help)
{
    char buf[64];
    checkedSnprintf(buf, sizeof(buf), "%g", def);
    if (!_options.emplace(name, Option{Kind::Double, std::move(help),
                                       std::string(buf), false})
             .second)
        panic("ArgParser: duplicate option --%s", name.c_str());
    _order.push_back(name);
}

void
ArgParser::addInt(const std::string &name, long def, std::string help)
{
    if (!_options.emplace(name, Option{Kind::Int, std::move(help),
                                       std::to_string(def), false})
             .second)
        panic("ArgParser: duplicate option --%s", name.c_str());
    _order.push_back(name);
}

void
ArgParser::addFlag(const std::string &name, std::string help)
{
    if (!_options.emplace(name, Option{Kind::Flag, std::move(help),
                                       "0", false})
             .second)
        panic("ArgParser: duplicate option --%s", name.c_str());
    _order.push_back(name);
}

bool
ArgParser::assign(const std::string &name, const std::string &value)
{
    auto it = _options.find(name);
    if (it == _options.end())
        return false;
    Option &opt = it->second;

    switch (opt.kind) {
      case Kind::Double: {
        char *end = nullptr;
        (void)std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0')
            return false;
        break;
      }
      case Kind::Int: {
        char *end = nullptr;
        (void)std::strtol(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0')
            return false;
        break;
      }
      case Kind::Flag:
        if (value != "0" && value != "1")
            return false;
        break;
      case Kind::String:
        break;
    }
    opt.value = value;
    opt.provided = true;
    return true;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(helpText().c_str(), stdout);
            return false;
        }
        if (arg.rfind("--", 0) != 0) {
            std::fprintf(stderr, "%s: unexpected argument '%s'\n",
                         _program.c_str(), arg.c_str());
            return false;
        }
        arg = arg.substr(2);

        std::string value;
        bool has_value = false;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }

        auto it = _options.find(arg);
        if (it == _options.end()) {
            std::fprintf(stderr, "%s: unknown option '--%s'\n",
                         _program.c_str(), arg.c_str());
            return false;
        }

        if (it->second.kind == Kind::Flag) {
            if (!has_value)
                value = "1";
        } else if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: option '--%s' needs a value\n",
                             _program.c_str(), arg.c_str());
                return false;
            }
            value = argv[++i];
        }

        if (!assign(arg, value)) {
            std::fprintf(stderr,
                         "%s: bad value '%s' for option '--%s'\n",
                         _program.c_str(), value.c_str(), arg.c_str());
            return false;
        }
    }
    return true;
}

const ArgParser::Option &
ArgParser::find(const std::string &name, Kind kind) const
{
    auto it = _options.find(name);
    if (it == _options.end())
        panic("ArgParser: undeclared option --%s", name.c_str());
    if (it->second.kind != kind)
        panic("ArgParser: option --%s accessed with wrong type",
              name.c_str());
    return it->second;
}

const std::string &
ArgParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::Double).value.c_str(),
                       nullptr);
}

long
ArgParser::getInt(const std::string &name) const
{
    return std::strtol(find(name, Kind::Int).value.c_str(), nullptr,
                       10);
}

int
ArgParser::getIntNarrowed(const std::string &name) const
{
    return narrowToInt(getInt(name), ("--" + name).c_str());
}

std::uint64_t
ArgParser::getUnsigned(const std::string &name) const
{
    const long value = getInt(name);
    if (value < 0)
        fatal("--%s must not be negative (got %ld)", name.c_str(), value);
    return static_cast<std::uint64_t>(value);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag).value == "1";
}

bool
ArgParser::provided(const std::string &name) const
{
    auto it = _options.find(name);
    return it != _options.end() && it->second.provided;
}

std::string
ArgParser::helpText() const
{
    std::ostringstream os;
    os << _program << " — " << _description << "\n\noptions:\n";
    for (const std::string &name : _order) {
        const Option &opt = _options.at(name);
        os << "  --" << name;
        switch (opt.kind) {
          case Kind::String:
            os << " <string>";
            break;
          case Kind::Double:
            os << " <number>";
            break;
          case Kind::Int:
            os << " <int>";
            break;
          case Kind::Flag:
            break;
        }
        os << "\n      " << opt.help;
        if (opt.kind != Kind::Flag)
            os << " (default: " << opt.value << ")";
        os << "\n";
    }
    os << "  --help\n      show this text\n";
    return os.str();
}

} // namespace fastcap
