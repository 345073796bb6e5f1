#include "util/args.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fastcap {

ArgParser::ArgParser(std::string program, std::string description)
    : _program(std::move(program)), _description(std::move(description))
{
}

void
ArgParser::declare(const std::string &name, Option opt)
{
    if (!_options.emplace(name, std::move(opt)).second)
        panic("ArgParser: duplicate option --%s", name.c_str());
    _order.push_back(name);
}

void
ArgParser::addString(const std::string &name, std::string def,
                     std::string help)
{
    declare(name, Option{Kind::String, std::move(help), std::move(def)});
}

void
ArgParser::addDouble(const std::string &name, double def,
                     std::string help)
{
    char buf[64];
    checkedSnprintf(buf, sizeof(buf), "%g", def);
    Option opt{Kind::Double, std::move(help), buf};
    opt.real = def;
    declare(name, std::move(opt));
}

void
ArgParser::addInt(const std::string &name, int def, std::string help)
{
    Option opt{Kind::Int, std::move(help), std::to_string(def)};
    opt.integer = def;
    declare(name, std::move(opt));
}

void
ArgParser::addUnsigned(const std::string &name, std::uint64_t def,
                       std::string help)
{
    Option opt{Kind::Unsigned, std::move(help), std::to_string(def)};
    opt.count = def;
    declare(name, std::move(opt));
}

void
ArgParser::addFlag(const std::string &name, std::string help)
{
    declare(name, Option{Kind::Flag, std::move(help), "0"});
}

bool
ArgParser::assign(const std::string &name, const std::string &value)
{
    auto it = _options.find(name);
    if (it == _options.end())
        return false;
    Option &opt = it->second;

    bool ok = true;
    switch (opt.kind) {
      case Kind::Double:
        ok = parseDouble(value, opt.real);
        break;
      case Kind::Int:
        ok = parseInt(value, opt.integer);
        break;
      case Kind::Unsigned:
        ok = parseInt(value, opt.count);
        break;
      case Kind::Flag:
        ok = value == "0" || value == "1";
        break;
      case Kind::String:
        break;
    }
    if (!ok)
        return false;
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
    return find(name, Kind::Double).real;
}

int
ArgParser::getInt(const std::string &name) const
{
    return find(name, Kind::Int).integer;
}

std::uint64_t
ArgParser::getUnsigned(const std::string &name) const
{
    return find(name, Kind::Unsigned).count;
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
          case Kind::Unsigned:
            os << " <uint>";
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
