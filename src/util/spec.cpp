#include "util/spec.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fastcap {

namespace {

/** Append `field` to `kvs`; what is wrong with it, or "". */
std::string
appendKeyValue(std::vector<KeyValue> &kvs, const std::string &field,
               int line)
{
    const auto eq = field.find('=');
    if (eq == std::string::npos)
        return "expected key=value, got '" + field + "'";
    KeyValue kv{trimmed(field.substr(0, eq)),
                trimmed(field.substr(eq + 1)), line};
    if (kv.key.empty())
        return "empty key";
    if (kv.value.empty())
        return "empty value for '" + kv.key + "'";
    for (const KeyValue &have : kvs)
        if (have.key == kv.key)
            return "duplicate key '" + kv.key + "'";
    kvs.push_back(std::move(kv));
    return std::string();
}

} // namespace

std::vector<std::string>
splitFields(const std::string &text, char sep, const char *owner,
            const char *what)
{
    std::vector<std::string> out;
    if (trimmed(text).empty())
        return out;
    for (std::size_t pos = 0;;) {
        const auto end = text.find(sep, pos);
        out.push_back(trimmed(text.substr(pos, end - pos)));
        if (out.back().empty())
            fatal("%s: empty %s in '%s'", owner, what, text.c_str());
        if (end == std::string::npos)
            return out;
        pos = end + 1;
    }
}

std::vector<std::string>
cutFields(const std::string &text,
          std::initializer_list<const char *> seps, const char *owner,
          const char *form)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (const char *sep : seps) {
        const auto end = text.find(sep, pos);
        if (end == std::string::npos)
            break;
        out.push_back(trimmed(text.substr(pos, end - pos)));
        pos = end + std::strlen(sep);
    }
    out.push_back(trimmed(text.substr(pos)));
    if (out.size() != seps.size() + 1 ||
        std::find(out.begin(), out.end(), "") != out.end())
        fatal("%s: expected %s in '%s'", owner, form, text.c_str());
    return out;
}

std::vector<KeyValue>
splitKeyValues(const std::vector<std::string> &fields, const char *owner,
               const std::string &spec)
{
    std::vector<KeyValue> out;
    for (const std::string &field : fields) {
        const std::string err = appendKeyValue(out, field, 0);
        if (!err.empty())
            fatal("%s: %s in '%s'", owner, err.c_str(), spec.c_str());
    }
    return out;
}

bool
LineReader::next(std::string &line)
{
    while (std::getline(*_in, _raw)) {
        ++_lineno;
        const auto end = std::min(_raw.find('#'), _raw.size());
        const auto first = _raw.find_first_not_of(" \t\r");
        if (first >= end)
            continue; // blank, or a comment alone
        const auto last = _raw.find_last_not_of(" \t\r", end - 1);
        line.assign(_raw, first, last - first + 1);
        return true;
    }
    return false;
}

std::vector<KeyValue>
readKeyValueFile(const std::string &path, const char *kind)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open %s '%s'", kind, path.c_str());
    LineReader lines(in, path);
    std::vector<KeyValue> out;
    std::string line;
    while (lines.next(line)) {
        const std::string err = appendKeyValue(out, line, lines.lineno());
        if (!err.empty())
            fatal("%s:%d: %s", path.c_str(), lines.lineno(), err.c_str());
    }
    return out;
}

} // namespace fastcap
