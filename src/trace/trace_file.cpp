#include "trace/trace_file.hpp"

#include <utility>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fastcap {

TraceFile::TraceFile(const std::string &path)
    : _owned(std::make_unique<std::ifstream>(path)), _lines(*_owned, path)
{
    if (!*_owned)
        fatal("TraceFile: cannot open trace '%s'", path.c_str());
}

TraceFile::TraceFile(std::istream &in, std::string name)
    : _lines(in, std::move(name))
{
}

bool
TraceFile::nextRow(std::vector<std::string> &cells)
{
    if (!_lines.next(_row))
        return false;
    cells.clear();
    std::size_t pos = 0;
    for (;;) {
        const auto comma = _row.find(',', pos);
        if (comma == std::string::npos) {
            cells.push_back(trimmed(_row.substr(pos)));
            break;
        }
        cells.push_back(trimmed(_row.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    return true;
}

} // namespace fastcap
