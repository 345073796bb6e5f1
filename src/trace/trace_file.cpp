#include "trace/trace_file.hpp"

#include <utility>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fastcap {

TraceFile::TraceFile(std::string path)
    : _path(std::move(path)),
      _owned(std::make_unique<std::ifstream>(_path)),
      _lines(*_owned, _path)
{
    if (!*_owned)
        fatal("TraceFile: cannot open trace '%s'", _path.c_str());
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

void
TraceFile::rewind()
{
    if (!rewindable())
        fatal("TraceFile: stream '%s' is single-pass and cannot "
              "rewind", name().c_str());
    // Reopen rather than seekg: clears eof/fail state portably.
    _owned = std::make_unique<std::ifstream>(_path);
    if (!*_owned)
        fatal("TraceFile: cannot reopen trace '%s'", _path.c_str());
    _lines = LineReader(*_owned, _path);
}

} // namespace fastcap
