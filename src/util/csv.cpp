#include "util/csv.hpp"

#include <cstring>

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace fastcap {

std::string
CsvWriter::escape(const std::string &cell)
{
    const bool needs_quotes =
        cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes)
        return cell;

    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
CsvWriter::writeCells(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            std::fputc(',', _out);
        const std::string esc = escape(cells[i]);
        std::fwrite(esc.data(), 1, esc.size(), _out);
    }
    std::fputc('\n', _out);
}

void
CsvWriter::header(const std::vector<std::string> &columns)
{
    if (_wroteHeader)
        panic("CsvWriter::header called twice");
    _wroteHeader = true;
    writeCells(columns);
}

void
CsvWriter::row(const std::vector<std::string> &cells)
{
    writeCells(cells);
}

void
CsvWriter::rowNumeric(const std::vector<double> &cells)
{
    std::vector<std::string> out;
    out.reserve(cells.size());
    for (double v : cells) {
        char buf[64];
        checkedSnprintf(buf, sizeof(buf), "%.6g", v);
        out.emplace_back(buf);
    }
    row(out);
}

void
CsvWriter::rowLabeled(const std::string &label,
                      const std::vector<double> &cells)
{
    std::vector<std::string> out;
    out.reserve(cells.size() + 1);
    out.push_back(label);
    for (double v : cells) {
        char buf[64];
        checkedSnprintf(buf, sizeof(buf), "%.6g", v);
        out.emplace_back(buf);
    }
    row(out);
}

} // namespace fastcap
