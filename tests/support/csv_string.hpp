/**
 * @file
 * A result's CSV as a string, the form the byte-identity tests
 * compare. The CLIs write CSV straight to a stream; only tests need
 * it in memory.
 */

#ifndef FASTCAP_TESTS_SUPPORT_CSV_STRING_HPP
#define FASTCAP_TESTS_SUPPORT_CSV_STRING_HPP

#include <cstdio>
#include <string>

#include "util/logging.hpp"

namespace fastcap {

/** Everything written to `f` so far, read back from its start. */
inline std::string
fileContents(std::FILE *f)
{
    std::fflush(f);
    std::string out(static_cast<std::size_t>(std::ftell(f)), '\0');
    std::rewind(f);
    out.resize(std::fread(&out[0], 1, out.size(), f));
    return out;
}

/** What `result.writeCsv` writes (SweepResult, ClusterResult). */
template <typename Result>
std::string
csvString(const Result &result)
{
    // std::tmpfile rather than open_memstream, which is POSIX-only.
    std::FILE *tmp = std::tmpfile();
    if (tmp == nullptr)
        panic("csvString: tmpfile failed");
    result.writeCsv(tmp);
    std::string out = fileContents(tmp);
    std::fclose(tmp);
    return out;
}

} // namespace fastcap

#endif // FASTCAP_TESTS_SUPPORT_CSV_STRING_HPP
