/**
 * @file
 * The one lexical layer under every spec grammar: budget and workload
 * schedules, scenarios, trace-generator specs, sweep spec files, the
 * rack's failure schedule and trace-file lines. Fields are trimmed of
 * spaces, tabs and CRs. An empty field is an error, a doubled or
 * trailing separator included; only a blank whole spec is an empty
 * list. A `key=value` field splits at its first '=', needs both sides
 * and names its key once. In files, `#` starts a comment at the start
 * of a line or after a space, and is an error anywhere else. Errors read
 * "<owner>: <what> in '<spec>'", or "<file>:<line>: <what>".
 */

#ifndef FASTCAP_UTIL_SPEC_HPP
#define FASTCAP_UTIL_SPEC_HPP

#include <initializer_list>
#include <istream>
#include <string>
#include <utility>
#include <vector>

namespace fastcap {

/** `text` split on `sep`; fatal() "<owner>: empty <what> in ..." */
std::vector<std::string> splitFields(const std::string &text, char sep,
                                     const char *owner,
                                     const char *what = "field");

/**
 * `text` cut at the first `seps[0]`, then at the first `seps[1]`
 * after it, and so on, into seps.size() + 1 fields (the last holds
 * the rest). fatal() "<owner>: expected <form> in ..." when a
 * separator is missing or a field is empty.
 */
std::vector<std::string> cutFields(const std::string &text,
                                   std::initializer_list<const char *> seps,
                                   const char *owner, const char *form);

/** One `key=value` field; `line` is its file line (0 inline). */
struct KeyValue
{
    std::string key;
    std::string value;
    int line = 0;
};

/** Each of `fields` as a key=value pair of `spec`, keys unique. */
std::vector<KeyValue> splitKeyValues(const std::vector<std::string> &fields,
                                     const char *owner,
                                     const std::string &spec);

/**
 * A stream's non-blank lines, `#` comments stripped, trimmed. A `#`
 * that neither starts its line nor follows a space or tab is
 * fatal() "<name>:<line>: '#' inside a field ...".
 */
class LineReader
{
  public:
    /** `in` must outlive the reader; `name` labels errors. */
    LineReader(std::istream &in, std::string name)
        : _in(&in), _name(std::move(name)) {}

    /** Next non-blank line into `line`; false at end of input. */
    bool next(std::string &line);

    /** 1-based number of the line last returned. */
    int lineno() const { return _lineno; }

    const std::string &name() const { return _name; }

  private:
    std::istream *_in;
    std::string _name;
    std::string _raw; //!< reused line buffer
    int _lineno = 0;
};

/**
 * The `key = value` lines of the file at `path`, keys unique.
 * fatal() "cannot open <kind> '<path>'" when it cannot be read.
 */
std::vector<KeyValue> readKeyValueFile(const std::string &path,
                                       const char *kind);

} // namespace fastcap

#endif // FASTCAP_UTIL_SPEC_HPP
