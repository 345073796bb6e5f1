/**
 * @file
 * Epoch tracer: byte-reproducible Chrome trace_event JSON, structural
 * well-formedness, and monotonic non-overlapping span nesting for
 * traces produced by real experiment runs.
 */

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/tracer.hpp"
#include "util/logging.hpp"

using namespace fastcap;
using telemetry::Tracer;

namespace {

/**
 * Minimal recursive-descent JSON validator: enough of RFC 8259 to
 * prove the tracer's output parses (objects, arrays, strings with
 * escapes, numbers, literals). Returns false instead of throwing so
 * failures print the offending offset.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &doc) : _doc(doc) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return _pos == _doc.size();
    }

    std::size_t pos() const { return _pos; }

  private:
    bool
    value()
    {
        if (_pos >= _doc.size())
            return false;
        switch (_doc[_pos]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++_pos; // '{'
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++_pos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            if (peek() == '}') {
                ++_pos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++_pos; // '['
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            if (peek() == ']') {
                ++_pos;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++_pos;
        while (_pos < _doc.size()) {
            const char c = _doc[_pos];
            if (c == '"') {
                ++_pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // control chars must be escaped
            if (c == '\\') {
                ++_pos;
                if (_pos >= _doc.size())
                    return false;
                const char e = _doc[_pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++_pos;
                        if (_pos >= _doc.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                _doc[_pos])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++_pos;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++_pos;
        if (peek() == '.') {
            ++_pos;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++_pos;
            if (peek() == '+' || peek() == '-')
                ++_pos;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        return _pos > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (_doc.compare(_pos, len, word) != 0)
            return false;
        _pos += len;
        return true;
    }

    char
    peek() const
    {
        return _pos < _doc.size() ? _doc[_pos] : '\0';
    }

    void
    skipWs()
    {
        while (_pos < _doc.size() &&
               (_doc[_pos] == ' ' || _doc[_pos] == '\n' ||
                _doc[_pos] == '\t' || _doc[_pos] == '\r'))
            ++_pos;
    }

    const std::string &_doc;
    std::size_t _pos = 0;
};

/** One "X" event pulled back out of the emitted JSON. */
struct SpanEvent
{
    int pid = 0;
    double ts = 0.0;
    double dur = 0.0;
};

/** Extract a numeric field ("ts":123.456) from one JSON line. */
double
numField(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = line.find(tag);
    EXPECT_NE(at, std::string::npos) << key << " in " << line;
    return std::strtod(line.c_str() + at + tag.size(), nullptr);
}

/**
 * The tracer emits one event per line; pull every "X" span back out,
 * keyed by pid, in emission (= append) order.
 */
std::map<int, std::vector<SpanEvent>>
extractSpans(const std::string &doc)
{
    std::map<int, std::vector<SpanEvent>> out;
    std::size_t pos = 0;
    while (pos < doc.size()) {
        std::size_t end = doc.find('\n', pos);
        if (end == std::string::npos)
            end = doc.size();
        const std::string line = doc.substr(pos, end - pos);
        pos = end + 1;
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        SpanEvent ev;
        ev.pid = static_cast<int>(numField(line, "pid"));
        ev.ts = numField(line, "ts");
        ev.dur = numField(line, "dur");
        out[ev.pid].push_back(ev);
    }
    return out;
}

/**
 * A small deterministic run with the tracer attached, and with the
 * metrics registry `reg` too when one is given.
 */
std::string
tracedRunJson(telemetry::Registry *reg = nullptr)
{
    Tracer tracer;
    ExperimentConfig ecfg;
    ecfg.budgetFraction = 0.6;
    ecfg.targetInstructions = 5e6;
    ecfg.tracer = &tracer;
    ecfg.registry = reg;
    const SimConfig scfg = SimConfig::defaultConfig(8);
    runWorkload("MIX1", "FastCap", ecfg, scfg);
    return tracer.json();
}

} // namespace

TEST(Tracer, JsonIsByteReproducible)
{
    auto build = [] {
        Tracer t;
        telemetry::TraceTrack &m = t.track(1, "machine 0");
        m.span("profile", 0.0, 0.001);
        m.instant("solve", 0.001);
        m.span("exec", 0.001, 0.005);
        m.counterEvent("power_w", 0.0, 41.25);
        t.track(0, "cluster").span("rack epoch", 0.0, 0.005);
        return t.json();
    };
    EXPECT_EQ(build(), build());
}

TEST(Tracer, JsonIsWellFormed)
{
    Tracer t;
    telemetry::TraceTrack &m = t.track(1, "ma\"chine\n\t0");
    m.span("sp\\an \"quoted\"", 0.0, 0.001,
           "{\"k\":" + telemetry::jsonString("v\n") + "}");
    m.instant("tick\x01", 0.0015);
    m.counterEvent("w", 0.002, -1.5);
    const std::string doc = t.json();
    JsonChecker checker(doc);
    EXPECT_TRUE(checker.valid())
        << "JSON invalid near offset " << checker.pos() << ":\n"
        << doc;
}

TEST(Tracer, RunTraceIsWellFormedAndReproducible)
{
    const std::string doc1 = tracedRunJson();
    const std::string doc2 = tracedRunJson();
    EXPECT_EQ(doc1, doc2);
    // The tracer needs no registry, and a registry does not change it.
    telemetry::Registry reg;
    EXPECT_EQ(tracedRunJson(&reg), doc1);
    EXPECT_FALSE(reg.snapshot().empty());
    JsonChecker checker(doc1);
    EXPECT_TRUE(checker.valid())
        << "JSON invalid near offset " << checker.pos();
}

TEST(Tracer, RunSpansNestMonotonically)
{
    const auto spans = extractSpans(tracedRunJson());
    ASSERT_FALSE(spans.empty());
    for (const auto &kv : spans) {
        const std::vector<SpanEvent> &evs = kv.second;
        ASSERT_FALSE(evs.empty());
        for (std::size_t i = 0; i < evs.size(); ++i) {
            EXPECT_GE(evs[i].dur, 0.0) << "pid " << kv.first;
            if (i == 0)
                continue;
            // Append order is virtual-time order, and sibling spans
            // on one track never overlap (profile|exec|profile|...).
            EXPECT_GE(evs[i].ts, evs[i - 1].ts) << "pid " << kv.first;
            EXPECT_GE(evs[i].ts + 1e-9,
                      evs[i - 1].ts + evs[i - 1].dur)
                << "pid " << kv.first << " span " << i
                << " overlaps its predecessor";
        }
    }
}

TEST(Tracer, SpanEndBeforeStartPanics)
{
    Tracer t;
    EXPECT_THROW(t.track(1, "m").span("bad", 2.0, 1.0), PanicError);
}
