// fastcap-lint corpus: R9 — raw numeric conversion outside the
// util/strings.hpp parse layer.
// Not compiled; consumed by `fastcap_lint --self-test`.
// fastcap-lint-zone: src/trace/example.cpp

#include <cstdlib>
#include <string>

namespace fastcap {

int
coreDemand(const std::string &s)
{
    // Prefix parse, silent wrap past int: the bug class R9 bans.
    return static_cast<int>(std::strtol(s.c_str(), nullptr, 10)); // EXPECT: R9
}

double
arrival(const char *s)
{
    return atof(s); // EXPECT: R9
}

unsigned long long
seed(const std::string &s)
{
    return std::stoull(s, nullptr, 0); // EXPECT: R9
}

using Converter = double (*)(const char *, char **);
// A function pointer is a mention, and mentions count too.
const Converter kConvert = &std::strtod; // EXPECT: R9

template <class Reader>
int
memberCallsDoNotFire(const Reader &r, const std::string &s)
{
    return r.stoi(s) + r->atoi(s);
}

} // namespace fastcap
