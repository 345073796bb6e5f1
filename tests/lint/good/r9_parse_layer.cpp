// fastcap-lint corpus (good): R9 exempts the one parse layer itself,
// util/strings.hpp, whose strict wrappers are built on strtod.
// Not compiled; consumed by `fastcap_lint --self-test`.
// fastcap-lint-zone: src/util/strings.hpp

#include <cmath>
#include <cstdlib>
#include <string>

namespace fastcap {

inline bool
parseDouble(const std::string &s, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end == s.c_str() || *end != '\0' ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace fastcap
