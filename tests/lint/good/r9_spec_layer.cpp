// fastcap-lint corpus (good): R9 exempts util/spec.cpp, the one
// lexical layer, whose line reader is built on std::getline.
// Not compiled; consumed by `fastcap_lint --self-test`.
// fastcap-lint-zone: src/util/spec.cpp

#include <istream>
#include <string>

namespace fastcap {

bool
nextLine(std::istream &in, std::string &raw, int &lineno)
{
    if (!std::getline(in, raw))
        return false;
    ++lineno;
    return true;
}

} // namespace fastcap
