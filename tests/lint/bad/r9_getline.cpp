// fastcap-lint corpus: R9 — a hand-written spec tokenizer outside the
// util/spec.cpp lexical layer.
// Not compiled; consumed by `fastcap_lint --self-test`.
// fastcap-lint-zone: src/scenario/example.cpp

#include <istream>
#include <sstream>
#include <string>
#include <vector>

namespace fastcap {

std::vector<std::string>
segments(const std::string &spec)
{
    // Drops a trailing empty field without a word: the drift R9 bans.
    std::vector<std::string> out;
    std::stringstream ss(spec);
    std::string part;
    while (std::getline(ss, part, ';')) // EXPECT: R9
        out.push_back(part);
    return out;
}

int
countLines(std::istream &in)
{
    using namespace std;
    string line;
    int n = 0;
    while (getline(in, line)) // EXPECT: R9
        ++n;
    return n;
}

int
memberCallsDoNotFire(std::istream &in)
{
    char buf[64];
    in.getline(buf, sizeof(buf));
    return static_cast<int>(in.gcount());
}

} // namespace fastcap
