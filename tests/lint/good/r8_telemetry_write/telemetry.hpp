// fastcap-lint corpus (good unit r8_telemetry_write): the same
// miniature telemetry zone as the bad unit, minus the process-wide
// accessor; see result-zone callers in use.cpp for the sanctioned
// write-only patterns.
// Not compiled; consumed by `fastcap_lint --self-test`.
// fastcap-lint-zone: src/telemetry/registry.hpp

namespace fastcap {
namespace telemetry {

class Counter
{
  public:
    void add(unsigned long n) { _value += n; }
    unsigned long value() const { return _value; }

  private:
    unsigned long _value = 0;
};

class Registry
{
  public:
    Counter &counter(const char *path);
};

} // namespace telemetry
} // namespace fastcap
