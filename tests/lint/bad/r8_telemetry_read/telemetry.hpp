// fastcap-lint corpus (bad unit r8_telemetry_read): a miniature
// telemetry zone. Defining read accessors here is legal — the sink
// rule constrains *callers*: result-zone code may write metrics into
// the registry it was handed but never read them back (R8 fires in
// result.cpp). global() and Registry::global() model a process-wide
// registry, which is off the write surface too. The EXPECT-MEMBER
// markers pin the index's reading of multi-word builtin types.
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
    unsigned long _value = 0; // EXPECT-MEMBER: _value unsigned long
};

class Gauge
{
  public:
    void set(double v) { _value = v; }
    double value() const { return _value; }

  private:
    double _value = 0.0;
};

class Registry;
extern Registry *g_registry;

class Registry
{
  public:
    static Registry &global() { return *g_registry; }
    Counter &counter(const char *path);
    Gauge &gauge(const char *path);
    unsigned long size() const { return _size; }

  private:
    unsigned long _size = 0; // EXPECT-MEMBER: _size unsigned long
    long double _scale = 1.0; // EXPECT-MEMBER: _scale long double
    const unsigned char *_name = nullptr; // EXPECT-MEMBER: _name unsigned char
};

inline Registry &
global()
{
    return *g_registry;
}

} // namespace telemetry
} // namespace fastcap
