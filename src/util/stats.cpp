#include "util/stats.hpp"

#include "util/logging.hpp"

namespace fastcap {

Ewma::Ewma(double alpha) : _alpha(alpha)
{
    if (!(alpha > 0.0) || alpha > 1.0)
        fatal("Ewma: alpha must be in (0, 1] (got %g)", alpha);
}

void
Ewma::add(double x)
{
    if (!_seeded) {
        _value = x;
        _seeded = true;
    } else {
        _value = _alpha * x + (1.0 - _alpha) * _value;
    }
}

} // namespace fastcap
