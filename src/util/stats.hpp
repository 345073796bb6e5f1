/**
 * @file
 * Exponentially weighted moving average, the smoother the experiment
 * runner applies to per-controller queue, utilisation and arrival-rate
 * observations.
 */

#ifndef FASTCAP_UTIL_STATS_HPP
#define FASTCAP_UTIL_STATS_HPP

namespace fastcap {

/** Exponentially weighted moving average. */
class Ewma
{
  public:
    /**
     * @param alpha weight of the newest sample, in (0, 1]. Values
     *              outside that range are a user error and fatal():
     *              alpha <= 0 freezes the average at its seed (or
     *              diverges for negative alpha), alpha > 1
     *              oscillates.
     */
    explicit Ewma(double alpha = 0.25);

    void add(double x);
    double value() const { return _value; }
    bool seeded() const { return _seeded; }

  private:
    double _alpha = 0.0;
    double _value = 0.0;
    bool _seeded = false;
};

} // namespace fastcap

#endif // FASTCAP_UTIL_STATS_HPP
