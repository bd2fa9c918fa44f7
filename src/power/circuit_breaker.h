/**
 * @file
 * Thermal-magnetic circuit breaker model (paper §III-A, ref [11]).
 *
 * "Tripping a circuit breaker is not an instantaneous event since
 * most PDU can tolerate certain degrees of brief current overloads.
 * However, once the overload exceeds certain threshold, it requires
 * very short time (several seconds) to trip a circuit breaker."
 *
 * We model the thermal element as a heat accumulator driven by
 * (r^2 - 1) for overload ratio r > holdRatio, with exponential
 * cool-down below it, plus an instantaneous magnetic trip at large r.
 * This yields the classic inverse-time curve: mild overloads take
 * tens of seconds to minutes, a 25% overload trips in seconds.
 */

#ifndef PAD_POWER_CIRCUIT_BREAKER_H
#define PAD_POWER_CIRCUIT_BREAKER_H

#include <cmath>
#include <string>

#include "obs/tracer.h"
#include "util/logging.h"
#include "util/types.h"

namespace pad::power {

/** Static breaker characteristics. */
struct CircuitBreakerConfig {
    /** Rated power; overload ratio r = draw / rated. */
    Watts ratedPower = 5000.0;
    /** Overloads at/below this ratio never heat the element. */
    double holdRatio = 1.05;
    /** Instantaneous (magnetic) trip at/above this ratio. */
    double magneticRatio = 5.0;
    /**
     * Thermal trip threshold in (ratio^2-1)-seconds. 2.8 makes a
     * steady 25% overload trip in about 5 s.
     */
    double thermalCapacity = 2.8;
    /** Cool-down time constant, seconds. */
    double coolTau = 30.0;
};

/**
 * Inverse-time trip kernel over plain breaker state: observe a
 * constant draw of @p power for @p dt seconds, heating @p heat above
 * the hold ratio and cooling it below, and count a trip in @p trips.
 * @p name labels the trace event. CircuitBreaker and the SoA engine's
 * per-rack arrays both call it.
 * @retval true the breaker tripped during this interval
 */
inline bool
breakerStep(double &heat, int &trips, const CircuitBreakerConfig &config,
            const std::string &name, Watts power, double dt)
{
    PAD_ASSERT(dt >= 0.0);
    if (dt == 0.0)
        return false;
    const double r = power / config.ratedPower;
    if (r >= config.magneticRatio) {
        ++trips;
        if (obs::traceEnabled())
            obs::emit(name, "breaker.trip",
                      {obs::TraceField::str("cause", "magnetic"),
                       obs::TraceField::num("draw_w", power),
                       obs::TraceField::num("ratio", r)});
        return true;
    }
    if (r > config.holdRatio) {
        heat += (r * r - 1.0) * dt;
        if (heat >= config.thermalCapacity) {
            ++trips;
            if (obs::traceEnabled())
                obs::emit(name, "breaker.trip",
                          {obs::TraceField::str("cause", "thermal"),
                           obs::TraceField::num("draw_w", power),
                           obs::TraceField::num("ratio", r),
                           obs::TraceField::num("heat", heat)});
            return true;
        }
    } else {
        heat *= std::exp(-dt / config.coolTau);
    }
    return false;
}

/**
 * Stateful breaker: feed it (power, dt) observations; it trips when
 * the inverse-time curve is exceeded.
 */
class CircuitBreaker
{
  public:
    /**
     * @param name   telemetry name, e.g. "rack2.breaker"
     * @param config static characteristics
     */
    CircuitBreaker(std::string name, const CircuitBreakerConfig &config);

    /**
     * breakerStep() on this breaker, which then stays tripped until
     * reset(). @retval true the breaker tripped during this interval
     */
    bool observe(Watts power, double dt);

    /** True once tripped (stays tripped until reset()). */
    bool tripped() const { return tripped_; }

    /** Clear the trip latch and thermal state. */
    void reset();

    /** Accumulated thermal state (0 = cold). */
    double heat() const { return heat_; }

    /** Number of trips over the breaker's lifetime. */
    int tripCount() const { return trips_; }

    /**
     * Time a steady draw of @p power would need to trip this breaker
     * from cold, in seconds; +infinity when it never trips.
     */
    double timeToTrip(Watts power) const;

    /** Rated power. */
    Watts ratedPower() const { return config_.ratedPower; }

    /** Telemetry name. */
    const std::string &name() const { return name_; }

    /** Static configuration. */
    const CircuitBreakerConfig &config() const { return config_; }

  private:
    std::string name_;
    CircuitBreakerConfig config_;
    double heat_ = 0.0;
    bool tripped_ = false;
    int trips_ = 0;
};

} // namespace pad::power

#endif // PAD_POWER_CIRCUIT_BREAKER_H
