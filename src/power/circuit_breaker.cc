#include "power/circuit_breaker.h"

#include <limits>

#include "util/logging.h"

namespace pad::power {

CircuitBreaker::CircuitBreaker(std::string name,
                               const CircuitBreakerConfig &config)
    : name_(std::move(name)), config_(config)
{
    PAD_ASSERT(config_.ratedPower > 0.0);
    PAD_ASSERT(config_.holdRatio >= 1.0);
    PAD_ASSERT(config_.magneticRatio > config_.holdRatio);
    PAD_ASSERT(config_.thermalCapacity > 0.0);
    PAD_ASSERT(config_.coolTau > 0.0);
}

bool
CircuitBreaker::observe(Watts power, double dt)
{
    if (tripped_)
        return false;
    tripped_ = breakerStep(heat_, trips_, config_, name_, power, dt);
    return tripped_;
}

void
CircuitBreaker::reset()
{
    tripped_ = false;
    heat_ = 0.0;
}

double
CircuitBreaker::timeToTrip(Watts power) const
{
    const double r = power / config_.ratedPower;
    if (r >= config_.magneticRatio)
        return 0.0;
    if (r <= config_.holdRatio)
        return std::numeric_limits<double>::infinity();
    return config_.thermalCapacity / (r * r - 1.0);
}

} // namespace pad::power
