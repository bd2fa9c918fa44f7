#include "core/udeb.h"

#include "util/logging.h"

namespace pad::core {

MicroDeb::MicroDeb(std::string name, const MicroDebConfig &config)
    : name_(std::move(name)), config_(config),
      cap_(name_ + ".cap", config.cap)
{
    PAD_ASSERT(config_.maxEngagementSec > 0.0);
    PAD_ASSERT(config_.rechargePower >= 0.0);
}

void
MicroDeb::setSoc(double soc)
{
    cap_.setSoc(soc);
    engagedFor_ = 0.0;
}

} // namespace pad::core
