#include "battery/kibam.h"

namespace pad::battery {

Kibam::Kibam(const KibamParams &params) : params_(params)
{
    PAD_ASSERT(params_.capacity > 0.0);
    PAD_ASSERT(params_.c > 0.0 && params_.c < 1.0);
    PAD_ASSERT(params_.k > 0.0);
    resetFull();
}

void
Kibam::setSoc(double soc)
{
    PAD_ASSERT(soc >= 0.0 && soc <= 1.0);
    kibamSetSoc(y1_, y2_, params_, soc);
}

} // namespace pad::battery
