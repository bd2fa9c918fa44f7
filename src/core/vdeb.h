/**
 * @file
 * The virtual distributed energy backup (vDEB) controller
 * (paper §IV-B.1, Algorithm 1).
 *
 * Instead of each rack shaving its own peak from its own battery,
 * the vDEB controller pools every DEB under one PDU and assigns
 * per-rack discharge rates so that (a) the aggregate utility draw is
 * held at the PDU budget and (b) battery usage stays balanced:
 * discharge is proportional to each unit's state of charge, capped
 * at an ideal safe rate P_ideal to avoid accelerated aging.
 *
 * Note on Algorithm 1 as printed: line 11's loop condition embeds
 * the array bound inside the proportional test and line 14 subtracts
 * "P_ideal / N" from the remaining deficit instead of the power the
 * iteration actually assigned. We implement the evident intent:
 * walk racks in descending SOC; while the SOC-proportional share of
 * the *remaining* deficit would exceed P_ideal, pin that rack at
 * P_ideal and remove its SOC and its assignment from the remainder;
 * split what is left SOC-proportionally. The printed "evenly usage"
 * branch (when the deficit exceeds what capped assignment can meet)
 * assigns the deficit evenly across all units.
 */

#ifndef PAD_CORE_VDEB_H
#define PAD_CORE_VDEB_H

#include <vector>

#include "util/types.h"

namespace pad::core {

/** vDEB controller parameters. */
struct VdebConfig {
    /**
     * Ideal (safe) discharge power per battery unit, watts. The
     * paper bounds discharge to protect battery lifetime (~48 A for
     * a 2 Ah lead-acid cell scales to roughly this at rack size).
     */
    Watts idealDischargePower = 800.0;
};

/** Result of one assignment round. */
struct VdebAssignment {
    /** Discharge power assigned to each unit, watts. */
    std::vector<Watts> power;
    /** True when the fallback even-split branch was taken. */
    bool even = false;
    /** The deficit the controller was asked to cover, watts. */
    Watts shaveTarget = 0.0;
};

/**
 * Pure assignment logic of Algorithm 1; callers apply the assigned
 * discharges to their battery units.
 */
class VdebController
{
  public:
    explicit VdebController(const VdebConfig &config);

    /**
     * Compute per-unit discharge powers.
     *
     * @param socJoules stored energy of each unit, joules (the
     *                  algorithm's socList)
     * @param totalPower aggregate power demand of all racks, watts
     * @param maxPower   PDU budget P_max, watts
     * @return per-unit discharge assignment; all zeros when no
     *         shaving is needed
     */
    VdebAssignment assign(const std::vector<Joules> &socJoules,
                          Watts totalPower, Watts maxPower) const;

    /**
     * Allocation-free variant for the per-step hot path: writes the
     * assignment into @p out, reusing its vector's capacity and an
     * internal sort scratch. Results are identical to assign(). Not
     * thread-safe across concurrent calls on one controller; the
     * simulator owns one controller per DataCenter, which is
     * single-threaded.
     */
    void assignInto(const std::vector<Joules> &socJoules,
                    Watts totalPower, Watts maxPower,
                    VdebAssignment &out) const;

    /** Static configuration. */
    const VdebConfig &config() const { return config_; }

  private:
    VdebConfig config_;
    mutable std::vector<std::size_t> orderScratch_;
};

} // namespace pad::core

#endif // PAD_CORE_VDEB_H
