/**
 * @file
 * Per-machine utilization timeline built from a task trace.
 *
 * The simulator queries workload utilization at two granularities:
 * the trace's native 5-minute slots (coarse simulation of battery
 * SOC over days/weeks), and a deterministic fine-grained view with
 * second-scale jitter used when the attack window is simulated at
 * sub-second resolution.
 */

#ifndef PAD_TRACE_WORKLOAD_H
#define PAD_TRACE_WORKLOAD_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/task_event.h"

namespace pad::trace {

/** Default relative jitter amplitude of the fine-grained view. */
constexpr double kDefaultFineNoiseAmp = 0.15;

/**
 * The curve exponent curveColumn() serves: the default
 * power::ServerPowerConfig::curveExponent (the engine asserts the two
 * agree).
 */
constexpr double kTableCurveExponent = 0.85;

/**
 * Dense (slot x machine) utilization grid, slot-major so a coarse step
 * reads one slot as one column. Read-only after construction except
 * for the lazily filled curve columns (curveColumn()), which runs
 * sharing the workload may request from concurrent threads.
 */
class Workload
{
  public:
    /**
     * Build the grid from task events.
     *
     * @param events    task placements (any order)
     * @param machines  number of machines (ids beyond it are dropped
     *                  with a warning)
     * @param horizon   timeline length in ticks
     * @param slotTicks slot width (default: the trace's 5 minutes)
     */
    Workload(const std::vector<TaskEvent> &events, int machines,
             Tick horizon, Tick slotTicks = kTraceSlotTicks);

    /** Number of machines. */
    int machines() const { return machines_; }

    /** Number of slots. */
    std::size_t slots() const { return slots_; }

    /** Slot width in ticks. */
    Tick slotTicks() const { return slotTicks_; }

    /** Timeline length in ticks. */
    Tick horizon() const { return slotTicks_ * static_cast<Tick>(slots_); }

    /** Slot-average utilization of @p machine at tick @p t, in [0,1]. */
    double utilAt(int machine, Tick t) const;

    /** Slot-average utilization by slot index. */
    double utilAtSlot(int machine, std::size_t slot) const;

    /** Slot index covering tick @p t (clamped into the timeline). */
    std::size_t slotAt(Tick t) const;

    /**
     * Utilization of every machine in slot @p slot: machines()
     * values, indexed by machine id.
     */
    const double *slotColumn(std::size_t slot) const;

    /**
     * The server power curve of every machine in slot @p slot:
     * std::pow(std::clamp(u, 0.0, 1.0), exponent) per cell, bit for
     * bit, filled once per slot on the first request for it (safe
     * under concurrent requests). Only kTableCurveExponent is
     * tabulated; for any other @p exponent this returns nullptr and
     * the caller computes the pow() itself.
     */
    const double *curveColumn(std::size_t slot, double exponent) const;

    /**
     * The deterministic jitter sample utilFine() layers on the slot
     * average: splitmix64 of (machine, second) mapped into [-1, 1].
     * Exposed so per-tick callers can hoist the hash out of their
     * inner loops — combineFine(utilAtSlot(m, slotAt(t)),
     * jitterAt(m, t / kTicksPerSecond), amp) == utilFine(m, t, amp)
     * bit for bit.
     */
    static double jitterAt(int machine, std::uint64_t second);

    /** Combine a slot average and a jitter sample as utilFine() does. */
    static double
    combineFine(double base, double jitter, double noiseAmp)
    {
        return std::clamp(base * (1.0 + noiseAmp * jitter), 0.0, 1.0);
    }

    /**
     * Fine-grained utilization with deterministic second-scale
     * jitter layered on the slot average: the same (machine, second)
     * always returns the same value, so fine simulations are
     * reproducible without storing a second-level grid.
     *
     * @param machine   machine id
     * @param t         query tick
     * @param noiseAmp  relative jitter amplitude (e.g. 0.15)
     */
    double utilFine(int machine, Tick t,
                    double noiseAmp = kDefaultFineNoiseAmp) const;

    /** Mean utilization across all machines at tick @p t. */
    double clusterUtilAt(Tick t) const;

    /** Mean utilization of one machine over the whole timeline. */
    double machineMeanUtil(int machine) const;

    /** Mean utilization over all machines and slots. */
    double overallMeanUtil() const;

  private:
    std::size_t index(int machine, std::size_t slot) const;

    int machines_;
    std::size_t slots_;
    Tick slotTicks_;
    std::vector<double> grid_; ///< slot-major

    // The curve table, allocated on the first curveColumn() call and
    // left uninitialized: a slot's column is written (and its pages
    // touched) only when that slot is first requested.
    mutable std::once_flag curveAlloc_;
    mutable std::unique_ptr<double[]> curve_;
    mutable std::unique_ptr<std::once_flag[]> curveFilled_;
};

} // namespace pad::trace

#endif // PAD_TRACE_WORKLOAD_H
