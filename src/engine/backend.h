/**
 * @file
 * Explicit engine-backend selection API.
 *
 * Callers pick a BackendKind per run, makeClusterEngine builds the
 * ClusterEngine, and nothing about the choice leaks into other runs
 * or threads.
 *
 * Two backends exist:
 *
 *  - Soa        — the structure-of-arrays batch engine, and the
 *                 default: rack, battery and server state in
 *                 parallel arrays, the per-tick KiBaM step / demand
 *                 evaluation / µDEB shaving as batch loops,
 *                 arena-backed scratch, and counter-based RNG
 *                 streams. Runs both DEB placements (rack cabinets
 *                 and per-server BBUs).
 *  - Optimized  — the scalar core::DataCenter, kept as the reference
 *                 the SoA engine is checked against. Physically
 *                 equivalent (energy conservation, SoC bounds,
 *                 survival agreement within tolerance) but not
 *                 bit-identical: the SoA per-rack summation order
 *                 differs by design.
 */

#ifndef PAD_ENGINE_BACKEND_H
#define PAD_ENGINE_BACKEND_H

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "attack/attacker.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "obs/prof.h"
#include "sim/stats_registry.h"
#include "telemetry/hub.h"
#include "trace/workload.h"
#include "util/types.h"

namespace pad::engine {

/** Selectable simulation engines. */
enum class BackendKind {
    /** Scalar reference engine. */
    Optimized,
    /** Structure-of-arrays batch engine (the default). */
    Soa,
};

/** Canonical lower-case backend name ("optimized"/"soa"). */
const char *backendName(BackendKind kind);

/** Parse a backend name; nullopt when unknown. */
std::optional<BackendKind> backendFromName(std::string_view name);

/**
 * One running cluster simulation behind a backend-neutral interface:
 * the subset of core::DataCenter the runner, benches and CLIs drive.
 * Every method matches the DataCenter semantics documented in
 * core/datacenter.h.
 */
class ClusterEngine
{
  public:
    virtual ~ClusterEngine() = default;

    /** Run coarse (trace-slot) steps until tick @p until. */
    virtual void runCoarseUntil(Tick until) = 0;

    /**
     * Advance exactly one coarse (trace-slot) step. The unit of
     * progress for callers that interleave simulation with external
     * input — the padd service loop paces and applies control
     * commands on these boundaries. runCoarseUntil(t) is equivalent
     * to stepping while now() < t.
     */
    virtual void stepCoarse() = 0;

    /** Enable per-step SOC history recording for map figures. */
    virtual void setRecordHistory(bool on) = 0;

    /** SOC history: one row per coarse step, one column per rack. */
    virtual const std::vector<std::vector<double>> &socHistory() const = 0;

    /** Shed-ratio history aligned with socHistory. */
    virtual const std::vector<double> &shedHistory() const = 0;

    /** Run a fine-grained attack window from the current state. */
    virtual core::AttackOutcome
    runAttack(attack::TwoPhaseAttacker &attacker,
              const core::AttackScenario &scenario) = 0;

    /** Force every DEB and µDEB to a given SOC (scenario setup). */
    virtual void setAllSoc(double soc) = 0;

    /** Present simulation time. */
    virtual Tick now() const = 0;

    /** SOC of every rack. */
    virtual std::vector<double> allSocs() const = 0;

    /** Standard deviation of SOC across racks, in percent. */
    virtual double socStdDevPercent() const = 0;

    /** Anomalies flagged by the optional detector response. */
    virtual std::uint64_t detectionsFlagged() const = 0;

    /** Attach/detach a telemetry hub (not owned; nullptr detaches). */
    virtual void setTelemetry(telemetry::TelemetryHub *hub) = 0;

    /**
     * Attach/detach a self-profiler (not owned; nullptr detaches).
     * Detached — the default — instrumentation is a pointer test and
     * the engine's outputs are byte-identical to an unprofiled build.
     */
    virtual void setProfiler(obs::EngineProfiler *prof) = 0;

    /** Export run telemetry under the stable stat names. */
    virtual void exportStats(sim::StatsRegistry &stats) const = 0;

    /** exportStats() rendered as a gem5-style text dump. */
    virtual void dumpStats(std::ostream &os) const = 0;

    /** Static configuration. */
    virtual const core::DataCenterConfig &config() const = 0;

    /** The backend this engine was built by. */
    virtual BackendKind kind() const = 0;
};

/**
 * Build the engine for @p kind. @p workload is not owned and must
 * outlive the engine. Every configuration runs on either backend.
 */
std::unique_ptr<ClusterEngine>
makeClusterEngine(BackendKind kind, const core::DataCenterConfig &config,
                  const trace::Workload *workload);

} // namespace pad::engine

#endif // PAD_ENGINE_BACKEND_H
