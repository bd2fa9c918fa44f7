/**
 * @file
 * Scalar engine backend: core::DataCenter behind the ClusterEngine
 * interface.
 */

#ifndef PAD_ENGINE_SCALAR_ENGINE_H
#define PAD_ENGINE_SCALAR_ENGINE_H

#include "core/datacenter.h"
#include "engine/backend.h"

namespace pad::engine {

/** core::DataCenter behind the ClusterEngine interface. */
class ScalarEngine final : public ClusterEngine
{
  public:
    ScalarEngine(const core::DataCenterConfig &config,
                 const trace::Workload *workload);

    void runCoarseUntil(Tick until) override;
    void stepCoarse() override;
    void setRecordHistory(bool on) override;
    const std::vector<std::vector<double>> &socHistory() const override;
    const std::vector<double> &shedHistory() const override;
    core::AttackOutcome
    runAttack(attack::TwoPhaseAttacker &attacker,
              const core::AttackScenario &scenario) override;
    void setAllSoc(double soc) override;
    Tick now() const override;
    std::vector<double> allSocs() const override;
    double socStdDevPercent() const override;
    std::uint64_t detectionsFlagged() const override;
    void setTelemetry(telemetry::TelemetryHub *hub) override;
    void setProfiler(obs::EngineProfiler *prof) override;
    void exportStats(sim::StatsRegistry &stats) const override;
    void dumpStats(std::ostream &os) const override;
    const core::DataCenterConfig &config() const override;
    BackendKind kind() const override { return BackendKind::Optimized; }

  private:
    core::DataCenter dc_;
};

} // namespace pad::engine

#endif // PAD_ENGINE_SCALAR_ENGINE_H
