#include "engine/scalar_engine.h"

namespace pad::engine {

ScalarEngine::ScalarEngine(const core::DataCenterConfig &config,
                           const trace::Workload *workload)
    : dc_(config, workload)
{
}

void
ScalarEngine::runCoarseUntil(Tick until)
{
    dc_.runCoarseUntil(until);
}

void
ScalarEngine::stepCoarse()
{
    dc_.stepCoarse();
}

void
ScalarEngine::setRecordHistory(bool on)
{
    dc_.setRecordHistory(on);
}

const std::vector<std::vector<double>> &
ScalarEngine::socHistory() const
{
    return dc_.socHistory();
}

const std::vector<double> &
ScalarEngine::shedHistory() const
{
    return dc_.shedHistory();
}

core::AttackOutcome
ScalarEngine::runAttack(attack::TwoPhaseAttacker &attacker,
                        const core::AttackScenario &scenario)
{
    return dc_.runAttack(attacker, scenario);
}

void
ScalarEngine::setAllSoc(double soc)
{
    dc_.setAllSoc(soc);
}

Tick
ScalarEngine::now() const
{
    return dc_.now();
}

std::vector<double>
ScalarEngine::allSocs() const
{
    return dc_.allSocs();
}

double
ScalarEngine::socStdDevPercent() const
{
    return dc_.socStdDevPercent();
}

std::uint64_t
ScalarEngine::detectionsFlagged() const
{
    return dc_.detectionsFlagged();
}

void
ScalarEngine::setTelemetry(telemetry::TelemetryHub *hub)
{
    dc_.setTelemetry(hub);
}

void
ScalarEngine::setProfiler(obs::EngineProfiler *prof)
{
    dc_.setProfiler(prof);
}

void
ScalarEngine::exportStats(sim::StatsRegistry &stats) const
{
    dc_.exportStats(stats);
}

void
ScalarEngine::dumpStats(std::ostream &os) const
{
    dc_.dumpStats(os);
}

const core::DataCenterConfig &
ScalarEngine::config() const
{
    return dc_.config();
}

} // namespace pad::engine
