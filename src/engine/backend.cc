#include "engine/backend.h"

#include "engine/scalar_engine.h"
#include "engine/soa_engine.h"
#include "util/logging.h"

namespace pad::engine {

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Optimized:
        return "optimized";
      case BackendKind::Soa:
        return "soa";
    }
    PAD_FATAL("unknown backend kind {}", static_cast<int>(kind));
}

std::optional<BackendKind>
backendFromName(std::string_view name)
{
    if (name == "optimized")
        return BackendKind::Optimized;
    if (name == "soa")
        return BackendKind::Soa;
    return std::nullopt;
}

const EngineBackend &
backendFor(BackendKind kind)
{
    static const ScalarBackend optimized;
    static const SoaBackend soa;
    switch (kind) {
      case BackendKind::Optimized:
        return optimized;
      case BackendKind::Soa:
        return soa;
    }
    PAD_FATAL("unknown backend kind {}", static_cast<int>(kind));
}

std::unique_ptr<ClusterEngine>
makeClusterEngine(BackendKind kind, const core::DataCenterConfig &config,
                  const trace::Workload *workload)
{
    const EngineBackend &backend = backendFor(kind);
    const EnginePlan plan = backend.prepare(config);
    if (!plan.supported) {
        pad::warn("{} backend cannot run this configuration ({}); "
                  "falling back to the scalar optimized engine",
                  backendName(kind), plan.note);
        return backendFor(BackendKind::Optimized)
            .create(config, workload);
    }
    return backend.create(config, workload);
}

} // namespace pad::engine
