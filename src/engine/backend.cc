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

std::unique_ptr<ClusterEngine>
makeClusterEngine(BackendKind kind, const core::DataCenterConfig &config,
                  const trace::Workload *workload)
{
    switch (kind) {
      case BackendKind::Optimized:
        return std::make_unique<ScalarEngine>(config, workload);
      case BackendKind::Soa:
        return std::make_unique<SoaEngine>(config, workload);
    }
    PAD_FATAL("unknown backend kind {}", static_cast<int>(kind));
}

} // namespace pad::engine
