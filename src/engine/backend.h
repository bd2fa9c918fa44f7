/**
 * @file
 * Engine factory kept for callers written against the former backend
 * choice.
 *
 * There is one engine, engine::ClusterEngine. BackendKind has the one
 * value Soa, and makeClusterEngine builds that engine whatever it is
 * given. Both exist only so the frozen repository benchmark
 * (padbench/), which calls makeClusterEngine(Experiment::backend,
 * ...), builds unchanged; they go with its next revision.
 */

#ifndef PAD_ENGINE_BACKEND_H
#define PAD_ENGINE_BACKEND_H

#include <memory>

#include "core/config.h"
#include "engine/cluster_engine.h"
#include "trace/workload.h"

namespace pad::engine {

/** The one engine; see the file comment. */
enum class BackendKind {
    Soa,
};

/**
 * Build the cluster engine. @p workload is not owned and must outlive
 * the engine.
 */
inline std::unique_ptr<ClusterEngine>
makeClusterEngine(BackendKind, const core::DataCenterConfig &config,
                  const trace::Workload *workload)
{
    return std::make_unique<ClusterEngine>(config, workload);
}

} // namespace pad::engine

#endif // PAD_ENGINE_BACKEND_H
