/**
 * @file
 * Shared scaffolding for the experiment-reproduction benches, now a
 * thin compatibility layer over the canonical Experiment API in
 * src/runner (runner::Experiment + runner::SweepRunner).
 *
 * Two experiment vehicles mirror the paper's methodology (Fig. 11):
 *
 *  - RackLab specs: the scaled-down hardware platform of Fig. 11-A
 *    (a mini rack with a small battery set), simulated at 100 ms
 *    resolution. Drives Figures 6, 7, 8 and Table I.
 *  - makeClusterWorkload()/clusterConfig(): the trace-driven cluster
 *    simulator of Fig. 11-B (22 racks x 10 DL585 G5 servers fed by a
 *    Google-style trace). Drives Figures 5, 13, 14, 15, 16, 17.
 *
 * New benches should build runner::Experiment grids and submit them
 * through a runner::SweepRunner (see fig15_survival_time.cc); the
 * serial wrappers below remain for single-shot callers.
 */

#ifndef PAD_BENCH_BENCH_COMMON_H
#define PAD_BENCH_BENCH_COMMON_H

#include <memory>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "runner/experiment.h"
#include "runner/sweep_runner.h"

namespace pad::bench {

// Canonical experiment types, re-exported under their historical
// bench names.
using ClusterWorkload = runner::ClusterWorkload;
using RackLabConfig = runner::RackLabSpec;
using RackLabResult = runner::RackLabResult;
using RackLabServerTrace = runner::RackLabServerTrace;
using ClusterAttackParams = runner::ClusterAttackSpec;

using runner::clusterConfig;
using runner::makeClusterWorkload;

/**
 * Simulate a Phase-II hidden-spike attack against the mini rack for
 * @p windowSec seconds and count effective attacks (serial).
 */
inline RackLabResult
runRackLab(const RackLabConfig &cfg, double windowSec)
{
    return runner::runExperiment(
               runner::Experiment::rackLab(cfg, windowSec))
        .lab();
}

/** Render per-malicious-server traces with round-robin spiking. */
inline RackLabServerTrace
runRackLabServers(const RackLabConfig &cfg, double windowSec)
{
    return runner::runExperiment(
               runner::Experiment::rackLabServers(cfg, windowSec))
        .servers();
}

/**
 * Survival-time measurement: warm the data center up to the attack
 * hour, then run a two-phase attack and return the outcome (serial).
 */
inline core::AttackOutcome
runClusterAttack(const ClusterAttackParams &params,
                 const ClusterWorkload &cw)
{
    return runner::runExperiment(
               runner::Experiment::clusterAttack(params, cw))
        .attack();
}

// ---------------------------------------------------------------------
// Bench CLI plumbing
// ---------------------------------------------------------------------

/** Options every sweep bench accepts. */
struct BenchOptions {
    /** Worker threads for SweepRunner; 0 = all hardware threads. */
    int jobs = 0;
    /** --trace FILE: structured event trace of every sweep job. */
    std::string trace;
    /** --trace-format jsonl|chrome (default jsonl). */
    std::string traceFormat = "jsonl";
    /** --stats-json FILE: merged sweep stats as JSON. */
    std::string statsJson;
    /**
     * --prom FILE: merged sweep stats plus per-job telemetry series
     * in Prometheus text exposition format. Turns telemetry
     * recording on for every job (series appear under job<i>.
     * prefixes); job results stay bit-identical either way.
     */
    std::string prom;
    /** --manifest FILE: machine-readable run manifest. */
    std::string manifest;
    /**
     * --alerts RULES: evaluate the alert rules file online in every
     * sweep job (cluster experiment kinds). Like --prom, purely
     * observational: job results stay bit-identical either way.
     */
    std::string alerts;
    /** --incidents FILE: merged incidents.jsonl (needs --alerts). */
    std::string incidents;
    /** --incident-html FILE: HTML dashboard (needs --alerts). */
    std::string incidentHtml;
    /**
     * --backend optimized|soa: engine backend stamped onto every
     * cluster experiment in the sweep (default soa). The figure
     * outputs are the same on both; the engines agree within the
     * documented physical tolerances.
     */
    engine::BackendKind backend = engine::BackendKind::Soa;
    /** Raw command line, for the manifest. */
    std::vector<std::string> argv;

    /** SweepRunner options equivalent (tracing wired separately). */
    runner::SweepRunner::Options
    runnerOptions() const
    {
        return runner::SweepRunner::Options{jobs};
    }
};

/**
 * Parse the common bench flags (`--jobs N` / `-j N`, `--trace FILE`,
 * `--trace-format jsonl|chrome`, `--stats-json FILE`, `--prom FILE`,
 * `--manifest FILE`, `--alerts RULES`, `--incidents FILE`,
 * `--incident-html FILE`, `--backend NAME`, `--log-level L`); exits
 * with usage on anything unrecognized. Also applies the
 * PAD_LOG_LEVEL environment fallback.
 * Sweep output is independent of --jobs by the SweepRunner
 * determinism contract — the flag only changes wall-clock time, and
 * the observability flags never alter results either.
 */
BenchOptions parseBenchArgs(int argc, char **argv);

/**
 * Run @p grid through a SweepRunner honouring every observability
 * flag in @p opts: binds the --trace sink around each job, writes the
 * merged stats registry to --stats-json, and drops a --manifest
 * naming @p tool and the produced artifacts. Results are bit-identical
 * to `SweepRunner(opts.runnerOptions()).run(grid)` for any flag
 * combination.
 */
runner::SweepReport runSweep(const std::string &tool,
                             const BenchOptions &opts,
                             const std::vector<runner::Experiment> &grid);

/**
 * RAII --trace binding for serial (non-sweep) benches: opens the file
 * named by opts.trace, binds it as the calling thread's trace sink,
 * and completes the file on destruction. A no-op when --trace was not
 * given, so wrapping the whole bench body is always safe.
 */
class TraceSession
{
  public:
    explicit TraceSession(const BenchOptions &opts);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

  private:
    std::unique_ptr<obs::FileTraceSink> sink_;
    obs::TraceScope scope_;
};

} // namespace pad::bench

#endif // PAD_BENCH_BENCH_COMMON_H
