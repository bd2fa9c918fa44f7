/**
 * @file
 * TelemetryTraceSink: feed a TelemetryHub from the tracer event flow.
 *
 * The sink sits in the normal obs::TraceSink position (so it works
 * anywhere a trace file sink does, including under SweepRunner job
 * binding) and folds a curated subset of typed events into hub time
 * series while passing every event through to an optional inner sink
 * unchanged. Curation keeps the hub focused on the signals the paper
 * reasons about:
 *
 *   policy.transition      -> policy.level        (numeric L1/L2/L3)
 *   detector.anomaly       -> detector.anomalies  (cumulative count)
 *   udeb.shave             -> <rack>.udeb.soc / <rack>.udeb.shaved_w
 *   attacker.phase         -> attacker.phase      (numeric phase id)
 *   attacker.spike_launch  -> attacker.spikes     (cumulative count)
 *   soc.sample             -> rackN.soc / rackN.udeb_soc /
 *                             rackN.power / rackN.draw
 *
 * Unrecognised events only pass through. Direct engine hooks
 * (ClusterEngine::setTelemetry) cover the dense per-step power series;
 * this adapter exists for flows where only the event stream is
 * available.
 */

#ifndef PAD_TELEMETRY_TRACE_FEED_H
#define PAD_TELEMETRY_TRACE_FEED_H

#include <atomic>
#include <cstdint>

#include "obs/trace_sink.h"
#include "telemetry/hub.h"

namespace pad::telemetry {

class TelemetryTraceSink : public obs::TraceSink
{
  public:
    /** @p hub must outlive the sink; @p inner may be null. */
    explicit TelemetryTraceSink(TelemetryHub &hub,
                                obs::TraceSink *inner = nullptr)
        : hub_(hub), inner_(inner)
    {
    }

    void write(const obs::TraceEvent &event) override;
    void flush() override;

  private:
    TelemetryHub &hub_;
    obs::TraceSink *inner_;
    std::atomic<std::uint64_t> anomalies_{0};
    std::atomic<std::uint64_t> spikes_{0};
};

/**
 * Numeric value of a security-level name as emitted in
 * policy.transition events ("L1-Normal" -> 1); 0 when unparsable.
 */
int securityLevelFromName(std::string_view name);

/**
 * Numeric id of an attacker phase name as emitted in attacker.phase
 * events (Prepare=0, Drain=1, Recover=2, Spike=3); -1 when unknown.
 */
int attackerPhaseFromName(std::string_view name);

} // namespace pad::telemetry

#endif // PAD_TELEMETRY_TRACE_FEED_H
