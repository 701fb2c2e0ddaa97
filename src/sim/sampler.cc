#include "sim/sampler.hh"

#include <algorithm>
#include <cmath>

#include "common/run_error.hh"
#include "core/core.hh"

namespace dlvp::sim
{

namespace
{

void
validateSpec(const SampleSpec &sample)
{
    if (sample.measureInsts == 0)
        throw common::RunError(common::ErrorKind::Internal,
                               "sample spec: measureInsts must be > 0");
    if (sample.periodInsts <
        sample.warmupInsts + sample.measureInsts)
        throw common::RunError(
            common::ErrorKind::Internal,
            "sample spec: periodInsts must cover warmup + measure");
}

} // namespace

double
cpiError(const SampledRun &sampled, const core::CoreStats &full)
{
    if (full.committedInsts == 0)
        return 0.0;
    const double fullCpi = static_cast<double>(full.cycles) /
                           static_cast<double>(full.committedInsts);
    if (fullCpi == 0.0)
        return 0.0;
    return std::abs(sampled.cpi() - fullCpi) / fullCpi;
}

SampledRun
runSampled(const core::CoreParams &params, const core::VpConfig &vp,
           const trace::Trace &trace, const SampleSpec &sample)
{
    validateSpec(sample);
    SampledRun out;
    // Functional fast-forward: the architectural image is advanced by
    // store replay from the end of one interval to the start of the
    // next, so each interval begins from correct memory state; across
    // an interval the detailed core's own functional image carries it
    // on, so every instruction is decoded once. Boundaries depend only
    // on (trace size, spec) — the determinism anchor.
    trace::MemoryImage image = trace.initialImage;
    std::size_t pos = 0;
    for (std::size_t start = 0; start < trace.size();
         start += sample.periodInsts) {
        trace::advanceImage(image, trace, pos, start);
        const std::size_t avail = trace.size() - start;
        if (avail <= sample.warmupInsts)
            break; // no measurable instructions left in the tail
        const std::size_t count = std::min(
            avail, sample.warmupInsts + sample.measureInsts);
        const trace::Trace window =
            trace.window(start, count, std::move(image));
        core::OoOCore core(params, vp, window);
        out.stats.accumulate(core.run(sample.warmupInsts));
        image = core.takeArchImage();
        pos = start + count;
        ++out.intervals;
    }
    return out;
}

} // namespace dlvp::sim
