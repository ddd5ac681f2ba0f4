// Fixture: telemetry sampling events scheduled without internal=true.
// The telemetry contract (DESIGN.md §13) makes canonical reports
// byte-identical with --telemetry on and off, which only holds while
// every sampling event is engine plumbing. Four wrong shapes must
// each fire once; the sanctioned idiom and the audited allow must
// not. The file name carries "telemetry" on purpose: the rule is
// scoped to telemetry sources.

#include "sim/simulator.hh"

namespace afa::fixture {

inline constexpr std::uint32_t kSampleOrderBand = 0xffffffffu;

void
scheduleSamples(afa::sim::Simulator &sim, afa::sim::Tick period)
{
    const afa::sim::Tick when = sim.now() + period;

    // Defaulted internal=false: the sample is a model-visible event,
    // so enabling telemetry perturbs the canonical reports.
    sim.scheduleAt(when, [] {});

    // A band alone leaves internal defaulted to false.
    sim.scheduleAt(when, [] {}, kSampleOrderBand);

    // An explicit false is just as wrong.
    sim.scheduleAt(when, [] {}, kSampleOrderBand, false);

    // scheduleAfter cannot mark the event internal at all.
    sim.scheduleAfter(period, [] {});

    // The sanctioned idiom: internal, in the top ordering band so the
    // sample runs after every model event of its tick.
    sim.scheduleAt(when, [] {}, kSampleOrderBand, /*internal=*/true);

    // Audited exception: a debug probe meant to appear in the trace.
    // detlint:allow(telemetry-internal)
    sim.scheduleAt(when, [] {});
}

} // namespace afa::fixture
