#include "pcie/link.hh"

#include <algorithm>
#include <cassert>

#include "sim/logging.hh"

namespace afa::pcie {

double
LinkParams::bytesPerSec()  const
{
    double per_lane = 0.0;
    switch (gen) {
      case Gen::Gen3:
        per_lane = 800e6; // effective, see header
        break;
    }
    return per_lane * lanes;
}

Link::Link(std::string link_name, const LinkParams &params)
    : linkName(std::move(link_name)), linkParams(params),
      cachedBytesPerSec(params.bytesPerSec()), busyHorizon(0),
      totalBytes(0), totalTransfers(0), totalBusy(0), totalQueueDelay(0)
{
    if (params.lanes == 0 || params.lanes > 16)
        afa::sim::fatal("link %s: lane count %u out of [1,16]",
                        linkName.c_str(), params.lanes);
}

Tick
Link::serialization(Bytes bytes) const
{
    return afa::sim::transferTicks(bytes, cachedBytesPerSec);
}

Tick
Link::transfer(Tick now, Bytes bytes)
{
    Tick start = std::max(now, busyHorizon);
    Tick ser = serialization(bytes);
    busyHorizon = start + ser;
    totalBytes += bytes.count();
    ++totalTransfers;
    totalBusy += ser;
    totalQueueDelay += start - now;
    return busyHorizon + linkParams.propagation;
}

void
Link::revoke(Tick entry, Tick prev_horizon, Bytes bytes, unsigned count)
{
    assert(prev_horizon <= busyHorizon &&
           "revoke() would advance the busy horizon");
    const Tick ser = serialization(bytes) * count;
    const Tick queued = prev_horizon > entry ? prev_horizon - entry : 0;
    assert(totalTransfers >= count &&
           totalBytes >= bytes.count() * count && totalBusy >= ser &&
           totalQueueDelay >= queued && "revoke() without transfers");
    busyHorizon = prev_horizon;
    totalBytes -= bytes.count() * count;
    totalTransfers -= count;
    totalBusy -= ser;
    totalQueueDelay -= queued;
}

} // namespace afa::pcie
