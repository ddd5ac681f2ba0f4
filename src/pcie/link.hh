/**
 * @file
 * A point-to-point PCIe link modelled as a serialising FIFO resource.
 *
 * A transfer occupies the link for bytes/bandwidth and arrives after
 * an additional propagation delay. Back-to-back transfers queue behind
 * the link's busy horizon, which is how uplink contention (and its
 * latency tail) emerges when 64 SSDs return data through one Gen3 x16
 * uplink.
 */

#ifndef AFA_PCIE_LINK_HH
#define AFA_PCIE_LINK_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace afa::pcie {

using afa::sim::Bytes;
using afa::sim::Tick;

/** PCIe generation (per-lane effective data rate). */
enum class Gen { Gen3 };

/** Parameters of one physical link. */
struct LinkParams
{
    unsigned lanes = 4;           ///< x1..x16
    Gen gen = Gen::Gen3;          ///< signalling generation
    Tick propagation = 100;       ///< flight time, ns

    /**
     * Effective per-lane throughput in bytes per second. Gen3 raw is
     * 8 GT/s with 128b/130b encoding (~985 MB/s/lane); protocol (TLP
     * header, flow control, ACK) overhead brings a 4 KB read payload
     * to roughly 800 MB/s/lane delivered, the figure we model.
     */
    double bytesPerSec() const;
};

/** A directed link with a FIFO busy horizon. */
class Link
{
  public:
    Link(std::string link_name, const LinkParams &params);

    /**
     * Reserve the link for a @p bytes transfer arriving at @p now.
     *
     * @return the tick at which the last byte (plus propagation) has
     *         arrived at the far end.
     */
    Tick transfer(Tick now, Bytes bytes);

    /**
     * Revoke the last transfers on the link: @p count transfers of
     * @p bytes, the first of which entered at @p entry when the busy
     * horizon was @p prev_horizon (any further ones are back-to-back
     * replays, which never queue). Restores the horizon and undoes
     * the byte/transfer/busy/queue-delay accounting. Valid only while
     * nothing later has been transferred on the link (the fabric
     * revokes strictly from the tail of each link's service order).
     */
    void revoke(Tick entry, Tick prev_horizon, Bytes bytes,
                unsigned count);

    /** Serialization time for @p bytes without queueing. */
    Tick serialization(Bytes bytes) const;

    /** Time the link becomes free. */
    Tick busyUntil() const { return busyHorizon; }

    /** Total bytes carried. */
    std::uint64_t bytesCarried() const { return totalBytes; }

    /** Total transfers carried. */
    std::uint64_t transfers() const { return totalTransfers; }

    /** Accumulated busy (serialising) time. */
    Tick busyTime() const { return totalBusy; }

    /** Accumulated queueing delay endured by transfers. */
    Tick queueDelay() const { return totalQueueDelay; }

    const std::string &name() const { return linkName; }
    const LinkParams &params() const { return linkParams; }

  private:
    std::string linkName;
    LinkParams linkParams;
    double cachedBytesPerSec; ///< linkParams.bytesPerSec(), hoisted
    Tick busyHorizon;
    std::uint64_t totalBytes;
    std::uint64_t totalTransfers;
    Tick totalBusy;
    Tick totalQueueDelay;
};

} // namespace afa::pcie

#endif // AFA_PCIE_LINK_HH
