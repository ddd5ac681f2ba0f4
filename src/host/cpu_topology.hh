/**
 * @file
 * CPU topology of the host: sockets x physical cores x hyper-threads,
 * with the paper's logical numbering (dual Xeon E5-2690 v2: logical
 * CPUs 0-19 are the 20 physical cores -- 0-9 on socket 0, 10-19 on
 * socket 1 -- and 20-39 are their hyper-thread siblings).
 */

#ifndef AFA_HOST_CPU_TOPOLOGY_HH
#define AFA_HOST_CPU_TOPOLOGY_HH

#include <span>
#include <string>
#include <vector>

namespace afa::host {

/** Shape of the host CPU complex. */
struct CpuTopologyParams
{
    unsigned sockets = 2;
    unsigned coresPerSocket = 10;
    unsigned threadsPerCore = 2;

    /** Socket the AFA's PCIe uplink attaches to (the paper's CPU2). */
    unsigned uplinkSocket = 1;
};

/**
 * Resolves logical CPU ids to sockets / physical cores / siblings.
 */
class CpuTopology
{
  public:
    explicit CpuTopology(const CpuTopologyParams &params = {});

    /** Number of logical CPUs. */
    unsigned logicalCpus() const { return numLogical; }

    /** Number of physical cores. */
    unsigned physicalCores() const { return numPhysical; }

    /** Socket of a logical CPU. */
    unsigned socketOf(unsigned cpu) const;

    /** Physical core (0..physicalCores-1) of a logical CPU. */
    unsigned physicalCoreOf(unsigned cpu) const;

    /** Hyper-thread index (0 or 1) of a logical CPU. */
    unsigned threadOf(unsigned cpu) const;

    /** The logical CPUs sharing a physical core with @p cpu
     *  (excluding @p cpu itself), ascending. The lists are built once
     *  at construction: the scheduler asks on every dispatch. */
    std::span<const unsigned> siblingsOf(unsigned cpu) const;

    /** Logical CPU id for (physical core, thread). */
    unsigned logicalCpu(unsigned physical_core, unsigned thread) const;

    /** All logical CPUs on a socket. */
    std::vector<unsigned> cpusOnSocket(unsigned socket) const;

    /** Socket the AFA uplink attaches to. */
    unsigned uplinkSocket() const { return params.uplinkSocket; }

    /** True when two logical CPUs share a socket. */
    bool sameSocket(unsigned a, unsigned b) const
    {
        return socketOf(a) == socketOf(b);
    }

    /** Human-readable description ("2 x 10c/20t"). */
    std::string describe() const;

    const CpuTopologyParams &parameters() const { return params; }

  private:
    CpuTopologyParams params;
    unsigned numPhysical;
    unsigned numLogical;
    /** threadsPerCore - 1 siblings per logical CPU, back to back. */
    std::vector<unsigned> siblings;

    void checkCpu(unsigned cpu) const;
};

} // namespace afa::host

#endif // AFA_HOST_CPU_TOPOLOGY_HH
