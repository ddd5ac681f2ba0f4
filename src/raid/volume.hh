/**
 * @file
 * Striped and mirrored volumes over the AFA.
 *
 * The paper's introduction motivates why tail latency dominates AFA
 * design: "one request from a client is divided into multiple I/Os,
 * which are then distributed to many SSDs in parallel as in RAID ...
 * long tail latency of the slowest SSD decides the system's overall
 * responsiveness" (the Dean & Barroso tail-at-scale effect). These
 * volumes make that effect measurable: a StripedVolume fans a client
 * I/O out across member SSDs and completes when the *slowest* member
 * does; a MirroredVolume replicates writes and spreads reads.
 *
 * Volumes implement workload::IoEngine, so a FioThread can drive a
 * volume exactly as it drives a raw device -- composition mirrors the
 * Linux block stack (md/dm over nvme).
 */

#ifndef AFA_RAID_VOLUME_HH
#define AFA_RAID_VOLUME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/slot_pool.hh"
#include "workload/io_engine.hh"

namespace afa::raid {

/** Statistics of a volume. */
struct VolumeStats
{
    std::uint64_t clientIos = 0;
    std::uint64_t memberIos = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Reads served degraded: a mirror failover re-read, or a parity
     *  reconstruction from the surviving members. */
    std::uint64_t degradedReads = 0;
    /** Client IOs that completed with an error status (every member
     *  that could serve them had failed). */
    std::uint64_t failedIos = 0;
};

/**
 * RAID-0: client LBAs striped strip-by-strip across member devices.
 * A client I/O spanning several strips completes when every member
 * sub-I/O has completed (the fan-out join that exposes the slowest
 * member's tail).
 */
class StripedVolume : public afa::sim::SimObject,
                      public afa::workload::IoEngine
{
  public:
    /**
     * @param engine the underlying device engine (the NVMe driver)
     * @param members device indices forming the volume
     * @param strip_blocks strip size in 4 KiB blocks
     */
    StripedVolume(afa::sim::Simulator &simulator,
                  std::string volume_name,
                  afa::workload::IoEngine &engine,
                  std::vector<unsigned> members,
                  std::uint32_t strip_blocks = 1);

    void submit(unsigned cpu, const afa::workload::IoRequest &request,
                CompleteFn on_device_complete) override;

    /** Volume capacity: the striped sum of member capacities. */
    std::uint64_t deviceBlocks(unsigned device) const override;

    unsigned width() const
    {
        return static_cast<unsigned>(members.size());
    }
    const VolumeStats &stats() const { return volStats; }

    /** Map a volume LBA to (member index, member LBA). */
    std::pair<unsigned, std::uint64_t>
    mapBlock(std::uint64_t volume_lba) const;

  private:
    afa::workload::IoEngine &inner;
    std::vector<unsigned> members;
    std::uint32_t stripBlocks;
    VolumeStats volStats;
};

/** Read-balancing policy of a mirrored volume. */
enum class ReadPolicy : std::uint8_t {
    RoundRobin, ///< alternate members
    Primary,    ///< always the first member
};

/**
 * RAID-1: every write goes to all members (completes with the
 * slowest); reads go to one member per the policy.
 */
class MirroredVolume : public afa::sim::SimObject,
                       public afa::workload::IoEngine
{
  public:
    MirroredVolume(afa::sim::Simulator &simulator,
                   std::string volume_name,
                   afa::workload::IoEngine &engine,
                   std::vector<unsigned> members,
                   ReadPolicy policy = ReadPolicy::RoundRobin);

    void submit(unsigned cpu, const afa::workload::IoRequest &request,
                CompleteFn on_device_complete) override;

    /** Volume capacity: the smallest member's. */
    std::uint64_t deviceBlocks(unsigned device) const override;

    const VolumeStats &stats() const { return volStats; }

    /** Reads served by each member (policy verification). */
    const std::vector<std::uint64_t> &readsPerMember() const
    {
        return memberReads;
    }

    /**
     * Mark a member failed (reads avoid it, writes skip it) or
     * restore it — called by recovery logic when a rebuild finishes.
     * A read that *hits* a failing member marks it automatically when
     * the error status comes back, then retries on a survivor
     * (degraded read).
     */
    void setMemberFailed(unsigned member_index, bool failed);

    /** True while a member is marked failed. */
    bool memberFailed(unsigned member_index) const;

  private:
    afa::workload::IoEngine &inner;
    std::vector<unsigned> members;
    ReadPolicy policy;
    unsigned nextRead;
    VolumeStats volStats;
    std::vector<std::uint64_t> memberReads;
    std::vector<bool> failedMembers;

    static constexpr unsigned kNoMember = ~0u;

    unsigned pickReadMember();
    void submitRead(unsigned cpu,
                    const afa::workload::IoRequest &request,
                    CompleteFn on_device_complete);
};

/**
 * RAID-5: data strips rotate with one parity strip per stripe.
 *
 * Healthy reads go to the data member alone; when that member is
 * failed the block is reconstructed by reading the stripe row from
 * every surviving member — the degraded fan-out whose join exposes
 * the slowest survivor, which is what makes a rebuilding array slow.
 * Writes pay the classic small-write penalty: read old data + old
 * parity, then write data + parity (degraded writes fall back to
 * updating whichever of the pair still lives).
 */
class ParityVolume : public afa::sim::SimObject,
                     public afa::workload::IoEngine
{
  public:
    ParityVolume(afa::sim::Simulator &simulator,
                 std::string volume_name,
                 afa::workload::IoEngine &engine,
                 std::vector<unsigned> members,
                 std::uint32_t strip_blocks = 1);

    void submit(unsigned cpu, const afa::workload::IoRequest &request,
                CompleteFn on_device_complete) override;

    /** Volume capacity: (width - 1) data shares of the smallest. */
    std::uint64_t deviceBlocks(unsigned device) const override;

    unsigned width() const
    {
        return static_cast<unsigned>(members.size());
    }
    const VolumeStats &stats() const { return volStats; }

    /** Mark/restore a failed member (at most one at a time). */
    void setMemberFailed(unsigned member_index, bool failed);

    /** True while a member is marked failed. */
    bool memberFailed(unsigned member_index) const;

    /**
     * Map a volume LBA to (data member index, parity member index,
     * member LBA). Member indices are positions in the member list.
     */
    struct BlockMap
    {
        unsigned dataMember;
        unsigned parityMember;
        std::uint64_t memberLba;
    };
    BlockMap mapBlock(std::uint64_t volume_lba) const;

  private:
    /** A client IO: its callback and the join over its blocks. */
    struct ClientOp
    {
        CompleteFn fn;
        std::uint64_t remaining = 0; ///< blocks outstanding
        afa::workload::IoResult result;
    };

    /** One block of a client IO and the join over its member IOs. */
    struct BlockOp
    {
        std::uint32_t client = 0;
        unsigned cpu = 0;
        BlockMap map{};
        std::uint64_t tag = 0;
        std::uint64_t remaining = 0; ///< member IOs outstanding
        afa::workload::IoResult result;
        /** Small write: the join is the old-data/old-parity read. */
        bool readBeforeWrite = false;
    };

    afa::workload::IoEngine &inner;
    std::vector<unsigned> members;
    std::uint32_t stripBlocks;
    VolumeStats volStats;
    std::vector<bool> failedMembers;
    // Per-IO state lives in pools; member callbacks capture only
    // [this, block slot], which fits std::function's inline buffer.
    afa::sim::SlotPool<ClientOp> clients;
    afa::sim::SlotPool<BlockOp> blockOps;

    /** What a member IO's completion feeds. */
    enum class MemberDone : std::uint8_t
    {
        Block,       ///< the block's result (degraded write)
        HealthyRead, ///< fail over to a degraded read on error
        Join,        ///< the block's member join
    };

    void readBlock(std::uint32_t op);
    void writeBlock(std::uint32_t op);
    /** Submit block @p op's 4 KiB IO to member @p member_index. */
    void submitMember(std::uint32_t op, afa::nvme::Op kind,
                      unsigned member_index, MemberDone then);
    void memberDone(std::uint32_t op, MemberDone then,
                    const afa::workload::IoResult &result);
    /** Small write, second phase: write new data and parity. */
    void writeNewData(std::uint32_t op);
    /** Fold block @p op's result into its client IO; frees @p op. */
    void finishBlock(std::uint32_t op, afa::workload::IoResult result);
};

} // namespace afa::raid

#endif // AFA_RAID_VOLUME_HH
