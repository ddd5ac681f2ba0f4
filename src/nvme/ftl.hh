/**
 * @file
 * Page-mapped flash translation layer.
 *
 * Logical 4 KiB blocks map onto 4 KiB slots within NAND pages.
 * Writes are buffered in controller DRAM, packed into full pages, and
 * programmed log-structured with the page stream striped round-robin
 * across dies (one open block per die) for parallelism; a greedy
 * garbage collector reclaims the emptiest blocks when the free pool
 * runs low.
 *
 * In the paper's experiments every drive is kept FOB (fresh out of
 * box, via NVMe format), so host reads never consult NAND; the FTL
 * exists to support the Table I spec benches, flush semantics, and the
 * aged-drive (non-FOB) ablation the paper lists as future work.
 *
 * Both mapping tables (logical block -> physical slot and back) hold
 * 32-bit entries in fixed-size chunks that are created on their first
 * write; the last chunk is cut to the exact table size, and format()
 * releases them all. A drive that is never written therefore owns
 * only a chunk directory of a few hundred bytes, and an unmapped
 * lookup (every read of a FOB drive) touches nothing else -- a dense
 * 64-bit map per SSD was most of a 64-SSD array's memory and a
 * cache miss per read.
 */

#ifndef AFA_NVME_FTL_HH
#define AFA_NVME_FTL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nand/nand_array.hh"
#include "nvme/command.hh"
#include "sim/ring_queue.hh"
#include "sim/sim_object.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::nvme {

using afa::sim::Tick;

/** FTL geometry and policy. */
struct FtlParams
{
    /** Exported logical capacity in 4 KiB blocks. */
    std::uint64_t logicalBlocks = 262144; // 1 GiB

    /** Physical / logical capacity ratio. */
    double overProvision = 1.25;

    /** Start GC when the free block pool drops below this count. */
    unsigned gcFreeBlockThreshold = 4;

    /** Stop GC when the pool recovers to this count. */
    unsigned gcFreeBlockTarget = 8;

    /** Volatile write buffer capacity in 4 KiB entries. */
    unsigned writeBufferEntries = 1024;
};

/** FTL activity counters. */
struct FtlStats
{
    std::uint64_t hostWrites = 0;
    std::uint64_t hostReadsMapped = 0;
    std::uint64_t gcPageReads = 0;
    std::uint64_t gcSlotWrites = 0;
    std::uint64_t erases = 0;
    std::uint64_t programs = 0;
    std::uint64_t gcRuns = 0;
};

/**
 * The FTL. All operations are asynchronous; callbacks fire on the
 * owning simulator's event loop.
 */
class Ftl : public afa::sim::SimObject
{
  public:
    using DoneFn = std::function<void()>;

    Ftl(afa::sim::Simulator &simulator, std::string ftl_name,
        afa::nand::NandArray &nand_array, const FtlParams &ftl_params);

    /** True when @p lba has been written since the last format. */
    bool isMapped(std::uint64_t lba) const;

    /**
     * Read a mapped logical block from NAND. The caller must ensure
     * isMapped(lba); unmapped reads take the controller's zero-fill
     * fast path instead. @p io tags the obs spans this read emits.
     */
    void readMapped(std::uint64_t lba, DoneFn done,
                    std::uint64_t io = 0);

    /**
     * Claim-only variant of readMapped() for the controller's
     * single-event command fast path: same NAND horizon arithmetic,
     * RNG draw order, stats and spans as readMapped() running at
     * @p start_floor, but no completion callback is scheduled. The
     * returned tick is the NAND data-out end.
     */
    Tick readMappedAt(std::uint64_t lba, Tick start_floor,
                      std::uint64_t io = 0);

    /** Attach the span log; spans use @p track (the owning SSD's). */
    void
    setSpanLog(afa::obs::SpanLog *log, std::uint16_t track)
    {
        spanLog = log;
        spanTrack = track;
        nand.setSpanLog(log, track);
    }

    /**
     * Write a logical block. @p on_buffered fires when the data is
     * accepted into the volatile buffer (possibly delayed by buffer
     * backpressure); programming to NAND proceeds asynchronously.
     */
    void write(std::uint64_t lba, DoneFn on_buffered);

    /** Flush: @p done fires once every buffered entry is on NAND. */
    void flush(DoneFn done);

    /** Return the drive to FOB: all mappings dropped. Instant. */
    void format();

    /**
     * Instantly mark a fraction of the logical space as written
     * (page-striped across dies, like the write path would), without
     * modelling the write traffic. Used to set up aged-drive and
     * Table I read experiments.
     */
    void precondition(double mapped_fraction);

    /**
     * True when @p extra_slots logical blocks can be placed by
     * writeFast() with zero divergence from write(): structures
     * ready, no GC running or triggerable, no backpressure, and the
     * open page on the frontier die has room for the placement on
     * top of @p pending_slots earlier fast-path slots that have not
     * been placed yet. Pure query; draws nothing.
     */
    bool canFastWrite(unsigned pending_slots,
                      unsigned extra_slots) const;

    /**
     * Place one logical block immediately (fast path). Requires a
     * canFastWrite() window covering this slot; panics if admission
     * would have backpressured. Identical map/buffer mutations to
     * write(), but the buffered notification is the caller's own
     * completion -- no after(0) event.
     */
    void writeFast(std::uint64_t lba);

    /** True while the garbage collector is relocating/erasing. */
    bool gcRunning() const { return gcActive; }

    /** Entries currently buffered in DRAM. */
    unsigned buffered() const { return bufferedEntries; }

    /** Free NAND blocks remaining (across all dies). */
    std::size_t freeBlocks() const;

    /** Logical capacity in 4 KiB blocks. */
    std::uint64_t logicalBlocks() const { return params.logicalBlocks; }

    const FtlStats &stats() const { return ftlStats; }

    /** Mapping-table chunks currently materialised, both directions
     *  (for tests: 0 on a drive never written since format()). */
    std::size_t mapChunks() const
    {
        return map.chunks() + reverse.chunks();
    }

  private:
    /** "No block" (GC found no victim). */
    static constexpr std::uint64_t kNoBlock = ~std::uint64_t(0);

    /**
     * A table of 32-bit entries, kNone until written, stored in
     * kChunkEntries-entry chunks created on first write. The tail
     * chunk holds exactly the entries left over.
     */
    class ChunkedMap
    {
      public:
        static constexpr std::uint32_t kNone = ~std::uint32_t(0);
        static constexpr unsigned kChunkShift = 12;
        static constexpr std::uint64_t kChunkEntries = 1ull << kChunkShift;

        /** Size the table to @p entries, all kNone; frees chunks. */
        void reset(std::uint64_t entries);

        /** Entry @p i (must be < size). */
        std::uint32_t
        get(std::uint64_t i) const
        {
            const std::uint32_t *chunk = dir[i >> kChunkShift].get();
            return chunk ? chunk[i & (kChunkEntries - 1)] : kNone;
        }

        /** Set entry @p i, creating its chunk if needed. */
        void
        set(std::uint64_t i, std::uint32_t value)
        {
            std::unique_ptr<std::uint32_t[]> &chunk = dir[i >> kChunkShift];
            if (!chunk)
                materialise(i >> kChunkShift);
            chunk[i & (kChunkEntries - 1)] = value;
        }

        /** Chunks created since the last reset(). */
        std::size_t chunks() const { return live; }

      private:
        void materialise(std::uint64_t chunk);

        std::uint64_t entries = 0;
        std::vector<std::unique_ptr<std::uint32_t[]>> dir;
        std::size_t live = 0;
    };

    /**
     * Free blocks kept back for GC relocation (write-cliff guard).
     * One per die: a relocation pass can close at most one frontier
     * block per die before its erase returns a block to the pool.
     */
    std::size_t reserveBlocks;
    unsigned gcThreshold; ///< effective, >= reserveBlocks + 2
    unsigned gcTarget;    ///< effective, >= gcThreshold + 2

    struct BlockInfo
    {
        std::uint32_t validSlots = 0;
        bool open = false; ///< currently a write frontier
        bool free = true;  ///< in the free pool
    };

    /** Per-die write frontier (one open block per die). */
    struct DieFrontier
    {
        bool valid = false;
        std::uint64_t block = 0; ///< global block id
        std::uint32_t page = 0;
        std::uint32_t slot = 0;
        unsigned stagedHostEntries = 0; ///< host slots in current page
    };

    FtlParams params;
    afa::nand::NandArray &nand;
    unsigned slotsPerPage;
    std::uint64_t totalBlocksPhys; ///< NAND blocks across all dies
    std::uint64_t slotsPerBlock;
    unsigned dies;

    ChunkedMap map;     ///< lba -> phys slot
    ChunkedMap reverse; ///< phys slot -> lba (sized with the write
                        ///< structures)
    std::vector<BlockInfo> blockInfo;   ///< per physical block
    std::vector<std::vector<std::uint64_t>> freePerDie;
    std::vector<DieFrontier> frontier;
    unsigned nextDie;

    unsigned bufferedEntries;
    afa::sim::RingQueue<std::pair<std::uint64_t, DoneFn>> pendingWrites;
    std::vector<DoneFn> flushWaiters;
    unsigned outstandingPrograms;
    bool gcActive;
    bool writeStructuresReady;

    FtlStats ftlStats;
    afa::obs::SpanLog *spanLog = nullptr;
    std::uint16_t spanTrack = 0;

    void ensureWriteStructures();
    bool canAdmitWrite() const;
    void admitPendingWrites();
    void placeWrite(std::uint64_t lba, DoneFn on_buffered);
    /** Allocate the next slot on the striped frontier. */
    std::uint64_t allocSlot(bool host_path);
    void openBlockOnDie(unsigned die);
    void programFrontierPage(unsigned die);
    void maybeStartGc();
    void gcStep();
    void finishProgram(unsigned host_entries);
    afa::nand::PageAddr slotToAddr(std::uint64_t slot) const;
    std::uint64_t blockOfSlot(std::uint64_t slot) const;
    void invalidate(std::uint64_t lba);
    /** Point @p lba at @p slot in both tables and count it valid. */
    void bind(std::uint64_t lba, std::uint64_t slot);
    void checkFlushWaiters();
    bool drained() const;
};

} // namespace afa::nvme

#endif // AFA_NVME_FTL_HH
