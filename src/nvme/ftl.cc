#include "nvme/ftl.hh"

#include <algorithm>
#include <memory>

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::nvme {

using afa::nand::PageAddr;

Ftl::Ftl(afa::sim::Simulator &simulator, std::string ftl_name,
         afa::nand::NandArray &nand_array, const FtlParams &ftl_params)
    : SimObject(simulator, std::move(ftl_name)), params(ftl_params),
      nand(nand_array), nextDie(0), bufferedEntries(0),
      outstandingPrograms(0), gcActive(false),
      writeStructuresReady(false)
{
    const auto &np = nand.params();
    if (np.pageBytes % kLogicalBlockBytes != 0)
        afa::sim::fatal("%s: NAND page (%u B) not a multiple of 4 KiB",
                        name().c_str(), np.pageBytes);
    slotsPerPage = np.pageBytes / kLogicalBlockBytes;
    slotsPerBlock =
        static_cast<std::uint64_t>(slotsPerPage) * np.pagesPerBlock;
    dies = np.totalDies();
    totalBlocksPhys =
        static_cast<std::uint64_t>(dies) * np.blocksPerDie;

    std::uint64_t phys_slots = totalBlocksPhys * slotsPerBlock;
    std::uint64_t needed = static_cast<std::uint64_t>(
        static_cast<double>(params.logicalBlocks) * params.overProvision);
    if (phys_slots < needed)
        afa::sim::fatal(
            "%s: NAND too small: %llu phys slots < %llu needed "
            "(logical %llu x OP %.2f)",
            name().c_str(), (unsigned long long)phys_slots,
            (unsigned long long)needed,
            (unsigned long long)params.logicalBlocks,
            params.overProvision);
    // Map entries are 32-bit, with ~0 reserved for "unmapped".
    if (phys_slots >= ChunkedMap::kNone ||
        params.logicalBlocks >= ChunkedMap::kNone)
        afa::sim::fatal("%s: %llu phys slots / %llu logical blocks do "
                        "not fit the 32-bit map",
                        name().c_str(), (unsigned long long)phys_slots,
                        (unsigned long long)params.logicalBlocks);

    map.reset(params.logicalBlocks);

    reserveBlocks = dies;
    gcThreshold = std::max<unsigned>(params.gcFreeBlockThreshold,
                                     static_cast<unsigned>(
                                         reserveBlocks + 2));
    gcTarget =
        std::max<unsigned>(params.gcFreeBlockTarget, gcThreshold + 2);
    if (gcTarget >= totalBlocksPhys)
        afa::sim::fatal("%s: GC target %u >= physical blocks %llu",
                        name().c_str(), gcTarget,
                        (unsigned long long)totalBlocksPhys);
}

bool
Ftl::isMapped(std::uint64_t lba) const
{
    if (lba >= params.logicalBlocks)
        afa::sim::panic("%s: lba %llu out of range", name().c_str(),
                        (unsigned long long)lba);
    return map.get(lba) != ChunkedMap::kNone;
}

void
Ftl::ChunkedMap::reset(std::uint64_t table_entries)
{
    entries = table_entries;
    dir.clear();
    dir.resize((entries + kChunkEntries - 1) >> kChunkShift);
    live = 0;
}

void
Ftl::ChunkedMap::materialise(std::uint64_t chunk)
{
    const std::uint64_t first = chunk << kChunkShift;
    const std::uint64_t n = std::min(kChunkEntries, entries - first);
    dir[chunk] = std::make_unique<std::uint32_t[]>(n);
    std::fill_n(dir[chunk].get(), n, kNone);
    ++live;
}

std::uint64_t
Ftl::blockOfSlot(std::uint64_t slot) const
{
    return slot / slotsPerBlock;
}

PageAddr
Ftl::slotToAddr(std::uint64_t slot) const
{
    const auto &np = nand.params();
    std::uint64_t block = slot / slotsPerBlock;
    std::uint64_t within = slot % slotsPerBlock;
    auto page = static_cast<std::uint32_t>(within / slotsPerPage);
    auto die_linear = static_cast<unsigned>(block / np.blocksPerDie);
    auto block_in_die =
        static_cast<std::uint32_t>(block % np.blocksPerDie);
    return nand.addrForDie(die_linear, block_in_die, page);
}

std::size_t
Ftl::freeBlocks() const
{
    std::size_t total = 0;
    for (const auto &pool : freePerDie)
        total += pool.size();
    return total;
}

void
Ftl::ensureWriteStructures()
{
    if (writeStructuresReady)
        return;
    const auto &np = nand.params();
    reverse.reset(totalBlocksPhys * slotsPerBlock);
    blockInfo.assign(totalBlocksPhys, BlockInfo{});
    freePerDie.assign(dies, {});
    for (unsigned d = 0; d < dies; ++d) {
        freePerDie[d].reserve(np.blocksPerDie);
        for (std::uint32_t b = np.blocksPerDie; b-- > 0;)
            freePerDie[d].push_back(
                static_cast<std::uint64_t>(d) * np.blocksPerDie + b);
    }
    frontier.assign(dies, DieFrontier{});
    nextDie = 0;
    writeStructuresReady = true;
}

void
Ftl::openBlockOnDie(unsigned die)
{
    auto &pool = freePerDie[die];
    if (pool.empty()) {
        // Steal from the richest die to stay functional under skew.
        unsigned richest = die;
        for (unsigned d = 0; d < dies; ++d)
            if (freePerDie[d].size() > freePerDie[richest].size())
                richest = d;
        if (freePerDie[richest].empty())
            afa::sim::panic("%s: free pool exhausted (GC fell behind)",
                            name().c_str());
        pool.push_back(freePerDie[richest].back());
        freePerDie[richest].pop_back();
    }
    DieFrontier &f = frontier[die];
    f.block = pool.back();
    pool.pop_back();
    f.valid = true;
    f.page = 0;
    f.slot = 0;
    f.stagedHostEntries = 0;
    blockInfo[f.block].open = true;
    blockInfo[f.block].free = false;
}

void
Ftl::programFrontierPage(unsigned die)
{
    DieFrontier &f = frontier[die];
    if (f.slot == 0)
        return; // nothing staged
    std::uint64_t first_slot = f.block * slotsPerBlock +
        static_cast<std::uint64_t>(f.page) * slotsPerPage;
    unsigned host_entries = f.stagedHostEntries;
    f.stagedHostEntries = 0;
    ++outstandingPrograms;
    ++ftlStats.programs;
    nand.program(slotToAddr(first_slot), nand.params().pageBytes,
                 [this, host_entries] { finishProgram(host_entries); });
    f.slot = 0;
    ++f.page;
    if (f.page == nand.params().pagesPerBlock) {
        blockInfo[f.block].open = false;
        f.valid = false;
    }
}

std::uint64_t
Ftl::allocSlot(bool host_path)
{
    if (!frontier[nextDie].valid)
        openBlockOnDie(nextDie);
    DieFrontier &fr = frontier[nextDie];
    std::uint64_t slot = fr.block * slotsPerBlock +
        static_cast<std::uint64_t>(fr.page) * slotsPerPage + fr.slot;
    ++fr.slot;
    if (host_path)
        ++fr.stagedHostEntries;
    if (fr.slot == slotsPerPage) {
        programFrontierPage(nextDie);
        // Rotate dies per page: consecutive pages stripe the array.
        nextDie = (nextDie + 1) % dies;
    }
    return slot;
}

void
Ftl::invalidate(std::uint64_t lba)
{
    const std::uint32_t old = map.get(lba);
    if (old == ChunkedMap::kNone)
        return;
    std::uint64_t blk = blockOfSlot(old);
    if (blockInfo[blk].validSlots == 0)
        afa::sim::panic("%s: invalidate underflow on block %llu",
                        name().c_str(), (unsigned long long)blk);
    --blockInfo[blk].validSlots;
    reverse.set(old, ChunkedMap::kNone);
    map.set(lba, ChunkedMap::kNone);
}

void
Ftl::bind(std::uint64_t lba, std::uint64_t slot)
{
    map.set(lba, static_cast<std::uint32_t>(slot));
    reverse.set(slot, static_cast<std::uint32_t>(lba));
    ++blockInfo[blockOfSlot(slot)].validSlots;
}

void
Ftl::write(std::uint64_t lba, DoneFn on_buffered)
{
    if (lba >= params.logicalBlocks)
        afa::sim::panic("%s: write lba %llu out of range",
                        name().c_str(), (unsigned long long)lba);
    ensureWriteStructures();
    if (!canAdmitWrite()) {
        pendingWrites.push_back({lba, std::move(on_buffered)});
        maybeStartGc();
        return;
    }
    placeWrite(lba, std::move(on_buffered));
}

bool
Ftl::canAdmitWrite() const
{
    if (bufferedEntries >= params.writeBufferEntries)
        return false;
    // Write-cliff throttle: once the free pool is nearly gone, hold
    // host writes so GC relocation can still allocate frontier space.
    if (gcActive && freeBlocks() <= reserveBlocks)
        return false;
    return true;
}

void
Ftl::placeWrite(std::uint64_t lba, DoneFn on_buffered)
{
    invalidate(lba);
    ++bufferedEntries;
    bind(lba, allocSlot(true));
    ++ftlStats.hostWrites;
    if (on_buffered)
        after(0, std::move(on_buffered));
    maybeStartGc();
}

void
Ftl::finishProgram(unsigned host_entries)
{
    if (bufferedEntries < host_entries)
        afa::sim::panic("%s: buffer accounting underflow",
                        name().c_str());
    bufferedEntries -= host_entries;
    --outstandingPrograms;
    admitPendingWrites();
    checkFlushWaiters();
}

void
Ftl::admitPendingWrites()
{
    while (!pendingWrites.empty() && canAdmitWrite()) {
        auto [lba, cb] = std::move(pendingWrites.front());
        pendingWrites.pop_front();
        placeWrite(lba, std::move(cb));
    }
}

bool
Ftl::drained() const
{
    return bufferedEntries == 0 && outstandingPrograms == 0 &&
        pendingWrites.empty();
}

void
Ftl::checkFlushWaiters()
{
    if (flushWaiters.empty() || !drained())
        return;
    auto waiters = std::move(flushWaiters);
    flushWaiters.clear();
    for (auto &w : waiters)
        after(0, std::move(w));
}

void
Ftl::flush(DoneFn done)
{
    if (!writeStructuresReady || drained()) {
        after(0, std::move(done));
        return;
    }
    // Force out partial pages on every die so the buffer can drain.
    for (unsigned d = 0; d < dies; ++d)
        if (frontier[d].valid)
            programFrontierPage(d);
    flushWaiters.push_back(std::move(done));
    checkFlushWaiters();
}

void
Ftl::readMapped(std::uint64_t lba, DoneFn done, std::uint64_t io)
{
    if (!isMapped(lba))
        afa::sim::panic("%s: readMapped on unmapped lba %llu",
                        name().c_str(), (unsigned long long)lba);
    ++ftlStats.hostReadsMapped;
    Tick begin = now();
    Tick nand_done = nand.read(slotToAddr(map.get(lba)),
                               kLogicalBlockBytes, std::move(done), io);
    if (spanLog && spanLog->wants(afa::obs::Category::Ftl))
        spanLog->record(afa::obs::Stage::FtlRead, io, begin, nand_done,
                        spanTrack);
}

Tick
Ftl::readMappedAt(std::uint64_t lba, Tick start_floor, std::uint64_t io)
{
    if (!isMapped(lba))
        afa::sim::panic("%s: readMappedAt on unmapped lba %llu",
                        name().c_str(), (unsigned long long)lba);
    ++ftlStats.hostReadsMapped;
    Tick nand_done = nand.readAt(slotToAddr(map.get(lba)),
                                 kLogicalBlockBytes, start_floor, io);
    if (spanLog && spanLog->wants(afa::obs::Category::Ftl))
        spanLog->record(afa::obs::Stage::FtlRead, io, start_floor,
                        nand_done, spanTrack);
    return nand_done;
}

bool
Ftl::canFastWrite(unsigned pending_slots, unsigned extra_slots) const
{
    // The fast write defers its placements to the write-pipe exit
    // tick with no event between them, so they must be provably
    // inert: every slot lands in the currently open page on the
    // current frontier die (no program, so no NAND draw), admission
    // cannot backpressure, and GC can neither be running nor be
    // triggered by the placement.
    if (!writeStructuresReady || gcActive)
        return false;
    if (!pendingWrites.empty() || !flushWaiters.empty())
        return false;
    if (bufferedEntries + pending_slots + extra_slots >
        params.writeBufferEntries)
        return false;
    if (!frontier[nextDie].valid)
        return false;
    if (frontier[nextDie].slot + pending_slots + extra_slots >=
        slotsPerPage)
        return false;
    if (freeBlocks() < gcThreshold)
        return false;
    return true;
}

void
Ftl::writeFast(std::uint64_t lba)
{
    // The fast-path placement: identical state mutations to write()
    // minus the after(0, on_buffered) hop -- the controller completes
    // the command from its own single event at the same tick.
    if (lba >= params.logicalBlocks)
        afa::sim::panic("%s: write lba %llu out of range",
                        name().c_str(), (unsigned long long)lba);
    if (!writeStructuresReady || !canAdmitWrite())
        afa::sim::panic("%s: fast write without admission (eligibility "
                        "bug)", name().c_str());
    placeWrite(lba, nullptr);
}

void
Ftl::maybeStartGc()
{
    if (gcActive || !writeStructuresReady)
        return;
    if (freeBlocks() >= gcThreshold)
        return;
    gcActive = true;
    ++ftlStats.gcRuns;
    gcStep();
}

void
Ftl::gcStep()
{
    if (freeBlocks() >= gcTarget) {
        gcActive = false;
        return;
    }
    // Greedy victim: fewest valid slots among closed, used blocks.
    std::uint64_t victim = kNoBlock;
    std::uint32_t best = ~std::uint32_t(0);
    for (std::uint64_t b = 0; b < totalBlocksPhys; ++b) {
        const BlockInfo &bi = blockInfo[b];
        if (bi.free || bi.open)
            continue;
        if (bi.validSlots < best) {
            best = bi.validSlots;
            victim = b;
        }
    }
    if (victim == kNoBlock ||
        blockInfo[victim].validSlots >= slotsPerBlock) {
        // No victim, or even the best victim is fully valid:
        // relocation cannot gain free space, so stop rather than
        // churn erases forever on a maximally packed drive.
        gcActive = false;
        return;
    }
    // Collect valid lbas and the distinct pages that hold them.
    std::vector<std::uint64_t> lbas;
    std::vector<std::uint32_t> pages_to_read;
    for (std::uint32_t pg = 0; pg < nand.params().pagesPerBlock; ++pg) {
        bool page_has_valid = false;
        for (unsigned sl = 0; sl < slotsPerPage; ++sl) {
            std::uint64_t slot = victim * slotsPerBlock +
                static_cast<std::uint64_t>(pg) * slotsPerPage + sl;
            const std::uint32_t lba = reverse.get(slot);
            if (lba != ChunkedMap::kNone && map.get(lba) == slot) {
                lbas.push_back(lba);
                page_has_valid = true;
            }
        }
        if (page_has_valid)
            pages_to_read.push_back(pg);
    }
    auto relocate_and_erase = [this, victim, lbas] {
        for (std::uint64_t lba : lbas) {
            invalidate(lba);
            bind(lba, allocSlot(false));
            ++ftlStats.gcSlotWrites;
        }
        nand.erase(slotToAddr(victim * slotsPerBlock),
                   [this, victim] {
                       blockInfo[victim].validSlots = 0;
                       blockInfo[victim].free = true;
                       unsigned die = static_cast<unsigned>(
                           victim / nand.params().blocksPerDie);
                       freePerDie[die].push_back(victim);
                       ++ftlStats.erases;
                       admitPendingWrites();
                       checkFlushWaiters();
                       gcStep();
                   });
    };
    if (pages_to_read.empty()) {
        relocate_and_erase();
        return;
    }
    auto remaining = std::make_shared<std::size_t>(pages_to_read.size());
    for (std::uint32_t pg : pages_to_read) {
        std::uint64_t first_slot = victim * slotsPerBlock +
            static_cast<std::uint64_t>(pg) * slotsPerPage;
        ++ftlStats.gcPageReads;
        nand.read(slotToAddr(first_slot), nand.params().pageBytes,
                  [remaining, relocate_and_erase] {
                      if (--*remaining == 0)
                          relocate_and_erase();
                  });
    }
}

void
Ftl::format()
{
    map.reset(params.logicalBlocks);
    reverse.reset(0);
    blockInfo.clear();
    freePerDie.clear();
    frontier.clear();
    pendingWrites.clear();
    bufferedEntries = 0;
    outstandingPrograms = 0;
    gcActive = false;
    writeStructuresReady = false;
    nextDie = 0;
    checkFlushWaiters();
}

void
Ftl::precondition(double mapped_fraction)
{
    if (mapped_fraction < 0.0 || mapped_fraction > 1.0)
        afa::sim::fatal("%s: precondition fraction %.2f out of [0,1]",
                        name().c_str(), mapped_fraction);
    format();
    ensureWriteStructures();
    auto to_map = static_cast<std::uint64_t>(
        mapped_fraction * static_cast<double>(params.logicalBlocks));
    // Instant fill: stripe pages across dies the way the write path
    // would, but without NAND traffic or buffering.
    for (std::uint64_t lba = 0; lba < to_map; ++lba) {
        if (!frontier[nextDie].valid)
            openBlockOnDie(nextDie);
        DieFrontier &fr = frontier[nextDie];
        std::uint64_t slot = fr.block * slotsPerBlock +
            static_cast<std::uint64_t>(fr.page) * slotsPerPage +
            fr.slot;
        bind(lba, slot);
        ++fr.slot;
        if (fr.slot == slotsPerPage) {
            fr.slot = 0;
            ++fr.page;
            if (fr.page == nand.params().pagesPerBlock) {
                blockInfo[fr.block].open = false;
                fr.valid = false;
            }
            nextDie = (nextDie + 1) % dies;
        }
    }
    // Close partial frontier pages cleanly: leave them open; the
    // write path continues from here.
}

} // namespace afa::nvme
