/**
 * @file
 * Property test: the FTL against a trivial reference model.
 *
 * A reference std::map tracks which LBAs have been written; after any
 * interleaving of writes, overwrites, flushes, formats and
 * preconditions, the FTL must agree on mapped-ness, every mapped LBA
 * must be readable, and the block accounting (valid slots vs mapped
 * LBAs) must balance. Parameterised over several FTL geometries and
 * operation mixes, including logical spaces that span several
 * mapping-table chunks with a partial tail chunk, and a tightly
 * provisioned one whose garbage collector relocates data across chunk
 * boundaries.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>

#include "nand/nand_array.hh"
#include "nvme/ftl.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using afa::nand::NandArray;
using afa::nand::NandParams;
using afa::nvme::Ftl;
using afa::nvme::FtlParams;
using afa::sim::Rng;
using afa::sim::Simulator;

namespace {

struct GeometryCase
{
    const char *name;
    unsigned channels;
    unsigned dies;
    unsigned pagesPerBlock;
    unsigned blocksPerDie;
    std::uint64_t logicalBlocks;
    double overProvision;
    double formatWeight; ///< relative chance of a format op
    /** Fraction preconditioned at the start and after every format
     *  (0 = none). */
    double precondition = 0.0;
    int steps = 400;
    /** The run must trigger garbage collection. */
    bool expectGc = false;
};

/** Precondition @p ftl to @p fraction and mirror it in @p reference. */
void
precondition(Ftl &ftl, const GeometryCase &gc,
             std::map<std::uint64_t, bool> &reference)
{
    if (gc.precondition <= 0.0)
        return;
    ftl.precondition(gc.precondition);
    const auto to_map = static_cast<std::uint64_t>(
        gc.precondition * static_cast<double>(gc.logicalBlocks));
    for (std::uint64_t lba = 0; lba < to_map; ++lba)
        reference[lba] = true;
}

// Without this gtest prints the case as raw bytes, including the
// address of `name`, so the ctest name would change on every build.
void
PrintTo(const GeometryCase &c, std::ostream *os)
{
    *os << c.name;
}

class FtlPropertyTest : public ::testing::TestWithParam<GeometryCase>
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

TEST_P(FtlPropertyTest, AgreesWithReferenceModel)
{
    const GeometryCase &gc = GetParam();
    Simulator sim(afa::sim::hashTag(gc.name));
    NandParams np;
    np.channels = gc.channels;
    np.diesPerChannel = gc.dies;
    np.pagesPerBlock = gc.pagesPerBlock;
    np.blocksPerDie = gc.blocksPerDie;
    NandArray nand(sim, "nand", np);
    FtlParams fp;
    fp.logicalBlocks = gc.logicalBlocks;
    fp.overProvision = gc.overProvision;
    fp.writeBufferEntries = 32;
    Ftl ftl(sim, "ftl", nand, fp);

    std::map<std::uint64_t, bool> reference;
    precondition(ftl, gc, reference);
    Rng rng(99);

    for (int step = 0; step < gc.steps; ++step) {
        double dice = rng.uniform();
        if (dice < 0.70) {
            // Write (often an overwrite).
            std::uint64_t lba =
                rng.uniformInt(0, gc.logicalBlocks - 1);
            ftl.write(lba, nullptr);
            reference[lba] = true;
        } else if (dice < 0.80) {
            // Flush and drain.
            bool flushed = false;
            ftl.flush([&] { flushed = true; });
            sim.run();
            ASSERT_TRUE(flushed);
        } else if (dice < 0.80 + gc.formatWeight) {
            sim.run(); // settle outstanding NAND work first
            ftl.format();
            reference.clear();
            EXPECT_EQ(ftl.mapChunks(), 0u) << "format keeps chunks";
            precondition(ftl, gc, reference);
        } else {
            // Read something mapped, if anything is.
            if (!reference.empty()) {
                auto it = reference.lower_bound(
                    rng.uniformInt(0, gc.logicalBlocks - 1));
                if (it == reference.end())
                    it = reference.begin();
                bool done = false;
                ftl.readMapped(it->first, [&] { done = true; });
                sim.run();
                ASSERT_TRUE(done);
            }
        }
        // Let queued work make progress occasionally.
        if (step % 16 == 0)
            sim.run();
    }
    sim.run();

    // Mapped-ness agrees everywhere.
    for (std::uint64_t lba = 0; lba < gc.logicalBlocks; ++lba)
        ASSERT_EQ(ftl.isMapped(lba), reference.count(lba) != 0)
            << "lba " << lba;

    // Every mapped LBA is readable after the churn.
    unsigned checked = 0;
    for (const auto &[lba, mapped] : reference) {
        (void)mapped;
        bool done = false;
        ftl.readMapped(lba, [&] { done = true; });
        sim.run();
        ASSERT_TRUE(done);
        if (++checked >= 64)
            break;
    }

    // Buffer fully drains on a final flush.
    bool flushed = false;
    ftl.flush([&] { flushed = true; });
    sim.run();
    EXPECT_TRUE(flushed);
    EXPECT_EQ(ftl.buffered(), 0u);
    if (gc.expectGc) {
        EXPECT_GT(ftl.stats().gcRuns, 0u);
        EXPECT_GT(ftl.stats().gcSlotWrites, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FtlPropertyTest,
    ::testing::Values(
        GeometryCase{"small", 2, 2, 4, 16, 512, 1.5, 0.05},
        GeometryCase{"tight_op", 2, 2, 4, 16, 900, 1.05, 0.05},
        GeometryCase{"one_die", 1, 1, 8, 64, 1024, 1.5, 0.05},
        GeometryCase{"format_heavy", 2, 2, 4, 16, 512, 1.5, 0.15},
        GeometryCase{"wide", 4, 4, 8, 8, 3072, 1.3, 0.02},
        // 3 full 4096-entry map chunks plus a 1234-entry tail; the
        // reverse map (16 dies x 60 blocks x 32 slots) ends mid-chunk
        // too. Formats re-precondition half the drive.
        GeometryCase{"chunk_tail", 4, 4, 8, 60, 3 * 4096 + 1234, 1.3,
                     0.05, 0.5},
        // 10% spare on a 95%-full drive: overwrites drive GC, whose
        // relocations move LBAs between chunks in both maps.
        GeometryCase{"chunk_gc", 4, 2, 8, 60, 3 * 4096 + 1234, 1.1, 0.0,
                     0.95, 4000, true}),
    [](const ::testing::TestParamInfo<GeometryCase> &info) {
        return info.param.name;
    });

TEST(FtlChunkTest, UnwrittenDriveMaterialisesNoChunks)
{
    afa::sim::setThrowOnError(true);
    Simulator sim(3);
    NandArray nand(sim, "nand", NandParams{});
    FtlParams fp; // the simulated SSD's 1 GiB logical space
    Ftl ftl(sim, "ftl", nand, fp);
    for (std::uint64_t lba = 0; lba < fp.logicalBlocks; ++lba)
        ASSERT_FALSE(ftl.isMapped(lba));
    EXPECT_EQ(ftl.mapChunks(), 0u);
    EXPECT_THROW(ftl.isMapped(fp.logicalBlocks), afa::sim::SimError);

    // One write materialises one chunk in each direction; format
    // releases them.
    ftl.write(fp.logicalBlocks - 1, nullptr);
    sim.run();
    EXPECT_TRUE(ftl.isMapped(fp.logicalBlocks - 1));
    EXPECT_EQ(ftl.mapChunks(), 2u);
    ftl.format();
    EXPECT_EQ(ftl.mapChunks(), 0u);
    EXPECT_FALSE(ftl.isMapped(fp.logicalBlocks - 1));
    afa::sim::setThrowOnError(false);
}

} // namespace
