/**
 * @file
 * FIO job parsing tests: the paper's workload line, size/duration
 * suffixes, and error handling.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "workload/fio_job.hh"

using namespace afa::workload;
using afa::sim::msec;
using afa::sim::sec;
using afa::sim::usec;

namespace {

class FioJobTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }
};

TEST_F(FioJobTest, Defaults)
{
    FioJob job;
    EXPECT_EQ(job.rw, RwMode::RandRead);
    EXPECT_EQ(job.blockSize, 4096u);
    EXPECT_EQ(job.ioDepth, 1u);
    EXPECT_EQ(job.runtime, sec(120));
}

TEST_F(FioJobTest, PaperWorkloadLine)
{
    // The Section III-B workload (direct/ioengine accepted, ignored).
    FioJob job = FioJob::parse(
        "name=afa rw=randread bs=4k iodepth=1 runtime=120 direct=1 "
        "ioengine=libaio");
    EXPECT_EQ(job.name, "afa");
    EXPECT_EQ(job.rw, RwMode::RandRead);
    EXPECT_EQ(job.blockSize, 4096u);
    EXPECT_EQ(job.ioDepth, 1u);
    EXPECT_EQ(job.runtime, sec(120));
}

TEST_F(FioJobTest, CommaSeparatedForm)
{
    FioJob job = FioJob::parse("rw=read,bs=128k,iodepth=8");
    EXPECT_EQ(job.rw, RwMode::Read);
    EXPECT_EQ(job.blockSize, 128u * 1024);
    EXPECT_EQ(job.ioDepth, 8u);
}

TEST_F(FioJobTest, SizeSuffixes)
{
    EXPECT_EQ(FioJob::parse("bs=8k").blockSize, 8192u);
    EXPECT_EQ(FioJob::parse("bs=1m").blockSize, 1048576u);
    EXPECT_EQ(FioJob::parse("bs=4096").blockSize, 4096u);
}

TEST_F(FioJobTest, DurationSuffixes)
{
    EXPECT_EQ(FioJob::parse("runtime=500ms").runtime, msec(500));
    EXPECT_EQ(FioJob::parse("runtime=30s").runtime, sec(30));
    EXPECT_EQ(FioJob::parse("runtime=2m").runtime, sec(120));
    EXPECT_EQ(FioJob::parse("runtime=250us").runtime, usec(250));
    EXPECT_EQ(FioJob::parse("runtime=7").runtime, sec(7));
}

TEST_F(FioJobTest, CpusAllowed)
{
    FioJob job = FioJob::parse("cpus_allowed=4-5,24");
    EXPECT_EQ(job.cpusAllowed,
              (afa::host::CpuMask(1) << 4) |
                  (afa::host::CpuMask(1) << 5) |
                  (afa::host::CpuMask(1) << 24));
}

TEST_F(FioJobTest, OffsetAndSizeInBlocks)
{
    FioJob job = FioJob::parse("offset=1m size=8m");
    EXPECT_EQ(job.offsetBlocks, 256u);
    EXPECT_EQ(job.sizeBlocks, 2048u);
}

TEST_F(FioJobTest, RwModes)
{
    EXPECT_EQ(parseRwMode("read"), RwMode::Read);
    EXPECT_EQ(parseRwMode("write"), RwMode::Write);
    EXPECT_EQ(parseRwMode("randread"), RwMode::RandRead);
    EXPECT_EQ(parseRwMode("randwrite"), RwMode::RandWrite);
    EXPECT_EQ(parseRwMode("randrw"), RwMode::RandRw);
    EXPECT_STREQ(rwModeName(RwMode::RandRead), "randread");
}

TEST_F(FioJobTest, Errors)
{
    EXPECT_THROW(FioJob::parse("rw=bogus"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("bs=1000"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("bs=0"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("iodepth=0"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("runtime=5lightyears"),
                 afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("rwmixread=150"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("unknown_key=1"), afa::sim::SimError);
    EXPECT_THROW(FioJob::parse("notkeyvalue"), afa::sim::SimError);
}

TEST_F(FioJobTest, SignedAndOutOfRangeValuesAreFatal)
{
    // A leading sign used to wrap through std::stoull: iodepth=-3
    // became a huge depth (and a bad_alloc), rtprio=-1 and size=-4k
    // silently wrapped.
    for (const char *spec :
         {"iodepth=-3", "rtprio=-1", "size=-4k", "offset=-1",
          "bs=-4k", "rwmixread=-1", "iodepth=+2", "iodepth= 2",
          "iodepth=4294967297", "iodepth=65537", "rtprio=100",
          "size=99999999999999999999", "size=17179869184g",
          "runtime=-5", "thinktime=-1ms", "runtime=inf",
          "runtime=1e300", "runtime=2e8m"})
        EXPECT_THROW(FioJob::parse(spec), afa::sim::SimError) << spec;
    EXPECT_EQ(FioJob::parse("iodepth=65536").ioDepth, 65536u);
    EXPECT_EQ(FioJob::parse("rtprio=0").rtPriority, 0);
}

TEST_F(FioJobTest, PollingAcceptsOnlyBooleans)
{
    EXPECT_TRUE(FioJob::parse("hipri=1").polling);
    EXPECT_TRUE(FioJob::parse("polling=true").polling);
    EXPECT_FALSE(FioJob::parse("hipri=0").polling);
    EXPECT_FALSE(FioJob::parse("polling=false").polling);
    // hipri=on used to mean "off" without a word.
    for (const char *spec : {"hipri=on", "polling=yes", "hipri=2",
                             "polling="})
        EXPECT_THROW(FioJob::parse(spec), afa::sim::SimError) << spec;
}

TEST_F(FioJobTest, RtPriority)
{
    FioJob job = FioJob::parse("rtprio=99");
    EXPECT_EQ(job.rtPriority, 99);
}

} // namespace
