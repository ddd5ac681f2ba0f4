/**
 * @file
 * Table I: the M.2 NVMe SSD specification, validated against the
 * device model. Measures random 4 KiB read/write IOPS at high queue
 * depth and sequential 128 KiB read/write bandwidth on a single SSD
 * (tuned host, no background load), plus the paper's ~25/30 us QD1
 * FOB read anchors.
 *
 *   Random Read/Write (IOPS):     160,000 / 30,000
 *   Sequential Read/Write (MB/s): 1,700 / 750
 *
 * Capacity is simulation-scaled (1 GiB logical instead of 960 GB) to
 * keep 64 drives' mapping tables in memory; timing is unaffected.
 */

#include "common.hh"

#include <memory>
#include <vector>

#include "sim/logging.hh"

#include "workload/fio_thread.hh"

using namespace afa::core;
using afa::sim::Simulator;
using afa::sim::Tick;
using afa::workload::FioJob;
using afa::workload::FioThread;

namespace {

constexpr const char *kUsage = R"(Flags:
  --runtime-ms M    simulated length of each row's run (default 2000)
  --seed S          root random seed; row i uses S+i (default 1)
  --csv             emit CSV instead of an aligned table
)";

struct Measurement
{
    double value;
    double perDeviceAvgUs;
};

/**
 * Run one single-SSD workload and return its rate. Spec-style
 * measurements use several jobs (@p threads) because one submitting
 * thread saturates its CPU near ~125k IOPS -- same as real fio.
 */
Measurement
measure(const std::string &jobspec, Tick runtime, bool precondition,
        std::uint64_t seed, unsigned threads = 1)
{
    Simulator sim(seed);
    AfaSystemParams sys_params;
    sys_params.ssds = 1;
    // Tuned host, quiet background: we are measuring the device.
    afa::host::CpuTopology topo;
    Geometry geometry(topo, 1);
    TuningConfig tuning =
        TuningConfig::forProfile(TuningProfile::IrqAffinity, geometry);
    sys_params.kernel = tuning.kernel;
    sys_params.firmware = tuning.firmware;
    sys_params.pinIrqAffinity = true;
    sys_params.background = afa::host::BackgroundParams::none();
    AfaSystem system(sim, sys_params);

    if (precondition)
        system.ssd(0).ftl().precondition(1.0);

    std::vector<std::unique_ptr<FioThread>> workers;
    for (unsigned i = 0; i < threads; ++i) {
        FioJob job = FioJob::parse(jobspec);
        job.runtime = runtime;
        job.cpusAllowed = afa::host::CpuMask(1)
            << geometry.fioCpus()[i % geometry.fioCpus().size()];
        job.rtPriority = tuning.fioRtPriority;
        job.name = afa::sim::strfmt("fio-spec%u", i);
        workers.push_back(std::make_unique<FioThread>(
            sim, job.name, system.scheduler(), system.ioEngine(), 0,
            job));
    }
    system.start();
    for (auto &w : workers)
        w->start(0);
    sim.run(runtime + afa::sim::msec(200));
    for (int i = 0; i < 100; ++i) {
        bool all_done = true;
        for (auto &w : workers)
            if (!w->finished())
                all_done = false;
        if (all_done)
            break;
        sim.run(sim.now() + afa::sim::msec(10));
    }

    double seconds = afa::sim::toSec(runtime);
    Measurement m{0.0, 0.0};
    afa::stats::Histogram merged;
    for (auto &w : workers) {
        m.value += static_cast<double>(w->stats().completed) / seconds;
        merged.merge(w->histogram());
    }
    m.perDeviceAvgUs = merged.mean() / afa::sim::kUsec;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    afa::sim::Config cfg;
    cfg.parseArgs(argc - 1, argv + 1);
    afa::bench::exitOnHelp(cfg, argv[0], kUsage);
    Tick runtime = afa::sim::msec(
        static_cast<double>(cfg.getUint("runtime_ms", 2000)));
    std::uint64_t seed = cfg.getUint("seed", 1);
    bool csv = cfg.getBool("csv", false);

    std::printf("=== Table I: NVMe SSD specification vs model ===\n");
    std::printf("(single SSD, tuned host, runtime %.1fs per row; "
                "capacity sim-scaled)\n\n",
                afa::sim::toSec(runtime));

    // Random 4 KiB, deep queue, reads on preconditioned media.
    // Four jobs of QD8, like a fio spec run with numjobs=4.
    auto rr = measure("rw=randread bs=4k iodepth=8", runtime, true,
                      seed, 4);
    auto rw = measure("rw=randwrite bs=4k iodepth=8", runtime, false,
                      seed + 1, 4);
    // Sequential 128 KiB.
    auto sr = measure("rw=read bs=128k iodepth=8", runtime, true,
                      seed + 2);
    auto sw = measure("rw=write bs=128k iodepth=8", runtime, false,
                      seed + 3);
    // The QD1 FOB anchors from Section IV-A.
    auto qd1 = measure("rw=randread bs=4k iodepth=1", runtime, false,
                       seed + 4);

    afa::stats::Table table(
        {"metric", "spec", "measured", "unit"});
    table.addRow({"random read", "160000",
                  afa::stats::Table::num(rr.value, 0), "IOPS"});
    table.addRow({"random write", "30000",
                  afa::stats::Table::num(rw.value, 0), "IOPS"});
    table.addRow({"sequential read", "1700",
                  afa::stats::Table::num(sr.value * 131072 / 1e6, 0),
                  "MB/s"});
    table.addRow({"sequential write", "750",
                  afa::stats::Table::num(sw.value * 131072 / 1e6, 0),
                  "MB/s"});
    table.addRow({"QD1 FOB read latency (through AFA)", "~30",
                  afa::stats::Table::num(qd1.perDeviceAvgUs, 1),
                  "usec"});
    if (csv)
        std::fputs(table.toCsv().c_str(), stdout);
    else
        table.print();
    return 0;
}
