#include "nvme/controller.hh"

#include <algorithm>

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::nvme {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Read:
        return "read";
      case Op::Write:
        return "write";
      case Op::Flush:
        return "flush";
      case Op::Format:
        return "format";
      case Op::GetLogPage:
        return "get-log-page";
    }
    return "unknown";
}

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Success:
        return "success";
      case Status::InvalidField:
        return "invalid-field";
      case Status::TimedOut:
        return "timed-out";
      case Status::Aborted:
        return "aborted";
    }
    return "unknown";
}

Controller::Controller(afa::sim::Simulator &simulator,
                       std::string controller_name,
                       const FirmwareConfig &firmware_config,
                       afa::nand::NandArray &nand_array,
                       const FtlParams &ftl_params,
                       afa::sim::Tracer *trace_sink)
    : SimObject(simulator, std::move(controller_name)),
      fwConfig(firmware_config), nand(nand_array),
      ftlLayer(simulator, name() + ".ftl", nand_array, ftl_params),
      smartEngine(simulator, name() + ".smart", firmware_config.smart,
                  trace_sink),
      tracer(trace_sink), numQueuePairs(1), procBusy(0), xferBusy(0),
      writePipeBusy(0), lastWriteEndLba(~std::uint64_t(0))
{
}

void
Controller::setTransport(TransportFn transport_fn)
{
    transport = std::move(transport_fn);
}

void
Controller::setCompletionHandler(CompletionFn handler)
{
    completionHandler = std::move(handler);
}

void
Controller::setSpanLog(afa::obs::SpanLog *log, std::uint16_t track)
{
    spanLog = log;
    spanTrack = track;
    ftlLayer.setSpanLog(log, track);
}

void
Controller::start()
{
    smartEngine.start();
}

void
Controller::setLimpFactor(double factor)
{
    if (factor < 1.0)
        afa::sim::panic("%s: limp factor %.2f < 1", name().c_str(),
                        factor);
    // In-flight fast reads pre-computed their media window with the
    // old factor; the reference model applies limp at its finish
    // tick, so anything not yet past that tick must re-run there.
    demoteAllFast();
    limp = factor;
}

void
Controller::stallUntil(Tick until)
{
    demoteAllFast();
    faultStallUntilTick = std::max(faultStallUntilTick, until);
}

void
Controller::setOffline(bool offline)
{
    demoteAllFast();
    isOffline = offline;
}

void
Controller::setFastPath(bool enabled)
{
    if (!enabled)
        demoteAllFast();
    fastPathEnabled = enabled;
}

void
Controller::checkWired() const
{
    if (!transport || !completionHandler)
        afa::sim::fatal("%s: transport/completion handler not wired",
                        name().c_str());
}

Tick
Controller::throughPipeline(Tick proc_time, std::uint64_t io)
{
    Tick ready = std::max(now(), procBusy);
    Tick stalled = std::max(ready, smartEngine.stalledUntil());
    ctrlStats.smartStallDelay += stalled - ready;
    Tick faulted = std::max(stalled, faultStallUntilTick);
    ctrlStats.faultStallDelay += faulted - stalled;
    if (spanLog) {
        if (ready > now() && spanLog->wants(afa::obs::Category::Nvme))
            spanLog->record(afa::obs::Stage::ControllerQueue, io,
                            now(), ready, spanTrack);
        if (stalled > ready &&
            spanLog->wants(afa::obs::Category::Smart))
            spanLog->record(afa::obs::Stage::SmartStall, io, ready,
                            stalled, spanTrack);
        if (faulted > stalled &&
            spanLog->wants(afa::obs::Category::Fault))
            spanLog->record(afa::obs::Stage::FaultStall, io, stalled,
                            faulted, spanTrack);
    }
    procBusy = faulted + proc_time;
    return procBusy;
}

Tick
Controller::throughXfer(Tick ready, afa::sim::Bytes bytes)
{
    Tick start = std::max(ready, xferBusy);
    xferBusy = start +
        afa::sim::transferTicks(bytes, fwConfig.internalMBps * 1e6);
    return xferBusy;
}

Tick
Controller::sampleHiccup(Tick when)
{
    if (!rng().chance(fwConfig.hiccupProbability))
        return 0;
    ++ctrlStats.hiccups;
    auto penalty = static_cast<Tick>(rng().pareto(
        static_cast<double>(fwConfig.hiccupScale), fwConfig.hiccupShape));
    penalty = std::min(penalty, fwConfig.hiccupCap);
    if (tracer && tracer->enabled("nvme.hiccup"))
        tracer->record(when, "nvme.hiccup",
                       afa::sim::strfmt("%s +%.1f us", name().c_str(),
                                        afa::sim::toUsec(penalty)));
    return penalty;
}

void
Controller::complete(const NvmeCommand &cmd, std::uint32_t reply_bytes,
                     Status status)
{
    NvmeCompletion completion{cmd.cmdId, cmd.queueId, status};
    transport(reply_bytes, cmd.tag, [this, completion] {
        completionHandler(completion);
    });
}

void
Controller::submit(const NvmeCommand &cmd)
{
    checkWired();
    if (isOffline) {
        // Dropped-out device: the command vanishes; the host driver's
        // timeout/retry path is the only recovery.
        ++ctrlStats.droppedCommands;
        return;
    }
    switch (cmd.op) {
      case Op::Read:
        serveRead(cmd);
        break;
      case Op::Write:
        serveWrite(cmd);
        break;
      case Op::Flush:
        serveFlush(cmd);
        break;
      case Op::Format:
        serveFormat(cmd);
        break;
      case Op::GetLogPage:
        serveLogPage(cmd);
        break;
    }
}

std::uint32_t
Controller::park(const NvmeCommand &cmd, std::uint64_t blocks)
{
    const std::uint32_t slot = chained.acquire();
    chained[slot] = Chained{cmd, blocks, 0, 0, 0, 0};
    return slot;
}

void
Controller::finishRead(std::uint32_t slot)
{
    const Chained &c = chained[slot];
    Tick xfer_ready = c.mediaDone + c.hiccup;
    if (limp != 1.0) {
        // Limping device: the media stage takes `limp` times as
        // long; charge the excess after the healthy window.
        Tick extra = static_cast<Tick>(
            static_cast<double>(c.mediaDone - c.mediaBegin) *
            (limp - 1.0));
        ctrlStats.faultStallDelay += extra;
        if (extra && spanLog &&
            spanLog->wants(afa::obs::Category::Fault))
            spanLog->record(afa::obs::Stage::FaultStall, c.cmd.tag,
                            xfer_ready, xfer_ready + extra, spanTrack);
        xfer_ready += extra;
    }
    Tick xfer_done =
        throughXfer(xfer_ready, afa::sim::Bytes{c.cmd.bytes});
    if (spanLog && spanLog->wants(afa::obs::Category::Nvme)) {
        spanLog->record(afa::obs::Stage::MediaRead, c.cmd.tag,
                        c.mediaBegin, c.mediaDone, spanTrack);
        spanLog->record(afa::obs::Stage::DeviceXfer, c.cmd.tag,
                        xfer_ready, xfer_done, spanTrack);
    }
    at(xfer_done, [this, slot] {
        const NvmeCommand cmd = chained[slot].cmd;
        chained.release(slot);
        ++ctrlStats.readsCompleted;
        ctrlStats.bytesRead += cmd.bytes;
        complete(cmd, cmd.bytes + 16, Status::Success);
    });
    // The DMA claim is made; later submissions may fast-path again.
    --chainDepth;
}

void
Controller::chainedReadBody(std::uint32_t slot)
{
    Chained &c = chained[slot];
    const std::uint64_t lba = c.cmd.lba;
    // Determine the media path: any mapped block forces NAND.
    bool any_mapped = false;
    for (std::uint64_t b = 0; b < c.blocks; ++b)
        if (ftlLayer.isMapped(lba + b)) {
            any_mapped = true;
            break;
        }
    c.hiccup = sampleHiccup();
    c.mediaBegin = now();
    if (!any_mapped) {
        // FOB zero-fill fast path: no NAND involved.
        Tick media = static_cast<Tick>(rng().lognormal(
            static_cast<double>(fwConfig.fobReadLatency),
            fwConfig.fobReadSigma));
        c.mediaDone = now() + media;
        finishRead(slot);
        return;
    }
    // Mapped: fan out one FTL read per mapped logical block;
    // unmapped holes inside the range are served as zeroes.
    c.remaining = 0;
    for (std::uint64_t b = 0; b < c.blocks; ++b)
        if (ftlLayer.isMapped(lba + b))
            ++c.remaining;
    for (std::uint64_t b = 0; b < c.blocks; ++b)
        if (ftlLayer.isMapped(lba + b))
            ftlLayer.readMapped(
                lba + b,
                [this, slot] {
                    Chained &done = chained[slot];
                    if (--done.remaining != 0)
                        return;
                    done.mediaDone = now();
                    finishRead(slot);
                },
                c.cmd.tag);
}

void
Controller::serveRead(const NvmeCommand &cmd)
{
    if (cmd.bytes == 0 || cmd.bytes % kLogicalBlockBytes != 0) {
        complete(cmd, 16, Status::InvalidField);
        return;
    }
    const std::uint64_t blocks = cmd.bytes / kLogicalBlockBytes;
    Tick pipe_done = throughPipeline(fwConfig.readProcTime, cmd.tag);
    bool all_mapped = false;
    if (fastReadEligible(cmd, blocks, all_mapped)) {
        fastRead(cmd, blocks, pipe_done, all_mapped);
        return;
    }
    fallbackDispatch();
    const std::uint32_t slot = park(cmd, blocks);
    at(pipe_done, [this, slot] { chainedReadBody(slot); });
}

bool
Controller::fastReadEligible(const NvmeCommand &cmd,
                             std::uint64_t blocks,
                             bool &all_mapped) const
{
    if (!fastPathEnabled || chainDepth != 0)
        return false;
    // Fault hooks change how (or whether) the reference model would
    // serve this command at its own event times: stay chained.
    if (limp != 1.0 || faultStallUntilTick > now())
        return false;
    // A pending fast write to an overlapping range would flip this
    // range's mapped-ness between now and the reference pipe event.
    for (std::size_t i = 0; i < fastWrites.size(); ++i) {
        const FastWrite &fw = fastWrites[i];
        if (cmd.lba < fw.cmd.lba + fw.blocks &&
            fw.cmd.lba < cmd.lba + blocks)
            return false;
    }
    std::uint64_t mapped = 0;
    for (std::uint64_t b = 0; b < blocks; ++b)
        if (ftlLayer.isMapped(cmd.lba + b))
            ++mapped;
    if (mapped != 0 && mapped != blocks)
        return false; // mixed range: chained fan-out with holes
    all_mapped = mapped == blocks && mapped != 0;
    // Mapped reads draw from the NAND stream and claim die/channel
    // horizons; a running GC interleaves its own claims and draws at
    // callback times we cannot pre-order against.
    if (all_mapped && ftlLayer.gcRunning())
        return false;
    return true;
}

void
Controller::fastRead(const NvmeCommand &cmd, std::uint64_t blocks,
                     Tick pipe_done, bool all_mapped)
{
    ++ctrlStats.fastPathCommands;
    // Draws happen in the reference order: hiccup first, then media.
    Tick hiccup = sampleHiccup(pipe_done);
    Tick media_begin = pipe_done;
    Tick media_done;
    if (!all_mapped) {
        Tick media = static_cast<Tick>(rng().lognormal(
            static_cast<double>(fwConfig.fobReadLatency),
            fwConfig.fobReadSigma));
        media_done = pipe_done + media;
    } else {
        media_done = 0;
        for (std::uint64_t b = 0; b < blocks; ++b)
            media_done = std::max(
                media_done,
                ftlLayer.readMappedAt(cmd.lba + b, pipe_done, cmd.tag));
    }
    // The reference model claims the DMA engine at its finish tick:
    // the pipe event for FOB reads (monotone in submit order), the
    // last NAND data-out for mapped ones (not monotone). Enforce the
    // reference claim order by demoting any in-flight entry whose
    // reference claim would land after ours.
    Tick finish_tick = all_mapped ? media_done : pipe_done;
    while (!fastReads.empty() &&
           fastReads.back().finishTick > finish_tick)
        demoteBackFastRead();
    FastRead fr;
    fr.cmd = cmd;
    fr.hiccup = hiccup;
    fr.mediaBegin = media_begin;
    fr.mediaDone = media_done;
    fr.finishTick = finish_tick;
    fr.prevXferBusy = xferBusy;
    fr.xferReady = media_done + hiccup;
    fr.xferDone = throughXfer(fr.xferReady, afa::sim::Bytes{cmd.bytes});
    if (fastReads.empty())
        fastReadEv = at(fr.xferDone, [this] { completeFastRead(); });
    fastReads.push_back(std::move(fr));
}

void
Controller::completeFastRead()
{
    if (fastReads.empty())
        afa::sim::panic("%s: fast read completion without flight",
                        name().c_str());
    FastRead fr = std::move(fastReads.front());
    fastReads.pop_front();
    if (!fastReads.empty())
        fastReadEv = at(fastReads.front().xferDone,
                        [this] { completeFastRead(); });
    // Spans carry the exact reference values; they are recorded at
    // the completion tick rather than the reference finish tick, so
    // only the ring's recording order differs (attribution and drop
    // counts are order-independent).
    if (spanLog && spanLog->wants(afa::obs::Category::Nvme)) {
        spanLog->record(afa::obs::Stage::MediaRead, fr.cmd.tag,
                        fr.mediaBegin, fr.mediaDone, spanTrack);
        spanLog->record(afa::obs::Stage::DeviceXfer, fr.cmd.tag,
                        fr.xferReady, fr.xferDone, spanTrack);
    }
    ++ctrlStats.readsCompleted;
    ctrlStats.bytesRead += fr.cmd.bytes;
    complete(fr.cmd, fr.cmd.bytes + 16, Status::Success);
}

void
Controller::demoteBackFastRead()
{
    FastRead fr = std::move(fastReads.back());
    fastReads.pop_back();
    if (fastReads.empty())
        sim().cancel(fastReadEv);
    // Claims roll back LIFO: the back entry's claim is the newest.
    xferBusy = fr.prevXferBusy;
    ++chainDepth;
    --ctrlStats.fastPathCommands;
    ++ctrlStats.fallbackCommands;
    const std::uint32_t slot = park(fr.cmd, 0);
    chained[slot].hiccup = fr.hiccup;
    chained[slot].mediaBegin = fr.mediaBegin;
    chained[slot].mediaDone = fr.mediaDone;
    at(fr.finishTick, [this, slot] { finishRead(slot); });
}

void
Controller::chainedWriteBody(std::uint32_t slot)
{
    Chained &c = chained[slot];
    c.remaining = c.blocks;
    // FTL write callbacks always fire from later events, never from
    // inside write(), so the loop sees the slot unchanged.
    for (std::uint64_t b = 0; b < c.blocks; ++b) {
        ftlLayer.write(c.cmd.lba + b, [this, slot] {
            if (--chained[slot].remaining != 0)
                return;
            const NvmeCommand cmd = chained[slot].cmd;
            chained.release(slot);
            ++ctrlStats.writesCompleted;
            ctrlStats.bytesWritten += cmd.bytes;
            complete(cmd, 16, Status::Success);
            // FTL placement (and any GC it started) is resolved.
            --chainDepth;
        });
    }
}

void
Controller::serveWrite(const NvmeCommand &cmd)
{
    if (cmd.bytes == 0 || cmd.bytes % kLogicalBlockBytes != 0) {
        complete(cmd, 16, Status::InvalidField);
        return;
    }
    const std::uint64_t blocks = cmd.bytes / kLogicalBlockBytes;
    Tick pipe_done = throughPipeline(fwConfig.readProcTime, cmd.tag);
    // Write pipe: sequential streams pay bandwidth, random writes pay
    // the per-command FTL overhead that caps random IOPS (Table I).
    bool sequential = cmd.lba == lastWriteEndLba;
    lastWriteEndLba = cmd.lba + blocks;
    const Tick bw_ticks = afa::sim::transferTicks(
        afa::sim::Bytes{cmd.bytes}, fwConfig.writeMBps * 1e6);
    Tick service = sequential
        ? bw_ticks
        : std::max(bw_ticks, fwConfig.randomWriteOverhead);
    if (limp != 1.0) {
        Tick extra =
            static_cast<Tick>(static_cast<double>(service) *
                              (limp - 1.0));
        ctrlStats.faultStallDelay += extra;
        service += extra;
    }
    Tick start = std::max(pipe_done, writePipeBusy);
    writePipeBusy = start + service;
    if (fastWriteEligible(blocks)) {
        ++ctrlStats.fastPathCommands;
        FastWrite fw;
        fw.cmd = cmd;
        fw.blocks = blocks;
        fw.wpbTick = writePipeBusy;
        if (fastWrites.empty())
            fastWriteEv =
                at(writePipeBusy, [this] { completeFastWrite(); });
        pendingFastWriteSlots += static_cast<unsigned>(blocks);
        fastWrites.push_back(std::move(fw));
        return;
    }
    fallbackDispatch();
    const std::uint32_t slot = park(cmd, blocks);
    at(writePipeBusy, [this, slot] { chainedWriteBody(slot); });
}

bool
Controller::fastWriteEligible(std::uint64_t blocks) const
{
    if (!fastPathEnabled || chainDepth != 0)
        return false;
    if (limp != 1.0 || faultStallUntilTick > now())
        return false;
    // The placement must be provably inert at the write-pipe exit:
    // open-page room (no program -> no NAND draw), admission
    // headroom, no GC. Out-of-range LBAs panic either way.
    return blocks < ftlLayer.logicalBlocks() &&
        ftlLayer.canFastWrite(pendingFastWriteSlots,
                              static_cast<unsigned>(blocks));
}

void
Controller::completeFastWrite()
{
    if (fastWrites.empty())
        afa::sim::panic("%s: fast write completion without flight",
                        name().c_str());
    FastWrite fw = std::move(fastWrites.front());
    fastWrites.pop_front();
    if (!fastWrites.empty())
        fastWriteEv = at(fastWrites.front().wpbTick,
                         [this] { completeFastWrite(); });
    pendingFastWriteSlots -= static_cast<unsigned>(fw.blocks);
    // The collapsed write-buffer path: place every block directly --
    // the reference model's write() + after(0, on_buffered) per
    // block, minus the zero-delay events -- then complete at the
    // same tick.
    for (std::uint64_t b = 0; b < fw.blocks; ++b)
        ftlLayer.writeFast(fw.cmd.lba + b);
    ++ctrlStats.writesCompleted;
    ctrlStats.bytesWritten += fw.cmd.bytes;
    complete(fw.cmd, 16, Status::Success);
}

void
Controller::demoteBackFastWrite()
{
    FastWrite fw = std::move(fastWrites.back());
    fastWrites.pop_back();
    if (fastWrites.empty())
        sim().cancel(fastWriteEv);
    pendingFastWriteSlots -= static_cast<unsigned>(fw.blocks);
    ++chainDepth;
    --ctrlStats.fastPathCommands;
    ++ctrlStats.fallbackCommands;
    const std::uint32_t slot = park(fw.cmd, fw.blocks);
    at(fw.wpbTick, [this, slot] { chainedWriteBody(slot); });
}

void
Controller::fallbackDispatch()
{
    demoteAllFast();
    ++chainDepth;
    ++ctrlStats.fallbackCommands;
}

void
Controller::demoteAllFast()
{
    // Reads whose reference finish tick has passed hold final claims
    // and keep their single event; the rest re-enter the chained
    // model at exactly that tick (entries are finishTick-sorted, so
    // the revocable ones form the LIFO-rollback-safe suffix).
    while (!fastReads.empty() && fastReads.back().finishTick > now())
        demoteBackFastRead();
    // A write's placement is only inert while nothing chained can
    // interleave with it; demote them all.
    while (!fastWrites.empty())
        demoteBackFastWrite();
}

void
Controller::serveFlush(const NvmeCommand &cmd)
{
    // A flush drains behind every write already in the write pipe.
    Tick pipe_done =
        std::max(throughPipeline(fwConfig.readProcTime, cmd.tag),
                 writePipeBusy);
    fallbackDispatch();
    at(pipe_done, [this, cmd] {
        ftlLayer.flush([this, cmd] {
            ++ctrlStats.flushesCompleted;
            complete(cmd, 16, Status::Success);
        });
        // The flush's synchronous work -- the forced partial-page
        // programs with their NAND draws and horizon claims -- is
        // done; the waiter it leaves behind draws nothing and claims
        // nothing, so later submissions may fast-path again even
        // while the drain is still in flight (it may never finish on
        // a drive whose last page stays partial).
        --chainDepth;
    });
}

void
Controller::serveFormat(const NvmeCommand &cmd)
{
    // Format stalls the whole device for its duration.
    Tick pipe_done = throughPipeline(fwConfig.formatDuration, cmd.tag);
    fallbackDispatch();
    at(pipe_done, [this, cmd] {
        ftlLayer.format();
        lastWriteEndLba = ~std::uint64_t(0);
        ++ctrlStats.formatsCompleted;
        complete(cmd, 16, Status::Success);
        --chainDepth;
    });
}

void
Controller::serveLogPage(const NvmeCommand &cmd)
{
    Tick pipe_done =
        throughPipeline(fwConfig.logPageProcTime, cmd.tag);
    if (fwConfig.logPageStallsIo)
        smartEngine.stallFor(fwConfig.logPageProcTime);
    fallbackDispatch();
    at(pipe_done, [this, cmd] {
        ++ctrlStats.logPagesCompleted;
        complete(cmd, 512 + 16, Status::Success);
        --chainDepth;
    });
}

} // namespace afa::nvme
