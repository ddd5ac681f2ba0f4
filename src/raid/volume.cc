#include "raid/volume.hh"

#include <algorithm>
#include <memory>

#include "nvme/command.hh"
#include "sim/logging.hh"

namespace afa::raid {

using afa::workload::IoRequest;
using afa::workload::IoResult;

namespace {

/** Fan-out join: completes the client when the last member does,
 *  carrying the last handler CPU and the worst status seen. */
struct Join
{
    std::size_t remaining = 0;
    IoResult result;

    void
    fold(const IoResult &member_result)
    {
        result.cpu = member_result.cpu;
        if (!member_result.ok())
            result.status = member_result.status;
    }
};

} // namespace

StripedVolume::StripedVolume(afa::sim::Simulator &simulator,
                             std::string volume_name,
                             afa::workload::IoEngine &engine,
                             std::vector<unsigned> member_devices,
                             std::uint32_t strip_blocks)
    : SimObject(simulator, std::move(volume_name)), inner(engine),
      members(std::move(member_devices)), stripBlocks(strip_blocks)
{
    if (members.empty())
        afa::sim::fatal("%s: a volume needs at least one member",
                        name().c_str());
    if (stripBlocks == 0)
        afa::sim::fatal("%s: strip size must be >= 1 block",
                        name().c_str());
}

std::pair<unsigned, std::uint64_t>
StripedVolume::mapBlock(std::uint64_t volume_lba) const
{
    std::uint64_t strip = volume_lba / stripBlocks;
    std::uint64_t within = volume_lba % stripBlocks;
    unsigned member = static_cast<unsigned>(strip % members.size());
    std::uint64_t member_strip = strip / members.size();
    return {member, member_strip * stripBlocks + within};
}

std::uint64_t
StripedVolume::deviceBlocks(unsigned device) const
{
    if (device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    std::uint64_t smallest = inner.deviceBlocks(members[0]);
    for (unsigned m : members)
        smallest = std::min(smallest, inner.deviceBlocks(m));
    return smallest * members.size();
}

void
StripedVolume::submit(unsigned cpu, const IoRequest &request,
                      CompleteFn on_device_complete)
{
    if (request.device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    const std::uint64_t blocks =
        request.bytes / afa::nvme::kLogicalBlockBytes;
    if (blocks == 0)
        afa::sim::panic("%s: zero-length volume I/O", name().c_str());
    ++volStats.clientIos;
    if (request.op == afa::nvme::Op::Write)
        ++volStats.writes;
    else
        ++volStats.reads;

    // Coalesce the block run into contiguous per-member extents
    // (member LBAs ascend monotonically as the volume LBA does).
    struct SubIo
    {
        unsigned member;
        std::uint64_t lba;
        std::uint32_t blocks;
    };
    std::vector<SubIo> subs;
    std::vector<int> open(members.size(), -1); // member -> subs index
    for (std::uint64_t b = 0; b < blocks; ++b) {
        auto [member, lba] = mapBlock(request.lba + b);
        int idx = open[member];
        if (idx >= 0 &&
            subs[idx].lba + subs[idx].blocks == lba) {
            ++subs[idx].blocks;
        } else {
            open[member] = static_cast<int>(subs.size());
            subs.push_back(SubIo{member, lba, 1});
        }
    }

    // Fan out; the client completes with the slowest member (the
    // tail-at-scale join). The reported handler CPU is the last
    // completion's, matching what a reaping thread would observe.
    auto join = std::make_shared<Join>();
    join->remaining = subs.size();
    volStats.memberIos += subs.size();
    for (const SubIo &sub : subs) {
        IoRequest child;
        child.device = members[sub.member];
        child.op = request.op;
        child.lba = sub.lba;
        child.bytes = sub.blocks * afa::nvme::kLogicalBlockBytes;
        child.tag = request.tag;
        inner.submit(cpu, child,
                     [join, on_device_complete](
                         const IoResult &result) {
                         join->fold(result);
                         if (--join->remaining == 0)
                             on_device_complete(join->result);
                     });
    }
}

MirroredVolume::MirroredVolume(afa::sim::Simulator &simulator,
                               std::string volume_name,
                               afa::workload::IoEngine &engine,
                               std::vector<unsigned> member_devices,
                               ReadPolicy read_policy)
    : SimObject(simulator, std::move(volume_name)), inner(engine),
      members(std::move(member_devices)), policy(read_policy),
      nextRead(0)
{
    if (members.empty())
        afa::sim::fatal("%s: a volume needs at least one member",
                        name().c_str());
    memberReads.assign(members.size(), 0);
    failedMembers.assign(members.size(), false);
}

void
MirroredVolume::setMemberFailed(unsigned member_index, bool failed)
{
    if (member_index >= members.size())
        afa::sim::panic("%s: member %u out of range", name().c_str(),
                        member_index);
    failedMembers[member_index] = failed;
}

bool
MirroredVolume::memberFailed(unsigned member_index) const
{
    if (member_index >= members.size())
        afa::sim::panic("%s: member %u out of range", name().c_str(),
                        member_index);
    return failedMembers[member_index];
}

std::uint64_t
MirroredVolume::deviceBlocks(unsigned device) const
{
    if (device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    std::uint64_t smallest = inner.deviceBlocks(members[0]);
    for (unsigned m : members)
        smallest = std::min(smallest, inner.deviceBlocks(m));
    return smallest;
}

void
MirroredVolume::submit(unsigned cpu, const IoRequest &request,
                       CompleteFn on_device_complete)
{
    if (request.device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    ++volStats.clientIos;
    if (request.op == afa::nvme::Op::Write) {
        // Replicate to every live member; complete with the slowest.
        ++volStats.writes;
        std::size_t live = 0;
        for (unsigned m = 0; m < members.size(); ++m)
            if (!failedMembers[m])
                ++live;
        if (live == 0) {
            ++volStats.failedIos;
            after(0, [cpu, cb = std::move(on_device_complete)] {
                cb(IoResult{cpu, afa::nvme::Status::Aborted});
            });
            return;
        }
        volStats.memberIos += live;
        auto join = std::make_shared<Join>();
        join->remaining = live;
        for (unsigned m = 0; m < members.size(); ++m) {
            if (failedMembers[m])
                continue;
            IoRequest child = request;
            child.device = members[m];
            inner.submit(cpu, child,
                         [join, on_device_complete](
                             const IoResult &result) {
                             join->fold(result);
                             if (--join->remaining == 0)
                                 on_device_complete(join->result);
                         });
        }
        return;
    }
    // Read from one live member per the policy; a member that answers
    // with an error is failed on the spot and the read re-tried on a
    // survivor (degraded read).
    ++volStats.reads;
    submitRead(cpu, request, std::move(on_device_complete));
}

unsigned
MirroredVolume::pickReadMember()
{
    const unsigned n = static_cast<unsigned>(members.size());
    if (policy == ReadPolicy::Primary) {
        for (unsigned m = 0; m < n; ++m)
            if (!failedMembers[m])
                return m;
        return kNoMember;
    }
    for (unsigned tries = 0; tries < n; ++tries) {
        unsigned pick = nextRead;
        nextRead = (nextRead + 1) % n;
        if (!failedMembers[pick])
            return pick;
    }
    return kNoMember;
}

void
MirroredVolume::submitRead(unsigned cpu, const IoRequest &request,
                           CompleteFn on_device_complete)
{
    unsigned pick = pickReadMember();
    if (pick == kNoMember) {
        ++volStats.failedIos;
        after(0, [cpu, cb = std::move(on_device_complete)] {
            cb(IoResult{cpu, afa::nvme::Status::Aborted});
        });
        return;
    }
    ++volStats.memberIos;
    ++memberReads[pick];
    IoRequest child = request;
    child.device = members[pick];
    inner.submit(
        cpu, child,
        [this, cpu, request, pick,
         cb = std::move(on_device_complete)](
            const IoResult &result) mutable {
            if (result.ok()) {
                cb(result);
                return;
            }
            // The member gave up (driver timeout on a dropped-out
            // device): fail it over and re-read a survivor.
            setMemberFailed(pick, true);
            ++volStats.degradedReads;
            submitRead(cpu, request, std::move(cb));
        });
}

// ---------------------------------------------------------------------
// ParityVolume
// ---------------------------------------------------------------------

ParityVolume::ParityVolume(afa::sim::Simulator &simulator,
                           std::string volume_name,
                           afa::workload::IoEngine &engine,
                           std::vector<unsigned> member_devices,
                           std::uint32_t strip_blocks)
    : SimObject(simulator, std::move(volume_name)), inner(engine),
      members(std::move(member_devices)), stripBlocks(strip_blocks)
{
    if (members.size() < 3)
        afa::sim::fatal("%s: a parity volume needs >= 3 members",
                        name().c_str());
    if (stripBlocks == 0)
        afa::sim::fatal("%s: strip size must be >= 1 block",
                        name().c_str());
    failedMembers.assign(members.size(), false);
}

void
ParityVolume::setMemberFailed(unsigned member_index, bool failed)
{
    if (member_index >= members.size())
        afa::sim::panic("%s: member %u out of range", name().c_str(),
                        member_index);
    failedMembers[member_index] = failed;
}

bool
ParityVolume::memberFailed(unsigned member_index) const
{
    if (member_index >= members.size())
        afa::sim::panic("%s: member %u out of range", name().c_str(),
                        member_index);
    return failedMembers[member_index];
}

ParityVolume::BlockMap
ParityVolume::mapBlock(std::uint64_t volume_lba) const
{
    const std::uint64_t width = members.size();
    const std::uint64_t data_width = width - 1;
    std::uint64_t strip = volume_lba / stripBlocks;
    std::uint64_t within = volume_lba % stripBlocks;
    std::uint64_t stripe = strip / data_width;
    unsigned slot = static_cast<unsigned>(strip % data_width);
    unsigned parity = static_cast<unsigned>(stripe % width);
    unsigned data = slot < parity ? slot : slot + 1;
    return BlockMap{data, parity, stripe * stripBlocks + within};
}

std::uint64_t
ParityVolume::deviceBlocks(unsigned device) const
{
    if (device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    std::uint64_t smallest = inner.deviceBlocks(members[0]);
    for (unsigned m : members)
        smallest = std::min(smallest, inner.deviceBlocks(m));
    return smallest * (members.size() - 1);
}

void
ParityVolume::submitMember(std::uint32_t op, afa::nvme::Op kind,
                           unsigned member_index, MemberDone then)
{
    const BlockOp &b = blockOps[op];
    IoRequest child;
    child.device = members[member_index];
    child.op = kind;
    child.lba = b.map.memberLba;
    child.bytes = afa::nvme::kLogicalBlockBytes;
    child.tag = b.tag;
    ++volStats.memberIos;
    inner.submit(b.cpu, child, [this, op, then](const IoResult &result) {
        memberDone(op, then, result);
    });
}

void
ParityVolume::memberDone(std::uint32_t op, MemberDone then,
                         const IoResult &result)
{
    switch (then) {
      case MemberDone::Block:
        finishBlock(op, result);
        return;
      case MemberDone::HealthyRead:
        if (result.ok()) {
            finishBlock(op, result);
            return;
        }
        // Fail the member over and reconstruct instead.
        setMemberFailed(blockOps[op].map.dataMember, true);
        readBlock(op);
        return;
      case MemberDone::Join: {
        BlockOp &b = blockOps[op];
        b.result.cpu = result.cpu;
        if (!result.ok())
            b.result.status = result.status;
        if (--b.remaining != 0)
            return;
        if (b.readBeforeWrite)
            writeNewData(op);
        else
            finishBlock(op, b.result);
        return;
      }
    }
}

void
ParityVolume::finishBlock(std::uint32_t op, IoResult result)
{
    const std::uint32_t client = blockOps[op].client;
    blockOps.release(op);
    // The client join completes with the last block, carrying its
    // handler CPU and the worst status seen.
    ClientOp &c = clients[client];
    c.result.cpu = result.cpu;
    if (!result.ok())
        c.result.status = result.status;
    if (--c.remaining != 0)
        return;
    CompleteFn fn = std::move(c.fn);
    const IoResult client_result = c.result;
    clients.release(client);
    fn(client_result);
}

void
ParityVolume::readBlock(std::uint32_t op)
{
    const BlockMap map = blockOps[op].map;
    if (!failedMembers[map.dataMember]) {
        submitMember(op, afa::nvme::Op::Read, map.dataMember,
                     MemberDone::HealthyRead);
        return;
    }
    // Degraded read: XOR the stripe row of every surviving member
    // (including parity) back together; the join completes with the
    // slowest survivor, which is what makes a degraded array slow.
    ++volStats.degradedReads;
    blockOps[op].remaining = members.size() - 1;
    blockOps[op].result = IoResult{};
    for (unsigned m = 0; m < members.size(); ++m)
        if (m != map.dataMember)
            submitMember(op, afa::nvme::Op::Read, m, MemberDone::Join);
}

void
ParityVolume::writeBlock(std::uint32_t op)
{
    const BlockMap map = blockOps[op].map;
    const bool data_ok = !failedMembers[map.dataMember];
    const bool parity_ok = !failedMembers[map.parityMember];
    if (!data_ok || !parity_ok) {
        if (!data_ok && !parity_ok) {
            ++volStats.failedIos;
            after(0, [this, op] {
                finishBlock(op, IoResult{blockOps[op].cpu,
                                         afa::nvme::Status::Aborted});
            });
            return;
        }
        // Degraded write: no old copy to fold in; the survivor of the
        // (data, parity) pair absorbs the update directly.
        submitMember(op, afa::nvme::Op::Write,
                     data_ok ? map.dataMember : map.parityMember,
                     MemberDone::Block);
        return;
    }
    // The RAID-5 small-write penalty: read old data + old parity,
    // then write new data + new parity (two joins back to back).
    BlockOp &b = blockOps[op];
    b.readBeforeWrite = true;
    b.remaining = 2;
    b.result = IoResult{};
    for (unsigned m : {map.dataMember, map.parityMember})
        submitMember(op, afa::nvme::Op::Read, m, MemberDone::Join);
}

void
ParityVolume::writeNewData(std::uint32_t op)
{
    BlockOp &b = blockOps[op];
    if (!b.result.ok()) {
        finishBlock(op, b.result);
        return;
    }
    const BlockMap map = b.map;
    b.readBeforeWrite = false;
    b.remaining = 2;
    b.result = IoResult{};
    for (unsigned m : {map.dataMember, map.parityMember})
        submitMember(op, afa::nvme::Op::Write, m, MemberDone::Join);
}

void
ParityVolume::submit(unsigned cpu, const IoRequest &request,
                     CompleteFn on_device_complete)
{
    if (request.device != 0)
        afa::sim::panic("%s: volumes expose a single device 0",
                        name().c_str());
    const std::uint64_t blocks =
        request.bytes / afa::nvme::kLogicalBlockBytes;
    if (blocks == 0)
        afa::sim::panic("%s: zero-length volume I/O", name().c_str());
    ++volStats.clientIos;
    const bool is_write = request.op == afa::nvme::Op::Write;
    if (is_write)
        ++volStats.writes;
    else
        ++volStats.reads;
    const std::uint32_t client = clients.acquire();
    clients[client] =
        ClientOp{std::move(on_device_complete), blocks, IoResult{}};
    for (std::uint64_t b = 0; b < blocks; ++b) {
        const std::uint32_t op = blockOps.acquire();
        blockOps[op] = BlockOp{client, cpu, mapBlock(request.lba + b),
                               request.tag, 0, IoResult{}, false};
        if (is_write)
            writeBlock(op);
        else
            readBlock(op);
    }
}

} // namespace afa::raid
