#include "trace.hh"

#include <algorithm>

#include "trace/trace_v2.hh"

namespace dlvp::trace
{

void
Trace::attachStream(std::shared_ptr<ChunkedTraceFile> file)
{
    name = file->name();
    suite = file->suite();
    initialImage = file->initialImage();
    insts.clear();
    streamBase_ = 0;
    streamSize_ = file->numInsts();
    stream_ = std::move(file);
}

void
Trace::forEachInst(
    std::size_t begin, std::size_t end,
    const std::function<void(const TraceInst &)> &fn) const
{
    end = std::min(end, size());
    if (!stream_) {
        for (std::size_t i = begin; i < end; ++i)
            fn(insts[i]);
        return;
    }
    // File indices from here on.
    const std::uint32_t per = stream_->chunkInsts();
    end += streamBase_;
    for (std::size_t i = streamBase_ + begin; i < end;) {
        const std::uint64_t ci = i / per;
        const auto chunk = stream_->chunk(ci);
        const std::size_t start = stream_->chunkStart(ci);
        const std::size_t stop = std::min(end, start + chunk->size());
        for (; i < stop; ++i)
            fn((*chunk)[i - start]);
    }
}

Trace
Trace::window(std::size_t begin, std::size_t count,
              MemoryImage image) const
{
    begin = std::min(begin, size());
    count = std::min(count, size() - begin);
    Trace sub;
    sub.name = name;
    sub.suite = suite;
    sub.initialImage = std::move(image);
    if (stream_) {
        sub.stream_ = stream_;
        sub.streamBase_ = streamBase_ + begin;
        sub.streamSize_ = count;
    } else {
        sub.insts.assign(insts.begin() + begin,
                         insts.begin() + begin + count);
    }
    return sub;
}

Trace
Trace::slice(std::size_t begin, std::size_t count,
             MemoryImage image) const
{
    Trace sub = window(begin, count, std::move(image));
    sub.materialize();
    return sub;
}

void
Trace::materialize()
{
    if (!stream_)
        return;
    insts.reserve(streamSize_);
    forEachInst([this](const TraceInst &inst) {
        insts.push_back(inst);
    });
    stream_.reset();
    streamBase_ = 0;
    streamSize_ = 0;
}

TraceMix
Trace::mix() const
{
    TraceMix m;
    m.total = size();
    forEachInst([&m](const TraceInst &inst) {
        if (inst.isLoad()) {
            ++m.loads;
            m.loadDestRegs += inst.numDests;
            if (inst.loadKind != LoadKind::Simple)
                ++m.multiDestLoads;
        } else if (inst.isStore()) {
            ++m.stores;
        } else if (inst.isControl()) {
            ++m.branches;
            if (inst.cls == OpClass::CondBranch) {
                ++m.condBranches;
                if (inst.taken)
                    ++m.takenBranches;
            } else {
                ++m.takenBranches;
            }
        }
    });
    return m;
}

std::size_t
Trace::verifyReplay() const
{
    MemoryImage mem = initialImage;
    std::size_t bad = size();
    std::size_t i = 0;
    forEachInst([&](const TraceInst &inst) {
        if (bad == size()) {
            if (inst.isLoad()) {
                const std::uint64_t v =
                    mem.read(inst.memAddr, inst.memSize);
                if (v != inst.destValue)
                    bad = i;
            } else if (inst.isStore() ||
                       inst.cls == OpClass::Atomic) {
                mem.write(inst.memAddr, inst.storeValue, inst.memSize);
            }
        }
        ++i;
    });
    return bad;
}

void
advanceImage(MemoryImage &image, const Trace &trace,
             std::size_t begin, std::size_t end)
{
    trace.forEachInst(begin, end, [&image](const TraceInst &inst) {
        if (inst.isStore() || inst.cls == OpClass::Atomic)
            image.write(inst.memAddr, inst.storeValue, inst.memSize);
    });
}

} // namespace dlvp::trace
