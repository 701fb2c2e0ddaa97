#include "dvtage.hh"

#include "common/bits.hh"

namespace dlvp::pred
{

Dvtage::Dvtage(const DvtageParams &params)
    : params_(params), confVec_(params.confProbs),
      lvt_(std::size_t{1} << params.lvtBits)
{
    tables_.resize(params_.histLengths.size());
    for (auto &t : tables_)
        t.resize(std::size_t{1} << params_.tableBits);
}

Addr
Dvtage::effectivePc(Addr pc, unsigned dest_idx)
{
    return pc ^ (static_cast<Addr>(dest_idx) << 20) ^
           (static_cast<Addr>(dest_idx) * 0x9e3779b9ULL);
}

unsigned
Dvtage::lvtIndex(Addr epc) const
{
    return static_cast<unsigned>(
        ((epc >> 2) ^ (epc >> (2 + params_.lvtBits))) &
        mask(params_.lvtBits));
}

std::uint16_t
Dvtage::lvtTag(Addr epc) const
{
    return static_cast<std::uint16_t>(
        ((epc >> 2) ^ (epc >> 9) ^ (epc >> 17)) & mask(params_.tagBits));
}

unsigned
Dvtage::index(unsigned t, Addr epc, std::uint64_t ghr) const
{
    const std::uint64_t hist = ghr & mask(params_.histLengths[t]);
    return static_cast<unsigned>(
        ((epc >> 2) ^ (epc >> (2 + params_.tableBits)) ^
         xorFold(hist, params_.tableBits)) &
        mask(params_.tableBits));
}

std::uint16_t
Dvtage::tag(unsigned t, Addr epc, std::uint64_t ghr) const
{
    const std::uint64_t hist = ghr & mask(params_.histLengths[t]);
    return static_cast<std::uint16_t>(
        ((epc >> 2) ^ (epc >> 11) ^ xorFold(hist, params_.tagBits) ^
         (xorFold(hist, params_.tagBits - 1) << 1)) &
        mask(params_.tagBits));
}

int
Dvtage::provider(Addr epc, std::uint64_t ghr) const
{
    for (int t = static_cast<int>(tables_.size()) - 1; t >= 0; --t) {
        const auto &e = tables_[t][index(t, epc, ghr)];
        if (e.valid && e.tag == tag(t, epc, ghr))
            return t;
    }
    return -1;
}

bool
Dvtage::eligible(const trace::TraceInst &inst) const
{
    using trace::OpClass;
    if (params_.loadsOnly)
        return inst.isLoad();
    return inst.numDests > 0 && inst.cls != OpClass::Atomic &&
           inst.cls != OpClass::Barrier;
}

Dvtage::Prediction
Dvtage::predictSpec(const trace::TraceInst &inst, unsigned dest_idx,
                    std::uint64_t ghr)
{
    Prediction pred;
    if (!eligible(inst))
        return pred;
    const Addr epc = effectivePc(inst.pc, dest_idx);
    LvtEntry &lv = lvt_[lvtIndex(epc)];
    if (!lv.valid || lv.tag != lvtTag(epc) || !lv.specValid)
        return pred;
    const int p = provider(epc, ghr);
    if (p < 0)
        return pred;
    const auto &e = tables_[p][index(static_cast<unsigned>(p), epc, ghr)];
    if (!e.conf.saturated(confVec_))
        return pred;
    pred.valid = true;
    pred.value = lv.specLast + static_cast<std::uint64_t>(e.delta);
    // Chain the speculative window: the next in-flight instance sees
    // this prediction as its last value.
    lv.specLast = pred.value;
    if (lv.specAhead < 255)
        ++lv.specAhead;
    return pred;
}

void
Dvtage::train(const trace::TraceInst &inst, unsigned dest_idx,
              std::uint64_t ghr, std::uint64_t actual)
{
    if (!eligible(inst))
        return;
    const Addr epc = effectivePc(inst.pc, dest_idx);
    LvtEntry &lv = lvt_[lvtIndex(epc)];
    if (!lv.valid || lv.tag != lvtTag(epc)) {
        lv.valid = true;
        lv.tag = lvtTag(epc);
        lv.last = actual;
        lv.specLast = actual;
        lv.specValid = true;
        return;
    }
    // Subtract in uint64_t: values 2^63 apart would overflow a signed
    // difference; the conversion back is modulo 2^64 (C++20).
    const std::int64_t delta =
        static_cast<std::int64_t>(actual - lv.last);
    const int p = provider(epc, ghr);
    bool provider_correct = false;
    bool steady = false;
    if (p >= 0) {
        auto &e = tables_[p][index(static_cast<unsigned>(p), epc, ghr)];
        if (e.delta == delta) {
            provider_correct = true;
            e.conf.increment(confVec_, rng_);
            steady = e.conf.saturated(confVec_);
        } else if (e.conf.value() == 0) {
            e.delta = delta;
        } else {
            e.conf.reset();
        }
    }
    if (!provider_correct) {
        const unsigned start = static_cast<unsigned>(p + 1);
        if (start < tables_.size()) {
            const unsigned t = start + static_cast<unsigned>(
                rng_.below(tables_.size() - start));
            auto &e = tables_[t][index(t, epc, ghr)];
            if (!e.valid || e.conf.value() == 0) {
                e.valid = true;
                e.tag = tag(t, epc, ghr);
                e.delta = delta;
                e.conf.reset();
            } else {
                e.conf.decrement();
            }
        }
    }
    lv.last = actual;
    // A train whose instance was predicted consumes one outstanding
    // "ahead" credit; otherwise the chain is not being advanced by
    // predictions and must stay pinned to the committed state.
    (void)steady;
    if (provider_correct && lv.specValid && lv.specAhead > 0) {
        --lv.specAhead;
    } else {
        lv.specLast = actual;
        lv.specValid = true;
        lv.specAhead = 0;
    }
}

void
Dvtage::flushResync()
{
    for (auto &lv : lvt_) {
        lv.specValid = false;
        lv.specAhead = 0;
    }
}

std::uint64_t
Dvtage::storageBits() const
{
    const std::uint64_t lvt_bits =
        lvt_.size() * (params_.tagBits + 64);
    std::uint64_t delta_bits = 0;
    for (const auto &t : tables_)
        delta_bits += t.size() * (params_.tagBits + 16 + 3);
    return lvt_bits + delta_bits;
}

} // namespace dlvp::pred
