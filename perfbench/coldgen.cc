#include "perfbench/coldgen.hh"

#include <utility>
#include <vector>

#include "gx86/assembler.hh"
#include "workloads/workloads.hh"

namespace risotto::perfbench
{

namespace
{

/** SplitMix64: the generator owns its stream, so a change to the
 * library's RNG cannot silently change the benchmark's input. */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, bound). */
    std::uint32_t below(std::uint32_t bound)
    {
        return static_cast<std::uint32_t>(next() % bound);
    }

  private:
    std::uint64_t state_;
};

constexpr std::int32_t RegionBytes = 4096;
constexpr std::size_t MaxThreads = 8;

// Register plan: r11 thread id, r13 region base, r12/r10 accumulators,
// r9 scratch, r7 FP accumulator, r8 FP multiplier (FP values live in
// integer registers as bit patterns, as in workloads::buildGuestWorkload),
// r1 syscall argument.
constexpr gx86::Reg Tid = 11;
constexpr gx86::Reg Base = 13;
constexpr gx86::Reg Acc = 12;
constexpr gx86::Reg Acc2 = 10;
constexpr gx86::Reg Tmp = 9;
constexpr gx86::Reg FpAcc = 7;
constexpr gx86::Reg FpMul = 8;

/** The five op kinds of a WorkloadSpec iteration. */
enum class OpKind { Load, Store, Alu, Fp, Cas };

/**
 * The image's op stream: whole iterations of the suite proxies, taken in
 * turn, each iteration's ops in a seeded order. Taking every proxy in
 * turn, rather than sampling one per block, keeps each kind's share of
 * the image the same for every seed.
 */
class OpStream
{
  public:
    explicit OpStream(Stream &rng)
        : rng_(rng), specs_(workloads::fullSuite())
    {
    }

    OpKind
    next()
    {
        if (pending_.empty())
            refill();
        const OpKind kind = pending_.back();
        pending_.pop_back();
        return kind;
    }

  private:
    void
    refill()
    {
        const workloads::WorkloadSpec &spec =
            specs_[iteration_++ % specs_.size()];
        pending_.insert(pending_.end(), spec.loads, OpKind::Load);
        pending_.insert(pending_.end(), spec.stores, OpKind::Store);
        pending_.insert(pending_.end(), spec.aluOps, OpKind::Alu);
        pending_.insert(pending_.end(), spec.fpOps, OpKind::Fp);
        pending_.insert(pending_.end(), spec.casOps, OpKind::Cas);
        for (std::size_t i = pending_.size(); i > 1; --i)
            std::swap(pending_[i - 1],
                      pending_[rng_.below(static_cast<std::uint32_t>(i))]);
    }

    Stream &rng_;
    std::vector<workloads::WorkloadSpec> specs_;
    std::vector<OpKind> pending_;
    std::size_t iteration_ = 0;
};

} // namespace

ColdImage
generateColdImage(std::uint64_t seed, std::size_t blocks)
{
    Stream rng(seed ^ 0x636f6c64ULL); // "cold"
    OpStream stream(rng);
    gx86::Assembler a(gx86::DefaultTextBase, gx86::DefaultDataBase);
    const gx86::Addr region =
        a.dataReserve(static_cast<std::size_t>(RegionBytes) * MaxThreads,
                      64);
    a.defineSymbol("main");
    ColdInfo info;
    info.blocks = blocks;

    // Prologue: per-thread region base, tid- and seed-dependent state.
    a.movrr(Tid, 0);
    a.movrr(Base, 0);
    a.muli(Base, RegionBytes);
    a.movri(Tmp, static_cast<std::int64_t>(region));
    a.add(Base, Tmp);
    a.movri(Acc, static_cast<std::int64_t>(rng.next() >> 1));
    a.add(Acc, Tid);
    a.movri(Acc2, static_cast<std::int64_t>(rng.next() >> 1));
    a.movfd(FpAcc, 1.000001);
    a.movfd(FpMul, 0.999997);

    auto offset = [&]() {
        return static_cast<std::int32_t>(rng.below(RegionBytes / 8) * 8);
    };
    auto acc = [&]() { return rng.below(3) == 0 ? Acc2 : Acc; };

    for (std::size_t b = 0; b < blocks; ++b) {
        // The block length only sets the image size: about 55 text
        // bytes per block.
        const std::uint32_t ops = 4 + rng.below(8);
        for (std::uint32_t k = 0; k < ops; ++k) {
            switch (stream.next()) {
              case OpKind::Load:
                a.load(Tmp, Base, offset());
                a.add(acc(), Tmp);
                info.memOps += 1;
                info.guestInsns += 2;
                break;
              case OpKind::Store:
                a.store(Base, offset(), acc());
                info.memOps += 1;
                info.guestInsns += 1;
                break;
              case OpKind::Alu: {
                const gx86::Reg rd = acc();
                switch (rng.below(4)) {
                  case 0: a.addi(rd, static_cast<std::int32_t>(
                                         rng.below(4096)));
                    break;
                  case 1: a.xori(rd, static_cast<std::int32_t>(
                                         rng.below(4096)));
                    break;
                  case 2: a.shli(rd, 1 + rng.below(3)); break;
                  default: a.shri(rd, 1 + rng.below(3)); break;
                }
                info.guestInsns += 1;
                break;
              }
              case OpKind::Fp:
                if (rng.below(2) == 0)
                    a.fmul(FpAcc, FpMul);
                else
                    a.fadd(FpAcc, FpMul);
                info.fpOps += 1;
                info.guestInsns += 1;
                break;
              case OpKind::Cas:
                a.movri(Tmp, 1 + rng.below(255));
                a.lockXadd(Base, offset(), Tmp);
                a.add(Acc2, Tmp);
                info.lockOps += 1;
                info.guestInsns += 3;
                break;
            }
        }
        // Every block ends in a branch to the next one: a taken jmp, or
        // a compare-and-branch whose two edges meet at the next block.
        const gx86::Assembler::Label next = a.newLabel();
        if (rng.below(2) == 0) {
            a.jmp(next);
            info.guestInsns += 1;
        } else {
            a.cmpri(Acc, static_cast<std::int32_t>(rng.below(1 << 20)));
            a.jcc(static_cast<gx86::Cond>(rng.below(6)), next);
            info.guestInsns += 2;
        }
        a.bind(next);
    }

    // Epilogue: print four checksum-derived letters, exit with the
    // checksum.
    a.cvtfi(FpAcc, FpAcc);
    a.add(Acc, FpAcc);
    a.xor_(Acc, Acc2);
    for (std::uint8_t k = 0; k < 4; ++k) {
        a.movrr(1, Acc);
        a.shri(1, static_cast<std::uint8_t>(4 * k));
        a.andi(1, 15);
        a.addi(1, 'a');
        a.movri(0, 1);
        a.syscall();
    }
    a.movrr(1, Acc);
    a.movri(0, 0);
    a.syscall();

    ColdImage out{a.finish("main"), info};
    out.info.textBytes = out.image.text.size();
    out.info.maxExecsPerBlock = ColdThreads;
    return out;
}

} // namespace risotto::perfbench
