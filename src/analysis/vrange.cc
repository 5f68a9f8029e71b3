#include "analysis/vrange.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

namespace memwall {

namespace {

constexpr std::uint64_t kWrap = std::uint64_t{1} << 32;

/** Mask of the @p n lowest bits (n in [0, 32]). */
std::uint32_t
lowMask(unsigned n)
{
    return n >= 32 ? 0xffffffffu : (std::uint32_t{1} << n) - 1;
}

/** Number of consecutive low bits known in @p r. */
unsigned
trailingKnown(const VRange &r)
{
    return static_cast<unsigned>(std::countr_one(r.known_mask));
}

/** Number of consecutive low bits known to be ZERO in @p r. */
unsigned
trailingZeros(const VRange &r)
{
    return static_cast<unsigned>(
        std::countr_one(r.known_mask & ~r.known_val));
}

/**
 * Range of effective shift amounts (b & 31). Exact when the whole
 * interval shares one "lap" of the 5-bit mask or the low 5 bits are
 * all known; conservative [0, 31] otherwise.
 */
void
shiftAmounts(const VRange &b, unsigned &slo, unsigned &shi)
{
    if ((b.known_mask & 31u) == 31u) {
        slo = shi = b.known_val & 31u;
        return;
    }
    if (b.hi - b.lo < 32 && (b.lo & ~31u) == (b.hi & ~31u)) {
        slo = b.lo & 31u;
        shi = b.hi & 31u;
        return;
    }
    slo = 0;
    shi = 31;
}

/** Interpreter's div, wrap-safe (INT_MIN / -1 wraps, divisor != 0). */
std::uint32_t
concreteDiv(std::uint32_t a, std::uint32_t b)
{
    return b == 0xffffffffu
               ? std::uint32_t{0} - a
               : static_cast<std::uint32_t>(
                     static_cast<std::int32_t>(a) /
                     static_cast<std::int32_t>(b));
}

std::uint32_t
concreteRem(std::uint32_t a, std::uint32_t b)
{
    return b == 0xffffffffu
               ? 0u
               : static_cast<std::uint32_t>(
                     static_cast<std::int32_t>(a) %
                     static_cast<std::int32_t>(b));
}

} // namespace

VRange
VRange::reduced() const
{
    VRange r = *this;
    if (r.empty_flag)
        return empty();
    r.known_val &= r.known_mask;
    // The two components refine each other; a couple of rounds
    // reaches the (finite-height) local fixpoint.
    for (int round = 0; round < 4; ++round) {
        if (r.lo > r.hi)
            return empty();
        // Interval -> bits: bits above the highest differing bit of
        // lo and hi are fixed across the whole interval.
        const std::uint32_t diff = r.lo ^ r.hi;
        const std::uint32_t lead =
            diff ? ~lowMask(static_cast<unsigned>(
                       std::bit_width(diff)))
                 : 0xffffffffu;
        const std::uint32_t overlap = r.known_mask & lead;
        if ((r.known_val ^ (r.lo & lead)) & overlap)
            return empty();
        // Bits -> interval: clamp to the smallest/largest value any
        // assignment of the unknown bits can reach.
        const std::uint32_t nmask = r.known_mask | lead;
        const std::uint32_t nval = r.known_val | (r.lo & lead);
        const std::uint32_t bmin = nval;
        const std::uint32_t bmax = nval | ~nmask;
        bool changed = nmask != r.known_mask;
        r.known_mask = nmask;
        r.known_val = nval;
        if (bmin > r.lo) {
            r.lo = bmin;
            changed = true;
        }
        if (bmax < r.hi) {
            r.hi = bmax;
            changed = true;
        }
        if (!changed)
            break;
    }
    if (r.lo > r.hi)
        return empty();
    return r;
}

VRange
VRange::interval(std::uint32_t lo, std::uint32_t hi)
{
    VRange r;
    r.lo = lo;
    r.hi = hi;
    r.known_mask = 0;
    r.known_val = 0;
    return r.reduced();
}

VRange
VRange::bits(std::uint32_t mask, std::uint32_t val)
{
    VRange r;
    r.known_mask = mask;
    r.known_val = val & mask;
    return r.reduced();
}

std::int32_t
VRange::smin() const
{
    if (hi < 0x80000000u || lo >= 0x80000000u)
        return static_cast<std::int32_t>(lo);
    return std::numeric_limits<std::int32_t>::min();
}

std::int32_t
VRange::smax() const
{
    if (hi < 0x80000000u || lo >= 0x80000000u)
        return static_cast<std::int32_t>(hi);
    return std::numeric_limits<std::int32_t>::max();
}

std::string
VRange::str() const
{
    if (empty_flag)
        return "empty";
    if (isTop())
        return "top";
    std::ostringstream os;
    if (lo == hi) {
        os << "0x" << std::hex << lo;
        return os.str();
    }
    os << "[0x" << std::hex << lo << ",0x" << hi << "]";
    // Bits that the interval alone does not already pin down.
    const std::uint32_t diff = lo ^ hi;
    const std::uint32_t lead =
        diff ? ~lowMask(static_cast<unsigned>(std::bit_width(diff)))
             : 0xffffffffu;
    if (known_mask & ~lead)
        os << " bits(&0x" << (known_mask & ~lead) << "=0x"
           << (known_val & ~lead) << ")";
    return os.str();
}

VRange
VRange::join(const VRange &a, const VRange &b)
{
    if (a.empty_flag)
        return b;
    if (b.empty_flag)
        return a;
    VRange r;
    r.lo = std::min(a.lo, b.lo);
    r.hi = std::max(a.hi, b.hi);
    r.known_mask = a.known_mask & b.known_mask &
                   ~(a.known_val ^ b.known_val);
    r.known_val = a.known_val & r.known_mask;
    return r.reduced();
}

VRange
VRange::meet(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    if (a.known_mask & b.known_mask & (a.known_val ^ b.known_val))
        return empty();
    VRange r;
    r.lo = std::max(a.lo, b.lo);
    r.hi = std::min(a.hi, b.hi);
    r.known_mask = a.known_mask | b.known_mask;
    r.known_val = a.known_val | b.known_val;
    return r.reduced();
}

VRange
VRange::widen(const VRange &prev, const VRange &next)
{
    if (prev.empty_flag)
        return next;
    if (next.empty_flag)
        return prev;
    const VRange j = join(prev, next);
    VRange r = j;
    if (j.lo < prev.lo)
        r.lo = 0;
    if (j.hi > prev.hi)
        r.hi = 0xffffffffu;
    // Known bits can only shrink across widening steps (the join
    // already intersects them), so termination is preserved.
    return r.reduced();
}

VRange
VRange::add(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    VRange r;
    const std::uint64_t lo64 =
        std::uint64_t{a.lo} + std::uint64_t{b.lo};
    const std::uint64_t hi64 =
        std::uint64_t{a.hi} + std::uint64_t{b.hi};
    if (hi64 < kWrap) {
        r.lo = static_cast<std::uint32_t>(lo64);
        r.hi = static_cast<std::uint32_t>(hi64);
    } else if (lo64 >= kWrap) {
        r.lo = static_cast<std::uint32_t>(lo64 - kWrap);
        r.hi = static_cast<std::uint32_t>(hi64 - kWrap);
    }  // else: some sums wrap and some don't -> interval stays top
    const unsigned t =
        std::min(trailingKnown(a), trailingKnown(b));
    if (t > 0) {
        r.known_mask = lowMask(t);
        r.known_val = (a.known_val + b.known_val) & r.known_mask;
    }
    return r.reduced();
}

VRange
VRange::sub(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    VRange r;
    const std::int64_t lo64 =
        std::int64_t{a.lo} - std::int64_t{b.hi};
    const std::int64_t hi64 =
        std::int64_t{a.hi} - std::int64_t{b.lo};
    if (lo64 >= 0) {
        r.lo = static_cast<std::uint32_t>(lo64);
        r.hi = static_cast<std::uint32_t>(hi64);
    } else if (hi64 < 0) {
        r.lo = static_cast<std::uint32_t>(
            lo64 + static_cast<std::int64_t>(kWrap));
        r.hi = static_cast<std::uint32_t>(
            hi64 + static_cast<std::int64_t>(kWrap));
    }  // else mixed sign -> top interval
    const unsigned t =
        std::min(trailingKnown(a), trailingKnown(b));
    if (t > 0) {
        r.known_mask = lowMask(t);
        r.known_val = (a.known_val - b.known_val) & r.known_mask;
    }
    return r.reduced();
}

VRange
VRange::and_(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    VRange r;
    const std::uint32_t known0 = (a.known_mask & ~a.known_val) |
                                 (b.known_mask & ~b.known_val);
    const std::uint32_t known1 =
        (a.known_mask & a.known_val) & (b.known_mask & b.known_val);
    r.known_mask = known0 | known1;
    r.known_val = known1;
    r.lo = 0;
    r.hi = std::min(a.hi, b.hi);
    return r.reduced();
}

VRange
VRange::or_(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    VRange r;
    const std::uint32_t known1 =
        (a.known_mask & a.known_val) | (b.known_mask & b.known_val);
    const std::uint32_t known0 = (a.known_mask & ~a.known_val) &
                                 (b.known_mask & ~b.known_val);
    r.known_mask = known0 | known1;
    r.known_val = known1;
    r.lo = std::max(a.lo, b.lo);
    r.hi = lowMask(static_cast<unsigned>(
        std::bit_width(a.hi | b.hi)));
    return r.reduced();
}

VRange
VRange::xor_(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    VRange r;
    r.known_mask = a.known_mask & b.known_mask;
    r.known_val = (a.known_val ^ b.known_val) & r.known_mask;
    r.lo = 0;
    r.hi = lowMask(static_cast<unsigned>(
        std::bit_width(a.hi | b.hi)));
    return r.reduced();
}

VRange
VRange::shl(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    unsigned slo = 0, shi = 31;
    shiftAmounts(b, slo, shi);
    VRange r;
    const std::uint64_t hi64 = std::uint64_t{a.hi} << shi;
    if (hi64 < kWrap) {
        r.lo = a.lo << slo;
        r.hi = static_cast<std::uint32_t>(hi64);
    }
    if (slo == shi) {
        // Known bits shift exactly; the vacated low bits are zero.
        r.known_mask = (a.known_mask << slo) | lowMask(slo);
        r.known_val = a.known_val << slo;
    } else {
        // Trailing zeros survive any shift in [slo, shi].
        const unsigned tz =
            std::min(32u, trailingZeros(a) + slo);
        r.known_mask = lowMask(tz);
        r.known_val = 0;
    }
    return r.reduced();
}

VRange
VRange::shr(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    unsigned slo = 0, shi = 31;
    shiftAmounts(b, slo, shi);
    VRange r;
    r.lo = a.lo >> shi;
    r.hi = a.hi >> slo;
    if (slo == shi) {
        r.known_mask = (a.known_mask >> slo) |
                       (slo ? ~(0xffffffffu >> slo) : 0);
        r.known_val = a.known_val >> slo;
    } else if (slo > 0) {
        r.known_mask = ~(0xffffffffu >> slo);  // high bits zero
        r.known_val = 0;
    }
    return r.reduced();
}

VRange
VRange::sar(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    unsigned slo = 0, shi = 31;
    shiftAmounts(b, slo, shi);
    auto sraU = [](std::uint32_t v, unsigned s) {
        return static_cast<std::uint32_t>(
            static_cast<std::int32_t>(v) >> s);
    };
    // Split on the sign: within either half, sra is monotone in the
    // value; the shift amount moves negatives up and positives down.
    const VRange pos = meet(a, interval(0, 0x7fffffffu));
    const VRange neg = meet(a, interval(0x80000000u, 0xffffffffu));
    VRange out = empty();
    if (!pos.isEmpty())
        out = join(out, interval(pos.lo >> shi, pos.hi >> slo));
    if (!neg.isEmpty())
        out = join(out,
                   interval(sraU(neg.lo, slo), sraU(neg.hi, shi)));
    if (slo == shi && (a.known_mask & 0x80000000u)) {
        const std::uint32_t fill =
            slo ? ~(0xffffffffu >> slo) : 0;
        VRange bitsr;
        bitsr.known_mask = (a.known_mask >> slo) | fill;
        bitsr.known_val =
            (a.known_val >> slo) |
            ((a.known_val & 0x80000000u) ? fill : 0);
        out = meet(out, bitsr.reduced());
    }
    return out.reduced();
}

VRange
VRange::mul(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    if (a.isConstant() && b.isConstant())
        return constant(a.lo * b.lo);
    VRange r;
    const std::uint64_t hi64 = std::uint64_t{a.hi} * b.hi;
    if (hi64 < kWrap) {
        r.lo = a.lo * b.lo;
        r.hi = static_cast<std::uint32_t>(hi64);
    }
    // The product mod 2^t depends only on the operands mod 2^t, and
    // trailing zero counts add.
    const unsigned t =
        std::min(trailingKnown(a), trailingKnown(b));
    const unsigned tz =
        std::min(32u, trailingZeros(a) + trailingZeros(b));
    r.known_mask = lowMask(t) | lowMask(tz);
    r.known_val = (a.known_val * b.known_val) & lowMask(t);
    return r.reduced();
}

VRange
VRange::div(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    // A zero divisor traps before writing rd; the surviving
    // executions draw the divisor from b \ {0}.
    VRange bd = b;
    if (bd.isConstant() && bd.lo == 0)
        return empty();
    if (bd.lo == 0)
        bd = meet(bd, interval(1, 0xffffffffu));
    if (bd.isEmpty())
        return empty();
    if (a.isConstant() && bd.isConstant())
        return constant(concreteDiv(a.lo, bd.lo));
    // Non-negative / positive: plain unsigned interval division.
    if (a.hi < 0x80000000u && bd.hi < 0x80000000u)
        return interval(a.lo / bd.hi, a.hi / bd.lo);
    return top();
}

VRange
VRange::rem(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    VRange bd = b;
    if (bd.isConstant() && bd.lo == 0)
        return empty();
    if (bd.lo == 0)
        bd = meet(bd, interval(1, 0xffffffffu));
    if (bd.isEmpty())
        return empty();
    if (a.isConstant() && bd.isConstant())
        return constant(concreteRem(a.lo, bd.lo));
    if (a.hi < 0x80000000u && bd.hi < 0x80000000u)
        return interval(0, std::min(a.hi, bd.hi - 1));
    return top();
}

VRange
VRange::slt(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    if (a.smax() < b.smin())
        return constant(1);
    if (a.smin() >= b.smax())
        return constant(0);
    return interval(0, 1);
}

VRange
VRange::sltu(const VRange &a, const VRange &b)
{
    if (a.empty_flag || b.empty_flag)
        return empty();
    if (a.hi < b.lo)
        return constant(1);
    if (a.lo >= b.hi)
        return constant(0);
    return interval(0, 1);
}

} // namespace memwall
