/**
 * @file
 * VRange — the abstract value domain of the mw32 abstract
 * interpreter: a reduced product of an unsigned interval and a
 * known-bits (tristate) lattice over 32-bit machine words.
 *
 *   interval    [lo, hi]      unsigned, inclusive, non-wrapping
 *   known bits  (mask, val)   bit i of the value equals bit i of
 *                             `val` wherever bit i of `mask` is set
 *
 * A concrete value v is represented iff
 *     lo <= v <= hi   and   (v & mask) == val.
 *
 * The two components are kept mutually reduced: leading bits shared
 * by lo and hi become known bits, and the known bits clamp the
 * interval to the smallest/largest consistent values. An
 * unsatisfiable combination collapses to the explicit empty range.
 *
 * All transfer functions are SOUND over-approximations of the
 * interpreter's semantics (interpreter.cc is the ground truth): for
 * any concrete inputs drawn from the argument ranges, the concrete
 * result lies in the returned range. Precision is best-effort —
 * wrap-around in add/sub falls back to top, shifts by non-constant
 * amounts keep only trailing zero bits, and signed division is only
 * folded when both operands stay in the non-negative half.
 *
 * validation_absint_crosscheck enforces the soundness contract
 * dynamically: every register value observed while stepping the
 * interpreter must be contained in the static range computed for
 * that program point.
 */

#ifndef MEMWALL_ANALYSIS_VRANGE_HH
#define MEMWALL_ANALYSIS_VRANGE_HH

#include <cstdint>
#include <string>

namespace memwall {

/** Interval x known-bits abstract value over uint32. */
struct VRange
{
    std::uint32_t lo = 0;
    std::uint32_t hi = 0xffffffffu;
    std::uint32_t known_mask = 0;  ///< 1 = bit value is known
    std::uint32_t known_val = 0;   ///< known bit values (subset of mask)
    bool empty_flag = false;       ///< no concrete value satisfies

    // ---- Constructors --------------------------------------------
    static VRange top() { return VRange{}; }
    static VRange empty()
    {
        VRange r;
        r.empty_flag = true;
        r.lo = 1;
        r.hi = 0;
        return r;
    }
    static VRange constant(std::uint32_t v)
    {
        VRange r;
        r.lo = r.hi = v;
        r.known_mask = 0xffffffffu;
        r.known_val = v;
        return r;
    }
    /** [lo, hi], reduced against trivially-derivable bits. */
    static VRange interval(std::uint32_t lo, std::uint32_t hi);
    /** Bits in @p mask equal @p val; interval derived. */
    static VRange bits(std::uint32_t mask, std::uint32_t val);

    // ---- Queries -------------------------------------------------
    bool isEmpty() const { return empty_flag; }
    bool isTop() const
    {
        return !empty_flag && lo == 0 && hi == 0xffffffffu &&
               known_mask == 0;
    }
    bool isConstant() const { return !empty_flag && lo == hi; }
    bool contains(std::uint32_t v) const
    {
        return !empty_flag && lo <= v && v <= hi &&
               (v & known_mask) == known_val;
    }
    bool operator==(const VRange &o) const
    {
        return empty_flag == o.empty_flag &&
               (empty_flag ||
                (lo == o.lo && hi == o.hi &&
                 known_mask == o.known_mask &&
                 known_val == o.known_val));
    }
    /** Signed lower bound of the range (as int32). */
    std::int32_t smin() const;
    /** Signed upper bound of the range (as int32). */
    std::int32_t smax() const;
    /** "[0x10, 0x1f] &fffffffc=10" style debug/tool rendering. */
    std::string str() const;

    // ---- Lattice -------------------------------------------------
    /** Least upper bound (set union, over-approximated). */
    static VRange join(const VRange &a, const VRange &b);
    /** Greatest lower bound (set intersection, exact or empty). */
    static VRange meet(const VRange &a, const VRange &b);
    /** Widening: extrapolate unstable bounds of @p next past
     * @p prev straight to the domain extremes so loop fixpoints
     * terminate; known bits degrade to the agreeing subset. */
    static VRange widen(const VRange &prev, const VRange &next);

    // ---- Transfer functions (match interpreter.cc) ---------------
    static VRange add(const VRange &a, const VRange &b);
    static VRange sub(const VRange &a, const VRange &b);
    static VRange and_(const VRange &a, const VRange &b);
    static VRange or_(const VRange &a, const VRange &b);
    static VRange xor_(const VRange &a, const VRange &b);
    /** a << (b & 31) */
    static VRange shl(const VRange &a, const VRange &b);
    /** a >> (b & 31), logical */
    static VRange shr(const VRange &a, const VRange &b);
    /** a >> (b & 31), arithmetic */
    static VRange sar(const VRange &a, const VRange &b);
    static VRange mul(const VRange &a, const VRange &b);
    /** Signed divide; zero divisors trap and produce no value, so
     * they are excluded from the result. */
    static VRange div(const VRange &a, const VRange &b);
    static VRange rem(const VRange &a, const VRange &b);
    /** (sa < sb) ? 1 : 0 */
    static VRange slt(const VRange &a, const VRange &b);
    /** (a < b) ? 1 : 0 */
    static VRange sltu(const VRange &a, const VRange &b);

    /** Re-establish the reduced-product invariants. */
    VRange reduced() const;
};

} // namespace memwall

#endif // MEMWALL_ANALYSIS_VRANGE_HH
