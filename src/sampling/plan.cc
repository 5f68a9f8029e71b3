#include "sampling/plan.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "checkpoint/codec.hh"

namespace memwall {

bool
SamplingPlan::tryValidate(std::string *why) const
{
    const auto fail = [&](const std::string &reason) {
        if (why != nullptr)
            *why = "sampling plan: " + reason;
        return false;
    };
    if (unit_refs == 0)
        return fail("unit length U must be positive");
    if (period_units == 0)
        return fail("period k must be positive");
    // k*U can overflow on hostile input; compare via division.
    const std::uint64_t warm_units =
        warmup_refs / unit_refs + (warmup_refs % unit_refs != 0);
    if (scheme == SampleScheme::Systematic &&
        warm_units > period_units - 1)
        return fail("period k*U cannot fit the detail unit plus W = " +
                    std::to_string(warmup_refs) + " warmup refs");
    if (scheme == SampleScheme::Stratified && units == 0)
        return fail("stratified mode needs n >= 1 units");
    if (!(level > 0.5) || !(level < 1.0))
        return fail("confidence level must be in (0.5, 1)");
    if (!(target_ci >= 0.0))
        return fail("target ci must be >= 0");
    if (max_units < units)
        return fail("max units below the minimum");
    return true;
}

void
SamplingPlan::validate() const
{
    std::string why;
    if (!tryValidate(&why))
        MW_FATAL(why);
}

std::string
SamplingPlan::describe() const
{
    std::ostringstream os;
    os << (scheme == SampleScheme::Systematic ? "systematic"
                                              : "stratified")
       << " U=" << unit_refs << " W=" << warmup_refs;
    if (scheme == SampleScheme::Systematic)
        os << " k=" << period_units;
    else
        os << " n=" << units;
    if (adaptive())
        os << " target-ci=" << target_ci << " max=" << max_units;
    os << " level=" << level;
    return os.str();
}

bool
tryParseSamplingPlan(const std::string &text, SamplingPlan &plan,
                     std::string *why)
{
    const auto fail = [&](const std::string &reason) {
        if (why != nullptr)
            *why = "--sample: " + reason;
        return false;
    };
    plan = SamplingPlan{};
    if (text.empty())
        return plan.tryValidate(why);

    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string item =
            comma == std::string::npos
                ? text.substr(start)
                : text.substr(start, comma - start);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == item.size())
            return fail("malformed item '" + item +
                        "' (expected key=value)");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);

        char *end = nullptr;
        bool bad_number = false;
        const auto u64 = [&]() -> std::uint64_t {
            const std::uint64_t v =
                std::strtoull(value.c_str(), &end, 0);
            if (end == value.c_str() || *end != '\0')
                bad_number = true;
            return v;
        };
        const auto f64 = [&]() -> double {
            const double v = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                bad_number = true;
            return v;
        };

        if (key == "U")
            plan.unit_refs = u64();
        else if (key == "W")
            plan.warmup_refs = u64();
        else if (key == "k")
            plan.period_units = u64();
        else if (key == "n")
            plan.units = u64();
        else if (key == "max")
            plan.max_units = u64();
        else if (key == "seed")
            plan.seed = u64();
        else if (key == "ci")
            plan.target_ci = f64();
        else if (key == "level")
            plan.level = f64();
        else if (key == "mode") {
            if (value == "sys" || value == "systematic")
                plan.scheme = SampleScheme::Systematic;
            else if (value == "strat" || value == "stratified")
                plan.scheme = SampleScheme::Stratified;
            else
                return fail("unknown mode '" + value +
                            "' (want sys|strat)");
        } else {
            return fail("unknown key '" + key + "'");
        }
        if (bad_number)
            return fail("invalid number '" + value + "' for key '" +
                        key + "'");

        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (plan.max_units < plan.units)
        plan.max_units = plan.units;
    return plan.tryValidate(why);
}

SamplingPlan
parseSamplingPlan(const std::string &text)
{
    SamplingPlan plan;
    std::string why;
    if (!tryParseSamplingPlan(text, plan, &why))
        MW_FATAL(why);
    return plan;
}

SystematicCursor::SystematicCursor(const SamplingPlan &plan)
    : unit_(plan.unit_refs), warm_(plan.warmup_refs),
      ff_(plan.period_units * plan.unit_refs - plan.unit_refs -
          plan.warmup_refs)
{
    plan.validate();
    MW_ASSERT(plan.scheme == SampleScheme::Systematic,
              "systematic cursor on a stratified plan");
    if (warm_ > 0)
        enterPhase(SampleMode::Warm, warm_);
    else
        enterPhase(SampleMode::Detail, unit_);
}

void
SystematicCursor::enterPhase(SampleMode mode, std::uint64_t len)
{
    mode_ = mode;
    remaining_ = len;
}

void
SystematicCursor::nextPhase()
{
    switch (mode_) {
    case SampleMode::Warm:
        enterPhase(SampleMode::Detail, unit_);
        break;
    case SampleMode::Detail:
        ++units_done_;
        unit_completed_ = true;
        // Skip zero-length phases so mode() is always consumable.
        if (ff_ > 0)
            enterPhase(SampleMode::FastForward, ff_);
        else if (warm_ > 0)
            enterPhase(SampleMode::Warm, warm_);
        else
            enterPhase(SampleMode::Detail, unit_);
        break;
    case SampleMode::FastForward:
        if (warm_ > 0)
            enterPhase(SampleMode::Warm, warm_);
        else
            enterPhase(SampleMode::Detail, unit_);
        break;
    }
}

std::uint64_t
samplingPlanHash(const SamplingPlan &plan)
{
    using ckpt::fnvMix;
    auto mixDouble = [](std::uint64_t h, double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        return fnvMix(h, bits);
    };
    std::uint64_t h = ckpt::fnv_basis;
    h = fnvMix(h, static_cast<std::uint64_t>(plan.scheme));
    h = fnvMix(h, plan.unit_refs);
    h = fnvMix(h, plan.warmup_refs);
    h = fnvMix(h, plan.period_units);
    h = fnvMix(h, plan.units);
    h = mixDouble(h, plan.target_ci);
    h = fnvMix(h, plan.max_units);
    h = mixDouble(h, plan.level);
    h = fnvMix(h, plan.seed);
    return h;
}

} // namespace memwall
