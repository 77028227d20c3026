#include "sim/fault/fault.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "sim/rng.hh"

namespace sgcn
{

namespace
{

/** Split @p text on @p sep, keeping empty fields. */
std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string::size_type start = 0;
    while (true) {
        const auto pos = text.find(sep, start);
        out.push_back(text.substr(start, pos - start));
        if (pos == std::string::npos)
            break;
        start = pos + 1;
    }
    return out;
}

/** Parse a full-string non-negative integer; false on junk. */
bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return true;
}

/** Parse a full-string probability in [0, 1]; false on junk. */
bool
parseProb(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != nullptr && *end == '\0' && out >= 0.0 && out <= 1.0;
}

/** Parse "chip<C>"; false on junk. */
bool
parseChip(const std::string &text, unsigned &out)
{
    if (text.rfind("chip", 0) != 0)
        return false;
    std::uint64_t value = 0;
    if (!parseUint(text.substr(4), value) || value > 0xffffu)
        return false;
    out = static_cast<unsigned>(value);
    return true;
}

/** Parse "layer<L>"; false on junk. */
bool
parseLayer(const std::string &text, unsigned &out)
{
    if (text.rfind("layer", 0) != 0)
        return false;
    std::uint64_t value = 0;
    if (!parseUint(text.substr(5), value) || value >= kFaultAnyLayer)
        return false;
    out = static_cast<unsigned>(value);
    return true;
}

SgcnError
clauseError(const std::string &clause, const char *what)
{
    return makeError(ErrorCode::ParseError, "bad fault clause '",
                     clause, "': ", what,
                     " (grammar: link-degrade:chip<C>:<p>, "
                     "chip-stall:chip<C>:<cycles>[@layer<L>], "
                     "chip-fail:chip<C>[@layer<L>], dram-retry:<p>, "
                     "seed:<n>)");
}

} // namespace

Expected<FaultPlan>
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    if (spec.empty())
        return plan;
    for (const std::string &clause : splitOn(spec, ',')) {
        // Split off an optional "@layer<L>" suffix first, then the
        // colon-separated head.
        std::string body = clause;
        unsigned layer = kFaultAnyLayer;
        const auto at = clause.find('@');
        if (at != std::string::npos) {
            if (!parseLayer(clause.substr(at + 1), layer))
                return clauseError(clause, "bad @layer suffix");
            body = clause.substr(0, at);
        }
        const std::vector<std::string> fields = splitOn(body, ':');
        const std::string &kind = fields.front();

        FaultSpec fault;
        fault.layer = layer;
        if (kind == "link-degrade") {
            fault.kind = FaultKind::LinkDegrade;
            if (fields.size() != 3 || !parseChip(fields[1], fault.chip))
                return clauseError(clause,
                                   "want link-degrade:chip<C>:<p>");
            if (!parseProb(fields[2], fault.rate))
                return clauseError(clause,
                                   "drop probability must be in [0,1]");
        } else if (kind == "chip-stall") {
            fault.kind = FaultKind::ChipStall;
            std::uint64_t cycles = 0;
            if (fields.size() != 3 ||
                !parseChip(fields[1], fault.chip) ||
                !parseUint(fields[2], cycles)) {
                return clauseError(
                    clause, "want chip-stall:chip<C>:<cycles>");
            }
            fault.stallCycles = cycles;
        } else if (kind == "chip-fail") {
            fault.kind = FaultKind::ChipFail;
            if (fields.size() != 2 || !parseChip(fields[1], fault.chip))
                return clauseError(clause,
                                   "want chip-fail:chip<C>[@layer<L>]");
            if (fault.layer == kFaultAnyLayer)
                fault.layer = 1;
        } else if (kind == "dram-retry") {
            fault.kind = FaultKind::DramRetry;
            if (fields.size() != 2 || !parseProb(fields[1], fault.rate))
                return clauseError(clause, "want dram-retry:<p>");
            if (fault.layer != kFaultAnyLayer)
                return clauseError(clause,
                                   "dram-retry takes no @layer");
        } else if (kind == "seed") {
            std::uint64_t seed = 0;
            if (fields.size() != 2 || !parseUint(fields[1], seed))
                return clauseError(clause, "want seed:<n>");
            plan.seed = seed;
            continue;
        } else {
            return clauseError(clause, "unknown fault kind");
        }
        plan.faults.push_back(fault);
    }
    if (plan.faults.empty())
        return makeError(ErrorCode::ParseError, "fault spec '", spec,
                         "' names a seed but no faults");
    return plan;
}

std::string
FaultPlan::canonical() const
{
    if (faults.empty())
        return "";
    std::ostringstream os;
    for (const FaultSpec &fault : faults) {
        if (os.tellp() > 0)
            os << ',';
        os << faultKindName(fault.kind);
        switch (fault.kind) {
          case FaultKind::LinkDegrade:
            os << ":chip" << fault.chip << ':' << fault.rate;
            break;
          case FaultKind::ChipStall:
            os << ":chip" << fault.chip << ':' << fault.stallCycles;
            break;
          case FaultKind::ChipFail:
            os << ":chip" << fault.chip;
            break;
          case FaultKind::DramRetry:
            os << ':' << fault.rate;
            break;
        }
        if (fault.layer != kFaultAnyLayer &&
            fault.kind != FaultKind::DramRetry) {
            os << "@layer" << fault.layer;
        }
    }
    os << ",seed:" << seed;
    return os.str();
}

Status
FaultPlan::validate(unsigned chips, unsigned layers) const
{
    for (const FaultSpec &fault : faults) {
        if (fault.kind == FaultKind::DramRetry)
            continue;
        if (chips <= 1) {
            return makeError(
                ErrorCode::InvalidArgument, "fault '",
                faultKindName(fault.kind), ":chip", fault.chip,
                "' targets a chip but the run is monolithic "
                "(need --chips > 1)");
        }
        if (fault.chip >= chips) {
            return makeError(ErrorCode::InvalidArgument, "fault '",
                             faultKindName(fault.kind), ":chip",
                             fault.chip, "' targets chip ", fault.chip,
                             " but the run has chips 0..", chips - 1);
        }
        // A layer past the depth would never fire, leaving the run
        // fault-free while the banner echoes the clause as armed.
        if (fault.layer != kFaultAnyLayer && fault.layer >= layers) {
            return makeError(ErrorCode::InvalidArgument, "fault '",
                             faultKindName(fault.kind), ":chip",
                             fault.chip, "@layer", fault.layer,
                             "' targets layer ", fault.layer,
                             " but the network has layers 0..",
                             layers - 1);
        }
    }
    return Status::success();
}

double
FaultPlan::dramRetryProb() const
{
    double prob = 0.0;
    for (const FaultSpec &fault : faults) {
        if (fault.kind == FaultKind::DramRetry)
            prob = std::max(prob, fault.rate);
    }
    return prob;
}

double
FaultPlan::linkDegradeProb(unsigned chip) const
{
    double prob = 0.0;
    for (const FaultSpec &fault : faults) {
        if (fault.kind == FaultKind::LinkDegrade &&
            fault.chip == chip) {
            prob = std::max(prob, fault.rate);
        }
    }
    return prob;
}

Cycle
FaultPlan::chipStall(unsigned chip, unsigned arch_layer) const
{
    Cycle stall = 0;
    for (const FaultSpec &fault : faults) {
        if (fault.kind == FaultKind::ChipStall && fault.chip == chip &&
            (fault.layer == kFaultAnyLayer ||
             fault.layer == arch_layer)) {
            stall += fault.stallCycles;
        }
    }
    return stall;
}

bool
FaultPlan::failsAt(unsigned chip, unsigned arch_layer) const
{
    for (const FaultSpec &fault : faults) {
        if (fault.kind == FaultKind::ChipFail && fault.chip == chip &&
            fault.layer <= arch_layer) {
            return true;
        }
    }
    return false;
}

bool
FaultPlan::hasChipFailure() const
{
    for (const FaultSpec &fault : faults) {
        if (fault.kind == FaultKind::ChipFail)
            return true;
    }
    return false;
}

double
FaultInjector::hashUniform(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t counter)
{
    // Three SplitMix64 steps over a copied state: a pure function of
    // the inputs, so callers never share mutable RNG state.
    std::uint64_t x = seed;
    Rng::splitMix64(x);
    x ^= stream;
    Rng::splitMix64(x);
    x ^= counter;
    const std::uint64_t z = Rng::splitMix64(x);
    return (z >> 11) * 0x1.0p-53;
}

std::uint64_t
FaultInjector::deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t x = seed;
    Rng::splitMix64(x);
    x ^= ~stream;
    return Rng::splitMix64(x);
}

Expected<DegradedMode>
parseDegradedMode(const std::string &name)
{
    if (name == "repartition")
        return DegradedMode::Repartition;
    if (name == "fail-fast")
        return DegradedMode::FailFast;
    return makeError(ErrorCode::ParseError, "unknown degraded mode '",
                     name, "' (expected repartition|fail-fast)");
}

} // namespace sgcn
