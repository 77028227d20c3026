#include "sim/stats.hh"

#include <cmath>
#include <sstream>

#include "sim/logging.hh"

namespace sgcn
{

std::string
StatSet::dump(const std::string &indent) const
{
    std::ostringstream os;
    for (const auto &[name, value] : values)
        os << indent << name << " = " << value << "\n";
    return os.str();
}

double
geomean(const std::vector<double> &values)
{
    SGCN_ASSERT(!values.empty());
    double log_sum = 0.0;
    for (double value : values) {
        SGCN_ASSERT(value > 0.0, "geomean needs positive values");
        log_sum += std::log(value);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace sgcn
