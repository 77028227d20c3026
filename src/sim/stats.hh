/**
 * @file
 * Lightweight statistics: named scalar counters and small math
 * helpers (geometric mean) used throughout the simulator and the
 * benchmark harnesses.
 */

#ifndef SGCN_SIM_STATS_HH
#define SGCN_SIM_STATS_HH

#include <map>
#include <string>
#include <vector>

namespace sgcn
{

/**
 * A set of named scalar statistics.
 *
 * Components expose their counters through a StatSet so benches can
 * dump everything uniformly. Lookup creates missing entries at zero.
 */
class StatSet
{
  public:
    /** Mutable access; creates the stat at zero if absent. */
    double &operator[](const std::string &name) { return values[name]; }

    /** All entries in name order. */
    const std::map<std::string, double> &entries() const
    {
        return values;
    }

    /** Render as "name = value" lines with the given indent. */
    std::string dump(const std::string &indent = "") const;

  private:
    std::map<std::string, double> values;
};

/** Geometric mean of a vector of positive values. */
double geomean(const std::vector<double> &values);

} // namespace sgcn

#endif // SGCN_SIM_STATS_HH
