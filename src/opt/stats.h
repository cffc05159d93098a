// Runtime statistics for dynamic query optimization. "A DSMS keeps a
// plethora of runtime statistics, e.g., on stream rates and selectivities"
// (Section 1). The catalog is fed either from StatsTaps on running plans
// (opt/stats_tap.h) or from prior knowledge, and is consumed by the cost
// model.

#ifndef GENMIG_OPT_STATS_H_
#define GENMIG_OPT_STATS_H_

#include <map>
#include <string>

namespace genmig {

/// Statistics of one named input stream.
struct SourceStats {
  /// Elements per time unit.
  double rate = 0.0;
  /// Number of distinct values per column (used for equi-join and duplicate
  /// selectivities); missing columns default to kDefaultDistinct.
  std::map<size_t, double> distinct_per_column;

  static constexpr double kDefaultDistinct = 1000.0;

  double DistinctOf(size_t column) const {
    auto it = distinct_per_column.find(column);
    return it == distinct_per_column.end() ? kDefaultDistinct : it->second;
  }
};

/// Named-stream statistics catalog.
class StatsCatalog {
 public:
  void SetSource(const std::string& name, SourceStats stats) {
    sources_[name] = std::move(stats);
  }

  /// Convenience: rate + uniform distinct count for column 0.
  void SetSource(const std::string& name, double rate, double distinct0) {
    SourceStats s;
    s.rate = rate;
    s.distinct_per_column[0] = distinct0;
    sources_[name] = std::move(s);
  }

  bool Has(const std::string& name) const { return sources_.count(name) > 0; }

  const SourceStats& Get(const std::string& name) const;

  /// All registered sources (used to overlay calibrated rates, see
  /// opt/calibrator.h).
  const std::map<std::string, SourceStats>& sources() const {
    return sources_;
  }

  /// Default selectivity of a non-equi predicate.
  static constexpr double kDefaultSelectivity = 0.1;

 private:
  std::map<std::string, SourceStats> sources_;
};

}  // namespace genmig

#endif  // GENMIG_OPT_STATS_H_
