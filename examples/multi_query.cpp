// Multi-query DSMS: the Dsms facade runs several CQL queries over shared
// input streams, keeps per-stream statistics, and re-optimizes + migrates
// each query automatically when the traffic drifts — the complete loop of
// Section 1 in ~60 lines of user code.
//
//   ./build/examples/multi_query

#include <cstdio>

#include "engine/dsms.h"

using namespace genmig;  // NOLINT: example brevity.

namespace {

/// Sensor readings whose key cardinality collapses at `drift` (e.g. most
/// sensors go offline and a few chatty ones dominate).
MaterializedStream Drifting(size_t count, int64_t period, int64_t before,
                            int64_t after, int64_t drift, uint64_t seed) {
  MaterializedStream out;
  std::mt19937_64 rng(seed);
  int64_t t = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t keys = t < drift ? before : after;
    out.emplace_back(
        Tuple::OfInts(
            {static_cast<int64_t>(rng() % static_cast<uint64_t>(keys))}),
        TimeInterval(Timestamp(t), Timestamp(t + 1)));
    t += period;
  }
  return out;
}

void PrintInfo(const Dsms& dsms, Dsms::QueryId id, const char* name) {
  const Dsms::QueryInfo info = dsms.Info(id);
  std::printf("  %-12s results=%-7zu cost=%-9.1f migrations=%d%s\n", name,
              info.result_count, info.estimated_cost,
              info.migrations_completed,
              info.migration_in_progress ? " (migrating)" : "");
}

}  // namespace

int main() {
  std::printf("=== multi-query DSMS with automatic re-optimization ===\n\n");

  Dsms::Options options;
  options.stats_horizon = 2000;
  options.calibration_period = 2500;  // Re-cost every 2.5 s of app time.
  Dsms dsms(options);

  const int64_t kDrift = 12000;
  dsms.RegisterStream("temp", Schema::OfInts({"sensor"}),
                      Drifting(4500, 10, 400, 25, kDrift, 1));
  dsms.RegisterStream("humid", Schema::OfInts({"sensor"}),
                      Drifting(4500, 10, 400, 25, kDrift, 2));
  dsms.RegisterStream("vibr", Schema::OfInts({"sensor"}),
                      Drifting(4500, 10, 400, 400, kDrift, 3));

  // Three queries sharing the streams.
  auto q_corr = dsms.InstallQuery(
      "SELECT temp.sensor FROM temp [RANGE 2000], humid [RANGE 2000], "
      "vibr [RANGE 2000] WHERE temp.sensor = humid.sensor AND "
      "humid.sensor = vibr.sensor");
  auto q_active = dsms.InstallQuery(
      "SELECT DISTINCT sensor FROM temp [RANGE 1000]");
  auto q_counts = dsms.InstallQuery(
      "SELECT sensor, COUNT(*) FROM vibr [RANGE 1000] GROUP BY sensor");
  GENMIG_CHECK(q_corr.ok() && q_active.ok() && q_counts.ok());

  dsms.RunUntil(Timestamp(kDrift));
  std::printf("t=%.0fs (before drift):\n", kDrift / 1000.0);
  PrintInfo(dsms, q_corr.value(), "correlate");
  PrintInfo(dsms, q_active.value(), "active");
  PrintInfo(dsms, q_counts.value(), "counts");

  dsms.RunToCompletion();
  std::printf("\nend of streams:\n");
  PrintInfo(dsms, q_corr.value(), "correlate");
  PrintInfo(dsms, q_active.value(), "active");
  PrintInfo(dsms, q_counts.value(), "counts");

  const auto stats = dsms.CurrentStats();
  std::printf("\nfinal statistics: temp %.0f distinct, humid %.0f, vibr "
              "%.0f\n",
              stats.Get("temp").DistinctOf(0),
              stats.Get("humid").DistinctOf(0),
              stats.Get("vibr").DistinctOf(0));
  std::printf("the 3-way correlation query was re-optimized and migrated "
              "automatically after the drift (%d migration(s)).\n",
              dsms.Info(q_corr.value()).migrations_completed);
  return 0;
}
