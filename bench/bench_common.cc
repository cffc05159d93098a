#include "bench_common.h"

#include <chrono>

namespace genmig {
namespace bench {

ExperimentResult RunJoinExperiment(const Figure45Config& cfg,
                                   Strategy strategy, int64_t bucket) {
  const auto wall_start = std::chrono::steady_clock::now();

  auto old_plan = BuildJoinTree(JoinShape::LeftDeep(cfg.num_streams),
                                cfg.num_streams, EqOnFirst(),
                                cfg.predicate_cost);
  auto new_plan = BuildJoinTree(JoinShape::RightDeep(cfg.num_streams),
                                cfg.num_streams, EqOnFirst(),
                                cfg.predicate_cost);

  MigrationController controller("ctrl", std::move(old_plan.box));
  CollectorSink sink("sink");
  if (strategy == Strategy::kParallelTrack) {
    sink.SetRelaxedInputOrdering(0);
  }
  controller.ConnectTo(0, &sink, 0);

  // One journal holds the migration phases and the timeline samples; it
  // retains every sample of the run (one per bucket).
  const int64_t horizon =
      static_cast<int64_t>(cfg.elements_per_stream) * cfg.period +
      2 * cfg.window + 2 * bucket;
  const size_t buckets = static_cast<size_t>(horizon / bucket) + 2;
  obs::MetricsRegistry registry;
  obs::EventJournal journal(obs::EventJournal::Options{buckets + 64, ""});
  obs::MigrationTracer tracer(&journal);
  controller.AttachMetricsRecursive(&registry);
  controller.SetTracer(&tracer);
  sink.AttachMetrics(&registry);

  Executor exec;
  std::vector<std::unique_ptr<StatelessChain>> windows;
  const auto streams = MakeStreams(cfg);
  for (int s = 0; s < cfg.num_streams; ++s) {
    const int feed = exec.AddFeed("S" + std::to_string(s),
                                  streams[static_cast<size_t>(s)]);
    // Attached sources stamp a sampled ingress wall-clock onto elements;
    // the sink's e2e histogram is empty without this.
    exec.source(feed)->AttachMetrics(&registry);
    windows.push_back(std::make_unique<StatelessChain>(
        "w" + std::to_string(s), StatelessChain::Window(cfg.window)));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, &controller, s);
    windows.back()->AttachMetrics(&registry);
  }

  ExperimentResult result;
  result.rate_per_bucket.assign(buckets, 0);
  result.bytes_per_bucket.assign(result.rate_per_bucket.size(), 0);
  result.e2e_p99_per_bucket.assign(result.rate_per_bucket.size(), 0.0);

  // One timeline sample per bucket: interval latency quantiles, queue
  // depths and rates over time, exported into trace_json below.
  obs::TimelineSampler sampler(&registry, &journal);
  int64_t last_sampled_bucket = -1;

  sink.set_on_element([&](const StreamElement&) {
    const int64_t t = std::max<int64_t>(exec.current_time().t, 0);
    const size_t b = static_cast<size_t>(t / bucket);
    if (b < result.rate_per_bucket.size()) ++result.rate_per_bucket[b];
  });

  bool was_migrating = false;
  exec.after_step = [&]() {
    const int64_t t = std::max<int64_t>(exec.current_time().t, 0);
    const size_t b = static_cast<size_t>(t / bucket);
    if (b < result.bytes_per_bucket.size()) {
      result.bytes_per_bucket[b] =
          std::max(result.bytes_per_bucket[b], controller.StateBytes());
    }
    const bool migrating = controller.migration_in_progress();
    if (was_migrating && !migrating && result.migration_end < 0) {
      result.migration_end = exec.current_time().t;
    }
    was_migrating = migrating;
    if (static_cast<int64_t>(b) != last_sampled_bucket) {
      last_sampled_bucket = static_cast<int64_t>(b);
      sampler.Sample(Timestamp(t), migrating);
    }
  };

  exec.RunUntil(Timestamp(cfg.migration_start));
  switch (strategy) {
    case Strategy::kNone:
      break;
    case Strategy::kGenMigCoalesce: {
      MigrationController::GenMigOptions opts;
      opts.window = cfg.window;
      controller.StartGenMig(std::move(new_plan.box), opts);
      break;
    }
    case Strategy::kGenMigRefPoint: {
      MigrationController::GenMigOptions opts;
      opts.window = cfg.window;
      opts.variant = MigrationController::GenMigOptions::Variant::kRefPoint;
      controller.StartGenMig(std::move(new_plan.box), opts);
      break;
    }
    case Strategy::kGenMigEndTs: {
      MigrationController::GenMigOptions opts;
      opts.end_timestamp_split = true;
      controller.StartGenMig(std::move(new_plan.box), opts);
      break;
    }
    case Strategy::kParallelTrack:
      controller.StartParallelTrack(std::move(new_plan.box), cfg.window);
      break;
    case Strategy::kMovingStates: {
      // old_plan.box was moved into the controller; the operator pointers in
      // old_plan.leaf_state / root remain valid.
      controller.StartMovingStates(
          std::move(new_plan.box),
          MakeJoinTreeSeeder(&old_plan, &new_plan));
      break;
    }
  }
  was_migrating = controller.migration_in_progress();
  if (!was_migrating && strategy != Strategy::kNone) {
    result.migration_end = exec.current_time().t;
  }
  exec.RunToCompletion();
  // Close the last interval so the tail of the run has a latency sample too.
  sampler.Sample(exec.current_time(), controller.migration_in_progress());

  result.output_count = sink.count();
  result.t_split = controller.t_split();
  result.metrics_json = obs::ToJson(registry, &journal);
  result.trace_json = obs::ToChromeTrace(registry, &journal);
  for (const obs::MetricSample& s : obs::Samples(journal)) {
    if (s.sink_count == 0) continue;
    const size_t b =
        static_cast<size_t>(std::max<int64_t>(s.app_time.t, 0) / bucket);
    if (b < result.e2e_p99_per_bucket.size()) {
      result.e2e_p99_per_bucket[b] =
          std::max(result.e2e_p99_per_bucket[b], s.sink_p99_ns);
    }
  }
  if (const obs::OperatorMetrics* m = registry.FindByName("sink")) {
    result.e2e_count = m->e2e_ns.count();
    result.e2e_p50_ns = m->e2e_ns.ApproxQuantile(0.5);
    result.e2e_p99_ns = m->e2e_ns.ApproxQuantile(0.99);
  }
  if (const obs::OperatorMetrics* m = registry.LastByName("ctrl/old_out")) {
    result.merge_in_old = m->elements_in;
  }
  const obs::OperatorMetrics* merge = registry.LastByName("ctrl/coalesce");
  if (merge == nullptr) merge = registry.LastByName("ctrl/refpoint_merge");
  if (merge != nullptr) {
    result.merge_in_total = merge->elements_in;
    result.merge_out = merge->elements_out;
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace bench
}  // namespace genmig
