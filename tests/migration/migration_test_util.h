// Shared harness for migration tests: runs a MigrationController-hosted
// query over synthetic feeds, triggering a migration at a chosen point in
// application time, and returns the merged output stream.
//
// Plan shape convention: the window operators sit UPSTREAM of the migration
// boundary (source -> window -> controller -> box). GenMig's Split operators
// partition windowed validity intervals, so the boxes themselves contain
// only standard operators. RunLogicalMigration takes ordinary windowed
// logical plans, strips the window nodes out of the box plans and installs
// the windows between the executor feeds and the controller.

#ifndef GENMIG_TESTS_MIGRATION_MIGRATION_TEST_UTIL_H_
#define GENMIG_TESTS_MIGRATION_MIGRATION_TEST_UTIL_H_

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "../test_util.h"
#include "migration/controller.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "ref/eval.h"
#include "stream/generator.h"

namespace genmig {
namespace testutil {

/// Two-or-more keyed random raw feeds named "S0", "S1", ...
inline ref::InputMap MakeKeyedInputs(int num_streams, size_t count,
                                     int64_t period, int64_t keys,
                                     uint64_t seed) {
  ref::InputMap inputs;
  for (int s = 0; s < num_streams; ++s) {
    inputs["S" + std::to_string(s)] = ToPhysicalStream(GenerateKeyedStream(
        count, period, keys, seed + static_cast<uint64_t>(s)));
  }
  return inputs;
}

struct MigrationRunResult {
  MaterializedStream output;
  int migrations_completed = 0;
  Timestamp t_split;
  /// Application time at which the controller returned to Phase::kDirect
  /// (MaxInstant if it never migrated or never finished).
  Timestamp finish_time = Timestamp::MaxInstant();
};

/// Runs `old_box` hosted in a controller over `inputs` (bound to the box's
/// ports in `source_names` order, windowed by `leaf_windows`). At
/// application time `trigger_time`, `trigger` is invoked with the controller
/// (start a migration there). Streams named in `disorder` are treated as
/// *arrival*-ordered (their entry in `inputs` is the arrival sequence) and
/// fed through a DisorderBuffer with the given options. `poll`, when set,
/// runs with the controller and the executor's application time right after
/// `trigger` and after every later executor step (a test-side automatic
/// migration trigger).
inline MigrationRunResult RunMigrationScenario(
    Box old_box, const std::vector<std::string>& source_names,
    const std::vector<Duration>& leaf_windows, const ref::InputMap& inputs,
    Timestamp trigger_time,
    const std::function<void(MigrationController&)>& trigger,
    Executor::Options exec_options = Executor::Options(),
    bool relax_sink = false,
    const std::map<std::string, DisorderBuffer::Options>& disorder = {},
    const std::function<void(MigrationController&, Timestamp)>& poll =
        nullptr) {
  MigrationController controller("ctrl", std::move(old_box));
  CollectorSink sink("sink");
  if (relax_sink) sink.SetRelaxedInputOrdering(0);
  controller.ConnectTo(0, &sink, 0);

  Executor exec(exec_options);
  std::vector<std::unique_ptr<StatelessChain>> windows;
  for (size_t i = 0; i < source_names.size(); ++i) {
    const auto dit = disorder.find(source_names[i]);
    const int feed =
        dit == disorder.end()
            ? exec.AddFeed(source_names[i], inputs.at(source_names[i]))
            : exec.AddDisorderedFeed(source_names[i],
                                     inputs.at(source_names[i]), dit->second);
    windows.push_back(std::make_unique<StatelessChain>(
        "w_" + source_names[i], StatelessChain::Window(leaf_windows[i])));
    exec.ConnectFeed(feed, windows.back().get(), 0);
    windows.back()->ConnectTo(0, &controller, static_cast<int>(i));
  }

  MigrationRunResult result;
  bool was_migrating = false;
  bool triggered = false;
  exec.after_step = [&]() {
    if (triggered && poll) poll(controller, exec.current_time());
    const bool migrating = controller.migration_in_progress();
    if (was_migrating && !migrating &&
        result.finish_time == Timestamp::MaxInstant()) {
      result.finish_time = exec.current_time();
    }
    was_migrating = migrating;
  };

  exec.RunUntil(trigger_time);
  trigger(controller);
  triggered = true;
  if (poll) poll(controller, exec.current_time());
  was_migrating = controller.migration_in_progress();
  if (!was_migrating) result.finish_time = exec.current_time();
  exec.RunToCompletion();

  result.output = sink.collected();
  result.migrations_completed = controller.migrations_completed();
  result.t_split = controller.t_split();
  return result;
}

/// Convenience wrapper for windowed logical plans: hosts the window-stripped
/// compilation of `old_plan` and migrates to the window-stripped compilation
/// of `new_plan` via `trigger`. The oracle plans (with windows) stay as-is.
inline MigrationRunResult RunLogicalMigration(
    const LogicalPtr& old_plan, const LogicalPtr& new_plan,
    const ref::InputMap& inputs, Timestamp trigger_time,
    const std::function<void(MigrationController&, Box)>& trigger,
    Executor::Options exec_options = Executor::Options(),
    bool relax_sink = false,
    const std::map<std::string, DisorderBuffer::Options>& disorder = {},
    const std::function<void(MigrationController&, Timestamp)>& poll =
        nullptr) {
  const LogicalPtr old_box_plan = logical::StripWindows(old_plan);
  const LogicalPtr new_box_plan = logical::StripWindows(new_plan);
  return RunMigrationScenario(
      CompilePlan(*old_box_plan),
      logical::CollectSourceNames(*old_plan),
      logical::CollectLeafWindows(*old_plan), inputs, trigger_time,
      [&](MigrationController& c) {
        trigger(c, CompilePlan(*new_box_plan));
      },
      exec_options, relax_sink, disorder, poll);
}

}  // namespace testutil
}  // namespace genmig

#endif  // GENMIG_TESTS_MIGRATION_MIGRATION_TEST_UTIL_H_
