// MigrationController: the runtime home of dynamic plan migration.
//
// The controller is itself an operator (n inputs, 1 output) that hosts the
// currently running physical plan (a Box) behind stable ports. A migration
// replaces the hosted box with a snapshot-equivalent new box at runtime,
// using one of the strategies of the paper:
//
//  * GenMig (Section 4) — the paper's contribution. A split time T_split is
//    chosen greater than every time instant referenced in the old box.
//    Split operators route the sub-T_split part of every input element to
//    the old box and the rest to the new box; a Coalesce (Algorithm 3) or,
//    under Optimization 1, a reference-point merge combines the outputs.
//    When all input watermarks pass T_split the old box is drained (EOS) and
//    removed. Optimization 2 derives T_split from the maximum end timestamp
//    inside the old box instead of "monitored start + window".
//
//  * Parallel Track (Zhu et al. [1], Section 3) — the baseline. Both boxes
//    process all arriving elements; old/new lineage epochs mark results;
//    old-box results that are all-new are dropped, new-box results are
//    buffered until every pre-migration element has been purged from the old
//    box's states, then flushed as one burst. Works for join plans; the
//    paper's Section 3.2 (and tests/migration/pt_failure_test) show it
//    produces duplicate snapshots for other stateful operators.
//
//  * Moving States (Zhu et al. [1]) — second baseline: the new box's states
//    are computed directly from the old box's states at migration start (a
//    caller-supplied seeder does the operator-specific transfer, see
//    migration/join_tree.h), the old box is drained and dropped immediately.
//
// All strategies treat the boxes as black boxes except Moving States, whose
// seeder necessarily knows the operator internals — exactly the complexity
// argument the paper makes against MS.

#ifndef GENMIG_MIGRATION_CONTROLLER_H_
#define GENMIG_MIGRATION_CONTROLLER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "ops/coalesce.h"
#include "ops/refpoint_merge.h"
#include "ops/sink.h"
#include "ops/split.h"
#include "plan/box.h"
#include "stream/ordered_buffer.h"

namespace genmig {

class MigrationController : public Operator {
 public:
  enum class Phase {
    kDirect,             // One box running, no migration in progress.
    kWaitingTimestamps,  // GenMig: monitoring start timestamps (Alg. 1, 1-4).
    kParallel,           // Both boxes running.
    kDraining,           // GenMig: old box finished, merge still emptying.
  };

  enum class StrategyKind { kNone, kGenMig, kParallelTrack, kMovingStates };

  struct GenMigOptions {
    enum class Variant {
      kCoalesce,  // Algorithm 1-3.
      kRefPoint,  // Optimization 1 (full intervals to old box, selection).
    };
    Variant variant = Variant::kCoalesce;
    /// Optimization 2: derive T_split from the old box's maximum state end
    /// timestamp instead of max{t_Si} + w.
    bool end_timestamp_split = false;
    /// Global window constraint w (Section 3/4). Required unless
    /// end_timestamp_split is set.
    Duration window = 0;
    /// Floor for T_split: the chosen split is max(locally computed, this).
    /// The parallel coordinator (src/par) broadcasts one globally valid
    /// T_split — greater than every instant any shard can still reference —
    /// so that every shard replica splits at the same instant regardless of
    /// which subset of the data it saw. MinInstant() (default) disables it.
    Timestamp min_split = Timestamp::MinInstant();
  };

  /// Operator-specific state transfer for Moving States: reads the old
  /// box's states and seeds the (already built, still unconnected-to-inputs)
  /// new box.
  using StateSeeder = std::function<void(const Box& old_box, Box* new_box)>;

  MigrationController(std::string name, Box initial_box);

  // --- Migration entry points ----------------------------------------------

  void StartGenMig(Box new_box, const GenMigOptions& options);
  /// `window` is the global window constraint w used to emulate the purge
  /// schedule of the PT baseline's host system [1] (a state entry lives for
  /// w time units after its newest contributing arrival).
  void StartParallelTrack(Box new_box, Duration window);
  void StartMovingStates(Box new_box, const StateSeeder& seeder);

  // --- Introspection ---------------------------------------------------------

  Phase phase() const { return phase_; }
  StrategyKind strategy() const { return strategy_; }
  bool migration_in_progress() const { return phase_ != Phase::kDirect; }
  Timestamp t_split() const { return t_split_; }
  /// Number of completed migrations.
  int migrations_completed() const { return migrations_completed_; }
  /// Application time at which the last migration (any strategy) completed;
  /// MinInstant before the first. The engine's cool-down counts from it.
  Timestamp last_completion() const { return last_completion_; }
  /// PT: number of old-box results dropped because they were all-new.
  size_t pt_dropped() const { return pt_dropped_; }
  /// PT: current size of the new-box output buffer.
  size_t pt_buffered() const { return pt_buffer_.size(); }

  /// The currently hosted box (the old box while migrating).
  const Box& active_box() const { return active_box_; }
  const Box& new_box() const { return new_box_; }

  size_t StateBytes() const override;
  size_t StateUnits() const override;
  size_t QueueDepth() const override {
    return pt_buffer_.size() + ms_buffer_.size();
  }

  // --- Observability ---------------------------------------------------------

  /// Attaches the controller, the hosted box(es) and all migration machinery
  /// (splits, merges, callbacks — including those created by future
  /// migrations) to `registry`. The engine's calibration pass
  /// (Dsms::CalibrateAndArm) reads these counters to decide a migration and
  /// starts it through StartGenMig; the controller itself never decides.
  void AttachMetricsRecursive(obs::MetricsRegistry* registry);

  /// Records every migration phase transition into `tracer` (null disables).
  void SetTracer(obs::MigrationTracer* tracer) { tracer_ = tracer; }
  /// Chrome-trace display lane for this controller's migrations (0 = engine;
  /// the parallel shard runtimes pass 1 + shard id).
  void SetTraceLane(int lane) { trace_lane_ = lane; }

  // --- Checkpointing (ISSUE 10) --------------------------------------------

  /// Control-plane state captured per checkpoint; operator states travel in
  /// separate per-operator blobs. Decoded by the engine *before* the boxes
  /// are rebuilt: the phase decides whether RestoreGenMigParallel runs and
  /// which serialized plan compiles into the hosted box.
  struct CkptControl {
    Phase phase = Phase::kDirect;
    StrategyKind strategy = StrategyKind::kNone;
    uint32_t epoch = 1;
    int migrations_completed = 0;
    Timestamp t_split = Timestamp::MinInstant();
    GenMigOptions genmig;
  };

  /// True when the controller's state admits a consistent capture: kDirect,
  /// or GenMig's steady kParallel phase. The transient phases
  /// (kWaitingTimestamps, kDraining) and an in-flight Parallel Track resolve
  /// within a bounded number of progress updates, so the checkpointer defers
  /// the cycle instead of freezing them. A completed Moving-States migration
  /// rewires the output path through a controller-level ordering buffer
  /// permanently and is not captured (documented limitation — MS is a
  /// baseline, not the subject of the reproduction).
  bool CkptReady() const;
  void CkptExportControl(StateEnc* enc) const;
  static bool CkptDecodeControl(StateDec* dec, CkptControl* out);
  /// Applies the restored counters that live outside any box (lineage epoch,
  /// completed-migration count). Boxes and machinery are rebuilt separately.
  void CkptRestoreControl(const CkptControl& control);

  /// Restore of a completed migration: swaps a freshly compiled box in as
  /// the hosted plan (the plan the caller registered no longer matches the
  /// one that was running at the checkpoint). kDirect only.
  void ReplaceActiveBox(Box box);

  /// Restore of an in-flight GenMig: re-enters the parallel phase with the
  /// *recorded* T_split — the same split/merge machinery EnterParallel
  /// builds, but with the split point taken from the checkpoint instead of
  /// computed from current watermarks (which are MinInstant again after a
  /// restart). Merge state is imported afterwards through merge_op().
  void RestoreGenMigParallel(Box new_box, const GenMigOptions& options,
                             Timestamp t_split);

  /// In-flight merge operator (Coalesce or RefPointMerge); nullptr outside
  /// GenMig's parallel/draining phases.
  Operator* merge_op() const { return merge_; }

 protected:
  void OnElement(int in_port, const StreamElement& element) override;
  /// Stamps the lineage epoch on every row and forwards the batch intact to
  /// the current input targets (the box, or the Splits during GenMig, which
  /// slice it at T_split). Does not run Maintain(): PushBatch advances the
  /// port watermark only after OnBatch returns, and OnWatermarkAdvance then
  /// runs it with the post-batch watermark, so T_split is chosen above
  /// every row the old box already holds.
  void OnBatch(int in_port, const TupleBatch& batch) override;
  void OnInputEos(int in_port) override;
  void OnWatermarkAdvance() override;
  void OnAllInputsEos() override;
  Timestamp OutputWatermark() const override { return out_bound_; }

 private:
  /// Wires `box`'s output to a fresh terminal CallbackOp (MakeTerminal).
  void InstallDirect(Box* box);
  /// Makes `cb` the terminal of the hosted box: elements, whole batches and
  /// progress go straight out through the controller. Every box swap (a new
  /// hosted plan, a finished GenMig or Parallel Track) goes through here.
  void MakeTerminal(CallbackOp* cb);

  // GenMig machinery.
  void TryEnterParallel();
  void EnterParallel();
  /// Splits/merge/callback wiring of the parallel phase, parameterized only
  /// by the already-chosen t_split_ (shared by EnterParallel and
  /// RestoreGenMigParallel).
  void InstallParallelMachinery();
  void MaintainGenMig();
  void FinishGenMig();

  // Parallel Track machinery.
  void MaintainParallelTrack();
  void FinishParallelTrack();

  void Maintain();

  /// Creates a CallbackOp owned by machinery_.
  CallbackOp* MakeCallback(const std::string& name);
  /// Registers a machinery operator with the attached metrics registry.
  void AttachMachineryOp(Operator* op);
  /// Records `event` for the in-flight migration (no-op without a tracer).
  void Trace(obs::MigrationEvent event, const std::string& detail = "");
  /// Application time stamped onto trace records: the minimum live input
  /// watermark, falling back to the output bound once every input ended.
  Timestamp TraceTime() const;
  /// Moves every machinery operator and the given box to the retired list
  /// (kept alive until destruction; cheap, states already empty or moot).
  void RetireMachinery();
  void RetireBox(Box box);

  void AdvanceOutBound(Timestamp wm);

  // --- Hosted plans ----------------------------------------------------------
  Box active_box_;
  Box new_box_;

  // --- Forwarding -------------------------------------------------------------
  /// Where each controller input currently forwards to.
  std::vector<std::vector<Edge>> input_targets_;
  /// Last heartbeat forwarded per input.
  std::vector<Timestamp> fwd_wm_;
  /// Lineage epoch stamped onto forwarded elements.
  uint32_t epoch_ = 1;
  /// OnBatch's epoch-stamped copy of the input batch (reused).
  TupleBatch stamped_;

  // --- Phase / strategy state ---------------------------------------------------
  Phase phase_ = Phase::kDirect;
  StrategyKind strategy_ = StrategyKind::kNone;
  int migrations_completed_ = 0;
  Timestamp last_completion_ = Timestamp::MinInstant();

  // GenMig.
  GenMigOptions genmig_options_;
  std::vector<Timestamp> t_si_;
  std::vector<bool> t_si_set_;
  Timestamp t_split_;
  std::vector<Split*> splits_;
  Operator* merge_ = nullptr;
  CallbackOp* new_out_cb_ = nullptr;
  bool old_eos_signalled_ = false;

  // Parallel Track.
  uint32_t pt_epoch_ = 0;
  Duration pt_window_ = 0;
  std::vector<StreamElement> pt_buffer_;
  size_t pt_buffer_bytes_ = 0;
  size_t pt_dropped_ = 0;

  // Moving States.
  bool ms_active_ = false;
  OrderedOutputBuffer ms_buffer_;

  // Output side.
  Timestamp out_bound_ = Timestamp::MinInstant();

  // Observability.
  obs::MetricsRegistry* registry_ = nullptr;
  obs::MigrationTracer* tracer_ = nullptr;
  int trace_lane_ = 0;
  /// Tracer id of the in-flight migration, -1 outside one.
  int trace_id_ = -1;

  // Operator plumbing created per phase; retired pieces are kept alive.
  std::vector<std::unique_ptr<Operator>> machinery_;
  std::vector<std::unique_ptr<Operator>> retired_ops_;
  std::vector<Box> retired_boxes_;
};

}  // namespace genmig

#endif  // GENMIG_MIGRATION_CONTROLLER_H_
