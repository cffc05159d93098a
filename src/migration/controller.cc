#include "migration/controller.h"

#include <algorithm>

namespace genmig {

MigrationController::MigrationController(std::string name, Box initial_box)
    : Operator(std::move(name), initial_box.num_inputs(), 1),
      active_box_(std::move(initial_box)) {
  GENMIG_CHECK(active_box_.output() != nullptr);
  input_targets_.resize(static_cast<size_t>(num_inputs()));
  fwd_wm_.assign(static_cast<size_t>(num_inputs()), Timestamp::MinInstant());
  t_si_.assign(static_cast<size_t>(num_inputs()), Timestamp::MinInstant());
  t_si_set_.assign(static_cast<size_t>(num_inputs()), false);
  for (int i = 0; i < num_inputs(); ++i) {
    input_targets_[static_cast<size_t>(i)] = {
        Edge{active_box_.input(i), 0}};
  }
  InstallDirect(&active_box_);
}

CallbackOp* MigrationController::MakeCallback(const std::string& cb_name) {
  auto cb = std::make_unique<CallbackOp>(name() + "/" + cb_name);
  CallbackOp* raw = cb.get();
  machinery_.push_back(std::move(cb));
  AttachMachineryOp(raw);
  return raw;
}

// --- Observability -------------------------------------------------------------

void MigrationController::AttachMetricsRecursive(
    obs::MetricsRegistry* registry) {
  registry_ = registry;
  AttachMetrics(registry);
  active_box_.AttachMetrics(registry);
  new_box_.AttachMetrics(registry);
  for (const auto& op : machinery_) op->AttachMetrics(registry);
}

void MigrationController::AttachMachineryOp(Operator* op) {
  if (registry_ != nullptr) op->AttachMetrics(registry_);
}

void MigrationController::Trace(obs::MigrationEvent event,
                                const std::string& detail) {
  if (tracer_ == nullptr || trace_id_ < 0) return;
  tracer_->Record(trace_id_, event, TraceTime(), detail, trace_lane_);
}

Timestamp MigrationController::TraceTime() const {
  Timestamp t = MinInputWatermark();
  if (t == Timestamp::MaxInstant()) t = out_bound_;
  return t;
}

void MigrationController::InstallDirect(Box* box) {
  CallbackOp* terminal = MakeCallback("terminal");
  MakeTerminal(terminal);
  box->output()->ConnectTo(0, terminal, 0);
}

void MigrationController::MakeTerminal(CallbackOp* cb) {
  cb->on_element = [this](const StreamElement& e) { Emit(0, e); };
  cb->on_batch = [this](const TupleBatch& b) { EmitBatch(0, b); };
  cb->on_watermark = [this](Timestamp wm) {
    if (wm != Timestamp::MaxInstant()) AdvanceOutBound(wm);
  };
  cb->on_eos = nullptr;
}

void MigrationController::AdvanceOutBound(Timestamp wm) {
  if (out_bound_ < wm) out_bound_ = wm;
}

// --- Data path ----------------------------------------------------------------

void MigrationController::OnElement(int in_port, const StreamElement& element) {
  StreamElement stamped = element;
  stamped.epoch = epoch_;
  for (const Edge& target : input_targets_[static_cast<size_t>(in_port)]) {
    target.op->PushElement(target.port, stamped);
  }
  Maintain();
}

void MigrationController::OnBatch(int in_port, const TupleBatch& batch) {
  stamped_ = batch;
  stamped_.set_epochs(epoch_);
  for (const Edge& target : input_targets_[static_cast<size_t>(in_port)]) {
    target.op->PushBatch(target.port, stamped_);
  }
}

void MigrationController::OnInputEos(int in_port) {
  for (const Edge& target : input_targets_[static_cast<size_t>(in_port)]) {
    if (!target.op->input_eos(target.port)) {
      target.op->PushEos(target.port);
    }
  }
}

void MigrationController::OnWatermarkAdvance() {
  for (int i = 0; i < num_inputs(); ++i) {
    if (input_eos(i)) continue;
    const Timestamp wm = input_watermark(i);
    if (fwd_wm_[static_cast<size_t>(i)] < wm) {
      fwd_wm_[static_cast<size_t>(i)] = wm;
      for (const Edge& target : input_targets_[static_cast<size_t>(i)]) {
        target.op->PushHeartbeat(target.port, wm);
      }
    }
  }
  Maintain();
}

void MigrationController::OnAllInputsEos() {
  Maintain();
  if (strategy_ == StrategyKind::kParallelTrack &&
      phase_ == Phase::kParallel) {
    // The streams ended before all old elements were purged; flush anyway.
    FinishParallelTrack();
  }
  if (ms_active_) {
    ms_buffer_.FlushAll([this](const StreamElement& e) { Emit(0, e); });
  }
}

void MigrationController::Maintain() {
  switch (strategy_) {
    case StrategyKind::kNone:
    case StrategyKind::kMovingStates:
      break;
    case StrategyKind::kGenMig:
      if (phase_ == Phase::kWaitingTimestamps) TryEnterParallel();
      if (phase_ == Phase::kParallel) MaintainGenMig();
      if (phase_ == Phase::kDraining && merge_->StateUnits() == 0) {
        FinishGenMig();
      }
      break;
    case StrategyKind::kParallelTrack:
      if (phase_ == Phase::kParallel) MaintainParallelTrack();
      break;
  }
}

// --- GenMig --------------------------------------------------------------------

void MigrationController::StartGenMig(Box new_box,
                                      const GenMigOptions& options) {
  GENMIG_CHECK(phase_ == Phase::kDirect);
  GENMIG_CHECK_EQ(new_box.num_inputs(), num_inputs());
  GENMIG_CHECK(new_box.output() != nullptr);
  GENMIG_CHECK(options.end_timestamp_split || options.window >= 0);
  new_box_ = std::move(new_box);
  new_box_.AttachMetrics(registry_);
  genmig_options_ = options;
  strategy_ = StrategyKind::kGenMig;
  phase_ = Phase::kWaitingTimestamps;
  std::fill(t_si_set_.begin(), t_si_set_.end(), false);
  if (tracer_ != nullptr) {
    const bool refpoint =
        options.variant == GenMigOptions::Variant::kRefPoint;
    trace_id_ = tracer_->BeginMigration(
        refpoint ? "genmig_refpoint" : "genmig_coalesce", TraceTime(),
        trace_lane_);
  }
  TryEnterParallel();
}

void MigrationController::TryEnterParallel() {
  // Algorithm 1, lines 1-4: wait until a start timestamp has been observed
  // on every input (inputs that already ended count as observed).
  for (int i = 0; i < num_inputs(); ++i) {
    const size_t idx = static_cast<size_t>(i);
    if (t_si_set_[idx]) continue;
    if (input_eos(i) || input_watermark(i) > Timestamp::MinInstant()) {
      t_si_set_[idx] = true;
    }
  }
  for (bool set : t_si_set_) {
    if (!set) return;
  }
  EnterParallel();
}

void MigrationController::EnterParallel() {
  // "Keep the most recent start timestamps of I_i as t_Si": take the
  // watermarks as of the instant the old plan is paused.
  Timestamp max_tsi = Timestamp::MinInstant();
  for (int i = 0; i < num_inputs(); ++i) {
    const Timestamp tsi =
        input_eos(i) ? fwd_wm_[static_cast<size_t>(i)] : input_watermark(i);
    t_si_[static_cast<size_t>(i)] = tsi;
    if (max_tsi < tsi) max_tsi = tsi;
  }
  if (max_tsi == Timestamp::MinInstant()) max_tsi = Timestamp(0);

  if (genmig_options_.end_timestamp_split) {
    // Optimization 2: T_split just above every end timestamp inside the old
    // box. Expired state entries ended at or below the watermarks, so
    // max(max state end, max t_Si) bounds every instant the old box can
    // still reference.
    const Timestamp max_end = active_box_.MaxStateEnd();
    t_split_ = Timestamp(std::max(max_end.t, max_tsi.t), 1);
  } else {
    // Algorithm 1, line 5: max{t_Si} + w + 1 + epsilon. The +1 covers the
    // [t, t+1) validity of the input conversion; epsilon is the chronon.
    t_split_ = Timestamp(max_tsi.t + genmig_options_.window + 1, 1);
  }
  // Coordinated migration: a broadcast split point from the parallel
  // coordinator overrides a smaller local choice (correctness is monotone —
  // any T_split above every referenced instant is valid per Section 4).
  if (t_split_ < genmig_options_.min_split) {
    t_split_ = genmig_options_.min_split;
  }

  InstallParallelMachinery();
}

void MigrationController::InstallParallelMachinery() {
  // Merge operator on top of both boxes.
  const bool refpoint =
      genmig_options_.variant == GenMigOptions::Variant::kRefPoint;
  if (refpoint) {
    auto merge = std::make_unique<RefPointMerge>(name() + "/refpoint_merge",
                                                 t_split_);
    merge_ = merge.get();
    machinery_.push_back(std::move(merge));
  } else {
    auto merge = std::make_unique<Coalesce>(name() + "/coalesce", t_split_);
    merge_ = merge.get();
    machinery_.push_back(std::move(merge));
  }
  AttachMachineryOp(merge_);

  // Old box output -> merge port 0.
  active_box_.output()->DisconnectOutputPort(0);
  CallbackOp* old_out = MakeCallback("old_out");
  old_out->on_element = [this](const StreamElement& e) {
    merge_->PushElement(Coalesce::kOldPort, e);
  };
  old_out->on_watermark = [this](Timestamp wm) {
    if (wm != Timestamp::MaxInstant()) {
      merge_->PushHeartbeat(Coalesce::kOldPort, wm);
    }
  };
  old_out->on_eos = [this]() { merge_->PushEos(Coalesce::kOldPort); };
  active_box_.output()->ConnectTo(0, old_out, 0);

  // New box output -> merge port 1.
  new_out_cb_ = MakeCallback("new_out");
  new_out_cb_->on_element = [this](const StreamElement& e) {
    merge_->PushElement(Coalesce::kNewPort, e);
  };
  new_out_cb_->on_watermark = [this](Timestamp wm) {
    if (wm != Timestamp::MaxInstant()) {
      merge_->PushHeartbeat(Coalesce::kNewPort, wm);
    }
  };
  new_out_cb_->on_eos = [this]() { merge_->PushEos(Coalesce::kNewPort); };
  new_box_.output()->ConnectTo(0, new_out_cb_, 0);

  // Merge output -> controller output.
  CallbackOp* merge_out = MakeCallback("merge_out");
  merge_out->on_element = [this](const StreamElement& e) { Emit(0, e); };
  merge_out->on_watermark = [this](Timestamp wm) {
    if (wm != Timestamp::MaxInstant()) AdvanceOutBound(wm);
  };
  merge_->ConnectTo(0, merge_out, 0);

  // Split operators downstream of each source (Algorithm 1, line 6).
  splits_.clear();
  for (int i = 0; i < num_inputs(); ++i) {
    auto split = std::make_unique<Split>(
        name() + "/split_" + std::to_string(i), t_split_,
        refpoint ? Split::Mode::kFullToOld : Split::Mode::kClip);
    Split* raw = split.get();
    machinery_.push_back(std::move(split));
    AttachMachineryOp(raw);
    // An input that already ended delivered its EOS to the old box before
    // the migration started; only the new box still needs to learn about it
    // (below), so the old-port edge is omitted.
    if (!input_eos(i)) {
      raw->ConnectTo(Split::kOldPort, active_box_.input(i), 0);
    }
    raw->ConnectTo(Split::kNewPort, new_box_.input(i), 0);
    splits_.push_back(raw);
    input_targets_[static_cast<size_t>(i)] = {Edge{raw, 0}};
  }

  old_eos_signalled_ = false;
  phase_ = Phase::kParallel;
  Trace(obs::MigrationEvent::kSplitInstalled,
        "t_split=" + std::to_string(t_split_.t));

  // Forward pre-migration EOS into the new wiring.
  for (int i = 0; i < num_inputs(); ++i) {
    if (input_eos(i)) splits_[static_cast<size_t>(i)]->PushEos(0);
  }
}

void MigrationController::MaintainGenMig() {
  if (old_eos_signalled_) return;
  // Algorithm 1, line 9: the migration ends once every input stream's
  // watermark reached T_split.
  if (MinInputWatermark() < t_split_) return;
  // Line 11: signal the end of all input streams to the old plan.
  for (Split* split : splits_) {
    split->DisconnectOutputPort(Split::kOldPort);
  }
  active_box_.SignalEosToInputs();
  old_eos_signalled_ = true;
  phase_ = Phase::kDraining;
  // The merge queue size at drain time is the backlog the coalesce phase
  // still has to work off (the output stall of Figure 4 in buffer terms).
  Trace(obs::MigrationEvent::kOldBoxDrained,
        "merge_queue=" + std::to_string(merge_->QueueDepth()));
}

void MigrationController::FinishGenMig() {
  Trace(obs::MigrationEvent::kCoalesceDone,
        "merge_state_bytes=" + std::to_string(merge_->StateBytes()));
  // Lines 13-16: remove the old plan, split and coalesce operators and
  // connect inputs/outputs directly with the new plan.
  for (Split* split : splits_) {
    split->DisconnectAllOutputs();
  }
  for (int i = 0; i < num_inputs(); ++i) {
    input_targets_[static_cast<size_t>(i)] = {Edge{new_box_.input(i), 0}};
  }
  Trace(obs::MigrationEvent::kReferencePointSwitch);
  // Splice the merge out: the new box's output callback becomes the
  // terminal. The merge is empty (checked by the caller).
  MakeTerminal(new_out_cb_);

  RetireBox(std::move(active_box_));
  active_box_ = std::move(new_box_);
  new_box_ = Box();
  splits_.clear();
  merge_ = nullptr;
  RetireMachinery();
  strategy_ = StrategyKind::kNone;
  phase_ = Phase::kDirect;
  ++migrations_completed_;
  Trace(obs::MigrationEvent::kCompleted);
  trace_id_ = -1;
  last_completion_ = TraceTime();
}

// --- Checkpointing (ISSUE 10) --------------------------------------------------

bool MigrationController::CkptReady() const {
  // A completed Moving-States migration leaves the output path routed
  // through ms_buffer_ forever; restoring that wiring is out of scope, so
  // such controllers are never captured.
  if (ms_active_) return false;
  if (phase_ == Phase::kDirect) return true;
  return strategy_ == StrategyKind::kGenMig && phase_ == Phase::kParallel;
}

void MigrationController::CkptExportControl(StateEnc* enc) const {
  enc->U8(static_cast<uint8_t>(phase_));
  enc->U8(static_cast<uint8_t>(strategy_));
  enc->U32(epoch_);
  enc->U32(static_cast<uint32_t>(migrations_completed_));
  enc->Ts(t_split_);
  enc->U8(static_cast<uint8_t>(genmig_options_.variant));
  enc->Bool(genmig_options_.end_timestamp_split);
  enc->I64(genmig_options_.window);
  enc->Ts(genmig_options_.min_split);
}

bool MigrationController::CkptDecodeControl(StateDec* dec, CkptControl* out) {
  const uint8_t phase = dec->U8();
  const uint8_t strategy = dec->U8();
  if (phase > static_cast<uint8_t>(Phase::kDraining) ||
      strategy > static_cast<uint8_t>(StrategyKind::kMovingStates)) {
    return false;
  }
  out->phase = static_cast<Phase>(phase);
  out->strategy = static_cast<StrategyKind>(strategy);
  out->epoch = dec->U32();
  out->migrations_completed = static_cast<int>(dec->U32());
  out->t_split = dec->Ts();
  const uint8_t variant = dec->U8();
  if (variant > static_cast<uint8_t>(GenMigOptions::Variant::kRefPoint)) {
    return false;
  }
  out->genmig.variant = static_cast<GenMigOptions::Variant>(variant);
  out->genmig.end_timestamp_split = dec->Bool();
  out->genmig.window = dec->I64();
  out->genmig.min_split = dec->Ts();
  return dec->ok();
}

void MigrationController::CkptRestoreControl(const CkptControl& control) {
  epoch_ = control.epoch;
  migrations_completed_ = control.migrations_completed;
}

void MigrationController::ReplaceActiveBox(Box box) {
  GENMIG_CHECK(phase_ == Phase::kDirect);
  GENMIG_CHECK_EQ(box.num_inputs(), num_inputs());
  GENMIG_CHECK(box.output() != nullptr);
  RetireMachinery();
  RetireBox(std::move(active_box_));
  active_box_ = std::move(box);
  active_box_.AttachMetrics(registry_);
  for (int i = 0; i < num_inputs(); ++i) {
    input_targets_[static_cast<size_t>(i)] = {Edge{active_box_.input(i), 0}};
  }
  InstallDirect(&active_box_);
}

void MigrationController::RestoreGenMigParallel(Box new_box,
                                                const GenMigOptions& options,
                                                Timestamp t_split) {
  GENMIG_CHECK(phase_ == Phase::kDirect);
  GENMIG_CHECK_EQ(new_box.num_inputs(), num_inputs());
  GENMIG_CHECK(new_box.output() != nullptr);
  new_box_ = std::move(new_box);
  new_box_.AttachMetrics(registry_);
  genmig_options_ = options;
  strategy_ = StrategyKind::kGenMig;
  t_split_ = t_split;
  if (tracer_ != nullptr) {
    const bool refpoint =
        options.variant == GenMigOptions::Variant::kRefPoint;
    trace_id_ = tracer_->BeginMigration(
        refpoint ? "genmig_refpoint" : "genmig_coalesce", TraceTime(),
        trace_lane_);
  }
  InstallParallelMachinery();
}

// --- Parallel Track --------------------------------------------------------------

void MigrationController::StartParallelTrack(Box new_box, Duration window) {
  GENMIG_CHECK(phase_ == Phase::kDirect);
  pt_window_ = window;
  GENMIG_CHECK_EQ(new_box.num_inputs(), num_inputs());
  GENMIG_CHECK(new_box.output() != nullptr);
  new_box_ = std::move(new_box);
  new_box_.AttachMetrics(registry_);
  strategy_ = StrategyKind::kParallelTrack;
  phase_ = Phase::kParallel;
  pt_epoch_ = ++epoch_;
  pt_dropped_ = 0;
  if (tracer_ != nullptr) {
    trace_id_ =
        tracer_->BeginMigration("parallel_track", TraceTime(), trace_lane_);
  }
  // PT's end-of-migration buffer flush back-dates results; the output of
  // this operator is no longer globally ordered (see Figure 4's burst).
  SetRelaxedOutputOrdering(0);

  // Old box output: drop results that are all-new — the new box produces
  // them as well (Section 3.1 (i)).
  active_box_.output()->DisconnectOutputPort(0);
  CallbackOp* old_out = MakeCallback("pt_old_out");
  old_out->on_element = [this](const StreamElement& e) {
    if (e.epoch < pt_epoch_) {
      Emit(0, e);
    } else {
      ++pt_dropped_;
    }
  };
  old_out->on_watermark = [this](Timestamp wm) {
    if (wm != Timestamp::MaxInstant()) AdvanceOutBound(wm);
  };
  active_box_.output()->ConnectTo(0, old_out, 0);

  // New box output: buffer during migration (Section 3.1 (ii)).
  new_out_cb_ = MakeCallback("pt_new_out");
  new_out_cb_->on_element = [this](const StreamElement& e) {
    pt_buffer_.push_back(e);
    pt_buffer_bytes_ += e.PayloadBytes();
  };
  new_box_.output()->ConnectTo(0, new_out_cb_, 0);

  // Both boxes process every arriving element.
  for (int i = 0; i < num_inputs(); ++i) {
    input_targets_[static_cast<size_t>(i)] = {
        Edge{active_box_.input(i), 0}, Edge{new_box_.input(i), 0}};
  }

  // Both boxes now see every arriving element — PT's analogue of GenMig's
  // parallel phase being in place.
  Trace(obs::MigrationEvent::kSplitInstalled,
        "epoch=" + std::to_string(pt_epoch_));

  // Inputs that ended before the migration: the old box already received
  // their EOS; deliver it to the new box too.
  for (int i = 0; i < num_inputs(); ++i) {
    if (input_eos(i)) new_box_.input(i)->PushEos(0);
  }
}

void MigrationController::MaintainParallelTrack() {
  // PT is over when the old box's states contain only elements that arrived
  // after migration start. The baseline host system of [1] purges a state
  // entry w time units after its newest contributing arrival (= the entry's
  // start timestamp in interval semantics), so we also wait until the
  // watermark passes every old entry's purge deadline — for join trees with
  // more than one join this is what makes PT take ~2w (Section 4.4).
  if (active_box_.CountStateWithEpochBelow(pt_epoch_) != 0) return;
  const Timestamp hwm =
      active_box_.MaxInsertedStartWithEpochBelow(pt_epoch_);
  if (hwm > Timestamp::MinInstant() &&
      MinInputWatermark() <= hwm + pt_window_) {
    return;
  }
  FinishParallelTrack();
}

void MigrationController::FinishParallelTrack() {
  Trace(obs::MigrationEvent::kOldBoxDrained,
        "buffered=" + std::to_string(pt_buffer_.size()) +
            " buffered_bytes=" + std::to_string(pt_buffer_bytes_) +
            " dropped=" + std::to_string(pt_dropped_));
  // Flush the buffered new-box output — the burst of Figure 4.
  for (const StreamElement& e : pt_buffer_) {
    Emit(0, e);
  }
  pt_buffer_.clear();
  pt_buffer_bytes_ = 0;

  for (int i = 0; i < num_inputs(); ++i) {
    input_targets_[static_cast<size_t>(i)] = {Edge{new_box_.input(i), 0}};
  }
  MakeTerminal(new_out_cb_);

  RetireBox(std::move(active_box_));
  active_box_ = std::move(new_box_);
  new_box_ = Box();
  Trace(obs::MigrationEvent::kReferencePointSwitch);
  RetireMachinery();
  strategy_ = StrategyKind::kNone;
  phase_ = Phase::kDirect;
  ++migrations_completed_;
  Trace(obs::MigrationEvent::kCompleted);
  trace_id_ = -1;
  last_completion_ = TraceTime();
}

// --- Moving States ----------------------------------------------------------------

void MigrationController::StartMovingStates(Box new_box,
                                            const StateSeeder& seeder) {
  GENMIG_CHECK(phase_ == Phase::kDirect);
  GENMIG_CHECK_EQ(new_box.num_inputs(), num_inputs());
  GENMIG_CHECK(new_box.output() != nullptr);

  new_box.AttachMetrics(registry_);
  if (tracer_ != nullptr) {
    trace_id_ =
        tracer_->BeginMigration("moving_states", TraceTime(), trace_lane_);
  }

  // 1. Compute the new box's states from the old box's states.
  seeder(active_box_, &new_box);
  ms_active_ = true;

  // 2. Drain the old box: its staged-but-unreleased results are routed into
  // the controller-level ordering buffer.
  active_box_.output()->DisconnectOutputPort(0);
  CallbackOp* drain = MakeCallback("ms_drain");
  drain->on_element = [this](const StreamElement& e) { ms_buffer_.Push(e); };
  active_box_.output()->ConnectTo(0, drain, 0);
  active_box_.SignalEosToInputs();
  Trace(obs::MigrationEvent::kOldBoxDrained,
        "ms_buffer=" + std::to_string(ms_buffer_.size()));

  // 3. Swap boxes; the new box's output is merged through the same buffer so
  // the controller's output stays ordered across the switch.
  RetireBox(std::move(active_box_));
  active_box_ = std::move(new_box);
  CallbackOp* new_out = MakeCallback("ms_new_out");
  new_out->on_element = [this](const StreamElement& e) {
    ms_buffer_.Push(e);
  };
  new_out->on_watermark = [this](Timestamp wm) {
    if (wm == Timestamp::MaxInstant()) return;
    ms_buffer_.FlushUpTo(wm, [this](const StreamElement& e) { Emit(0, e); });
    AdvanceOutBound(wm);
  };
  active_box_.output()->ConnectTo(0, new_out, 0);
  for (int i = 0; i < num_inputs(); ++i) {
    input_targets_[static_cast<size_t>(i)] = {Edge{active_box_.input(i), 0}};
    // Inputs that ended before the migration: deliver their EOS to the new
    // box (the old box already received it).
    if (input_eos(i)) active_box_.input(i)->PushEos(0);
  }
  Trace(obs::MigrationEvent::kReferencePointSwitch);
  ++migrations_completed_;
  Trace(obs::MigrationEvent::kCompleted);
  trace_id_ = -1;
  last_completion_ = TraceTime();
}

// --- Introspection -------------------------------------------------------------------

size_t MigrationController::StateBytes() const {
  size_t bytes = active_box_.StateBytes() + new_box_.StateBytes() +
                 pt_buffer_bytes_ + ms_buffer_.PayloadBytes();
  for (const auto& op : machinery_) bytes += op->StateBytes();
  return bytes;
}

size_t MigrationController::StateUnits() const {
  size_t units = active_box_.StateUnits() + new_box_.StateUnits() +
                 pt_buffer_.size() + ms_buffer_.size();
  for (const auto& op : machinery_) units += op->StateUnits();
  return units;
}

void MigrationController::RetireMachinery() {
  for (auto& op : machinery_) {
    retired_ops_.push_back(std::move(op));
  }
  machinery_.clear();
}

void MigrationController::RetireBox(Box box) {
  retired_boxes_.push_back(std::move(box));
}

}  // namespace genmig
