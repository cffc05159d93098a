#include "par/shard_runtime.h"

#include <utility>

#include "ops/sink.h"
#include "ops/stateless.h"
#include "plan/compile.h"

namespace genmig {
namespace par {

ShardRuntime::ShardRuntime(Config config)
    : config_(std::move(config)),
      prefix_("s" + std::to_string(config_.shard_id) + "/"),
      in_(config_.queue_capacity) {
  GENMIG_CHECK(config_.stripped_plan != nullptr);
  GENMIG_CHECK(config_.out != nullptr);
  GENMIG_CHECK_EQ(config_.port_sources.size(), config_.port_windows.size());

  plans_.plan = config_.stripped_plan;
  Box box = CompilePlan(*config_.stripped_plan, prefix_);
  GENMIG_CHECK_EQ(static_cast<size_t>(box.num_inputs()),
                  config_.port_sources.size());
  controller_ =
      std::make_unique<MigrationController>(prefix_ + "ctrl", std::move(box));
  controller_->SetTraceLane(1 + config_.shard_id);

  for (size_t i = 0; i < config_.port_sources.size(); ++i) {
    const Duration w = config_.port_windows[i];
    if (w > 0) {
      auto win = std::make_unique<StatelessChain>(
          prefix_ + "w" + std::to_string(i) + "_" + config_.port_sources[i],
          StatelessChain::Window(w));
      win->ConnectTo(0, controller_.get(), static_cast<int>(i));
      port_targets_.push_back(PortTarget{win.get(), 0});
      windows_.push_back(std::move(win));
    } else {
      port_targets_.push_back(
          PortTarget{controller_.get(), static_cast<int>(i)});
    }
  }

  out_cb_ = std::make_unique<CallbackOp>(prefix_ + "out");
  controller_->ConnectTo(0, out_cb_.get(), 0);
  const int shard = config_.shard_id;
  BoundedQueue<ShardOutMsg>* out = config_.out;
  // Rows cross the shard->merge queue as batches: whole batches intact
  // (one Push, one lock round trip, per batch), scalar outputs as one-row
  // batches.
  out_cb_->on_element = [out, shard](const StreamElement& e) {
    ShardOutMsg msg;
    msg.shard = shard;
    msg.batch.Append(e);
    out->Push(std::move(msg));
  };
  out_cb_->on_batch = [out, shard](const TupleBatch& batch) {
    ShardOutMsg msg;
    msg.shard = shard;
    msg.batch = batch;
    out->Push(std::move(msg));
  };
  out_cb_->on_watermark = [out, shard](Timestamp wm) {
    if (wm == Timestamp::MaxInstant()) return;
    ShardOutMsg msg;
    msg.kind = ShardOutMsg::Kind::kWatermark;
    msg.shard = shard;
    msg.time = wm;
    out->Push(std::move(msg));
  };
  out_cb_->on_eos = [out, shard]() {
    ShardOutMsg msg;
    msg.kind = ShardOutMsg::Kind::kEos;
    msg.shard = shard;
    out->Push(std::move(msg));
  };

  port_wm_.assign(config_.port_sources.size(), Timestamp::MinInstant());

  if (config_.registry != nullptr) {
    controller_->AttachMetricsRecursive(config_.registry);
    for (auto& w : windows_) w->AttachMetrics(config_.registry);
    out_cb_->AttachMetrics(config_.registry);
#ifndef GENMIG_NO_METRICS
    // Shard-level lag slot ("s<k>/lag"): watermark lag vs. the router front
    // plus the backpressure the router felt pushing into this shard.
    lag_metrics_ = config_.registry->Register(prefix_ + "lag");
#endif
  }
  if (config_.tracer != nullptr) controller_->SetTracer(config_.tracer);
}

ShardRuntime::~ShardRuntime() { Join(); }

void ShardRuntime::Start() {
  GENMIG_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { Run(); });
}

void ShardRuntime::Join() {
  if (thread_.joinable()) thread_.join();
}

void ShardRuntime::Run() {
  std::deque<ShardInMsg> batch;
  while (in_.PopAll(&batch)) {
    for (const ShardInMsg& msg : batch) Handle(msg);
    batch.clear();
    PublishProgress();
    SampleLag();
  }
  PublishProgress();
  SampleLag();
}

void ShardRuntime::Handle(const ShardInMsg& msg) {
  const PortTarget& target = port_targets_[static_cast<size_t>(msg.port)];
  Timestamp& port_wm = port_wm_[static_cast<size_t>(msg.port)];
  switch (msg.kind) {
    case ShardInMsg::Kind::kBatch:
      if (msg.batch.size() > 0) {
        // Rows arrive in routed (temporal) order: the last start bounds
        // the port's promise.
        const Timestamp last = msg.batch.start(msg.batch.size() - 1);
        if (port_wm < last) port_wm = last;
      }
      target.op->PushBatch(target.port, msg.batch);
      break;
    case ShardInMsg::Kind::kHeartbeat:
      if (port_wm < msg.time) port_wm = msg.time;
      target.op->PushHeartbeat(target.port, msg.time);
      break;
    case ShardInMsg::Kind::kEos:
      port_wm = Timestamp::MaxInstant();  // No further input on this port.
      if (!target.op->input_eos(target.port)) {
        target.op->PushEos(target.port);
      }
      break;
    case ShardInMsg::Kind::kMigrate: {
      const MigrationOrder& order = *msg.order;
      plans_.old_plan = plans_.plan;
      plans_.plan = order.new_plan;
      Box new_box = CompilePlan(*order.new_plan, prefix_);
      new_box.ReorderInputs(order.input_order);
      controller_->StartGenMig(std::move(new_box), order.options);
      break;
    }
    case ShardInMsg::Kind::kCheckpoint: {
      // Marker of a global cut: capture this shard's state at exactly this
      // position in the input FIFO, then forward the marker so the merge can
      // align its own capture against this shard's output FIFO.
      CaptureCheckpoint(msg.capture.get());
      ShardOutMsg out;
      out.kind = ShardOutMsg::Kind::kCheckpoint;
      out.shard = config_.shard_id;
      out.capture = msg.capture;
      config_.out->Push(std::move(out));
      break;
    }
  }
}

void ShardRuntime::CaptureCheckpoint(CkptCapture* capture) {
  // The engine's controller codec: kDirect, or a broadcast GenMig in its
  // parallel phase. The transient phases resolve within a few messages;
  // fail the capture (skip the commit) and let the next cut supersede it.
  if (!controller_->CkptReady()) {
    capture->Fail();
    return;
  }
  std::vector<ckpt::Blob> blobs;
  ckpt::ExportController(prefix_, *controller_, plans_,
                         prefix_.substr(0, prefix_.size() - 1),  // "s<k>"
                         &blobs);
  for (ckpt::Blob& blob : blobs) capture->Add(std::move(blob));
}

Status ShardRuntime::CkptRestore(
    const std::map<std::string, std::string>& blobs) {
  GENMIG_CHECK(!thread_.joinable());
  Status s = ckpt::ImportController(
      prefix_, blobs,
      [this](const LogicalPtr& plan) {
        Box box = CompilePlan(*plan, prefix_);
        box.ReorderInputs(config_.port_sources);
        return box;
      },
      controller_.get(), &plans_);
  if (!s.ok()) return s;
  // Publish the restored progress so coordinator barriers and introspection
  // see the pre-crash counts before the first message batch.
  migrations_completed_.store(controller_->migrations_completed(),
                              std::memory_order_release);
  migration_active_.store(controller_->migration_in_progress(),
                          std::memory_order_release);
  return Status::OK();
}

// Per-shard watermark-lag gauge (ISSUE 9): source front (what the router
// has routed so far) minus this shard's weakest per-port promise. Runs after
// every drained message batch on the shard thread — the single writer of the
// "s<k>/lag" slot; the router-owned queue counters are only copied here.
void ShardRuntime::SampleLag() {
  Timestamp min_wm = Timestamp::MaxInstant();
  for (const Timestamp& wm : port_wm_) {
    if (wm < min_wm) min_wm = wm;
  }
  input_wm_t_.store(min_wm.t, std::memory_order_release);
  input_wm_eps_.store(min_wm.eps, std::memory_order_release);

  int64_t lag = 0;
  const int64_t front =
      config_.source_front == nullptr
          ? Timestamp::MinInstant().t
          : config_.source_front->load(std::memory_order_relaxed);
  if (front != Timestamp::MinInstant().t &&
      min_wm.t != Timestamp::MinInstant().t &&
      min_wm.t != Timestamp::MaxInstant().t && front > min_wm.t) {
    lag = front - min_wm.t;
  }
  watermark_lag_.store(lag, std::memory_order_relaxed);

#ifndef GENMIG_NO_METRICS
  if (lag_metrics_ == nullptr) return;
  const uint64_t ulag = static_cast<uint64_t>(lag);
  lag_metrics_->watermark_lag = ulag;
  if (ulag > lag_metrics_->peak_watermark_lag.load()) {
    lag_metrics_->peak_watermark_lag = ulag;
  }
  lag_metrics_->backpressure_ns = in_.blocked_ns();
  lag_metrics_->backpressure_events = in_.blocked_count();
#endif
}

void ShardRuntime::PublishProgress() {
  const int done = controller_->migrations_completed();
  const bool active = controller_->migration_in_progress();
  const bool changed =
      done != migrations_completed_.load(std::memory_order_relaxed) ||
      active != migration_active_.load(std::memory_order_relaxed);
  if (!changed) return;
  migrations_completed_.store(done, std::memory_order_release);
  migration_active_.store(active, std::memory_order_release);
}

}  // namespace par
}  // namespace genmig
