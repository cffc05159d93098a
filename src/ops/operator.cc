#include "ops/operator.h"

#ifndef GENMIG_NO_METRICS
#include "obs/clock.h"
#endif

#include "common/check.h"

namespace genmig {

Operator::Operator(std::string name, int num_inputs, int num_outputs)
    : name_(std::move(name)),
      inputs_(static_cast<size_t>(num_inputs)),
      outputs_(static_cast<size_t>(num_outputs)) {
  GENMIG_CHECK_GE(num_inputs, 0);
  GENMIG_CHECK_GE(num_outputs, 0);
}

void Operator::ConnectTo(int out_port, Operator* downstream, int in_port) {
  GENMIG_CHECK_GE(out_port, 0);
  GENMIG_CHECK_LT(out_port, num_outputs());
  GENMIG_CHECK(downstream != nullptr);
  GENMIG_CHECK_GE(in_port, 0);
  GENMIG_CHECK_LT(in_port, downstream->num_inputs());
  GENMIG_CHECK(!downstream->inputs_[in_port].connected);
  downstream->inputs_[in_port].connected = true;
  outputs_[out_port].edges.push_back(Edge{downstream, in_port});
}

void Operator::DisconnectAllOutputs() {
  for (int port = 0; port < num_outputs(); ++port) {
    DisconnectOutputPort(port);
  }
}

void Operator::DisconnectOutputPort(int out_port) {
  GENMIG_CHECK_GE(out_port, 0);
  GENMIG_CHECK_LT(out_port, num_outputs());
  OutputState& out = outputs_[out_port];
  for (Edge& e : out.edges) {
    e.op->inputs_[e.port].connected = false;
  }
  out.edges.clear();
}

const std::vector<Operator::Edge>& Operator::edges(int out_port) const {
  GENMIG_CHECK_GE(out_port, 0);
  GENMIG_CHECK_LT(out_port, num_outputs());
  return outputs_[out_port].edges;
}

Timestamp Operator::MinInputWatermark() const {
  Timestamp wm = Timestamp::MaxInstant();
  for (const InputState& in : inputs_) {
    if (in.watermark < wm) wm = in.watermark;
  }
  return wm;
}

void Operator::PushElement(int in_port, const StreamElement& element) {
  GENMIG_CHECK_GE(in_port, 0);
  GENMIG_CHECK_LT(in_port, num_inputs());
  InputState& in = inputs_[in_port];
  GENMIG_CHECK(!in.eos);
  GENMIG_CHECK(element.interval.Valid());
  ++ckpt_version_;
  if (in.relaxed_ordering) {
    if (in.watermark < element.interval.start) {
      in.watermark = element.interval.start;
    }
  } else {
    // Physical-stream ordering invariant (Definition 3).
    GENMIG_CHECK(in.watermark <= element.interval.start);
    in.watermark = element.interval.start;
  }
#ifndef GENMIG_NO_METRICS
  // Counters are exact; latency and state gauges are sampled every
  // kSampleEvery-th push to keep clock reads and virtual state probes off
  // the common path (overhead contract in obs/metrics.h). Sampled pushes use
  // the shared MonotonicNowNs domain so span starts align with migration
  // trace records in the Perfetto export.
  bool sampled = false;
  uint64_t push_start_ns = 0;
  if (metrics_ != nullptr) {
    sampled =
        (metrics_->elements_in++ & obs::MetricsRegistry::kSampleMask) == 0;
    if (sampled) push_start_ns = obs::MonotonicNowNs();
  }
  current_ingress_ns_ = element.ingress_ns;
#endif
  OnElement(in_port, element);
  OnWatermarkAdvance();
  PublishProgress();
#ifndef GENMIG_NO_METRICS
  current_ingress_ns_ = 0;
  if (sampled) {
    const uint64_t ns = obs::MonotonicNowNs() - push_start_ns;
    metrics_->push_ns.Record(ns);
    metrics_->push_spans.Record(push_start_ns, ns);
    metrics_->SampleState(StateUnits(), StateBytes(), QueueDepth());
  }
#endif
}

void Operator::PushBatch(int in_port, const TupleBatch& batch) {
  if (batch.empty()) return;
  GENMIG_CHECK_GE(in_port, 0);
  GENMIG_CHECK_LT(in_port, num_inputs());
  InputState& in = inputs_[in_port];
  GENMIG_CHECK(!in.eos);
  ++ckpt_version_;
  // Batch-level ordering invariant: internally non-decreasing, and the first
  // row must respect the port watermark (Definition 3, amortized over the
  // batch instead of checked per push).
  GENMIG_CHECK(batch.OrderedByStart());
  const Timestamp first = batch.start(0);
  const Timestamp last = batch.start(batch.size() - 1);
  if (!in.relaxed_ordering) {
    GENMIG_CHECK(in.watermark <= first);
  }
#ifndef GENMIG_NO_METRICS
  // One clock read pair per batch (not per row): recorded as the mean
  // per-element cost so the calibrator's cpu_ns_per_element stays in the
  // same unit as the scalar path. The span covers the whole batch.
  uint64_t push_start_ns = 0;
  if (metrics_ != nullptr) {
    metrics_->elements_in += batch.size();
    ++metrics_->batches_in;
    push_start_ns = obs::MonotonicNowNs();
  }
#endif
  OnBatch(in_port, batch);
  if (in.watermark < last) in.watermark = last;
  OnWatermarkAdvance();
  PublishProgress();
#ifndef GENMIG_NO_METRICS
  if (metrics_ != nullptr) {
    const uint64_t ns = obs::MonotonicNowNs() - push_start_ns;
    metrics_->push_ns.Record(ns / batch.size());
    metrics_->push_spans.Record(push_start_ns, ns);
    metrics_->SampleState(StateUnits(), StateBytes(), QueueDepth());
  }
#endif
}

void Operator::OnBatch(int in_port, const TupleBatch& batch) {
  // Scalar fallback: element-at-a-time semantics, identical to a sequence of
  // PushElement calls except that heartbeat publication and metrics happen
  // once per batch (PushBatch's epilogue).
  InputState& in = inputs_[in_port];
  for (size_t i = 0; i < batch.size(); ++i) {
    const StreamElement element = batch.Row(i);
    if (in.watermark < element.interval.start) {
      in.watermark = element.interval.start;
    }
#ifndef GENMIG_NO_METRICS
    current_ingress_ns_ = element.ingress_ns;
#endif
    OnElement(in_port, element);
    OnWatermarkAdvance();
  }
#ifndef GENMIG_NO_METRICS
  current_ingress_ns_ = 0;
#endif
}

void Operator::PushHeartbeat(int in_port, Timestamp watermark) {
  GENMIG_CHECK_GE(in_port, 0);
  GENMIG_CHECK_LT(in_port, num_inputs());
  InputState& in = inputs_[in_port];
  if (in.eos || watermark <= in.watermark) return;  // Stale; nothing to do.
  ++ckpt_version_;
#ifndef GENMIG_NO_METRICS
  if (metrics_ != nullptr) ++metrics_->heartbeats_in;
#endif
  in.watermark = watermark;
  OnWatermarkAdvance();
  PublishProgress();
}

void Operator::PushEos(int in_port) {
  GENMIG_CHECK_GE(in_port, 0);
  GENMIG_CHECK_LT(in_port, num_inputs());
  InputState& in = inputs_[in_port];
  GENMIG_CHECK(!in.eos);
  ++ckpt_version_;
  OnInputEos(in_port);
  in.eos = true;
  // A finished input can never deliver another element, so it no longer
  // constrains the minimum watermark.
  in.watermark = Timestamp::MaxInstant();
  ++eos_count_;
  OnWatermarkAdvance();
  if (all_inputs_eos()) {
    OnAllInputsEos();
  }
  PublishProgress();
  if (all_inputs_eos()) {
    PropagateEos();
  }
}

void Operator::Emit(int out_port, const StreamElement& element) {
  GENMIG_CHECK_GE(out_port, 0);
  GENMIG_CHECK_LT(out_port, num_outputs());
  GENMIG_CHECK(!eos_emitted_);
  GENMIG_CHECK(element.interval.Valid());
  OutputState& out = outputs_[out_port];
  if (!out.relaxed_ordering) {
    // This operator must itself produce an ordered physical stream, and must
    // not contradict a heartbeat it already published.
    GENMIG_CHECK(out.last_emitted <= element.interval.start);
    GENMIG_CHECK(out.last_heartbeat <= element.interval.start);
  }
  if (out.last_emitted < element.interval.start) {
    out.last_emitted = element.interval.start;
  }
  out.anything_emitted = true;
#ifndef GENMIG_NO_METRICS
  if (metrics_ != nullptr) ++metrics_->elements_out;
  // Latency attribution: results constructed inside the operator inherit the
  // in-flight push's ingress stamp. Only stamped pushes (one in kSampleEvery)
  // pay the element copy; verbatim pass-throughs already carry their stamp.
  if (element.ingress_ns == 0 && current_ingress_ns_ != 0) {
    StreamElement stamped = element;
    stamped.ingress_ns = current_ingress_ns_;
    for (const Edge& e : out.edges) {
      e.op->PushElement(e.port, stamped);
    }
    return;
  }
#endif
  for (const Edge& e : out.edges) {
    e.op->PushElement(e.port, element);
  }
}

void Operator::EmitBatch(int out_port, const TupleBatch& batch) {
  if (batch.empty()) return;
  GENMIG_CHECK_GE(out_port, 0);
  GENMIG_CHECK_LT(out_port, num_outputs());
  GENMIG_CHECK(!eos_emitted_);
  GENMIG_CHECK(batch.OrderedByStart());
  OutputState& out = outputs_[out_port];
  const Timestamp first = batch.start(0);
  const Timestamp last = batch.start(batch.size() - 1);
  if (!out.relaxed_ordering) {
    GENMIG_CHECK(out.last_emitted <= first);
    GENMIG_CHECK(out.last_heartbeat <= first);
  }
  if (out.last_emitted < last) out.last_emitted = last;
  out.anything_emitted = true;
#ifndef GENMIG_NO_METRICS
  if (metrics_ != nullptr) metrics_->elements_out += batch.size();
#endif
  for (const Edge& e : out.edges) {
    e.op->PushBatch(e.port, batch);
  }
}

void Operator::EmitHeartbeat(int out_port, Timestamp watermark) {
  GENMIG_CHECK_GE(out_port, 0);
  GENMIG_CHECK_LT(out_port, num_outputs());
  OutputState& out = outputs_[out_port];
  if (watermark <= out.last_heartbeat) return;
  out.last_heartbeat = watermark;
  for (const Edge& e : out.edges) {
    e.op->PushHeartbeat(e.port, watermark);
  }
}

void Operator::PublishProgress() {
  if (eos_emitted_) return;
  Timestamp wm = OutputWatermark();
  if (wm == Timestamp::MaxInstant()) return;  // Reserved for EOS.
  for (int port = 0; port < num_outputs(); ++port) {
    EmitHeartbeat(port, wm);
  }
}

void Operator::PropagateEos() {
  if (eos_emitted_) return;
  eos_emitted_ = true;
  for (OutputState& out : outputs_) {
    for (const Edge& e : out.edges) {
      e.op->PushEos(e.port);
    }
  }
}

}  // namespace genmig
