#include "stream/disorder.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace genmig {

DisorderBuffer::DisorderBuffer(Options options)
    : options_(options), delta_(options.delta) {
  GENMIG_CHECK_GE(options_.delta, 0);
  GENMIG_CHECK_GE(options_.min_delta, 0);
  GENMIG_CHECK_GE(options_.max_delta, options_.min_delta);
  GENMIG_CHECK_GT(options_.adapt_every, 0u);
  GENMIG_CHECK(options_.quantile > 0.0 && options_.quantile <= 1.0);
  GENMIG_CHECK_GT(options_.headroom, 0.0);
  if (options_.adaptive) {
    delta_ = std::clamp(delta_, options_.min_delta, options_.max_delta);
  }
}

bool DisorderBuffer::Admit(const StreamElement& element,
                           MaterializedStream* out) {
  ++stats_.arrived;
  const Timestamp start = element.interval.start;
  // Arrival lateness relative to the stream's high-water mark, in
  // application-time units; feeds the adaptive-delta quantile.
  const int64_t lateness =
      max_arrived_ == Timestamp::MinInstant()
          ? 0
          : std::max<int64_t>(0, max_arrived_.t - start.t);
  lateness_.Record(static_cast<uint64_t>(lateness));
  if (lateness > stats_.max_lateness) stats_.max_lateness = lateness;
  MaybeAdapt();

  if (start < watermark_) {
    // Later than the bounded allowance: emitting it would violate the
    // heartbeat promise already made at watermark_.
    ++stats_.dropped_late;
    return false;
  }
  ++stats_.admitted;
  heap_.Push(element);
  if (max_arrived_ < start) max_arrived_ = start;
  AdvanceWatermark(out);
  return true;
}

void DisorderBuffer::FlushAll(MaterializedStream* out) {
  heap_.FlushAll([&](const StreamElement& e) {
    ++stats_.released;
    out->push_back(e);
  });
  if (watermark_ < max_arrived_) watermark_ = max_arrived_;
}

void DisorderBuffer::AdvanceWatermark(MaterializedStream* out) {
  if (max_arrived_ == Timestamp::MinInstant()) return;
  // max with the previous value keeps W monotone when an adaptive delta
  // widens between arrivals.
  const Timestamp candidate(max_arrived_.t - delta_, 0);
  if (watermark_ < candidate) watermark_ = candidate;
  heap_.FlushUpTo(watermark_, [&](const StreamElement& e) {
    ++stats_.released;
    out->push_back(e);
  });
}

void DisorderBuffer::MaybeAdapt() {
  if (!options_.adaptive || stats_.arrived % options_.adapt_every != 0) {
    return;
  }
  const double tracked = lateness_.ApproxQuantile(options_.quantile);
  const double target = options_.headroom * tracked;
  const int64_t old_delta = delta_;
  delta_ = std::clamp(static_cast<int64_t>(target), options_.min_delta,
                      options_.max_delta);
  // A tick that clamps back to the current delta is not a retarget: it
  // would only add noise to the stats and the event journal.
  if (delta_ == old_delta) return;
  ++stats_.adaptations;
  if (options_.on_adapt) {
    options_.on_adapt(old_delta, delta_, tracked, stats_.arrived);
  }
}

void DisorderBuffer::CkptExport(StateEnc* enc) const {
  enc->I64(delta_);
  enc->Ts(watermark_);
  enc->Ts(max_arrived_);
  heap_.CkptExport(enc);
  enc->U64(stats_.arrived);
  enc->U64(stats_.admitted);
  enc->U64(stats_.dropped_late);
  enc->U64(stats_.released);
  enc->U64(stats_.adaptations);
  enc->I64(stats_.max_lateness);
  const auto counts = lateness_.counts();
  for (uint64_t c : counts) enc->U64(c);
  enc->U64(lateness_.count());
  enc->U64(lateness_.sum_ns());
  enc->U64(lateness_.max_ns());
}

bool DisorderBuffer::CkptImport(StateDec* dec) {
  delta_ = dec->I64();
  watermark_ = dec->Ts();
  max_arrived_ = dec->Ts();
  if (!heap_.CkptImport(dec)) return false;
  stats_.arrived = dec->U64();
  stats_.admitted = dec->U64();
  stats_.dropped_late = dec->U64();
  stats_.released = dec->U64();
  stats_.adaptations = dec->U64();
  stats_.max_lateness = dec->I64();
  std::array<uint64_t, obs::LatencyHistogram::kBuckets> counts{};
  for (uint64_t& c : counts) c = dec->U64();
  const uint64_t count = dec->U64();
  const uint64_t sum_ns = dec->U64();
  const uint64_t max_ns = dec->U64();
  if (!dec->ok()) return false;
  lateness_.ImportSnapshot(counts, count, sum_ns, max_ns);
  return true;
}

MaterializedStream Reorder(const MaterializedStream& arrivals,
                           DisorderBuffer::Options options) {
  DisorderBuffer buffer(std::move(options));
  MaterializedStream out;
  out.reserve(arrivals.size());
  for (const StreamElement& element : arrivals) buffer.Admit(element, &out);
  buffer.FlushAll(&out);
  return out;
}

}  // namespace genmig
