#include "pn/pn_ops.h"

#include <algorithm>

namespace genmig {

// --- PnWindow ----------------------------------------------------------------

void PnWindow::OnElement(int, const PnElement& element) {
  // Raw inputs are positive-only; the window generates the retractions.
  GENMIG_CHECK(element.is_plus());
  FlushMinusUpTo(element.t);
  Emit(0, element);
  pending_minus_.emplace_back(element.tuple, element.t + (window_ + 1),
                              Sign::kMinus, element.epoch);
}

void PnWindow::FlushMinusUpTo(Timestamp bound) {
  while (!pending_minus_.empty() && pending_minus_.front().t <= bound) {
    Emit(0, pending_minus_.front());
    pending_minus_.pop_front();
  }
}

void PnWindow::OnWatermarkAdvance() { FlushMinusUpTo(MinInputWatermark()); }

void PnWindow::OnAllInputsEos() { FlushMinusUpTo(Timestamp::MaxInstant()); }

Timestamp PnWindow::OutputWatermark() const {
  // Pending negatives above the input watermark are future emissions.
  Timestamp wm = MinInputWatermark();
  if (!pending_minus_.empty() && pending_minus_.front().t < wm) {
    wm = pending_minus_.front().t;
  }
  return wm;
}

// --- PnJoin -----------------------------------------------------------------

size_t PnJoin::StateUnits() const {
  return live_count_[0] + live_count_[1] + queue_[0].size() +
         queue_[1].size();
}

void PnJoin::OnElement(int in_port, const PnElement& element) {
  queue_[in_port].push_back(element);
}

void PnJoin::Drain(Timestamp bound) {
  while (true) {
    int pick = -1;
    for (int port = 0; port < 2; ++port) {
      if (queue_[port].empty()) continue;
      const PnElement& front = queue_[port].front();
      if (!(front.t < bound)) continue;
      if (pick < 0) {
        pick = port;
        continue;
      }
      const PnElement& best = queue_[pick].front();
      // Global timestamp order; negatives first at equal instants.
      if (front.t < best.t ||
          (front.t == best.t && front.sign == Sign::kMinus &&
           best.sign == Sign::kPlus)) {
        pick = port;
      }
    }
    if (pick < 0) return;
    const PnElement element = queue_[pick].front();
    queue_[pick].pop_front();
    Process(pick, element);
  }
}

void PnJoin::Process(int port, const PnElement& element) {
  const int other = 1 - port;
  uint32_t own_epoch = element.epoch;
  if (element.is_plus()) {
    live_[port][element.tuple].push_back(element.epoch);
    ++live_count_[port];
  } else {
    auto it = live_[port].find(element.tuple);
    GENMIG_CHECK(it != live_[port].end() && !it->second.empty());
    own_epoch = std::min(own_epoch, it->second.front());
    it->second.erase(it->second.begin());
    if (it->second.empty()) live_[port].erase(it);
    --live_count_[port];
  }
  for (const auto& [tuple, epochs] : live_[other]) {
    const Tuple& left = port == 0 ? element.tuple : tuple;
    const Tuple& right = port == 0 ? tuple : element.tuple;
    if (!predicate_(left, right)) continue;
    for (uint32_t ep : epochs) {
      Emit(0, PnElement(Tuple::Concat(left, right), element.t, element.sign,
                        std::min(own_epoch, ep)));
    }
  }
}

void PnJoin::OnWatermarkAdvance() { Drain(MinInputWatermark()); }

void PnJoin::OnAllInputsEos() {
  // Live entries may remain when the stream is cut mid-validity (e.g. an
  // abandoned old box during a PN migration); their retractions belong to
  // whoever continues the computation.
  Drain(Timestamp::MaxInstant());
}

Timestamp PnJoin::OutputWatermark() const {
  // Queued elements below the watermark are still unprocessed emissions.
  Timestamp wm = MinInputWatermark();
  for (int port = 0; port < 2; ++port) {
    if (!queue_[port].empty() && queue_[port].front().t < wm) {
      wm = queue_[port].front().t;
    }
  }
  return wm;
}

// --- PnAggregate ---------------------------------------------------------------

PnAggregate::PnAggregate(std::string name, std::vector<size_t> group_fields,
                         std::vector<AggSpec> aggs)
    : PnOperator(std::move(name), 1, 1),
      group_fields_(std::move(group_fields)),
      aggs_(std::move(aggs)) {}

Tuple PnAggregate::BuildRow(const Tuple& key, const GroupState& g) const {
  Tuple row = key;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    switch (aggs_[i].kind) {
      case AggKind::kCount:
        row.Emplace(g.count);
        break;
      case AggKind::kSum:
        row.Emplace(g.sums[i]);
        break;
      case AggKind::kAvg:
        row.Emplace(g.sums[i] / static_cast<double>(g.count));
        break;
      case AggKind::kMin:
        row.Append(*g.ordereds[i].begin());
        break;
      case AggKind::kMax:
        row.Append(*g.ordereds[i].rbegin());
        break;
    }
  }
  return row;
}

void PnAggregate::OnElement(int, const PnElement& element) {
  const Tuple key = element.tuple.Project(group_fields_);
  GroupState& g = groups_[key];
  if (g.sums.empty() && g.ordereds.empty() && g.count == 0) {
    g.sums.assign(aggs_.size(), 0.0);
    g.ordereds.resize(aggs_.size());
  }
  const int delta = element.is_plus() ? 1 : -1;
  g.count += delta;
  GENMIG_CHECK_GE(g.count, 0);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    switch (spec.kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        g.sums[i] += delta * element.tuple.field(spec.field).AsNumeric();
        break;
      case AggKind::kMin:
      case AggKind::kMax: {
        const Value& v = element.tuple.field(spec.field);
        if (delta > 0) {
          g.ordereds[i].insert(v);
        } else {
          auto it = g.ordereds[i].find(v);
          GENMIG_CHECK(it != g.ordereds[i].end());
          g.ordereds[i].erase(it);
        }
        break;
      }
    }
  }
  // Retract the previous row (if any), assert the new one (if non-empty).
  if (g.has_emitted) {
    Emit(0, PnElement(g.last_row, element.t, Sign::kMinus, element.epoch));
  }
  if (g.count > 0) {
    g.last_row = BuildRow(key, g);
    g.has_emitted = true;
    Emit(0, PnElement(g.last_row, element.t, Sign::kPlus, element.epoch));
  } else {
    groups_.erase(key);
  }
}

// --- PnDedup ----------------------------------------------------------------

void PnDedup::OnElement(int, const PnElement& element) {
  if (element.is_plus()) {
    int64_t& count = counts_[element.tuple];
    if (++count == 1) Emit(0, element);
    return;
  }
  auto it = counts_.find(element.tuple);
  GENMIG_CHECK(it != counts_.end() && it->second > 0);
  if (--it->second == 0) {
    counts_.erase(it);
    Emit(0, element);
  }
}

}  // namespace genmig
