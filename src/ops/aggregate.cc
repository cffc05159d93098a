#include "ops/aggregate.h"

#include <set>

namespace genmig {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
  }
  return "?";
}

AggregateOp::AggregateOp(std::string name, std::vector<size_t> group_fields,
                     std::vector<AggSpec> aggs)
    : Operator(std::move(name), 1, 1),
      group_fields_(std::move(group_fields)),
      aggs_(std::move(aggs)) {}

void AggregateOp::OnElement(int, const StreamElement& element) {
  events_[element.interval.start].push_back(
      Event{element.tuple, +1, element.epoch});
  events_[element.interval.end].push_back(
      Event{element.tuple, -1, element.epoch});
  state_bytes_ += 2 * element.PayloadBytes();
  state_units_ += 2;
  MetricsStateInsert(2);
}

void AggregateOp::ApplyEvent(const Event& event) {
  GroupState& g = groups_[event.tuple.Project(group_fields_)];
  if (g.sums.empty() && g.ordereds.empty() && g.count == 0) {
    g.sums.assign(aggs_.size(), 0.0);
    g.ordereds.resize(aggs_.size());
  }
  g.count += event.delta;
  GENMIG_CHECK_GE(g.count, 0);
  if (event.delta > 0) {
    g.epochs.insert(event.epoch);
  } else {
    auto it = g.epochs.find(event.epoch);
    GENMIG_CHECK(it != g.epochs.end());
    g.epochs.erase(it);
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    switch (spec.kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        g.sums[i] += event.delta * event.tuple.field(spec.field).AsNumeric();
        break;
      case AggKind::kMin:
      case AggKind::kMax: {
        const Value& v = event.tuple.field(spec.field);
        if (event.delta > 0) {
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
}

void AggregateOp::EmitRegion(Timestamp begin, Timestamp end) {
  if (!(begin < end)) return;
  for (auto it = groups_.begin(); it != groups_.end();) {
    const GroupState& g = it->second;
    if (g.count == 0) {
      it = groups_.erase(it);
      continue;
    }
    Tuple out = it->first;
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggSpec& spec = aggs_[i];
      switch (spec.kind) {
        case AggKind::kCount:
          out.Emplace(g.count);
          break;
        case AggKind::kSum:
          out.Emplace(g.sums[i]);
          break;
        case AggKind::kAvg:
          out.Emplace(g.sums[i] / static_cast<double>(g.count));
          break;
        case AggKind::kMin:
          out.Append(*g.ordereds[i].begin());
          break;
        case AggKind::kMax:
          out.Append(*g.ordereds[i].rbegin());
          break;
      }
    }
    Emit(0, StreamElement(std::move(out), TimeInterval(begin, end),
                          g.epochs.empty() ? 0 : *g.epochs.begin()));
    ++it;
  }
}

void AggregateOp::SweepUpTo(Timestamp bound) {
  while (!events_.empty() && events_.begin()->first <= bound) {
    const Timestamp b = events_.begin()->first;
    if (frontier_ < b) {
      EmitRegion(frontier_, b);
    }
    for (const Event& ev : events_.begin()->second) {
      ApplyEvent(ev);
      state_bytes_ -= ev.tuple.PayloadBytes();
      --state_units_;
      MetricsStateExpire();
    }
    frontier_ = b;
    events_.erase(events_.begin());
  }
}

void AggregateOp::OnWatermarkAdvance() { SweepUpTo(MinInputWatermark()); }

void AggregateOp::OnAllInputsEos() {
  SweepUpTo(Timestamp::MaxInstant());
  // Every start event has a matching end event, so all groups are closed.
  for (const auto& [key, g] : groups_) {
    GENMIG_CHECK_EQ(g.count, 0);
  }
}

Timestamp AggregateOp::OutputWatermark() const {
  // The next emitted region begins at the current frontier.
  return frontier_;
}

Timestamp AggregateOp::MaxStateEnd() const {
  // The largest pending event time is always an end timestamp (every
  // element's end event outlives its start event in the queue).
  if (events_.empty()) return Timestamp::MinInstant();
  return events_.rbegin()->first;
}

void AggregateOp::CkptExport(StateEnc* enc) const {
  enc->U64(events_.size());
  for (const auto& [ts, evs] : events_) {
    enc->Ts(ts);
    enc->U64(evs.size());
    for (const Event& ev : evs) {
      enc->Tup(ev.tuple);
      enc->I64(ev.delta);
      enc->U32(ev.epoch);
    }
  }
  enc->U64(groups_.size());
  for (const auto& [key, g] : groups_) {
    enc->Tup(key);
    enc->I64(g.count);
    enc->U64(g.epochs.size());
    for (uint32_t e : g.epochs) enc->U32(e);
    enc->U64(g.sums.size());
    for (double s : g.sums) enc->F64(s);
    enc->U64(g.ordereds.size());
    for (const auto& vals : g.ordereds) {
      enc->U64(vals.size());
      for (const Value& v : vals) enc->Val(v);
    }
  }
  enc->Ts(frontier_);
  enc->U64(state_bytes_);
  enc->U64(state_units_);
}

bool AggregateOp::CkptImport(StateDec* dec) {
  events_.clear();
  groups_.clear();
  const uint64_t nevents = dec->U64();
  for (uint64_t i = 0; i < nevents && dec->ok(); ++i) {
    const Timestamp ts = dec->Ts();
    std::vector<Event>& evs = events_[ts];
    const uint64_t n = dec->U64();
    for (uint64_t j = 0; j < n && dec->ok(); ++j) {
      Event ev;
      ev.tuple = dec->Tup();
      ev.delta = static_cast<int>(dec->I64());
      ev.epoch = dec->U32();
      evs.push_back(std::move(ev));
    }
  }
  const uint64_t ngroups = dec->U64();
  for (uint64_t i = 0; i < ngroups && dec->ok(); ++i) {
    Tuple key = dec->Tup();
    GroupState g;
    g.count = dec->I64();
    const uint64_t nepochs = dec->U64();
    for (uint64_t j = 0; j < nepochs && dec->ok(); ++j) {
      g.epochs.insert(dec->U32());
    }
    const uint64_t nsums = dec->U64();
    for (uint64_t j = 0; j < nsums && dec->ok(); ++j) {
      g.sums.push_back(dec->F64());
    }
    const uint64_t nord = dec->U64();
    g.ordereds.resize(static_cast<size_t>(nord));
    for (uint64_t j = 0; j < nord && dec->ok(); ++j) {
      const uint64_t nvals = dec->U64();
      for (uint64_t k = 0; k < nvals && dec->ok(); ++k) {
        g.ordereds[static_cast<size_t>(j)].insert(dec->Val());
      }
    }
    groups_.emplace(std::move(key), std::move(g));
  }
  frontier_ = dec->Ts();
  state_bytes_ = static_cast<size_t>(dec->U64());
  state_units_ = static_cast<size_t>(dec->U64());
  return dec->ok();
}

}  // namespace genmig
