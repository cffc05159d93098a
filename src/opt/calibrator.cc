#include "opt/calibrator.h"

#include <vector>

namespace genmig {
namespace {

void AppendSignature(const LogicalNode& n, std::string* out) {
  using Kind = LogicalNode::Kind;
  switch (n.kind) {
    case Kind::kSource:
      out->append("S:").append(n.source_name);
      return;  // Leaf: no child list.
    case Kind::kWindow:
      if (n.window_kind == LogicalNode::WindowKind::kCount) {
        out->append("Wr").append(std::to_string(n.window_rows));
      } else {
        out->append("Wt").append(std::to_string(n.window));
      }
      break;
    case Kind::kSelect:
      out->append("F[");
      if (n.predicate != nullptr) out->append(n.predicate->ToString());
      out->push_back(']');
      break;
    case Kind::kProject:
      out->append("P[");
      for (size_t f : n.project_fields) {
        out->append(std::to_string(f)).push_back(',');
      }
      out->push_back(']');
      break;
    case Kind::kJoin:
      out->append("J[");
      if (n.equi_keys.has_value()) {
        out->append(std::to_string(n.equi_keys->first))
            .append("=")
            .append(std::to_string(n.equi_keys->second));
      }
      if (n.predicate != nullptr) {
        out->push_back('|');
        out->append(n.predicate->ToString());
      }
      out->push_back(']');
      break;
    case Kind::kDedup:
      out->push_back('D');
      break;
    case Kind::kAggregate:
      out->append("A[");
      for (size_t g : n.group_fields) {
        out->append(std::to_string(g)).push_back(',');
      }
      out->push_back(';');
      for (const AggSpec& a : n.aggs) {
        out->append(std::to_string(static_cast<int>(a.kind)))
            .append(":")
            .append(std::to_string(a.field))
            .push_back(',');
      }
      out->push_back(']');
      break;
    case Kind::kUnion:
      out->push_back('U');
      break;
    case Kind::kDifference:
      out->push_back('M');  // Minus.
      break;
  }
  out->push_back('(');
  for (const LogicalPtr& child : n.children) {
    AppendSignature(*child, out);
    out->push_back(',');
  }
  out->push_back(')');
}

void PostOrder(const LogicalNode& n, std::vector<const LogicalNode*>* out) {
  for (const LogicalPtr& child : n.children) PostOrder(*child, out);
  out->push_back(&n);
}

}  // namespace

std::string PlanSignature(const LogicalNode& node) {
  std::string sig;
  AppendSignature(node, &sig);
  return sig;
}

void CostCalibrator::ObserveCounters(const std::string& key,
                                     uint64_t elements_in,
                                     uint64_t elements_out,
                                     uint64_t state_bytes,
                                     double push_mean_ns, Timestamp now) {
  AdvanceTime(now);
  Slot& slot = slots_[key];
  slot.obs.state_bytes = static_cast<double>(state_bytes);
  // Before the first rate sample the latency reading is a plain gauge; from
  // then on it is EWMA-folded below, alongside the rates, so one noisy
  // reading (or a fresh instance after a migration) cannot yank the
  // calibrated CPU cost around.
  if (slot.obs.samples == 0) slot.obs.push_mean_ns = push_mean_ns;

  const bool monotone = slot.have_baseline && elements_in >= slot.last_in &&
                        elements_out >= slot.last_out;
  if (monotone && now > slot.last_read) {
    const double span = static_cast<double>(now.t - slot.last_read.t);
    if (span >= static_cast<double>(options_.min_sample_span)) {
      const uint64_t din = elements_in - slot.last_in;
      const uint64_t dout = elements_out - slot.last_out;
      const bool first = slot.obs.samples == 0;
      Fold(&slot.obs.in_rate, static_cast<double>(din) / span, first);
      Fold(&slot.obs.out_rate, static_cast<double>(dout) / span, first);
      if (din > 0) {
        Fold(&slot.obs.selectivity,
             static_cast<double>(dout) / static_cast<double>(din), first);
      }
      if (push_mean_ns > 0.0) {
        Fold(&slot.obs.push_mean_ns, push_mean_ns,
             first || slot.obs.push_mean_ns <= 0.0);
      }
      ++slot.obs.samples;
      slot.obs.last_update = now;
    } else {
      return;  // Keep the baseline; the span is still accumulating.
    }
  }
  // Non-monotone counters mean a different operator instance now feeds this
  // key (migration swapped the box): re-baseline, no sample.
  slot.last_in = elements_in;
  slot.last_out = elements_out;
  slot.last_read = now;
  slot.have_baseline = true;
}

size_t CostCalibrator::ObservePlanBox(const LogicalNode& stripped,
                                      const Box& box, Timestamp now) {
  AdvanceTime(now);
  std::vector<const LogicalNode*> nodes;
  PostOrder(stripped, &nodes);
  // The output operator implements the root, the last node in post-order;
  // any other plan is not the one the box was compiled from.
  const std::vector<size_t>& op_nodes = box.op_nodes();
  if (op_nodes.empty() || op_nodes.back() + 1 != nodes.size()) return 0;
  size_t read = 0;
#ifndef GENMIG_NO_METRICS
  std::map<std::string, int> occurrences;
  for (size_t i = 0; i < op_nodes.size(); ++i) {
    std::string key = PlanSignature(*nodes[op_nodes[i]]);
    // Duplicate subplans in one tree (self-joins) get distinct keys so their
    // counters are not conflated; Lookup serves the first occurrence.
    const int occurrence = occurrences[key]++;
    if (occurrence > 0) key.append("@").append(std::to_string(occurrence));
    const obs::OperatorMetrics* m = box.ops()[i]->metrics();
    if (m == nullptr) continue;  // Slot missing; let the key age out.
    ObserveCounters(key, m->elements_in, m->elements_out, m->state_bytes,
                    m->push_ns.MeanNs(), now);
    ++read;
  }
#endif
  return read;
}

const CostCalibrator::Observation* CostCalibrator::Fresh(
    const std::string& key, Timestamp as_of) const {
  auto it = slots_.find(key);
  if (it == slots_.end()) return nullptr;
  const Observation& obs = it->second.obs;
  if (obs.samples == 0) return nullptr;
  if (as_of.t - obs.last_update.t > options_.stale_after) return nullptr;
  return &obs;
}

const CostCalibrator::Observation* CostCalibrator::Raw(
    const std::string& key) const {
  auto it = slots_.find(key);
  return it == slots_.end() ? nullptr : &it->second.obs;
}

StatsCatalog CostCalibrator::Calibrated(const StatsCatalog& base) const {
  StatsCatalog out = base;
  for (const auto& [name, stats] : base.sources()) {
    const Observation* obs = Fresh("S:" + name, last_observation_);
    if (obs == nullptr) continue;
    SourceStats updated = stats;
    updated.rate = obs->in_rate;
    out.SetSource(name, std::move(updated));
  }
  return out;
}

void CostCalibrator::CkptExport(StateEnc* enc) const {
  enc->U64(slots_.size());
  for (const auto& [key, slot] : slots_) {
    enc->Str(key);
    enc->U64(slot.last_in);
    enc->U64(slot.last_out);
    enc->Ts(slot.last_read);
    enc->Bool(slot.have_baseline);
    enc->F64(slot.obs.in_rate);
    enc->F64(slot.obs.out_rate);
    enc->F64(slot.obs.selectivity);
    enc->F64(slot.obs.state_bytes);
    enc->F64(slot.obs.push_mean_ns);
    enc->U64(slot.obs.samples);
    enc->Ts(slot.obs.last_update);
  }
  enc->Ts(last_observation_);
}

bool CostCalibrator::CkptImport(StateDec* dec) {
  slots_.clear();
  const uint64_t n = dec->U64();
  for (uint64_t i = 0; i < n && dec->ok(); ++i) {
    std::string key = dec->Str();
    Slot slot;
    slot.last_in = dec->U64();
    slot.last_out = dec->U64();
    slot.last_read = dec->Ts();
    slot.have_baseline = dec->Bool();
    slot.obs.in_rate = dec->F64();
    slot.obs.out_rate = dec->F64();
    slot.obs.selectivity = dec->F64();
    slot.obs.state_bytes = dec->F64();
    slot.obs.push_mean_ns = dec->F64();
    slot.obs.samples = dec->U64();
    slot.obs.last_update = dec->Ts();
    slots_.emplace(std::move(key), slot);
  }
  last_observation_ = dec->Ts();
  return dec->ok();
}

const PlanObservations::NodeObservation* CostCalibrator::Lookup(
    const LogicalNode& node) const {
  const Observation* obs = Fresh(PlanSignature(node), last_observation_);
  if (obs == nullptr) return nullptr;
  lookup_scratch_.out_rate = obs->out_rate;
  lookup_scratch_.selectivity = obs->selectivity;
  lookup_scratch_.in_rate = obs->in_rate;
  lookup_scratch_.cpu_ns_per_element =
      options_.use_cpu_cost ? obs->push_mean_ns : 0.0;
  return &lookup_scratch_;
}

}  // namespace genmig
