#include "ops/stateless.h"

#include "common/check.h"

namespace genmig {

StatelessChain::Stage StatelessChain::Select(Predicate predicate,
                                             BatchPredicate batch_predicate) {
  Stage s;
  s.kind = Stage::Kind::kSelect;
  s.predicate = std::move(predicate);
  s.batch_predicate = std::move(batch_predicate);
  return s;
}

StatelessChain::Stage StatelessChain::Project(std::vector<size_t> fields) {
  Stage s;
  s.kind = Stage::Kind::kProject;
  s.fields = std::move(fields);
  return s;
}

StatelessChain::Stage StatelessChain::Window(Duration window) {
  Stage s;
  s.kind = Stage::Kind::kWindow;
  s.window = window;
  return s;
}

StatelessChain::StatelessChain(std::string name, std::vector<Stage> stages)
    : Operator(std::move(name), 1, 1), stages_(std::move(stages)) {
  GENMIG_CHECK_GE(stages_.size(), 1u);
  for (const Stage& s : stages_) {
    switch (s.kind) {
      case Stage::Kind::kSelect:
        GENMIG_CHECK(s.predicate != nullptr);
        break;
      case Stage::Kind::kProject:
        break;
      case Stage::Kind::kWindow:
        GENMIG_CHECK_GE(s.window, 0);
        window_ += s.window;
        break;
    }
  }
}

void StatelessChain::OnElement(int, const StreamElement& element) {
  // Selections ahead of the first projection read the pushed tuple in place.
  size_t i = 0;
  for (; i < stages_.size(); ++i) {
    const Stage& s = stages_[i];
    if (s.kind == Stage::Kind::kProject) break;
    if (s.kind == Stage::Kind::kSelect && !s.predicate(element.tuple)) return;
  }
  if (i == stages_.size()) {
    // No projection: forward the pushed element itself, without a copy,
    // unless a window stage extends its interval.
    if (window_ == 0) {
      Emit(0, element);
      return;
    }
    StreamElement out = element;
    out.interval.end = out.interval.end + window_;
    Emit(0, out);
    return;
  }
  Tuple tuple = element.tuple.Project(stages_[i].fields);
  for (++i; i < stages_.size(); ++i) {
    const Stage& s = stages_[i];
    if (s.kind == Stage::Kind::kSelect) {
      if (!s.predicate(tuple)) return;
    } else if (s.kind == Stage::Kind::kProject) {
      tuple = tuple.Project(s.fields);
    }
  }
  StreamElement out(std::move(tuple), element.interval, element.epoch);
  out.interval.end = out.interval.end + window_;
  out.ingress_ns = element.ingress_ns;
  Emit(0, out);
}

void StatelessChain::OnBatch(int, const TupleBatch& batch) {
  // Selections and projections ping-pong the surviving rows between two
  // scratch batches; the summed window extension is applied once at the end.
  const TupleBatch* cur = &batch;
  int flip = 0;
  for (const Stage& s : stages_) {
    switch (s.kind) {
      case Stage::Kind::kWindow:
        continue;
      case Stage::Kind::kSelect: {
        keep_.assign(cur->size(), 0);
        if (s.batch_predicate) {
          s.batch_predicate(*cur, &keep_);
        } else {
          for (size_t i = 0; i < cur->size(); ++i) {
            keep_[i] = s.predicate(cur->RowTuple(i)) ? 1 : 0;
          }
        }
        TupleBatch& next = scratch_[flip];
        flip ^= 1;
        next.Clear();
        next.Reserve(cur->size());
        next.AppendFilteredFrom(*cur, keep_);
        cur = &next;
        break;
      }
      case Stage::Kind::kProject: {
        TupleBatch& next = scratch_[flip];
        flip ^= 1;
        next.Clear();
        next.Reserve(cur->size());
        next.AppendColumnsFrom(*cur, s.fields);
        cur = &next;
        break;
      }
    }
    if (cur->empty()) return;  // Everything selected away.
  }
  if (window_ != 0) {
    if (cur == &batch) {
      // No stage copied the rows: the input is const, so adjust a copy.
      scratch_[flip] = batch;
      cur = &scratch_[flip];
    }
    TupleBatch& mut = scratch_[cur == &scratch_[0] ? 0 : 1];
    for (size_t i = 0; i < mut.size(); ++i) {
      mut.set_end(i, mut.end(i) + window_);
    }
  }
  EmitBatch(0, *cur);
}

}  // namespace genmig
