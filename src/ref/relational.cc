#include "ref/relational.h"

#include <algorithm>
#include <map>
#include <set>

namespace genmig {
namespace ref {

Bag Select(const Bag& input, const Expr& predicate) {
  Bag out;
  for (const Tuple& t : input) {
    if (predicate.EvalBool(t)) out.push_back(t);
  }
  return out;
}

Bag Project(const Bag& input, const std::vector<size_t>& fields) {
  Bag out;
  out.reserve(input.size());
  for (const Tuple& t : input) out.push_back(t.Project(fields));
  return out;
}

Bag Join(const Bag& left, const Bag& right, const Expr* predicate,
         const std::optional<std::pair<size_t, size_t>>& equi) {
  Bag out;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      if (equi.has_value() && !(l.field(equi->first) == r.field(equi->second))) {
        continue;
      }
      Tuple joined = Tuple::Concat(l, r);
      if (predicate != nullptr && !predicate->EvalBool(joined)) continue;
      out.push_back(std::move(joined));
    }
  }
  return out;
}

Bag Dedup(const Bag& input) {
  std::set<Tuple> seen;
  Bag out;
  for (const Tuple& t : input) {
    if (seen.insert(t).second) out.push_back(t);
  }
  return out;
}

Bag GroupAggregate(const Bag& input, const std::vector<size_t>& group_fields,
                   const std::vector<AggSpec>& aggs) {
  std::map<Tuple, Bag> groups;
  for (const Tuple& t : input) {
    groups[t.Project(group_fields)].push_back(t);
  }
  Bag out;
  for (const auto& [key, members] : groups) {
    Tuple row = key;
    for (const AggSpec& spec : aggs) {
      switch (spec.kind) {
        case AggKind::kCount:
          row.Emplace(static_cast<int64_t>(members.size()));
          break;
        case AggKind::kSum:
        case AggKind::kAvg: {
          double sum = 0;
          for (const Tuple& m : members) {
            sum += m.field(spec.field).AsNumeric();
          }
          if (spec.kind == AggKind::kAvg) {
            sum /= static_cast<double>(members.size());
          }
          row.Emplace(sum);
          break;
        }
        case AggKind::kMin:
        case AggKind::kMax: {
          Value best = members[0].field(spec.field);
          for (const Tuple& m : members) {
            const Value& v = m.field(spec.field);
            if (spec.kind == AggKind::kMin ? v < best : best < v) best = v;
          }
          row.Append(best);
          break;
        }
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

Bag Union(const Bag& left, const Bag& right) {
  Bag out = left;
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Bag Difference(const Bag& left, const Bag& right) {
  std::map<Tuple, int64_t> counts;
  for (const Tuple& t : right) ++counts[t];
  Bag out;
  for (const Tuple& t : left) {
    auto it = counts.find(t);
    if (it != counts.end() && it->second > 0) {
      --it->second;
      continue;
    }
    out.push_back(t);
  }
  return out;
}

bool BagsEqual(const Bag& a, const Bag& b) {
  if (a.size() != b.size()) return false;
  Bag sa = a;
  Bag sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

std::string BagToString(const Bag& bag) {
  Bag sorted = bag;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ", ";
    out += sorted[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace ref
}  // namespace genmig
