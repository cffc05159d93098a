#include "ckpt/box_codec.h"

#include "ckpt/plan_codec.h"
#include "stream/state_codec.h"

namespace genmig {
namespace ckpt {

namespace {

std::string OpKey(const std::string& prefix, size_t i, const Operator& op) {
  return prefix + std::to_string(i) + ":" + op.name();
}

void ExportBoxOps(const std::string& prefix, const Box& box,
                  const std::string& group, const OpEncoder& encode,
                  std::vector<Blob>* blobs) {
  for (size_t i = 0; i < box.ops().size(); ++i) {
    const Operator* op = box.ops()[i].get();
    if (!op->CkptStateful()) continue;
    Blob blob;
    blob.key = OpKey(prefix, i, *op);
    blob.group = group;
    if (encode) {
      blob.bytes = encode(blob.key, *op);
    } else {
      StateEnc enc;
      op->CkptExport(&enc);
      blob.bytes = enc.Take();
    }
    blobs->push_back(std::move(blob));
  }
}

Status ImportBoxOps(const std::string& prefix, const Box& box,
                    const std::map<std::string, std::string>& blobs) {
  for (size_t i = 0; i < box.ops().size(); ++i) {
    Operator* op = box.ops()[i].get();
    if (!op->CkptStateful()) continue;
    const std::string key = OpKey(prefix, i, *op);
    auto it = blobs.find(key);
    if (it == blobs.end()) {
      return Status::DataLoss("checkpoint lacks operator state '" + key +
                              "' (topology mismatch?)");
    }
    StateDec dec(it->second);
    if (!op->CkptImport(&dec) || !dec.ok()) {
      return Status::DataLoss("operator state '" + key + "' is corrupt");
    }
  }
  return Status::OK();
}

Status DecodePlanBlob(const std::map<std::string, std::string>& blobs,
                      const std::string& key, LogicalPtr* plan) {
  auto it = blobs.find(key);
  if (it == blobs.end()) {
    return Status::DataLoss("checkpoint lacks '" + key + "'");
  }
  Result<LogicalPtr> decoded = PlanFromBytes(it->second);
  if (!decoded.ok()) return decoded.status();
  *plan = decoded.value();
  return Status::OK();
}

}  // namespace

void ExportController(const std::string& prefix,
                      const MigrationController& controller,
                      const HostedPlans& plans, const std::string& group,
                      std::vector<Blob>* blobs, const OpEncoder& encode) {
  GENMIG_CHECK(controller.CkptReady());
  auto add = [&](const std::string& name, std::string bytes) {
    blobs->push_back(Blob{prefix + name, std::move(bytes), group});
  };
  {
    StateEnc enc;
    controller.CkptExportControl(&enc);
    add("ctl", enc.Take());
  }
  add("plan", PlanToBytes(plans.plan));
  const bool in_flight =
      controller.phase() == MigrationController::Phase::kParallel;
  if (in_flight) {
    GENMIG_CHECK(plans.old_plan != nullptr);
    add("oldplan", PlanToBytes(plans.old_plan));
  }
  ExportBoxOps(prefix + "box/", controller.active_box(), group, encode,
               blobs);
  if (!in_flight) return;
  ExportBoxOps(prefix + "nbox/", controller.new_box(), group, encode, blobs);
  const Operator* merge = controller.merge_op();
  if (merge != nullptr && merge->CkptStateful()) {
    StateEnc enc;
    merge->CkptExport(&enc);
    add("merge", enc.Take());
  }
}

Status ImportController(const std::string& prefix,
                        const std::map<std::string, std::string>& blobs,
                        const PlanCompiler& compile,
                        MigrationController* controller, HostedPlans* plans) {
  auto ctl = blobs.find(prefix + "ctl");
  if (ctl == blobs.end()) {
    return Status::DataLoss("checkpoint lacks '" + prefix + "ctl'");
  }
  StateDec dec(ctl->second);
  MigrationController::CkptControl control;
  if (!MigrationController::CkptDecodeControl(&dec, &control)) {
    return Status::DataLoss("'" + prefix + "ctl' is corrupt");
  }
  *plans = HostedPlans{};
  Status s = DecodePlanBlob(blobs, prefix + "plan", &plans->plan);
  if (!s.ok()) return s;
  // The hosted box runs the OLD plan while a migration is in flight; the
  // recorded `plan` is already the migration target then.
  const bool in_flight =
      control.phase == MigrationController::Phase::kParallel;
  if (in_flight) {
    s = DecodePlanBlob(blobs, prefix + "oldplan", &plans->old_plan);
    if (!s.ok()) return s;
  }
  controller->ReplaceActiveBox(
      compile(in_flight ? plans->old_plan : plans->plan));
  if (in_flight) {
    controller->RestoreGenMigParallel(compile(plans->plan), control.genmig,
                                      control.t_split);
  }
  controller->CkptRestoreControl(control);
  s = ImportBoxOps(prefix + "box/", controller->active_box(), blobs);
  if (!s.ok() || !in_flight) return s;
  s = ImportBoxOps(prefix + "nbox/", controller->new_box(), blobs);
  if (!s.ok()) return s;
  Operator* merge = controller->merge_op();
  if (merge == nullptr || !merge->CkptStateful()) return Status::OK();
  auto mb = blobs.find(prefix + "merge");
  if (mb == blobs.end()) {
    return Status::DataLoss("checkpoint lacks '" + prefix + "merge'");
  }
  StateDec mdec(mb->second);
  if (!merge->CkptImport(&mdec) || !mdec.ok()) {
    return Status::DataLoss("'" + prefix + "merge' is corrupt");
  }
  return Status::OK();
}

}  // namespace ckpt
}  // namespace genmig
