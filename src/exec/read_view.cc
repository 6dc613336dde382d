#include "exec/read_view.h"

#include "util/string_util.h"

namespace nf2 {

Result<BoundRelation> ReadView::Bind(const std::string& name) const {
  if (snapshot_ != nullptr) {
    std::shared_ptr<const DatabaseSnapshot::RelationVersion> version =
        snapshot_->FindVersion(name);
    if (version == nullptr) {
      return Status::NotFound(StrCat("relation '", name, "' not found"));
    }
    return BoundRelation{&version->info, version->relation.get()};
  }
  BoundRelation out;
  NF2_ASSIGN_OR_RETURN(out.info, db_->Info(name));
  NF2_ASSIGN_OR_RETURN(out.relation, db_->Canonical(name));
  return out;
}

}  // namespace nf2
