#ifndef NF2_EXEC_READ_VIEW_H_
#define NF2_EXEC_READ_VIEW_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "engine/snapshot.h"
#include "exec/planner.h"
#include "util/result.h"

namespace nf2 {

/// Where a statement's reads come from: a pinned snapshot when one is
/// given (frozen dictionary, zero engine locks), the live database
/// otherwise. The executor, the shard router's scattered SELECT plans
/// (one view per shard) and its recomposition all read through one of
/// these. A live view is only race-free for the session that owns the
/// open transaction, since every other writer bounces while it is open
/// (DESIGN.md §9).
///
/// The view holds the snapshot, so every pointer it hands out stays
/// valid for the view's lifetime.
class ReadView : public CatalogView {
 public:
  explicit ReadView(const Database* db,
                    std::shared_ptr<const DatabaseSnapshot> snapshot = nullptr)
      : db_(db), snapshot_(std::move(snapshot)) {}

  // CatalogView:
  Result<BoundRelation> Bind(const std::string& name) const override;
  const DictionaryView* frozen_dictionary() const override {
    return snapshot_ != nullptr ? snapshot_->dictionary().get() : nullptr;
  }

  /// The relation alone (SHOW, NEST). Unlike Bind, a live lookup skips
  /// the catalog, so a missing relation reports the engine's NotFound.
  Result<const NfrRelation*> Relation(const std::string& name) const {
    return snapshot_ != nullptr ? snapshot_->Relation(name)
                                : db_->Relation(name);
  }
  Result<RelationStats> Stats(const std::string& name) const {
    return snapshot_ != nullptr ? snapshot_->Stats(name) : db_->Stats(name);
  }
  std::vector<std::string> List() const {
    return snapshot_ != nullptr ? snapshot_->ListRelations()
                                : db_->ListRelations();
  }

 private:
  const Database* db_;
  std::shared_ptr<const DatabaseSnapshot> snapshot_;
};

}  // namespace nf2

#endif  // NF2_EXEC_READ_VIEW_H_
