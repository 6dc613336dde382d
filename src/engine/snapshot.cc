#include "engine/snapshot.h"

#include <utility>

#include "util/string_util.h"

namespace nf2 {

void SnapshotTracker::BindGauges(Gauge* pinned, Gauge* oldest_age_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  pinned_ = pinned;
  oldest_age_ms_ = oldest_age_ms;
}

void SnapshotTracker::Register(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.emplace(version, std::chrono::steady_clock::now());
}

void SnapshotTracker::Unregister(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(version);
}

void SnapshotTracker::RefreshGauges() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pinned_ != nullptr) {
    pinned_->Set(static_cast<int64_t>(live_.size()));
  }
  if (oldest_age_ms_ != nullptr) {
    int64_t oldest_ms = 0;
    if (!live_.empty()) {
      // Versions are published in order, so the lowest live version is
      // the oldest publish.
      oldest_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() -
                      live_.begin()->second)
                      .count();
    }
    oldest_age_ms_->Set(oldest_ms);
  }
}

size_t SnapshotTracker::alive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

DatabaseSnapshot::DatabaseSnapshot(
    uint64_t version, VersionMap relations,
    std::shared_ptr<const ValueDictionary> dictionary,
    std::shared_ptr<SnapshotTracker> tracker, uint64_t wal_epoch,
    uint64_t wal_lsn)
    : version_(version),
      wal_epoch_(wal_epoch),
      wal_lsn_(wal_lsn),
      relations_(std::move(relations)),
      dictionary_(std::move(dictionary)),
      tracker_(std::move(tracker)) {
  if (tracker_ != nullptr) tracker_->Register(version_);
}

DatabaseSnapshot::~DatabaseSnapshot() {
  if (tracker_ != nullptr) tracker_->Unregister(version_);
}

Result<const DatabaseSnapshot::RelationVersion*> DatabaseSnapshot::Find(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  return it->second.get();
}

std::shared_ptr<const DatabaseSnapshot::RelationVersion>
DatabaseSnapshot::FindVersion(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second;
}

std::vector<std::string> DatabaseSnapshot::ListRelations() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, version] : relations_) {
    names.push_back(name);
  }
  return names;
}

Result<const RelationInfo*> DatabaseSnapshot::Info(
    const std::string& name) const {
  NF2_ASSIGN_OR_RETURN(const RelationVersion* version, Find(name));
  return &version->info;
}

Result<const NfrRelation*> DatabaseSnapshot::Relation(
    const std::string& name) const {
  NF2_ASSIGN_OR_RETURN(const RelationVersion* version, Find(name));
  return &version->relation->relation();
}

Result<RelationStats> DatabaseSnapshot::Stats(const std::string& name) const {
  NF2_ASSIGN_OR_RETURN(const RelationVersion* version, Find(name));
  RelationStats stats = ComputeRelationStats(version->relation->relation());
  stats.name = name;
  stats.update_stats = version->relation->stats();
  stats.dict_values = dictionary_->size();
  return stats;
}

}  // namespace nf2
