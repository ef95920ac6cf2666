#include "txn/mvcc.h"

namespace imoltp::txn {

uint64_t MvccManager::Begin(mcsim::CoreSim* core) {
  const uint64_t txn_id = ++next_txn_;
  TxnState& t = txns_[txn_id];
  t.read_ts = clock_;
  core->Retire(12);  // timestamp allocation
  return txn_id;
}

bool MvccManager::ReadOwnWrite(mcsim::CoreSim* core, uint64_t txn_id,
                               uint64_t table_id, uint64_t row,
                               std::vector<uint8_t>* image) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return false;
  core->Retire(6);  // write-set probe
  // Newest staged image wins (a row can be staged more than once).
  const auto& writes = it->second.writes;
  for (auto w = writes.rbegin(); w != writes.rend(); ++w) {
    if (w->table_id == table_id && w->row == row) {
      core->Read(reinterpret_cast<uint64_t>(w->data.data()),
                 static_cast<uint32_t>(w->data.size()));
      *image = w->data;
      return true;
    }
  }
  return false;
}

bool MvccManager::Read(mcsim::CoreSim* core, uint64_t txn_id,
                       uint64_t table_id, uint64_t row,
                       std::vector<uint8_t>* image) {
  TxnState& t = txns_[txn_id];
  const uint64_t key = RowKey(table_id, row);
  auto it = versions_.find(key);
  core->Retire(10);  // version-map probe
  if (it == versions_.end()) {
    t.reads.push_back(ReadEntry{key, 0});
    return false;  // base table content is the only version
  }
  RowVersions& rv = it->second;
  core->Read(reinterpret_cast<uint64_t>(&rv), sizeof(RowVersions));
  if (t.read_ts >= rv.last_commit_ts) {
    t.reads.push_back(ReadEntry{key, rv.last_commit_ts});
    return false;  // newest committed version == table content
  }
  // Snapshot predates the newest version: the visible image is the one
  // replaced by the earliest commit after read_ts. History is ordered
  // oldest→newest; each entry's image was valid before its commit_ts.
  // That image is already overwritten, so the read set records the
  // snapshot's own timestamp, which every later commit exceeds:
  // validation then fails, as it must for work built on a stale image
  // (a write would otherwise lose the newer commit's update).
  for (auto& v : rv.history) {
    core->Read(reinterpret_cast<uint64_t>(v.image.data()),
               static_cast<uint32_t>(v.image.size()));
    core->Retire(8);
    if (v.commit_ts > t.read_ts) {
      t.reads.push_back(ReadEntry{key, t.read_ts});
      image->assign(v.image.begin(), v.image.end());
      return true;
    }
  }
  t.reads.push_back(ReadEntry{key, rv.last_commit_ts});
  return false;  // chain trimmed past the snapshot: newest is served
}

Status MvccManager::StageWrite(mcsim::CoreSim* core, uint64_t txn_id,
                               uint64_t table_id, uint64_t row,
                               const uint8_t* new_image, uint32_t length,
                               const uint8_t* prior_image) {
  TxnState& t = txns_[txn_id];
  const uint64_t key = RowKey(table_id, row);
  RowVersions& rv = versions_[key];
  core->Read(reinterpret_cast<uint64_t>(&rv), sizeof(RowVersions));
  core->Retire(14);
  if (rv.pending_txn != 0 && rv.pending_txn != txn_id) {
    return Status::Aborted("write-write conflict");
  }
  rv.pending_txn = txn_id;
  core->Write(reinterpret_cast<uint64_t>(&rv), 16);

  StagedWrite w;
  w.table_id = table_id;
  w.row = row;
  w.data.assign(new_image, new_image + length);
  core->Write(reinterpret_cast<uint64_t>(w.data.data()), length);
  t.writes.push_back(std::move(w));
  t.prior_images.emplace_back(prior_image, prior_image + length);
  core->Retire(16);
  return Status::Ok();
}

Status MvccManager::Commit(mcsim::CoreSim* core, uint64_t txn_id,
                           std::vector<StagedWrite>* installs) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return Status::InvalidArgument("unknown txn");
  TxnState& t = it->second;

  // Validation: every read must still observe the same version.
  for (const ReadEntry& r : t.reads) {
    auto vit = versions_.find(r.row_key);
    const uint64_t now_ts =
        vit == versions_.end() ? 0 : vit->second.last_commit_ts;
    core->Retire(8);
    if (vit != versions_.end()) {
      core->Read(reinterpret_cast<uint64_t>(&vit->second), 16);
    }
    if (now_ts != r.observed_ts) {
      Abort(core, txn_id);
      return Status::Aborted("validation failure");
    }
  }

  const uint64_t commit_ts = ++clock_;
  for (size_t i = 0; i < t.writes.size(); ++i) {
    const StagedWrite& w = t.writes[i];
    RowVersions& rv = versions_[RowKey(w.table_id, w.row)];
    rv.history.push_back(
        Version{commit_ts, std::move(t.prior_images[i])});
    if (rv.history.size() > kMaxHistory) {
      rv.history.erase(rv.history.begin());
    }
    rv.last_commit_ts = commit_ts;
    rv.pending_txn = 0;
    core->Write(reinterpret_cast<uint64_t>(&rv), 24);
    core->Retire(12);
  }
  *installs = std::move(t.writes);
  txns_.erase(it);
  return Status::Ok();
}

void MvccManager::Abort(mcsim::CoreSim* core, uint64_t txn_id) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  for (const StagedWrite& w : it->second.writes) {
    auto vit = versions_.find(RowKey(w.table_id, w.row));
    if (vit != versions_.end() && vit->second.pending_txn == txn_id) {
      vit->second.pending_txn = 0;
      core->Write(reinterpret_cast<uint64_t>(&vit->second), 16);
    }
  }
  core->Retire(10);
  txns_.erase(it);
}

}  // namespace imoltp::txn
