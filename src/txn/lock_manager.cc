#include "txn/lock_manager.h"

#include <algorithm>
#include <cstddef>
#include <bit>

namespace imoltp::txn {

LockManager::LockManager(uint64_t num_buckets) {
  buckets_.resize(std::bit_ceil(num_buckets));
  mask_ = buckets_.size() - 1;
}

uint64_t LockManager::BucketOf(uint64_t object_id) const {
  uint64_t x = object_id;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return x & mask_;
}

LockManager::TxnLocks& LockManager::LocksOf(uint64_t txn_id) {
  for (auto& t : txn_locks_) {
    if (t.txn_id == txn_id) return t;
  }
  txn_locks_.push_back(TxnLocks{txn_id, {}});
  return txn_locks_.back();
}

Status LockManager::Acquire(mcsim::CoreSim* core, uint64_t txn_id,
                            uint64_t object_id, LockMode mode) {
  if (fault_ != nullptr && fault_->Fires(fault::kLockConflict)) {
    return Status::Aborted("injected lock conflict");
  }
  auto& chain = buckets_[BucketOf(object_id)];
  core->Read(reinterpret_cast<uint64_t>(&chain), 16);  // bucket head
  core->Retire(14);                                    // hash + latch

  LockHead* head = nullptr;
  for (auto& l : chain) {
    core->Read(reinterpret_cast<uint64_t>(&l), 24);
    core->Retire(5);
    if (l.object_id == object_id) {
      head = &l;
      break;
    }
  }

  if (head == nullptr) {
    chain.push_back(LockHead{object_id, mode, {txn_id}});
    core->Write(reinterpret_cast<uint64_t>(&chain.back()), 32);
    core->Retire(12);
    ++active_locks_;
  } else {
    const bool already_holder =
        std::find(head->holders.begin(), head->holders.end(), txn_id) !=
        head->holders.end();

    if (already_holder) {
      if (mode == LockMode::kExclusive && head->mode == LockMode::kShared) {
        if (head->holders.size() > 1) return Status::Aborted("upgrade");
        head->mode = LockMode::kExclusive;
        core->Write(reinterpret_cast<uint64_t>(head), 16);
        core->Retire(6);
      }
      return Status::Ok();
    }

    if (head->mode == LockMode::kExclusive ||
        mode == LockMode::kExclusive) {
      return Status::Aborted("lock conflict");
    }

    head->holders.push_back(txn_id);
    core->Write(reinterpret_cast<uint64_t>(head), 24);
    core->Retire(8);
  }
  LocksOf(txn_id).objects.push_back(object_id);
  return Status::Ok();
}

void LockManager::Release(mcsim::CoreSim* core, uint64_t txn_id,
                          uint64_t object_id) {
  auto& chain = buckets_[BucketOf(object_id)];
  core->Read(reinterpret_cast<uint64_t>(&chain), 16);
  core->Retire(10);
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i].object_id != object_id) continue;
    auto& holders = chain[i].holders;
    holders.erase(std::remove(holders.begin(), holders.end(), txn_id),
                  holders.end());
    core->Write(reinterpret_cast<uint64_t>(&chain[i]), 24);
    core->Retire(8);
    if (holders.empty()) {
      chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(i));
      --active_locks_;
    }
    return;
  }
}

void LockManager::ReleaseAll(mcsim::CoreSim* core, uint64_t txn_id) {
  std::vector<uint64_t> objects;
  for (size_t t = 0; t < txn_locks_.size(); ++t) {
    if (txn_locks_[t].txn_id != txn_id) continue;
    objects = std::move(txn_locks_[t].objects);
    txn_locks_.erase(txn_locks_.begin() + static_cast<std::ptrdiff_t>(t));
    break;
  }
  for (uint64_t obj : objects) {
    Release(core, txn_id, obj);
  }
}

bool LockManager::Holds(uint64_t txn_id, uint64_t object_id) const {
  const auto& chain = buckets_[BucketOf(object_id)];
  for (const auto& l : chain) {
    if (l.object_id == object_id) {
      return std::find(l.holders.begin(), l.holders.end(), txn_id) !=
             l.holders.end();
    }
  }
  return false;
}

}  // namespace imoltp::txn
