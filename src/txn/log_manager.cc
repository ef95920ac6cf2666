#include "txn/log_manager.h"

namespace imoltp::txn {

LogRecordBytes::LogRecordBytes(const LogRecordBytes& other) {
  for (int f = 0; f < kFields; ++f) {
    Assign(static_cast<Field>(f), other.bytes_[f].get(), other.len_[f]);
  }
}

LogRecordBytes& LogRecordBytes::operator=(LogRecordBytes&& other) noexcept {
  for (int f = 0; f < kFields; ++f) {
    bytes_[f] = std::move(other.bytes_[f]);
    len_[f] = std::exchange(other.len_[f], 0);
  }
  return *this;
}

void LogRecordBytes::Assign(Field f, const void* src, uint32_t n) {
  if (src == nullptr || n == 0) return;
  bytes_[f] = std::make_unique_for_overwrite<uint8_t[]>(n);
  std::memcpy(bytes_[f].get(), src, n);
  len_[f] = n;
}

uint64_t LogManager::Append(mcsim::CoreSim* core, LogOp op,
                            uint64_t txn_id, int16_t table, uint64_t row,
                            int16_t column, const void* payload,
                            uint32_t payload_bytes, const void* key,
                            uint32_t key_bytes, int16_t slice,
                            const void* before, uint32_t before_bytes,
                            bool clr) {
  const uint32_t record_bytes =
      kHeaderBytes + payload_bytes + key_bytes + before_bytes;
  Reserve(record_bytes);

  // Critical-path work: format the record into the sequential buffer.
  uint8_t* dst = buffer_.get() + offset_;
  std::memcpy(dst, &txn_id, 8);
  std::memcpy(dst + 8, &row, 8);
  std::memcpy(dst + 16, &payload_bytes, 4);
  std::memcpy(dst + 20, &key_bytes, 4);
  std::memcpy(dst + 24, &table, 2);
  std::memcpy(dst + 26, &column, 2);
  dst[28] = static_cast<uint8_t>(op);
  if (payload != nullptr && payload_bytes > 0) {
    std::memcpy(dst + kHeaderBytes, payload, payload_bytes);
  }
  if (key != nullptr && key_bytes > 0) {
    std::memcpy(dst + kHeaderBytes + payload_bytes, key, key_bytes);
  }
  if (before != nullptr && before_bytes > 0) {
    std::memcpy(dst + kHeaderBytes + payload_bytes + key_bytes, before,
                before_bytes);
  }
  core->Write(reinterpret_cast<uint64_t>(dst), record_bytes);
  core->Retire(18 + (payload_bytes + key_bytes + before_bytes) / 16);
  offset_ += Align8(record_bytes);
  bytes_logged_ += record_bytes;

  // Durable side (the simulated log device).
  LogRecord& rec = NextSlot();
  if (fault_ != nullptr && fault_->Fires(fault::kLogTornRecord)) {
    rec.torn = true;
  }
  rec.lsn = clock_->Next();
  rec.txn_id = txn_id;
  rec.op = op;
  rec.table = table;
  rec.column = column;
  rec.slice = slice;
  rec.row = row;
  rec.clr = clr;
  rec.Assign(LogRecord::kPayload, payload, payload_bytes);
  rec.Assign(LogRecord::kKey, key, key_bytes);
  rec.Assign(LogRecord::kBefore, before, before_bytes);
  ++records_;
  if (force_) flushed_records_ = records_;
  return rec.lsn;
}

void LogManager::Truncate(uint64_t upto_lsn) {
  uint64_t drop = 0;
  while (drop < records_ && record(drop).lsn < upto_lsn) ++drop;
  while (drop > 0 && drop < records_ && record(drop).txn_id != 0 &&
         record(drop - 1).txn_id == record(drop).txn_id) {
    --drop;
  }
  if (drop > 0) {
    // The dropped records' bytes are freed now; a block goes once every
    // slot in it has been dropped.
    for (uint64_t i = 0; i < drop; ++i) mutable_record(i) = LogRecord{};
    head_ += drop;
    records_ -= drop;
    const uint64_t emptied = head_ / kBlockRecords;
    blocks_.erase(blocks_.begin(),
                  blocks_.begin() + static_cast<ptrdiff_t>(emptied));
    head_ -= emptied * kBlockRecords;
    truncated_records_ += drop;
    flushed_records_ = flushed_records_ > drop ? flushed_records_ - drop : 0;
  }
  if (upto_lsn > truncation_lsn_) truncation_lsn_ = upto_lsn;
}

}  // namespace imoltp::txn
