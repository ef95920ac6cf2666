#include "trace/reader.h"

#include <cstdio>
#include <cstring>

namespace imoltp::trace {

namespace {

constexpr size_t kPrefixBytes = 8 + 4 + 4 + 4;  // magic, version, len, crc

Status ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open trace file " + path);
  }
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > 0) out->reserve(static_cast<size_t>(size));
    std::rewind(f);
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return Status::Internal("read error on " + path);
  return Status::Ok();
}

}  // namespace

Status LoadTraceFile(const std::string& path,
                     std::shared_ptr<const std::string>* out) {
  auto data = std::make_shared<std::string>();
  Status s = ReadFile(path, data.get());
  if (!s.ok()) return s;
  *out = std::move(data);
  return Status::Ok();
}

Status TraceReader::Corrupt(const std::string& what) const {
  return Status::InvalidArgument("corrupted trace: " + what);
}

Status TraceReader::Open(const std::string& path) {
  std::shared_ptr<const std::string> data;
  Status s = LoadTraceFile(path, &data);
  if (!s.ok()) return s;
  return OpenBuffer(std::move(data));
}

Status TraceReader::OpenBuffer(std::shared_ptr<const std::string> data) {
  if (opened_) return Status::InvalidArgument("TraceReader already open");
  data_ = std::move(data);
  base_ = reinterpret_cast<const uint8_t*>(data_->data());
  size_ = data_->size();

  if (size_ < kPrefixBytes) {
    return Corrupt("file shorter than the fixed header");
  }
  if (std::memcmp(base_, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    return Status::InvalidArgument(
        "not an imoltp trace file (bad magic)");
  }
  const uint32_t version = DecodeFixed32(base_ + 8);
  if (version != kTraceFormatVersion) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "trace format version mismatch: file v%u, reader v%u",
                  version, kTraceFormatVersion);
    return Status::InvalidArgument(buf);
  }
  const uint32_t header_len = DecodeFixed32(base_ + 12);
  const uint32_t header_crc = DecodeFixed32(base_ + 16);
  if (header_len > kMaxHeaderBytes ||
      kPrefixBytes + header_len > size_) {
    return Corrupt("header length exceeds file size");
  }
  if (Crc32(base_ + kPrefixBytes, header_len) != header_crc) {
    return Corrupt("header CRC mismatch");
  }
  Status s =
      TraceMetaFromJson(data_->substr(kPrefixBytes, header_len), &meta_);
  if (!s.ok()) return s;

  pos_ = kPrefixBytes + header_len;
  block_pos_ = block_end_ = pos_;
  modules_ = meta_.modules;
  last_addr_.assign(static_cast<size_t>(meta_.num_workers), 0);
  opened_ = true;
  return Status::Ok();
}

Status TraceReader::LoadNextBlock() {
  if (fault_ != nullptr && fault_->Fires(fault::kTraceReadError)) {
    return Corrupt("injected device read error");
  }
  if (pos_ == size_) {
    return Corrupt("truncated (end-of-stream record missing)");
  }
  if (size_ - pos_ < 8) {
    return Corrupt("truncated block header");
  }
  const uint32_t len = DecodeFixed32(base_ + pos_);
  const uint32_t crc = DecodeFixed32(base_ + pos_ + 4);
  if (len == 0 || len > kMaxBlockPayload) {
    return Corrupt("implausible block length");
  }
  if (size_ - pos_ - 8 < len) {
    return Corrupt("truncated block payload");
  }
  if (Crc32(base_ + pos_ + 8, len) != crc) {
    return Corrupt("block CRC mismatch");
  }
  block_pos_ = pos_ + 8;
  block_end_ = block_pos_ + len;
  pos_ = block_end_;
  return Status::Ok();
}

Status TraceReader::Next(TraceEvent* event, bool* done) {
  if (!opened_) return Status::InvalidArgument("TraceReader not open");
  if (finished_) {
    *done = true;
    return Status::Ok();
  }
  while (true) {
    if (block_pos_ == block_end_) {
      Status s = LoadNextBlock();
      if (!s.ok()) return s;
    }
    const uint8_t* p = base_ + block_pos_;
    const uint8_t* end = base_ + block_end_;
    const uint8_t op = *p++;
    uint64_t a = 0, b = 0;
    switch (op) {
      case kOpEnd: {
        if (!GetVarint(&p, end, &a)) return Corrupt("truncated record");
        if (a != events_) {
          return Corrupt("event count mismatch in end-of-stream record");
        }
        if (p != end || pos_ != size_) {
          return Corrupt("trailing data after end-of-stream record");
        }
        finished_ = true;
        *done = true;
        block_pos_ = block_end_;
        return Status::Ok();
      }
      case kOpSetCore: {
        if (!GetVarint(&p, end, &a)) return Corrupt("truncated record");
        if (a >= static_cast<uint64_t>(meta_.num_workers)) {
          return Corrupt("core id out of range");
        }
        cur_core_ = static_cast<int>(a);
        block_pos_ = static_cast<size_t>(p - base_);
        continue;  // internal record; decode the next one
      }
      case kOpDefRegion: {
        uint64_t id, module, base, total, touched, instr;
        mcsim::CodeRegion r;
        if (!GetVarint(&p, end, &id) || !GetVarint(&p, end, &module) ||
            !GetVarint(&p, end, &base) || !GetVarint(&p, end, &total) ||
            !GetVarint(&p, end, &touched) ||
            !GetVarint(&p, end, &instr) ||
            !GetDouble(&p, end, &r.mispredicts_per_kinstr) ||
            !GetDouble(&p, end, &r.cpi)) {
          return Corrupt("truncated record");
        }
        if (id != regions_.size()) {
          return Corrupt("region definition out of order");
        }
        if (module > modules_.size()) {
          return Corrupt("region module out of range");
        }
        if (total > UINT32_MAX || touched > total ||
            instr > UINT32_MAX) {
          return Corrupt("implausible region geometry");
        }
        if (base < mcsim::kCodeBaseLine || total > mcsim::kMaxCodeLines ||
            base - mcsim::kCodeBaseLine > mcsim::kMaxCodeLines - total) {
          return Corrupt("region outside the code space");
        }
        r.module = static_cast<mcsim::ModuleId>(module);
        r.base_line = base;
        r.total_lines = static_cast<uint32_t>(total);
        r.touched_lines = static_cast<uint32_t>(touched);
        r.instructions = static_cast<uint32_t>(instr);
        regions_.push_back(r);
        block_pos_ = static_cast<size_t>(p - base_);
        continue;  // internal record; decode the next one
      }
      case kOpDefModule: {
        uint64_t inside, len;
        if (!GetVarint(&p, end, &inside) || !GetVarint(&p, end, &len)) {
          return Corrupt("truncated record");
        }
        if (inside > 1) return Corrupt("bad module flag");
        if (len > kMaxModuleNameBytes) {
          return Corrupt("implausible module name length");
        }
        if (static_cast<uint64_t>(end - p) < len) {
          return Corrupt("truncated record");
        }
        if (modules_.size() + 1 >= mcsim::kMaxModules) {
          return Corrupt("module table overflow");
        }
        mcsim::ModuleInfo info;
        info.name.assign(reinterpret_cast<const char*>(p),
                         static_cast<size_t>(len));
        info.inside_engine = inside != 0;
        modules_.push_back(std::move(info));
        p += len;
        block_pos_ = static_cast<size_t>(p - base_);
        continue;  // internal record; decode the next one
      }
      case kOpWindowBegin:
      case kOpWindowEnd:
        event->op = static_cast<Op>(op);
        event->core = cur_core_ < 0 ? 0 : cur_core_;
        break;
      case kOpSetModule:
      case kOpExecRegion:
      case kOpLoad:
      case kOpStore:
      case kOpRetire:
      case kOpMispredict:
      case kOpTxnBegin: {
        if (cur_core_ < 0) {
          return Corrupt("core-scoped record before any core switch");
        }
        event->op = static_cast<Op>(op);
        event->core = cur_core_;
        switch (op) {
          case kOpSetModule:
            if (!GetVarint(&p, end, &a)) {
              return Corrupt("truncated record");
            }
            if (a > modules_.size()) {
              return Corrupt("module id out of range");
            }
            event->module = static_cast<mcsim::ModuleId>(a);
            break;
          case kOpExecRegion: {
            if (!GetVarint(&p, end, &a) || !GetVarint(&p, end, &b)) {
              return Corrupt("truncated record");
            }
            if (a >= regions_.size()) {
              return Corrupt("region id out of range");
            }
            const mcsim::CodeRegion& r =
                regions_[static_cast<size_t>(a)];
            const uint64_t max_offset =
                r.total_lines > r.touched_lines
                    ? r.total_lines - r.touched_lines
                    : 0;
            if (b > max_offset) {
              return Corrupt("fetch window outside its region");
            }
            event->region = static_cast<uint32_t>(a);
            event->start_line = r.base_line + b;
            break;
          }
          case kOpLoad:
          case kOpStore: {
            if (!GetVarint(&p, end, &a) || !GetVarint(&p, end, &b)) {
              return Corrupt("truncated record");
            }
            if (b > kMaxAccessBytes) {
              return Corrupt("implausible access size");
            }
            uint64_t& last =
                last_addr_[static_cast<size_t>(cur_core_)];
            last += static_cast<uint64_t>(ZigzagDecode(a));
            event->addr = last;
            event->size = static_cast<uint32_t>(b);
            break;
          }
          case kOpRetire:
          case kOpMispredict:
            if (!GetVarint(&p, end, &a)) {
              return Corrupt("truncated record");
            }
            event->n = a;
            break;
          default:  // kOpTxnBegin: no operands
            break;
        }
        break;
      }
      default:
        return Corrupt("unknown opcode");
    }
    block_pos_ = static_cast<size_t>(p - base_);
    ++events_;
    *done = false;
    return Status::Ok();
  }
}

}  // namespace imoltp::trace
