#include "trace/meta.h"

#include "mcsim/cache.h"
#include "mcsim/counters.h"

namespace imoltp::trace {

namespace {

void CacheToJson(obs::JsonWriter& w, const mcsim::CacheConfig& c) {
  w.BeginObject();
  w.KeyValue("size_bytes", c.size_bytes);
  w.KeyValue("line_bytes", static_cast<uint64_t>(c.line_bytes));
  w.KeyValue("associativity", static_cast<uint64_t>(c.associativity));
  w.EndObject();
}

Status CacheFromJson(const obs::JsonValue* v, mcsim::CacheConfig* c,
                     const char* name) {
  if (v == nullptr || !v->is_object()) {
    return Status::InvalidArgument(std::string("trace header: missing cache ") +
                                   name);
  }
  const obs::JsonValue* size = v->Find("size_bytes");
  const obs::JsonValue* line = v->Find("line_bytes");
  const obs::JsonValue* assoc = v->Find("associativity");
  if (size == nullptr || !size->is_number() || line == nullptr ||
      !line->is_number() || assoc == nullptr || !assoc->is_number()) {
    return Status::InvalidArgument(std::string("trace header: malformed cache ") +
                                   name);
  }
  c->size_bytes = static_cast<uint64_t>(size->number);
  c->line_bytes = static_cast<uint32_t>(line->number);
  c->associativity = static_cast<uint32_t>(assoc->number);
  if (c->line_bytes == 0 || c->associativity == 0) {
    return Status::InvalidArgument(std::string("trace header: zero geometry in cache ") +
                                   name);
  }
  if (c->associativity > mcsim::Cache::kMaxAssociativity) {
    return Status::InvalidArgument(
        std::string("trace header: associativity too high in cache ") + name);
  }
  return Status::Ok();
}

Status GetNumber(const obs::JsonValue& v, const char* key, double* out) {
  const obs::JsonValue* f = v.Find(key);
  if (f == nullptr || !f->is_number()) {
    return Status::InvalidArgument(std::string("trace header: missing number ") +
                                   key);
  }
  *out = f->number;
  return Status::Ok();
}

Status GetBool(const obs::JsonValue& v, const char* key, bool* out) {
  const obs::JsonValue* f = v.Find(key);
  if (f == nullptr || f->type != obs::JsonValue::Type::kBool) {
    return Status::InvalidArgument(std::string("trace header: missing bool ") +
                                   key);
  }
  *out = f->boolean;
  return Status::Ok();
}

Status GetString(const obs::JsonValue& v, const char* key,
                 std::string* out) {
  const obs::JsonValue* f = v.Find(key);
  if (f == nullptr || !f->is_string()) {
    return Status::InvalidArgument(std::string("trace header: missing string ") +
                                   key);
  }
  *out = f->string;
  return Status::Ok();
}

}  // namespace

void MachineConfigToJson(obs::JsonWriter& w,
                         const mcsim::MachineConfig& config) {
  w.BeginObject();
  w.KeyValue("num_cores", config.num_cores);
  w.KeyValue("clock_ghz", config.clock_ghz);
  w.KeyValue("issue_width", config.issue_width);
  w.Key("l1i");
  CacheToJson(w, config.l1i);
  w.Key("l1d");
  CacheToJson(w, config.l1d);
  w.Key("l2");
  CacheToJson(w, config.l2);
  w.Key("llc");
  CacheToJson(w, config.llc);
  w.KeyValue("model_tlb", config.model_tlb);
  w.Key("dtlb");
  CacheToJson(w, config.dtlb);
  w.Key("stlb");
  CacheToJson(w, config.stlb);
  w.KeyValue("page_bytes", static_cast<uint64_t>(config.page_bytes));
  w.KeyValue("model_prefetcher", config.model_prefetcher);
  w.KeyValue("prefetch_degree",
             static_cast<uint64_t>(config.prefetch_degree));

  const mcsim::CycleModelParams& p = config.cycle;
  w.Key("cycle");
  w.BeginObject();
  w.KeyValue("base_cpi", p.base_cpi);
  w.KeyValue("cpi_floor", p.cpi_floor);
  w.KeyValue("l1_miss_penalty", p.l1_miss_penalty);
  w.KeyValue("l2_miss_penalty", p.l2_miss_penalty);
  w.KeyValue("llc_miss_penalty", p.llc_miss_penalty);
  w.KeyValue("frontend_amplification", p.frontend_amplification);
  w.KeyValue("data_amp_l1", p.data_amp_l1);
  w.KeyValue("data_amp_l2", p.data_amp_l2);
  w.KeyValue("data_amp_llc", p.data_amp_llc);
  w.KeyValue("llc_amp_floor", p.llc_amp_floor);
  w.KeyValue("llc_density_lo", p.llc_density_lo);
  w.KeyValue("llc_density_hi", p.llc_density_hi);
  w.KeyValue("mispredict_penalty", p.mispredict_penalty);
  w.KeyValue("tlb_walk_cycles", p.tlb_walk_cycles);
  w.EndObject();

  w.EndObject();
}

Status MachineConfigFromJson(const obs::JsonValue& v,
                             mcsim::MachineConfig* config) {
  if (!v.is_object()) {
    return Status::InvalidArgument("trace header: machine is not an object");
  }
  double d = 0;
  Status s;
  if (!(s = GetNumber(v, "num_cores", &d)).ok()) return s;
  config->num_cores = static_cast<int>(d);
  if (!(s = GetNumber(v, "clock_ghz", &d)).ok()) return s;
  config->clock_ghz = d;
  if (!(s = GetNumber(v, "issue_width", &d)).ok()) return s;
  config->issue_width = static_cast<int>(d);
  if (!(s = CacheFromJson(v.Find("l1i"), &config->l1i, "l1i")).ok()) return s;
  if (!(s = CacheFromJson(v.Find("l1d"), &config->l1d, "l1d")).ok()) return s;
  if (!(s = CacheFromJson(v.Find("l2"), &config->l2, "l2")).ok()) return s;
  if (!(s = CacheFromJson(v.Find("llc"), &config->llc, "llc")).ok()) return s;
  if (!(s = GetBool(v, "model_tlb", &config->model_tlb)).ok()) return s;
  if (!(s = CacheFromJson(v.Find("dtlb"), &config->dtlb, "dtlb")).ok()) {
    return s;
  }
  if (!(s = CacheFromJson(v.Find("stlb"), &config->stlb, "stlb")).ok()) {
    return s;
  }
  if (!(s = GetNumber(v, "page_bytes", &d)).ok()) return s;
  config->page_bytes = static_cast<uint32_t>(d);
  if (!(s = GetBool(v, "model_prefetcher", &config->model_prefetcher))
           .ok()) {
    return s;
  }
  if (!(s = GetNumber(v, "prefetch_degree", &d)).ok()) return s;
  config->prefetch_degree = static_cast<uint32_t>(d);

  const obs::JsonValue* cy = v.Find("cycle");
  if (cy == nullptr || !cy->is_object()) {
    return Status::InvalidArgument("trace header: missing cycle params");
  }
  mcsim::CycleModelParams* p = &config->cycle;
  struct Field {
    const char* key;
    double* dst;
  };
  const Field fields[] = {
      {"base_cpi", &p->base_cpi},
      {"cpi_floor", &p->cpi_floor},
      {"l1_miss_penalty", &p->l1_miss_penalty},
      {"l2_miss_penalty", &p->l2_miss_penalty},
      {"llc_miss_penalty", &p->llc_miss_penalty},
      {"frontend_amplification", &p->frontend_amplification},
      {"data_amp_l1", &p->data_amp_l1},
      {"data_amp_l2", &p->data_amp_l2},
      {"data_amp_llc", &p->data_amp_llc},
      {"llc_amp_floor", &p->llc_amp_floor},
      {"llc_density_lo", &p->llc_density_lo},
      {"llc_density_hi", &p->llc_density_hi},
      {"mispredict_penalty", &p->mispredict_penalty},
      {"tlb_walk_cycles", &p->tlb_walk_cycles},
  };
  for (const Field& f : fields) {
    if (!(s = GetNumber(*cy, f.key, f.dst)).ok()) return s;
  }
  if (config->num_cores < 1 || config->page_bytes == 0) {
    return Status::InvalidArgument("trace header: implausible machine config");
  }
  return Status::Ok();
}

std::string TraceMetaToJson(const TraceMeta& meta) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KeyValue("trace_id", meta.trace_id);
  w.KeyValue("engine", meta.engine);
  w.KeyValue("workload", meta.workload);
  w.KeyValue("num_workers", meta.num_workers);
  w.KeyValue("seed", meta.seed);
  w.KeyValue("warmup_txns", meta.warmup_txns);
  w.KeyValue("measure_txns", meta.measure_txns);
  w.KeyValue("db_bytes", meta.db_bytes);
  w.KeyValue("rows", static_cast<uint64_t>(meta.rows));
  w.KeyValue("warehouses", static_cast<uint64_t>(meta.warehouses));
  w.Key("machine");
  MachineConfigToJson(w, meta.recorded_config);
  w.Key("modules");
  w.BeginArray();
  for (const mcsim::ModuleInfo& m : meta.modules) {
    w.BeginObject();
    w.KeyValue("name", m.name);
    w.KeyValue("inside_engine", m.inside_engine);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

Status TraceMetaFromJson(const std::string& json, TraceMeta* meta) {
  StatusOr<obs::JsonValue> parsed = obs::ParseJson(json);
  if (!parsed.ok()) {
    return Status::InvalidArgument("trace header: " +
                                   parsed.status().message());
  }
  const obs::JsonValue& v = *parsed;
  if (!v.is_object()) {
    return Status::InvalidArgument("trace header: not a JSON object");
  }
  Status s;
  if (!(s = GetString(v, "trace_id", &meta->trace_id)).ok()) return s;
  if (!(s = GetString(v, "engine", &meta->engine)).ok()) return s;
  if (!(s = GetString(v, "workload", &meta->workload)).ok()) return s;
  double d = 0;
  if (!(s = GetNumber(v, "num_workers", &d)).ok()) return s;
  meta->num_workers = static_cast<int>(d);
  if (!(s = GetNumber(v, "seed", &d)).ok()) return s;
  meta->seed = static_cast<uint64_t>(d);
  if (!(s = GetNumber(v, "warmup_txns", &d)).ok()) return s;
  meta->warmup_txns = static_cast<uint64_t>(d);
  if (!(s = GetNumber(v, "measure_txns", &d)).ok()) return s;
  meta->measure_txns = static_cast<uint64_t>(d);
  if (!(s = GetNumber(v, "db_bytes", &d)).ok()) return s;
  meta->db_bytes = static_cast<uint64_t>(d);
  if (!(s = GetNumber(v, "rows", &d)).ok()) return s;
  meta->rows = static_cast<int>(d);
  if (!(s = GetNumber(v, "warehouses", &d)).ok()) return s;
  meta->warehouses = static_cast<int>(d);

  const obs::JsonValue* machine = v.Find("machine");
  if (machine == nullptr) {
    return Status::InvalidArgument("trace header: missing machine config");
  }
  if (!(s = MachineConfigFromJson(*machine, &meta->recorded_config)).ok()) {
    return s;
  }

  const obs::JsonValue* modules = v.Find("modules");
  if (modules == nullptr || !modules->is_array()) {
    return Status::InvalidArgument("trace header: missing module table");
  }
  meta->modules.clear();
  for (const obs::JsonValue& m : modules->array) {
    mcsim::ModuleInfo info;
    if (!(s = GetString(m, "name", &info.name)).ok()) return s;
    if (!(s = GetBool(m, "inside_engine", &info.inside_engine)).ok()) {
      return s;
    }
    meta->modules.push_back(std::move(info));
  }

  if (meta->num_workers < 1 || meta->num_workers > 4096) {
    return Status::InvalidArgument("trace header: implausible worker count");
  }
  if (static_cast<int>(meta->modules.size()) >= mcsim::kMaxModules) {
    return Status::InvalidArgument("trace header: module table too large");
  }
  return Status::Ok();
}

}  // namespace imoltp::trace
