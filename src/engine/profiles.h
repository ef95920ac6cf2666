#ifndef IMOLTP_ENGINE_PROFILES_H_
#define IMOLTP_ENGINE_PROFILES_H_

#include <cstdint>

namespace imoltp::engine {

/// One code module's execution profile (see DESIGN.md,
/// "Instruction-footprint model"):
///
///   - total_bytes:   the module's code range.
///   - touched_bytes: bytes fetched per execution. When smaller than
///     total_bytes, each execution starts at a pseudo-random window — the
///     model of branchy legacy code whose dynamic path varies between
///     invocations (poor i-cache locality).
///   - instructions:  instructions retired per execution.
///   - mispredicts_per_kinstr: branch misprediction rate.
///
/// This header is the single calibration point for every engine
/// archetype. The figures' *shapes* are structural (which modules exist,
/// which execute per transaction vs per operation, which have random
/// windows); these numbers set the magnitudes.
struct RegionSpec {
  const char* module;
  bool engine_side;  // true = storage manager / OLTP engine (Figure 7)
  uint32_t total_bytes;
  uint32_t touched_bytes;
  uint32_t instructions;
  double mispredicts_per_kinstr;
  /// Inherent cycles-per-instruction with warm caches (code-quality
  /// knob: compiled straight-line ~0.45, legacy branchy ~0.95).
  double cpi = 0.85;
};

// ---------------------------------------------------------------------------
// Shore-MT: open-source storage manager. No layers outside the SM — the
// benchmark's query plans are hard-coded C++ (Shore-Kits). Sizeable,
// decades-old SM codebase: B-tree, buffer pool, lock manager, logging.
// ---------------------------------------------------------------------------
struct ShoreMtProfile {
  RegionSpec xct_begin{"sm-xct-begin", true, 20 << 10, 11 << 10, 5200, 7.0,
                       0.9};
  RegionSpec xct_commit{"sm-xct-commit", true, 20 << 10, 10 << 10, 5600,
                        7.0, 0.9};
  RegionSpec btree{"sm-btree", true, 15 << 10, 10 << 10, 5200, 7.5, 0.9};
  RegionSpec heap_bp{"sm-bufferpool", true, 13 << 10, 9 << 10, 4200, 7.0,
                     0.9};
  RegionSpec lock{"sm-lock", true, 8 << 10, 5 << 10, 2400, 8.0, 0.9};
  RegionSpec log{"sm-log", true, 6 << 10, 4 << 10, 1600, 5.0, 0.9};
};

// ---------------------------------------------------------------------------
// DBMS D: disk-based commercial system. Everything Shore-MT has, plus the
// layers around the storage manager: network/session handling, SQL
// parsing, query optimization, plan interpretation — large, branchy
// regions with windowed (random) execution paths.
// ---------------------------------------------------------------------------
struct DbmsDProfile {
  RegionSpec network{"network", false, 28 << 10, 10 << 10, 4200, 8.0, 1.0};
  RegionSpec parser{"parser", false, 56 << 10, 18 << 10, 7600, 10.0, 1.0};
  RegionSpec optimizer{"optimizer", false, 56 << 10, 16 << 10, 7000, 10.0,
                       1.0};
  RegionSpec plan_exec{"plan-exec", false, 12 << 10, 8 << 10, 3400, 9.0,
                       1.0};
  RegionSpec xct_begin{"sm-xct-begin", true, 16 << 10, 8 << 10, 3600, 7.0,
                       0.95};
  RegionSpec xct_commit{"sm-xct-commit", true, 16 << 10, 8 << 10, 3800,
                        7.0, 0.95};
  RegionSpec btree{"sm-btree", true, 11 << 10, 8 << 10, 4400, 7.0, 0.95};
  RegionSpec heap_bp{"sm-bufferpool", true, 10 << 10, 7 << 10, 3600, 7.0,
                     0.95};
  RegionSpec lock{"sm-lock", true, 6 << 10, 4 << 10, 2200, 8.0, 0.95};
  RegionSpec log{"sm-log", true, 5 << 10, 3 << 10, 1400, 5.0, 0.95};
};

// ---------------------------------------------------------------------------
// VoltDB: partitioned in-memory engine. A managed-runtime dispatch /
// serialization layer wraps a compact C++ execution engine that
// interprets pre-planned stored procedures. No buffer pool, no locks.
// ---------------------------------------------------------------------------
struct VoltDbProfile {
  RegionSpec dispatch{"dispatch", false, 36 << 10, 14 << 10, 9200, 7.0,
                      0.6};
  RegionSpec ee_op{"exec-engine", true, 14 << 10, 6 << 10, 1100, 6.0, 0.68};
  RegionSpec index_op{"ee-index", true, 5 << 10, 3 << 10, 650, 5.0, 0.55};
  RegionSpec commit{"ee-commit", true, 10 << 10, 4 << 10, 1800, 5.0, 0.55};
  RegionSpec cmd_log{"cmd-log", true, 4 << 10, 2 << 10, 800, 4.0, 0.55};
  /// Extra coordination when single-site execution cannot be guaranteed
  /// (Section 7: instruction stalls grow by ~60%).
  RegionSpec multi_site{"dtxn-coord", false, 18 << 10, 7 << 10, 3100, 8.0,
                        0.9};
};

// ---------------------------------------------------------------------------
// HyPer: partitioned in-memory engine with transactions compiled to
// machine code. The per-transaction-type compiled region is tiny and
// straight-line; everything else is a thin dispatch shim.
// ---------------------------------------------------------------------------
struct HyPerProfile {
  RegionSpec dispatch{"dispatch", false, 2 << 10, 1 << 10, 300, 2.0, 0.6};
  /// Base compiled region (a one-statement procedure); each further
  /// statement adds code bytes and straight-line instructions.
  RegionSpec compiled_txn{"compiled-txn", true, 3 << 10, 2 << 10, 600,
                          1.5, 0.45};
  uint32_t per_statement_bytes = 700;
  uint32_t per_statement_instructions = 1400;
  RegionSpec commit{"txn-commit", true, 1 << 10, 512, 200, 2.0, 0.45};
  RegionSpec log{"redo-log", true, 1 << 10, 512, 180, 2.0, 0.45};
  /// Per-operation compiled code beyond the index/storage substrate work.
  uint32_t per_op_instructions = 120;
};

// ---------------------------------------------------------------------------
// DBMS M: main-memory engine of a traditional disk-based vendor. Inherits
// large, branchy legacy layers (session, query, transaction management)
// around a lean, optionally compiled storage engine with MVCC.
// ---------------------------------------------------------------------------
struct DbmsMProfile {
  RegionSpec session{"legacy-session", false, 40 << 10, 11 << 10, 4200,
                     9.0, 0.9};
  RegionSpec query_layer{"legacy-query", false, 48 << 10, 13 << 10, 5000,
                         10.0, 0.9};
  RegionSpec txn_mgmt{"legacy-txn", false, 28 << 10, 8 << 10, 3000, 8.0,
                      0.9};
  RegionSpec mvcc_op{"mvcc", true, 6 << 10, 4 << 10, 800, 6.0, 0.8};
  RegionSpec storage_compiled{"compiled-op", true, 2 << 10, 1200, 520,
                              3.0, 0.5};
  RegionSpec storage_interp{"interp-op", true, 64 << 10, 12 << 10, 3200,
                            9.0, 0.9};
  RegionSpec index_op{"mm-index", true, 3 << 10, 2 << 10, 500, 4.0, 0.7};
  RegionSpec validate_commit{"mvcc-commit", true, 14 << 10, 6 << 10, 2500,
                             6.0, 0.8};
  RegionSpec log{"mm-log", true, 3 << 10, 2 << 10, 750, 4.0, 0.8};
};

}  // namespace imoltp::engine

#endif  // IMOLTP_ENGINE_PROFILES_H_
