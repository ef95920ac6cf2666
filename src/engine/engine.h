#ifndef IMOLTP_ENGINE_ENGINE_H_
#define IMOLTP_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "index/index.h"
#include "index/key.h"
#include "mcsim/machine.h"
#include "obs/span.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "txn/checkpoint.h"
#include "txn/log_manager.h"

namespace imoltp::engine {

/// The five analyzed systems (paper Section 3, "Analyzed Systems").
/// Closed-source systems are archetypes named as in the paper.
enum class EngineKind {
  kShoreMt,  // disk-based open-source storage manager
  kDbmsD,    // disk-based commercial DBMS (full query stack)
  kVoltDb,   // in-memory, partitioned, interpreted procedures
  kHyPer,    // in-memory, partitioned, compiled transactions
  kDbmsM,    // in-memory commercial engine: MVCC, legacy frontend
};

inline const char* EngineKindName(EngineKind k) {
  switch (k) {
    case EngineKind::kShoreMt: return "Shore-MT";
    case EngineKind::kDbmsD: return "DBMS D";
    case EngineKind::kVoltDb: return "VoltDB";
    case EngineKind::kHyPer: return "HyPer";
    case EngineKind::kDbmsM: return "DBMS M";
  }
  return "?";
}

/// Derives the primary key of initial row `r` (bulk-load path).
using KeyOfRow = index::Key (*)(const storage::Schema& schema,
                                storage::RowId r, uint64_t seed);

/// Derives a secondary key from a row image. Secondary keys MUST be
/// unique; embed a discriminator (e.g., the primary id) in the low
/// bits and scan by prefix.
using SecondaryKeyOf = index::Key (*)(const storage::Schema& schema,
                                      const uint8_t* row);

/// A secondary access path, maintained on insert/delete. Secondary
/// indexes are ordered (prefix scans are their purpose). Columns feeding
/// a secondary key must be immutable under updates — TPC-C's
/// customer-by-last-name and order-by-customer paths satisfy this.
struct SecondaryIndexDef {
  std::string name;
  SecondaryKeyOf key_of = nullptr;
};

/// Declarative table definition handed to Engine::CreateDatabase.
struct TableDef {
  std::string name;
  storage::Schema schema;
  uint64_t initial_rows = 0;

  /// Nominal on-"disk" footprint; when it exceeds the resident budget
  /// the in-memory engines place rows in a sparse address space
  /// (DESIGN.md, Substitutions). 0 = dense.
  uint64_t nominal_bytes = 0;

  storage::RowGenerator generator = nullptr;  // initial contents
  uint64_t seed = 1;

  KeyOfRow key_of = nullptr;  // default: Key::FromUint64(r)
  uint32_t key_bytes = 8;

  /// Tables probed with range scans need an ordered index even on
  /// engines whose default is a hash (DBMS M uses its B-tree for TPC-C).
  bool needs_ordered_index = false;

  /// Read-mostly tables replicated to every partition on the
  /// partitioned engines (VoltDB replicates TPC-C's Item table).
  bool replicated = false;

  /// Append-only tables with no key access (TPC-B/TPC-C History) carry
  /// no primary index: appends stay sequential, exactly the locality
  /// the paper credits for TPC-B's low data stalls (Section 5.1.1).
  bool no_primary_index = false;

  /// Secondary access paths (e.g., TPC-C customer by last name).
  std::vector<SecondaryIndexDef> secondaries;
};

/// Per-call transaction descriptor.
struct TxnRequest {
  int type = 0;                // stable id per transaction type
  uint64_t partition_key = 0;  // routing hint (key / warehouse / branch)
  uint64_t key_space = 1;      // size of the routing key domain

  /// Number of SQL statements in the procedure body — the compiled
  /// engines' per-transaction-type code size and straight-line
  /// instruction count grow with it (loops over rows do not: their
  /// per-iteration work is charged per operation).
  int statements = 1;
};

/// Engine-neutral operations available inside a stored procedure. The
/// benchmark bodies (micro, TPC-B, TPC-C) are written once against this
/// interface; each engine implements it with its own storage, index,
/// concurrency-control, and code-footprint behavior.
class TxnContext {
 public:
  virtual ~TxnContext() = default;

  /// Primary-index probe. kNotFound if absent.
  virtual Status Probe(int table, const index::Key& key,
                       storage::RowId* row) = 0;

  /// Reads the full row into `out` (schema row_bytes of `table`).
  virtual Status Read(int table, storage::RowId row, uint8_t* out) = 0;

  /// Updates one column.
  virtual Status Update(int table, storage::RowId row, uint32_t column,
                        const void* value) = 0;

  /// Inserts a row with its primary key.
  virtual Status Insert(int table, const uint8_t* row,
                        const index::Key& key,
                        storage::RowId* out_row = nullptr) = 0;

  /// Deletes a row (and its key from the primary index).
  virtual Status Delete(int table, storage::RowId row,
                        const index::Key& key) = 0;

  /// Ordered scan of up to `limit` rows with keys >= `from`.
  virtual Status Scan(int table, const index::Key& from, uint64_t limit,
                      std::vector<storage::RowId>* rows) = 0;

  /// Ordered scan over secondary index `secondary` of `table`.
  virtual Status ScanSecondary(int table, int secondary,
                               const index::Key& from, uint64_t limit,
                               std::vector<storage::RowId>* rows) = 0;

  /// The worker's simulated core (for workload-side bookkeeping).
  virtual mcsim::CoreSim* core() = 0;
};

/// Behavioral switches (Section 6 experiments and ablations).
struct EngineOptions {
  int num_partitions = 1;  // partitioned engines: one worker each

  /// DBMS M: transaction-compilation toggle (Figure 13/14). HyPer is
  /// always compiled; the others never are.
  bool compilation = true;

  /// DBMS M: hash (micro/TPC-B) or cache-conscious B-tree (TPC-C).
  index::IndexKind dbms_m_index = index::IndexKind::kHash;

  /// VoltDB: single-site guarantee (Section 7 note: disabling it raises
  /// instruction stalls by ~60%).
  bool single_site = true;

  /// Disk engines: frame count of the buffer pool.
  uint32_t bufferpool_frames = 1u << 17;  // 1GB of 8KB frames

  /// Ablation: run a disk engine without its buffer pool layer.
  bool use_bufferpool = true;

  /// Per-worker WAL ring size. Chaos runs shrink it to force frequent
  /// asynchronous flushes (tightening the post-commit durability
  /// window they crash into).
  uint32_t log_buffer_bytes = 1u << 20;

  /// Optional fault injector (not owned; must outlive the engine).
  /// Wired into every LogManager, the 2PL lock table, and the engines'
  /// crash points. Null ⇒ no fault checks at all.
  fault::FaultInjector* fault_injector = nullptr;

  /// Fuzzy checkpointing cadence/retention. Disabled by default; when
  /// enabled, the engines also log before-images and compensation
  /// records so recovery can roll back losers captured mid-flight.
  txn::CheckpointPolicy checkpoint;
};

/// One OLTP engine archetype bound to a simulated machine. Workers map
/// 1:1 to simulated cores.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual EngineKind kind() const = 0;
  const char* name() const { return EngineKindName(kind()); }

  /// Creates tables and primary indexes and bulk-populates them with
  /// their initial rows (simulation is disabled during the bulk load,
  /// mirroring the paper's profile-after-populate methodology).
  virtual Status CreateDatabase(const std::vector<TableDef>& defs) = 0;

  /// Executes one transaction on `worker`: engine-specific frontend and
  /// commit work wraps the stored-procedure `body`.
  virtual Status Execute(int worker, const TxnRequest& request,
                         const std::function<Status(TxnContext&)>& body) = 0;

  virtual mcsim::MachineSim* machine() = 0;

  /// Runs `hook` before every TxnContext operation of a transaction
  /// body; an empty hook removes it. The interleaved runner switches
  /// workers there, so no operation, Begin or Commit is ever split.
  /// Engines that do not run bodies themselves ignore it.
  virtual void set_op_hook(std::function<void()> /*hook*/) {}

  /// Lifecycle-span accumulator (index-probe / lock-acquire /
  /// log-append / storage-access cycles). The harness resets it at each
  /// measurement-window start and reads it after EndWindow.
  virtual obs::SpanCollector* span_collector() = 0;

  /// The engine's durable write-ahead log, merged across workers in LSN
  /// order (the simulated log device).
  virtual std::vector<txn::LogRecord> StableLog() const = 0;

  /// The number of records StableLog() returns.
  virtual uint64_t StableLogSize() const { return StableLog().size(); }

  /// Calls `visit` on each record StableLog() returns, in the same
  /// order. Engines that own their logs read the records where they
  /// lie instead of copying them.
  virtual void VisitStableLog(
      const std::function<void(const txn::LogRecord&)>& visit) const {
    for (const txn::LogRecord& rec : StableLog()) visit(rec);
  }

  /// The flushed prefix of the durable log: only records the
  /// asynchronous background writer had pushed to the device. This is
  /// what survives a crash that loses the in-memory log rings
  /// (crash.post_commit faults recover from this, not StableLog).
  virtual std::vector<txn::LogRecord> FlushedLog() const = 0;

  /// Crash recovery: REDOes the committed transactions of `log` onto
  /// this engine's tables and indexes. Call on a freshly created
  /// database (same TableDefs as the crashed instance). Logical
  /// kCommand records (VoltDB-style command logging) are not physically
  /// replayable and are skipped.
  virtual Status Replay(const std::vector<txn::LogRecord>& log) = 0;

  /// Advances the fuzzy checkpoint state machine after `worker` retired
  /// a transaction. No-op unless options.checkpoint.enabled.
  virtual void CheckpointTick(int /*worker*/) {}

  /// Checkpoint-aware recovery: restores the newest usable checkpoint
  /// from `device` (torn pages discard a checkpoint in favor of the
  /// previous complete one) with its pages and index images, replays
  /// the records of `log` from that checkpoint's begin LSN on, and
  /// rolls back losers with before-images. Falls
  /// back to plain Replay when no checkpoint is usable — unless the log
  /// was truncated (`log_truncation_lsn` > 0), which makes full replay
  /// unsound and recovery fails with an error. Call on a freshly
  /// created database.
  virtual Status Recover(const std::vector<txn::CheckpointImage>& device,
                         const std::vector<txn::LogRecord>& log,
                         uint64_t log_truncation_lsn,
                         txn::RecoveryStats* stats) = 0;

  /// The live checkpoint manager (null when checkpointing is disabled).
  virtual const txn::CheckpointManager* checkpoints() const {
    return nullptr;
  }

  /// Highest truncation LSN across the per-worker logs (0 = never
  /// truncated). Recovery inputs carry this alongside FlushedLog().
  virtual uint64_t LogTruncationLsn() const = 0;

  /// Lifetime record count across all per-worker logs, including
  /// truncated records — what a full no-checkpoint replay would have
  /// had to process.
  virtual uint64_t AppendedLogRecords() const = 0;
};

std::unique_ptr<Engine> CreateEngine(EngineKind kind,
                                     mcsim::MachineSim* machine,
                                     const EngineOptions& options);

/// Parses a CLI engine name ("shore-mt", "dbms-d", "voltdb", "hyper",
/// "dbms-m") — the single spelling authority for every tool that takes
/// an --engine flag. Returns false on an unknown name.
bool ParseEngineKind(const std::string& name, EngineKind* out);

/// The valid ParseEngineKind spellings, space-separated, for error
/// messages ("unknown engine: X (choices: ...)").
const char* EngineKindChoices();

}  // namespace imoltp::engine

#endif  // IMOLTP_ENGINE_ENGINE_H_
