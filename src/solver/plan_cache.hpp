// PlanCache — warm-pipeline reuse keyed by sparsity structure.
//
// Building a solve pipeline is the expensive part of a solve on the
// simulated IPU: partitioning, halo-region layout, DistMatrix construction
// and symbolic program emission all scale with the matrix, while
// re-*executing* an already-emitted program costs only the upload and the
// run. A service answering repeat solves against the same sparsity
// structure (time-stepping, Newton iterations, parameter sweeps) should pay
// the build once.
//
// Keys are (structure, config) fingerprint pairs:
//   structureFingerprint — FNV-1a over rowPtr/colIdx/shape, the grid
//     geometry hints and the session knobs that shape the emitted program
//     (tiles, perCellHalo). Two matrices with equal structure hashes share
//     partitions, layouts and programs.
//   configFingerprint — FNV-1a over the canonical dump of the solver JSON.
//     The emitted program is tied to the solver chain, so a different
//     config is a different plan.
//
// Value-identity is tracked separately (valuesFingerprint over the
// coefficient array): a hit with different values re-uploads via
// SolveSession::updateMatrixValues() instead of rebuilding — unless the
// caller forbids it (factorisation preconditioners bake values into their
// factors at emission time; value-only reuse would solve with stale
// factors).
//
// The cache is thread-safe and lease-based: acquire() hands an idle entry
// exclusively to one worker (several entries may exist per key when
// concurrent jobs collide), release() returns or — when the pipeline came
// back damaged, e.g. with freshly blacklisted tiles — drops it. Eviction is
// LRU over idle entries.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "matrix/generators.hpp"
#include "solver/session.hpp"
#include "support/json.hpp"

namespace graphene::solver {

/// FNV-1a over `len` bytes, chained through `seed` for multi-field hashes.
std::uint64_t fnv1aBytes(const void* data, std::size_t len,
                         std::uint64_t seed = 14695981039346656037ull);

/// Hash of everything that shapes the emitted program except coefficient
/// values: sparsity structure, shape, geometry hints and the session knobs
/// `tiles` / `perCellHalo` plus the resolved topology.
std::uint64_t structureFingerprint(const matrix::GeneratedMatrix& m,
                                   const SessionOptions& options);

/// The matrix part of structureFingerprint: the FNV-1a state after the
/// shape, rowPtr/colIdx and the geometry hints. A caller that keys one
/// matrix under several session shapes hashes the matrix once with this
/// and finishes each key with the overload below.
std::uint64_t matrixStructureHash(const matrix::GeneratedMatrix& m);

/// structureFingerprint(m, options), finished from matrixStructureHash(m).
std::uint64_t structureFingerprint(std::uint64_t matrixHash,
                                   const SessionOptions& options);

/// Hash of the coefficient array alone.
std::uint64_t valuesFingerprint(const matrix::CsrMatrix& m);

/// Hash of the canonical (compact) dump of a solver JSON config.
std::uint64_t configFingerprint(const json::Value& solverConfig);

/// True when the solver chain described by `solverConfig` contains a
/// factorisation-type stage ((d)ilu, gauss-seidel) whose emitted program
/// bakes coefficient values in — value-only plan reuse is unsound for it.
bool configBakesValues(const json::Value& solverConfig);

class PlanCache {
 public:
  struct Key {
    std::uint64_t structure = 0;
    std::uint64_t config = 0;
    bool operator==(const Key& o) const {
      return structure == o.structure && config == o.config;
    }
  };

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t invalidations = 0;
    std::size_t evictions = 0;
  };

  /// What acquire() hands out. `session` is null on a miss; on a hit the
  /// caller holds the exclusive lease until release(). `valuesMatch` tells
  /// whether the cached coefficients already equal the requested values
  /// hash — when false the caller MUST updateMatrixValues() before solving
  /// (acquire() already re-stamped the entry with the new hash).
  struct Lease {
    std::shared_ptr<SolveSession> session;
    bool valuesMatch = false;
  };

  /// `capacity` bounds the number of warm pipelines kept; 0 disables
  /// caching entirely (every acquire misses, insert/release drop).
  explicit PlanCache(std::size_t capacity);

  /// Leases an idle warm pipeline for `key`, preferring one whose cached
  /// coefficients already match `valuesHash`. When only value-mismatched
  /// entries are idle: with `allowValueUpdate` the best LRU entry is
  /// re-stamped to `valuesHash` and returned with valuesMatch=false;
  /// without it (factorisation chains) the call misses.
  Lease acquire(const Key& key, std::uint64_t valuesHash,
                bool allowValueUpdate);

  /// Registers a freshly built pipeline as a leased entry for `key` (the
  /// caller keeps using it; release() returns it to the pool). May evict
  /// the LRU idle entry to stay within capacity. No-op at capacity 0.
  /// The entry is tagged with the session's resolved topology fingerprint
  /// so chip-dead verdicts can invalidate every plan built for the now-gone
  /// machine shape (see invalidateTopology).
  void insert(const Key& key, std::uint64_t valuesHash,
              std::shared_ptr<SolveSession> session);

  /// Ends a lease. `invalidate` drops the entry instead of returning it —
  /// the pipeline no longer matches its key (e.g. hard-fault recovery
  /// blacklisted tiles and repartitioned, or the solve corrupted state).
  /// Sessions never seen by insert() (cache full / capacity 0) are ignored.
  void release(const SolveSession* session, bool invalidate);

  /// Drops every idle entry whose pipeline was built for the machine shape
  /// with fingerprint `topologyFp` — the chip-dead path: once a chip is
  /// gone, every plan compiled for the pre-shrink pod is stale regardless
  /// of its (structure, config) key. Leased entries are dropped at
  /// release(). Returns how many entries were invalidated.
  std::size_t invalidateTopology(std::uint64_t topologyFp);

  /// Drops every entry unconditionally. Only safe when no leases are
  /// outstanding (e.g. service shutdown after the workers joined).
  void clear();

  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    Key key;
    std::uint64_t valuesHash = 0;
    std::uint64_t topologyFp = 0;  // resolved machine shape at insert time
    std::shared_ptr<SolveSession> session;
    bool busy = false;
    std::uint64_t lastUsedTick = 0;
  };

  /// Caller must hold mu_. Evicts idle LRU entries until size <= capacity.
  void evictLocked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace graphene::solver
