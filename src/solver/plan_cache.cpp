#include "solver/plan_cache.hpp"

#include <algorithm>

namespace graphene::solver {

std::uint64_t fnv1aBytes(const void* data, std::size_t len,
                         std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::uint64_t hashSizeT(std::uint64_t h, std::size_t v) {
  const auto x = static_cast<std::uint64_t>(v);
  return fnv1aBytes(&x, sizeof x, h);
}

}  // namespace

std::uint64_t structureFingerprint(const matrix::GeneratedMatrix& m,
                                   const SessionOptions& options) {
  return structureFingerprint(matrixStructureHash(m), options);
}

std::uint64_t matrixStructureHash(const matrix::GeneratedMatrix& m) {
  const matrix::CsrMatrix& a = m.matrix;
  std::uint64_t h = 14695981039346656037ull;
  h = hashSizeT(h, a.rows());
  h = hashSizeT(h, a.cols());
  h = hashSizeT(h, a.nnz());
  h = fnv1aBytes(a.rowPtr().data(), a.rowPtr().size_bytes(), h);
  h = fnv1aBytes(a.colIdx().data(), a.colIdx().size_bytes(), h);
  // Geometry hints pick grid vs BFS partitioning — structurally identical
  // matrices with different hints produce different layouts and programs.
  h = hashSizeT(h, m.nx);
  h = hashSizeT(h, m.ny);
  return hashSizeT(h, m.nz);
}

std::uint64_t structureFingerprint(std::uint64_t matrixHash,
                                   const SessionOptions& options) {
  std::uint64_t h = hashSizeT(matrixHash, options.tiles);
  h = hashSizeT(h, options.perCellHalo ? 1 : 0);
  // The machine shape (chips x tiles, link model) changes the partition,
  // the emitted exchange programs and the cycle pricing: a pipeline compiled
  // for 1x64 must never be replayed on a 4x16 pod. Hash the *resolved*
  // topology so the explicit-topology, GRAPHENE_TEST_POD and plain-tiles
  // spellings of the same shape share cache entries.
  h = hashSizeT(h, static_cast<std::size_t>(
                       resolveSessionTopology(options).fingerprint()));
  return h;
}

std::uint64_t valuesFingerprint(const matrix::CsrMatrix& m) {
  return fnv1aBytes(m.values().data(), m.values().size_bytes());
}

std::uint64_t configFingerprint(const json::Value& solverConfig) {
  const std::string dump = solverConfig.dump();
  return fnv1aBytes(dump.data(), dump.size());
}

bool configBakesValues(const json::Value& solverConfig) {
  if (!solverConfig.isObject()) return false;
  if (solverConfig.contains("type") && solverConfig.at("type").isString()) {
    const std::string& type = solverConfig.at("type").asString();
    if (type == "ilu" || type == "dilu" || type == "gauss-seidel" ||
        type == "gaussseidel" || type == "gs") {
      return true;
    }
  }
  // Nested stages sit under these keys (see makeSolver()).
  for (const char* nested : {"preconditioner", "inner"}) {
    if (solverConfig.contains(nested) &&
        configBakesValues(solverConfig.at(nested))) {
      return true;
    }
  }
  return false;
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {}

PlanCache::Lease PlanCache::acquire(const Key& key, std::uint64_t valuesHash,
                                    bool allowValueUpdate) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* exact = nullptr;
  Entry* stale = nullptr;  // idle, right key, wrong values
  for (Entry& e : entries_) {
    if (e.busy || !(e.key == key)) continue;
    if (e.valuesHash == valuesHash) {
      // Prefer the most recently used exact match (warmest pipeline).
      if (exact == nullptr || e.lastUsedTick > exact->lastUsedTick) exact = &e;
    } else if (stale == nullptr || e.lastUsedTick > stale->lastUsedTick) {
      stale = &e;
    }
  }
  Entry* pick = exact != nullptr ? exact
                : allowValueUpdate ? stale
                                   : nullptr;
  if (pick == nullptr) {
    stats_.misses += 1;
    return {};
  }
  pick->busy = true;
  pick->lastUsedTick = ++tick_;
  pick->valuesHash = valuesHash;  // caller updates values when it differed
  stats_.hits += 1;
  return {pick->session, pick == exact};
}

void PlanCache::insert(const Key& key, std::uint64_t valuesHash,
                       std::shared_ptr<SolveSession> session) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.key = key;
  e.valuesHash = valuesHash;
  e.topologyFp =
      session->options().topology ? session->options().topology->fingerprint()
                                  : 0;
  e.session = std::move(session);
  e.busy = true;  // the builder keeps the lease
  e.lastUsedTick = ++tick_;
  entries_.push_back(std::move(e));
  evictLocked();
}

void PlanCache::release(const SolveSession* session, bool invalidate) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].session.get() != session) continue;
    if (invalidate) {
      stats_.invalidations += 1;
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      entries_[i].busy = false;
      entries_[i].lastUsedTick = ++tick_;
    }
    return;
  }
  // Not cached (capacity 0 or evicted while leased is impossible — busy
  // entries are never evicted — so this is the never-inserted case).
}

std::size_t PlanCache::invalidateTopology(std::uint64_t topologyFp) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (!entries_[i].busy && entries_[i].topologyFp == topologyFp) {
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      dropped += 1;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void PlanCache::evictLocked() {
  while (entries_.size() > capacity_) {
    std::size_t lru = SIZE_MAX;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].busy) continue;
      if (lru == SIZE_MAX ||
          entries_[i].lastUsedTick < entries_[lru].lastUsedTick) {
        lru = i;
      }
    }
    // Every entry leased: tolerate transient over-capacity rather than
    // yanking a pipeline out from under a running solve.
    if (lru == SIZE_MAX) return;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(lru));
    stats_.evictions += 1;
  }
}

}  // namespace graphene::solver
