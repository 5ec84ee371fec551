// 128-bit state fingerprints and a lock-striped sharded visited set.
//
// The schedule explorer deduplicates dynamic states by hash only — it
// never keeps the states themselves, so a fingerprint collision silently
// prunes a genuinely distinct reachable state, which can mask a race or
// an assertion failure. A single 64-bit hash makes that realistic at
// scale: by the birthday bound, ~2^22 explored states (the default state
// budget) give a collision probability of about 2^44/2^65 ≈ 5e-7 per
// run, and a fleet of runs multiplies it. Two *independently* mixed
// 64-bit hashes push the bound to ~2^44/2^129, i.e. below 1e-24 —
// negligible even across millions of CI runs. See docs/ANALYSIS.md.
//
// ShardedVisitedMap splits the set into 64 lock-striped shards keyed by
// the high hash bits. The parallel explorer assigns whole shards to workers
// during its deduplication phase, so insert order *within one shard* is
// the deterministic frontier order — the property its determinism
// argument rests on (docs/PERFORMANCE.md); the stripes additionally make
// concurrent use from arbitrary threads safe. Each shard is one flat
// open-addressing table (linear probing, load factor at most 1/2), so an
// insert allocates nothing except when its shard doubles.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace cssame::support {

/// Two independently-mixed 64-bit fingerprints of one dynamic state.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

struct Hash128Hasher {
  [[nodiscard]] std::size_t operator()(const Hash128& h) const {
    return static_cast<std::size_t>(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Visited map for the DPOR-enabled explorer: each fingerprint carries
/// the sleep mask the state was (last) expanded under. Sleep sets and
/// state caching are unsound when combined naively — a state first
/// reached with sleep set S1 only expanded its non-slept actions, so a
/// later visit with sleep set S2 must re-expand whatever S1 suppressed
/// that S2 would allow (Godefroid's state-caching rule). insertOrMerge
/// implements exactly that: `missing` is the persistent-set actions the
/// stored visit slept but the new one would run, and the stored mask
/// shrinks to the intersection (the state is now covered for both).
/// Each action of a state re-expands at most once: `missing` excludes
/// everything outside the stored mask, and the stored mask loses every
/// bit that `missing` returns — re-expansion terminates.
///
/// The map is lock-striped across kShards shards keyed by high hash
/// bits, and the explorer's in-order per-shard dedup scan keeps merge
/// order — and with it every `missing` mask — independent of the worker
/// count. With the reduction off, every call passes sleep == pmask == 0
/// and the map acts as a plain visited set.
class ShardedVisitedMap {
 public:
  static constexpr std::size_t kShards = 64;

  /// Shard of a key — a pure function of the fingerprint, so callers can
  /// partition work by shard. Uses the high word's top bits; the in-shard
  /// tables probe from the low word.
  [[nodiscard]] static std::size_t shardOf(const Hash128& h) {
    return static_cast<std::size_t>(h.hi >> 58) % kShards;
  }

  struct MergeResult {
    bool fresh = false;          ///< key was not present before
    std::uint64_t missing = 0;   ///< action keys to re-expand (dups only)
  };

  MergeResult insertOrMerge(const Hash128& h, std::uint64_t sleep,
                            std::uint64_t pmask) {
    Shard& s = shards_[shardOf(h)];
    std::lock_guard<std::mutex> lock(s.mutex);
    auto [entry, inserted] = s.table.findOrInsert(h, sleep);
    if (inserted) return {true, 0};
    const std::uint64_t stored = entry->sleep;
    entry->sleep = stored & sleep;
    return {false, pmask & stored & ~sleep};
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mutex);
      n += s.table.size();
    }
    return n;
  }

  /// Two fingerprints' worth of bytes per stored state — the budget
  /// measure the explorer's memory cap is defined in, independent of how
  /// full the tables happen to be.
  [[nodiscard]] std::uint64_t approxBytes() const {
    return static_cast<std::uint64_t>(size()) * 2 * sizeof(Hash128);
  }

 private:
  /// Open-addressing (linear probing) table of fingerprint → stored
  /// sleep mask, in one flat array: no per-entry allocation. The all-zero
  /// fingerprint marks an empty slot, so a real all-zero key (probability
  /// 2^-128) is kept aside in `zero_`.
  class Table {
   public:
    struct Entry {
      Hash128 key;
      std::uint64_t sleep = 0;
    };

    /// The entry for `h` and whether it was just inserted with `sleep`.
    std::pair<Entry*, bool> findOrInsert(const Hash128& h,
                                         std::uint64_t sleep) {
      if (h == Hash128{}) {
        const bool inserted = !hasZero_;
        if (inserted) zero_ = Entry{h, sleep};
        hasZero_ = true;
        return {&zero_, inserted};
      }
      // Keep the load factor at or below 1/2.
      if (2 * (count_ + 1) > slots_.size()) grow();
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = bucketOf(h) & mask;; i = (i + 1) & mask) {
        Entry& e = slots_[i];
        if (e.key == h) return {&e, false};
        if (e.key == Hash128{}) {
          e = Entry{h, sleep};
          ++count_;
          return {&e, true};
        }
      }
    }

    [[nodiscard]] std::size_t size() const {
      return count_ + (hasZero_ ? 1 : 0);
    }

   private:
    /// Bucket from the low word: shardOf() consumes the high word's top
    /// bits, which are constant within a shard.
    [[nodiscard]] static std::size_t bucketOf(const Hash128& h) {
      return static_cast<std::size_t>(h.lo);
    }

    void grow() {
      std::vector<Entry> old = std::move(slots_);
      slots_.assign(old.empty() ? 64 : 2 * old.size(), Entry{});
      const std::size_t mask = slots_.size() - 1;
      for (const Entry& e : old) {
        if (e.key == Hash128{}) continue;
        std::size_t i = bucketOf(e.key) & mask;
        while (slots_[i].key != Hash128{}) i = (i + 1) & mask;
        slots_[i] = e;
      }
    }

    std::vector<Entry> slots_;  ///< power-of-two size, or empty
    std::size_t count_ = 0;     ///< occupied slots
    bool hasZero_ = false;
    Entry zero_;
  };

  struct Shard {
    mutable std::mutex mutex;
    Table table;
  };
  std::array<Shard, kShards> shards_;
};

}  // namespace cssame::support
