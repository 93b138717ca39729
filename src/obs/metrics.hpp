// The gred::obs metrics registry: named counters, gauges, and
// histograms with stable addresses (register once at setup, record
// through the cached reference on the hot path).
//
// Write-side design follows the repo's thread-count-invariant reduction
// discipline (DESIGN.md §7): every metric is sharded into a fixed
// number of cache-line-sized slots, each writer thread is pinned to one
// slot (thread-local assignment, round-robin), and readers merge the
// shards in slot order. Counter and histogram bin merges are integer
// sums — exact and order-independent — while the floating-point
// sum/min/max merges run in the same slot order on every read, so two
// snapshots of an idle registry are identical regardless of how many
// threads wrote.
//
// Recording never allocates: shards are embedded in the metric object
// and bins are fixed. Registration (name -> metric) takes a mutex and
// may allocate, so instrumentation sites that sit on packet paths must
// look their metric up once and keep the reference.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace gred::obs {

/// Writer shards per metric. More than the container's core count so
/// slot collisions (two threads pinned to one slot) stay rare; atomic
/// slot updates keep collisions correct, just contended.
inline constexpr std::size_t kMetricShards = 16;

/// Slot index of the calling thread (assigned round-robin on first
/// use).
std::size_t this_thread_shard();

/// Monotonic event counter.
class Counter {
 public:
  GRED_HOT_PATH void add(std::uint64_t delta = 1) {
    // relaxed: per-slot tally; readers merge slots and only need each
    // slot's own modification order, not cross-slot ordering.
    slots_[gred::obs::this_thread_shard()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  /// Shards merged in slot order.
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  Slot slots_[kMetricShards];
};

/// Last-written scalar (single value, not sharded: gauges record a
/// state, not a stream, and the last writer wins by definition).
class Gauge {
 public:
  // relaxed: a gauge is a standalone last-writer-wins scalar; nothing
  // is published through it.
  GRED_HOT_PATH void set(double v) { v_.store(v, std::memory_order_relaxed); }
  // relaxed: see set().
  double value() const { return v_.load(std::memory_order_relaxed); }
  // relaxed: see set().
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bin histogram for durations and sizes: 40 power-of-two bins
/// covering [2^-20, 2^20) (sub-microsecond to ~17 minutes when fed
/// milliseconds), plus count/sum/min/max. Bin counts are exact integer
/// merges; sum/min/max merge in slot order.
class Histogram {
 public:
  static constexpr std::size_t kBins = 40;
  static constexpr int kMinExp = -20;  ///< bin 0 holds v < 2^(kMinExp+1)

  GRED_HOT_PATH void record(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
    std::uint64_t bins[kBins] = {};

    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Upper edge of bin i (2^(kMinExp + 1 + i)).
    static double bin_upper(std::size_t i);
  };
  Snapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};  ///< double, CAS-accumulated
    std::atomic<std::uint64_t> min_bits;     ///< double bits, CAS-min
    std::atomic<std::uint64_t> max_bits;     ///< double bits, CAS-max
    std::atomic<std::uint64_t> bins[kBins];
    Shard();
  };
  Shard shards_[kMetricShards];
};

/// Name -> metric map with stable addresses. One process-wide instance
/// (registry()); tests may build their own.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  /// All metrics, name-sorted (std::map order) for deterministic dumps.
  Snapshot snapshot() const;

  /// Zeroes every registered metric (names stay registered — cached
  /// references remain valid). Benches call this between sections.
  void reset_values();

 private:
  mutable gred::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GRED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GRED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GRED_GUARDED_BY(mu_);
};

/// The process-wide registry every library instrumentation site uses.
Registry& registry();

}  // namespace gred::obs
