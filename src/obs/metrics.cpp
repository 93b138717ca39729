#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <limits>

namespace gred::obs {

namespace {

double bits_to_double(std::uint64_t b) { return std::bit_cast<double>(b); }
std::uint64_t double_to_bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// CAS-accumulate into a double stored as bits.
void atomic_add_double(std::atomic<std::uint64_t>& bits, double delta) {
  // relaxed: metric cells are independent tallies read at export time,
  // after the traffic being measured quiesced; the CAS loop only needs
  // this cell's own modification order.
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      cur, double_to_bits(bits_to_double(cur) + delta),
      std::memory_order_relaxed)) {  // relaxed: see above
  }
}

void atomic_min_double(std::atomic<std::uint64_t>& bits, double v) {
  // relaxed: same independent-tally argument as atomic_add_double.
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (bits_to_double(cur) > v &&
         !bits.compare_exchange_weak(
             cur, double_to_bits(v),
             std::memory_order_relaxed)) {  // relaxed: see above
  }
}

void atomic_max_double(std::atomic<std::uint64_t>& bits, double v) {
  // relaxed: same independent-tally argument as atomic_add_double.
  std::uint64_t cur = bits.load(std::memory_order_relaxed);
  while (bits_to_double(cur) < v &&
         !bits.compare_exchange_weak(
             cur, double_to_bits(v),
             std::memory_order_relaxed)) {  // relaxed: see above
  }
}

std::atomic<std::size_t> g_next_shard{0};

constexpr std::size_t kUnassignedShard = static_cast<std::size_t>(-1);
thread_local std::size_t t_shard = kUnassignedShard;

}  // namespace

std::size_t this_thread_shard() {
  if (t_shard == kUnassignedShard) {
    // relaxed: a pure ticket counter — each thread only needs a unique
    // value, not any ordering with other memory.
    t_shard =
        g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  }
  return t_shard;
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Slot& s : slots_) {
    // relaxed: slot-order merge of independent tallies; exactness comes
    // from each slot's modification order, not inter-slot ordering.
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  // relaxed: reset races with writers by contract (callers quiesce).
  for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
}

Histogram::Shard::Shard()
    : min_bits(double_to_bits(std::numeric_limits<double>::infinity())),
      max_bits(double_to_bits(-std::numeric_limits<double>::infinity())) {
  // relaxed: construction precedes any concurrent access.
  for (auto& b : bins) b.store(0, std::memory_order_relaxed);
}

void Histogram::record(double v) {
  Shard& sh = shards_[this_thread_shard()];
  // relaxed: independent per-shard tally (see atomic_add_double).
  sh.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sh.sum_bits, v);
  atomic_min_double(sh.min_bits, v);
  atomic_max_double(sh.max_bits, v);

  int exp = 0;
  if (v > 0.0 && std::isfinite(v)) {
    (void)std::frexp(v, &exp);  // v in [2^(exp-1), 2^exp)
  } else {
    exp = kMinExp;  // non-positive / non-finite values clamp to bin 0
  }
  std::size_t bin = 0;
  if (exp > kMinExp) {
    bin = static_cast<std::size_t>(exp - kMinExp);
    if (bin >= kBins) bin = kBins - 1;
  }
  // relaxed: independent per-shard tally (see atomic_add_double).
  sh.bins[bin].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::Snapshot::bin_upper(std::size_t i) {
  return std::ldexp(1.0, kMinExp + 1 + static_cast<int>(i));
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  // Slot-order merge (the block-order reduction discipline).
  // relaxed: snapshots are taken after the measured traffic quiesced;
  // per-cell modification order is all the merge relies on.
  for (const Shard& sh : shards_) {
    out.count += sh.count.load(std::memory_order_relaxed);
    out.sum += bits_to_double(sh.sum_bits.load(std::memory_order_relaxed));
    mn = std::min(mn, bits_to_double(sh.min_bits.load(std::memory_order_relaxed)));
    mx = std::max(mx, bits_to_double(sh.max_bits.load(std::memory_order_relaxed)));
    for (std::size_t i = 0; i < kBins; ++i) {
      out.bins[i] += sh.bins[i].load(std::memory_order_relaxed);
    }
  }
  out.min = out.count > 0 ? mn : 0.0;
  out.max = out.count > 0 ? mx : 0.0;
  return out;
}

void Histogram::reset() {
  // relaxed: reset races with writers by contract (callers quiesce).
  for (Shard& sh : shards_) {
    sh.count.store(0, std::memory_order_relaxed);
    sh.sum_bits.store(double_to_bits(0.0), std::memory_order_relaxed);
    sh.min_bits.store(double_to_bits(std::numeric_limits<double>::infinity()),
                      std::memory_order_relaxed);
    sh.max_bits.store(double_to_bits(-std::numeric_limits<double>::infinity()),
                      std::memory_order_relaxed);
    for (auto& b : sh.bins) b.store(0, std::memory_order_relaxed);
  }
}

Counter& Registry::counter(const std::string& name) {
  gred::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  gred::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  gred::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Registry::Snapshot Registry::snapshot() const {
  gred::MutexLock lock(mu_);
  Snapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.counters.emplace_back(name, c->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.gauges.emplace_back(name, g->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace_back(name, h->snapshot());
  }
  return out;
}

void Registry::reset_values() {
  gred::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace gred::obs
