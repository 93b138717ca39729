// gredbench: the GRED service benchmark. Drives one workload through
// GRED's public API (GredSystem / GredProtocol, Controller dynamics,
// SdenNetwork, HotKeyCache, RetrievalDelayExperiment) and prints one
// JSON result line:
//
//   gredbench --workload uniform|hotspot|churn --seed N --seconds S
//             --trace 0|1 [--smoke] [--corrupt-expectation]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload twice (untraced, then with gred::obs on and a layer pass that
// times each layer's public functions on the loop's inputs) and reports
// the per-layer ledger.
// The amount of work is fixed by (seed, seconds): every run with the
// same arguments replays the same op stream, so the quality metrics
// (stretch, balance, model delay, success rate) and the per-layer
// counts repeat exactly. See README.md for the metric glossary.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/delay_experiment.hpp"
#include "core/multihop_dt.hpp"
#include "core/system.hpp"
#include "crypto/data_key.hpp"
#include "geometry/cvt.hpp"
#include "graph/shortest_path.hpp"
#include "linalg/mds.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/switch_load.hpp"
#include "sden/hot_key_cache.hpp"
#include "sden/network.hpp"
#include "topology/waxman.hpp"
#include "workload/hotspot.hpp"

#if !defined(GREDBENCH_BUILD_TYPE)
#define GREDBENCH_BUILD_TYPE "unknown"
#endif
#if !defined(GREDBENCH_COMPILER)
#define GREDBENCH_COMPILER "unknown"
#endif

// Allocation hook for protocol.allocs_per_op: a per-thread count of
// operator new calls, read around single public calls in the traced
// run. Thread-local, so the two uniform clients never share a line.
namespace {
thread_local std::uint64_t tl_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++tl_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace gred;
using topology::SwitchId;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "gredbench: %s\n", what.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool corrupt_expectation = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.seed = std::strtoull(val().c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(val().c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = val() == "1";
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--corrupt-expectation") {
      a.corrupt_expectation = true;
    } else {
      die("unknown argument " + k);
    }
  }
  if (a.workload != "uniform" && a.workload != "hotspot" &&
      a.workload != "churn") {
    die("--workload must be uniform, hotspot or churn");
  }
  if (!have_seed) die("--seed is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) die("--seconds out of range");
  return a;
}

// ---------------------------------------------------------------------
// Small statistics helpers

/// Exact latency histogram: 1-ns bins below 128 µs, the rest kept
/// verbatim. Percentiles are nearest-rank.
struct LatHist {
  static constexpr std::size_t kFine = std::size_t{1} << 17;
  std::vector<std::uint32_t> bins = std::vector<std::uint32_t>(kFine, 0);
  std::vector<std::uint64_t> over;
  std::uint64_t n = 0;

  void add(std::uint64_t ns) {
    if (ns < kFine) {
      ++bins[ns];
    } else {
      over.push_back(ns);
    }
    ++n;
  }
  void merge(const LatHist& o) {
    for (std::size_t i = 0; i < kFine; ++i) bins[i] += o.bins[i];
    over.insert(over.end(), o.over.begin(), o.over.end());
    n += o.n;
  }
  double quantile(double q) {
    if (n == 0) return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kFine; ++i) {
      seen += bins[i];
      if (seen >= rank) return static_cast<double>(i);
    }
    std::sort(over.begin(), over.end());
    return static_cast<double>(over[rank - seen - 1]);
  }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// FNV-1a over the generated op stream: two runs with the same seed
/// print the same hash, so identical inputs are visible in the output.
struct StreamHash {
  std::uint64_t h = 1469598103934665603ULL;
  std::uint64_t ops = 0;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  void op(std::uint64_t kind, std::uint64_t a, std::uint64_t b) {
    mix(kind);
    mix(a);
    mix(b);
    ++ops;
  }
};

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      if (c != std::string::npos && c + 2 <= line.size()) {
        return line.substr(c + 2);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Payloads and the oracle: each payload encodes (item, version); the
// benchmark keeps the last version it wrote per item, and every
// successful read, cache hits included, must return exactly that.

constexpr std::size_t kHeaderLen = 23;  // "k%010uv%010u;"

const std::string& filler() {
  static const std::string f = [] {
    std::string s(8192, 'a');
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = static_cast<char>('a' + (i * 7) % 26);
    }
    return s;
  }();
  return f;
}

void write_header(char* out, std::uint32_t item, std::uint32_t version) {
  char tmp[32];
  std::snprintf(tmp, sizeof(tmp), "k%010uv%010u;", item, version);
  std::memcpy(out, tmp, kHeaderLen);
}

void make_payload(std::string& buf, std::uint32_t item,
                  std::uint32_t version, std::size_t size) {
  buf.assign(filler(), 0, size);
  write_header(buf.data(), item, version);
}

bool payload_ok(const std::string& p, std::uint32_t item,
                std::uint32_t version, std::size_t size) {
  if (p.size() != size) return false;
  char hdr[kHeaderLen];
  write_header(hdr, item, version);
  return std::memcmp(p.data(), hdr, kHeaderLen) == 0 &&
         std::memcmp(p.data() + kHeaderLen, filler().data() + kHeaderLen,
                     size - kHeaderLen) == 0;
}

// ---------------------------------------------------------------------
// The per-layer ledger: time summed per layer, with counts.

struct Ledger {
  std::uint64_t key_ns = 0, keys = 0;
  std::uint64_t route_ns = 0, routes = 0, hops = 0, fallback_routes = 0;
  std::uint64_t probe_ns = 0, probes = 0;
  std::uint64_t invalidate_ns = 0, invalidates = 0;
  std::uint64_t retrieve_ns = 0, retrieves = 0;
  std::uint64_t place_ns = 0, places = 0;
  // Self time over retrievals: op time minus the layer timings taken
  // on the same ops.
  std::uint64_t covered_ns = 0;
  std::uint64_t allocs = 0, alloc_ops = 0;
  std::uint64_t attempts = 0, reads = 0, recovered = 0;

  void merge(const Ledger& o) {
    key_ns += o.key_ns;
    keys += o.keys;
    route_ns += o.route_ns;
    routes += o.routes;
    hops += o.hops;
    fallback_routes += o.fallback_routes;
    probe_ns += o.probe_ns;
    probes += o.probes;
    invalidate_ns += o.invalidate_ns;
    invalidates += o.invalidates;
    retrieve_ns += o.retrieve_ns;
    retrieves += o.retrieves;
    place_ns += o.place_ns;
    places += o.places;
    covered_ns += o.covered_ns;
    allocs += o.allocs;
    alloc_ops += o.alloc_ops;
    attempts += o.attempts;
    reads += o.reads;
    recovered += o.recovered;
  }
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }
double ratio(std::uint64_t a, std::uint64_t b) {
  return ratio(static_cast<double>(a), static_cast<double>(b));
}

sden::Packet retrieval_packet(const std::string& id,
                              const crypto::DataKey& key) {
  sden::Packet pkt;
  pkt.type = sden::PacketType::kRetrieval;
  pkt.data_id = id;
  pkt.target = {key.position().x, key.position().y};
  pkt.set_key(key);
  return pkt;
}

/// One op of the closed loop, as the layer pass replays it.
struct SegOp {
  const std::string* id = nullptr;
  SwitchId ingress = 0;
  bool place = false;   ///< a placement: key and invalidation only
  bool routed = false;  ///< the loop's op was routed (no cache hit)
};

/// Ops per layer pass on the workloads without load windows.
constexpr std::size_t kSegmentOps = 4096;

/// The layer pass of a traced run. After a stretch of the closed loop,
/// with the deployment unchanged since, each layer's public function is
/// called on those ops' inputs and timed: the key derivation, the
/// ingress cache probe (when a cache is on), a route of an equivalent
/// retrieval packet with reused scratch (when the loop's op was
/// routed), and before a placement the per-write invalidation. It is a
/// separate pass rather than a call just before each op, so neither the
/// op nor the layer call runs on data the other has just warmed. Probes
/// and invalidations use a digest that is never stored: they pay the
/// full set and cache scans and leave the cache as the loop left it.
void layer_pass(sden::SdenNetwork& net, std::vector<SegOp>& seg, Ledger& led,
                sden::RouteResult& scratch) {
  static const crypto::DataKey absent("perfbench/never-stored");
  sden::HotKeyCache* cache = net.hot_key_cache();
  const bool cached = cache != nullptr && cache->enabled();
  for (const SegOp& op : seg) {
    std::uint64_t t0 = now_ns();
    const crypto::DataKey key(*op.id);
    std::uint64_t t1 = now_ns();
    led.key_ns += t1 - t0;
    ++led.keys;
    if (op.place) {
      if (cached) {
        t0 = now_ns();
        cache->invalidate_id(absent.digest());
        t1 = now_ns();
        led.invalidate_ns += t1 - t0;
        ++led.invalidates;
      }
      continue;
    }
    std::uint64_t covered = t1 - t0;
    if (cached) {
      t0 = now_ns();
      const bool hit = cache->probe(op.ingress, absent.digest()) != nullptr;
      t1 = now_ns();
      if (hit) die("layer pass: the absent digest hit the cache");
      led.probe_ns += t1 - t0;
      ++led.probes;
      covered += t1 - t0;
    }
    if (op.routed) {
      sden::Packet pkt = retrieval_packet(*op.id, key);
      t0 = now_ns();
      net.route(pkt, op.ingress, scratch);
      t1 = now_ns();
      led.route_ns += t1 - t0;
      ++led.routes;
      led.hops += scratch.hop_count();
      covered += t1 - t0;
      if (!scratch.switch_path.empty() &&
          !net.const_switch_at(scratch.switch_path.back())
               .table()
               .rewrites()
               .empty()) {
        ++led.fallback_routes;
      }
    }
    led.covered_ns += covered;
  }
  seg.clear();
}

// ---------------------------------------------------------------------
// Substrate: the paper's default simulation network (Section VII-B),
// a Waxman graph with 4 servers per switch and minimum degree 3,
// embedded by M-position and C-regulation (T = 50, 1000 samples).

// The substrate and the item names are fixed; --seed drives every op
// stream (keys, ingresses, arrival times, dynamics events), so runs on
// different seeds differ in their inputs but not in the deployment.
constexpr std::uint64_t kSubstrateSeed = 2019;

struct Scale {
  std::size_t switches = 256;
  std::size_t cvt_iterations = 50;
  std::size_t setup_reps = 3;
};

topology::EdgeNetwork make_substrate(const Scale& sc) {
  Rng rng(kSubstrateSeed);
  topology::WaxmanOptions opt;
  opt.node_count = sc.switches;
  opt.min_degree = 3;
  // Link weights carry the geographic propagation latency, so the delay
  // model's propagation term is continuous. Routing and the embedding
  // stay on hop counts (weighted_embedding off), as in the paper.
  opt.latency_weights = true;
  auto topo = topology::generate_waxman(opt, rng);
  if (!topo.ok()) die("waxman: " + topo.error().to_string());
  return topology::uniform_edge_network(std::move(topo).value().graph, 4);
}

core::DelayModelOptions delay_options(bool fallback) {
  core::DelayModelOptions opt;
  opt.weights_are_latencies = true;
  opt.use_fallback = fallback;
  return opt;
}

core::VirtualSpaceOptions space_options(const Scale& sc) {
  core::VirtualSpaceOptions o;
  o.use_cvt = true;
  o.cvt_iterations = sc.cvt_iterations;
  o.cvt_samples = 1000;
  return o;
}

/// The CvtOptions VirtualSpace derives from `o` for C-regulation.
geometry::CvtOptions cvt_options(const core::VirtualSpaceOptions& o) {
  geometry::CvtOptions cvt;
  cvt.samples_per_iteration = o.cvt_samples;
  cvt.max_iterations = o.cvt_iterations;
  cvt.energy_threshold = o.cvt_energy_threshold;
  cvt.domain = geometry::Rect{0.0, 0.0, 1.0, 1.0};
  cvt.density = o.cvt_density;
  cvt.density_bound = o.cvt_density_bound;
  return cvt;
}

core::GredSystem create_system(const topology::EdgeNetwork& desc,
                               const core::VirtualSpaceOptions& opts) {
  auto made = core::GredSystem::create(desc, opts);
  if (!made.ok()) die("GredSystem::create: " + made.error().to_string());
  return std::move(made).value();
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 1000003ULL + stream * 7919ULL + 17ULL;
}

// ---------------------------------------------------------------------
// Dynamics events, following bench_control_plane's local churn: the
// partner of a link or join is a participant 2-3 hops away, a removed
// link is one of a's real links.

enum class EventKind { kAddSwitch, kRemoveSwitch, kAddLink, kRemoveLink };

struct Event {
  EventKind kind = EventKind::kAddLink;
  SwitchId a = 0;
  SwitchId b = 0;
};

/// The next event: a uniform mix of the four kinds, or with
/// `adds_only` a local link addition.
Event next_event(core::GredSystem& sys, Rng& rng, bool adds_only) {
  const core::Controller& ctrl = sys.controller();
  const std::vector<SwitchId>& parts = ctrl.space().participants();
  Event ev;
  ev.a = parts[rng.next_below(parts.size())];
  ev.b = parts[rng.next_below(parts.size())];
  std::size_t near_seen = 0;
  for (const SwitchId t : parts) {
    const double d = ctrl.apsp().dist(ev.a, t);
    if (d < 2.0 || d > 3.0) continue;
    ++near_seen;
    if (rng.next_below(near_seen) == 0) ev.b = t;
  }
  ev.kind = adds_only ? EventKind::kAddLink
                      : static_cast<EventKind>(rng.next_below(4));
  if (ev.kind == EventKind::kRemoveLink) {
    const std::vector<graph::EdgeTo>& adj =
        sys.network().description().switches().neighbors(ev.a);
    if (!adj.empty()) ev.b = adj[rng.next_below(adj.size())].to;
  }
  return ev;
}

Status apply_event(core::GredSystem& sys, const Event& ev) {
  switch (ev.kind) {
    case EventKind::kAddSwitch: {
      auto r = sys.add_switch({ev.a, ev.b}, /*servers=*/4);
      return r.ok() ? Status::Ok() : Status(r.error());
    }
    case EventKind::kRemoveSwitch:
      return sys.remove_switch(ev.a);
    case EventKind::kAddLink:
      return sys.add_link(ev.a, ev.b);
    default:
      return sys.remove_link(ev.a, ev.b);
  }
}

/// A rejection the controller owes its caller: a self or duplicate
/// link, a missing link, or a removal that would disconnect the
/// participants. Any other error is a failed dynamics call.
bool is_rejection(const Status& s) {
  switch (s.error().code) {
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kNotFound:
    case ErrorCode::kOutOfRange:
    case ErrorCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

/// Per-event control-plane ledger, from the benchmark's timers and the
/// controller's own diagnostics and obs phase timers.
struct ChurnLedger {
  std::map<EventKind, std::vector<double>> ms_by_kind;
  std::size_t full_fallbacks = 0;
  std::size_t events = 0;
  double rebuild_ms = 0;
  double install_patch_ms = 0;
  double cvt_warm_ms = 0;
  std::size_t warm_starts = 0;
  double migrated = 0;
  double repairs = 0;
  double affected = 0;
  std::size_t incremental_events = 0;
};

obs::Histogram::Snapshot phase_snapshot(const char* phase) {
  return obs::registry()
      .histogram(std::string("control.phase.") + phase + ".ms")
      .snapshot();
}

double phase_sum_ms(const char* phase) { return phase_snapshot(phase).sum; }

/// The rebuild phases' timers at one instant. An event's rebuild time is
/// its incremental_rebuild time, which includes any full rebuild the
/// incremental path falls back to; when that path did not run (the full
/// path was chosen up front), it is the full rebuild's apsp + dt_build +
/// install time.
struct RebuildClock {
  obs::Histogram::Snapshot incremental = phase_snapshot("incremental_rebuild");
  double full_ms = phase_sum_ms("apsp") + phase_sum_ms("dt_build") +
                   phase_sum_ms("install");

  double ms_since(const RebuildClock& before) const {
    if (incremental.count != before.incremental.count) {
      return incremental.sum - before.incremental.sum;
    }
    return full_ms - before.full_ms;
  }
};

/// Applies events to `sys` until one succeeds and returns its wall time
/// in ms, the event in `ev`. A call the controller rejects (duplicate
/// link, a removal that would disconnect the graph) is no op failure; it
/// is only counted. Any other error is recorded in `failure`.
double apply_next_event(core::GredSystem& sys, Rng& rng, bool adds_only,
                        StreamHash* hash, ChurnLedger* led,
                        std::size_t& rejected, std::size_t& attempts,
                        std::size_t max_attempts, std::string& failure,
                        Event& ev) {
  for (;; ++attempts) {
    if (attempts >= max_attempts) die("dynamics: too many rejected events");
    ev = next_event(sys, rng, adds_only);
    if (hash != nullptr) {
      hash->op(100 + static_cast<std::uint64_t>(ev.kind), ev.a, ev.b);
    }
    const RebuildClock r0;
    const double p0 = led != nullptr ? phase_sum_ms("install_patch") : 0;
    const std::uint64_t t0 = now_ns();
    const Status done = apply_event(sys, ev);
    const std::uint64_t t1 = now_ns();
    if (!done.ok()) {
      if (!is_rejection(done) && failure.empty()) {
        failure = "dynamics call failed: " + done.error().to_string();
      }
      ++rejected;
      continue;
    }
    ++attempts;
    const double event_ms = static_cast<double>(t1 - t0) / 1e6;
    if (led != nullptr) {
      const core::Controller& ctrl = sys.controller();
      led->ms_by_kind[ev.kind].push_back(event_ms);
      ++led->events;
      if (!ctrl.last_event_incremental()) {
        ++led->full_fallbacks;
      } else {
        ++led->incremental_events;
        led->affected +=
            static_cast<double>(ctrl.last_affected_switches().size());
      }
      led->rebuild_ms += RebuildClock().ms_since(r0);
      led->install_patch_ms += phase_sum_ms("install_patch") - p0;
      led->migrated += static_cast<double>(ctrl.last_migration_count());
      led->repairs += static_cast<double>(ctrl.last_replication_repairs());
    }
    return event_ms;
  }
}

/// The event stream runs in this many blocks (see run_events).
constexpr std::size_t kEventBlocks = 2;

/// Applies one seeded event stream until `target` events have succeeded
/// on every system in `systems`: identical deployments set up alike, the
/// first the one the workload reads from. Each system draws its events
/// from a generator seeded with `seed`, so all draw and apply the same
/// events; that they do is checked. The stream runs block by block,
/// system after system, so one event runs on the systems a block of
/// events apart, and its time is the fastest of those runs. Co-tenants
/// of a shared host slow whole stretches of a run by up to 60%; the
/// fastest of runs about a second apart is the event's own cost. Only
/// the first system's events are hashed, counted as rejected and
/// booked in `led`; `after` runs after each of its events.
std::vector<double> run_events(const std::vector<core::GredSystem*>& systems,
                               std::uint64_t seed, std::size_t target,
                               bool adds_only, StreamHash& hash,
                               ChurnLedger* led, std::size_t& rejected,
                               std::string& failure,
                               const std::function<void()>& after) {
  const std::size_t max_attempts = 20 * target + 100;
  std::vector<Rng> rngs(systems.size(), Rng(seed));
  std::vector<std::size_t> attempts(systems.size(), 0);
  std::vector<Event> stream;
  std::vector<std::size_t> drawn;  ///< events drawn up to each success
  std::vector<double> ms;
  std::size_t replica_rejected = 0;
  const std::size_t block = std::max<std::size_t>(1, target / kEventBlocks);
  for (std::size_t begin = 0; begin < target; begin += block) {
    const std::size_t end = std::min(target, begin + block);
    for (std::size_t r = 0; r < systems.size(); ++r) {
      for (std::size_t i = begin; i < end; ++i) {
        Event ev;
        const double t = apply_next_event(
            *systems[r], rngs[r], adds_only, r == 0 ? &hash : nullptr,
            r == 0 ? led : nullptr, r == 0 ? rejected : replica_rejected,
            attempts[r], max_attempts, failure, ev);
        if (r == 0) {
          stream.push_back(ev);
          drawn.push_back(attempts[0]);
          ms.push_back(t);
          if (after) after();
          continue;
        }
        if (ev.kind != stream[i].kind || ev.a != stream[i].a ||
            ev.b != stream[i].b || attempts[r] != drawn[i]) {
          if (failure.empty()) {
            failure = "identical deployments diverged at event " +
                      std::to_string(i);
          }
        }
        ms[i] = std::min(ms[i], t);
      }
    }
  }
  return ms;
}

// ---------------------------------------------------------------------
// Client-side recording: every op's latency, and the closed loop cut
// into kSlices equal slices of ops. Rate, median and p99 are taken per
// slice and reported at the slices' quiet end (kQuietQuantile): the
// 90th percentile of slice rates, the 10th percentile of slice medians
// and of slice p99s. On a shared host, co-tenants that contend for the
// last-level cache slow whole stretches of a run by up to 60%, and how
// much of a run they cover differs from run to run; a median over the
// run follows that share, the quiet slices do not.

constexpr std::size_t kSlices = 100;
constexpr double kQuietQuantile = 0.10;

class Recorder {
 public:
  explicit Recorder(std::size_t slice_ops) : slice_ops_(slice_ops) {
    slice_.reserve(slice_ops);
  }
  void start() {
    slice_begin_ = now_ns();
    paused_ = 0;
  }
  /// Brackets client-side work that is not an op (control calls between
  /// load windows, dynamics events between read batches).
  void pause() { pause_at_ = now_ns(); }
  void resume() { paused_ += now_ns() - pause_at_; }
  void add(std::uint64_t ns) {
    lat.add(ns);
    slice_.push_back(ns);
    if (slice_.size() == slice_ops_) close_slice();
  }

  LatHist lat;
  std::vector<double> rates;  ///< ops/s per slice
  std::vector<double> p50s;   ///< ns per slice
  std::vector<double> p99s;   ///< ns per slice

 private:
  double rank(double q) {
    const std::size_t r = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(slice_.size()))));
    std::nth_element(slice_.begin(), slice_.begin() + (r - 1), slice_.end());
    return static_cast<double>(slice_[r - 1]);
  }
  void close_slice() {
    const std::uint64_t now = now_ns();
    const std::uint64_t wall = now - slice_begin_ - paused_;
    rates.push_back(static_cast<double>(slice_.size()) * 1e9 /
                    static_cast<double>(std::max<std::uint64_t>(wall, 1)));
    p50s.push_back(rank(0.50));
    p99s.push_back(rank(0.99));
    slice_.clear();
    slice_begin_ = now;
    paused_ = 0;
  }

  std::size_t slice_ops_;
  std::vector<std::uint64_t> slice_;
  std::uint64_t slice_begin_ = 0;
  std::uint64_t paused_ = 0;
  std::uint64_t pause_at_ = 0;
};

// ---------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// kMeasure: the end-to-end run. kReference: the untraced twin of a
/// traced run (one set-up, the closed loop only, for the trace
/// overhead). kTraced: layer timers on, gred::obs on.
enum class Mode { kMeasure, kReference, kTraced };

/// What every workload reports from one pass.
struct Pass {
  std::vector<double> setup_s;
  double preload_ms = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::string first_wrong;
  LatHist lat;
  double ops_per_s = 0;  ///< quiet-end slice rate of the loop
  double p50_ns = 0;     ///< quiet-end slice median
  double p99_ns = 0;     ///< quiet-end slice p99
  double stretch_sum = 0;
  std::uint64_t stretch_n = 0;
  double load_max_avg = 0;
  double delay_p50 = 0, delay_p99 = 0;
  std::vector<double> event_ms;
  std::size_t rejected_events = 0;
  StreamHash hash;
  Ledger led;
  ChurnLedger churn;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t cache_invalidations = 0;
  double served_max_avg = 0;
  std::size_t extensions = 0;
  bool invariants_ok = true;
  std::string invariant_detail;

  void note_wrong(const std::string& what) {
    if (wrong++ == 0) first_wrong = what;
  }
  /// Folds the clients' recordings in. Clients run side by side, so the
  /// loop's rate is the sum of the clients' quiet-end slice rates.
  void take(const std::vector<Recorder*>& clients) {
    std::vector<double> p50s, p99s;
    ops_per_s = 0;
    for (Recorder* r : clients) {
      lat.merge(r->lat);
      ops_per_s += quantile(r->rates, 1.0 - kQuietQuantile);
      p50s.insert(p50s.end(), r->p50s.begin(), r->p50s.end());
      p99s.insert(p99s.end(), r->p99s.begin(), r->p99s.end());
    }
    p50_ns = quantile(p50s, kQuietQuantile);
    p99_ns = quantile(p99s, kQuietQuantile);
    // Spread of the first client's slices: a wide one means the host
    // was busy.
    const std::vector<double>& rates = clients.front()->rates;
    std::fprintf(stderr,
                 "gredbench: client slice ops/s min %.0f q1 %.0f median %.0f "
                 "q3 %.0f max %.0f; loop reports %.0f\n",
                 quantile(rates, 0.0), quantile(rates, 0.25),
                 quantile(rates, 0.5), quantile(rates, 0.75),
                 quantile(rates, 1.0), ops_per_s);
  }
};

double load_max_avg(const sden::SdenNetwork& net) {
  // Live servers only: a departed switch's servers stay in the id space
  // detached and empty.
  const std::vector<std::size_t> loads = net.server_loads();
  const topology::EdgeNetwork& d = net.description();
  std::size_t live = 0, total = 0, mx = 0;
  for (SwitchId s = 0; s < d.switch_count(); ++s) {
    for (const topology::ServerId srv : d.servers_at(s)) {
      ++live;
      total += loads[srv];
      mx = std::max(mx, loads[srv]);
    }
  }
  return ratio(static_cast<double>(mx) * static_cast<double>(live),
               static_cast<double>(total));
}

/// Validates one deployment; `which` names it in the failure detail.
void check_invariants(core::GredSystem& sys, Pass& p,
                      const std::string& which) {
  const core::Controller& ctrl = sys.controller();
  const auto& parts = ctrl.space().participants();
  const auto& pos = ctrl.space().positions();
  std::vector<std::pair<std::string, check::CheckReport>> reports;
  reports.emplace_back("flow_tables",
                       check::validate_flow_tables(
                           sys.network(), parts, pos,
                           &ctrl.dt().triangulation()));
  reports.emplace_back("delaunay",
                       check::validate_delaunay(ctrl.dt().triangulation()));
  std::map<SwitchId, std::size_t> index;
  for (std::size_t i = 0; i < parts.size(); ++i) index[parts[i]] = i;
  reports.emplace_back(
      "virtual_space",
      check::validate_virtual_space(pos, [&](const geometry::Point2D& q) {
        return index.at(ctrl.space().nearest_participant(q));
      }));
  for (const auto& [name, r] : reports) {
    if (!r.ok()) {
      p.invariants_ok = false;
      p.invariant_detail += which + " " + name + ": " + r.to_string() + "\n";
    }
  }
}

struct WorkloadCtx {
  const Args& args;
  Scale sc;
  topology::EdgeNetwork desc;
};

std::size_t setup_reps(const WorkloadCtx& c, Mode m) {
  return m == Mode::kMeasure ? c.sc.setup_reps : 1;
}

/// A traced run plays the loop twice (untraced, then traced) and needs
/// no more ops for its per-op figures: it plays at most this many
/// seconds' worth, so it ends in about the time of an end-to-end run.
constexpr double kTracedSecondsCap = 10.0;

/// Ops in the closed loop: --seconds times a nominal rate, rounded up
/// to whole slices. The work is fixed by the arguments, never by the
/// clock, so a seed always replays the same ops.
std::size_t loop_ops(const Args& a, double nominal_per_s) {
  const double secs =
      a.trace ? std::min(a.seconds, kTracedSecondsCap) : a.seconds;
  const double want = secs * nominal_per_s;
  const std::size_t slice = static_cast<std::size_t>(
      std::ceil(want / static_cast<double>(kSlices)));
  return kSlices * std::max<std::size_t>(slice, 100);
}

/// Finishes timing one set-up that began at `t0`; the caller has
/// created and configured `sys` since. The first route compiles the
/// plan, `preload` stores the items, `warm` runs any warm-up.
template <typename Preload, typename Warm>
void finish_setup(Pass& p, std::uint64_t t0, core::GredSystem& sys,
                  const std::string& probe_id, Preload&& preload,
                  Warm&& warm) {
  {
    const crypto::DataKey key(probe_id);
    sden::Packet pkt = retrieval_packet(probe_id, key);
    sden::RouteResult r;
    sys.network().route(pkt, 0, r);
  }
  const std::uint64_t t2 = now_ns();
  preload();
  const std::uint64_t t3 = now_ns();
  warm();
  const std::uint64_t t4 = now_ns();
  p.setup_s.push_back(static_cast<double>(t4 - t0) / 1e9);
  p.preload_ms = static_cast<double>(t3 - t2) / 1e6;
}

// ---------------------------------------------------------------------
// Model delay (paper Fig. 8): a fixed seeded retrieval trace through the
// FIFO server-queue model.

void model_delay(core::GredSystem& sys,
                 const std::vector<core::RetrievalRequest>& req,
                 bool fallback, Pass& p) {
  core::RetrievalDelayExperiment ex(sys, delay_options(fallback));
  auto out = ex.run(req);
  if (!out.ok()) die("delay experiment: " + out.error().to_string());
  if (out.value().not_found > 0) p.note_wrong("delay-model retrieval missed");
  p.delay_p50 = out.value().delay.p50;
  p.delay_p99 = out.value().delay.p99;
}

/// Uniform ids and ingresses, Poisson arrivals `mean_gap_ms` apart.
std::vector<core::RetrievalRequest> uniform_requests(
    const std::vector<std::string>& ids, const std::vector<SwitchId>& ingress,
    std::size_t count, double mean_gap_ms, Rng& rng) {
  std::vector<core::RetrievalRequest> req;
  req.reserve(count);
  double at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    at += -mean_gap_ms * std::log(1.0 - rng.next_double());
    req.push_back({ids[rng.next_below(ids.size())],
                   ingress[rng.next_below(ingress.size())], at});
  }
  return req;
}

std::size_t delay_requests(const Args& a) { return a.smoke ? 2000 : 20000; }

/// uniform and hotspot have no dynamics of their own: their event_*
/// figures time this many local link additions on the controller's
/// default full rebuild, with the workload's items in place, on every
/// system the run set up alike (uniform: after the read-only loop;
/// hotspot: the spare set-ups, in the state the timed loop started
/// from). One kind on the full rebuild costs about the same every time,
/// so both percentiles sit in one cost mode. (A mix of kinds, or the
/// incremental path whose cost follows the affected set, puts them on
/// mode boundaries and heavy tails that jump from seed to seed.)
std::size_t epilogue_events(const Args& a) { return a.smoke ? 20 : 60; }

void epilogue(WorkloadCtx& c, const std::vector<core::GredSystem*>& systems,
              Mode m, Pass& p) {
  std::string failure;
  p.event_ms = run_events(systems, sub_seed(c.args.seed, 40),
                          epilogue_events(c.args), true, p.hash,
                          m == Mode::kTraced ? &p.churn : nullptr,
                          p.rejected_events, failure, {});
  if (!failure.empty()) p.note_wrong(failure);
}

/// Raw pointers to a run's set-ups, in order.
std::vector<core::GredSystem*> pointers(
    const std::vector<std::unique_ptr<core::GredSystem>>& systems) {
  std::vector<core::GredSystem*> out;
  for (const auto& x : systems) out.push_back(x.get());
  return out;
}

// ---------------------------------------------------------------------
// Workload: uniform. Read-only retrievals with uniform popularity and
// random ingress from two client threads over a preloaded keyspace far
// larger than any hot-key cache; cache, load tracker and extension off.

constexpr std::size_t kUniformPayload = 64;
constexpr std::size_t kUniformClients = 2;

Pass run_uniform(WorkloadCtx& c, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  const std::size_t keys = c.args.smoke ? 4096 : 65536;
  const std::size_t per_client =
      loop_ops(c.args, c.args.smoke ? 20000.0 : 250000.0);
  const std::size_t nsw = c.desc.switch_count();
  std::vector<std::string> ids;
  ids.reserve(keys);
  for (std::size_t i = 0; i < keys; ++i) {
    ids.push_back("u/" + std::to_string(i));
  }
  Pass p;
  // Every set-up is kept: the dynamics events replay on each.
  std::vector<std::unique_ptr<core::GredSystem>> systems;
  core::GredSystem* sys = nullptr;
  for (std::size_t rep = 0; rep < setup_reps(c, mode); ++rep) {
    const std::uint64_t t0 = now_ns();
    systems.push_back(std::make_unique<core::GredSystem>(
        create_system(c.desc, space_options(c.sc))));
    sys = systems.back().get();
    finish_setup(
        p, t0, *sys, ids[0],
        [&] {
          Rng rng(sub_seed(c.args.seed, 11));
          std::string buf;
          for (std::size_t i = 0; i < keys; ++i) {
            make_payload(buf, static_cast<std::uint32_t>(i), 1,
                         kUniformPayload);
            if (!sys->place(ids[i], buf, rng.next_below(nsw)).ok()) {
              die("uniform preload failed");
            }
          }
        },
        [&] {
          Rng rng(sub_seed(c.args.seed, 12));
          for (std::size_t i = 0; i < std::min<std::size_t>(keys, 20000);
               ++i) {
            (void)sys->retrieve(ids[rng.next_below(keys)],
                                rng.next_below(nsw));
          }
        });
  }
  core::GredSystem& s = *sys;
  std::vector<std::uint32_t> version(keys, 1);
  if (c.args.corrupt_expectation) {
    // The first item client 0 reads (its stream's first draw).
    Rng rng(sub_seed(c.args.seed, 20));
    version[rng.next_below(keys)] += 1;
  }

  struct Client {
    explicit Client(std::size_t slice) : rec(slice) {}
    Recorder rec;
    std::uint64_t failed = 0, wrong = 0;
    std::string first_wrong;
    double stretch = 0;
    std::uint64_t stretch_n = 0;
    Ledger led;
    StreamHash hash;
  };
  std::vector<Client> clients;
  clients.reserve(kUniformClients);
  for (std::size_t t = 0; t < kUniformClients; ++t) {
    clients.emplace_back(per_client / kSlices);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kUniformClients; ++t) {
    threads.emplace_back([&, t] {
      Client& o = clients[t];
      Rng rng(sub_seed(c.args.seed, 20 + t));
      sden::RouteResult scratch;
      std::vector<SegOp> seg;
      while (!go.load(std::memory_order_acquire)) {
      }
      o.rec.start();
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::uint32_t item =
            static_cast<std::uint32_t>(rng.next_below(keys));
        const SwitchId ingress = static_cast<SwitchId>(rng.next_below(nsw));
        o.hash.op(t, item, ingress);
        const std::string& id = ids[item];
        const std::uint64_t a0 = tl_allocs;
        const std::uint64_t t0 = now_ns();
        auto r = s.retrieve(id, ingress);
        const std::uint64_t t1 = now_ns();
        o.rec.add(t1 - t0);
        if (traced) {
          o.led.allocs += tl_allocs - a0;
          ++o.led.alloc_ops;
          o.led.retrieve_ns += t1 - t0;
          ++o.led.retrieves;
          ++o.led.attempts;
          ++o.led.reads;
          seg.push_back({&id, ingress, false, r.ok()});
          if (seg.size() == kSegmentOps) {
            o.rec.pause();
            layer_pass(s.network(), seg, o.led, scratch);
            o.rec.resume();
          }
        }
        if (!r.ok() || !r.value().route.found) {
          ++o.failed;
        } else if (!payload_ok(r.value().route.payload, item, version[item],
                               kUniformPayload)) {
          if (o.wrong++ == 0) o.first_wrong = id;
        } else {
          o.stretch += r.value().stretch;
          ++o.stretch_n;
        }
      }
      if (!seg.empty()) layer_pass(s.network(), seg, o.led, scratch);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  std::vector<Recorder*> recs;
  for (Client& o : clients) {
    recs.push_back(&o.rec);
    p.attempted += o.rec.lat.n;
    p.failed += o.failed;
    if (o.wrong > 0) {
      p.note_wrong(o.first_wrong);
      p.wrong += o.wrong - 1;
    }
    p.stretch_sum += o.stretch;
    p.stretch_n += o.stretch_n;
    p.led.merge(o.led);
    p.hash.mix(o.hash.h);
    p.hash.ops += o.hash.ops;
  }
  p.take(recs);
  if (mode == Mode::kReference) return p;

  p.load_max_avg = load_max_avg(s.network());
  std::vector<SwitchId> all(nsw);
  for (std::size_t i = 0; i < nsw; ++i) all[i] = static_cast<SwitchId>(i);
  // Arrivals dense enough that server FIFO queues form.
  std::string failure;
  Rng drng(sub_seed(c.args.seed, 30));
  model_delay(s, uniform_requests(ids, all, delay_requests(c.args), 0.0004,
                                  drng),
              false, p);
  epilogue(c, pointers(systems), mode, p);
  for (std::size_t i = 0; i < systems.size(); ++i) {
    check_invariants(*systems[i], p, "set-up " + std::to_string(i + 1));
  }
  return p;
}

// ---------------------------------------------------------------------
// Workload: hotspot. bench_hotspot's defended configuration: Zipf 1.2
// with spatial locality and a rotating active region, popularity-
// weighted CVT density, a learning per-switch hot-key cache and
// load-driven range extension every window. One client; 90% retrieve,
// 10% place of 4-KiB payloads.

constexpr std::size_t kHotPayload = 4096;
constexpr std::size_t kHotWindow = 8192;

struct HotOp {
  std::uint32_t item = 0;
  std::uint32_t ingress = 0;
  bool place = false;
  double at_ms = 0;
};

/// The hotspot op generator: Poisson arrivals, key by popularity at the
/// arrival time, ingress localized to the key's region, and (with
/// writes) one op in ten a placement.
class HotGen {
 public:
  HotGen(const workload::HotspotWorkload& load, std::uint64_t seed,
         double clock_ms, bool writes)
      : load_(&load), rng_(seed), clock_(clock_ms), writes_(writes) {}
  HotOp next() {
    HotOp op;
    clock_ += -load_->options().mean_interarrival_ms *
              std::log(1.0 - rng_.next_double());
    const std::size_t key = load_->sample_key(clock_, rng_);
    op.at_ms = clock_;
    op.item = static_cast<std::uint32_t>(key);
    op.ingress = static_cast<std::uint32_t>(load_->sample_ingress(key, rng_));
    op.place = writes_ && rng_.next_double() < 0.1;
    return op;
  }
  double clock() const { return clock_; }

 private:
  const workload::HotspotWorkload* load_;
  Rng rng_;
  double clock_;
  bool writes_;
};

workload::HotspotOptions hot_options(const Args& a) {
  workload::HotspotOptions w;
  w.universe = a.smoke ? 1024 : 4096;
  w.prefix = "h";
  w.grid = 4;
  w.zipf_exponent = 1.2;
  w.locality = 0.7;
  w.ingress_locality = 0.7;
  w.mean_interarrival_ms = 0.05;
  w.diurnal_period_ms = 3000.0;
  return w;
}

core::VirtualSpaceOptions hot_space_options(const Scale& sc,
                                            const workload::HotspotOptions& w) {
  core::VirtualSpaceOptions vopt = space_options(sc);
  // The stationary region demand depends only on the key universe, so a
  // probe workload with a dummy position supplies the density before
  // the deployment (and its positions) exists.
  workload::HotspotWorkload probe(w, {geometry::Point2D{0.5, 0.5}});
  const std::vector<double> demand = probe.region_demand();
  const std::size_t g = w.grid;
  const double regions = static_cast<double>(demand.size());
  double dmax = 0.0;
  for (double d : demand) dmax = std::max(dmax, d);
  vopt.cvt_density = [demand, g, regions](const geometry::Point2D& pt) {
    const auto axis = [g](double v) {
      if (!(v > 0.0)) return std::size_t{0};
      const std::size_t cell =
          static_cast<std::size_t>(v * static_cast<double>(g));
      return cell >= g ? g - 1 : cell;
    };
    return demand[axis(pt.x) + g * axis(pt.y)] * regions;
  };
  vopt.cvt_density_bound = dmax * regions;
  return vopt;
}

workload::HotspotWorkload hot_workload(core::GredSystem& sys,
                                       const workload::HotspotOptions& w) {
  std::vector<geometry::Point2D> positions(sys.network().switch_count(),
                                           geometry::Point2D{0.5, 0.5});
  const auto& space = sys.controller().space();
  for (std::size_t i = 0; i < space.participants().size(); ++i) {
    positions[space.participants()[i]] = space.positions()[i];
  }
  return workload::HotspotWorkload(w, positions);
}

struct HotState {
  obs::SwitchLoadTracker tracker;
  std::vector<double> served;  ///< cumulative window counts per switch
  explicit HotState(std::size_t n) : tracker(n, 0.5), served(n, 0.0) {}
};

/// Rolls the load window and extends the hottest switches.
std::size_t roll_and_extend(core::GredSystem& sys, HotState& st) {
  for (std::size_t s = 0; s < st.served.size(); ++s) {
    st.served[s] += static_cast<double>(st.tracker.window_count(s));
  }
  st.tracker.roll_window();
  core::LoadExtensionOptions lopt;
  lopt.hot_factor = 1.5;
  lopt.max_extensions = 2;
  auto done = sys.extend_for_load(st.tracker, lopt);
  if (!done.ok()) die("extend_for_load: " + done.error().to_string());
  return done.value();
}

Pass run_hotspot(WorkloadCtx& c, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  const std::size_t ops = loop_ops(c.args, c.args.smoke ? 5000.0 : 150000.0);
  const workload::HotspotOptions wopt = hot_options(c.args);
  const core::VirtualSpaceOptions vopt = hot_space_options(c.sc, wopt);
  const std::size_t nsw = c.desc.switch_count();
  const std::size_t warm_ops = 2 * kHotWindow;
  Pass p;
  // Every set-up is kept. The loop changes the last one's state, so the
  // end-to-end run sets up once more and replays the dynamics events on
  // the others, in the state the loop started from.
  std::vector<std::unique_ptr<core::GredSystem>> systems;
  core::GredSystem* sys = nullptr;
  std::optional<workload::HotspotWorkload> load;
  std::optional<HotState> st;
  const std::size_t reps = setup_reps(c, mode) + (mode == Mode::kMeasure);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    if (sys != nullptr) sys->network().set_load_tracker(nullptr);
    st.reset();
    p.extensions = 0;
    const std::uint64_t t0 = now_ns();
    systems.push_back(std::make_unique<core::GredSystem>(
        create_system(c.desc, vopt)));
    sys = systems.back().get();
    load.emplace(hot_workload(*sys, wopt));
    finish_setup(
        p, t0, *sys, load->ids()[0],
        [&] {
          Rng rng(sub_seed(c.args.seed, 11));
          std::string buf;
          for (std::size_t i = 0; i < load->ids().size(); ++i) {
            make_payload(buf, static_cast<std::uint32_t>(i), 1, kHotPayload);
            if (!sys->place(load->ids()[i], buf, rng.next_below(nsw)).ok()) {
              die("hotspot preload failed");
            }
          }
        },
        [&] {
          st.emplace(nsw);
          sys->network().set_load_tracker(&st->tracker);
          sden::HotKeyCache& cache = sys->network().enable_hot_key_cache(32);
          cache.set_mode(sden::HotKeyCache::Mode::kLearn);
          // Adaptive warm-up: two windows of reads fill the caches and
          // let the first extensions fire before the timed loop.
          HotGen warm(*load, sub_seed(c.args.seed, 12), 0.0, false);
          for (std::size_t i = 0; i < warm_ops; ++i) {
            const HotOp op = warm.next();
            (void)sys->retrieve(load->ids()[op.item], op.ingress);
            if ((i + 1) % kHotWindow == 0) {
              p.extensions += roll_and_extend(*sys, *st);
            }
          }
        });
  }
  core::GredSystem& s = *sys;
  sden::HotKeyCache& cache = *s.network().hot_key_cache();
  cache.reset_stats();
  std::fill(st->served.begin(), st->served.end(), 0.0);
  std::vector<std::uint32_t> version(load->ids().size(), 1);
  const double loop_clock = warm_ops * wopt.mean_interarrival_ms;
  if (c.args.corrupt_expectation) {
    HotGen peek(*load, sub_seed(c.args.seed, 20), loop_clock, true);
    for (HotOp op = peek.next();; op = peek.next()) {
      if (!op.place) {
        version[op.item] += 1;
        break;
      }
    }
  }

  HotGen gen(*load, sub_seed(c.args.seed, 20), loop_clock, true);
  Recorder rec(ops / kSlices);
  std::string buf;
  sden::RouteResult scratch;
  std::vector<SegOp> seg;
  rec.start();
  for (std::size_t i = 0; i < ops; ++i) {
    const HotOp op = gen.next();
    p.hash.op(op.place ? 1 : 0, op.item, op.ingress);
    const std::string& id = load->ids()[op.item];
    ++p.attempted;
    if (op.place) {
      make_payload(buf, op.item, version[op.item] + 1, kHotPayload);
      const std::uint64_t a0 = tl_allocs;
      const std::uint64_t t0 = now_ns();
      auto r = s.place(id, buf, op.ingress);
      const std::uint64_t t1 = now_ns();
      rec.add(t1 - t0);
      if (traced) {
        p.led.allocs += tl_allocs - a0;
        ++p.led.alloc_ops;
        p.led.place_ns += t1 - t0;
        ++p.led.places;
        seg.push_back({&id, op.ingress, true, false});
      }
      if (!r.ok()) {
        ++p.failed;
      } else {
        ++version[op.item];
        p.stretch_sum += r.value().stretch;
        ++p.stretch_n;
      }
    } else {
      const std::uint64_t a0 = tl_allocs;
      const std::uint64_t t0 = now_ns();
      auto r = s.retrieve(id, op.ingress);
      const std::uint64_t t1 = now_ns();
      rec.add(t1 - t0);
      if (traced) {
        p.led.allocs += tl_allocs - a0;
        ++p.led.alloc_ops;
        p.led.retrieve_ns += t1 - t0;
        ++p.led.retrieves;
        ++p.led.attempts;
        ++p.led.reads;
        seg.push_back(
            {&id, op.ingress, false, r.ok() && !r.value().served_from_cache});
      }
      if (!r.ok() || !r.value().route.found) {
        ++p.failed;
      } else if (!payload_ok(r.value().route.payload, op.item,
                             version[op.item], kHotPayload)) {
        p.note_wrong(id);
      } else if (!r.value().served_from_cache) {
        p.stretch_sum += r.value().stretch;
        ++p.stretch_n;
      }
    }
    // Window boundaries inside the loop only: the model-delay trace
    // below continues the workload from the loop's last state. The
    // control call is not a client op, so the recorder pauses.
    if ((i + 1) % kHotWindow == 0 && i + 1 < ops) {
      rec.pause();
      if (traced) layer_pass(s.network(), seg, p.led, scratch);
      p.extensions += roll_and_extend(s, *st);
      rec.resume();
    }
  }
  if (traced) layer_pass(s.network(), seg, p.led, scratch);
  p.take({&rec});
  if (mode == Mode::kReference) {
    s.network().set_load_tracker(nullptr);
    return p;
  }
  for (std::size_t sw = 0; sw < st->served.size(); ++sw) {
    st->served[sw] += static_cast<double>(st->tracker.window_count(sw));
  }
  // Less the layer pass's own probes and invalidations.
  p.cache_hits = cache.hits();
  p.cache_misses = cache.misses() - p.led.probes;
  p.cache_invalidations = cache.invalidations() - p.led.invalidates;
  {
    double mx = 0, total = 0;
    for (double v : st->served) {
      mx = std::max(mx, v);
      total += v;
    }
    p.served_max_avg =
        ratio(mx * static_cast<double>(st->served.size()), total);
  }
  p.load_max_avg = load_max_avg(s.network());

  // Model delay: the next reads of the same generator, against the
  // deployment and caches exactly as the loop left them (probe-only,
  // safe for the experiment's concurrent routing phase).
  cache.set_mode(sden::HotKeyCache::Mode::kServe);
  HotGen dgen(*load, sub_seed(c.args.seed, 30), gen.clock(), false);
  std::vector<core::RetrievalRequest> req;
  for (std::size_t i = 0; i < delay_requests(c.args); ++i) {
    const HotOp op = dgen.next();
    req.push_back({load->ids()[op.item], op.ingress, op.at_ms - gen.clock()});
  }
  model_delay(s, req, false, p);
  cache.set_mode(sden::HotKeyCache::Mode::kLearn);

  {
    std::vector<core::GredSystem*> spares = pointers(systems);
    if (spares.size() > 1) spares.pop_back();
    epilogue(c, spares, mode, p);
  }
  for (std::size_t i = 0; i < systems.size(); ++i) {
    check_invariants(*systems[i], p, "set-up " + std::to_string(i + 1));
  }
  s.network().set_load_tracker(nullptr);
  return p;
}

// ---------------------------------------------------------------------
// Workload: churn. Incremental rebuild with k = 2 region-diverse
// replication and a few thousand items. One client applies a seeded
// stream of local switch join/leave and link add/remove events; after
// each it reads a fixed batch through retrieve_with_fallback from live
// participants. Ends with a sweep that requires every item. Balance and
// model delay depend on where the churn has taken the topology, so they
// are averaged over four checkpoints of the run rather than read once
// at its end.

constexpr std::size_t kChurnPayload = 64;
constexpr std::size_t kChurnBatch = 256;
constexpr std::size_t kChurnCheckpoints = 4;
// CVT warm start (Section IV-B maintenance) is timed on the module, on
// the churned positions, every kWarmStartEvery events of the traced run.
// The workload does not call Controller::re_regulate: the DT it rebuilds
// can fail validate_delaunay (see perfbench/README.md).
constexpr std::size_t kWarmStartEvery = 50;
constexpr double kWarmStartTolerance = 1e-2;

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// The Lloyd iterations of Controller::re_regulate: C-regulation seeded
/// from the current positions, stopped by the energy-delta tolerance.
void warm_start_cvt(const std::vector<geometry::Point2D>& positions,
                    const core::VirtualSpaceOptions& o) {
  geometry::CvtOptions cvt = cvt_options(o);
  cvt.energy_delta_tolerance = kWarmStartTolerance;
  Rng rng(o.seed);
  if (geometry::c_regulation(positions, cvt, rng).sites.size() !=
      positions.size()) {
    die("c_regulation warm start");
  }
}

Pass run_churn(WorkloadCtx& c, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  const std::size_t items = c.args.smoke ? 300 : 2000;
  // Ten events beyond p95 need 200; more when --seconds asks for more.
  const std::size_t events = std::max<std::size_t>(
      c.args.smoke ? 20 : 200,
      static_cast<std::size_t>(c.args.seconds * (c.args.smoke ? 4 : 20)));
  const std::size_t nsw = c.desc.switch_count();
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < items; ++i) {
    ids.push_back("c/" + std::to_string(i));
  }
  const core::VirtualSpaceOptions opt = space_options(c.sc);
  Pass p;
  // Every set-up is kept: the dynamics events replay on each.
  std::vector<std::unique_ptr<core::GredSystem>> systems;
  core::GredSystem* sys = nullptr;
  for (std::size_t rep = 0; rep < setup_reps(c, mode); ++rep) {
    const std::uint64_t t0 = now_ns();
    systems.push_back(std::make_unique<core::GredSystem>(
        create_system(c.desc, opt)));
    sys = systems.back().get();
    sys->controller().set_incremental(true);
    core::ReplicationOptions ropt;
    ropt.factor = 2;
    ropt.region_diverse = true;
    if (!sys->enable_replication(ropt).ok()) die("enable_replication");
    finish_setup(
        p, t0, *sys, ids[0],
        [&] {
          Rng rng(sub_seed(c.args.seed, 11));
          std::string buf;
          for (std::size_t i = 0; i < items; ++i) {
            make_payload(buf, static_cast<std::uint32_t>(i), 1,
                         kChurnPayload);
            if (!sys->place(ids[i], buf, rng.next_below(nsw)).ok()) {
              die("churn preload failed");
            }
          }
        },
        [&] {
          Rng rng(sub_seed(c.args.seed, 12));
          for (std::size_t i = 0; i < items; ++i) {
            (void)sys->retrieve_with_fallback(ids[rng.next_below(items)],
                                              rng.next_below(nsw));
          }
        });
  }
  core::GredSystem& s = *sys;
  std::vector<std::uint32_t> version(items, 1);
  Rng rrng(sub_seed(c.args.seed, 21));
  bool corrupt = c.args.corrupt_expectation;
  sden::RouteResult scratch;
  std::vector<SegOp> seg;
  // Slices of four read batches: 1,024 reads leave ten beyond each
  // slice's p99.
  Recorder rec(4 * kChurnBatch);
  bool started = false;

  auto read_batch = [&] {
    if (!started) {
      rec.start();
      started = true;
    } else {
      rec.resume();
    }
    const std::vector<SwitchId>& parts = s.controller().space().participants();
    for (std::size_t k = 0; k < kChurnBatch; ++k) {
      const std::uint32_t item =
          static_cast<std::uint32_t>(rrng.next_below(items));
      const SwitchId ingress = parts[rrng.next_below(parts.size())];
      p.hash.op(0, item, ingress);
      if (corrupt) {
        version[item] += 1;
        corrupt = false;
      }
      const std::string& id = ids[item];
      const std::uint64_t a0 = tl_allocs;
      const std::uint64_t t0 = now_ns();
      auto r = s.retrieve_with_fallback(id, ingress);
      const std::uint64_t t1 = now_ns();
      rec.add(t1 - t0);
      ++p.attempted;
      if (traced) {
        p.led.allocs += tl_allocs - a0;
        ++p.led.alloc_ops;
        p.led.retrieve_ns += t1 - t0;
        ++p.led.retrieves;
        ++p.led.reads;
        if (r.ok()) {
          p.led.attempts += r.value().attempts;
          p.led.recovered += r.value().recovered ? 1 : 0;
        }
        seg.push_back({&id, ingress, false, r.ok()});
      }
      if (!r.ok() || !r.value().found) {
        ++p.failed;
      } else if (!payload_ok(r.value().report.route.payload, item,
                             version[item], kChurnPayload)) {
        p.note_wrong(id);
      } else {
        p.stretch_sum += r.value().report.stretch;
        ++p.stretch_n;
      }
    }
    rec.pause();
    if (traced) layer_pass(s.network(), seg, p.led, scratch);
  };

  // Quality checkpoints between events (not client time).
  Rng drng(sub_seed(c.args.seed, 30));
  const std::size_t every = std::max<std::size_t>(events / kChurnCheckpoints, 1);
  std::size_t applied = 0;
  double load_sum = 0, p50_sum = 0, p99_sum = 0, checkpoints = 0;
  auto after_event = [&] {
    read_batch();
    ++applied;
    if (traced && applied % kWarmStartEvery == 0) {
      const std::uint64_t t0 = now_ns();
      warm_start_cvt(s.controller().space().positions(), opt);
      p.churn.cvt_warm_ms += ms_since(t0);
      ++p.churn.warm_starts;
    }
    if (mode == Mode::kReference || applied % every != 0) return;
    const std::vector<SwitchId>& live = s.controller().space().participants();
    load_sum += load_max_avg(s.network());
    model_delay(s,
                uniform_requests(ids, live,
                                 2 * delay_requests(c.args) / kChurnCheckpoints,
                                 0.0004, drng),
                true, p);
    p50_sum += p.delay_p50;
    p99_sum += p.delay_p99;
    checkpoints += 1;
  };

  // The system read from first, then the other set-ups.
  std::vector<core::GredSystem*> order = {&s};
  for (std::size_t i = 0; i + 1 < systems.size(); ++i) {
    order.push_back(systems[i].get());
  }
  std::string failure;
  p.event_ms = run_events(order, sub_seed(c.args.seed, 40), events, false,
                          p.hash, traced ? &p.churn : nullptr,
                          p.rejected_events, failure, after_event);
  if (!failure.empty()) p.note_wrong(failure);
  p.take({&rec});

  // Sweep: every item must still be retrievable after the churn.
  const std::vector<SwitchId>& parts = s.controller().space().participants();
  for (std::size_t i = 0; i < items; ++i) {
    auto r = s.retrieve_with_fallback(ids[i], parts[i % parts.size()]);
    if (!r.ok() || !r.value().found ||
        !payload_ok(r.value().report.route.payload,
                    static_cast<std::uint32_t>(i), version[i],
                    kChurnPayload)) {
      p.note_wrong("sweep lost " + ids[i]);
    }
  }
  if (mode == Mode::kReference) return p;
  p.load_max_avg = ratio(load_sum, checkpoints);
  p.delay_p50 = ratio(p50_sum, checkpoints);
  p.delay_p99 = ratio(p99_sum, checkpoints);
  for (std::size_t i = 0; i < systems.size(); ++i) {
    check_invariants(*systems[i], p, "set-up " + std::to_string(i + 1));
  }
  return p;
}

// ---------------------------------------------------------------------
// Cold-start decomposition (traced run): each phase of
// Controller::initialize timed by calling its module directly on the
// same inputs, next to one timed GredSystem::create whose
// control.phase.* obs timers serve as the cross-check.

struct ColdStart {
  double apsp_ms = 0, mds_ms = 0, cvt_ms = 0, dt_ms = 0, install_ms = 0;
};

ColdStart cold_start(const WorkloadCtx& c, const core::VirtualSpaceOptions& o) {
  ColdStart cs;
  obs::registry().reset_values();
  std::uint64_t t0 = now_ns();
  core::GredSystem sys = create_system(c.desc, o);
  const double create_ms = ms_since(t0);
  t0 = now_ns();
  {
    const crypto::DataKey key("cold-start");
    sden::Packet pkt = retrieval_packet("cold-start", key);
    sden::RouteResult r;
    sys.network().route(pkt, 0, r);
  }
  const double first_plan_ms = ms_since(t0);
  // The create's own phase timers, read before the direct calls below
  // (MultiHopDT::build records into the same timer).
  const double obs_ms[5] = {phase_sum_ms("apsp"), phase_sum_ms("mds_embed"),
                            phase_sum_ms("cvt"), phase_sum_ms("dt_build"),
                            phase_sum_ms("install")};

  const graph::Graph& g = c.desc.switches();
  t0 = now_ns();
  const graph::ApspResult apsp =
      graph::all_pairs_shortest_paths(g, false, &global_pool());
  const graph::ApspResult wapsp =
      graph::all_pairs_shortest_paths(g, true, &global_pool());
  cs.apsp_ms = ms_since(t0);

  const core::VirtualSpace& space = sys.controller().space();
  const auto& parts = space.participants();
  const std::size_t n = parts.size();
  linalg::Matrix dist(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dist(i, j) = apsp.dist(parts[i], parts[j]);
    }
  }
  t0 = now_ns();
  if (!linalg::classical_mds(dist, 2).ok()) die("classical_mds");
  cs.mds_ms = ms_since(t0);

  Rng rng(o.seed);
  t0 = now_ns();
  const geometry::CvtResult refined =
      geometry::c_regulation(space.mds_positions(), cvt_options(o), rng);
  cs.cvt_ms = ms_since(t0);
  if (refined.sites.size() != n) die("c_regulation");

  t0 = now_ns();
  if (!core::MultiHopDT::build(parts, space.positions(), g, apsp).ok()) {
    die("MultiHopDT::build");
  }
  cs.dt_ms = ms_since(t0);
  if (wapsp.dist.size() != apsp.dist.size()) die("apsp");

  cs.install_ms = std::max(0.0, create_ms - cs.apsp_ms - cs.mds_ms -
                                    cs.cvt_ms - cs.dt_ms) +
                  first_plan_ms;
  std::fprintf(stderr,
               "gredbench: cold start ms, own timer / obs phase timer: "
               "apsp %.1f/%.1f mds %.1f/%.1f cvt %.1f/%.1f dt %.1f/%.1f "
               "install %.1f/%.1f\n",
               cs.apsp_ms, obs_ms[0], cs.mds_ms, obs_ms[1], cs.cvt_ms,
               obs_ms[2], cs.dt_ms, obs_ms[3], cs.install_ms, obs_ms[4]);
  return cs;
}

// ---------------------------------------------------------------------

Pass run_workload(WorkloadCtx& c, Mode m) {
  if (c.args.workload == "uniform") return run_uniform(c, m);
  if (c.args.workload == "hotspot") return run_hotspot(c, m);
  return run_churn(c, m);
}

void add(RunResult& r, const std::string& name, double v,
         const std::string& unit) {
  r.metrics.push_back({name, v, unit});
}

RunResult end_to_end(Pass& p) {
  RunResult r;
  add(r, "setup_s", median(p.setup_s), "s");
  add(r, "ops_per_s", p.ops_per_s, "ops/s");
  add(r, "op_p50_us", p.p50_ns / 1e3, "us");
  add(r, "op_p99_us", p.p99_ns / 1e3, "us");
  add(r, "success_rate", 1.0 - ratio(p.failed, p.attempted), "ratio");
  add(r, "stretch_mean",
      ratio(p.stretch_sum, static_cast<double>(p.stretch_n)), "ratio");
  add(r, "load_max_avg", p.load_max_avg, "ratio");
  add(r, "model_delay_p50_ms", p.delay_p50, "ms");
  add(r, "model_delay_p99_ms", p.delay_p99, "ms");
  add(r, "event_p50_ms", quantile(p.event_ms, 0.50), "ms");
  add(r, "event_p95_ms", quantile(p.event_ms, 0.95), "ms");
  add(r, "peak_rss_mb", peak_rss_mib(), "MiB");
  return r;
}

RunResult per_layer(const Pass& p, const Pass& reference,
                    const ColdStart& cs) {
  RunResult r;
  const Ledger& l = p.led;
  const ChurnLedger& ch = p.churn;
  auto kind_mean = [&](EventKind k) {
    auto it = ch.ms_by_kind.find(k);
    if (it == ch.ms_by_kind.end() || it->second.empty()) return 0.0;
    double s = 0;
    for (double v : it->second) s += v;
    return s / static_cast<double>(it->second.size());
  };
  double event_sum = 0;
  for (double v : p.event_ms) event_sum += v;
  const double ev = static_cast<double>(ch.events);
  const double self_ns = static_cast<double>(l.retrieve_ns) -
                         static_cast<double>(l.covered_ns);
  add(r, "crypto.key_ns", ratio(l.key_ns, l.keys), "ns");
  add(r, "sden.route_ns", ratio(l.route_ns, l.routes), "ns");
  add(r, "sden.hops_per_route", ratio(l.hops, l.routes), "count");
  add(r, "sden.ns_per_hop", ratio(l.route_ns, l.hops), "ns");
  add(r, "sden.fallback_share", ratio(l.fallback_routes, l.routes), "ratio");
  add(r, "sden.served_max_avg", p.served_max_avg, "ratio");
  add(r, "cache.hit_rate",
      ratio(p.cache_hits, p.cache_hits + p.cache_misses), "ratio");
  add(r, "cache.probe_ns", ratio(l.probe_ns, l.probes), "ns");
  add(r, "cache.invalidate_ns", ratio(l.invalidate_ns, l.invalidates), "ns");
  add(r, "cache.invalidations_per_op",
      ratio(p.cache_invalidations, p.attempted), "count");
  add(r, "protocol.retrieve_ns", ratio(l.retrieve_ns, l.retrieves), "ns");
  add(r, "protocol.place_ns", ratio(l.place_ns, l.places), "ns");
  add(r, "protocol.self_ns", ratio(self_ns, static_cast<double>(l.retrieves)),
      "ns");
  add(r, "protocol.allocs_per_op", ratio(l.allocs, l.alloc_ops), "count");
  add(r, "protocol.attempts_per_read", ratio(l.attempts, l.reads), "count");
  add(r, "protocol.recovered_share", ratio(l.recovered, l.reads), "ratio");
  add(r, "setup.apsp_ms", cs.apsp_ms, "ms");
  add(r, "setup.mds_ms", cs.mds_ms, "ms");
  add(r, "setup.cvt_ms", cs.cvt_ms, "ms");
  add(r, "setup.dt_ms", cs.dt_ms, "ms");
  add(r, "setup.install_ms", cs.install_ms, "ms");
  add(r, "setup.preload_ms", p.preload_ms, "ms");
  add(r, "churn.add_switch_ms", kind_mean(EventKind::kAddSwitch), "ms");
  add(r, "churn.remove_switch_ms", kind_mean(EventKind::kRemoveSwitch), "ms");
  add(r, "churn.add_link_ms", kind_mean(EventKind::kAddLink), "ms");
  add(r, "churn.remove_link_ms", kind_mean(EventKind::kRemoveLink), "ms");
  add(r, "churn.full_fallback_share",
      ratio(static_cast<double>(ch.full_fallbacks), ev), "ratio");
  add(r, "churn.rebuild_ms", ratio(ch.rebuild_ms, ev), "ms");
  add(r, "churn.install_patch_ms", ratio(ch.install_patch_ms, ev), "ms");
  add(r, "churn.cvt_warm_ms",
      ratio(ch.cvt_warm_ms, static_cast<double>(ch.warm_starts)), "ms");
  add(r, "churn.migration_ms", ratio(event_sum - ch.rebuild_ms, ev), "ms");
  add(r, "churn.migrated_items", ratio(ch.migrated, ev), "count");
  add(r, "churn.replica_repairs", ratio(ch.repairs, ev), "count");
  add(r, "churn.affected_switches",
      ratio(ch.affected, static_cast<double>(ch.incremental_events)),
      "count");
  add(r, "obs.trace_overhead_pct",
      100.0 * ratio(reference.ops_per_s - p.ops_per_s, reference.ops_per_s),
      "%");
  add(r, "trace.residual_pct",
      100.0 * ratio(self_ns, static_cast<double>(l.retrieve_ns)), "%");
  return r;
}

void print_result(const RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", r.metrics[i].value);
    if (i > 0) s += ", ";
    s += "\"" + r.metrics[i].name + "\": {\"value\": " + num +
         ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  die("refusing to report timings from a non-optimised build (build type " +
      std::string(GREDBENCH_BUILD_TYPE) + "); configure with Release");
#endif
  obs::set_enabled(false);

  WorkloadCtx ctx{args, {}, {}};
  if (args.smoke) {
    ctx.sc.switches = 64;
    ctx.sc.cvt_iterations = 10;
    ctx.sc.setup_reps = 2;
  }
  ctx.desc = make_substrate(ctx.sc);

  Pass p;
  RunResult result;
  if (!args.trace) {
    p = run_workload(ctx, Mode::kMeasure);
    result = end_to_end(p);
  } else {
    // End-to-end numbers never come from here: the untraced reference
    // pass exists only for the trace overhead. The traced pass replays
    // the same inputs on a fresh deployment with gred::obs on and the
    // benchmark's layer timers around each call.
    const Pass ref = run_workload(ctx, Mode::kReference);
    obs::set_enabled(true);
    obs::registry().reset_values();
    p = run_workload(ctx, Mode::kTraced);
    const core::VirtualSpaceOptions o =
        args.workload == "hotspot"
            ? hot_space_options(ctx.sc, hot_options(args))
            : space_options(ctx.sc);
    const ColdStart cs = cold_start(ctx, o);
    obs::set_enabled(false);
    result = per_layer(p, ref, cs);
    p.wrong += ref.wrong;
    if (p.first_wrong.empty()) p.first_wrong = ref.first_wrong;
  }
  result.attempted = std::max<std::uint64_t>(p.attempted, 1);
  result.failed = p.failed;
  result.correct = p.wrong == 0 && p.invariants_ok;

  std::printf(
      "# stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %d, \"clients\": %zu, \"switches\": %zu, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
      "\"cpu_model\": \"%s\", \"stream_hash\": \"%016llx\", "
      "\"stream_ops\": %llu, \"rejected_events\": %zu, "
      "\"extensions\": %zu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.smoke ? 1 : 0,
      args.workload == "uniform" ? kUniformClients : std::size_t{1},
      ctx.sc.switches, GREDBENCH_COMPILER, GREDBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      static_cast<unsigned long long>(p.hash.h),
      static_cast<unsigned long long>(p.hash.ops), p.rejected_events,
      p.extensions);
  if (!result.correct) {
    std::fprintf(stderr,
                 "gredbench: CORRECTNESS FAILURE: %llu wrong answers "
                 "(first: %s)\n%s",
                 static_cast<unsigned long long>(p.wrong),
                 p.first_wrong.c_str(), p.invariant_detail.c_str());
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
