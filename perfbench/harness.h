#ifndef DLS_PERFBENCH_HARNESS_H_
#define DLS_PERFBENCH_HARNESS_H_

// The benchmark's own logic, kept apart from the system under test so
// perfbench_selftest can check it: the seeded operation schedule, the
// percentile rule, process CPU / RSS / steal accounting and the ranking
// digest the correctness checks compare.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/cluster.h"
#include "synth/corpus.h"

namespace dls::perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- schedule --------------------------------------------------------

enum class OpKind : uint8_t { kQuery, kInsert, kDelete };

/// One scheduled operation. `due_ns` is the offset from the start of the
/// measured phase at which it is due; `item` is an index into
/// Schedule::queries for a query, and a corpus document id for a
/// mutation.
struct Op {
  int64_t due_ns = 0;
  OpKind kind = OpKind::kQuery;
  uint32_t item = 0;
};

/// The shape of a workload's load: fixed rates, not a client count.
struct LoadSpec {
  double query_rate = 0;   ///< queries per second
  double write_rate = 0;   ///< mutations per second (0 = no writer)
  double seconds = 0;      ///< length of the measured phase
  /// 0: every query of the run is distinct. Otherwise queries are drawn
  /// uniformly from a pool of this many distinct queries.
  size_t pool = 0;
  size_t warmup = 0;       ///< distinct warm-up queries
  size_t verify = 0;       ///< distinct post-phase verification queries
  size_t preload_docs = 0; ///< corpus docs [0, preload_docs) live at start
};

/// A complete, seeded operation schedule. Query word lists are distinct
/// across `queries`, `warmup` and `verify`.
struct Schedule {
  std::vector<std::vector<std::string>> queries;  ///< distinct queries
  std::vector<std::vector<std::string>> warmup;
  std::vector<std::vector<std::string>> verify;
  std::vector<Op> query_ops;  ///< due-ordered, all kQuery
  std::vector<Op> write_ops;  ///< due-ordered, kInsert / kDelete
};

/// Builds the schedule for `seed`. Queries are evenly spaced at
/// spec.query_rate; mutations are evenly spaced at spec.write_rate and
/// follow a fixed 3:1 insert:delete pattern (one delete at a seeded
/// position in every group of four). Inserts take fresh corpus
/// documents from spec.preload_docs upwards; a delete names a document
/// live at that point of the schedule, chosen by the seeded generator.
Schedule MakeSchedule(const synth::SyntheticCorpus& corpus,
                      const LoadSpec& spec, uint64_t seed);

/// Order-sensitive digest of a whole schedule (self-test and logs).
uint64_t ScheduleDigest(const Schedule& schedule);

// ---- percentiles -----------------------------------------------------

/// Samples needed so that the nearest-rank `q` quantile leaves at least
/// `beyond` samples strictly above its rank.
size_t MinSamplesFor(double q, size_t beyond = 10);

/// Nearest-rank quantile of `samples` (sorted in place): the value at
/// rank ceil(q * n). `beyond` receives how many samples rank above it.
/// An empty set yields 0.
double NearestRank(std::vector<double>* samples, double q,
                   size_t* beyond = nullptr);

/// Median over consecutive windows of `window` samples (in the order
/// given; a short last window joins the one before it) of each window's
/// nearest-rank `q` quantile. Every window must leave at least ten
/// samples beyond its quantile, so `window` >= MinSamplesFor(q); fewer
/// than `window` samples form one window.
double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t window);

/// Queries per window of the gated tail: query_p95_us is the median of
/// the p95s of consecutive windows of this many queries, so a burst of
/// host noise in a few windows does not set it. 400 leaves 20 samples
/// beyond each window's p95.
constexpr size_t kTailWindow = 400;

/// Latency recorded for a failed operation: it misses every limit.
constexpr double kFailedLatency = 1e12;

// ---- process accounting ----------------------------------------------

/// User + system CPU seconds consumed by this process so far.
double ProcessCpuSeconds();

/// Peak resident set (VmHWM) in MiB, 0 when unavailable.
double PeakRssMb();

/// Resets VmHWM to the current resident set (/proc/self/clear_refs), so
/// that PeakRssMb() reports the peak from here on. Where the kernel does
/// not allow it, the peak stays that of the whole process.
void ResetPeakRss();

/// Aggregate CPU jiffies from /proc/stat: steal and total.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& before, const CpuTicks& after);

// ---- correctness -------------------------------------------------------

/// FNV-1a digest of a ranking's urls and score bits: two rankings with
/// equal digests have (with overwhelming probability) the same urls in
/// the same order with bit-identical scores.
uint64_t RankingDigest(const std::vector<ir::ClusterScoredDoc>& ranking);

/// Canonical key of a query's words: sorted and space-joined.
std::string QueryKey(std::vector<std::string> words);

}  // namespace dls::perfbench

#endif  // DLS_PERFBENCH_HARNESS_H_
