#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "common/rng.h"

namespace dls::perfbench {
namespace {

constexpr size_t kTermsPerQuery = 3;

/// Draws `count` queries whose keys are not yet in `seen`, from corpus
/// query ids `*next_id` upwards.
std::vector<std::vector<std::string>> DrawDistinct(
    const synth::SyntheticCorpus& corpus, size_t count, uint64_t* next_id,
    std::set<std::string>* seen) {
  std::vector<std::vector<std::string>> out;
  out.reserve(count);
  while (out.size() < count) {
    std::vector<std::string> words = corpus.Query((*next_id)++, kTermsPerQuery);
    if (seen->insert(QueryKey(words)).second) out.push_back(std::move(words));
  }
  return out;
}

int64_t DueNs(size_t k, double rate, double phase) {
  return static_cast<int64_t>((static_cast<double>(k) + phase) / rate * 1e9);
}

/// 64-bit FNV-1a over a sequence of byte ranges.
class Fnv {
 public:
  void Mix(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

Schedule MakeSchedule(const synth::SyntheticCorpus& corpus,
                      const LoadSpec& spec, uint64_t seed) {
  Schedule schedule;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7f4a7c159e3779b9ULL);
  // Query ids start at a seeded offset, so two seeds draw different
  // queries even over one corpus.
  uint64_t next_id = rng.Next() % (uint64_t{1} << 40);
  std::set<std::string> seen;

  const size_t num_queries =
      static_cast<size_t>(std::llround(spec.query_rate * spec.seconds));
  const size_t distinct = spec.pool > 0 ? spec.pool : num_queries;
  schedule.queries = DrawDistinct(corpus, distinct, &next_id, &seen);
  schedule.warmup = DrawDistinct(corpus, spec.warmup, &next_id, &seen);
  schedule.verify = DrawDistinct(corpus, spec.verify, &next_id, &seen);

  schedule.query_ops.reserve(num_queries);
  for (size_t k = 0; k < num_queries; ++k) {
    Op op;
    op.due_ns = DueNs(k, spec.query_rate, 0.0);
    op.kind = OpKind::kQuery;
    op.item = static_cast<uint32_t>(
        spec.pool > 0 ? rng.Uniform(spec.pool) : k);
    schedule.query_ops.push_back(op);
  }

  if (spec.write_rate > 0) {
    const size_t num_writes =
        static_cast<size_t>(std::llround(spec.write_rate * spec.seconds));
    std::vector<uint32_t> live;
    live.reserve(spec.preload_docs + num_writes);
    for (size_t d = 0; d < spec.preload_docs; ++d) {
      live.push_back(static_cast<uint32_t>(d));
    }
    uint32_t next_doc = static_cast<uint32_t>(spec.preload_docs);
    size_t delete_slot = rng.Uniform(4);
    for (size_t j = 0; j < num_writes; ++j) {
      if (j % 4 == 0 && j > 0) delete_slot = rng.Uniform(4);
      Op op;
      // Offset by half a slot so writes fall between queries.
      op.due_ns = DueNs(j, spec.write_rate, 0.5);
      if (j % 4 == delete_slot && !live.empty()) {
        const size_t pick = rng.Uniform(live.size());
        op.kind = OpKind::kDelete;
        op.item = live[pick];
        live[pick] = live.back();
        live.pop_back();
      } else {
        op.kind = OpKind::kInsert;
        op.item = next_doc++;
        live.push_back(op.item);
      }
      schedule.write_ops.push_back(op);
    }
  }
  return schedule;
}

uint64_t ScheduleDigest(const Schedule& schedule) {
  Fnv fnv;
  for (const auto* list :
       {&schedule.queries, &schedule.warmup, &schedule.verify}) {
    for (const auto& words : *list) {
      for (const std::string& w : words) fnv.Mix(w.data(), w.size() + 1);
      fnv.Mix("|", 1);
    }
  }
  for (const auto* ops : {&schedule.query_ops, &schedule.write_ops}) {
    for (const Op& op : *ops) {
      fnv.Mix(&op.due_ns, sizeof(op.due_ns));
      fnv.Mix(&op.kind, sizeof(op.kind));
      fnv.Mix(&op.item, sizeof(op.item));
    }
  }
  return fnv.hash();
}

size_t MinSamplesFor(double q, size_t beyond) {
  // Smallest n with n - ceil(q * n) >= beyond.
  size_t n = beyond;
  while (n - static_cast<size_t>(std::ceil(q * static_cast<double>(n))) <
         beyond) {
    ++n;
  }
  return n;
}

double NearestRank(std::vector<double>* samples, double q, size_t* beyond) {
  if (samples->empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0.0;
  }
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (beyond != nullptr) *beyond = n - rank;
  return (*samples)[rank - 1];
}

double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t window) {
  const size_t windows = std::max<size_t>(1, samples.size() / window);
  std::vector<double> quantiles;
  for (size_t w = 0; w < windows; ++w) {
    const size_t end = w + 1 == windows ? samples.size() : (w + 1) * window;
    std::vector<double> part(samples.begin() + w * window,
                             samples.begin() + end);
    quantiles.push_back(NearestRank(&part, q));
  }
  return NearestRank(&quantiles, 0.5);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

uint64_t RankingDigest(const std::vector<ir::ClusterScoredDoc>& ranking) {
  Fnv fnv;
  for (const ir::ClusterScoredDoc& doc : ranking) {
    fnv.Mix(doc.url.data(), doc.url.size() + 1);
    uint64_t bits = 0;
    std::memcpy(&bits, &doc.score, sizeof(bits));
    fnv.Mix(&bits, sizeof(bits));
  }
  const uint64_t count = ranking.size();
  fnv.Mix(&count, sizeof(count));
  return fnv.hash();
}

std::string QueryKey(std::vector<std::string> words) {
  std::sort(words.begin(), words.end());
  std::string key;
  for (const std::string& w : words) {
    if (!key.empty()) key.push_back(' ');
    key += w;
  }
  return key;
}

}  // namespace dls::perfbench
