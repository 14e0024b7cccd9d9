// Self-test of the benchmark's own logic:
//   - one seed always yields the identical operation schedule, and two
//     seeds yield different ones; the schedule keeps its stated shape;
//   - the percentile rule leaves at least ten samples beyond each tail;
//   - CPU accounting and span correlation are right on a tiny synthetic
//     run of the real traced stack.
//
//   perfbench_selftest WORK_DIR
#include <time.h>

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "driver.h"
#include "harness.h"
#include "topology.h"
#include "trace.h"

namespace dls::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

synth::CorpusSpec TinyCorpus(uint64_t seed) {
  synth::CorpusSpec spec;
  spec.seed = seed;
  spec.documents = 2000;
  spec.words_per_doc = 30;
  spec.vocabulary = 600;
  return spec;
}

void TestSchedule() {
  LoadSpec spec;
  spec.query_rate = 100;
  spec.write_rate = 10;
  spec.seconds = 4;
  spec.warmup = 20;
  spec.verify = 10;
  spec.preload_docs = 1000;
  const synth::SyntheticCorpus corpus(TinyCorpus(3));
  const Schedule a = MakeSchedule(corpus, spec, 7);
  const Schedule b = MakeSchedule(corpus, spec, 7);
  const Schedule c = MakeSchedule(corpus, spec, 8);
  Check(ScheduleDigest(a) == ScheduleDigest(b), "same seed, same schedule");
  Check(ScheduleDigest(a) != ScheduleDigest(c), "other seed, other schedule");
  Check(a.query_ops.size() == 400 && a.write_ops.size() == 40,
        "operation counts follow the rates");

  std::set<std::string> keys;
  for (const auto* list : {&a.queries, &a.warmup, &a.verify}) {
    for (const auto& words : *list) keys.insert(QueryKey(words));
  }
  Check(keys.size() == a.queries.size() + a.warmup.size() + a.verify.size(),
        "queries, warm-up and verification queries are all distinct");

  bool spaced = true;
  for (size_t k = 0; k < a.query_ops.size(); ++k) {
    const int64_t want = static_cast<int64_t>(k) * 10'000'000;  // 100/s
    spaced = spaced && std::llabs(a.query_ops[k].due_ns - want) <= 1;
  }
  Check(spaced, "queries are evenly spaced");

  // 3:1 inserts to deletes, every delete naming a document live then.
  std::set<uint32_t> live;
  for (uint32_t d = 0; d < spec.preload_docs; ++d) live.insert(d);
  bool live_deletes = true;
  bool three_to_one = true;
  for (size_t g = 0; g < a.write_ops.size(); g += 4) {
    size_t deletes = 0;
    for (size_t j = g; j < g + 4; ++j) {
      const Op& op = a.write_ops[j];
      if (op.kind == OpKind::kDelete) {
        ++deletes;
        live_deletes = live_deletes && live.erase(op.item) == 1;
      } else {
        live_deletes = live_deletes && live.insert(op.item).second;
      }
    }
    three_to_one = three_to_one && deletes == 1;
  }
  Check(three_to_one, "one delete in every group of four mutations");
  Check(live_deletes, "deletes name live documents, inserts fresh ones");
}

void TestPercentiles() {
  Check(MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Check(MinSamplesFor(0.90) == 100, "p90 needs 100 samples");
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  size_t beyond = 0;
  Check(NearestRank(&samples, 0.99, &beyond) == 990 && beyond == 10,
        "p99 of 1..1000 is 990 with 10 beyond");
  Check(NearestRank(&samples, 0.5, &beyond) == 500 && beyond == 500,
        "p50 of 1..1000 is 500");
  samples.pop_back();
  NearestRank(&samples, 0.99, &beyond);
  Check(beyond < 10, "999 samples cannot support a p99");
  // The gated tail: the median of per-window p95s, 20 beyond each.
  Check(kTailWindow >= MinSamplesFor(0.95, 20),
        "a tail window leaves 20 samples beyond its p95");
  std::vector<double> phase;
  for (int i = 0; i < 2000; ++i) phase.push_back(i % 400 + 1);
  Check(WindowedQuantile(phase, 0.95, 400) == 380,
        "five windows of 1..400 have a windowed p95 of 380");
  for (int i = 400; i < 800; ++i) phase[i] = 1e9;
  Check(WindowedQuantile(phase, 0.95, 400) == 380,
        "one noisy window does not move the windowed tail");
  std::vector<double> ramp;
  for (int i = 1; i <= 799; ++i) ramp.push_back(i);
  Check(WindowedQuantile(ramp, 0.95, 400) == 760,
        "a short last window joins the one before it");
  // The shipped workloads leave ten samples beyond every tail they
  // report at the benchmark's run length.
  for (const char* name :
       {"search_cold", "search_hot", "ingest_mixed", "federated_mix"}) {
    WorkloadConfig config;
    Check(ConfigFor(name, &config), "workload exists");
    const double seconds = 20;
    Check(config.load.query_rate * seconds >=
              static_cast<double>(MinSamplesFor(0.99)),
          "the phase supports its p99");
    if (config.load.write_rate > 0) {
      Check(config.load.write_rate * seconds >=
                static_cast<double>(MinSamplesFor(0.90)),
            "the writer supports its p90");
    }
  }
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void TestCpuAccounting() {
  // Two threads each burn 150 ms of their own CPU clock; the process
  // clock must see both.
  const double before = ProcessCpuSeconds();
  std::vector<std::thread> burners;
  for (int t = 0; t < 2; ++t) {
    burners.emplace_back([] {
      const double start = ThreadCpuSeconds();
      volatile uint64_t sink = 0;
      while (ThreadCpuSeconds() - start < 0.15) sink = sink + 1;
    });
  }
  for (std::thread& t : burners) t.join();
  const double used = ProcessCpuSeconds() - before;
  Check(used >= 0.29 && used < 0.45, "process CPU counts every thread");

  PhaseResult phase;
  phase.answers.resize(12);
  for (size_t i = 0; i < 10; ++i) phase.answers[i].ok = true;
  phase.write_ok = {true, true, true, false};
  phase.cpu_s = 0.013;
  Check(phase.completed() == 13, "completed counts answered and acked ops");
  Check(std::fabs(phase.cpu_us_per_op() - 1000.0) < 1e-9,
        "CPU per op divides by completed operations");
}

/// A tiny traced run of the real search stack: every request must chain
/// client -> handle -> batch -> exchange -> shard, and the run's CPU
/// must account for its work.
void TestTinyTracedRun(const std::string& work_dir) {
  WorkloadConfig config;
  ConfigFor("search_cold", &config);
  config.corpus = TinyCorpus(5);
  config.load.query_rate = 50;
  config.load.seconds = 2;
  config.load.warmup = 40;
  const synth::SyntheticCorpus corpus(config.corpus);
  const Schedule schedule = MakeSchedule(corpus, config.load, 5);
  const Prepared prepared = Prepare(config, corpus, schedule);

  SpanLog log;
  std::string error;
  std::unique_ptr<Stack> stack = BuildStack(config, corpus, work_dir, &log,
                                            &error);
  Check(stack != nullptr, "tiny stack builds");
  if (!stack) return;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 2; ++c) {
    clients.push_back(std::make_unique<Client>(stack->server->port()));
  }
  SendAll(clients, EncodeQueries(config, schedule.warmup, 0));
  log.Take();

  const PhaseResult phase =
      RunPhase(config, stack.get(), clients, schedule, prepared, &log);
  const std::vector<Span> spans = log.Take();
  Check(phase.completed() == schedule.query_ops.size(),
        "every tiny query answered");
  Check(phase.cpu_s > 0 && phase.cpu_s < phase.wall_s * 8,
        "phase CPU is positive and bounded by the cores");

  const Chains chains = Correlate(spans);
  Check(chains.client_requests == schedule.query_ops.size(),
        "one client span per request");
  Check(chains.complete == chains.client_requests,
        "every request chains to a batch answered by every shard");
  bool waits = !chains.queue_wait_us.empty();
  for (double w : chains.queue_wait_us) waits = waits && w >= 0;
  Check(waits, "queue waits are measured and never negative");
  std::set<uint64_t> ids;
  for (const Span& s : spans) ids.insert(s.id);
  bool parents = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const bool needs_parent = name == "handle" || name == "batch" ||
                              (name == "shard" && !spans[i].key.empty());
    if (needs_parent) parents = parents && ids.count(chains.parent[i]) == 1;
    if (chains.parent[i] != 0) {
      parents = parents && ids.count(chains.parent[i]) == 1;
    }
  }
  Check(parents, "handle, batch and shard spans link to a recorded parent");
}

}  // namespace
}  // namespace dls::perfbench

int main(int argc, char** argv) {
  using namespace dls::perfbench;
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest WORK_DIR\n");
    return 2;
  }
  TestSchedule();
  TestPercentiles();
  TestCpuAccounting();
  TestTinyTracedRun(argv[1]);
  if (failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench self-test: all checks passed\n");
  return 0;
}
