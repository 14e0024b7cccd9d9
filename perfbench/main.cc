// End-to-end benchmark of the served TCP stack (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics on the untraced stack.
// --trace 1 runs the same schedule twice, untraced and then traced, and
// reports the per-layer metrics of the traced run plus the tracing
// overhead. The last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver.h"
#include "federate/query_lang.h"
#include "harness.h"
#include "ir/fragments.h"
#include "ir/index.h"
#include "net/wire.h"
#include "topology.h"
#include "trace.h"

namespace dls::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".";
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Set-ups per untraced run; setup_s is their median.
constexpr size_t kSetups = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> values) {
  return NearestRank(&values, 0.5);
}

/// A quantile that must leave at least ten samples beyond it.
double Tail(std::vector<double> values, double q, const char* what) {
  size_t beyond = 0;
  const double value = NearestRank(&values, q, &beyond);
  if (beyond < 10) {
    std::fprintf(stderr, "perfbench: %s leaves only %zu samples beyond it\n",
                 what, beyond);
    std::exit(3);
  }
  return value;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- set-up ------------------------------------------------------------

struct Live {
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<Client>> clients;
};

/// Builds the stack, connects the clients and warms up: queries the
/// phase never sends page in the segments and prime the hedge windows,
/// and on search_hot the query pool fills the cache.
std::optional<Live> SetUp(const WorkloadConfig& config,
                          const synth::SyntheticCorpus& corpus,
                          const Schedule& schedule, const std::string& work_dir,
                          SpanLog* trace) {
  Live live;
  std::string error;
  live.stack = BuildStack(config, corpus, work_dir, trace, &error);
  if (!live.stack) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return std::nullopt;
  }
  for (size_t c = 0; c < QueryClients(config); ++c) {
    live.clients.push_back(
        std::make_unique<Client>(live.stack->server->port()));
  }
  std::vector<std::vector<uint8_t>> warm =
      EncodeQueries(config, schedule.warmup, schedule.queries.size());
  if (config.workload == Workload::kSearchHot) {
    for (std::vector<uint8_t>& frame :
         EncodeQueries(config, schedule.queries, 0)) {
      warm.push_back(std::move(frame));
    }
  }
  for (const Answer& answer : SendAll(live.clients, warm)) {
    if (!answer.ok) {
      std::fprintf(stderr, "perfbench: warm-up query failed\n");
      return std::nullopt;
    }
  }
  return live;
}

// ---- verification --------------------------------------------------------

/// From-scratch reference of the live cluster: the surviving documents
/// routed by the centre's hash into one TextIndex per shard, global
/// statistics aggregated as the handshake does, the in-process shard
/// evaluation and merge.
class LiveRebuild {
 public:
  LiveRebuild(const net::RemoteClusterIndex& remote,
              const std::vector<std::pair<std::string, std::string>>& docs) {
    for (size_t s = 0; s < remote.num_shards(); ++s) {
      ir::TextIndex::Options options;
      options.flush_batch = docs.size() + 2;
      indexes_.push_back(std::make_unique<ir::TextIndex>(options));
    }
    for (const auto& [url, text] : docs) {
      indexes_[remote.ShardForUrl(url)]->AddDocument(url, text);
    }
    for (auto& index : indexes_) {
      index->Flush();
      collection_length_ += index->collection_length();
      fragments_.push_back(
          std::make_unique<ir::FragmentedIndex>(index.get(), kFragments));
    }
  }

  std::vector<ir::ClusterScoredDoc> Query(
      const std::vector<std::string>& words) const {
    ir::ShardQuery query;
    query.n = kTopN;
    query.max_fragments = kFragments;
    query.collection_length = collection_length_;
    query.options.prune = true;
    for (const std::string& word : words) {
      std::optional<std::string> stem = ir::NormalizeWordAs(word, true, true);
      if (!stem || std::find(query.stems.begin(), query.stems.end(), *stem) !=
                       query.stems.end()) {
        continue;
      }
      int32_t df = 0;
      for (const auto& index : indexes_) {
        std::optional<ir::TermId> term = index->LookupTerm(*stem);
        if (term) df += index->df(*term);
      }
      if (df == 0) continue;
      query.stems.push_back(*stem);
      query.stem_global_df.push_back(df);
    }
    std::vector<ir::ShardResult> results;
    for (size_t s = 0; s < indexes_.size(); ++s) {
      results.push_back(
          ir::EvaluateShardQuery(*indexes_[s], *fragments_[s], query));
    }
    return ir::MergeShardResults(&results, kTopN);
  }

 private:
  std::vector<std::unique_ptr<ir::TextIndex>> indexes_;
  std::vector<std::unique_ptr<ir::FragmentedIndex>> fragments_;
  int64_t collection_length_ = 0;
};

/// What verification found. `attempted` counts the operations it sent
/// itself (ingest_mixed's post-phase queries); `failed` counts the wrong
/// answers plus those of its own operations that got no answer.
struct Verdict {
  size_t checked = 0;
  size_t wrong = 0;
  size_t attempted = 0;
  size_t failed = 0;
};

size_t EffectiveFragments(bool degraded) {
  return degraded ? std::max<size_t>(1, kFragments / 2) : kFragments;
}

/// Every answered ranking of the phase against the in-process
/// reference (search: ClusterIndex over the same segments;
/// federated: the post-filter oracle).
Verdict VerifyAnswers(const WorkloadConfig& config, const Stack& stack,
                      const Schedule& schedule, const PhaseResult& phase) {
  Verdict verdict;
  std::unique_ptr<ir::ClusterIndex> loaded;
  if (config.workload != Workload::kFederatedMix) {
    Result<std::unique_ptr<ir::ClusterIndex>> ref =
        ir::ClusterIndex::LoadFromSegments(stack.segment_paths, kFragments);
    if (!ref.ok()) {
      verdict.wrong = verdict.failed = phase.answers.size();
      return verdict;
    }
    loaded = std::move(ref).value();
  }
  std::map<std::pair<uint32_t, bool>, uint64_t> expected;
  for (size_t i = 0; i < phase.answers.size(); ++i) {
    const Answer& answer = phase.answers[i];
    if (!answer.ok) continue;
    const uint32_t item = schedule.query_ops[i].item;
    auto [it, fresh] = expected.try_emplace({item, answer.degraded}, 0);
    if (fresh) {
      const std::vector<std::string>& words = schedule.queries[item];
      const size_t fragments = EffectiveFragments(answer.degraded);
      if (loaded) {
        ir::RankOptions options;
        options.prune = true;
        it->second = RankingDigest(
            loaded->Query(words, kTopN, fragments, nullptr, options));
      } else {
        it->second =
            RankingDigest(FederatedOracle(stack, words, item, fragments));
      }
    }
    ++verdict.checked;
    if (it->second != answer.digest) {
      ++verdict.wrong;
      ++verdict.failed;
    }
  }
  return verdict;
}

/// ingest_mixed: once the writer has stopped, fresh queries over the
/// wire against a from-scratch rebuild of the surviving documents.
Verdict VerifyIngest(const synth::SyntheticCorpus& corpus, const Live& live,
                     const WorkloadConfig& config, const Schedule& schedule,
                     const PhaseResult& phase) {
  std::vector<bool> alive(corpus.spec().documents, false);
  std::vector<size_t> order;
  for (size_t d = 0; d < config.load.preload_docs; ++d) {
    alive[d] = true;
    order.push_back(d);
  }
  for (size_t j = 0; j < schedule.write_ops.size(); ++j) {
    const Op& op = schedule.write_ops[j];
    if (!phase.write_ok[j]) continue;
    if (op.kind == OpKind::kInsert) {
      alive[op.item] = true;
      order.push_back(op.item);
    } else {
      alive[op.item] = false;
    }
  }
  std::vector<std::pair<std::string, std::string>> docs;
  for (size_t d : order) {
    if (alive[d]) docs.emplace_back(corpus.Url(d), corpus.Body(d));
  }
  const LiveRebuild rebuild(*live.stack->remote, docs);
  const std::vector<Answer> answers =
      SendAll(live.clients, EncodeQueries(config, schedule.verify, 0));
  Verdict verdict;
  for (size_t i = 0; i < answers.size(); ++i) {
    ++verdict.attempted;
    if (!answers[i].ok) {
      ++verdict.failed;
      continue;
    }
    ++verdict.checked;
    if (answers[i].digest != RankingDigest(rebuild.Query(schedule.verify[i]))) {
      ++verdict.wrong;
      ++verdict.failed;
    }
  }
  return verdict;
}

Verdict Verify(const WorkloadConfig& config,
               const synth::SyntheticCorpus& corpus, const Live& live,
               const Schedule& schedule, const PhaseResult& phase) {
  if (config.workload == Workload::kIngestMixed) {
    return VerifyIngest(corpus, live, config, schedule, phase);
  }
  return VerifyAnswers(config, *live.stack, schedule, phase);
}

// ---- metrics -------------------------------------------------------------

size_t Failed(const PhaseResult& phase, const Verdict& verdict) {
  return phase.attempted() - phase.completed() + verdict.failed;
}

/// The end-to-end metrics of BENCHMARK.json, over the whole measured
/// phase.
std::vector<Metric> EndToEnd(const PhaseResult& phase,
                             const std::vector<double>& setup_s) {
  return {{"setup_s", Median(setup_s), "s"},
          {"query_p50_us", Median(phase.query_latency_us), "us"},
          {"query_p95_us",
           WindowedQuantile(phase.query_latency_us, 0.95, kTailWindow), "us"},
          {"cpu_us_per_op", phase.cpu_us_per_op(), "us"},
          {"peak_rss_mb", phase.peak_rss_mb, "MiB"}};
}

/// Printed on every run, outside the JSON result: the p99 and the
/// whole-phase p95 (too sensitive to host noise to gate), the writer's
/// latency, and how noisy the host and how late the generator were.
std::vector<Metric> Diagnostics(const WorkloadConfig& config,
                                const PhaseResult& phase) {
  std::vector<Metric> m;
  m.push_back({"query_p99_us",
               Tail(phase.query_latency_us, 0.99, "query_p99_us"), "us"});
  m.push_back({"query_p95_phase_us",
               Tail(phase.query_latency_us, 0.95, "query_p95_phase_us"),
               "us"});
  if (config.workload == Workload::kIngestMixed) {
    m.push_back({"mutation_p50_us", Median(phase.mutation_latency_us), "us"});
    m.push_back({"mutation_p90_us",
                 Tail(phase.mutation_latency_us, 0.90, "mutation_p90_us"),
                 "us"});
  }
  m.push_back({"host.steal_share", phase.steal_share, "share"});
  m.push_back({"load.send_lag_p99_us",
               Tail(phase.send_lag_us, 0.99, "load.send_lag_p99_us"), "us"});
  return m;
}

std::vector<double> Durations(const std::vector<Span>& spans, const char* name,
                              int frame = -1) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    if (frame >= 0 && s.frame != frame) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

/// The per-layer metrics of a traced phase. `untraced` is the same
/// schedule on the untraced stack (mutation latency and the overhead
/// baseline); `work` the index work of the served queries.
std::vector<Metric> PerLayer(const PhaseResult& untraced,
                             const PhaseResult& traced,
                             const std::vector<Span>& spans,
                             const Chains& chains, const IrWork& work) {
  const serve::ServeStats& a = traced.serve_before;
  const serve::ServeStats& b = traced.serve_after;
  const double submitted = static_cast<double>(b.submitted - a.submitted);
  const double queries = static_cast<double>(traced.answers.size());
  const double ops = static_cast<double>(traced.completed());
  const double batches = static_cast<double>(b.batches - a.batches);
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  const double shed =
      static_cast<double>((b.shed_queue_full - a.shed_queue_full) +
                          (b.shed_deadline - a.shed_deadline) +
                          (b.expired_in_queue - a.expired_in_queue));
  const double fed = static_cast<double>(b.federated_queries -
                                         a.federated_queries);

  const int query_frame = static_cast<int>(net::MessageType::kQueryRequest);
  const int stats_frame = static_cast<int>(net::MessageType::kStatsRequest);
  double query_exchanges = 0, query_bytes = 0;
  double stats_exchanges = 0, stats_bytes = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "exchange") != 0) continue;
    if (s.frame == query_frame) {
      ++query_exchanges;
      query_bytes += static_cast<double>(s.bytes);
    } else if (s.frame == stats_frame) {
      ++stats_exchanges;
      stats_bytes += static_cast<double>(s.bytes);
    }
  }
  const double handshakes =
      stats_exchanges / static_cast<double>(kShards * kReplicas);
  const auto& ra = traced.replica_before;
  const auto& rb = traced.replica_after;
  const double hedges = static_cast<double>(rb.hedges_fired - ra.hedges_fired);

  std::vector<Metric> m;
  m.push_back({"serve.handle_p50_us", Median(Durations(spans, "handle")),
               "us"});
  m.push_back({"serve.queue_wait_p50_us", Median(chains.queue_wait_us), "us"});
  m.push_back({"serve.backend_batch_p50_us",
               Median(Durations(spans, "batch")), "us"});
  m.push_back({"serve.avg_batch",
               Ratio(static_cast<double>(b.batched_queries - a.batched_queries),
                     batches),
               "queries"});
  m.push_back({"serve.cache_hit_rate", Ratio(hits, hits + misses), "share"});
  m.push_back({"serve.shed_share", Ratio(shed, submitted), "share"});
  m.push_back({"serve.degraded_share",
               Ratio(static_cast<double>(b.degraded - a.degraded), submitted),
               "share"});
  m.push_back({"serve.stale_served_share",
               Ratio(static_cast<double>(b.stale_served - a.stale_served),
                     submitted),
               "share"});

  m.push_back({"net.exchange_p50_us",
               Median(Durations(spans, "exchange", query_frame)), "us"});
  m.push_back({"net.exchanges_per_query", Ratio(query_exchanges, queries),
               "count"});
  m.push_back({"net.bytes_per_query", Ratio(query_bytes, queries), "B"});
  m.push_back({"net.shard_handle_p50_us",
               Median(Durations(spans, "shard", query_frame)), "us"});
  m.push_back({"net.hedge_share",
               Ratio(hedges, batches * static_cast<double>(kShards)),
               "share"});
  m.push_back({"net.hedge_win_share",
               Ratio(static_cast<double>(rb.hedge_wins - ra.hedge_wins),
                     hedges),
               "share"});
  m.push_back({"net.failovers",
               static_cast<double>(rb.failovers - ra.failovers), "count"});
  const double wq = static_cast<double>(work.queries);
  m.push_back({"ir.postings_per_query",
               Ratio(static_cast<double>(work.postings), wq), "count"});
  m.push_back({"ir.blocks_decoded_per_query",
               Ratio(static_cast<double>(work.blocks_decoded), wq), "count"});
  m.push_back({"ir.blocks_skipped_share",
               Ratio(static_cast<double>(work.blocks_skipped),
                     static_cast<double>(work.blocks_skipped +
                                         work.blocks_decoded)),
               "share"});
  m.push_back({"ir.pivots_per_query",
               Ratio(static_cast<double>(work.pivots), wq), "count"});
  m.push_back({"ir.shard_cpu_us_per_query", Ratio(work.shard_cpu_us, wq),
               "us"});
  m.push_back({"ir.critical_path_p50_us", Median(work.critical_path_us),
               "us"});

  m.push_back({"federate.text_us_per_query",
               Ratio(static_cast<double>(b.federated_text_us -
                                         a.federated_text_us),
                     fed),
               "us"});
  m.push_back({"federate.webspace_us_per_query",
               Ratio(static_cast<double>(b.federated_webspace_us -
                                         a.federated_webspace_us),
                     fed),
               "us"});
  m.push_back({"federate.cobra_us_per_query",
               Ratio(static_cast<double>(b.federated_cobra_us -
                                         a.federated_cobra_us),
                     fed),
               "us"});
  m.push_back({"federate.filter_docs_per_query",
               Ratio(static_cast<double>(b.federated_filter_docs -
                                         a.federated_filter_docs),
                     fed),
               "docs"});

  m.push_back({"host.steal_share", traced.steal_share, "share"});
  m.push_back({"load.send_lag_p99_us",
               Tail(traced.send_lag_us, 0.99, "load.send_lag_p99_us"), "us"});
  m.push_back({"trace.overhead_share",
               Ratio(traced.cpu_us_per_op() - untraced.cpu_us_per_op(),
                     untraced.cpu_us_per_op()),
               "share"});
  m.push_back({"trace.chained_share",
               Ratio(static_cast<double>(chains.complete),
                     static_cast<double>(chains.client_requests)),
               "share"});

  // The writer's layers; only ingest_mixed reaches them, the others
  // report 0.
  const int insert_frame = static_cast<int>(net::MessageType::kInsertRequest);
  const int delete_frame = static_cast<int>(net::MessageType::kDeleteRequest);
  m.push_back({"net.handshakes_per_op", Ratio(handshakes, ops), "count"});
  m.push_back({"net.handshake_p50_us",
               Median(Durations(spans, "exchange", stats_frame)), "us"});
  m.push_back({"net.handshake_bytes", Ratio(stats_bytes, handshakes), "B"});
  m.push_back({"ingest.insert_handle_p50_us",
               Median(Durations(spans, "shard", insert_frame)), "us"});
  m.push_back({"ingest.delete_handle_p50_us",
               Median(Durations(spans, "shard", delete_frame)), "us"});
  m.push_back({"ingest.merge_p50_us", Median(traced.merge_us), "us"});
  double delta_sum = 0;
  for (double d : traced.delta_docs) delta_sum += d;
  m.push_back({"ingest.delta_docs_mean",
               Ratio(delta_sum, static_cast<double>(traced.delta_docs.size())),
               "docs"});
  m.push_back({"mutation_p50_us", Median(untraced.mutation_latency_us), "us"});
  m.push_back({"mutation_p90_us",
               untraced.mutation_latency_us.empty()
                   ? 0.0
                   : Tail(untraced.mutation_latency_us, 0.90,
                          "mutation_p90_us"),
               "us"});
  return m;
}

/// federated_mix serves ranked text through the mediator, not through
/// Backend::QueryBatch; its index work is read from FederatedStats by
/// executing each answered query once more, after the phase.
IrWork FederatedWork(const Stack& stack, const Schedule& schedule,
                     const PhaseResult& phase) {
  IrWork work;
  for (size_t i = 0; i < phase.answers.size(); ++i) {
    if (!phase.answers[i].ok) continue;
    const uint32_t item = schedule.query_ops[i].item;
    Result<federate::FederatedQuery> parsed = federate::ParseFederatedQuery(
        FederatedQueryText(schedule.queries[item], item));
    if (!parsed.ok()) continue;
    federate::FederatedStats stats;
    ir::RankOptions options;
    options.prune = true;
    if (stack.mediator
            ->Execute(parsed.value(), kTopN,
                      EffectiveFragments(phase.answers[i].degraded), options,
                      &stats)
            .ok()) {
      work.Add(stats.text_stats);
    }
  }
  return work;
}

void Print(const std::vector<Metric>& metrics, const char* section) {
  for (const Metric& m : metrics) {
    std::printf("%-10s %-34s %16.3f %s\n", section, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  WorkloadConfig config;
  if (!ConfigFor(args.workload, &config)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  config.corpus.seed = args.seed;
  config.load.seconds = args.seconds;
  const synth::SyntheticCorpus corpus(config.corpus);
  const Schedule schedule = MakeSchedule(corpus, config.load, args.seed);
  if (schedule.query_ops.size() < MinSamplesFor(0.99) ||
      (!schedule.write_ops.empty() &&
       schedule.write_ops.size() < MinSamplesFor(0.90))) {
    std::fprintf(stderr, "perfbench: --seconds %g leaves too few operations "
                 "for the reported tails\n", args.seconds);
    return 2;
  }
  const Prepared prepared = Prepare(config, corpus, schedule);
  std::printf("workload %s seed %llu: %zu queries at %.0f/s, %zu writes at "
              "%.1f/s, %zu clients, schedule %016llx\n",
              config.name, static_cast<unsigned long long>(args.seed),
              schedule.query_ops.size(), config.load.query_rate,
              schedule.write_ops.size(), config.load.write_rate,
              QueryClients(config),
              static_cast<unsigned long long>(ScheduleDigest(schedule)));

  if (args.trace == 0) {
    // The first set-up serves the measured phase; the others only time
    // set-up again, after the phase, so peak RSS sees a single stack.
    std::vector<double> setup_s;
    PhaseResult phase;
    Verdict verdict;
    for (size_t i = 0; i < kSetups; ++i) {
      const Clock::time_point t0 = Clock::now();
      std::optional<Live> live =
          SetUp(config, corpus, schedule, args.work_dir, nullptr);
      if (!live) return 1;
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
      if (i == 0) {
        phase = RunPhase(config, live->stack.get(), live->clients, schedule,
                         prepared, nullptr);
        verdict = Verify(config, corpus, *live, schedule, phase);
      }
    }
    std::printf("setup     ");
    for (double s : setup_s) std::printf(" %.3f s", s);
    std::printf("\n");
    const std::vector<Metric> e2e = EndToEnd(phase, setup_s);
    Print(e2e, "e2e");
    Print(Diagnostics(config, phase), "diag");
    std::printf("verify     checked %zu answers, %zu wrong\n", verdict.checked,
                verdict.wrong);
    PrintResult(verdict.wrong == 0, phase.attempted() + verdict.attempted,
                Failed(phase, verdict), e2e);
    return 0;
  }

  // Traced: the same schedule untraced (baseline for the overhead), then
  // traced on a fresh stack.
  PhaseResult untraced;
  Verdict verdict_untraced;
  {
    std::optional<Live> live =
        SetUp(config, corpus, schedule, args.work_dir, nullptr);
    if (!live) return 1;
    untraced = RunPhase(config, live->stack.get(), live->clients, schedule,
                        prepared, nullptr);
    verdict_untraced = Verify(config, corpus, *live, schedule, untraced);
  }
  SpanLog log;
  std::optional<Live> live =
      SetUp(config, corpus, schedule, args.work_dir, &log);
  if (!live) return 1;
  log.Take();  // set-up and warm-up spans
  if (live->stack->traced_backend) live->stack->traced_backend->TakeWork();
  const PhaseResult traced = RunPhase(config, live->stack.get(), live->clients,
                                      schedule, prepared, &log);
  const std::vector<Span> spans = log.Take();
  IrWork work = config.workload == Workload::kFederatedMix
                    ? FederatedWork(*live->stack, schedule, traced)
                    : live->stack->traced_backend->TakeWork();
  const Verdict verdict = Verify(config, corpus, *live, schedule, traced);
  const Chains chains = Correlate(spans);
  if (!args.spans.empty() && !WriteSpans(args.spans, spans, chains)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
    return 1;
  }
  const std::vector<Metric> layers =
      PerLayer(untraced, traced, spans, chains, work);
  Print(EndToEnd(untraced, {0.0}), "untraced");
  Print(EndToEnd(traced, {0.0}), "traced");
  Print(layers, "layer");
  std::printf("verify     checked %zu + %zu answers, %zu + %zu wrong; "
              "%zu spans, %zu of %zu requests fully chained\n",
              verdict_untraced.checked, verdict.checked, verdict_untraced.wrong,
              verdict.wrong, spans.size(), chains.complete,
              chains.client_requests);
  PrintResult(verdict.wrong == 0 && verdict_untraced.wrong == 0,
              untraced.attempted() + traced.attempted() +
                  verdict_untraced.attempted + verdict.attempted,
              Failed(untraced, verdict_untraced) + Failed(traced, verdict),
              layers);
  return 0;
}

}  // namespace
}  // namespace dls::perfbench

int main(int argc, char** argv) {
  dls::perfbench::Args args;
  if (!dls::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--spans FILE]\n");
    return 2;
  }
  return dls::perfbench::Run(args);
}
