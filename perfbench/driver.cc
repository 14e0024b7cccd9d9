#include "driver.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "net/wire.h"

namespace dls::perfbench {
namespace {

constexpr int kCallTimeoutMs = 5000;

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Joins the keys of a batch or exchange span back into single keys.
std::vector<std::string> SplitKeys(const std::string& joined) {
  std::vector<std::string> keys;
  size_t begin = 0;
  while (begin <= joined.size()) {
    const size_t end = std::min(joined.find('|', begin), joined.size());
    keys.push_back(joined.substr(begin, end - begin));
    begin = end + 1;
  }
  return keys;
}

/// Latest span in `candidates` (indices into `spans`, start-ordered)
/// whose start is at or before `at_ns`; -1 when none.
int64_t LatestAtOrBefore(const std::vector<Span>& spans,
                         const std::vector<size_t>& candidates,
                         int64_t at_ns) {
  auto it = std::upper_bound(
      candidates.begin(), candidates.end(), at_ns,
      [&](int64_t t, size_t i) { return t < spans[i].start_ns; });
  if (it == candidates.begin()) return -1;
  return static_cast<int64_t>(*std::prev(it));
}

}  // namespace

std::vector<uint8_t> EncodeSearch(const std::vector<std::string>& words,
                                  const std::string& structured) {
  net::SearchRequest request;
  if (structured.empty()) request.words = words;
  request.structured = structured;
  request.n = kTopN;
  request.max_fragments = kFragments;
  request.options.prune = true;
  Result<std::vector<uint8_t>> frame = net::EncodeSearchRequest(request);
  return frame.ok() ? std::move(frame).value() : std::vector<uint8_t>{};
}

std::vector<std::vector<uint8_t>> EncodeQueries(
    const WorkloadConfig& config,
    const std::vector<std::vector<std::string>>& queries, size_t offset) {
  std::vector<std::vector<uint8_t>> frames;
  for (size_t i = 0; i < queries.size(); ++i) {
    frames.push_back(EncodeSearch(
        queries[i], config.workload == Workload::kFederatedMix
                        ? FederatedQueryText(queries[i], offset + i)
                        : std::string()));
  }
  return frames;
}

Prepared Prepare(const WorkloadConfig& config,
                 const synth::SyntheticCorpus& corpus,
                 const Schedule& schedule) {
  Prepared prepared;
  prepared.frames = EncodeQueries(config, schedule.queries, 0);
  for (size_t i = 0; i < schedule.queries.size(); ++i) {
    prepared.keys.push_back(config.workload == Workload::kFederatedMix
                                ? FederatedQueryText(schedule.queries[i], i)
                                : QueryKey(schedule.queries[i]));
  }
  for (const Op& op : schedule.write_ops) {
    prepared.write_urls.push_back(corpus.Url(op.item));
    prepared.write_bodies.push_back(
        op.kind == OpKind::kInsert ? corpus.Body(op.item) : std::string());
  }
  return prepared;
}

Answer Client::Send(const std::vector<uint8_t>& frame) {
  Answer answer;
  Result<std::vector<uint8_t>> reply =
      conn_.Call(frame, Deadline::After(kCallTimeoutMs));
  if (!reply.ok()) return answer;
  net::MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  if (!net::DecodeFrame(reply.value(), &type, &body, &len).ok() ||
      type != net::MessageType::kSearchResponse) {
    return answer;
  }
  Result<net::SearchResponse> response = net::DecodeSearchResponse(body, len);
  if (!response.ok() || !response.value().status.ok()) return answer;
  answer.ok = true;
  answer.degraded = response.value().degraded;
  answer.digest = RankingDigest(response.value().results);
  return answer;
}

std::vector<Answer> SendAll(const std::vector<std::unique_ptr<Client>>& clients,
                            const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<Answer> answers(frames.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < frames.size(); i += clients.size()) {
        answers[i] = clients[c]->Send(frames[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return answers;
}

size_t PhaseResult::completed() const {
  size_t done = 0;
  for (const Answer& a : answers) done += a.ok ? 1 : 0;
  for (bool ok : write_ok) done += ok ? 1 : 0;
  return done + merge_us.size() - merge_failures;
}

double PhaseResult::cpu_us_per_op() const {
  const size_t done = completed();
  return done > 0 ? cpu_s * 1e6 / static_cast<double>(done) : 0.0;
}

size_t QueryClients(const WorkloadConfig& config) {
  const size_t cores =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 2, 4);
  return config.workload == Workload::kIngestMixed ? cores - 1 : cores;
}

PhaseResult RunPhase(const WorkloadConfig& config, Stack* stack,
                     const std::vector<std::unique_ptr<Client>>& clients,
                     const Schedule& schedule, const Prepared& prepared,
                     SpanLog* trace) {
  PhaseResult result;
  const size_t num_queries = schedule.query_ops.size();
  const size_t num_writes = schedule.write_ops.size();
  result.answers.resize(num_queries);
  result.query_latency_us.assign(num_queries, kFailedLatency);
  result.send_lag_us.assign(num_queries, 0.0);
  result.write_ok.assign(num_writes, false);
  result.mutation_latency_us.assign(num_writes, kFailedLatency);

  result.serve_before = stack->frontend->Stats();
  if (stack->remote) result.replica_before = stack->remote->replica_counters();
  // The peak is that of the measured phase, not of set-up, whose four
  // parallel index builds overlap differently from run to run.
  ResetPeakRss();
  const CpuTicks ticks_before = ReadCpuTicks();
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);

  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < num_queries; i += clients.size()) {
        const Op& op = schedule.query_ops[i];
        const Clock::time_point due = start + std::chrono::nanoseconds(op.due_ns);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const Answer answer = clients[c]->Send(prepared.frames[op.item]);
        const Clock::time_point done = Clock::now();
        result.answers[i] = answer;
        result.send_lag_us[i] =
            std::chrono::duration<double, std::micro>(sent - due).count();
        if (answer.ok) {
          result.query_latency_us[i] =
              std::chrono::duration<double, std::micro>(done - due).count();
        }
        if (trace != nullptr) {
          Span span;
          span.name = "client";
          span.start_ns = ToNs(sent);
          span.end_ns = ToNs(done);
          span.key = prepared.keys[op.item];
          trace->Record(std::move(span));
        }
      }
    });
  }
  if (num_writes > 0) {
    threads.emplace_back([&] {
      for (size_t j = 0; j < num_writes; ++j) {
        const Op& op = schedule.write_ops[j];
        const Clock::time_point due = start + std::chrono::nanoseconds(op.due_ns);
        std::this_thread::sleep_until(due);
        bool ok = false;
        if (op.kind == OpKind::kInsert) {
          ok = stack->remote
                   ->Insert(prepared.write_urls[j], prepared.write_bodies[j])
                   .ok();
        } else {
          Result<bool> found = stack->remote->Delete(prepared.write_urls[j]);
          ok = found.ok() && found.value();
        }
        const Clock::time_point done = Clock::now();
        if (ok) {
          result.mutation_latency_us[j] =
              std::chrono::duration<double, std::micro>(done - due).count();
        }
        result.write_ok[j] = ok;
        if (config.merge_every > 0 && (j + 1) % config.merge_every == 0) {
          const Clock::time_point merge_start = Clock::now();
          if (!stack->remote->MergeAll().ok()) ++result.merge_failures;
          result.merge_us.push_back(std::chrono::duration<double, std::micro>(
                                        Clock::now() - merge_start)
                                        .count());
        }
        if (trace != nullptr) {
          double delta = 0;
          for (const auto& live : stack->lives) delta += live->Stats().delta_docs;
          result.delta_docs.push_back(delta /
                                      static_cast<double>(stack->lives.size()));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  result.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.cpu_s = ProcessCpuSeconds() - cpu_before;
  result.steal_share = StealShare(ticks_before, ReadCpuTicks());
  result.peak_rss_mb = PeakRssMb();
  result.serve_after = stack->frontend->Stats();
  if (stack->remote) result.replica_after = stack->remote->replica_counters();
  return result;
}

Chains Correlate(const std::vector<Span>& spans) {
  Chains chains;
  chains.parent.assign(spans.size(), 0);
  // Start-ordered span indices per (name, key).
  std::map<std::string, std::vector<size_t>> clients, handles, batches;
  std::map<std::pair<std::string, int32_t>, std::vector<size_t>> exchanges;
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  });
  for (size_t i : order) {
    const Span& s = spans[i];
    const std::string name = s.name;
    if (name == "client") {
      clients[s.key].push_back(i);
    } else if (name == "handle") {
      handles[s.key].push_back(i);
    } else if (name == "batch") {
      batches[s.key].push_back(i);
    } else if (name == "exchange" && !s.key.empty()) {
      exchanges[{s.key, s.replica}].push_back(i);
    }
  }

  // handle -> client that sent it.
  for (const auto& [key, list] : handles) {
    auto it = clients.find(key);
    if (it == clients.end()) continue;
    for (size_t h : list) {
      const int64_t c = LatestAtOrBefore(spans, it->second, spans[h].start_ns);
      if (c >= 0) chains.parent[h] = spans[c].id;
    }
  }
  // batch -> handle of its first rider; queue wait of every rider.
  // Shards covered by a batch's answered exchanges, for completeness.
  std::map<size_t, std::set<int32_t>> batch_shards;
  std::map<std::string, std::vector<size_t>> batch_of_key;
  for (const auto& [joined, list] : batches) {
    const std::vector<std::string> keys = SplitKeys(joined);
    for (size_t b : list) {
      for (size_t k = 0; k < keys.size(); ++k) {
        auto it = handles.find(keys[k]);
        if (it == handles.end()) continue;
        const int64_t h =
            LatestAtOrBefore(spans, it->second, spans[b].start_ns);
        if (h < 0) continue;
        if (k == 0) chains.parent[b] = spans[h].id;
        chains.queue_wait_us.push_back(
            static_cast<double>(spans[b].start_ns - spans[h].start_ns) / 1e3);
        batch_of_key[keys[k]].push_back(b);
      }
    }
  }
  // exchange -> batch carrying the same queries; shard -> exchange.
  std::map<size_t, size_t> exchange_answered;  // exchange -> shard spans
  for (size_t i : order) {
    const Span& s = spans[i];
    const std::string name = s.name;
    if (name == "exchange" && !s.key.empty()) {
      auto it = batches.find(s.key);
      if (it == batches.end()) continue;
      const int64_t b = LatestAtOrBefore(spans, it->second, s.start_ns);
      if (b >= 0 && spans[b].end_ns >= s.start_ns) {
        chains.parent[i] = spans[b].id;
      }
    } else if (name == "shard" && !s.key.empty()) {
      auto it = exchanges.find({s.key, s.replica});
      if (it == exchanges.end()) continue;
      const int64_t x = LatestAtOrBefore(spans, it->second, s.start_ns);
      if (x >= 0 && spans[x].end_ns >= s.start_ns) {
        chains.parent[i] = spans[x].id;
        ++exchange_answered[static_cast<size_t>(x)];
      }
    }
  }
  std::map<uint64_t, size_t> index_of_id;
  for (size_t i = 0; i < spans.size(); ++i) index_of_id[spans[i].id] = i;
  for (const auto& [x, count] : exchange_answered) {
    if (count == 0 || chains.parent[x] == 0) continue;
    batch_shards[index_of_id[chains.parent[x]]].insert(
        spans[x].replica / static_cast<int32_t>(kReplicas));
  }
  for (const auto& [key, list] : clients) {
    for (size_t c : list) {
      ++chains.client_requests;
      auto hs = handles.find(key);
      auto bs = batch_of_key.find(key);
      if (hs == handles.end() || bs == batch_of_key.end()) continue;
      // The handle this client caused, then the first batch after it.
      int64_t handle = -1;
      for (size_t h : hs->second) {
        if (chains.parent[h] == spans[c].id) handle = static_cast<int64_t>(h);
      }
      if (handle < 0) continue;
      for (size_t b : bs->second) {
        if (spans[b].start_ns < spans[handle].start_ns ||
            spans[b].start_ns > spans[handle].end_ns) {
          continue;
        }
        if (batch_shards[b].size() == kShards) ++chains.complete;
        break;
      }
    }
  }
  return chains;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const Chains& chains) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string key;
    for (char ch : s.key) {
      if (ch == '"' || ch == '\\') key.push_back('\\');
      key.push_back(ch);
    }
    std::fprintf(out,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"key\": \"%s\", "
                 "\"replica\": %d, \"frame\": %u, \"bytes\": %llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(chains.parent[i]), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), key.c_str(), s.replica,
                 static_cast<unsigned>(s.frame),
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(out) == 0;
}

}  // namespace dls::perfbench
