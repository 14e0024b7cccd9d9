#include "net/remote_cluster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <numeric>
#include <queue>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "common/timer.h"
#include "net/wire.h"

namespace dls::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// One attempt's classified outcome. `frame` is ok iff a well-formed
/// non-Error frame arrived; `bytes` is the size of whatever response
/// frame was received (0 when the transport itself failed), so wire
/// accounting charges error frames and corrupt frames like the real
/// traffic they are. `refused` marks a peer Error frame: the node
/// answered, so it did not lose the request.
struct Attempt {
  Result<std::vector<uint8_t>> frame;
  size_t bytes = 0;
  bool refused = false;
};

/// Collapses a raw transport result into pass/fail: a transport error,
/// an undecodable frame, or a peer Error frame are all *failed
/// attempts* — eligible for retry and replica failover — while any
/// well-formed non-Error frame is the attempt's answer (the caller
/// still checks the type).
Attempt ClassifyResponse(Result<std::vector<uint8_t>> raw) {
  if (!raw.ok()) return {std::move(raw), 0};
  const size_t bytes = raw.value().size();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  Status decoded = DecodeFrame(raw.value(), &type, &body, &body_len);
  if (!decoded.ok()) return {std::move(decoded), bytes};
  if (type == MessageType::kError) {
    return {DecodeError(body, body_len), bytes, /*refused=*/true};
  }
  return {std::move(raw), bytes};
}

}  // namespace

/// A thread started with the index that runs queued attempts one at a
/// time, in queue order. Destruction lets it finish the queue, then
/// joins it.
class RemoteClusterIndex::Lane {
 public:
  Lane() : thread_([this] { Run(); }) {}
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  ~Lane() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  void Post(std::function<void()> attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(attempt));
    }
    cv_.notify_one();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      std::function<void()> attempt = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      attempt();
      attempt = nullptr;  // release its channel before sleeping again
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  ///< guarded by mu_
  bool stop_ = false;                        ///< guarded by mu_
  std::thread thread_;  ///< last: starts once the members above exist
};

RemoteClusterIndex::ShardState::~ShardState() = default;

/// Completion channel between a caller and the attempts it queued.
/// Heap-allocated and shared: a hedge loser finishing after the caller
/// returned writes into this, not into the caller's stack.
struct RemoteClusterIndex::Completions {
  struct Done {
    size_t call = 0;
    size_t replica = 0;
    bool is_hedge = false;
    bool sent = false;  ///< the request reached the transport
    Attempt attempt{Status::Unavailable("pending")};
  };

  explicit Completions(size_t calls) : answered(calls) {}

  void Push(Done done) {
    {
      std::lock_guard<std::mutex> lock(mu);
      this->done.push_back(std::move(done));
    }
    cv.notify_one();
  }

  /// Everything completed so far; blocks until something has, or until
  /// `until` passes (then possibly empty).
  std::vector<Done> Take(const std::optional<SteadyClock::time_point>& until) {
    std::unique_lock<std::mutex> lock(mu);
    auto ready = [this] { return !done.empty(); };
    if (until.has_value()) {
      cv.wait_until(lock, *until, ready);
    } else {
      cv.wait(lock, ready);
    }
    return std::exchange(done, {});
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Done> done;  ///< guarded by mu
  /// Per call: an answer was taken, so its queued attempts are dropped.
  std::vector<std::atomic<bool>> answered;
};

RemoteClusterIndex::RemoteClusterIndex(std::vector<Shard> shards)
    : RemoteClusterIndex(std::move(shards), Options()) {}

RemoteClusterIndex::RemoteClusterIndex(std::vector<Shard> shards,
                                       Options options)
    : RemoteClusterIndex(
          [&shards] {
            std::vector<ReplicaSet> sets(shards.size());
            for (size_t i = 0; i < shards.size(); ++i) {
              sets[i].replicas.push_back(shards[i]);
            }
            return sets;
          }(),
          options) {}

RemoteClusterIndex::RemoteClusterIndex(std::vector<ReplicaSet> shards,
                                       Options options)
    : shards_(std::move(shards)), options_(options) {
  assert(!shards_.empty());
  shard_docs_.assign(shards_.size(), 0);
  shard_epochs_.assign(shards_.size(), 0);
  shard_state_.reserve(shards_.size());
  for (const ReplicaSet& set : shards_) {
    assert(!set.replicas.empty());
    auto state = std::make_unique<ShardState>();
    state->health.resize(set.replicas.size());
    for (size_t r = 0; r < set.replicas.size(); ++r) {
      state->lanes.push_back(std::make_unique<Lane>());
    }
    shard_state_.push_back(std::move(state));
  }
}

RemoteClusterIndex::~RemoteClusterIndex() {
  // Queued attempts still use `this` (they record replica health), so
  // every lane drains and joins before any other member dies.
  for (const auto& state : shard_state_) state->lanes.clear();
}

void RemoteClusterIndex::EnableParallelism(size_t /*num_threads*/) {
  parallel_ = true;
}

int32_t RemoteClusterIndex::global_df(std::string_view stem) const {
  std::shared_lock<std::shared_mutex> lock(stats_mu_);
  auto it = global_df_.find(stem);
  return it == global_df_.end() ? 0 : it->second;
}

RemoteClusterIndex::ReplicaCounters RemoteClusterIndex::replica_counters()
    const {
  ReplicaCounters counters;
  counters.hedges_fired = hedges_fired_.load(std::memory_order_relaxed);
  counters.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  counters.failovers = failovers_.load(std::memory_order_relaxed);
  counters.replica_errors = replica_errors_.load(std::memory_order_relaxed);
  return counters;
}

std::vector<size_t> RemoteClusterIndex::HealthOrder(size_t shard) const {
  const size_t n = shards_[shard].replicas.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n < 2) return order;
  // Score = smoothed latency plus an error-rate penalty priced at one
  // timeout (that is what a failed attempt costs the caller). A
  // never-sampled replica scores 0 and keeps its configured position —
  // fresh replicas get probed first, in deterministic order.
  std::vector<double> score(n);
  {
    ShardState& state = *shard_state_[shard];
    std::lock_guard<std::mutex> lock(state.mu);
    for (size_t r = 0; r < n; ++r) {
      const ReplicaHealth& h = state.health[r];
      score[r] = h.ewma_latency_us +
                 h.ewma_error * static_cast<double>(options_.timeout_ms) * 1e3;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&score](size_t a, size_t b) { return score[a] < score[b]; });
  return order;
}

int64_t RemoteClusterIndex::HedgeBudgetUs(size_t shard) const {
  if (!options_.hedge || shards_[shard].replicas.size() < 2) return -1;
  if (options_.hedge_budget_us > 0) return options_.hedge_budget_us;
  ShardState& state = *shard_state_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.window_count < options_.hedge_min_samples) return -1;
  std::array<uint32_t, 64> window = state.window_us;
  const size_t count = state.window_count;
  const double q = std::clamp(options_.hedge_quantile, 0.0, 1.0);
  const size_t k = static_cast<size_t>(q * static_cast<double>(count - 1));
  std::nth_element(window.begin(), window.begin() + k, window.begin() + count);
  return std::max<int64_t>(window[k], options_.hedge_budget_floor_us);
}

void RemoteClusterIndex::RecordCallOutcome(size_t shard, size_t replica,
                                           bool ok, double elapsed_us) const {
  if (!ok) replica_errors_.fetch_add(1, std::memory_order_relaxed);
  ShardState& state = *shard_state_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  ReplicaHealth& h = state.health[replica];
  const double a = options_.ewma_alpha;
  if (ok) {
    h.ewma_latency_us = h.ewma_latency_us <= 0
                            ? elapsed_us
                            : (1 - a) * h.ewma_latency_us + a * elapsed_us;
  }
  h.ewma_error =
      h.samples == 0 ? (ok ? 0.0 : 1.0)
                     : (1 - a) * h.ewma_error + a * (ok ? 0.0 : 1.0);
  h.samples += 1;
}

void RemoteClusterIndex::RecordExchangeLatency(size_t shard,
                                               double elapsed_us) const {
  const uint32_t clamped = static_cast<uint32_t>(
      std::min(elapsed_us, 4e9));
  ShardState& state = *shard_state_[shard];
  std::lock_guard<std::mutex> lock(state.mu);
  state.window_us[state.window_next] = clamped;
  state.window_next = (state.window_next + 1) % state.window_us.size();
  state.window_count = std::min(state.window_count + 1, state.window_us.size());
}

void RemoteClusterIndex::StartAsyncAttempt(
    size_t shard, size_t replica,
    std::shared_ptr<const std::vector<uint8_t>> frame, size_t call,
    bool is_hedge, std::shared_ptr<Completions> channel) const {
  const Deadline deadline = Deadline::After(options_.timeout_ms);
  shard_state_[shard]->lanes[replica]->Post(
      [this, shard, replica, frame = std::move(frame), call, is_hedge,
       channel = std::move(channel), deadline] {
        // A loser whose call took another answer: nobody waits for it.
        if (channel->answered[call].load(std::memory_order_acquire)) return;
        Completions::Done done{call, replica, is_hedge};
        if (deadline.Expired()) {
          // It spent its whole budget queued behind earlier calls: a
          // timeout the transport never has to see.
          done.attempt.frame =
              Status::DeadlineExceeded("attempt expired in the replica queue");
          RecordCallOutcome(shard, replica, false, options_.timeout_ms * 1e3);
        } else {
          Timer timer;
          done.sent = true;
          done.attempt = ClassifyResponse(
              shards_[shard].replicas[replica].transport->Call(*frame,
                                                               deadline));
          RecordCallOutcome(shard, replica, done.attempt.frame.ok(),
                            timer.ElapsedMillis() * 1e3);
        }
        channel->Push(std::move(done));
      });
}

Status RemoteClusterIndex::Connect() {
  // No mutation may land between a shard's handshake and the commit
  // below: its delta would be overwritten by the older table.
  std::vector<std::unique_lock<std::mutex>> write_locks;
  write_locks.reserve(shards_.size());
  for (const auto& state : shard_state_) {
    write_locks.emplace_back(state->write_mu);
  }
  // Phase 1, without the stats lock: run the handshake against every
  // replica and build the new aggregates locally — network I/O must
  // not stall concurrent queries holding shared stats locks.
  decltype(global_df_) new_global_df;
  int64_t new_collection_length = 0;
  std::vector<uint64_t> new_shard_docs(shards_.size(), 0);
  std::vector<uint64_t> new_shard_epochs(shards_.size(), 0);
  uint64_t new_total_docs = 0;
  uint64_t new_cluster_epoch = 0;
  bool new_stem = true;
  bool new_stop = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::vector<Shard>& replicas = shards_[i].replicas;
    StatsResponse adopted;
    for (size_t r = 0; r < replicas.size(); ++r) {
      // Per replica, no failover: Connect() is the deployment check
      // and every replica must answer for itself.
      StatsRequest request;
      request.node_id = replicas[r].node_id;
      Result<std::vector<uint8_t>> response =
          CallReplica(replicas[r], EncodeStatsRequest(request));
      if (!response.ok()) return response.status();
      MessageType type;
      const uint8_t* body = nullptr;
      size_t body_len = 0;
      DLS_RETURN_IF_ERROR(
          DecodeFrame(response.value(), &type, &body, &body_len));
      if (type != MessageType::kStatsResponse) {
        return Status::Corruption("stats handshake: unexpected frame type");
      }
      Result<StatsResponse> stats = DecodeStatsResponse(body, body_len);
      if (!stats.ok()) return stats.status();
      // Adopt the first shard's normalisation pipeline and hold every
      // other shard (and replica) to it: resolving queries through a
      // different stem/stop configuration than the shards indexed with
      // would silently break the remote/in-process bit-identity (and
      // recall).
      if (i == 0 && r == 0) {
        new_stem = stats.value().stem;
        new_stop = stats.value().stop;
      } else if (stats.value().stem != new_stem ||
                 stats.value().stop != new_stop) {
        return Status::InvalidArgument(StrFormat(
            "shard %zu replica %zu normalisation (stem=%d stop=%d) disagrees "
            "with shard 0 (stem=%d stop=%d); all shards must index with one "
            "pipeline",
            i, r, stats.value().stem ? 1 : 0, stats.value().stop ? 1 : 0,
            new_stem ? 1 : 0, new_stop ? 1 : 0));
      }
      if (r == 0) {
        adopted = std::move(stats).value();
        continue;
      }
      // Replicas of one shard must serve the same frozen node — that
      // identity is what makes failover/hedging exactness-safe, so the
      // cheap invariants are checked up front rather than trusted.
      if (stats.value().document_count != adopted.document_count ||
          stats.value().collection_length != adopted.collection_length ||
          stats.value().mutation_epoch != adopted.mutation_epoch) {
        return Status::InvalidArgument(StrFormat(
            "shard %zu replica %zu (docs=%llu len=%lld epoch=%llu) disagrees "
            "with replica 0 (docs=%llu len=%lld epoch=%llu); replicas must "
            "serve identical node content",
            i, r,
            static_cast<unsigned long long>(stats.value().document_count),
            static_cast<long long>(stats.value().collection_length),
            static_cast<unsigned long long>(stats.value().mutation_epoch),
            static_cast<unsigned long long>(adopted.document_count),
            static_cast<long long>(adopted.collection_length),
            static_cast<unsigned long long>(adopted.mutation_epoch)));
      }
    }
    // Same aggregation as ClusterIndex::Finalize(): integer sums over
    // one replica per shard, so the resulting global df relation is
    // identical to the in-process one whatever the shard order.
    new_collection_length += adopted.collection_length;
    new_shard_docs[i] = adopted.document_count;
    new_shard_epochs[i] = adopted.mutation_epoch;
    new_total_docs += adopted.document_count;
    new_cluster_epoch += adopted.mutation_epoch;
    for (const auto& [term, df] : adopted.term_dfs) {
      new_global_df[term] += df;
    }
  }
  // Phase 2: commit the new aggregates atomically with respect to the
  // readers — a query resolves against either the old or the new
  // handshake, never a mix.
  std::unique_lock<std::shared_mutex> lock(stats_mu_);
  global_df_ = std::move(new_global_df);
  collection_length_ = new_collection_length;
  shard_docs_ = std::move(new_shard_docs);
  shard_epochs_ = std::move(new_shard_epochs);
  total_docs_ = new_total_docs;
  cluster_epoch_ = new_cluster_epoch;
  norm_stem_ = new_stem;
  norm_stop_ = new_stop;
  connected_ = true;
  return Status::Ok();
}

size_t RemoteClusterIndex::ShardForUrl(std::string_view url) const {
  // FNV-1a, 64-bit: stable across runs and processes, so a document's
  // insert and delete always route to the same shard.
  uint64_t h = 14695981039346656037ull;
  for (const char c : url) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % shards_.size());
}

Result<std::vector<uint8_t>> RemoteClusterIndex::CallReplica(
    const Shard& replica, const std::vector<uint8_t>& frame) const {
  Result<std::vector<uint8_t>> response =
      Status::Unavailable("no attempts made");
  for (int attempt = 0; attempt <= options_.retries; ++attempt) {
    Attempt a = ClassifyResponse(
        replica.transport->Call(frame, Deadline::After(options_.timeout_ms)));
    response = std::move(a.frame);
    if (response.ok()) break;
  }
  return response;
}

template <typename Response, typename Identity>
Status RemoteClusterIndex::AcceptAck(
    size_t shard, size_t replica, const char* what,
    Result<std::vector<uint8_t>> answer, MessageType want,
    Result<Response> (*decode)(const uint8_t*, size_t),
    const Identity& identity, std::optional<Response>* first) const {
  DLS_ASSIGN_OR_RETURN(const std::vector<uint8_t> frame, std::move(answer));
  MessageType type;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
  DLS_RETURN_IF_ERROR(DecodeFrame(frame, &type, &body, &body_len));
  if (type != want) {
    return Status::Corruption(
        StrFormat("%s: unexpected response frame type", what));
  }
  DLS_ASSIGN_OR_RETURN(Response response, decode(body, body_len));
  if (!first->has_value()) {
    *first = std::move(response);
    return Status::Ok();
  }
  const auto [want_key, want_epoch] = identity(**first);
  const auto [got_key, got_epoch] = identity(response);
  if (got_key != want_key || got_epoch != want_epoch) {
    return Status::Internal(StrFormat(
        "shard %zu replica %zu diverged on %s (%llu, epoch %llu vs %llu, "
        "epoch %llu); replicas no longer serve identical content",
        shard, replica, what, static_cast<unsigned long long>(got_key),
        static_cast<unsigned long long>(got_epoch),
        static_cast<unsigned long long>(want_key),
        static_cast<unsigned long long>(want_epoch)));
  }
  return Status::Ok();
}

template <typename Response, typename Encode, typename Identity>
Status RemoteClusterIndex::MutateReplicas(
    size_t shard, const char* what, const Encode& encode, MessageType want,
    Result<Response> (*decode)(const uint8_t*, size_t),
    const Identity& identity, std::optional<Response>* first) const {
  const std::vector<Shard>& replicas = shards_[shard].replicas;
  for (size_t r = 0; r < replicas.size(); ++r) {
    DLS_ASSIGN_OR_RETURN(const std::vector<uint8_t> frame,
                         encode(replicas[r].node_id));
    // Sent once: a resend of a write the node applied before its answer
    // was lost would report AlreadyExists or found=false instead.
    Attempt attempt = ClassifyResponse(replicas[r].transport->Call(
        frame, Deadline::After(options_.timeout_ms)));
    if (!attempt.frame.ok() && !attempt.refused) {
      return Status::Unavailable(StrFormat(
          "shard %zu replica %zu: the answer to %s was lost (%s); the node "
          "may have applied it, so run Connect() again to resynchronise the "
          "statistics",
          shard, r, what, attempt.frame.status().message().c_str()));
    }
    DLS_RETURN_IF_ERROR(AcceptAck(shard, r, what, std::move(attempt.frame),
                                  want, decode, identity, first));
  }
  return Status::Ok();
}

Status RemoteClusterIndex::ApplyDelta(size_t shard, uint64_t epoch, int docs,
                                      int64_t length,
                                      const std::vector<std::string>& stems) {
  std::unique_lock<std::shared_mutex> lock(stats_mu_);
  if (docs < 0) {
    // Check the whole delete before changing anything: a stem the
    // vocabulary lacks (its df would go below 0), or more documents or
    // length than the shard holds, means node and coordinator disagree.
    if (shard_docs_[shard] == 0 || length > collection_length_) {
      return Status::Corruption(StrFormat(
          "delete delta on shard %zu removes more than the statistics hold",
          shard));
    }
    for (const std::string& stem : stems) {
      if (global_df_.find(stem) == global_df_.end()) {
        return Status::Corruption(StrFormat(
            "delete delta on shard %zu names stem '%s' outside the global "
            "vocabulary",
            shard, stem.c_str()));
      }
    }
  }
  // Exactly the table a fresh handshake would build: a new stem enters
  // at df 1, a stem whose df reaches 0 leaves.
  for (const std::string& stem : stems) {
    if (docs > 0) {
      ++global_df_[stem];
    } else if (docs < 0) {
      auto it = global_df_.find(stem);
      if (--it->second == 0) global_df_.erase(it);
    }
  }
  collection_length_ += docs * length;
  shard_docs_[shard] += static_cast<uint64_t>(static_cast<int64_t>(docs));
  total_docs_ += static_cast<uint64_t>(static_cast<int64_t>(docs));
  cluster_epoch_ += epoch - shard_epochs_[shard];
  shard_epochs_[shard] = epoch;
  return Status::Ok();
}

Result<uint64_t> RemoteClusterIndex::Insert(std::string_view url,
                                            std::string_view text) {
  const size_t shard = ShardForUrl(url);
  std::lock_guard<std::mutex> write_lock(shard_state_[shard]->write_mu);
  std::optional<InsertResponse> first;
  const Status status = MutateReplicas(
      shard, "insert",
      [&](uint32_t node_id) {
        return EncodeInsertRequest(
            InsertRequest{node_id, std::string(url), std::string(text)});
      },
      MessageType::kInsertResponse, &DecodeInsertResponse,
      [](const InsertResponse& r) { return std::pair(r.doc_id, r.epoch); },
      &first);
  if (!first.has_value()) return status;
  // The first acknowledging replica holds the document whether or not
  // a later one failed, so the statistics follow it either way.
  const Status applied =
      ApplyDelta(shard, first->epoch, +1, first->length, first->stems);
  DLS_RETURN_IF_ERROR(status);
  DLS_RETURN_IF_ERROR(applied);
  return first->doc_id;
}

Result<bool> RemoteClusterIndex::Delete(std::string_view url) {
  const size_t shard = ShardForUrl(url);
  std::lock_guard<std::mutex> write_lock(shard_state_[shard]->write_mu);
  std::optional<DeleteResponse> first;
  const Status status = MutateReplicas(
      shard, "delete",
      [&](uint32_t node_id) {
        return EncodeDeleteRequest(DeleteRequest{node_id, std::string(url)});
      },
      MessageType::kDeleteResponse, &DecodeDeleteResponse,
      [](const DeleteResponse& r) {
        return std::pair(uint64_t{r.found}, r.epoch);
      },
      &first);
  if (!first.has_value()) return status;
  const Status applied = ApplyDelta(shard, first->epoch, first->found ? -1 : 0,
                                    first->length, first->stems);
  DLS_RETURN_IF_ERROR(status);
  DLS_RETURN_IF_ERROR(applied);
  return first->found;
}

Status RemoteClusterIndex::MergeAll() {
  // The shards merge at once, each walking its replicas in order on
  // their lanes under its own write lock. The locks are taken in shard
  // order, as Connect() takes them, so the two cannot deadlock; each is
  // released as soon as its shard is done.
  const size_t count = shards_.size();
  auto channel = std::make_shared<Completions>(count);
  std::vector<std::unique_lock<std::mutex>> write_locks;
  write_locks.reserve(count);
  std::vector<size_t> replica(count, 0);
  std::vector<int> resends(count, 0);
  std::vector<std::optional<MergeResponse>> first(count);
  std::vector<Status> status(count, Status::Ok());
  auto send = [&](size_t i) {
    StartAsyncAttempt(i, replica[i],
                      std::make_shared<const std::vector<uint8_t>>(
                          EncodeMergeRequest(MergeRequest{
                              shards_[i].replicas[replica[i]].node_id})),
                      i, /*is_hedge=*/false, channel);
  };
  for (size_t i = 0; i < count; ++i) {
    write_locks.emplace_back(shard_state_[i]->write_mu);
    send(i);
  }
  for (size_t pending = count; pending > 0;) {
    for (Completions::Done& done : channel->Take(std::nullopt)) {
      const size_t i = done.call;
      // A merge is idempotent, so a failed one may be resent.
      if (!done.attempt.frame.ok() && resends[i] < options_.retries) {
        ++resends[i];
        send(i);
        continue;
      }
      resends[i] = 0;
      status[i] = AcceptAck(
          i, done.replica, "merge", std::move(done.attempt.frame),
          MessageType::kMergeResponse, &DecodeMergeResponse,
          [](const MergeResponse& r) { return std::pair(uint64_t{0}, r.epoch); },
          &first[i]);
      if (status[i].ok() && ++replica[i] < shards_[i].replicas.size()) {
        send(i);
        continue;
      }
      // A merge leaves the effective statistics unchanged by
      // construction: only the shard's epoch moves.
      if (first[i].has_value()) {
        const Status applied = ApplyDelta(i, first[i]->epoch, 0, 0, {});
        if (!applied.ok()) status[i] = applied;
      }
      write_locks[i].unlock();
      --pending;
    }
  }
  for (const Status& shard_status : status) {
    DLS_RETURN_IF_ERROR(shard_status);
  }
  return Status::Ok();
}

ir::ShardQuery RemoteClusterIndex::ResolveQuery(
    const std::vector<std::string>& query_words, size_t n,
    size_t max_fragments, const ir::RankOptions& options,
    double* idf_mass_total) const {
  // Identical resolution to ClusterIndex::Query: normalise, drop
  // duplicates, keep only stems of the global vocabulary. The
  // stem/stop flags come from the Connect() handshake, so this is the
  // same pipeline node 0's index->NormalizeWord applies in-process —
  // whatever configuration the shards were built with.
  ir::ShardQuery request;
  request.collection_length = collection_length_;
  request.n = n;
  request.max_fragments = max_fragments;
  request.options = options;
  *idf_mass_total = 0;
  for (const std::string& word : query_words) {
    std::optional<std::string> norm =
        ir::NormalizeWordAs(word, norm_stem_, norm_stop_);
    if (!norm) continue;
    if (std::find(request.stems.begin(), request.stems.end(), *norm) !=
        request.stems.end()) {
      continue;
    }
    auto it = global_df_.find(*norm);
    if (it == global_df_.end()) continue;
    request.stems.push_back(*norm);
    request.stem_global_df.push_back(it->second);
    *idf_mass_total += 1.0 / static_cast<double>(it->second);
  }
  return request;
}

void RemoteClusterIndex::FanOut(const std::vector<ir::ShardQuery>& queries,
                                size_t first, size_t last,
                                std::vector<ShardOutcome>* outcomes) const {
  // One shard's exchange: its attempt walk — replicas healthiest
  // first, the whole order repeated for each retry pass, so a single-
  // replica shard degenerates to the plain retry loop — and where the
  // walk stands.
  struct Call {
    /// One request frame per replica: replicas may address the node
    /// under different ids on different servers; replicas sharing an
    /// id share the encoding.
    std::vector<std::shared_ptr<const std::vector<uint8_t>>> frames;
    std::vector<size_t> walk;
    size_t next = 0;
    size_t outstanding = 0;
    /// -1 when hedging is not armed: a budget that never fires.
    int64_t budget_us = -1;
    /// When the lone outstanding attempt blows the budget, if a next
    /// replica is left to hedge to.
    std::optional<SteadyClock::time_point> hedge_at;
    Timer timer;
    std::optional<std::vector<uint8_t>> answer;
    bool finished = false;
  };
  const size_t count = last - first;
  auto channel = std::make_shared<Completions>(count);
  std::vector<Call> calls(count);

  auto launch = [&](size_t c, bool is_hedge) {
    Call& call = calls[c];
    const size_t replica = call.walk[call.next++];
    ShardOutcome& o = (*outcomes)[first + c];
    o.messages += 1;
    o.bytes += call.frames[replica]->size();
    ++call.outstanding;
    StartAsyncAttempt(first + c, replica, call.frames[replica], c, is_hedge,
                      channel);
  };
  // The budget runs from the latest event while one attempt is out; a
  // second attempt out, or an exhausted walk, leaves nothing to fire.
  auto arm = [](Call& call) {
    if (call.budget_us >= 0 && call.outstanding == 1 &&
        call.next < call.walk.size()) {
      call.hedge_at =
          SteadyClock::now() + std::chrono::microseconds(call.budget_us);
    } else {
      call.hedge_at.reset();
    }
  };

  size_t pending = 0;
  for (size_t c = 0; c < count; ++c) {
    const size_t shard = first + c;
    Call& call = calls[c];
    const std::vector<Shard>& replicas = shards_[shard].replicas;
    call.frames.resize(replicas.size());
    for (size_t r = 0; r < replicas.size(); ++r) {
      for (size_t prev = 0; prev < r && !call.frames[r]; ++prev) {
        if (replicas[prev].node_id == replicas[r].node_id) {
          call.frames[r] = call.frames[prev];
        }
      }
      if (call.frames[r]) continue;
      QueryRequest request;
      request.node_id = replicas[r].node_id;
      request.queries = queries;
      Result<std::vector<uint8_t>> encoded = EncodeQueryRequest(request);
      // A batch too large for one frame never reaches the wire; the
      // shard counts as lost (every shard fails identically, so the
      // query comes back empty with predicted_quality 0 rather than
      // half-shipped).
      if (!encoded.ok()) {
        call.finished = true;
        break;
      }
      call.frames[r] = std::make_shared<const std::vector<uint8_t>>(
          std::move(encoded).value());
    }
    if (call.finished) continue;
    const std::vector<size_t> order = HealthOrder(shard);
    for (int pass = 0; pass <= options_.retries; ++pass) {
      call.walk.insert(call.walk.end(), order.begin(), order.end());
    }
    call.budget_us = HedgeBudgetUs(shard);
    call.timer.Reset();
    launch(c, /*is_hedge=*/false);
    arm(call);
    ++pending;
  }

  while (pending > 0) {
    std::optional<SteadyClock::time_point> wake;
    for (const Call& call : calls) {
      if (!call.finished && call.hedge_at.has_value() &&
          (!wake.has_value() || *call.hedge_at < *wake)) {
        wake = call.hedge_at;
      }
    }
    std::vector<Completions::Done> completed = channel->Take(wake);
    if (completed.empty()) {
      // Budgets blown: hedge each such shard to the next replica in
      // its walk, without cancelling the attempt already out.
      const SteadyClock::time_point now = SteadyClock::now();
      for (size_t c = 0; c < count; ++c) {
        Call& call = calls[c];
        if (call.finished || !call.hedge_at.has_value() ||
            *call.hedge_at > now) {
          continue;
        }
        launch(c, /*is_hedge=*/true);
        (*outcomes)[first + c].hedges_fired += 1;
        hedges_fired_.fetch_add(1, std::memory_order_relaxed);
        arm(call);
      }
      continue;
    }
    for (Completions::Done& done : completed) {
      Call& call = calls[done.call];
      if (call.finished) continue;  // a loser after the winner: unread
      const size_t shard = first + done.call;
      ShardOutcome& o = (*outcomes)[shard];
      --call.outstanding;
      if (!done.sent) {
        o.messages -= 1;
        o.bytes -= call.frames[done.replica]->size();
      }
      if (done.attempt.bytes > 0) {
        o.messages += 1;
        o.bytes += done.attempt.bytes;
      }
      if (done.attempt.frame.ok()) {
        if (done.is_hedge) {
          o.hedge_wins += 1;
          hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        }
        RecordExchangeLatency(shard, call.timer.ElapsedMillis() * 1e3);
        channel->answered[done.call].store(true, std::memory_order_release);
        call.answer = std::move(done.attempt.frame).value();
        call.finished = true;
        --pending;
        continue;
      }
      if (call.next < call.walk.size() && call.outstanding < 2) {
        if (call.walk[call.next] != done.replica) {
          o.failovers += 1;
          failovers_.fetch_add(1, std::memory_order_relaxed);
        }
        launch(done.call, /*is_hedge=*/false);
      } else if (call.outstanding == 0) {
        call.finished = true;  // walk exhausted, every attempt failed
        --pending;
      }
      arm(call);
    }
  }

  for (size_t c = 0; c < count; ++c) {
    if (!calls[c].answer.has_value()) continue;  // shard lost: stays !alive
    MessageType type;
    const uint8_t* body = nullptr;
    size_t body_len = 0;
    if (!DecodeFrame(*calls[c].answer, &type, &body, &body_len).ok()) continue;
    if (type != MessageType::kQueryResponse) continue;  // junk frame type
    Result<QueryResponse> response = DecodeQueryResponse(body, body_len);
    if (!response.ok()) continue;
    // A response that doesn't answer the batch is as lost as no
    // response: partial merges would silently drop documents.
    if (response.value().results.size() != queries.size()) continue;
    ShardOutcome& o = (*outcomes)[first + c];
    o.results = std::move(response.value().results);
    o.alive = true;
  }
}

/// The quality estimate multiplies the idf-mass a-priori estimate
/// (first responding shard's cut-off mask, as in-process uses node
/// 0's) by the surviving document share — losing a node loses its
/// share of the collection.
void RemoteClusterIndex::AggregateStats(
    const std::vector<ir::ShardQuery>& queries,
    const std::vector<double>& idf_mass_totals,
    const std::vector<ShardOutcome>& outcomes,
    const std::vector<uint64_t>& shard_docs, uint64_t total_docs,
    ir::ClusterQueryStats* stats,
    std::vector<ir::ClusterQueryStats>* per_query) const {
  if (per_query != nullptr) {
    per_query->assign(queries.size(), ir::ClusterQueryStats());
  }
  uint64_t alive_docs = 0;
  const ShardOutcome* first_alive = nullptr;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const ShardOutcome& o = outcomes[i];
    stats->messages += o.messages;
    stats->bytes_shipped += o.bytes;
    stats->hedges_fired += o.hedges_fired;
    stats->hedge_wins += o.hedge_wins;
    stats->failovers += o.failovers;
    if (!o.alive) continue;
    if (first_alive == nullptr) first_alive = &o;
    alive_docs += shard_docs[i];
    double shard_elapsed = 0;
    for (size_t q = 0; q < o.results.size(); ++q) {
      const ir::ShardResult& r = o.results[q];
      stats->postings_touched_total += r.postings_touched;
      stats->postings_touched_max_node =
          std::max(stats->postings_touched_max_node,
                   static_cast<size_t>(r.postings_touched));
      stats->blocks_skipped += r.blocks_skipped;
      stats->blocks_decoded += r.blocks_decoded;
      stats->pivot_iterations += r.pivot_iterations;
      stats->cursor_advances += r.cursor_advances;
      shard_elapsed += r.elapsed_us;
      if (per_query != nullptr) {
        // Per-rider attribution: each query's own work counters and
        // its own critical path (slowest node *for this query*). Wire
        // traffic and routing events stay exchange-level — a batch
        // ships one frame, there is no per-rider share of it.
        ir::ClusterQueryStats& pq = (*per_query)[q];
        pq.postings_touched_total += r.postings_touched;
        pq.postings_touched_max_node =
            std::max(pq.postings_touched_max_node,
                     static_cast<size_t>(r.postings_touched));
        pq.blocks_skipped += r.blocks_skipped;
        pq.blocks_decoded += r.blocks_decoded;
        pq.pivot_iterations += r.pivot_iterations;
        pq.cursor_advances += r.cursor_advances;
        pq.critical_path_us = std::max(pq.critical_path_us, r.elapsed_us);
        pq.total_cpu_us += r.elapsed_us;
      }
    }
    stats->critical_path_us = std::max(stats->critical_path_us, shard_elapsed);
    stats->total_cpu_us += shard_elapsed;
  }

  const double alive_share =
      total_docs > 0
          ? static_cast<double>(alive_docs) / static_cast<double>(total_docs)
          : 1.0;
  double idf_total = 0, idf_read = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    idf_total += idf_mass_totals[q];
    double idf_read_q = 0;
    if (first_alive != nullptr) {
      const std::vector<bool>& mask = first_alive->results[q].stem_evaluated;
      for (size_t s = 0; s < queries[q].stems.size(); ++s) {
        if (s < mask.size() && mask[s]) {
          idf_read_q += 1.0 / static_cast<double>(queries[q].stem_global_df[s]);
        }
      }
    }
    idf_read += idf_read_q;
    if (per_query != nullptr) {
      const double quality_q =
          idf_mass_totals[q] > 0 ? idf_read_q / idf_mass_totals[q] : 1.0;
      (*per_query)[q].predicted_quality = quality_q * alive_share;
    }
  }
  const double idf_quality = idf_total > 0 ? idf_read / idf_total : 1.0;
  stats->predicted_quality = idf_quality * alive_share;
}

std::vector<ir::ClusterScoredDoc> RemoteClusterIndex::Query(
    const std::vector<std::string>& query_words, size_t n,
    size_t max_fragments, ir::ClusterQueryStats* stats,
    const ir::RankOptions& options) const {
  assert(connected_ && "call Connect() before Query()");
  // Resolution and the document counts come from one view of the
  // statistics; the shared lock is released before the fan-out, so an
  // acknowledged mutation's delta never waits behind in-flight queries.
  double idf_mass_total = 0;
  ir::ShardQuery base;
  std::vector<uint64_t> shard_docs;
  uint64_t total_docs = 0;
  {
    std::shared_lock<std::shared_mutex> stats_lock(stats_mu_);
    base =
        ResolveQuery(query_words, n, max_fragments, options, &idf_mass_total);
    shard_docs = shard_docs_;
    total_docs = total_docs_;
  }

  std::vector<ShardOutcome> outcomes(shards_.size());
  if (options.prune && n > 0 && (!parallel_ || shards_.size() <= 1)) {
    // Sequential threshold feedback, as in-process: push the running
    // global n-th best score to later shards. Exact either way — only
    // the work stats differ from the parallel fan-out.
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        best;
    ir::ShardQuery request = base;
    for (size_t i = 0; i < shards_.size(); ++i) {
      FanOut({request}, i, i + 1, &outcomes);
      if (!outcomes[i].alive) continue;
      for (const ir::ClusterScoredDoc& d : outcomes[i].results[0].top) {
        if (best.size() < n) {
          best.push(d.score);
        } else if (d.score > best.top()) {
          best.pop();
          best.push(d.score);
        }
      }
      if (best.size() == n) request.threshold = best.top();
    }
  } else {
    FanOut({base}, 0, shards_.size(), &outcomes);
  }

  ir::ClusterQueryStats local_stats;
  AggregateStats({base}, {idf_mass_total}, outcomes, shard_docs, total_docs,
                 &local_stats, /*per_query=*/nullptr);

  // Lost shards contribute an empty ShardResult — the merge just never
  // draws from them.
  std::vector<ir::ShardResult> responses(shards_.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].alive) responses[i] = std::move(outcomes[i].results[0]);
  }
  std::vector<ir::ClusterScoredDoc> merged =
      ir::MergeShardResults(&responses, n);
  if (stats != nullptr) *stats = local_stats;
  return merged;
}

std::vector<std::vector<ir::ClusterScoredDoc>> RemoteClusterIndex::QueryBatch(
    const std::vector<std::vector<std::string>>& queries, size_t n,
    size_t max_fragments, ir::ClusterQueryStats* stats,
    const ir::RankOptions& options,
    std::vector<ir::ClusterQueryStats>* per_query_stats) const {
  assert(connected_ && "call Connect() before QueryBatch()");
  std::vector<ir::ShardQuery> requests;
  std::vector<double> idf_mass_totals;
  std::vector<uint64_t> shard_docs;
  uint64_t total_docs = 0;
  requests.reserve(queries.size());
  idf_mass_totals.reserve(queries.size());
  {
    // As in Query(): one view for the whole batch, released before the
    // fan-out.
    std::shared_lock<std::shared_mutex> stats_lock(stats_mu_);
    for (const std::vector<std::string>& words : queries) {
      double idf_mass_total = 0;
      requests.push_back(
          ResolveQuery(words, n, max_fragments, options, &idf_mass_total));
      idf_mass_totals.push_back(idf_mass_total);
    }
    shard_docs = shard_docs_;
    total_docs = total_docs_;
  }

  std::vector<ShardOutcome> outcomes(shards_.size());
  FanOut(requests, 0, shards_.size(), &outcomes);

  ir::ClusterQueryStats local_stats;
  AggregateStats(requests, idf_mass_totals, outcomes, shard_docs, total_docs,
                 &local_stats, per_query_stats);

  std::vector<std::vector<ir::ClusterScoredDoc>> merged;
  merged.reserve(queries.size());
  for (size_t q = 0; q < requests.size(); ++q) {
    std::vector<ir::ShardResult> responses(shards_.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].alive) {
        responses[i] = std::move(outcomes[i].results[q]);
      }
    }
    merged.push_back(ir::MergeShardResults(&responses, n));
  }
  if (stats != nullptr) *stats = local_stats;
  return merged;
}

}  // namespace dls::net
