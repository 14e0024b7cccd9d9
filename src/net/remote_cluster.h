#ifndef DLS_NET_REMOTE_CLUSTER_H_
#define DLS_NET_REMOTE_CLUSTER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "ir/cluster.h"
#include "ir/index.h"
#include "net/transport.h"
#include "net/wire.h"

namespace dls::net {

/// The central server of the distributed index, speaking the shard RPC
/// protocol: the out-of-process mirror of ir::ClusterIndex::Query.
///
/// Each shard is a *replica set*: one or more (Transport, node_id)
/// addresses serving byte-identical copies of the same node — one
/// TcpTransport per remote process, or LoopbackTransports onto an
/// in-process ShardServer for deterministic tests. Connect() runs the
/// stats handshake against every replica (all must be reachable and
/// agree — a cluster that *starts* degraded or inconsistent is a
/// deployment error) and aggregates every shard's (term, df) table
/// into the global vocabulary, after which Query() resolves, fans out,
/// and k-way merges exactly like the in-process path — both sides
/// share ir::EvaluateShardQuery and ir::MergeShardResults, and the
/// wire round-trips scores bit-exactly, so a healthy cluster returns
/// bit-identical rankings remote and in-process
/// (tests/net/remote_cluster_test.cc holds it to that).
///
/// Replica routing: every shard call walks the shard's replicas in
/// health order — ascending EWMA latency, penalised by EWMA error rate
/// — and the whole walk repeats Options::retries extra times, so a
/// single-replica shard degenerates to the old timeout+retry loop. A
/// failed attempt (transport error, undecodable frame, or an Error
/// frame from the peer) *fails over* to the next replica in the walk.
/// Because rankings are bit-identical across replicas, failover and
/// hedging cannot change an answer — only whether one arrives, and how
/// fast.
///
/// Hedging: once a shard's latency window is primed, an attempt that
/// outlives the rolling p95 budget fires the next replica in the walk
/// without cancelling the first; the first well-formed answer wins and
/// the loser is ignored (its late completion only updates replica
/// health). At most two attempts are in flight per call.
///
/// Attempt lanes: every replica has one lane, a thread started by the
/// constructor that runs that replica's attempts one at a time in
/// queue order (a TcpTransport serialises its calls anyway). A fan-out
/// queues each shard's attempt on its lane from the calling thread and
/// then runs every shard's hedge budget and failover walk in one loop
/// over a shared completion channel, so a query starts no thread and
/// wakes only the lanes it uses. An attempt's deadline starts when it
/// is queued; a lane drops an attempt whose deadline has passed, or
/// whose call is already answered, without touching the transport. The
/// destructor lets the lanes drain (a loser still on the wire finishes
/// first) and joins them, so no attempt outlives the index.
///
/// Failure semantics: every attempt gets Options::timeout_ms from the
/// moment it is queued (a fresh attempt reconnects a poisoned
/// TcpTransport connection), and a shard
/// whose walk is exhausted is dropped from the query: the merge
/// proceeds over the surviving nodes and
/// ClusterQueryStats.predicted_quality is scaled by the surviving
/// document share — graceful degradation instead of a failed query.
/// Shard document counts come from the Connect() handshake and are
/// kept current by the statistics deltas of routed mutations.
///
/// ClusterQueryStats.messages / bytes_shipped report the *actual
/// encoded frames*: one message and its byte size per request frame
/// handed to a transport (retries and hedges included) and per
/// response frame received — identical accounting on loopback and TCP.
/// A hedge loser is charged its request when it is queued, and its
/// response, landing after the winner was taken, is not counted
/// (nobody read it).
///
/// Thread-safety: after Connect(), concurrent Query()/QueryBatch()
/// calls are safe (lanes and transports serialise internally; result
/// slots are per-call; health state is internally locked), also
/// alongside Insert()/Delete()/MergeAll().
class RemoteClusterIndex {
 public:
  /// One remote replica: which transport to dial and which node id it
  /// is on its server (a ShardServer can host several). Transports are
  /// non-owning.
  struct Shard {
    Transport* transport = nullptr;
    uint32_t node_id = 0;
  };

  /// One shard's replica set. Every replica must serve the same frozen
  /// node content (same documents, same index options) — that is what
  /// makes failover and hedging exactness-safe; Connect() cross-checks
  /// the replicas' advertised statistics against each other.
  struct ReplicaSet {
    std::vector<Shard> replicas;
  };

  struct Options {
    int timeout_ms = 1000;  ///< per-attempt deadline
    /// Extra passes over the health-ordered replica walk after the
    /// first all fails; with one replica this is exactly the old
    /// per-shard retry count.
    int retries = 1;

    // ---- hedging ---------------------------------------------------
    /// Master switch for tail-latency hedging (failover is always on).
    bool hedge = true;
    /// The budget tracks this quantile of the shard's rolling window
    /// of successful call latencies.
    double hedge_quantile = 0.95;
    /// Window samples required before the rolling budget arms — until
    /// then nothing hedges, keeping cold-start behaviour (and the
    /// message accounting of deterministic tests) identical to the
    /// pre-replica code.
    size_t hedge_min_samples = 32;
    /// The budget never drops below this, so micro-benchmark-fast
    /// shards don't hedge on scheduler noise.
    int64_t hedge_budget_floor_us = 200;
    /// Fixed budget override in µs (0 = rolling p95). Tests use this
    /// to make hedges fire deterministically without priming.
    int64_t hedge_budget_us = 0;

    // ---- health model ----------------------------------------------
    /// EWMA smoothing for per-replica latency and error rate.
    double ewma_alpha = 0.2;
  };

  /// Cumulative routing counters since construction (relaxed reads —
  /// monitoring, not synchronisation).
  struct ReplicaCounters {
    uint64_t hedges_fired = 0;   ///< attempts launched past the budget
    uint64_t hedge_wins = 0;     ///< hedged attempts that answered first
    uint64_t failovers = 0;      ///< failures moved to another replica
    uint64_t replica_errors = 0; ///< failed attempts, all causes
  };

  /// Single-replica convenience: each Shard becomes a one-replica set.
  explicit RemoteClusterIndex(std::vector<Shard> shards);
  RemoteClusterIndex(std::vector<Shard> shards, Options options);
  RemoteClusterIndex(std::vector<ReplicaSet> shards, Options options);
  /// Drains and joins the attempt lanes (in-flight hedge losers
  /// finish first).
  ~RemoteClusterIndex();

  /// Stats handshake: fetches every replica's local statistics,
  /// aggregates the global df table, collection length and per-shard
  /// document counts, and holds each shard's replicas to identical
  /// document counts / collection lengths / epochs. The only sender
  /// of StatsRequest frames: afterwards the statistics follow routed
  /// mutations through the deltas in their acknowledgements, and a
  /// re-Connect() re-synchronises them from scratch (it waits for
  /// in-flight mutations and holds new ones off). Also adopts the
  /// shards' advertised normalisation configuration (stem/stop) for
  /// query resolution, and fails with kInvalidArgument if the shards
  /// disagree among themselves — a mixed-pipeline cluster would
  /// silently resolve different stems than its nodes indexed. Fails if
  /// any replica is unreachable — a cluster that starts degraded is a
  /// deployment error, unlike one that degrades under load.
  Status Connect();

  /// Queries exchange with every shard at once. Until this is called,
  /// a pruned Query() visits the shards one after another and pushes
  /// the running n-th best score to later shards, as the sequential
  /// ClusterIndex does; other exchanges always run at once. The lanes
  /// do the concurrent work, so `num_threads` (kept for signature parity
  /// with ClusterIndex) starts nothing.
  void EnableParallelism(size_t num_threads);

  size_t num_shards() const { return shards_.size(); }
  size_t num_replicas(size_t shard) const {
    return shards_[shard].replicas.size();
  }
  uint64_t document_count() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return total_docs_;
  }
  int64_t global_collection_length() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return collection_length_;
  }
  /// Cluster-wide mutation epoch: the sum over shards of the latest
  /// epoch the coordinator observed — at handshake time, then in each
  /// routed mutation's acknowledgement. The remote mirror of
  /// ClusterIndex::mutation_epoch(), and the serving layer's cache
  /// invalidation key: it moves in the same unique-lock section as the
  /// statistics a mutation changed. A node's background merges do not
  /// bump it until the next routed mutation or Connect() observes
  /// them, which is exact because a merge changes no ranking. A shard
  /// reindexed behind the coordinator's back is observed by re-running
  /// Connect().
  uint64_t cluster_epoch() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return cluster_epoch_;
  }
  /// Normalisation pipeline adopted from the handshake; the serving
  /// layer normalises cache keys through the identical pipeline.
  bool norm_stem() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return norm_stem_;
  }
  bool norm_stop() const {
    std::shared_lock<std::shared_mutex> lock(stats_mu_);
    return norm_stop_;
  }
  /// Collection-wide df of a stem (0 when absent). Valid after
  /// Connect().
  int32_t global_df(std::string_view stem) const;

  ReplicaCounters replica_counters() const;

  // ---- live ingestion routing ---------------------------------------
  // When the shards host live nodes (ShardServer::AddLiveNode), the
  // centre routes mutations to the shard that owns the url — a stable
  // FNV-1a hash of the url modulo the shard count, so a document's
  // insert and delete always land on the same node — and applies each
  // mutation on EVERY replica of that shard, holding their returned
  // epochs (and assigned ids) to agreement: replicas stay bit-identical
  // copies, which is what keeps failover and hedging exactness-safe.
  // Mutations are never hedged or failed over (they are not idempotent;
  // a replica that cannot be reached leaves the set diverged and the
  // call reports it). Insert and Delete frames are never resent either:
  // when an answer is lost (a transport error or an undecodable frame)
  // the node may have applied the write, so the call fails with
  // kUnavailable and the statistics stay behind that node until
  // Connect() runs again. Mutations of one shard are serialised, so its
  // replicas apply them in one order.
  //
  // Every Insert/Delete acknowledgement carries the mutation's
  // statistics delta (the published epoch, the document's distinct
  // stems and its length). Before the call returns, the first
  // acknowledging replica's delta is applied to the global df table,
  // collection length, document counts and epoch under the unique
  // stats lock — also when a later replica then fails, since the first
  // one holds the change. So a query issued after the acknowledgement
  // is bit-identical to a from-scratch rebuild at the cluster's
  // current epoch, with no stats exchange on the query path. A delete
  // delta that the global statistics cannot absorb (a stem missing
  // from the vocabulary, more documents or length than the shard
  // holds) is refused as kCorruption with no part of it applied.

  /// The shard owning `url` under the mutation routing hash.
  size_t ShardForUrl(std::string_view url) const;

  /// Inserts (url, text) on every replica of the owning shard; returns
  /// the assigned global document id (identical across replicas).
  Result<uint64_t> Insert(std::string_view url, std::string_view text);

  /// Tombstones the live document named `url` on every replica of the
  /// owning shard. Returns whether a live document was found.
  Result<bool> Delete(std::string_view url);

  /// Asks every replica of every shard to pack its delta tier into a
  /// frozen run. The shards merge at once, each under its own write
  /// lock and over its replicas in order; the first error is returned
  /// after every shard has finished, and every acknowledged epoch is
  /// applied. The merge frames ride the replicas' attempt lanes, so
  /// their latency and failures feed replica health like query
  /// attempts. Queries keep serving off pinned snapshots throughout.
  /// Only the shard epochs move: a merge leaves the effective
  /// statistics unchanged by construction.
  Status MergeAll();

  /// Distributed top-N with per-node fragment cut-off; mirrors
  /// ClusterIndex::Query (same arguments, same semantics, same
  /// deterministic merge order).
  std::vector<ir::ClusterScoredDoc> Query(
      const std::vector<std::string>& query_words, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats = nullptr,
      const ir::RankOptions& options = {}) const;

  /// Batched execution: ships the whole batch in ONE request frame per
  /// shard and gets one response frame back, amortising a round-trip
  /// per node per query down to one per node. Results are per query,
  /// in input order, each identical to what Query() on that query
  /// returns; `stats`, when given, aggregates over the batch, and
  /// `per_query_stats`, when given, is filled with one entry per query
  /// attributing that rider's own work, latency and quality (wire
  /// traffic and routing events are exchange-level and stay in the
  /// aggregate).
  std::vector<std::vector<ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, ir::ClusterQueryStats* stats = nullptr,
      const ir::RankOptions& options = {},
      std::vector<ir::ClusterQueryStats>* per_query_stats = nullptr) const;

 private:
  /// Per-shard outcome of one fan-out, with measured wire traffic and
  /// routing events.
  struct ShardOutcome {
    std::vector<ir::ShardResult> results;  // one per query in the batch
    bool alive = false;
    size_t messages = 0;
    size_t bytes = 0;
    size_t hedges_fired = 0;
    size_t hedge_wins = 0;
    size_t failovers = 0;
  };

  /// Per-replica health, EWMA-smoothed; guarded by ShardState::mu.
  struct ReplicaHealth {
    double ewma_latency_us = 0;  ///< successful-call latency (0 = none yet)
    double ewma_error = 0;       ///< failure indicator in [0, 1]
    uint64_t samples = 0;
  };

  /// One replica's attempt lane (defined in the .cc).
  class Lane;

  /// Mutable routing state of one shard.
  struct ShardState {
    ~ShardState();  // out of line: Lane is complete only in the .cc
    /// Serialises the mutations routed to this shard (and Connect()),
    /// so replicas apply them in one order and their deltas reach the
    /// statistics in the shard's epoch order.
    std::mutex write_mu;
    mutable std::mutex mu;
    std::vector<ReplicaHealth> health;
    /// Rolling window of end-to-end successful exchange latencies (the
    /// winner's time, so hedges keep the budget honest instead of a
    /// slow replica inflating it); source of the hedge budget.
    std::array<uint32_t, 64> window_us{};
    size_t window_count = 0;
    size_t window_next = 0;
    /// One attempt lane per replica, started with the index.
    std::vector<std::unique_ptr<Lane>> lanes;
  };

  /// Completion channel between a caller and the attempts it queued.
  struct Completions;

  /// One non-hedged, non-failover exchange with a specific replica
  /// (the handshake must hit every replica, not any one of them);
  /// retries the same replica Options::retries times, which is safe
  /// because a StatsRequest changes nothing.
  Result<std::vector<uint8_t>> CallReplica(
      const Shard& replica, const std::vector<uint8_t>& frame) const;

  /// Checks one replica's answer to a mutation (`what`, for messages):
  /// decodes it as a `want` frame and holds its identity(answer) —
  /// (id or found, epoch) — to the first answer's, which `first` keeps.
  template <typename Response, typename Identity>
  Status AcceptAck(size_t shard, size_t replica, const char* what,
                   Result<std::vector<uint8_t>> answer, MessageType want,
                   Result<Response> (*decode)(const uint8_t*, size_t),
                   const Identity& identity,
                   std::optional<Response>* first) const;

  /// Sends one Insert or Delete (`what`) to every replica of `shard` in
  /// order, once each, and checks every answer with AcceptAck. Stops at
  /// the first failure and returns it; `first` keeps the first
  /// acknowledgement either way. Caller holds the shard's write_mu.
  template <typename Response, typename Encode, typename Identity>
  Status MutateReplicas(size_t shard, const char* what, const Encode& encode,
                        MessageType want,
                        Result<Response> (*decode)(const uint8_t*, size_t),
                        const Identity& identity,
                        std::optional<Response>* first) const;

  /// Folds one acknowledged mutation into the global statistics under
  /// the unique stats lock: `docs` is +1 (insert), -1 (delete) or 0
  /// (merge, or a delete that found nothing); the document's distinct
  /// `stems` move their df by `docs`, and `length` moves the collection
  /// length likewise. A delete the statistics cannot absorb is refused
  /// as kCorruption before anything changes. `epoch` becomes the
  /// shard's observed epoch.
  Status ApplyDelta(size_t shard, uint64_t epoch, int docs, int64_t length,
                    const std::vector<std::string>& stems);

  /// Builds the resolved base request: normalised, de-duplicated stems
  /// with global dfs. Returns the query's total idf mass through
  /// `idf_mass_total`. Caller holds stats_mu_ (shared).
  ir::ShardQuery ResolveQuery(const std::vector<std::string>& query_words,
                              size_t n, size_t max_fragments,
                              const ir::RankOptions& options,
                              double* idf_mass_total) const;

  /// Replica indices of `shard`, healthiest first.
  std::vector<size_t> HealthOrder(size_t shard) const;
  /// Hedge budget in µs, or -1 when hedging is not armed for the
  /// shard (disabled, single replica, or window not primed).
  int64_t HedgeBudgetUs(size_t shard) const;
  void RecordCallOutcome(size_t shard, size_t replica, bool ok,
                         double elapsed_us) const;
  void RecordExchangeLatency(size_t shard, double elapsed_us) const;

  /// Queues one attempt of `channel`'s call number `call` on the lane
  /// of (shard, replica). Its deadline (Options::timeout_ms) starts
  /// now. When the lane reaches it, an attempt whose call is answered
  /// is dropped unseen, and one whose deadline has passed fails
  /// without touching the transport; any other runs, records the
  /// replica's health, and lands in `channel`.
  void StartAsyncAttempt(size_t shard, size_t replica,
                         std::shared_ptr<const std::vector<uint8_t>> frame,
                         size_t call, bool is_hedge,
                         std::shared_ptr<Completions> channel) const;

  /// Exchanges `queries` with shards [first, last) at once: queues each
  /// shard's first attempt on its lane, then runs every shard's hedge
  /// budget and failover walk in one loop on the calling thread. Fills
  /// outcomes[first, last) with the answers and the frames actually
  /// exchanged; a shard whose walk is exhausted stays !alive.
  void FanOut(const std::vector<ir::ShardQuery>& queries, size_t first,
              size_t last, std::vector<ShardOutcome>* outcomes) const;

  /// Folds per-shard outcomes into the E4 stats struct; shared by
  /// Query and QueryBatch. `per_query`, when non-null, gets one entry
  /// per query with that rider's own work/latency/quality attribution.
  /// `shard_docs`/`total_docs` are the document counts copied at
  /// resolution time.
  void AggregateStats(const std::vector<ir::ShardQuery>& queries,
                      const std::vector<double>& idf_mass_totals,
                      const std::vector<ShardOutcome>& outcomes,
                      const std::vector<uint64_t>& shard_docs,
                      uint64_t total_docs, ir::ClusterQueryStats* stats,
                      std::vector<ir::ClusterQueryStats>* per_query) const;

  std::vector<ReplicaSet> shards_;
  Options options_;
  /// Guards the global statistics below: queries read them under a
  /// shared lock held only while resolving; Connect() and each
  /// acknowledged mutation's ApplyDelta() rewrite them under a unique
  /// one.
  mutable std::shared_mutex stats_mu_;
  std::unordered_map<std::string, int32_t, ir::TransparentStringHash,
                     std::equal_to<>>
      global_df_;
  int64_t collection_length_ = 0;
  std::vector<uint64_t> shard_docs_;
  uint64_t total_docs_ = 0;
  /// Latest epoch observed per shard; cluster_epoch_ is their sum.
  std::vector<uint64_t> shard_epochs_;
  uint64_t cluster_epoch_ = 0;
  /// Normalisation pipeline the shards advertised in the handshake;
  /// ResolveQuery must match it or recall silently breaks.
  bool norm_stem_ = true;
  bool norm_stop_ = true;
  bool connected_ = false;
  /// Set by EnableParallelism(): pruned queries fan out at once instead
  /// of visiting the shards in turn.
  bool parallel_ = false;

  mutable std::atomic<uint64_t> hedges_fired_{0};
  mutable std::atomic<uint64_t> hedge_wins_{0};
  mutable std::atomic<uint64_t> failovers_{0};
  mutable std::atomic<uint64_t> replica_errors_{0};

  /// Routing state and lanes, one per shard (pointer-stable: ShardState
  /// holds mutexes and running threads).
  std::vector<std::unique_ptr<ShardState>> shard_state_;
};

}  // namespace dls::net

#endif  // DLS_NET_REMOTE_CLUSTER_H_
